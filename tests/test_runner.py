"""``simulate`` builds each next layer's inputs on a worker thread: the
report equals a serial loop's, a failure ends in the serial loop's
exception and exit code, and no thread outlives the call."""

import json
import os
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

import bitsim.runner as runner
from bitsim.analysis import report
from bitsim.cli import main
from bitsim.config import load_config, parse_config
from bitsim.geometry import Tensor3
from bitsim.reference import dadn_cycles
from bitsim.traces import generate_trace, write_trace
from test_cli import assert_clean_exit, base_config, write_config

ROOT = Path(__file__).resolve().parent.parent
JOIN_TIMEOUT_S = 30
PREFETCH_MIN_VALUES = runner.PREFETCH_MIN_VALUES

linux_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="no thread CPU affinity on this platform")


@pytest.fixture(autouse=True)
def every_layer_prefetched(monkeypatch):
    """The small layers here are built on a worker too."""
    monkeypatch.setattr(runner, "PREFETCH_MIN_VALUES", 0)


@pytest.fixture(autouse=True)
def caller_keeps_its_cpus():
    """No test here may change the CPUs the calling thread may run on."""
    cpus_of = getattr(os, "sched_getaffinity", None)  # a test may remove it
    before = cpus_of and cpus_of(0)
    yield
    if cpus_of is not None:
        assert cpus_of(0) == before


def layers_config(count, **overrides):
    """``base_config`` with ``count`` layers ``conv0``, ``conv1``, ... of
    varied depth and filter count, and a column-sync variant."""
    layers = [
        {"name": f"conv{k}", "nx": 8, "ny": 6, "i": 16 * (1 + k % 2), "n": 4 + 4 * k,
         "fx": 3, "fy": 3, "s": 1, "pad": 1, "act": "relu",
         "precision": {"width": 8 - k % 3}}
        for k in range(count)
    ]
    engines = [{"engine": "dadn"}, {"engine": "stripes"},
               {"engine": "pragmatic", "l_bits": [0, 2], "sync": "pallet"},
               {"engine": "pragmatic", "l_bits": 2, "sync": "column", "ssrs": [1, "inf"]}]
    return base_config(layers=layers, engines=engines, **overrides)


def serial_simulate(cfg):
    """``runner.simulate`` as a plain loop: each layer built, run and
    counted in turn, on this thread."""
    rows, terms, bits = [], {}, {}
    for index, layer in enumerate(cfg.layers):
        input, filters = runner.build_layer_inputs(cfg, layer, index)
        baseline = dadn_cycles(layer.spec)
        for result in runner.run_layer(cfg, layer, input, filters):
            rows.append((layer.spec.name, result, baseline))
        terms[layer.spec.name], bits[layer.spec.name] = runner._layer_terms(cfg, layer, input)
    return report(rows, terms, bits, cfg.width)


def quantized_layers(count):
    cfg = layers_config(count, width=8)
    for layer in cfg["layers"]:
        layer["quant"] = {"vmin": 0.0, "vmax": 400.0}
    return parse_config(json.dumps(cfg))


@pytest.mark.parametrize("make_cfg", [
    lambda: parse_config(json.dumps(layers_config(3))),
    lambda: quantized_layers(4),
    lambda: load_config(ROOT / "bench" / "workloads" / "alexnet_column.json"),
], ids=["3-layers", "4-layers-width-8", "alexnet-column"])
def test_simulate_equals_a_serial_loop(make_cfg):
    cfg = make_cfg()
    assert len(cfg.layers) >= 3
    before = threading.active_count()
    doc = runner.simulate(cfg)
    assert threading.active_count() == before
    serial = serial_simulate(cfg)
    assert doc.csv_lines() == serial.csv_lines()
    assert doc.table() == serial.table()


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self.name)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.mark.parametrize("count", [1, 2, 4])
def test_one_worker_per_layer_after_the_first(thread_starts, count):
    # a one-layer config starts no thread
    runner.simulate(parse_config(json.dumps(layers_config(count))))
    assert thread_starts == [f"bitsim-inputs-{k}" for k in range(1, count)]


@linux_affinity
def test_the_worker_keeps_off_one_cpu_and_the_caller_keeps_its_own(monkeypatch):
    allowed = os.sched_getaffinity(0)
    moved = threading.Semaphore(0)  # released once per worker the starter moves
    seen = []
    real_build, real_move = runner.build_layer_inputs, os.sched_setaffinity

    def sched_setaffinity(pid, cpus):
        real_move(pid, cpus)
        moved.release()

    def build_layer_inputs(cfg, layer, index):
        if threading.current_thread() is not threading.main_thread():
            if len(allowed) > 1:
                assert moved.acquire(timeout=JOIN_TIMEOUT_S)
            seen.append(os.sched_getaffinity(0))
        return real_build(cfg, layer, index)

    monkeypatch.setattr(os, "sched_setaffinity", sched_setaffinity)
    monkeypatch.setattr(runner, "build_layer_inputs", build_layer_inputs)
    doc = runner.simulate(parse_config(json.dumps(layers_config(3))))
    assert len(doc.rows) == 3 * 6 and len(seen) == 2
    for cpus in seen:  # all the CPUs but the one the caller was on
        assert cpus <= allowed and len(cpus) == max(1, len(allowed) - 1)
    assert os.sched_getaffinity(0) == allowed


@pytest.mark.parametrize("platform", ["affinity-refused", "no-affinity-calls"])
def test_a_worker_without_a_cpu_of_its_own_gives_the_same_report(monkeypatch, platform):
    if platform == "affinity-refused":
        def refuse(pid, cpus):
            raise OSError("refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    cfg = parse_config(json.dumps(layers_config(3)))
    assert runner.simulate(cfg).csv_lines() == serial_simulate(cfg).csv_lines()


def test_a_thread_that_cannot_start_leaves_the_build_to_the_caller(monkeypatch):
    def start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    cfg = parse_config(json.dumps(layers_config(3)))
    assert runner.simulate(cfg).csv_lines() == serial_simulate(cfg).csv_lines()


def test_layers_too_small_for_a_worker_are_built_when_due(monkeypatch, thread_starts):
    monkeypatch.setattr(runner, "PREFETCH_MIN_VALUES", PREFETCH_MIN_VALUES)
    big = {"nx": 16, "ny": 4, "i": 64, "n": 256, "fx": 3, "fy": 3, "pad": 1,
           "precision": {"width": 8}}  # 4096 neurons and 147456 synapses
    small = {"nx": 8, "ny": 4, "i": 16, "n": 8, "fx": 3, "fy": 3, "pad": 1,
             "precision": {"width": 8}}
    cfg = parse_config(json.dumps(base_config(layers=[
        dict(big, name="big0"), dict(big, name="big1"), dict(small, name="small2"),
        dict(big, name="big3")])))
    doc = runner.simulate(cfg)
    assert thread_starts == ["bitsim-inputs-1", "bitsim-inputs-3"]
    assert doc.csv_lines() == serial_simulate(cfg).csv_lines()
    # the shipped two-layer config is built on the main thread alone
    runner.simulate(load_config(ROOT / "configs" / "example.json"))
    assert thread_starts == ["bitsim-inputs-1", "bitsim-inputs-3"]


@pytest.fixture
def layers_run(monkeypatch):
    """Names of the layers ``run_layer`` is called on, in order."""
    names = []
    real = runner.run_layer

    def run_layer(cfg, layer, input, filters):
        names.append(layer.spec.name)
        return real(cfg, layer, input, filters)

    monkeypatch.setattr(runner, "run_layer", run_layer)
    return names


def simulate_cli(tmp_path, cfg):
    """``bitsim simulate`` of ``cfg``, checking that it leaves no thread."""
    before = threading.active_count()
    out = tmp_path / "out.csv"
    r = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, cfg)),
                                  "--out", str(out)])
    assert threading.active_count() == before
    return r, out


def test_bad_trace_path_of_layer_2_is_an_io_error(tmp_path, layers_run):
    cfg = layers_config(3)
    parsed = parse_config(json.dumps(cfg))
    paths = []
    for index, layer in enumerate(parsed.layers[:2]):
        paths.append(str(tmp_path / f"conv{index}.prgt"))
        write_trace(paths[-1], generate_trace(layer.spec, 100.0, True, 5, index))
    paths.append(str(tmp_path / "missing.prgt"))
    cfg["trace"] = {"kind": "file", "paths": paths}
    r, out = simulate_cli(tmp_path, cfg)
    assert_clean_exit(r, 2)
    assert "i/o error: cannot read trace" in r.output and "missing.prgt" in r.output
    assert layers_run == ["conv0", "conv1"]  # as in the serial loop
    assert not out.exists()


def test_out_of_memory_in_the_last_draw_is_a_resource_error(tmp_path, monkeypatch,
                                                            layers_run):
    real = runner.generate_synapses

    def generate_synapses(spec, sigma, seed, layer_index=0):
        if layer_index == 3:
            raise MemoryError("patched into the last layer's draw")
        return real(spec, sigma, seed, layer_index)

    monkeypatch.setattr(runner, "generate_synapses", generate_synapses)
    r, out = simulate_cli(tmp_path, layers_config(4))
    assert_clean_exit(r, 2)
    assert "resource error: out of memory (patched into the last layer's draw)" in r.output
    assert layers_run == ["conv0", "conv1", "conv2"]
    assert not out.exists()


@pytest.mark.parametrize("prefetch_fails", [False, True], ids=["prefetch-ok", "prefetch-raises"])
def test_oracle_mismatch_on_layer_0_while_layer_1_prefetches(tmp_path, monkeypatch,
                                                              prefetch_fails):
    # The worker holds layer 1's build until layer 0 has failed its
    # oracle check, so the build is in flight when the mismatch raises.
    # Its own failure, if any, is dropped as the serial loop never saw it.
    mismatched = threading.Event()
    workers = []
    real_build, real_oracle = runner.build_layer_inputs, runner.conv_oracle

    def build_layer_inputs(cfg, layer, index):
        if index == 1:
            workers.append(threading.current_thread())
            assert mismatched.wait(JOIN_TIMEOUT_S)
            if prefetch_fails:
                raise MemoryError("layer 1's build")
        return real_build(cfg, layer, index)

    def conv_oracle(view, filters, spec, out_shift):
        out = real_oracle(view, filters, spec, out_shift)
        if spec.name != "conv0":
            return out
        data = out.data.copy()
        data[0, 0, 0] ^= 1  # stays inside the 16-bit container
        mismatched.set()
        return Tensor3(data)

    monkeypatch.setattr(runner, "build_layer_inputs", build_layer_inputs)
    monkeypatch.setattr(runner, "conv_oracle", conv_oracle)
    r, out = simulate_cli(tmp_path, layers_config(3))
    assert_clean_exit(r, 3)
    assert "oracle mismatch: dadn output differs from the oracle on layer 'conv0'" in r.output
    assert len(workers) == 1 and workers[0] is not threading.main_thread()
    assert not workers[0].is_alive()
    assert not out.exists()
