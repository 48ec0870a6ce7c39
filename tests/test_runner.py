"""``simulate`` makes each layer's input build a ``_Job``, and
``run_layer`` makes its oracles, its lowering of each view after its
first and its term counts ones: a large layer queues them on one side
thread and a small one runs them when due. The report equals a serial
loop's, each job runs once, each view is lowered once, at most two
layers' inputs are alive, a failure ends in the serial loop's exception
and exit code, and no thread outlives the call."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import bitsim.reference as reference
import bitsim.runner as runner
from bitsim.analysis import report
from bitsim.cli import main
from bitsim.config import load_config, parse_config
from bitsim.geometry import Tensor3
from bitsim.reference import CycleReport, dadn_cycles, variant_key
from bitsim.traces import generate_trace, write_trace
from test_cli import assert_clean_exit, base_config, write_config

ROOT = Path(__file__).resolve().parent.parent
JOIN_TIMEOUT_S = 30
SIDE_MIN_MACS = runner.SIDE_MIN_MACS

linux_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="no thread CPU affinity on this platform")


@pytest.fixture(autouse=True)
def every_layer_on_the_side(monkeypatch):
    """The small layers here hand their builds and oracles to the side
    thread too."""
    monkeypatch.setattr(runner, "SIDE_MIN_MACS", 0)


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
        name, baseline = layer.spec.name, dadn_cycles(layer.spec)
        results, (terms[name], bits[name]) = runner.run_layer(
            cfg, layer, *runner.build_layer_inputs(cfg, layer, index))
        rows += [(name, result, baseline) for result in results]
    return report(rows, terms, bits, cfg.width)


def quantized_layers(count):
    cfg = layers_config(count, width=8)
    for layer in cfg["layers"]:
        layer["quant"] = {"vmin": 0.0, "vmax": 400.0}
    return parse_config(json.dumps(cfg))


@pytest.fixture
def oracle_calls(monkeypatch):
    """``(layer, view, thread name)`` of each oracle the runner computes,
    in the order they start."""
    calls = []
    real = runner._oracle

    def _oracle(cfg, layer, input, filters, trimmed):
        calls.append((layer.spec.name, trimmed, threading.current_thread().name))
        return real(cfg, layer, input, filters, trimmed)

    monkeypatch.setattr(runner, "_oracle", _oracle)
    return calls


@pytest.mark.parametrize("make_cfg", [
    lambda: parse_config(json.dumps(layers_config(3))),
    lambda: quantized_layers(4),
    lambda: load_config(ROOT / "bench" / "workloads" / "alexnet_column.json"),
], ids=["3-layers", "4-layers-width-8", "alexnet-column"])
def test_simulate_equals_a_serial_loop(make_cfg, oracle_calls):
    cfg = make_cfg()
    assert len(cfg.layers) >= 3
    before = threading.active_count()
    doc = runner.simulate(cfg)
    assert threading.active_count() == before
    # every view's oracle was a job, run once, on the side or when due
    views = list(dict.fromkeys(map(runner._reads_trimmed, cfg.engines)))
    assert sorted((name, trimmed) for name, trimmed, _ in oracle_calls) == sorted(
        (layer.spec.name, trimmed) for layer in cfg.layers for trimmed in views)
    assert {thread for _, _, thread in oracle_calls} <= {"MainThread", "bitsim-side"}
    serial = serial_simulate(cfg)
    assert doc.csv_lines() == serial.csv_lines()
    assert doc.table() == serial.table()


def sized_layers(pattern):
    """A config with one layer per entry of ``pattern``: a big layer of
    221,184 MACs for True, a small one of 27,648 for False."""
    cfg = layers_config(len(pattern))
    for layer, big in zip(cfg["layers"], pattern):
        layer.update(dict(i=32, n=16) if big else dict(i=16, n=4))
    return parse_config(json.dumps(cfg))


def queue_order(cfg, pattern):
    """``(job function, layer name)`` of each job ``simulate`` queues on
    the side thread, in order, where ``pattern`` says which layers reach
    ``SIDE_MIN_MACS``: at each layer, the next layer's build, then per
    view the engines read, the view's lowering (past the first view) and
    its oracle, then the layer's term counts. Layer 0's build is due at
    once and is never queued."""
    views = dict.fromkeys(map(runner._reads_trimmed, cfg.engines))
    names = [layer.spec.name for layer in cfg.layers]
    order = []
    for k, name in enumerate(names):
        if k + 1 < len(names) and pattern[k + 1]:
            order.append(("build_layer_inputs", names[k + 1]))
        if pattern[k]:
            for j, _ in enumerate(views):
                order += [("_lower", name)] * (j > 0) + [("_oracle", name)]
            order.append(("_layer_terms", name))
    return order


def patterns(test):
    """``test`` over lists of layer sizes, True for a big layer."""
    test = example([True, False, True, True])(example([False, True, True, False, True])(test))
    return settings(max_examples=15, deadline=None)(
        given(st.lists(st.booleans(), min_size=1, max_size=6))(test))


@patterns
def test_mixed_layer_sizes_equal_a_serial_loop(pattern):
    # Every layer's build, oracles, lowering of each view after its
    # first and term counts are jobs, each run once. A big layer queues
    # its jobs on the side thread, one build ahead; layer 0's build is
    # due at once and is never queued. A small layer's jobs are never
    # queued, so they run on the main thread when due.
    cfg = sized_layers(pattern)
    views = list(dict.fromkeys(map(runner._reads_trimmed, cfg.engines)))
    runs, submitted = [], []
    real_build, real_oracle, real_lower = runner.build_layer_inputs, runner._oracle, runner._lower
    real_terms = runner._layer_terms
    real_submit = runner._SideThread.submit

    def build_layer_inputs(cfg, layer, index):
        runs.append(("build_layer_inputs", layer.spec.name, None,
                     threading.current_thread().name))
        return real_build(cfg, layer, index)

    def _oracle(cfg, layer, input, filters, trimmed):
        runs.append(("_oracle", layer.spec.name, trimmed, threading.current_thread().name))
        return real_oracle(cfg, layer, input, filters, trimmed)

    def _lower(cfg, layer, lowered, trimmed):
        runs.append(("_lower", layer.spec.name, trimmed, threading.current_thread().name))
        return real_lower(cfg, layer, lowered, trimmed)

    def _layer_terms(cfg, layer, input):
        runs.append(("_layer_terms", layer.spec.name, None, threading.current_thread().name))
        return real_terms(cfg, layer, input)

    def submit(self, fn, cfg, layer, *args):
        submitted.append((fn.__name__, layer.spec.name))
        return real_submit(self, fn, cfg, layer, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "SIDE_MIN_MACS", 100_000)
        patch.setattr(runner, "build_layer_inputs", build_layer_inputs)
        patch.setattr(runner, "_oracle", _oracle)
        patch.setattr(runner, "_lower", _lower)
        patch.setattr(runner, "_layer_terms", _layer_terms)
        patch.setattr(runner._SideThread, "submit", submit)
        assert [runner._on_side(layer) for layer in cfg.layers] == pattern
        before = threading.active_count()
        doc = runner.simulate(cfg)
        assert threading.active_count() == before
    names = [layer.spec.name for layer in cfg.layers]
    jobs = [(fn, name, None) for fn in ("build_layer_inputs", "_layer_terms")
            for name in names] + [
        ("_oracle", name, trimmed) for name in names for trimmed in views] + [
        ("_lower", name, trimmed) for name in names for trimmed in views[1:]]
    assert sorted(run[:3] for run in runs) == sorted(jobs)
    assert submitted == queue_order(cfg, pattern)
    for fn, name, _, thread in runs:
        queued = (fn, name) in submitted
        assert thread in (["MainThread", "bitsim-side"] if queued else ["MainThread"])
    assert doc.csv_lines() == serial_simulate(cfg).csv_lines()


@patterns
def test_each_view_is_lowered_once_whichever_thread_lowers_it(pattern):
    # The engines lower a layer's first view on the main thread; its
    # later views are lowered by their jobs, on either thread for a big
    # layer and on the main thread for a small one. The two
    # threads switch often, so that they interleave in the layer's
    # lowering, which both write.
    cfg = sized_layers(pattern)
    views = len(dict.fromkeys(map(runner._reads_trimmed, cfg.engines)))
    lowered = []  # (layer name, thread name) of each view lowering built
    real_view = reference.ViewLowering

    class ViewLowering(real_view):
        def __init__(self, values, filters, spec, *args):
            lowered.append((spec.name, threading.current_thread().name))
            super().__init__(values, filters, spec, *args)

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "SIDE_MIN_MACS", 100_000)
        patch.setattr(reference, "ViewLowering", ViewLowering)
        sys.setswitchinterval(1e-5)
        try:
            doc = runner.simulate(cfg)
        finally:
            sys.setswitchinterval(interval)
    names = [layer.spec.name for layer in cfg.layers]
    assert Counter(name for name, _ in lowered) == Counter({name: views for name in names})
    for big, name in zip(pattern, names):
        threads = [thread for layer, thread in lowered if layer == name]
        assert threads[0] == "MainThread"
        assert set(threads) <= ({"MainThread", "bitsim-side"} if big else {"MainThread"})
    assert doc.csv_lines() == serial_simulate(cfg).csv_lines()


def track_alive_inputs(monkeypatch, count):
    """Patches ``build_layer_inputs`` to record each build of ``count``
    layers. Returns the indices of the layers whose filters are not yet
    collected, the number of them after each build, and an event per
    layer set once it is built."""
    alive, sizes, built = set(), [], [threading.Event() for _ in range(count)]
    real_build = runner.build_layer_inputs

    def build_layer_inputs(cfg, layer, index):
        input, filters = real_build(cfg, layer, index)
        alive.add(index)
        weakref.finalize(filters, alive.discard, index)
        sizes.append(len(alive))
        built[index].set()
        return input, filters

    monkeypatch.setattr(runner, "build_layer_inputs", build_layer_inputs)
    return alive, sizes, built


def test_at_most_two_layers_inputs_are_alive(monkeypatch):
    # Layer k's engines wait until layer k+1's build has finished on the
    # side thread, so layers k and k+1 are alive together; a layer's
    # inputs count as alive until its filters are collected. No third
    # layer's inputs are ever alive beside them.
    count = 6
    alive, sizes, built = track_alive_inputs(monkeypatch, count)
    seen = []
    real_run_layer = runner.run_layer

    def run_layer(cfg, layer, *args):
        index = int(layer.spec.name.removeprefix("conv"))
        if index + 1 < count:
            assert built[index + 1].wait(JOIN_TIMEOUT_S)
        seen.append(sorted(alive))
        return real_run_layer(cfg, layer, *args)

    monkeypatch.setattr(runner, "run_layer", run_layer)
    cfg = parse_config(json.dumps(layers_config(count)))
    doc = runner.simulate(cfg)
    assert max(sizes) <= 2
    assert seen == [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5]]
    assert alive == set()
    assert doc.csv_lines() == serial_simulate(cfg).csv_lines()


def test_without_a_thread_at_most_two_layers_inputs_are_alive(monkeypatch):
    # where no thread can start, the caller runs each job when it is due,
    # and a job it has claimed keeps no layer's inputs alive after that
    def start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    alive, sizes, _ = track_alive_inputs(monkeypatch, 8)
    cfg = parse_config(json.dumps(layers_config(8)))
    doc = runner.simulate(cfg)
    assert len(sizes) == 8 and max(sizes) <= 2
    assert alive == set()
    assert doc.csv_lines() == serial_simulate(cfg).csv_lines()


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs."""
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.mark.parametrize("count", [1, 2, 4])
def test_one_side_thread_per_simulate(thread_starts, count):
    # a one-layer config starts it too, for the layer's oracles
    runner.simulate(parse_config(json.dumps(layers_config(count))))
    assert [t.name for t in thread_starts] == ["bitsim-side"]
    assert not thread_starts[0].is_alive()


@linux_affinity
def test_the_side_thread_leaves_the_callers_cpu_before_its_first_job(monkeypatch):
    # The starter moves the thread to the CPUs other than its own; once
    # there, and before its first job, the thread lets itself run on
    # every CPU the caller may use. The caller keeps its own CPUs.
    allowed = os.sched_getaffinity(0)
    moves = []  # (thread name, target, CPUs) of each move, in order
    seen = []
    real_build, real_move = runner.build_layer_inputs, os.sched_setaffinity

    def sched_setaffinity(pid, cpus):
        real_move(pid, cpus)
        moves.append((threading.current_thread().name, pid, set(cpus)))

    def build_layer_inputs(cfg, layer, index):
        if threading.current_thread() is not threading.main_thread():
            seen.append((len(moves), os.sched_getaffinity(0)))
        return real_build(cfg, layer, index)

    monkeypatch.setattr(os, "sched_setaffinity", sched_setaffinity)
    monkeypatch.setattr(runner, "build_layer_inputs", build_layer_inputs)
    sides = []
    real_start = runner._SideThread._start

    def start(self):
        real_start(self)
        sides.append(self._thread)

    monkeypatch.setattr(runner._SideThread, "_start", start)
    doc = runner.simulate(parse_config(json.dumps(layers_config(3))))
    assert len(doc.rows) == 3 * 6
    if len(allowed) > 1:
        (starter, target, away), (mover, own, back) = moves
        assert (starter, target) == ("MainThread", sides[0].native_id)
        assert away < allowed and len(away) == len(allowed) - 1
        assert (mover, own, back) == ("bitsim-side", 0, allowed)
        # builds that ran on the side thread did so after both moves
        assert all(count == 2 and cpus == allowed for count, cpus in seen)
    else:
        assert moves == []
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
    # only the layers of at least SIDE_MIN_MACS hand their build and
    # their oracles to the side thread
    monkeypatch.setattr(runner, "SIDE_MIN_MACS", SIDE_MIN_MACS)
    submitted = []
    real_submit = runner._SideThread.submit

    def submit(self, fn, cfg, layer, *args):
        submitted.append((fn.__name__, layer.spec.name))
        return real_submit(self, fn, cfg, layer, *args)

    monkeypatch.setattr(runner._SideThread, "submit", submit)
    big = {"nx": 32, "ny": 8, "i": 64, "n": 256, "fx": 3, "fy": 3, "pad": 1,
           "precision": {"width": 8}}  # 37.7M MACs
    small = {"nx": 8, "ny": 4, "i": 16, "n": 8, "fx": 3, "fy": 3, "pad": 1,
             "precision": {"width": 8}}
    cfg = parse_config(json.dumps(base_config(layers=[
        dict(big, name="big0"), dict(big, name="big1"), dict(small, name="small2"),
        dict(big, name="big3")])))
    doc = runner.simulate(cfg)
    # at each layer the next one's build goes in, ahead of its oracles,
    # its trimmed view's lowering and its term counts: small2's is left
    # to the main thread, and big3's is queued at small2
    assert submitted == [
        ("build_layer_inputs", "big1"),
        ("_oracle", "big0"), ("_lower", "big0"), ("_oracle", "big0"), ("_layer_terms", "big0"),
        ("_oracle", "big1"), ("_lower", "big1"), ("_oracle", "big1"), ("_layer_terms", "big1"),
        ("build_layer_inputs", "big3"),
        ("_oracle", "big3"), ("_lower", "big3"), ("_oracle", "big3"), ("_layer_terms", "big3"),
    ]
    assert [t.name for t in thread_starts] == ["bitsim-side"]
    assert doc.csv_lines() == serial_simulate(cfg).csv_lines()
    # the shipped two-layer config runs on the main thread alone
    runner.simulate(load_config(ROOT / "configs" / "example.json"))
    assert [t.name for t in thread_starts] == ["bitsim-side"]


def test_a_run_that_hands_over_no_job_loads_no_queue():
    # no layer of the shipped config reaches SIDE_MIN_MACS, so no job is
    # submitted, and the side thread's queue is never made
    code = ("import sys\n"
            "import bitsim.cli\n"
            "from bitsim.config import load_config\n"
            "from bitsim.runner import simulate\n"
            "simulate(load_config(sys.argv[1]))\n"
            "assert 'queue' not in sys.modules, 'queue was loaded'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, "-c", code, str(ROOT / "configs" / "example.json")],
                   check=True, env=env, timeout=JOIN_TIMEOUT_S)


def test_a_config_without_layers_gives_the_header_only_report(thread_starts):
    # parse_config wants a layer; an ExperimentConfig built in code need not
    cfg = dataclasses.replace(load_config(ROOT / "configs" / "example.json"), layers=[])
    doc = runner.simulate(cfg)
    assert doc.rows == [] and doc.term_counts == {} and doc.bit_stats == {}
    assert doc.csv_lines() == report([], width=cfg.width).csv_lines()
    assert len(doc.csv_lines()) == 1 and doc.csv_lines()[0].startswith("layer,engine,")
    assert thread_starts == []


def other_synapses(spec, sigma, seed, layer_index=0):
    """Uniform values within the synapse bound, unrelated to the draws of
    ``generate_synapses``."""
    rng = np.random.default_rng([seed, layer_index, 99])
    return rng.integers(-127, 128, size=(spec.n, spec.fy, spec.fx, spec.i), dtype=np.int32)


def other_trace(spec, sigma, relu, seed, layer_index=0):
    """The trace of the next seed."""
    return generate_trace(spec, sigma, relu, seed + 1, layer_index)


@pytest.mark.parametrize("path", ["configs/example.json",
                                  "bench/workloads/alexnet_column.json",
                                  "bench/workloads/vgg_pallet.json"])
def test_synapse_values_reach_no_csv(monkeypatch, path):
    # Every engine keeps synapses bit-parallel and processes only neurons
    # serially, so the synapse draws reach the report only through the
    # oracle check: other synapses leave the CSV as it was, while other
    # neurons change it.
    cfg = load_config(ROOT / path)
    csv = runner.simulate(cfg).csv_lines()
    monkeypatch.setattr(runner, "generate_synapses", other_synapses)
    assert runner.simulate(cfg).csv_lines() == csv
    monkeypatch.setattr(runner, "generate_trace", other_trace)
    assert runner.simulate(cfg).csv_lines() != csv


@pytest.fixture
def layers_run(monkeypatch):
    """Names of the layers ``run_layer`` is called on, in order."""
    names = []
    real = runner.run_layer

    def run_layer(cfg, layer, *args):
        names.append(layer.spec.name)
        return real(cfg, layer, *args)

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
    # The side thread holds layer 1's build until layer 0 has failed its
    # oracle check, and the oracle, which the caller claims, waits for
    # that build to start, so the build is in flight when the mismatch
    # raises. Its own failure, if any, is dropped as the serial loop
    # never saw it.
    building, mismatched = threading.Event(), threading.Event()
    workers = []
    real_build, real_oracle = runner.build_layer_inputs, runner.conv_oracle

    def build_layer_inputs(cfg, layer, index):
        if index == 1:
            workers.append(threading.current_thread())
            building.set()
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
        assert building.wait(JOIN_TIMEOUT_S)
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


def test_a_failed_build_one_layer_ahead_is_dropped_when_layer_0_mismatches(
        tmp_path, monkeypatch, layers_run, thread_starts):
    # Layer 1's build, queued at layer 0, fails on the side thread while
    # layer 0's oracle waits for that failure and then returns a corrupt
    # output. The run ends in layer 0's mismatch, as the serial loop
    # does, and layer 1's error never shows.
    failed = threading.Event()
    builders = []
    real_build, real_oracle = runner.build_layer_inputs, runner.conv_oracle

    def build_layer_inputs(cfg, layer, index):
        if index == 1:
            builders.append(threading.current_thread().name)
            failed.set()
            raise MemoryError("layer 1's build")
        return real_build(cfg, layer, index)

    def conv_oracle(view, filters, spec, out_shift):
        out = real_oracle(view, filters, spec, out_shift)
        if spec.name != "conv0":
            return out
        data = out.data.copy()
        data[0, 0, 0] ^= 1
        assert failed.wait(JOIN_TIMEOUT_S)
        return Tensor3(data)

    monkeypatch.setattr(runner, "build_layer_inputs", build_layer_inputs)
    monkeypatch.setattr(runner, "conv_oracle", conv_oracle)
    r, out = simulate_cli(tmp_path, layers_config(3))
    assert_clean_exit(r, 3)
    assert "oracle mismatch: dadn output differs from the oracle on layer 'conv0'" in r.output
    assert "out of memory" not in r.output and "layer 1's build" not in r.output
    assert layers_run == ["conv0"]
    assert builders == ["bitsim-side"]
    assert [t.name for t in thread_starts] == ["bitsim-side"]
    assert not thread_starts[0].is_alive()
    assert not out.exists()


def test_mismatch_on_the_second_view_while_the_next_build_is_in_flight(
        tmp_path, monkeypatch, layers_run, thread_starts):
    # Layer 2's build waits on the side thread until layer 1's second
    # view (the trimmed one stripes reads) has its corrupt oracle, and
    # that oracle waits for the build to start, so the build is in flight
    # when the mismatch raises.
    building, corrupted = threading.Event(), threading.Event()
    builders = []
    real_build, real_oracle = runner.build_layer_inputs, runner.conv_oracle
    seen = []

    def build_layer_inputs(cfg, layer, index):
        if index == 2:
            builders.append(threading.current_thread().name)
            building.set()
            assert corrupted.wait(JOIN_TIMEOUT_S)
        return real_build(cfg, layer, index)

    def conv_oracle(view, filters, spec, out_shift):
        out = real_oracle(view, filters, spec, out_shift)
        seen.append(spec.name)
        if seen.count("conv1") != 2:
            return out
        data = out.data.copy()
        data[0, 0, 0] ^= 1
        assert building.wait(JOIN_TIMEOUT_S)
        corrupted.set()
        return Tensor3(data)

    monkeypatch.setattr(runner, "build_layer_inputs", build_layer_inputs)
    monkeypatch.setattr(runner, "conv_oracle", conv_oracle)
    r, out = simulate_cli(tmp_path, layers_config(3))
    assert_clean_exit(r, 3)
    # dadn passed on the raw view; stripes is the first on the trimmed one
    assert "oracle mismatch: stripes output differs from the oracle on layer 'conv1'" in r.output
    assert layers_run == ["conv0", "conv1"]
    assert builders == ["bitsim-side"]
    assert [t.name for t in thread_starts] == ["bitsim-side"]
    assert not thread_starts[0].is_alive()
    assert not out.exists()


def test_the_caller_claims_jobs_the_blocked_side_thread_has_not_started(
        monkeypatch, oracle_calls, thread_starts):
    # Layer 1's build holds the side thread until layer 0 has run, so
    # layer 0's oracles, queued behind it, are claimed by the caller.
    layer_0_done = threading.Event()
    real_build, real_run_layer = runner.build_layer_inputs, runner.run_layer

    def build_layer_inputs(cfg, layer, index):
        if index == 1:
            assert layer_0_done.wait(JOIN_TIMEOUT_S)
        return real_build(cfg, layer, index)

    def run_layer(cfg, layer, *args):
        results = real_run_layer(cfg, layer, *args)
        if layer.spec.name == "conv0":
            layer_0_done.set()
        return results

    monkeypatch.setattr(runner, "build_layer_inputs", build_layer_inputs)
    monkeypatch.setattr(runner, "run_layer", run_layer)
    cfg = parse_config(json.dumps(layers_config(2)))
    doc = runner.simulate(cfg)
    assert oracle_calls[:2] == [("conv0", False, "MainThread"), ("conv0", True, "MainThread")]
    assert len(oracle_calls) == 4
    assert doc.csv_lines() == serial_simulate(cfg).csv_lines()
    assert not thread_starts[0].is_alive()


def test_an_oracle_out_of_memory_is_a_resource_error_when_its_layer_is_due(
        tmp_path, monkeypatch, layers_run):
    # conv1's second oracle fails on the side thread; the error surfaces
    # once conv1's first engine on that view has run, as in a serial loop
    real, real_run, real_build = runner.conv_oracle, runner._run, runner.build_layer_inputs
    raw, engines_run = [], []

    def conv_oracle(view, filters, spec, out_shift):
        if spec.name == "conv1" and not np.array_equal(view.data, raw[0].data):
            raise MemoryError("patched into conv1's trimmed oracle")
        return real(view, filters, spec, out_shift)

    def build_layer_inputs(cfg, layer, index):
        built = real_build(cfg, layer, index)
        if index == 1:
            raw.append(built[0])
        return built

    def _run(sel, layer, lowered):
        engines_run.append((layer.spec.name, sel.label()))
        return real_run(sel, layer, lowered)

    monkeypatch.setattr(runner, "conv_oracle", conv_oracle)
    monkeypatch.setattr(runner, "build_layer_inputs", build_layer_inputs)
    monkeypatch.setattr(runner, "_run", _run)
    r, out = simulate_cli(tmp_path, layers_config(3))
    assert_clean_exit(r, 2)
    assert "resource error: out of memory (patched into conv1's trimmed oracle)" in r.output
    assert layers_run == ["conv0", "conv1"]
    assert engines_run[-2:] == [("conv1", "dadn"), ("conv1", "stripes")]
    assert not out.exists()


def test_a_lowering_out_of_memory_on_the_side_thread_is_a_resource_error(
        tmp_path, monkeypatch, layers_run):
    # conv1's trimmed view, the only view lowered on the side thread,
    # fails there while the main thread lowers the raw view; the error
    # surfaces once dadn, the raw view's engine, has run, and before
    # stripes, the first engine on the trimmed view, as in a serial loop
    failed = threading.Event()
    lowerings, engines_run = [], []
    real_view, real_run = reference.ViewLowering, runner._run

    class ViewLowering(real_view):
        def __init__(self, values, filters, spec, *args):
            thread = threading.current_thread().name
            lowerings.append((spec.name, thread))
            if spec.name == "conv1":
                if thread == "bitsim-side":
                    failed.set()
                    raise MemoryError("patched into conv1's trimmed lowering")
                assert failed.wait(JOIN_TIMEOUT_S)
            super().__init__(values, filters, spec, *args)

    def _run(sel, layer, lowered):
        engines_run.append((layer.spec.name, sel.label()))
        return real_run(sel, layer, lowered)

    monkeypatch.setattr(reference, "ViewLowering", ViewLowering)
    monkeypatch.setattr(runner, "_run", _run)
    r, out = simulate_cli(tmp_path, layers_config(3))
    assert_clean_exit(r, 2)
    assert "resource error: out of memory (patched into conv1's trimmed lowering)" in r.output
    assert layers_run == ["conv0", "conv1"]
    assert [run for run in engines_run if run[0] == "conv1"] == [("conv1", "dadn")]
    assert sorted(thread for name, thread in lowerings if name == "conv1") == [
        "MainThread", "bitsim-side"]
    assert not out.exists()


def test_term_counts_out_of_memory_on_the_side_thread_is_a_resource_error(
        tmp_path, monkeypatch, layers_run):
    # conv1's term counts fail on the side thread while its engines run;
    # the error surfaces once all of them have run, and before conv2's,
    # as in a serial loop
    counted, engines_run = [], []
    real_count, real_run = runner.count_terms, runner._run

    def count_terms(input, spec, *args):
        counted.append((spec.name, threading.current_thread().name))
        if spec.name == "conv1":
            raise MemoryError("patched into conv1's term counts")
        return real_count(input, spec, *args)

    def _run(sel, layer, lowered):
        if layer.spec.name == "conv1" and sel == layer_engines[-1]:
            deadline = time.monotonic() + JOIN_TIMEOUT_S
            while ("conv1", "bitsim-side") not in counted and time.monotonic() < deadline:
                time.sleep(0.001)  # the side thread has reached the counts
        engines_run.append((layer.spec.name, sel.label()))
        return real_run(sel, layer, lowered)

    cfg = layers_config(3)
    layer_engines = parse_config(json.dumps(cfg)).engines
    monkeypatch.setattr(runner, "count_terms", count_terms)
    monkeypatch.setattr(runner, "_run", _run)
    r, out = simulate_cli(tmp_path, cfg)
    assert_clean_exit(r, 2)
    assert "resource error: out of memory (patched into conv1's term counts)" in r.output
    assert layers_run == ["conv0", "conv1"]
    assert [label for name, label in engines_run if name == "conv1"] == [
        sel.label() for sel in layer_engines]
    assert ("conv1", "bitsim-side") in counted
    assert not out.exists()


def test_a_caller_waiting_on_the_side_thread_runs_its_layers_unstarted_jobs(monkeypatch):
    # The side thread holds the raw view's oracle until the caller has
    # run the two jobs queued behind it, the trimmed view's lowering and
    # oracle, which it does while it waits for that oracle after dadn.
    cfg = parse_config(json.dumps(layers_config(1)))
    serial = serial_simulate(cfg).csv_lines()
    busy, helped = threading.Event(), threading.Event()
    runs = []
    real_oracle, real_lower, real_run = runner._oracle, runner._lower, runner._run

    def _oracle(cfg, layer, input, filters, trimmed):
        thread = threading.current_thread().name
        runs.append(("_oracle", trimmed, thread))
        if thread == "bitsim-side":
            busy.set()
            assert helped.wait(JOIN_TIMEOUT_S)
        out = real_oracle(cfg, layer, input, filters, trimmed)
        if thread == "MainThread":
            helped.set()
        return out

    def _lower(cfg, layer, lowered, trimmed):
        runs.append(("_lower", trimmed, threading.current_thread().name))
        return real_lower(cfg, layer, lowered, trimmed)

    def _run(sel, layer, lowered):
        assert busy.wait(JOIN_TIMEOUT_S)  # the side thread runs the raw oracle
        return real_run(sel, layer, lowered)

    monkeypatch.setattr(runner, "_oracle", _oracle)
    monkeypatch.setattr(runner, "_lower", _lower)
    monkeypatch.setattr(runner, "_run", _run)
    assert runner.simulate(cfg).csv_lines() == serial
    assert runs == [("_oracle", False, "bitsim-side"), ("_lower", True, "MainThread"),
                    ("_oracle", True, "MainThread")]


def test_run_layer_without_a_side_thread_runs_its_jobs_in_turn_with_the_engines(
        monkeypatch):
    # With its default, unqueued jobs, run_layer runs each on the calling
    # thread when due: a view's lowering before the first engine that
    # reads the view, its oracle once that engine has run, and the term
    # counts once every engine has run.
    cfg = parse_config(json.dumps(layers_config(1)))
    layer = cfg.layers[0]
    runs = []
    real_oracle, real_lower = runner._oracle, runner._lower
    real_run, real_terms = runner._run, runner._layer_terms

    def _oracle(cfg, layer, input, filters, trimmed):
        runs.append(("_oracle", trimmed, threading.current_thread().name))
        return real_oracle(cfg, layer, input, filters, trimmed)

    def _lower(cfg, layer, lowered, trimmed):
        runs.append(("_lower", trimmed, threading.current_thread().name))
        return real_lower(cfg, layer, lowered, trimmed)

    def _run(sel, layer, lowered):
        runs.append(("_run", sel.label(), threading.current_thread().name))
        return real_run(sel, layer, lowered)

    def _layer_terms(cfg, layer, input):
        runs.append(("_layer_terms", None, threading.current_thread().name))
        return real_terms(cfg, layer, input)

    for name, patched in [("_oracle", _oracle), ("_lower", _lower), ("_run", _run),
                          ("_layer_terms", _layer_terms)]:
        monkeypatch.setattr(runner, name, patched)
    before = threading.active_count()
    inputs = runner.build_layer_inputs(cfg, layer, 0)
    results, (terms, bits) = runner.run_layer(cfg, layer, *inputs)
    assert threading.active_count() == before
    labels = [sel.label() for sel in cfg.engines]
    assert labels[:2] == ["dadn", "stripes"]  # the raw view's engine, then the trimmed one's
    assert [run[:2] for run in runs] == [
        ("_run", "dadn"), ("_oracle", False),
        ("_lower", True), ("_run", "stripes"), ("_oracle", True),
        *(("_run", label) for label in labels[2:]), ("_layer_terms", None)]
    assert {thread for *_, thread in runs} == {threading.current_thread().name}
    assert [(r.engine, r.variant) for r in results] == [
        (row.engine, row.variant) for row in runner.simulate(cfg).rows]
    assert (terms, bits) == real_terms(cfg, layer, inputs[0])


def test_a_waiting_caller_never_runs_another_layers_build(monkeypatch):
    # Layer 1's build holds the side thread until the caller has waited
    # for it a while, with layer 2's build unclaimed behind it. The
    # caller runs a build only once it is due: layer k's, once layer
    # k - 1 has run.
    events = []  # ("build", index, thread) and ("ran", index), in order
    claimed, layer_0_ran = threading.Event(), threading.Event()
    real_build, real_run_layer = runner.build_layer_inputs, runner.run_layer

    def build_layer_inputs(cfg, layer, index):
        thread = threading.current_thread().name
        events.append(("build", index, thread))
        if index == 1 and thread == "bitsim-side":
            claimed.set()
            assert layer_0_ran.wait(JOIN_TIMEOUT_S)
            time.sleep(0.2)  # the caller waits for this build meanwhile
        return real_build(cfg, layer, index)

    def run_layer(cfg, layer, *args):
        index = int(layer.spec.name.removeprefix("conv"))
        assert claimed.wait(JOIN_TIMEOUT_S)
        results = real_run_layer(cfg, layer, *args)
        events.append(("ran", index))
        layer_0_ran.set()
        return results

    monkeypatch.setattr(runner, "build_layer_inputs", build_layer_inputs)
    monkeypatch.setattr(runner, "run_layer", run_layer)
    cfg = parse_config(json.dumps(layers_config(4)))
    doc = runner.simulate(cfg)
    assert ("build", 1, "bitsim-side") in events
    for at, event in enumerate(events):
        if event[0] == "build" and event[2] == "MainThread" and event[1] > 0:
            assert ("ran", event[1] - 1) in events[:at], events
    assert doc.csv_lines() == serial_simulate(cfg).csv_lines()


@pytest.mark.parametrize("outcome", ["returns", "raises"])
def test_no_thread_is_alive_after_simulate(monkeypatch, thread_starts, outcome):
    if outcome == "raises":
        def dadn_layer(lowered):
            raise OverflowError("patched into dadn")

        monkeypatch.setattr(runner, "dadn_layer", dadn_layer)
    cfg = parse_config(json.dumps(layers_config(3)))
    if outcome == "raises":
        with pytest.raises(OverflowError, match="patched into dadn"):
            runner.simulate(cfg)
    else:
        runner.simulate(cfg)
    assert [t.name for t in thread_starts] == ["bitsim-side"]
    assert not thread_starts[0].is_alive()


def test_each_job_runs_once_however_the_threads_interleave():
    # Four claimants on two CPUs: the side thread and three callers that
    # ask for every job in the order the side thread takes them, all let
    # go at once, so they race to claim each job. A claim that is not
    # atomic runs some job twice.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    side = runner._SideThread()
    runs, errors = [], []
    go = threading.Event()

    def ask_for_every_job():
        go.wait(JOIN_TIMEOUT_S)
        try:
            assert [job.result() for job in jobs] == [k * k for k in range(3000)]
        except BaseException as e:  # checked below, on the test's thread
            errors.append(e)

    callers = [threading.Thread(target=ask_for_every_job) for _ in range(3)]
    try:
        side.submit(go.wait, JOIN_TIMEOUT_S)  # holds the side thread until all start
        jobs = [side.submit(lambda k: runs.append(k) or k * k, k) for k in range(3000)]
        for caller in callers:
            caller.start()
        go.set()
        for caller in callers:
            caller.join(JOIN_TIMEOUT_S)
    finally:
        go.set()
        side.close()
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert not side._thread.is_alive()
    assert errors == []
    assert sorted(runs) == list(range(3000))


def test_an_unqueued_job_runs_once_on_the_caller_at_its_first_result():
    runs = []
    job = runner._Job(lambda k: runs.append(threading.current_thread()) or [k], 7)
    assert runs == []
    value = job.result()
    assert value == [7] and runs == [threading.current_thread()]
    assert job.result() is value
    assert runs == [threading.current_thread()]


def test_a_job_raises_the_same_exception_at_every_result():
    runs = []

    def fail():
        runs.append(threading.current_thread())
        raise MemoryError("patched into a job")

    job = runner._Job(fail)
    with pytest.raises(MemoryError, match="patched into a job") as first:
        job.result()
    with pytest.raises(MemoryError) as again:
        job.result()
    assert again.value is first.value
    assert runs == [threading.current_thread()]


def test_a_job_that_has_run_drops_its_function_and_arguments():
    class Arg:
        """An argument a weak reference can follow."""

    arg, collected = Arg(), []
    weakref.finalize(arg, collected.append, "arg")
    job = runner._Job(lambda a: 3, arg)
    del arg
    assert collected == []
    assert job.result() == 3
    assert collected == ["arg"]
    assert job.fn is None and job.args is None


def test_the_side_thread_keeps_no_job_it_has_run():
    # Once the caller drops a job and its value, the side thread holds
    # neither while it waits for the next job, which never comes.
    class Value:
        """A value a weak reference can follow."""

    side = runner._SideThread()
    collected = threading.Event()
    try:
        job = side.submit(Value)
        value = job.result()
        weakref.finalize(value, collected.set)
        del job, value
        assert collected.wait(5)
        assert side._thread.is_alive()
    finally:
        side.close()


def test_each_csv_column_holds_what_it_names():
    cfg = load_config(ROOT / "configs" / "example.json")
    runs = []
    for index, layer in enumerate(cfg.layers):
        input, filters = runner.build_layer_inputs(cfg, layer, index)
        results, _ = runner.run_layer(cfg, layer, input, filters)
        runs += [(layer.spec.name, result, dadn_cycles(layer.spec)) for result in results]
    rows = list(csv.DictReader(runner.simulate(cfg).csv_lines()))
    assert len(rows) == len(runs)
    counters = [field.name for field in dataclasses.fields(CycleReport)]
    for row, (name, result, baseline) in zip(rows, runs):
        assert (row["layer"], row["engine"], row["variant"], int(row["width"])) == (
            name, result.engine, result.variant, cfg.width)
        assert {c: int(row[c]) for c in counters} == dataclasses.asdict(result.report)
        assert float(row["speedup_vs_dadn"]) == pytest.approx(
            baseline / result.report.compute_cycles, rel=1e-5)
        assert row["oracle_ok"] == "1"
        assert len(row) == len(counters) + 6

    terms, bits = runner.analyze(cfg)
    rows = list(csv.DictReader(runner.analyze_csv_lines(cfg, terms, bits)))
    assert [row["layer"] for row in rows] == [layer.spec.name for layer in cfg.layers]
    for row in rows:
        tc, bs = terms[row["layer"]], bits[row["layer"]]
        norm = tc.normalized()
        assert (int(row["width"]), int(row["pairs"])) == (cfg.width, tc.pairs)
        assert {c: float(row[c]) for c in ("essential_frac_all", "essential_frac_nz",
                                           "zero_fraction")} == pytest.approx({
            "essential_frac_all": bs.mean_essential_frac_all,
            "essential_frac_nz": bs.mean_essential_frac_nonzero,
            "zero_fraction": bs.zero_fraction}, rel=1e-5)
        tagged = {column: value for column, value in row.items()
                  if column.startswith(("terms_", "norm_"))}
        assert {c.removeprefix("terms_"): int(v) for c, v in tagged.items()
                if c.startswith("terms_")} == tc.totals
        norms = {c.removeprefix("norm_"): float(v) for c, v in tagged.items()
                 if c.startswith("norm_")}
        assert norms == pytest.approx({tag: norm[tag] for tag in norms}, rel=1e-5)
        assert sorted(norms) == ["pra_fp16", "pra_red", "str"]
        assert len(row) == len(tagged) + 6


def test_a_variant_has_one_name_in_messages_and_report_rows():
    # mismatch messages name a variant by EngineSelector.label, the
    # report's aggregate lines by LayerRow.key; both are variant_key,
    # and they agree where the selector names a variant, pragmatic's
    cfg = load_config(ROOT / "configs" / "example.json")
    doc = runner.simulate(cfg)
    assert len(doc.rows) == len(cfg.engines) * len(cfg.layers)
    assert any(sel.engine == "pragmatic" for sel in cfg.engines)
    for row, sel in zip(doc.rows, cfg.engines * len(cfg.layers)):
        assert row.key == variant_key(row.engine, row.variant)
        assert sel.label() == (row.key if sel.engine == "pragmatic" else sel.engine)
        if sel.engine == "pragmatic":
            assert sel.label() == f"pragmatic:{sel.prag.variant_name()}"


@pytest.mark.parametrize("width", [16, 8])
def test_synthetic_channels_past_the_declared_depth_are_zeros(tmp_path, width):
    # A depth of 3 is zero-extended to 16: the draw fills channels 0-2
    # only, so the run equals one that reads those 3 channels from a file.
    layer = {"name": "thin", "nx": 4, "ny": 4, "i": 3, "n": 2, "fx": 1, "fy": 1,
             "precision": {"width": 7}}
    if width == 8:
        layer["quant"] = {"vmin": 0.0, "vmax": 400.0}
    cfg = base_config(width=width, layers=[layer])
    synthetic = parse_config(json.dumps(cfg))
    input = runner.build_layer_input(synthetic, synthetic.layers[0], 0)
    assert input.dims == (4, 4, 16)
    assert input.data[:, :, :3].any()
    assert not input.data[:, :, 3:].any()

    path = tmp_path / "thin.prgt"
    write_trace(path, Tensor3(input.data[:, :, :3]))
    from_file = parse_config(json.dumps({**cfg, "trace": {"kind": "file", "path": str(path)}}))
    assert runner.simulate(synthetic).csv_lines() == runner.simulate(from_file).csv_lines()
    assert runner.analyze_csv_lines(synthetic, *runner.analyze(synthetic)) == \
        runner.analyze_csv_lines(from_file, *runner.analyze(from_file))
