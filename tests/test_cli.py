import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import bitsim.cli as cli_mod
import bitsim.pragmatic as pragmatic_mod
import bitsim.reference as reference_mod
import bitsim.runner as runner_mod
import bitsim.stripes as stripes_mod
from bitsim.cli import main
from bitsim.config import ConfigError, parse_config
from bitsim.geometry import Tensor3, output_dims
from bitsim.traces import DTYPE_I16, DTYPE_U8, read_trace, write_trace
from test_config import _slots

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_config(**overrides):
    cfg = {
        "seed": 11,
        "width": 16,
        "trace": {"kind": "synthetic", "sigma": 120.0, "relu": True},
        "synapse_sigma": 10.0,
        "layers": [
            {
                "name": "conv1",
                "nx": 8, "ny": 8, "i": 16, "n": 4, "fx": 3, "fy": 3,
                "s": 1, "pad": 1, "act": "relu",
                "precision": {"width": 8},
            }
        ],
        "engines": [
            {"engine": "dadn"},
            {"engine": "stripes"},
            {"engine": "pragmatic", "l_bits": [0, 2, 4], "sync": "pallet"},
        ],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def example_with(tmp_path, path, value):
    """``configs/example.json`` with the value at ``path`` replaced, written
    to ``tmp_path``."""
    cfg = json.loads((CONFIGS / "example.json").read_text())
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return write_config(tmp_path, cfg)


def im2col_mutant(pad_offset=0, row_stride=True):
    """``reference.im2col`` with its padding offset off by ``pad_offset``,
    or with the stride dropped from the row index."""
    def im2col(input, spec, top=0, rows=None):
        ox, oy, _ = output_dims(spec)
        rows = oy - top if rows is None else rows
        cols = np.zeros((rows, ox, spec.fy, spec.fx, spec.i), dtype=np.int32)
        for by in range(spec.fy):
            for bx in range(spec.fx):
                for l in range(rows):
                    y = (top + l) * (spec.s if row_stride else 1) + by - spec.pad + pad_offset
                    if not 0 <= y < spec.ny:
                        continue
                    xs = np.arange(ox) * spec.s + bx - spec.pad + pad_offset
                    ok = (xs >= 0) & (xs < spec.nx)
                    cols[l, ok, by, bx, :] = input.data[y, xs[ok], :]
        return cols.reshape(rows * ox, -1)
    return im2col


def two_stage_step_reaching_one_further(real):
    """``two_stage_step`` whose first stage also takes a head at ``c + 2^L``."""
    def two_stage_step(heads, l_bits):
        heads = list(heads)
        c, _ = real(heads, l_bits)
        return c, tuple(h is not None and h <= c + (1 << l_bits) for h in heads)
    return two_stage_step


def two_stage_step_advancing_nothing(real):
    """``two_stage_step`` whose first stage takes no head, not even at ``c``."""
    def two_stage_step(heads, l_bits):
        c, advance = real(heads, l_bits)
        return c, (False,) * len(advance)
    return two_stage_step


def exact_matmul_without_last_chunk(x, w):
    """``reference.exact_matmul`` that drops the last chunk of its reduction,
    chunked under the bound of the float type the real one takes."""
    peak = int(np.abs(x).max()) * int(np.abs(w).max())
    limit = reference_mod.EXACT_FLOAT32_LIMIT
    if peak >= limit:
        limit = reference_mod.EXACT_FLOAT_LIMIT
    chunk = max(1, (limit - 1) // max(peak, 1))
    acc = np.zeros((x.shape[0], w.shape[0]), dtype=np.int64)
    for lo in range(0, x.shape[1], chunk)[:-1]:
        acc += x[:, lo : lo + chunk].astype(np.int64) @ w[:, lo : lo + chunk].T
    return acc


class TestConfigParsing:
    def test_grid_expansion_order(self):
        cfg = parse_config(json.dumps(base_config()))
        labels = [e.label() for e in cfg.engines]
        assert labels == [
            "dadn",
            "stripes",
            "pragmatic:0b-pallet-red",
            "pragmatic:2b-pallet-red",
            "pragmatic:4b-pallet-red",
        ]

    def test_missing_field_named(self):
        bad = base_config()
        del bad["layers"][0]["nx"]
        with pytest.raises(ConfigError, match="nx"):
            parse_config(json.dumps(bad))

    def test_bad_geometry_rejected(self):
        bad = base_config()
        bad["layers"][0]["s"] = 3  # (8 + 2 - 3) % 3 != 0
        with pytest.raises(ConfigError, match="geometry"):
            parse_config(json.dumps(bad))

    def test_width8_requires_quant(self):
        bad = base_config(width=8)
        bad["layers"][0]["precision"] = {"width": 6}
        with pytest.raises(ConfigError, match="quant"):
            parse_config(json.dumps(bad))

    def test_ssrs_inf(self):
        cfg = base_config()
        cfg["engines"] = [{"engine": "pragmatic", "sync": "column", "ssrs": "inf"}]
        parsed = parse_config(json.dumps(cfg))
        assert parsed.engines[0].prag.ssr_count is None

    def test_depth_zero_extended(self):
        cfg = base_config()
        cfg["layers"][0]["i"] = 20
        parsed = parse_config(json.dumps(cfg))
        assert parsed.layers[0].spec.i == 32
        assert parsed.layers[0].depth == 20


class TestSimulateCommand:
    def test_runs_and_writes_deterministic_csv(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        runner = CliRunner()
        r1 = runner.invoke(main, ["simulate", str(path), "--out", str(out1)])
        assert r1.exit_code == 0, r1.output
        r2 = runner.invoke(main, ["simulate", str(path), "--out", str(out2)])
        assert r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert len(lines) == 1 + 5  # header + one row per engine variant
        assert lines[0].startswith("layer,engine,variant,width,compute_cycles")

    def test_seed_override_changes_rows(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        runner = CliRunner()
        runner.invoke(main, ["simulate", str(path), "--out", str(out1)])
        runner.invoke(main, ["simulate", str(path), "--seed", "99", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_pallet_buffers_name_their_variants(self, tmp_path):
        column = {"engine": "pragmatic", "sync": "column", "ssrs": 4}
        cfg = base_config(engines=[column, {**column, "pallet_buffer": 1}])
        out = tmp_path / "out.csv"
        r = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, cfg)),
                                      "--out", str(out)])
        assert r.exit_code == 0, r.output
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["2b-column-4R-red", "2b-column-4R-1B-red"]
        assert rows[0][4] != rows[1][4]  # the two designs take different cycles
        assert "pragmatic:2b-column-4R-red " in r.output
        assert "pragmatic:2b-column-4R-1B-red " in r.output

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        r = CliRunner().invoke(main, ["simulate", str(path)])
        assert r.exit_code == 1

    @pytest.mark.parametrize(
        "overrides, options",
        [
            ({"seed": "abc"}, []),
            ({"seed": -1}, []),
            ({"trace": [1]}, []),
            ({"out_shift": -1}, []),
            ({}, ["--seed", "-1"]),
        ],
        ids=["seed-string", "seed-negative", "trace-list", "out-shift-negative",
             "seed-option-negative"],
    )
    def test_bad_top_level_value_is_config_error(self, tmp_path, overrides, options):
        path = write_config(tmp_path, base_config(**overrides))
        r = CliRunner().invoke(main, ["simulate", str(path), *options])
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert r.exit_code == 1
        assert "config error:" in r.output

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("width",), 16.9, "'width'"),
            (("seed",), True, "'seed'"),
            (("out_shift",), 0.0, "'out_shift'"),
            (("layers", 0, "nx"), 18.7, "'nx' in layers[0]"),
            (("layers", 0, "nx"), "18", "'nx' in layers[0]"),
            (("layers", 0, "ny"), 18.0, "'ny' in layers[0]"),
            (("layers", 0, "i"), "32", "'i' in layers[0]"),
            (("layers", 1, "n"), 32.5, "'n' in layers[1]"),
            (("layers", 0, "fx"), 3.0, "'fx' in layers[0]"),
            (("layers", 0, "fy"), [3], "'fy' in layers[0]"),
            (("layers", 0, "s"), True, "'s' in layers[0]"),
            (("layers", 1, "pad"), False, "'pad' in layers[1]"),
            (("layers", 0, "precision", "width"), 9.5, "'precision.width' in layers[0]"),
            (("layers", 0, "precision", "lsb"), "0", "'precision.lsb' in layers[0]"),
            (("layers", 1, "precision", "msb"), 6.0, "'precision.msb' in layers[1]"),
            (("engines", 2, "l_bits"), [2.7], "'l_bits' in engines[2]"),
            (("engines", 3, "ssrs"), [1.5], "'ssrs' in engines[3]"),
            (("engines", 3, "pallet_buffer"), "2", "'pallet_buffer' in engines[3]"),
            (("layers", 0, "first_layer"), "no", "'first_layer' in layers[0]"),
            (("layers", 1, "first_layer"), 0, "'first_layer' in layers[1]"),
            (("trace", "relu"), "false", "'trace.relu'"),
        ],
    )
    def test_integer_and_boolean_fields_take_only_their_json_type(self, tmp_path, path,
                                                                  value, field):
        # a cast would run 16.9 as 16, true as 1 and "no" as true
        out = tmp_path / "out.csv"
        r = CliRunner().invoke(main, ["simulate", str(example_with(tmp_path, path, value)),
                                      "--out", str(out)])
        assert_clean_exit(r, 1)
        assert f"config error: {field} must be" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("layers", 0, "name"), None, "'name' in layers[0]"),
            (("layers", 1, "name"), ["conv2"], "'name' in layers[1]"),
            (("layers", 1, "name"), 2, "'name' in layers[1]"),
            (("layers", 1, "name"), "conv1", "'name' in layers[1]"),
            (("trace",), {"kind": "file", "paths": ["a.prgt", None]}, "'trace.paths[1]'"),
            (("trace",), {"kind": "file", "path": 5}, "'trace.path'"),
        ],
        ids=["name-null", "name-list", "name-integer", "name-repeated", "paths-null",
             "path-integer"],
    )
    def test_names_and_trace_paths_are_unique_strings(self, tmp_path, command, path, value,
                                                      field):
        # a cast ran null as the layer "None"; a repeated name gave both
        # rows of the report the counts of the second layer
        out = tmp_path / "out.csv"
        r = CliRunner().invoke(main, [command, str(example_with(tmp_path, path, value)),
                                      "--out", str(out)])
        assert_clean_exit(r, 1)
        assert f"config error: {field} must be" in r.output
        assert not out.exists()

    def test_a_default_name_may_not_repeat_a_given_one(self, tmp_path):
        cfg = json.loads((CONFIGS / "example.json").read_text())
        del cfg["layers"][0]["name"]  # named layer0
        cfg["layers"][1]["name"] = "layer0"
        r = CliRunner().invoke(main, ["validate", str(write_config(tmp_path, cfg))])
        assert_clean_exit(r, 1)
        assert "'name' in layers[1] must be unique, got 'layer0'" in r.output

    def test_missing_config_is_config_error(self, tmp_path):
        r = CliRunner().invoke(main, ["simulate", str(tmp_path / "none.json")])
        assert r.exit_code == 1

    def test_oracle_mismatch_exit_code(self, tmp_path, monkeypatch):
        # corrupt one engine's output: the runner must abort with code 3
        real = runner_mod.dadn_layer

        def broken(lowered):
            res = real(lowered)
            data = res.output.data.copy()
            data[0, 0, 0] += 1
            res.output = Tensor3(data)
            return res

        monkeypatch.setattr(runner_mod, "dadn_layer", broken)
        path = write_config(tmp_path, base_config())
        r = CliRunner().invoke(main, ["simulate", str(path)])
        assert r.exit_code == 3

    @pytest.mark.parametrize(
        "name, broken",
        [
            ("im2col", im2col_mutant(pad_offset=1)),
            ("im2col", im2col_mutant(row_stride=False)),
            ("exact_matmul", exact_matmul_without_last_chunk),
        ],
        ids=["im2col-pad-offset", "im2col-row-stride", "exact-matmul-last-chunk"],
    )
    def test_engine_path_mutant_exit_code(self, tmp_path, monkeypatch, name, broken):
        # a fault in the engines' output path must abort the run with code 3:
        # the oracle shares none of that path, so it does not repeat the fault
        monkeypatch.setattr(reference_mod, name, broken)
        # several reduction chunks on the engines' float32 path (peak products
        # below 2^15); the oracle keeps its own bounds
        monkeypatch.setattr(reference_mod, "EXACT_FLOAT32_LIMIT", 1 << 20)
        cfg = base_config()
        cfg["layers"].append(dict(cfg["layers"][0], name="conv2", nx=9, ny=9, s=2))
        r = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, cfg))])
        assert_clean_exit(r, 3)
        assert "oracle mismatch" in r.output

    @pytest.mark.parametrize(
        "module, name, broken, relu",
        [
            (pragmatic_mod, "pip_inner", lambda real: lambda *a: (real(*a)[0] + 1, real(*a)[1]),
             True),
            (pragmatic_mod, "pip_inner", lambda real: lambda *a: (real(*a)[0], real(*a)[1] + 1),
             True),
            (stripes_mod, "sip_inner", lambda real: lambda *a: real(*a) + 1, True),
            (pragmatic_mod, "encode",
             lambda real: lambda v: replace(real(v), offsets=real(v).offsets[:-1]), True),
            # the sign is lost only on negative neurons: a trace without ReLU
            (pragmatic_mod, "encode", lambda real: lambda v: replace(real(v), neg=False), False),
            (pragmatic_mod, "two_stage_step", two_stage_step_reaching_one_further, True),
            # a rule that advances no lane must not hang the scheduler
            (pragmatic_mod, "two_stage_step", two_stage_step_advancing_nothing, True),
        ],
        ids=["pip-value", "pip-cycles", "sip-value", "encode-top-offset", "encode-sign",
             "two-stage-reach", "two-stage-stuck"],
    )
    def test_scalar_model_mismatch_exit_code(self, tmp_path, monkeypatch, module, name,
                                             broken, relu):
        # an off-by-one scalar unit model must abort the run with code 3,
        # also where its fault lies in the sample the view encodes once
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
        cfg = base_config(trace={"kind": "synthetic", "sigma": 120.0, "relu": relu})
        path = write_config(tmp_path, cfg)
        r = CliRunner().invoke(main, ["simulate", str(path)])
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert r.exit_code == 3
        assert "scalar model mismatch" in r.output

    @pytest.mark.parametrize(
        "name, relu, peak",
        [("example.json", True, 32767 * 127), ("example.json", False, 32768 * 127),
         ("quantized.json", True, 255 * 255), ("quantized.json", False, 255 * 255)],
    )
    def test_saturated_shipped_configs_take_float32_only(self, tmp_path, monkeypatch,
                                                         name, relu, peak):
        # Sigmas of 1e6 saturate the 16-bit and 8-bit containers and the
        # synapse bounds (127 generated, 255 quantized), the largest
        # operands a config builds. Any use of either float64 bound
        # raises TypeError, so both products run on float32 throughout.
        monkeypatch.setattr(reference_mod, "EXACT_FLOAT_LIMIT", None)
        monkeypatch.setattr(reference_mod, "TAP_EXACT_LIMIT", None)
        peaks, oracles = [], []
        real_matmul, real_oracle = reference_mod.exact_matmul, runner_mod.conv_oracle

        def exact_matmul(x, w):
            peaks.append(int(np.abs(x).max()) * int(np.abs(w).max()))
            return real_matmul(x, w)

        def conv_oracle(*args):
            oracles.append(args)
            return real_oracle(*args)

        monkeypatch.setattr(reference_mod, "exact_matmul", exact_matmul)
        monkeypatch.setattr(runner_mod, "conv_oracle", conv_oracle)
        cfg = json.loads((CONFIGS / name).read_text())
        cfg["trace"].update(sigma=1e6, relu=relu)
        cfg["synapse_sigma"] = 1e6
        out = tmp_path / "out.csv"
        r = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, cfg)),
                                      "--out", str(out)])
        assert_clean_exit(r, 0)
        assert max(peaks) == peak
        assert len(oracles) == 2 * len(cfg["layers"])  # raw and trimmed views
        assert len(out.read_text().splitlines()) > 1

    def test_pip_cycles_off_at_one_l_bits_exit_code(self, tmp_path, monkeypatch):
        # the sampled check runs once per (view, l_bits): a fault at L=4
        # alone is not hidden by the checks that passed at L=2
        real = pragmatic_mod.pip_inner

        def broken(streams, synapses, l_bits=4):
            value, cycles = real(streams, synapses, l_bits)
            return value, cycles + (l_bits == 4)

        monkeypatch.setattr(pragmatic_mod, "pip_inner", broken)
        cfg = base_config(engines=[
            {"engine": "pragmatic", "l_bits": [2, 4], "sync": ["pallet", "column"]},
        ])
        r = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, cfg))])
        assert_clean_exit(r, 3)
        assert "scalar model mismatch" in r.output

    def test_dadn_only_config(self, tmp_path):
        cfg = base_config()
        cfg["engines"] = [{"engine": "dadn"}]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "d.csv"
        r = CliRunner().invoke(main, ["simulate", str(path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "dadn"

    def test_l_grid_rows_and_monotone_cycles(self, tmp_path):
        cfg = base_config()
        cfg["engines"] = [
            {"engine": "pragmatic", "l_bits": [0, 1, 2, 3, 4], "sync": "pallet"}
        ]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "grid.csv"
        r = CliRunner().invoke(main, ["simulate", str(path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 5
        cycles = [int(row[4]) for row in rows]  # rows ordered L=0..4
        assert all(b <= a for a, b in zip(cycles, cycles[1:]))

    def test_quantized_run(self, tmp_path):
        cfg = base_config(width=8)
        cfg["layers"][0]["precision"] = {"width": 6}
        cfg["layers"][0]["quant"] = {"vmin": 0.0, "vmax": 500.0}
        cfg["engines"] = [
            {"engine": "dadn"},
            {"engine": "stripes"},
            {"engine": "pragmatic", "l_bits": 2, "sync": "column", "ssrs": 1},
        ]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "q.csv"
        r = CliRunner().invoke(main, ["simulate", str(path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert out.exists()


class TestAnalyzeCommand:
    def test_emits_term_counts(self, tmp_path):
        path = write_config(tmp_path, base_config())
        r = CliRunner().invoke(main, ["analyze", str(path)])
        assert r.exit_code == 0, r.output
        header = r.output.splitlines()[0]
        assert header.startswith("layer,width,pairs,terms_dadn")
        row = r.output.splitlines()[1].split(",")
        assert row[0] == "conv1"


class TestGenTraceCommand:
    def test_writes_readable_trace(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "conv1.prgt"
        r = CliRunner().invoke(main, ["gen-trace", str(path), "-o", str(out)])
        assert r.exit_code == 0, r.output
        tensor, _ = read_trace(out)
        assert tensor.dims == (8, 8, 16)

    @pytest.mark.parametrize("width", [16, 8])
    @pytest.mark.parametrize("depth", [3, 16, 20])
    def test_trace_file_feeds_simulation(self, tmp_path, depth, width):
        # the trace holds the declared channels, and a config that reads it
        # runs as the synthetic config that wrote it
        cfg = base_config(width=width)
        cfg["layers"][0]["i"] = depth
        if width == 8:
            cfg["layers"][0]["quant"] = {"vmin": 0.0, "vmax": 500.0}
        path = write_config(tmp_path, cfg)
        trace_path = tmp_path / "conv1.prgt"
        r = CliRunner().invoke(main, ["gen-trace", str(path), "-o", str(trace_path)])
        assert r.exit_code == 0, r.output
        assert read_trace(trace_path)[0].dims == (8, 8, depth)
        path2 = write_config(tmp_path, dict(cfg, trace={"kind": "file", "path": str(trace_path)}),
                             "cfg2.json")
        for command in ("simulate", "analyze"):
            csv = []
            for config in (path, path2):
                out = tmp_path / f"{config.stem}-{command}.csv"
                r = CliRunner().invoke(main, [command, str(config), "--out", str(out)])
                assert r.exit_code == 0, r.output
                csv.append(out.read_bytes())
            assert csv[0] == csv[1], command

    def test_layer_index_out_of_range(self, tmp_path):
        path = write_config(tmp_path, base_config())
        r = CliRunner().invoke(
            main, ["gen-trace", str(path), "-o", str(tmp_path / "x"), "--layer", "5"]
        )
        assert r.exit_code == 1


class TestValidateCommand:
    def test_ok(self, tmp_path):
        path = write_config(tmp_path, base_config())
        r = CliRunner().invoke(main, ["validate", str(path)])
        assert r.exit_code == 0
        assert "ok:" in r.output

    def test_diagnostic_names_field(self, tmp_path):
        bad = base_config()
        bad["layers"][0]["precision"] = {"msb": 20}
        path = write_config(tmp_path, bad)
        r = CliRunner().invoke(main, ["validate", str(path)])
        assert r.exit_code == 1
        assert "precision" in r.output


def assert_clean_exit(r, code=None):
    """The command ended in a documented exit code, with no traceback.

    ``CliRunner`` keeps an escaped exception in ``r.exception`` instead
    of printing its traceback, so that is where one would show.
    """
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert r.exit_code in (0, 1, 2, 3)
    assert "Traceback" not in r.output
    if code is not None:
        assert r.exit_code == code, r.output


class TestNoTraceback:
    def _file_config(self, tmp_path, data, width=16, dtype=DTYPE_I16):
        """A one-layer config that reads ``data`` from a trace file stored
        as ``dtype``."""
        trace_path = tmp_path / "conv1.prgt"
        write_trace(trace_path, Tensor3(data), dtype)
        cfg = base_config(width=width, trace={"kind": "file", "path": str(trace_path)})
        if width == 8:
            cfg["layers"][0]["quant"] = {"vmin": 0.0, "vmax": 500.0}
        return write_config(tmp_path, cfg)

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_trace_dims_that_do_not_fit_are_io_errors(self, tmp_path, command):
        # an 8 x 8 layer fed a 6-wide trace
        path = self._file_config(tmp_path, np.ones((8, 6, 16), dtype=np.int64))
        r = CliRunner().invoke(main, [command, str(path)])
        assert_clean_exit(r, 2)
        assert "i/o error:" in r.output and "dims" in r.output

    def _thin_config(self, tmp_path, data, depth=3):
        """A one-layer config of 4 x 4 x ``depth`` (zero-extended to 16
        channels) that reads ``data`` from a trace file."""
        trace_path = tmp_path / f"thin{depth}.prgt"
        write_trace(trace_path, Tensor3(data))
        layer = {"name": "thin", "nx": 4, "ny": 4, "i": depth, "n": 2, "fx": 1, "fy": 1,
                 "precision": {"width": 7}}
        cfg = base_config(layers=[layer], trace={"kind": "file", "path": str(trace_path)})
        return write_config(tmp_path, cfg, f"thin{depth}.json")

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_trace_deeper_than_the_declared_depth_is_an_io_error(self, tmp_path, command):
        # the layer declares 3 channels: a 10-channel trace does not fit,
        # though it fits the 16 channels the depth is zero-extended to
        path = self._thin_config(tmp_path, np.full((4, 4, 10), 7))
        r = CliRunner().invoke(main, [command, str(path)])
        assert_clean_exit(r, 2)
        assert "i/o error:" in r.output and "(4, 4, 10)" in r.output
        assert "do not fit layer 'thin' (4,4,3)" in r.output

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("channels", [2, 3])
    def test_trace_up_to_the_declared_depth_is_zero_extended(self, tmp_path, command,
                                                              channels):
        # as many channels as declared, or fewer, run as the same values
        # padded with zero channels to 16 on a layer that declares 16
        data = np.random.default_rng(3).integers(0, 100, size=(4, 4, channels))
        padded = np.zeros((4, 4, 16), dtype=np.int64)
        padded[:, :, :channels] = data
        csv = []
        for depth, values in ((3, data), (16, padded)):
            out = tmp_path / f"out{depth}.csv"
            path = self._thin_config(tmp_path, values, depth)
            r = CliRunner().invoke(main, [command, str(path), "--out", str(out)])
            assert_clean_exit(r, 0)
            csv.append(out.read_bytes())
        assert csv[0] == csv[1]

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("value, code", [(1023, 2), (-129, 2), (255, 0), (-128, 0)])
    def test_width8_run_rejects_values_outside_its_container(self, tmp_path, command,
                                                            value, code):
        data = np.zeros((8, 8, 16), dtype=np.int64)
        data[3, 4, 5] = value
        path = self._file_config(tmp_path, data, width=8)
        r = CliRunner().invoke(main, [command, str(path)])
        assert_clean_exit(r, code)
        if code:
            assert "8-bit container" in r.output

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_trace_dtype_need_not_match_width(self, tmp_path, command):
        # values are range-checked against the config's container, not
        # against the dtype the trace stores them in
        data = np.random.default_rng(5).integers(0, 256, size=(8, 8, 16))
        csv = {}
        for width, dtype in ((16, DTYPE_U8), (8, DTYPE_U8), (8, DTYPE_I16)):
            run = tmp_path / f"w{width}-d{dtype}"
            run.mkdir()
            out = run / "out.csv"
            path = self._file_config(run, data, width, dtype)
            r = CliRunner().invoke(main, [command, str(path), "--out", str(out)])
            assert_clean_exit(r, 0)
            csv[width, dtype] = out.read_bytes()
        assert csv[8, DTYPE_I16] == csv[8, DTYPE_U8]

    @pytest.mark.parametrize("shift, code", [(10**30, 1), (64, 1), (63, 0)])
    def test_out_shift_is_bounded_at_load(self, tmp_path, shift, code):
        path = write_config(tmp_path, base_config(out_shift=shift))
        r = CliRunner().invoke(main, ["simulate", str(path)])
        assert_clean_exit(r, code)
        if code:
            assert "out_shift" in r.output

    @pytest.mark.parametrize("ssrs", [10**12, 2**63, 10**30])
    def test_huge_ssr_counts_run_as_unbounded(self, tmp_path, ssrs):
        # pallet_buffer null sizes the buffer to ssrs + 1, just as large
        csv = {}
        for value in (ssrs, "inf"):
            run = tmp_path / str(value)
            run.mkdir()
            out = run / "out.csv"
            cfg = base_config(engines=[{"engine": "pragmatic", "sync": "column",
                                        "ssrs": value}])
            r = CliRunner().invoke(main, ["simulate", str(write_config(run, cfg)),
                                          "--out", str(out)])
            assert_clean_exit(r, 0)
            csv[value] = out.read_text().replace(f"-{ssrs}R", "-infR")
        assert csv[ssrs] == csv["inf"]

    @pytest.mark.parametrize("command, overrides, code", [
        ("simulate", {"output": {"csv": "a\x00b"}}, 2),
        ("analyze", {"output": {"csv": "a\x00b"}}, 0),  # analyze writes no csv
        ("simulate", {"trace": {"kind": "file", "path": "a\x00b"}}, 2),
        ("analyze", {"trace": {"kind": "file", "path": "a\x00b"}}, 2),
    ], ids=["simulate-csv", "analyze-csv", "simulate-trace", "analyze-trace"])
    def test_nul_in_a_path_is_an_io_error(self, tmp_path, command, overrides, code):
        path = write_config(tmp_path, base_config(**overrides))
        r = CliRunner().invoke(main, [command, str(path)])
        assert_clean_exit(r, code)

    @pytest.mark.parametrize("field", ["nx", "n", "i"])
    def test_a_layer_too_large_to_allocate_is_a_config_error(self, tmp_path, field):
        cfg = base_config()
        cfg["layers"][0][field] = 10**30
        r = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, cfg))])
        assert_clean_exit(r, 1)
        assert "more than 2147483647" in r.output

    @pytest.mark.parametrize("command", ["validate", "simulate", "analyze", "gen-trace"])
    @pytest.mark.parametrize("depth", [0, -5])
    def test_a_depth_below_one_is_a_config_error(self, tmp_path, command, depth):
        # checked as declared: zero-extension to a brick would make it 16
        cfg = base_config()
        cfg["layers"][0]["i"] = depth
        trace = tmp_path / "t.prgt"
        args = [command, str(write_config(tmp_path, cfg))]
        if command == "gen-trace":
            args += ["-o", str(trace)]
        r = CliRunner().invoke(main, args)
        assert_clean_exit(r, 1)
        assert f"'i' in layers[0] must be positive, got {depth}" in r.output
        assert not trace.exists()

    @pytest.mark.parametrize("command", ["validate", "simulate", "analyze"])
    @pytest.mark.parametrize("layer,field,value", [(0, "nx", 0), (1, "fy", -1)])
    def test_a_dimension_below_one_is_a_config_error_naming_it(self, tmp_path, command,
                                                               layer, field, value):
        path = example_with(tmp_path, ["layers", layer, field], value)
        r = CliRunner().invoke(main, [command, str(path)])
        assert_clean_exit(r, 1)
        assert f"'{field}' in layers[{layer}] must be positive, got {value}" in r.output

    @pytest.mark.parametrize("command", ["validate", "analyze", "gen-trace"])
    def test_out_of_memory_while_loading_is_a_resource_error(self, tmp_path, monkeypatch,
                                                             command):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli_mod, "load_config", no_memory)
        args = [command, str(write_config(tmp_path, base_config()))]
        if command == "gen-trace":
            args += ["-o", str(tmp_path / "t.prgt")]
        r = CliRunner().invoke(main, args)
        assert_clean_exit(r, 2)
        assert "out of memory (allocation failed)" in r.output

    @pytest.mark.parametrize("command", ["simulate", "analyze", "gen-trace"])
    def test_out_of_memory_is_a_resource_error(self, tmp_path, monkeypatch, command):
        def no_memory(*args):
            raise MemoryError("cannot allocate the layer input")

        monkeypatch.setattr(runner_mod, "generate_trace", no_memory)
        args = [command, str(write_config(tmp_path, base_config()))]
        if command == "gen-trace":
            args += ["-o", str(tmp_path / "t.prgt")]
        r = CliRunner().invoke(main, args)
        assert_clean_exit(r, 2)
        assert "out of memory" in r.output


# Every place in the base config a value can be replaced at.
SLOTS = [p for p in _slots(base_config(output={"csv": "out.csv"})) if p] + [
    ("out_shift",), ("layers", 0, "quant"), ("trace", "kind"), ("trace", "path"),
]

# Any JSON value, but with small numbers: a replaced geometry field must
# not make a layer large enough to strain memory.
small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-50, 50)
    | st.sampled_from([math.nan, math.inf]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SLOTS), small_json)
def test_config_with_one_value_replaced_exits_cleanly(slot, value):
    doc = base_config(output={"csv": "out.csv"})
    node = doc
    for key in slot[:-1]:
        node = node[key]
    node[slot[-1]] = value
    runner = CliRunner()
    with runner.isolated_filesystem():  # output.csv may name any file
        with open("cfg.json", "w") as fh:
            json.dump(doc, fh)
        for args in (["validate"], ["simulate"], ["analyze"], ["gen-trace", "-o", "t.prgt"]):
            assert_clean_exit(runner.invoke(main, [*args, "cfg.json"]))
