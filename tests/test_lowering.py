"""The tap oracle, the one exact output path, the shared lowering and
the use-count helper.

The oracle is compared with the per-(window, filter) loop, every engine
variant with both, the chunked and blocked float64 product with int64
matmul, the variants that share a layer's lowering with the same
variants lowered alone, and ``window_sum`` with sums over the im2col
matrix.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bitsim.pragmatic as pragmatic
import bitsim.reference as reference
from bitsim.config import EngineSelector, ExperimentConfig, LayerConfig, load_config
from bitsim.encoding import essential_counts
from bitsim.geometry import FilterSet, LayerSpec, Tensor3, window_sum
from bitsim.numerics import Precision, trim_tensor
from bitsim.pragmatic import PragConfig, pragmatic_layer
from bitsim.reference import (
    LayerLowering,
    conv_oracle,
    dadn_layer,
    exact_matmul,
    im2col,
    lowered_output,
)
from bitsim.runner import run_engine, run_layer, simulate
from bitsim.stripes import stripes_layer
from oracle_reference import reference_conv


@st.composite
def layers(draw):
    """A small random layer: geometry, input, filters and a precision window.

    Covers stride > 1, padding (including windows wholly in the border),
    signed and unsigned 16-bit inputs, 8-bit inputs, both activations and
    output shifts.
    """
    fx, fy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 2))
    ox, oy = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    nx, ny = (ox - 1) * s + fx - 2 * pad, (oy - 1) * s + fy - 2 * pad
    assume(nx >= 1 and ny >= 1)
    i = draw(st.sampled_from([16, 32]))
    n = draw(st.integers(1, 4))
    act = draw(st.sampled_from(["identity", "relu"]))
    spec = LayerSpec(nx=nx, ny=ny, i=i, n=n, fx=fx, fy=fy, s=s, pad=pad, act=act)

    kind = draw(st.sampled_from(["signed16", "unsigned16", "width8"]))
    width = 8 if kind == "width8" else 16
    lo, hi = {"signed16": (-32768, 32767), "unsigned16": (0, 65535),
              "width8": (0, 255)}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(lo, hi + 1, size=(ny, nx, i))
    # sparse, small and extreme values all occur in real traces
    values[rng.random(values.shape) < 0.3] = 0
    values[rng.random(values.shape) < 0.1] = hi
    syn_bound = 127 if width == 8 else 32767
    filters = rng.integers(-syn_bound, syn_bound + 1, size=(n, fy, fx, i))
    msb = draw(st.integers(0, width - 1))
    profile = Precision(msb, draw(st.integers(0, msb)))
    out_shift = draw(st.integers(0, 20))
    return spec, Tensor3(values), FilterSet(filters), profile, width, out_shift


@settings(max_examples=60, deadline=None)
@given(layers())
def test_every_engine_equals_both_oracles(layer):
    spec, t, f, profile, width, out_shift = layer
    trimmed = Tensor3(trim_tensor(t.data, profile))
    raw_ref = reference_conv(t, f, spec, out_shift)
    trimmed_ref = reference_conv(trimmed, f, spec, out_shift)
    assert conv_oracle(t, f, spec, out_shift) == raw_ref
    assert conv_oracle(trimmed, f, spec, out_shift) == trimmed_ref

    assert dadn_layer(LayerLowering(t, f, spec, width, out_shift)).output == raw_ref
    assert stripes_layer(
        LayerLowering(t, f, spec, width, out_shift), profile
    ).output == trimmed_ref
    for l_bits in range(5):
        for sync in ("pallet", "column"):
            for trim, want in (("profile", trimmed_ref), ("none", raw_ref)):
                cfg = PragConfig(l_bits=l_bits, sync=sync, trim=trim)
                res = pragmatic_layer(
                    LayerLowering(t, f, spec, width, out_shift), profile, cfg
                )
                assert res.output == want, cfg.variant_name()


@pytest.mark.parametrize("limit_bits", [0, 33, 36, 40])
def test_chunked_exact_product_at_extreme_values(monkeypatch, limit_bits):
    # A lowered limit forces the reduction into chunks of 1, 4, 32 and 512
    # columns (peak product 65535 * 32767, just under 2^31).
    monkeypatch.setattr(reference, "EXACT_FLOAT_LIMIT", 1 << limit_bits)
    rng = np.random.default_rng(limit_bits)
    x = rng.choice([0, 1, 65535, 65534], size=(7, 576)).astype(np.int64)
    x[0] = 65535
    w = rng.choice([-32767, 32767, -1, 0], size=(5, 576)).astype(np.int64)
    w[0] = 32767
    w[1] = np.where(np.arange(576) % 2, 32767, -32767)
    assert np.array_equal(exact_matmul(x, w), x @ w.T)


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 16, 17])
@pytest.mark.parametrize("limit_bits", [36, 53])
def test_blocked_product_equals_unblocked(monkeypatch, rows, limit_bits):
    # Blocks of 8 rows: row counts inside one block, at one and two block
    # edges and past them, with and without a chunked reduction, at the
    # extreme values of the chunked product above.
    monkeypatch.setattr(reference, "EXACT_FLOAT_LIMIT", 1 << limit_bits)
    rng = np.random.default_rng(rows)
    x = rng.choice([0, 1, 65535, 65534], size=(rows, 576)).astype(np.int64)
    x[0] = 65535
    w = rng.choice([-32767, 32767, -1, 0], size=(5, 576)).astype(np.int64)
    w[0] = 32767
    w[1] = np.where(np.arange(576) % 2, 32767, -32767)
    monkeypatch.setattr(reference, "EXACT_BLOCK_ROWS", rows)
    unblocked = exact_matmul(x, w)
    monkeypatch.setattr(reference, "EXACT_BLOCK_ROWS", 8)
    assert np.array_equal(exact_matmul(x, w), unblocked)
    assert np.array_equal(unblocked, x @ w.T)


def test_unchunked_product_is_exact_at_extreme_values():
    x = np.full((3, 4608), 65535, dtype=np.int64)
    x[1, ::3] = 65534
    w = np.full((2, 4608), -32767, dtype=np.int64)
    w[1, 1::2] = 32767
    assert np.array_equal(exact_matmul(x, w), x @ w.T)


def test_lowered_output_applies_activation_and_shift():
    spec = LayerSpec(nx=3, ny=3, i=16, n=2, fx=3, fy=3, act="relu")
    rng = np.random.default_rng(4)
    t = Tensor3(rng.integers(0, 300, size=(3, 3, 16)))
    f = FilterSet(rng.integers(-50, 50, size=(2, 3, 3, 16)))
    out = lowered_output(im2col(t, spec), f, spec, out_shift=3)
    assert out == reference_conv(t, f, spec, out_shift=3)


@settings(max_examples=80, deadline=None)
@given(layers())
def test_window_sum_equals_im2col_sums(layer):
    spec, t, _, profile, width, _ = layer
    x = im2col(t, spec)
    assert window_sum(t.data != 0, spec) == np.count_nonzero(x)
    assert window_sum(essential_counts(t.data, width), spec) == int(
        essential_counts(x, width).sum()
    )
    trimmed = trim_tensor(t.data, profile)
    assert window_sum(essential_counts(trimmed, width), spec) == int(
        essential_counts(trim_tensor(x, profile), width).sum()
    )
    assert window_sum(np.ones_like(t.data), spec) == int(
        (im2col(Tensor3(np.ones_like(t.data)), spec) != 0).sum()
    )


@st.composite
def engine_sweeps(draw):
    """dadn, stripes and 2-6 pragmatic variants in any order: mixed
    ``l_bits``, both syncs, SSR counts and both trims, so each input view
    is read by several variants."""
    engines = [EngineSelector("dadn"), EngineSelector("stripes")]
    for _ in range(draw(st.integers(2, 6))):
        cfg = PragConfig(
            l_bits=draw(st.integers(0, 4)),
            sync=draw(st.sampled_from(["pallet", "column"])),
            ssr_count=draw(st.sampled_from([1, 4, None])),
            trim=draw(st.sampled_from(["profile", "none"])),
        )
        engines.append(EngineSelector("pragmatic", cfg))
    return draw(st.permutations(engines))


@settings(max_examples=60, deadline=None)
@given(layers(), engine_sweeps())
def test_shared_lowering_equals_a_lowering_per_variant(layer, engines):
    spec, t, f, profile, width, out_shift = layer
    lc = LayerConfig(spec=spec, precision=profile)
    cfg = ExperimentConfig(
        layers=[lc], engines=engines, seed=0, width=width, out_shift=out_shift,
        trace_kind="synthetic", trace_sigma=1.0, trace_relu=True, trace_paths=[],
        synapse_sigma=1.0, csv_path=None,
    )
    shared = run_layer(cfg, lc, t, f)
    assert len(shared) == len(engines)
    for sel, got in zip(engines, shared):
        alone = run_engine(sel, t, f, lc, width, out_shift)
        assert got.output == alone.output, sel.label()
        assert got.report == alone.report, sel.label()
        assert (got.engine, got.variant) == (alone.engine, alone.variant)


def small_layer():
    spec = LayerSpec(nx=6, ny=4, i=16, n=3, fx=3, fy=3, pad=1)
    rng = np.random.default_rng(9)
    t = Tensor3(rng.integers(0, 900, size=(4, 6, 16)))
    f = FilterSet(rng.integers(-20, 21, size=(3, 3, 3, 16)))
    return spec, t, f, Precision(8, 0)


def test_shared_lowering_is_read_only():
    spec, t, f, profile = small_layer()
    lowered = LayerLowering(t, f, spec)
    for trim in ("profile", "none"):
        for sync in ("pallet", "column"):
            cfg = PragConfig(l_bits=2, sync=sync, trim=trim)
            pragmatic_layer(lowered, profile, cfg)
    for view in (lowered.view(profile), lowered.view(None)):
        costs = view.cached(("costs", 2), lambda: pytest.fail("costs were not shared"))
        for shared in (costs, view.values, view.x, view.output.data):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared.flat[0] = 1
    assert t.data.flags.writeable  # the caller's input keeps its flags


@pytest.mark.parametrize("engine", ["stripes", "pragmatic"])
def test_a_window_wider_than_the_container_is_refused(engine):
    spec, t, f, _ = small_layer()
    lowered = LayerLowering(Tensor3(t.data % 256), f, spec, width=8)
    with pytest.raises(ValueError, match="exceeds container width 8"):
        if engine == "stripes":
            stripes_layer(lowered, Precision(8, 0))
        else:
            pragmatic_layer(lowered, Precision(8, 0), PragConfig(trim="profile"))


@pytest.mark.parametrize("profile", [None, Precision(8, 0)])
def test_an_untrimmed_run_reads_no_window(profile):
    spec, t, f, _ = small_layer()
    t = Tensor3(t.data % 256)
    lowered = LayerLowering(t, f, spec, width=8)
    res = pragmatic_layer(lowered, profile, PragConfig(trim="none"))
    assert res.output == conv_oracle(t, f, spec)


def test_each_window_has_its_own_view():
    spec, t, f, profile = small_layer()
    lowered = LayerLowering(t, f, spec)
    for window in (profile, Precision(5, 1), profile):
        for cfg in (PragConfig(l_bits=1), PragConfig(l_bits=1, sync="column")):
            shared = pragmatic_layer(lowered, window, cfg)
            assert shared == pragmatic_layer(LayerLowering(t, f, spec), window, cfg)
        assert stripes_layer(lowered, window) == stripes_layer(
            LayerLowering(t, f, spec), window
        )


def test_shipped_configs_lower_each_view_once(monkeypatch):
    # example.json: 2 layers x 8 variants on 2 views, 3 l_bits on the
    # trimmed one; quantized.json: 1 layer x 4 variants on 2 views, 2 l_bits
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("im2col", "dispatcher_fetch_cycles"):
        counted(reference, name)
    for name in ("column_costs", "pip_inner", "encode"):
        counted(pragmatic, name)
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("example.json", "quantized.json"):
        simulate(load_config(configs / name))
    assert calls == {
        "im2col": 6,
        "column_costs": 8,
        "pip_inner": 8 * reference.SAMPLED_BRICKS,
        # the sample's lanes are encoded once per trimmed view, not per l_bits
        "encode": 3 * reference.SAMPLED_BRICKS * 16,
        "dispatcher_fetch_cycles": 3,
    }
