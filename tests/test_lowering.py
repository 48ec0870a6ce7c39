"""The tap oracle, the one exact output path, the shared lowering and
the use-count helper.

The oracle is compared with the per-(window, filter) loop, every engine
variant with both, the chunked float32 and float64 products, whole and
taken in bands of rows, with int64 matmul, the variants that share a
layer's lowering with the same variants lowered alone, and
``window_sum`` with sums over the im2col matrix.
"""

import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bitsim.pragmatic as pragmatic
import bitsim.reference as reference
from bitsim.config import EngineSelector, ExperimentConfig, LayerConfig, load_config
from bitsim.encoding import encode, essential_counts
from bitsim.geometry import BRICK, FilterSet, LayerSpec, Tensor3, output_dims, window_sum
from bitsim.numerics import Precision, activate, trim_tensor
from bitsim.pragmatic import PragConfig, pragmatic_layer
from bitsim.reference import (
    LayerLowering,
    conv_oracle,
    dadn_layer,
    exact_matmul,
    im2col,
    sample_picks,
    sampled_bricks,
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


def banded_product(x, w, band=8):
    """``exact_matmul`` of ``x`` taken ``band`` rows at a time, each band a
    call of its own, as a view's lowering takes it: each band picks its
    own float type and reduction chunks from its own maxima."""
    return np.concatenate([exact_matmul(x[top : top + band], w)
                           for top in range(0, len(x), band)])


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 16, 17])
@pytest.mark.parametrize("limit_bits", [36, 53])
def test_blocked_product_equals_unblocked(monkeypatch, rows, limit_bits):
    # Bands of 8 rows: row counts inside one band, at one and two band
    # edges and past them, at the extreme values of the chunked product
    # above. The rows past the first band hold 0 and 1 alone, so their
    # bands take float32 while the first takes float64, chunked under a
    # 2^36 bound and whole under 2^53.
    monkeypatch.setattr(reference, "EXACT_FLOAT_LIMIT", 1 << limit_bits)
    rng = np.random.default_rng(rows)
    x = rng.choice([0, 1, 65535, 65534], size=(rows, 576)).astype(np.int64)
    x[0] = 65535
    x[8:] = rng.choice([0, 1], size=x[8:].shape)
    w = rng.choice([-32767, 32767, -1, 0], size=(5, 576)).astype(np.int64)
    w[0] = 32767
    w[1] = np.where(np.arange(576) % 2, 32767, -32767)
    assert np.array_equal(banded_product(x, w), x @ w.T)
    assert np.array_equal(exact_matmul(x, w), x @ w.T)


def test_unchunked_product_is_exact_at_extreme_values():
    x = np.full((3, 4608), 65535, dtype=np.int64)
    x[1, ::3] = 65534
    w = np.full((2, 4608), -32767, dtype=np.int64)
    w[1, 1::2] = 32767
    assert np.array_equal(exact_matmul(x, w), x @ w.T)


def float32_operands(rng, rows, xtop, wtop, k=577):
    """A float32 product's operands at their extremes: ``x`` in {0, 1,
    xtop - 1, xtop} and ``w`` in {0, +-1, +-(wtop - 1), +-wtop}, with a
    row of each at the top and one ``w`` row alternating in sign. With
    577 columns, a reduction in chunks of 4 or 32 ends in a short one."""
    x = rng.choice([0, 1, xtop - 1, xtop], size=(rows, k)).astype(np.int64)
    x[0] = xtop
    w = rng.choice([0, 1, -1, wtop - 1, 1 - wtop, wtop, -wtop], size=(5, k)).astype(np.int64)
    w[0] = wtop
    w[1] = np.where(np.arange(k) % 2, wtop, -wtop)
    return x, w


@pytest.mark.parametrize("bound", ["real", "patched"])
@pytest.mark.parametrize("chunk", [1, 4, 32])
def test_chunked_float32_product_at_extreme_values(monkeypatch, chunk, bound):
    # Under the real bound, a peak product of 65535 * (256 // chunk) puts
    # `chunk` products at 2^24 - 256, just under it: chunks of 1, 4 and
    # 32 columns whose sums reach the bound. A bound patched down to
    # `chunk` products of 65535 * 8 forces the same chunks on operands
    # that the real bound takes 32 columns at a time. Float64 is refused.
    wtop = 8 if bound == "patched" else 256 // chunk
    assert chunk * 65535 * (256 // chunk) == (1 << 24) - 256
    x, w = float32_operands(np.random.default_rng(chunk), 7, 65535, wtop)
    if bound == "patched":
        monkeypatch.setattr(reference, "EXACT_FLOAT32_LIMIT", chunk * 65535 * 8 + 1)
    monkeypatch.setattr(reference, "EXACT_FLOAT_LIMIT", None)
    assert np.array_equal(exact_matmul(x, w), x @ w.T)


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 16, 17])
@pytest.mark.parametrize("xtop, wtop", [(65535, 64), (1023, 28)],
                         ids=["chunks-of-4", "one-chunk"])
def test_blocked_float32_product_equals_unblocked(monkeypatch, rows, xtop, wtop):
    # The bands of the float64 twin above, on float32: the first band in
    # chunks of 4 columns, or in one chunk of all 577 (577 * 1023 * 28 <
    # 2^24), and the bands past it, whose neurons are 16 times smaller,
    # in chunks of 64 or in one chunk.
    monkeypatch.setattr(reference, "EXACT_FLOAT_LIMIT", None)
    x, w = float32_operands(np.random.default_rng(rows), rows, xtop, wtop)
    x[8:] //= 16
    assert np.array_equal(banded_product(x, w), x @ w.T)
    assert np.array_equal(exact_matmul(x, w), x @ w.T)


@pytest.mark.parametrize("xtop, float32", [(4095, True), (4096, False)])
def test_product_takes_float32_below_2_24(monkeypatch, xtop, float32):
    # 4095 * 4097 = 2^24 - 1 is the largest product float32 takes;
    # 4096 * 4097 takes float64. Sums such as 4095 * 4097 + 2 are odd and
    # past 2^24, so a float32 chunk of two columns would round them.
    rng = np.random.default_rng(xtop)
    x = rng.choice([0, 1, 2, xtop], size=(6, 40)).astype(np.int64)
    x[0] = xtop
    w = rng.choice([-4097, -2, -1, 1, 2, 4097], size=(3, 40)).astype(np.int64)
    w[0] = 4097
    with monkeypatch.context() as m:
        m.setattr(reference, "EXACT_FLOAT_LIMIT", None)  # refuse float64
        if float32:
            assert np.array_equal(exact_matmul(x, w), x @ w.T)
        else:
            with pytest.raises(TypeError):
                exact_matmul(x, w)
    assert np.array_equal(exact_matmul(x, w), x @ w.T)


def test_lowered_output_applies_activation_and_shift():
    spec = LayerSpec(nx=3, ny=3, i=16, n=2, fx=3, fy=3, act="relu")
    rng = np.random.default_rng(4)
    t = Tensor3(rng.integers(0, 300, size=(3, 3, 16)))
    f = FilterSet(rng.integers(-50, 50, size=(2, 3, 3, 16)))
    out = LayerLowering(t, f, spec, out_shift=3).view(None).output
    assert out == reference_conv(t, f, spec, out_shift=3)


@st.composite
def banded_layers(draw):
    """A layer of several output rows and a band size in windows: bands
    of one row (the band below the row width ``ox``) or several, bands
    that do not divide the rows, stride 1-3 and padding 0-2."""
    fx, fy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    s, pad = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    ox, oy = draw(st.integers(1, 7)), draw(st.integers(2, 9))
    nx, ny = (ox - 1) * s + fx - 2 * pad, (oy - 1) * s + fy - 2 * pad
    assume(nx >= 1 and ny >= 1)
    spec = LayerSpec(nx=nx, ny=ny, i=draw(st.sampled_from([16, 32])), n=draw(st.integers(1, 4)),
                     fx=fx, fy=fy, s=s, pad=pad, act=draw(st.sampled_from(["identity", "relu"])))
    width = draw(st.sampled_from([8, 16]))
    lo, hi = (0, 255) if width == 8 else (-32768, 32767)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(lo, hi + 1, size=(ny, nx, spec.i))
    values[rng.random(values.shape) < 0.3] = 0
    filters = rng.integers(-127, 128, size=(spec.n, fy, fx, spec.i))
    band = draw(st.integers(1, 3 * ox))
    return spec, Tensor3(values), FilterSet(filters), width, draw(st.integers(0, 12)), band


@settings(max_examples=80, deadline=None)
@given(banded_layers())
def test_a_banded_view_equals_the_whole_matrix_lowering(layer):
    spec, t, f, width, out_shift, band = layer
    ox, oy, _ = output_dims(spec)
    with mock.patch.object(reference, "LOWERING_BAND_WINDOWS", band), \
            mock.patch.object(reference, "im2col", wraps=reference.im2col) as spy, \
            mock.patch.object(reference, "exact_matmul", wraps=reference.exact_matmul) as product:
        view = LayerLowering(t, f, spec, width, out_shift).view(None)
    rows = max(1, band // ox)
    assert spy.call_count == -(-oy // rows)
    x = im2col(t, spec)
    # one product per band, of that band's rows, the bands in order
    # covering every window once
    tops = range(0, oy * ox, rows * ox)
    assert product.call_count == len(tops)
    for top, call in zip(tops, product.call_args_list):
        assert np.array_equal(call.args[0], x[top : top + rows * ox])
    assert sum(len(call.args[0]) for call in product.call_args_list) == oy * ox
    whole = activate(exact_matmul(x, f.data.reshape(spec.n, -1)), spec.act, out_shift)
    assert view.output == Tensor3(whole.reshape(oy, ox, spec.n))
    assert view.output == reference_conv(t, f, spec, out_shift)
    picks = sample_picks(x.shape[0], x.shape[1] // BRICK, spec.n)
    assert view.sample == tuple(sampled_bricks(x[[p[0] for p in picks]], picks, f))
    assert view.effectual_terms == int(essential_counts(x, width).sum()) * spec.n


def test_a_banded_lowering_peaks_below_its_whole_im2col():
    # 32 output rows of 32 windows: 8 bands of 4 rows
    spec = LayerSpec(nx=32, ny=32, i=64, n=16, fx=3, fy=3, pad=1, act="relu")
    assert 32 // max(1, reference.LOWERING_BAND_WINDOWS // 32) >= 8
    rng = np.random.default_rng(3)
    t = Tensor3(rng.integers(0, 4096, size=(32, 32, 64)))
    f = FilterSet(rng.integers(-127, 128, size=(16, 3, 3, 64)))
    whole = im2col(t, spec).nbytes
    lowering = LayerLowering(t, f, spec)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        view = lowering.view(None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert view.output == reference_conv(t, f, spec)
    assert peak < whole


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
    shared, _ = run_layer(cfg, lc, t, f)
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
    stripes_layer(lowered, profile)
    for view in (lowered.view(profile), lowered.view(None)):
        costs = view.cached(("costs", 2), lambda: pytest.fail("costs were not shared"))
        for shared in (costs, view.values, view.output.data):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared.flat[0] = 1
        # the sample is a tuple of tuples, so no variant can change it
        assert isinstance(view.sample, tuple)
        assert len(view.sample) == reference.SAMPLED_BRICKS
        for brick in view.sample:
            assert isinstance(brick, tuple)
            assert all(isinstance(lanes, tuple) for lanes in brick[2:4])
        x = im2col(Tensor3(view.values), spec)
        picks = sample_picks(x.shape[0], x.shape[1] // BRICK, f.n)
        assert view.sample == tuple(sampled_bricks(x[[p[0] for p in picks]], picks, f))
    assert t.data.flags.writeable  # the caller's input keeps its flags


def test_the_sample_is_picked_once_per_layer(monkeypatch):
    # the picks depend on the layer's shape alone, so both views of a
    # layer share the picks drawn as its lowering is built
    calls = []
    real = reference.sample_picks

    def sample_picks(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reference, "sample_picks", sample_picks)
    spec, t, f, profile = small_layer()
    lowered = LayerLowering(t, f, spec)
    assert len(calls) == 1
    views = [lowered.view(None), lowered.view(profile)]
    assert len(calls) == 1
    assert [brick[:2] for brick in views[0].sample] == [brick[:2] for brick in views[1].sample]
    assert lowered.picks == real(*calls[0])


@settings(max_examples=40, deadline=None)
@given(layers())
def test_sampled_streams_equal_the_encoding_of_each_lane(layer):
    # each distinct lane value is encoded once per view, and every lane
    # holding it shares that one frozen stream
    spec, t, f, profile, width, out_shift = layer
    lowered = LayerLowering(t, f, spec, width, out_shift)
    for view in (lowered.view(profile), lowered.view(None)):
        sample = pragmatic._sampled_streams(view)
        assert [brick[:2] + brick[3:] for brick in sample] == [
            brick[:2] + brick[3:] for brick in view.sample]
        shared = {}
        for (_, _, streams, _, _), (_, _, neurons, _, _) in zip(sample, view.sample):
            assert list(streams) == [encode(v) for v in neurons]
            for stream, v in zip(streams, neurons):
                assert shared.setdefault(v, stream) is stream


def held_arrays(obj):
    """Every numpy array reachable from ``obj`` through attributes,
    dicts, tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from held_arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from held_arrays(value)
    elif hasattr(obj, "__dict__"):
        yield from held_arrays(vars(obj))


def test_a_view_keeps_no_im2col_matrix():
    # after every engine variant, each view holds its sample, not its
    # window matrix: no array it keeps is as large
    spec, t, f, profile = small_layer()
    lowered = LayerLowering(t, f, spec)
    dadn_layer(lowered)
    stripes_layer(lowered, profile)
    for l_bits in range(5):
        for sync in ("pallet", "column"):
            for trim in ("profile", "none"):
                pragmatic_layer(lowered, profile, PragConfig(l_bits=l_bits, sync=sync, trim=trim))
    im2col_size = im2col(t, spec).size
    for view in (lowered.view(profile), lowered.view(None)):
        sizes = [a.size for a in held_arrays(view)]
        assert len(sizes) >= 2 + 5  # values, output and the costs at each l_bits
        assert max(sizes) < im2col_size


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

    for name in ("sample_picks", "sampled_bricks", "dispatcher_fetch_cycles"):
        counted(reference, name)
    for name in ("column_costs", "pip_inner", "encode"):
        counted(pragmatic, name)
    bands = []  # (layer, first output row) of each im2col call
    real_im2col = reference.im2col

    def im2col(input, spec, top=0, rows=None):
        bands.append((spec.name, top))
        return real_im2col(input, spec, top, rows)

    monkeypatch.setattr(reference, "im2col", im2col)
    encoded_views = []  # the views whose sampled lanes are encoded
    real_streams = pragmatic._sampled_streams

    def _sampled_streams(view):
        encoded_views.append(view)
        return real_streams(view)

    monkeypatch.setattr(pragmatic, "_sampled_streams", _sampled_streams)
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("example.json", "quantized.json"):
        simulate(load_config(configs / name))
    # a view is lowered once: one pass of bands over its output rows
    # (16, 8 and 20 rows of 16, 8 and 20 windows, so 8, 16 and 6 rows a band)
    assert bands == 2 * [("conv1", 0), ("conv1", 8)] + 2 * [("conv2", 0)] + 2 * [
        ("q8conv", top) for top in (0, 6, 12, 18)]
    # the sample's lanes are encoded once per trimmed view, not per
    # l_bits, and each distinct lane value of a view once
    assert len(encoded_views) == 3
    distinct = sum(len({v for _, _, neurons, _, _ in view.sample for v in neurons})
                   for view in encoded_views)
    assert distinct < 3 * reference.SAMPLED_BRICKS * 16  # 160 of the 384 lanes
    assert calls == {
        # the sample is picked once per layer, and drawn once per view,
        # as it is lowered
        "sample_picks": 3,
        "sampled_bricks": 6,
        "column_costs": 8,
        # every sampled brick, all 16 lanes, at every (view, l_bits)
        "pip_inner": 8 * reference.SAMPLED_BRICKS,
        "encode": distinct,
        "dispatcher_fetch_cycles": 3,
    }
