from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bitsim.reference as reference
from bitsim.geometry import BRICK, FilterSet, LayerSpec, Tensor3, output_dims, pad_depth
from bitsim.reference import (
    CycleReport,
    LayerLowering,
    ShapeMismatch,
    conv_oracle,
    dadn_cycles,
    dadn_layer,
    dadn_terms,
    im2col,
    sb_read_count,
)
from bitsim.traces import generate_synapses, generate_trace
from costs_reference import row_loop_im2col
from oracle_reference import window_oracle, window_sums


def conv_loops_swapped(input: Tensor3, filters: FilterSet, spec: LayerSpec):
    """Independent re-implementation with the (f, k, l) loop order swapped
    and scalar accumulation; no numpy reductions shared with the oracle."""
    ox, oy, _ = output_dims(spec)
    out = np.zeros((oy, ox, spec.n), dtype=np.int64)
    for f in range(spec.n):
        for k in range(ox):
            for l in range(oy):
                acc = 0
                for by in range(spec.fy):
                    for bx in range(spec.fx):
                        y = l * spec.s + by - spec.pad
                        x = k * spec.s + bx - spec.pad
                        if not (0 <= x < spec.nx and 0 <= y < spec.ny):
                            continue
                        for i in range(spec.i):
                            acc += int(filters.data[f, by, bx, i]) * int(input.data[y, x, i])
                if spec.act == "relu" and acc < 0:
                    acc = 0
                out[l, k, f] = max(min(acc, 32767), -32768)
    return out


def random_layer(rng, **overrides):
    kw = dict(nx=6, ny=6, i=16, n=4, fx=3, fy=3, s=1, pad=0, act="identity")
    kw.update(overrides)
    spec = LayerSpec(**kw)
    t = Tensor3(rng.integers(-40, 40, size=(spec.ny, spec.nx, spec.i)))
    f = FilterSet(rng.integers(-10, 10, size=(spec.n, spec.fy, spec.fx, spec.i)))
    return spec, t, f


def test_two_value_worked_pair():
    # 1x1x2 conv with synapses (1, 7) against neurons (1, 2): 1*1 + 7*2 = 15
    spec = LayerSpec.normalized(nx=1, ny=1, i=2, n=1, fx=1, fy=1)
    t = Tensor3(np.array([0b001, 0b010] + [0] * 14).reshape(1, 1, 16))
    filt = np.zeros((1, 1, 1, 16), dtype=np.int64)
    filt[0, 0, 0, 0] = 0b001
    filt[0, 0, 0, 1] = 0b111
    out = conv_oracle(t, FilterSet(filt), spec)
    assert out.data[0, 0, 0] == 15


def test_one_hot_filter_copies_channel():
    spec = LayerSpec(nx=4, ny=4, i=16, n=1, fx=1, fy=1)
    rng = np.random.default_rng(0)
    t = Tensor3(rng.integers(-50, 50, size=(4, 4, 16)))
    filt = np.zeros((1, 1, 1, 16), dtype=np.int64)
    filt[0, 0, 0, 5] = 1
    out = conv_oracle(t, FilterSet(filt), spec)
    assert (out.data[:, :, 0] == t.data[:, :, 5]).all()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kw", [
    dict(), dict(s=1, pad=1, act="relu"), dict(nx=8, ny=5, fx=2, fy=3, s=1),
    dict(nx=9, ny=9, fx=3, fy=3, s=3, i=32),
])
def test_oracle_matches_swapped_loop_reference(seed, kw):
    rng = np.random.default_rng(seed)
    spec, t, f = random_layer(rng, **kw)
    assert (conv_oracle(t, f, spec).data == conv_loops_swapped(t, f, spec)).all()


def test_oracle_shape_mismatch():
    spec = LayerSpec(nx=4, ny=4, i=16, n=1, fx=1, fy=1)
    t = Tensor3(np.zeros((4, 3, 16), dtype=np.int64))
    f = FilterSet(np.zeros((1, 1, 1, 16), dtype=np.int64))
    with pytest.raises(ShapeMismatch):
        conv_oracle(t, f, spec)


def test_oracle_linear_in_input():
    rng = np.random.default_rng(4)
    spec, a, f = random_layer(rng)
    b = Tensor3(rng.integers(-40, 40, size=(spec.ny, spec.nx, spec.i)))
    ab = Tensor3(a.data + b.data)
    lhs = conv_oracle(ab, f, spec).data
    rhs = conv_oracle(a, f, spec).data + conv_oracle(b, f, spec).data
    assert (lhs == rhs).all()


@st.composite
def oracle_cases(draw, float32=False):
    """A small layer at the container extremes, an output shift, and the
    channel run the tap oracle's float sums are cut into: one channel, a
    few, or all of them.

    Float rounding is relative to the partial sums, so it shows in an
    output only where that output is far smaller than they are. In half
    the draws the upper half of the channels nearly cancels the lower
    half: equal neurons, synapses negated to within 3, so the sums are
    thousands of times smaller than the partial sums a float path rounds.
    The shift leaves the case's largest absolute sum 12 to 18 bits wide:
    most outputs land inside the 16-bit range, and the widest draws keep
    some saturating.

    With ``float32``, the values are at most 4095 and the synapses as
    large as keeps ``run`` of their products below 2^24, so the run's
    sums reach just under the float32 bound.

    Covers strides 1-3, padding up to the filter size (so whole windows
    can fall in the border) and non-square filters.
    """
    fx, fy = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    s = draw(st.integers(1, 3))
    pad = draw(st.integers(0, max(fx, fy)))
    nx = draw(st.integers(0, 3)) * s + fx - 2 * pad
    ny = draw(st.integers(0, 3)) * s + fy - 2 * pad
    # whole strides more, until the input is at least 1 wide
    while nx < 1:
        nx += s
    while ny < 1:
        ny += s
    i = draw(st.sampled_from([16, 32, 48]))
    n = draw(st.integers(1, 5))
    act = draw(st.sampled_from(["identity", "relu"]))
    spec = LayerSpec(nx=nx, ny=ny, i=i, n=n, fx=fx, fy=fy, s=s, pad=pad, act=act)

    run = draw(st.sampled_from([1, 2, 3, 5, i]))
    if float32:
        vlo, vhi = -4095, 4095
        shi = ((1 << 24) - 1) // (run * vhi)
        slo = -shi
    else:
        vlo, vhi, slo, shi = -32768, 65535, -32768, 32767
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(vlo, vhi + 1, size=(ny, nx, i))
    pick = rng.random(values.shape)
    values[pick < 0.2] = vhi
    values[(pick >= 0.2) & (pick < 0.4)] = vlo
    values[(pick >= 0.4) & (pick < 0.5)] = 0
    synapses = rng.integers(slo, shi + 1, size=(n, fy, fx, i))
    pick = rng.random(synapses.shape)
    synapses[pick < 0.25] = shi
    synapses[(pick >= 0.25) & (pick < 0.5)] = slo
    synapses[(pick >= 0.5) & (pick < 0.6)] = slo + 1
    if draw(st.booleans()):
        h = i // 2
        values[..., h:] = values[..., :h]
        near = -synapses[..., :h] + rng.integers(-3, 4, size=synapses[..., :h].shape)
        synapses[..., h:] = np.clip(near, slo, shi)
    t, f = Tensor3(values), FilterSet(synapses)
    top = int(np.abs(window_sums(t, f, spec)).max())
    out_shift = max(0, top.bit_length() - draw(st.integers(12, 18)))
    return spec, t, f, out_shift, run


@settings(max_examples=120, deadline=None)
@given(oracle_cases())
def test_tap_oracle_equals_the_window_walk(case):
    spec, t, f, out_shift, run = case
    peak = int(np.abs(t.data).max()) * int(np.abs(f.data).max())
    # the oracle's bound, lowered so that its sums cover `run` channels
    with mock.patch.object(reference, "TAP_EXACT_LIMIT", peak * run + 1):
        got = conv_oracle(t, f, spec, out_shift)
    assert got == window_oracle(t, f, spec, out_shift)


@settings(max_examples=120, deadline=None)
@given(oracle_cases(float32=True))
def test_float32_tap_oracle_equals_the_window_walk(case):
    spec, t, f, out_shift, run = case
    peak = int(np.abs(t.data).max()) * int(np.abs(f.data).max())
    assert peak * run < 1 << 24
    # the oracle's float32 bound, lowered so that its sums cover `run`
    # channels; any use of the float64 bound raises TypeError
    with mock.patch.object(reference, "TAP_FLOAT32_LIMIT", peak * run + 1), \
            mock.patch.object(reference, "TAP_EXACT_LIMIT", None):
        got = conv_oracle(t, f, spec, out_shift)
    assert got == window_oracle(t, f, spec, out_shift)


@pytest.mark.parametrize("top, float32", [(4095, True), (4096, False)])
def test_oracle_takes_float32_below_2_24(monkeypatch, top, float32):
    # 4095 * 4097 = 2^24 - 1 is the largest product the oracle takes on
    # float32; 4096 * 4097 takes float64. Both are exact.
    rng = np.random.default_rng(top)
    spec = LayerSpec(nx=5, ny=4, i=32, n=3, fx=3, fy=3, s=1, pad=1, act="identity")
    values = rng.choice([0, 1, 2, top], size=(spec.ny, spec.nx, spec.i))
    values[0, 0, 0] = top
    synapses = rng.choice([-4097, -2, -1, 1, 2, 4097], size=(spec.n, 3, 3, spec.i))
    synapses[0, 0, 0, 0] = 4097
    t, f = Tensor3(values), FilterSet(synapses)
    with monkeypatch.context() as m:
        m.setattr(reference, "TAP_EXACT_LIMIT", None)  # refuse float64
        if float32:
            assert conv_oracle(t, f, spec) == window_oracle(t, f, spec)
        else:
            with pytest.raises(TypeError):
                conv_oracle(t, f, spec)
    assert conv_oracle(t, f, spec) == window_oracle(t, f, spec)


@pytest.mark.parametrize("rows", [1, 7, 8])
@pytest.mark.parametrize("s, pad", [(1, 1), (2, 0), (3, 2)])
def test_banded_oracle_equals_the_window_walk(monkeypatch, rows, s, pad):
    # 5 x 17 windows, so bands of 7 and 8 rows end in a shorter one
    rng = np.random.default_rng(11 + rows + s)
    spec, t, f = random_layer(rng, nx=4 * s + 3 - 2 * pad, ny=16 * s + 3 - 2 * pad,
                              s=s, pad=pad, act="relu")
    ox, oy, _ = output_dims(spec)
    assert (ox, oy) == (5, 17)
    # `rows` output rows to a band, one window short of one more row
    monkeypatch.setattr(reference, "ORACLE_BAND_WINDOWS", rows * ox + ox - 1)
    assert conv_oracle(t, f, spec, 1) == window_oracle(t, f, spec, 1)


def test_oracle_uses_no_engine_lowering(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the engines' lowering")

    for name in ("im2col", "exact_matmul", "LayerLowering"):
        monkeypatch.setattr(reference, name, refuse)
    # any arithmetic on, or comparison with, the engines' float bounds
    # raises TypeError
    monkeypatch.setattr(reference, "EXACT_FLOAT_LIMIT", None)
    monkeypatch.setattr(reference, "EXACT_FLOAT32_LIMIT", None)
    rng = np.random.default_rng(8)
    spec, t, f = random_layer(rng, nx=9, ny=9, s=2, pad=1, act="relu")
    assert conv_oracle(t, f, spec, 2) == window_oracle(t, f, spec, 2)


def test_oracle_equals_the_lowered_product_at_vgg_conv1_2_size():
    # VGG-16 conv1_2 whole: 224 x 224 x 64, 64 3x3 filters
    spec = LayerSpec(nx=224, ny=224, i=64, n=64, fx=3, fy=3, s=1, pad=1, act="relu")
    t = generate_trace(spec, 900.0, True, seed=1)
    f = FilterSet(generate_synapses(spec, 10.0, seed=1))
    assert conv_oracle(t, f, spec) == LayerLowering(t, f, spec).view(None).output


def count_dadn_events(spec):
    """Event-counting oracle: one cycle per (filter-group, window, brick)."""
    ox, oy, _ = output_dims(spec)
    groups = -(-spec.n // 256)
    cycles = 0
    for _g in range(groups):
        for _wy in range(oy):
            for _wx in range(ox):
                for _by in range(spec.fy):
                    for _bx in range(spec.fx):
                        for _i0 in range(0, spec.i, BRICK):
                            cycles += 1
    return cycles


class TestDadnCycles:
    def test_single_brick(self):
        spec = LayerSpec(nx=1, ny=1, i=16, n=256, fx=1, fy=1)
        assert dadn_cycles(spec) == 1

    def test_formula_matches_event_count(self):
        spec = LayerSpec(nx=18, ny=18, i=32, n=256, fx=3, fy=3, s=1)  # ox=oy=16
        assert dadn_cycles(spec) == count_dadn_events(spec) == 256 * 9 * 2

    def test_filter_group_doubling(self):
        base = LayerSpec(nx=18, ny=18, i=32, n=256, fx=3, fy=3)
        double = LayerSpec(nx=18, ny=18, i=32, n=512, fx=3, fy=3)
        assert dadn_cycles(double) == 2 * dadn_cycles(base)

    def test_value_blind(self):
        rng = np.random.default_rng(5)
        spec, t, f = random_layer(rng)
        zeros = Tensor3(np.zeros_like(t.data))
        assert dadn_layer(LayerLowering(t, f, spec)).report.compute_cycles == \
            dadn_layer(LayerLowering(zeros, f, spec)).report.compute_cycles


class TestDadnTerms:
    def test_single_brick_layer(self):
        spec = LayerSpec(nx=1, ny=1, i=16, n=16, fx=1, fy=1)
        assert dadn_terms(spec) == 16 * 16 * 16

    def test_linear_in_filters(self):
        a = LayerSpec(nx=4, ny=4, i=16, n=8, fx=2, fy=2)
        b = LayerSpec(nx=4, ny=4, i=16, n=16, fx=2, fy=2)
        assert 2 * dadn_terms(a) == dadn_terms(b)

    def test_width8(self):
        spec = LayerSpec(nx=1, ny=1, i=16, n=1, fx=1, fy=1)
        assert dadn_terms(spec, width=8) == 8 * 16


def test_dadn_layer_output_and_report():
    rng = np.random.default_rng(6)
    spec, t, f = random_layer(rng, act="relu")
    res = dadn_layer(LayerLowering(t, f, spec))
    assert res.output == conv_oracle(t, f, spec)
    assert res.report.compute_cycles == dadn_cycles(spec)
    assert res.report.sb_reads == sb_read_count(spec)
    assert res.report.stall_cycles == 0
    assert res.report.effectual_terms <= res.report.total_terms


def test_im2col_matches_window_extraction():
    rng = np.random.default_rng(7)
    spec, t, f = random_layer(rng, pad=1)
    ox, oy, _ = output_dims(spec)
    x = im2col(t, spec)
    # spot-check one window against direct gathering
    k, l = 2, 1
    gathered = []
    for by in range(spec.fy):
        for bx in range(spec.fx):
            y, xx = l * spec.s + by - spec.pad, k * spec.s + bx - spec.pad
            if 0 <= y < spec.ny and 0 <= xx < spec.nx:
                gathered.extend(t.data[y, xx, :].tolist())
            else:
                gathered.extend([0] * spec.i)
    assert x[l * ox + k].tolist() == gathered


def _input_size(o: int, f: int, s: int, pad: int) -> int:
    """The input size giving ``o`` outputs, or more outputs while ``o``
    would need an input below 1."""
    n = (o - 1) * s + f - 2 * pad
    return n + s * -(-(1 - n) // s) if n < 1 else n


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9), st.integers(1, 9), st.sampled_from([16, 32]),
    st.integers(1, 7), st.integers(1, 7), st.integers(1, 9), st.integers(0, 8),
    st.sampled_from([None, 1, 3, 8]), st.integers(0, 2**32 - 1),
)
# a 7-wide filter on a 3-wide input with pad 2: tap 0 reads left of the input
@example(ox=1, oy=1, i=16, fx=7, fy=7, s=1, pad=2, depth=None, seed=0)
def test_im2col_equals_the_row_loop(ox, oy, i, fx, fy, s, pad, depth, seed):
    # strides past the filter (s > fx) skip input columns; pads at or past
    # the filter (pad >= fx) give windows that read only the zero border,
    # and a filter wider than the input and one pad gives taps that no
    # window reads inside the input. A map of ``depth`` channels in place
    # of the layer's ``i`` (as the per-brick column costs are) gives
    # ``depth`` columns per tap.
    nx, ny = _input_size(ox, fx, s, pad), _input_size(oy, fy, s, pad)
    spec = LayerSpec(nx=nx, ny=ny, i=i, n=1, fx=fx, fy=fy, s=s, pad=pad)
    rng = np.random.default_rng(seed)
    c = i if depth is None else depth
    t = Tensor3(rng.integers(-32768, 32768, size=(ny, nx, c)))
    got = im2col(t, spec)
    want = row_loop_im2col(t, spec)
    assert got.dtype == want.dtype == np.int32
    assert got.shape[1] == fy * fx * c
    assert np.array_equal(got, want)


def test_cycle_report_invariants():
    with pytest.raises(ValueError):
        CycleReport(compute_cycles=1, stall_cycles=2)
    with pytest.raises(ValueError):
        CycleReport(total_terms=1, effectual_terms=2)
