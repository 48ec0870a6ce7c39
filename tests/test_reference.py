import numpy as np
import pytest

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
    t = Tensor3.from_values([0b001, 0b010] + [0] * 14, x=1, y=1, i=16)
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


def test_cycle_report_invariants():
    with pytest.raises(ValueError):
        CycleReport(compute_cycles=1, stall_cycles=2)
    with pytest.raises(ValueError):
        CycleReport(total_terms=1, effectual_terms=2)
