import numpy as np
import pytest

from bitsim.geometry import (
    BRICK,
    PALLET,
    FilterSet,
    LayerSpec,
    NonIntegralDims,
    Tensor3,
    output_dims,
    pad_depth,
)
from bricks import OutOfRange, brick_steps, build_pallet, window_brick


def enumerate_windows(nx, ny, fx, fy, s, pad):
    """Independent oracle: count window placements by brute enumeration."""
    xs = [x for x in range(-pad, nx + pad) if x + fx <= nx + pad and (x + pad) % s == 0]
    ys = [y for y in range(-pad, ny + pad) if y + fy <= ny + pad and (y + pad) % s == 0]
    return len(xs), len(ys)


def test_output_dims_single_window():
    spec = LayerSpec(nx=3, ny=3, i=16, n=2, fx=3, fy=3)
    assert output_dims(spec) == (1, 1, 2)


@pytest.mark.parametrize(
    "kw,expected",
    [
        (dict(nx=8, ny=8, i=16, n=16, fx=3, fy=3, s=1, pad=0), (6, 6, 16)),
        (dict(nx=8, ny=8, i=16, n=4, fx=2, fy=2, s=2, pad=0), (4, 4, 4)),
    ],
)
def test_output_dims_matches_window_enumeration(kw, expected):
    spec = LayerSpec(**kw)
    dims = output_dims(spec)
    assert dims == expected
    ex, ey = enumerate_windows(kw["nx"], kw["ny"], kw["fx"], kw["fy"], kw["s"], kw["pad"])
    assert (ex, ey) == dims[:2]


def test_output_dims_rejects_non_integral():
    with pytest.raises(NonIntegralDims):
        LayerSpec(nx=8, ny=8, i=16, n=1, fx=3, fy=3, s=2, pad=0)


def test_depth_must_be_brick_multiple():
    with pytest.raises(ValueError):
        LayerSpec(nx=4, ny=4, i=8, n=1, fx=1, fy=1)
    assert LayerSpec.normalized(nx=4, ny=4, i=8, n=1, fx=1, fy=1).i == 16
    assert pad_depth(17) == 32


def test_tensor3_layout_and_bounds():
    t = Tensor3(np.arange(2 * 3 * 16).reshape(2, 3, 16))
    assert t.dims == (3, 2, 16)
    # (y, x, i) order, i fastest
    assert t.data[0, 1, 0] == 16
    assert t.data[1, 0, 0] == 48
    with pytest.raises(ValueError):
        Tensor3(np.array([[[1 << 16]]]))
    with pytest.raises(ValueError):
        Tensor3(np.array([[[-(1 << 15) - 1]]]))


def test_window_brick_zero_input():
    spec = LayerSpec(nx=4, ny=4, i=16, n=1, fx=2, fy=2)
    t = Tensor3(np.zeros((4, 4, 16), dtype=np.int64))
    b = window_brick(t, spec, 0, 0, 0, 0, 0)
    assert (b.values == 0).all()


def test_window_brick_padding_region_reads_zero():
    spec = LayerSpec(nx=4, ny=4, i=16, n=1, fx=3, fy=3, pad=1)
    rng = np.random.default_rng(0)
    t = Tensor3(rng.integers(1, 100, size=(4, 4, 16)))
    b = window_brick(t, spec, 0, 0, 0, 0, 0)  # (-1, -1): fully in padding
    assert (b.values == 0).all()


def test_window_brick_matches_direct_slice():
    spec = LayerSpec(nx=4, ny=4, i=16, n=1, fx=2, fy=2, s=1)
    rng = np.random.default_rng(1)
    t = Tensor3(rng.integers(-100, 100, size=(4, 4, 16)))
    b = window_brick(t, spec, 1, 2, 1, 0, 0)
    # naive slicing oracle: x = wx*s + bx, y = wy*s + by
    assert (b.values == t.data[2, 2, 0:16]).all()


def test_window_brick_range_errors():
    spec = LayerSpec(nx=4, ny=4, i=16, n=1, fx=2, fy=2)
    t = Tensor3(np.zeros((4, 4, 16), dtype=np.int64))
    with pytest.raises(OutOfRange):
        window_brick(t, spec, 5, 0, 0, 0, 0)
    with pytest.raises(OutOfRange):
        window_brick(t, spec, 0, 0, 0, 0, 16)


def test_build_pallet_full_row():
    spec = LayerSpec(nx=16, ny=1, i=16, n=1, fx=1, fy=1)
    t = Tensor3(np.ones((1, 16, 16), dtype=np.int64))
    p = build_pallet(t, spec, 0, 0, 0, 0, 0)
    assert p.present_count == 16


def test_build_pallet_partial_row_counts():
    spec = LayerSpec(nx=8, ny=8, i=16, n=1, fx=3, fy=3)  # ox = 6
    t = Tensor3(np.ones((8, 8, 16), dtype=np.int64))
    p = build_pallet(t, spec, 0, 0, 0, 0, 0)
    assert p.present_count == 6
    assert not p.bricks[6].present
    assert (p.bricks[6].values == 0).all()


def test_build_pallet_stride_two_origins():
    spec = LayerSpec(nx=32, ny=2, i=16, n=1, fx=2, fy=2, s=2, pad=0)  # ox = 16
    rng = np.random.default_rng(2)
    t = Tensor3(rng.integers(-5, 5, size=(2, 32, 16)))
    p = build_pallet(t, spec, 0, 0, 1, 0, 0)
    for w, b in enumerate(p.bricks):
        assert b.origin[0] == 0 * 2 + w * 2 + 1  # x = base*s + w*s + bx


def test_brick_steps_cover_window_exactly_once():
    spec = LayerSpec(nx=6, ny=6, i=32, n=1, fx=3, fy=2, s=1, pad=1)
    rng = np.random.default_rng(3)
    t = Tensor3(rng.integers(-99, 99, size=(6, 6, 32)))
    ox, oy, _ = output_dims(spec)
    for wx, wy in [(0, 0), (ox - 1, oy - 1), (ox // 2, oy // 2)]:
        seen = []
        for by, bx, i0 in brick_steps(spec):
            b = window_brick(t, spec, wx, wy, bx, by, i0)
            seen.extend((by, bx, i0 + k) for k in range(BRICK))
        assert len(seen) == spec.fy * spec.fx * spec.i
        assert len(set(seen)) == len(seen)


def test_pallet_origins_consecutive_unit_stride():
    spec = LayerSpec(nx=17, ny=2, i=16, n=1, fx=2, fy=2, s=1)  # ox = 16
    t = Tensor3(np.zeros((2, 17, 16), dtype=np.int64))
    p = build_pallet(t, spec, 0, 0, 0, 0, 0)
    xs = [b.origin[0] for b in p.bricks]
    assert xs == list(range(16))


def test_filterset_checks():
    fs = FilterSet(np.zeros((2, 3, 3, 16), dtype=np.int64))
    spec = LayerSpec(nx=8, ny=8, i=16, n=2, fx=3, fy=3)
    assert fs.matches(spec)
    assert not fs.matches(LayerSpec(nx=8, ny=8, i=16, n=3, fx=3, fy=3))
