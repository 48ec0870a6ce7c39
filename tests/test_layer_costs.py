"""Column costs: the uint16 scheduler and the per-brick gather.

``column_costs`` equals the int64 table loop it replaced and the length
of the scalar :func:`pip_schedule`. The engine schedules each input
brick once and gathers the costs into the (pallet, brick-step, window)
layout; ``costs_reference`` schedules every im2col entry with the old
loop on the old row-loop im2col, as the engine did before.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bitsim.pragmatic as pragmatic
from bitsim.encoding import encode
from bitsim.geometry import FilterSet, LayerSpec, Tensor3
from bitsim.numerics import Precision, trim_tensor
from bitsim.pragmatic import PragConfig, column_costs, pip_schedule, pragmatic_layer
from bitsim.reference import LayerLowering, ScalarModelMismatch
from costs_reference import loop_column_costs, reference_costs

# a lane's mask: empty, one bit, bit 15 set, or any 16-bit set
LANE_MASKS = st.one_of(
    st.just(0),
    st.integers(0, 15).map(lambda k: 1 << k),
    st.integers(0x8000, 0xFFFF),
    st.integers(0, 0xFFFF),
)


@st.composite
def brick_batches(draw):
    """A batch of 1-6 bricks of one lane count (1-16), as a nested list."""
    lanes = draw(st.integers(1, 16))
    bricks = draw(st.integers(1, 6))
    brick = st.lists(LANE_MASKS, min_size=lanes, max_size=lanes)
    return draw(st.lists(brick, min_size=bricks, max_size=bricks))


@settings(max_examples=300, deadline=None)
@given(brick_batches(), st.integers(0, 4), st.sampled_from([np.uint16, np.int64]))
def test_column_costs_equal_table_loop_and_pip_schedule(batch, l_bits, dtype):
    masks = np.array(batch, dtype=dtype)
    got = column_costs(masks, l_bits)
    assert got.dtype == np.uint8
    assert got.shape == masks.shape[:-1]
    assert got.tolist() == loop_column_costs(masks, l_bits).tolist()
    for brick, cost in zip(batch, got.tolist()):
        assert cost == len(pip_schedule([encode(v) for v in brick], l_bits))
        assert cost <= 16
    assert masks.tolist() == batch  # scheduled on a copy


@pytest.mark.parametrize("bad", [1 << 16, -1])
def test_column_costs_reject_masks_outside_16_bits(bad):
    masks = np.zeros((3, 16), dtype=np.int64)
    masks[1, 5] = bad
    with pytest.raises(ValueError, match=r"\[0, 2\^16\)"):
        column_costs(masks, 2)


@st.composite
def input_views(draw):
    """A random layer geometry and one engine input view of it.

    Output rows run from 1 to 40 windows, so a row has one pallet with
    idle lanes, exactly one full pallet, or several pallets. Values are
    signed or unsigned 16-bit, or 8-bit, taken raw or trimmed to a
    precision window.
    """
    fx, fy = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    s = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 2))
    ox, oy = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    nx, ny = (ox - 1) * s + fx - 2 * pad, (oy - 1) * s + fy - 2 * pad
    assume(nx >= 1 and ny >= 1)
    i = draw(st.sampled_from([16, 32]))
    spec = LayerSpec(nx=nx, ny=ny, i=i, n=1, fx=fx, fy=fy, s=s, pad=pad)
    kind = draw(st.sampled_from(["signed16", "unsigned16", "width8"]))
    width = 8 if kind == "width8" else 16
    lo, hi = {"signed16": (-32768, 32767), "unsigned16": (0, 65535),
              "width8": (0, 255)}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(lo, hi + 1, size=(ny, nx, i))
    values[rng.random(values.shape) < 0.3] = 0
    values[rng.random(values.shape) < 0.05] = lo
    values[rng.random(values.shape) < 0.05] = hi
    if draw(st.booleans()):  # trim "profile"; else "none"
        msb = draw(st.integers(0, width - 1))
        values = trim_tensor(values, Precision(msb, draw(st.integers(0, msb))))
    return spec, values.astype(np.int64)


@settings(max_examples=150, deadline=None)
@given(input_views())
def test_per_brick_costs_equal_im2col_reference(view):
    spec, values = view
    for l_bits in range(5):
        got = pragmatic._layer_costs(values, spec, l_bits)
        want = reference_costs(values, spec, l_bits)
        assert got.dtype == np.uint8 and want.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want), l_bits


def test_wrong_index_map_fails_the_sampled_check(monkeypatch):
    # Costs taken from the neighbouring brick step must not pass the run.
    real = pragmatic._layer_costs
    monkeypatch.setattr(pragmatic, "_layer_costs",
                        lambda *a: np.roll(real(*a), 1, axis=1))
    spec = LayerSpec(nx=20, ny=4, i=32, n=2, fx=3, fy=3, pad=1)
    rng = np.random.default_rng(5)
    t = Tensor3(rng.integers(0, 4000, size=(4, 20, 32)))
    f = FilterSet(rng.integers(-50, 50, size=(2, 3, 3, 32)))
    for sync in ("pallet", "column"):
        cfg = PragConfig(l_bits=2, sync=sync, trim="none")
        with pytest.raises(ScalarModelMismatch):
            pragmatic_layer(LayerLowering(t, f, spec), None, cfg)
