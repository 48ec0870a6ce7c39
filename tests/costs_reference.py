"""Test-only references for the engines' lowering kernels.

``loop_column_costs`` is the int64 scheduler loop that ``column_costs``
replaced: a 64K-entry lowest-bit table, the batch minimum head and a
``np.where`` update per iteration. ``row_loop_im2col`` is the im2col
that ``reference.im2col`` replaced: one copy per filter tap and output
row, with the clipped column indices built per row.

``reference_costs`` is the im2col path the engine used before it
scheduled each input brick once: build the im2col matrix, arrange its
magnitudes as one 16-lane mask per (pallet, brick-step, window) entry,
and schedule every entry. It shares no code with the engine's lowering,
and is kept to check the per-brick gather.
"""

import numpy as np

from bitsim.geometry import BRICK, PALLET, LayerSpec, Tensor3, num_brick_steps, output_dims

_LOWBIT = np.full(1 << 16, 64, dtype=np.int64)
for _k in range(16):
    _LOWBIT[1 << _k] = _k


def loop_column_costs(masks: np.ndarray, l_bits: int) -> np.ndarray:
    """Cycle counts of 16-lane magnitude masks, in int64: each iteration
    consumes the head of every lane within ``2^L`` of the batch minimum."""
    m = np.asarray(masks, dtype=np.int64).copy()
    cycles = np.zeros(m.shape[:-1], dtype=np.int64)
    span = 1 << l_bits
    while True:
        live = m != 0
        active = live.any(axis=-1)
        if not active.any():
            break
        heads = _LOWBIT[m & -m]
        c = heads.min(axis=-1)
        adv = live & ((heads - c[..., None]) < span)
        m = np.where(adv, m & (m - 1), m)
        cycles += active
    return np.maximum(cycles, 1)


def row_loop_im2col(input: Tensor3, spec: LayerSpec) -> np.ndarray:
    """Window matrix ``(oy*ox, fy*fx*c)`` of the ``c = input.i`` channels
    in int32, one copy per tap and output row; reads outside the input
    stay zero."""
    ox, oy, _ = output_dims(spec)
    data = input.data
    cols = np.zeros((oy, ox, spec.fy, spec.fx, input.i), dtype=np.int32)
    for by in range(spec.fy):
        for bx in range(spec.fx):
            for l in range(oy):
                y = l * spec.s + by - spec.pad
                if not 0 <= y < spec.ny:
                    continue
                xs = np.arange(ox) * spec.s + bx - spec.pad
                ok = (xs >= 0) & (xs < spec.nx)
                cols[l, ok, by, bx, :] = data[y, xs[ok], :]
    return cols.reshape(oy * ox, spec.fy * spec.fx * input.i)


def layer_masks(x: np.ndarray, spec: LayerSpec) -> np.ndarray:
    """Magnitude bitmasks arranged (pallet, brick-step, window, lane).

    ``x`` is the im2col matrix of the (possibly trimmed) input. Windows
    beyond the output row edge appear as zero masks: idle lanes.
    """
    ox, oy, _ = output_dims(spec)
    k = num_brick_steps(spec)
    mags = np.abs(x).reshape(oy, ox, k, BRICK)
    nb = -(-ox // PALLET)
    padded = np.zeros((oy, nb * PALLET, k, BRICK), dtype=np.int64)
    padded[:, :ox] = mags
    # (oy, nb, PALLET, k, BRICK) -> (pallet, step, window, lane)
    arr = padded.reshape(oy, nb, PALLET, k, BRICK).transpose(0, 1, 3, 2, 4)
    return arr.reshape(oy * nb, k, PALLET, BRICK)


def reference_costs(values: np.ndarray, spec: LayerSpec, l_bits: int) -> np.ndarray:
    """Column costs ``(pallet, step, window)``, one schedule per im2col entry."""
    return loop_column_costs(layer_masks(row_loop_im2col(Tensor3(values), spec), spec), l_bits)
