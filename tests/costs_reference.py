"""Test-only reference for the pragmatic column costs of a layer.

This is the im2col path the engine used before it scheduled each input
brick once: build the im2col matrix, arrange its magnitudes as one
16-lane mask per (pallet, brick-step, window) entry, and schedule every
entry with ``column_costs``. It is kept to check the per-brick gather.
"""

import numpy as np

from bitsim.geometry import BRICK, PALLET, LayerSpec, Tensor3, num_brick_steps, output_dims
from bitsim.pragmatic import column_costs
from bitsim.reference import im2col


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
    return column_costs(layer_masks(im2col(Tensor3(values), spec), spec), l_bits)
