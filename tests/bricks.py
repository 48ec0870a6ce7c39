"""Brick- and pallet-level views of a layer's input.

Tests walk the datapath schedule one brick at a time with these, to
check the vectorized engines against the scalar unit models at the
opposite granularity. Padding is virtual: reads that fall into the zero
border return zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bitsim.geometry import BRICK, PALLET, LayerSpec, Tensor3, output_dims
from bitsim.pragmatic import pip_schedule


class OutOfRange(IndexError):
    """Window or brick index outside the layer's valid range."""


@dataclass(frozen=True)
class Brick:
    """16 neurons contiguous along ``i`` at one (x, y) position.

    ``present`` is False for bricks of windows beyond the right edge of
    the output (idle pallet lanes); their values read as zero.
    """

    origin: tuple[int, int, int]  # (x, y, i0) in window-relative input coords
    values: np.ndarray
    present: bool = True

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.shape != (BRICK,):
            raise ValueError(f"a brick holds exactly {BRICK} values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Pallet:
    """One brick from each of 16 stride-adjacent windows along x."""

    bricks: tuple[Brick, ...]

    def __post_init__(self):
        if len(self.bricks) != PALLET:
            raise ValueError(f"a pallet holds exactly {PALLET} bricks")

    @property
    def present_count(self) -> int:
        return sum(b.present for b in self.bricks)


def window_brick(
    input: Tensor3,
    spec: LayerSpec,
    wx: int,
    wy: int,
    bx: int,
    by: int,
    i0: int,
) -> Brick:
    """The 16 neurons a window reads at offsets ``(bx, by, i0..i0+15)``.

    Positions that fall inside the zero border read 0; the border is
    virtual, so no padded tensor is ever built.
    """
    ox, oy, _ = output_dims(spec)
    if not (0 <= wx < ox and 0 <= wy < oy):
        raise OutOfRange(f"window ({wx},{wy}) outside output grid {ox}x{oy}")
    if not (0 <= bx < spec.fx and 0 <= by < spec.fy):
        raise OutOfRange(f"brick offset ({bx},{by}) outside filter")
    if i0 % BRICK != 0 or not (0 <= i0 and i0 + BRICK <= spec.i):
        raise OutOfRange(f"depth offset {i0} invalid for depth {spec.i}")

    x = wx * spec.s + bx - spec.pad
    y = wy * spec.s + by - spec.pad
    if 0 <= x < spec.nx and 0 <= y < spec.ny:
        vals = input.data[y, x, i0 : i0 + BRICK]
    else:
        vals = np.zeros(BRICK, dtype=np.int64)
    return Brick(origin=(x, y, i0), values=vals)


def build_pallet(
    input: Tensor3,
    spec: LayerSpec,
    base_wx: int,
    wy: int,
    bx: int,
    by: int,
    i0: int,
) -> Pallet:
    """Bricks for windows ``base_wx .. base_wx+15`` at one brick offset.

    Windows past the last output column are marked absent: they occupy
    idle lanes and read as zeros, mirroring what fixed-width SIMD lanes
    do at the right edge.
    """
    ox, _, _ = output_dims(spec)
    if not 0 <= base_wx < ox:
        raise OutOfRange(f"pallet base {base_wx} outside output row of {ox}")
    bricks = []
    for w in range(PALLET):
        wx = base_wx + w
        if wx < ox:
            bricks.append(window_brick(input, spec, wx, wy, bx, by, i0))
        else:
            x = wx * spec.s + bx - spec.pad
            y = wy * spec.s + by - spec.pad
            bricks.append(
                Brick(origin=(x, y, i0), values=np.zeros(BRICK, dtype=np.int64),
                      present=False)
            )
    return Pallet(tuple(bricks))


def pallet_phase_cycles(pallet_streams, l_bits: int = 4) -> int:
    """Cycles one pallet phase takes under pallet synchronization.

    ``pallet_streams`` is 16 windows x 16 lanes of oneffset streams (a
    flat list of 256 works too). All columns wait for the slowest.
    """
    streams = list(pallet_streams)
    if len(streams) == PALLET * BRICK:
        streams = [streams[w * BRICK : (w + 1) * BRICK] for w in range(PALLET)]
    worst = 1
    for column in streams:
        worst = max(worst, len(pip_schedule(column, l_bits)))
    return worst
