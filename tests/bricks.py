"""Brick- and pallet-level views of a layer's input.

Tests walk the datapath schedule one brick at a time with these, to
check the vectorized engines against the scalar unit models at the
opposite granularity, and walk every pallet fetch of a layer to check
the closed-form dispatcher fetch cost. Padding is virtual: reads that
fall into the zero border return zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bitsim.geometry import BRICK, PALLET, LayerSpec, Tensor3, output_dims
from bitsim.pragmatic import pip_schedule


def brick_steps(spec: LayerSpec):
    """Iterate the ``(by, bx, i0)`` brick offsets that tile one window."""
    for by in range(spec.fy):
        for bx in range(spec.fx):
            for i0 in range(0, spec.i, BRICK):
                yield by, bx, i0


def pallet_bases(spec: LayerSpec):
    """Iterate ``(base_wx, wy)`` pallet anchors, row by row.

    Pallets never cross an output row; a row's last pallet may have idle
    lanes.
    """
    ox, oy, _ = output_dims(spec)
    for wy in range(oy):
        for base in range(0, ox, PALLET):
            yield base, wy


def nm_row(spec: LayerSpec, x: int, y: int, i0: int) -> int:
    """NM row of a brick, one row holding 256 neurons (16 bricks).

    Bricks are laid out (y, i0, x) with x fastest, so a pallet's 16
    stride-adjacent bricks are s bricks apart regardless of the layer
    depth. Bricks never span a row.
    """
    depth_slices = spec.i // BRICK
    addr = (y * depth_slices + i0 // BRICK) * spec.nx + x
    return addr // PALLET


def pallet_fetch_rows(
    spec: LayerSpec, base_wx: int, wy: int, bx: int, by: int, i0: int
) -> int:
    """Distinct NM rows one pallet fetch touches (0 if all-padding)."""
    ox, _, _ = output_dims(spec)
    y = wy * spec.s + by - spec.pad
    if not 0 <= y < spec.ny:
        return 0
    rows = set()
    for w in range(PALLET):
        wx = base_wx + w
        if wx >= ox:
            continue
        x = wx * spec.s + bx - spec.pad
        if 0 <= x < spec.nx:
            rows.add(nm_row(spec, x, y, i0))
    return len(rows)


def walked_fetch_cycles(spec: LayerSpec) -> int:
    """``NM_C`` by walking every pallet fetch of the layer: the most rows
    any fetch reads, and 1 when every fetch reads the zero border."""
    fetches = (
        pallet_fetch_rows(spec, base_wx, wy, bx, by, i0)
        for base_wx, wy in pallet_bases(spec)
        for by, bx, i0 in brick_steps(spec)
    )
    return max(1, max(fetches))


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
