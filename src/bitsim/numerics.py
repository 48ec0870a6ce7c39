"""Fixed-point value semantics: trimming, activation, 8-bit quantization.

Values live in signed 16-bit containers interpreted as plain two's
complement integers; any fraction point is a reporting convention and
never enters the arithmetic. Accumulators are 64-bit and never saturate
mid-sum, so serial and parallel evaluation orders agree bit for bit;
saturation happens once, at the activation stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import INT16_MAX, INT16_MIN


class DegenerateRange(ValueError):
    """Quantization interval with vmax <= vmin, or one too wide for
    :func:`quantize8` to scale in float64."""


class MissingProfile(ValueError):
    """An engine that needs a per-layer precision window got none."""


@dataclass(frozen=True)
class Precision:
    """Per-layer bit window ``(msb, lsb)``, bit 0 = container LSB.

    A width-w profile (the usual way precisions are published) maps to
    ``(lsb + w - 1, lsb)``; ``lsb`` defaults to 0.
    """

    msb: int
    lsb: int = 0

    def __post_init__(self):
        if not (0 <= self.lsb <= self.msb <= 15):
            raise ValueError(f"need 15 >= msb >= lsb >= 0, got {self}")

    @property
    def width(self) -> int:
        return self.msb - self.lsb + 1

    @property
    def mask(self) -> int:
        return ((1 << (self.msb + 1)) - 1) & ~((1 << self.lsb) - 1)

    @classmethod
    def from_width(cls, width: int, lsb: int = 0) -> "Precision":
        return cls(lsb + width - 1, lsb)


FULL16 = Precision(15, 0)
FULL8 = Precision(7, 0)


def full_precision(width: int) -> Precision:
    if width == 16:
        return FULL16
    if width == 8:
        return FULL8
    raise ValueError(f"container width must be 8 or 16, got {width}")


@dataclass(frozen=True)
class QuantParams:
    """Linear 8-bit quantization limits for one layer."""

    vmin: float
    vmax: float

    def __post_init__(self):
        if not self.vmax > self.vmin:
            raise DegenerateRange(f"vmax must exceed vmin, got {self}")
        if not math.isfinite((self.vmax - self.vmin) * 255.0):  # quantize8's scale
            raise DegenerateRange(f"vmax - vmin times 255 must be finite, got {self}")

    @property
    def step(self) -> float:
        return (self.vmax - self.vmin) / 255.0


def trim_tensor(values: np.ndarray, p: Precision) -> np.ndarray:
    """Zero the magnitude bits outside ``[p.lsb, p.msb]`` of each value of
    an integer array, carrying the sign through (sign-magnitude view).

    Returns int32: the magnitude, taken in at least int32, is masked to
    ``p`` before the cast, so it lies below 2^16 and no cast wraps it.
    """
    a = np.asarray(values)
    mag = np.abs(a, dtype=a.dtype if a.dtype.itemsize >= 4 else np.int32)
    mag &= p.mask
    mag = mag.astype(np.int32, copy=False)
    return np.negative(mag, out=mag, where=a < 0)


def quantize8(x, q: QuantParams):
    """Map a real value linearly onto codes 0..255 (round half to even).

    Inputs outside ``[vmin, vmax]`` clamp to the interval ends.
    """
    xa = np.clip(np.asarray(x, dtype=np.float64), q.vmin, q.vmax)
    codes = np.rint((xa - q.vmin) * 255.0 / (q.vmax - q.vmin)).astype(np.int64)
    if np.ndim(x) == 0:
        return int(codes)
    return codes


def activate(acc, act: str = "identity", out_shift: int = 0, in_place: bool = False):
    """Activation stage: optional ReLU, arithmetic right shift, saturate.

    The shift rounds toward minus infinity; saturation to the 16-bit
    container is defined behavior, not an error. Works on scalars and
    arrays alike. ``acc`` is left unchanged: the stages run in place on
    one int64 copy of it. With ``in_place`` they run on ``acc`` itself,
    which must then be an int64 array, and ``acc`` is returned.
    """
    if act not in ("relu", "identity"):
        raise ValueError(f"unknown activation {act!r}")
    if in_place and not (isinstance(acc, np.ndarray) and acc.dtype == np.int64):
        raise TypeError("in-place activation needs an int64 array")
    a = acc if in_place else np.array(acc, dtype=np.int64)
    if act == "relu":
        np.maximum(a, 0, out=a)
    if out_shift:
        np.right_shift(a, out_shift, out=a)
    np.clip(a, INT16_MIN, INT16_MAX, out=a)
    if np.ndim(acc) == 0:
        return int(a)
    return a
