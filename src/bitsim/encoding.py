"""Essential-bit (oneffset) representation of neurons and bit statistics.

A neuron's essential bits are the set bits of its magnitude. The serial
engines consume them as an ascending list of bit positions: the min-first
two-stage scheduler needs monotone stream heads. On the wire each entry
is a ``(pow, eon)`` pair, emitted most-significant first as a leading-one
detector would produce it, with ``eon`` flagging the last entry; a zero
neuron still occupies one serial slot carrying only the end marker.

Signed neurons use sign-magnitude here: every term of a negative neuron
carries the flag (equivalent to negating its synapse), which keeps the
shift-accumulate product exact for any value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import full_precision


class NegativeUnsupported(ValueError):
    """Negative neuron in unsigned encoding mode."""


class EmptyTrace(ValueError):
    """Statistics requested over an empty value sequence."""


@dataclass(frozen=True)
class OneffsetStream:
    """One neuron as an ascending tuple of essential-bit positions."""

    offsets: tuple[int, ...]
    neg: bool = False
    width: int = 16

    def __post_init__(self):
        if any(b < a + 1 for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError(f"offsets must be strictly ascending: {self.offsets}")
        if self.offsets and not (0 <= self.offsets[0] and self.offsets[-1] < self.width):
            raise ValueError(f"offsets outside [0,{self.width}): {self.offsets}")

    def value(self) -> int:
        mag = sum(1 << f for f in self.offsets)
        return -mag if self.neg else mag

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def serial_slots(self) -> int:
        """Cycles a lone lane needs: one per offset, min one for the eon."""
        return max(1, len(self.offsets))

    def pow_eon_pairs(self) -> list[tuple[int, bool]]:
        """Wire form: ``(pow, eon)`` pairs, most-significant offset first.

        A zero neuron serializes as the single pair ``(0, True)``.
        """
        if not self.offsets:
            return [(0, True)]
        rev = list(reversed(self.offsets))
        return [(p, i == len(rev) - 1) for i, p in enumerate(rev)]


def encode(v: int, mode: str = "sign_magnitude", width: int = 16) -> OneffsetStream:
    """Convert a container value to its oneffset stream.

    The offsets are exactly the set bits of ``|v|``; ``neg`` records the
    sign in sign-magnitude mode. ``encode`` and ``value()`` round-trip
    for every representable input.
    """
    v = int(v)
    if v < 0 and mode == "unsigned":
        raise NegativeUnsupported(f"value {v} needs sign_magnitude mode")
    full_precision(width)  # validates width
    mag = abs(v)
    if mag >> width:
        raise ValueError(f"magnitude {mag} does not fit {width} bits")
    offsets = tuple(b for b in range(width) if (mag >> b) & 1)
    return OneffsetStream(offsets=offsets, neg=v < 0, width=width)


def essential_count(v: int, width: int = 16) -> int:
    """Number of set bits in the magnitude, within ``width`` bits."""
    return int(bin(abs(int(v)) & ((1 << width) - 1)).count("1"))


def essential_counts(values: np.ndarray, width: int = 16) -> np.ndarray:
    """Vectorized :func:`essential_count` over an integer array."""
    mags = np.abs(np.asarray(values), dtype=np.int64)  # no int64 copy of int32 input
    mags &= (1 << width) - 1
    return np.bitwise_count(mags)


@dataclass(frozen=True)
class BitStats:
    """Essential-bit content of a value trace.

    Fractions are of the container width; ``mean_essential_frac_nonzero``
    is None when the trace holds no nonzero value.
    """

    mean_essential_frac_all: float
    mean_essential_frac_nonzero: float | None
    zero_fraction: float


def stats(trace, width: int = 16) -> BitStats:
    """Essential-bit statistics over all values and over nonzero ones."""
    values = np.asarray(trace, dtype=np.int64).ravel()
    if values.size == 0:
        raise EmptyTrace("cannot compute bit statistics of an empty trace")
    counts = essential_counts(values, width)
    nonzero = values != 0
    nz_total = int(nonzero.sum())
    frac_all = float(counts.sum()) / (values.size * width)
    frac_nz = (
        float(counts[nonzero].sum()) / (nz_total * width) if nz_total else None
    )
    return BitStats(
        mean_essential_frac_all=frac_all,
        mean_essential_frac_nonzero=frac_nz,
        zero_fraction=1.0 - nz_total / values.size,
    )
