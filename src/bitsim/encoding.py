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

import operator
from dataclasses import dataclass

import numpy as np

# Container width: every offset lies in [0, 16).
STREAM_BITS = 16


class EmptyTrace(ValueError):
    """Statistics requested over an empty value sequence."""


@dataclass(frozen=True)
class OneffsetStream:
    """One neuron as an ascending tuple of essential-bit positions.

    The offsets must be strictly ascending and lie in ``[0, 16)``, the
    16-bit container; ``neg`` is the sign of sign-magnitude form.
    """

    offsets: tuple[int, ...]
    neg: bool = False

    def __post_init__(self):
        if any(b < a + 1 for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError(f"offsets must be strictly ascending: {self.offsets}")
        if self.offsets and not (0 <= self.offsets[0] and self.offsets[-1] < STREAM_BITS):
            raise ValueError(f"offsets outside [0,{STREAM_BITS}): {self.offsets}")

    def value(self) -> int:
        mag = sum(1 << f for f in self.offsets)
        return -mag if self.neg else mag

    def pow_eon_pairs(self) -> list[tuple[int, bool]]:
        """Wire form: ``(pow, eon)`` pairs, most-significant offset first.

        A zero neuron serializes as the single pair ``(0, True)``.
        """
        if not self.offsets:
            return [(0, True)]
        rev = list(reversed(self.offsets))
        return [(p, i == len(rev) - 1) for i, p in enumerate(rev)]


def encode(v: int) -> OneffsetStream:
    """Convert a container value to its sign-magnitude oneffset stream.

    The offsets are the set bits of ``|v|``, taken lowest first; ``neg``
    records the sign. A value that is not an integer (``operator.index``)
    raises TypeError, a magnitude of 2^16 or more ValueError. ``encode``
    and ``value()`` round-trip for every value of the 16-bit container,
    read signed or unsigned.
    """
    v = operator.index(v)
    mag = abs(v)
    if mag >> STREAM_BITS:
        raise ValueError(f"magnitude {mag} does not fit {STREAM_BITS} bits")
    offsets = []
    while mag:
        low = mag & -mag
        offsets.append(low.bit_length() - 1)
        mag ^= low
    return OneffsetStream(offsets=tuple(offsets), neg=v < 0)


def essential_counts(values: np.ndarray, width: int = 16) -> np.ndarray:
    """Each value's essential-bit count: the set bits among the low
    ``width`` bits of its magnitude (taken in at least int32), over an
    integer array."""
    a = np.asarray(values)
    mags = np.abs(a, dtype=a.dtype if a.dtype.itemsize >= 4 else np.int32)
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
    values = np.asarray(trace)
    if values.size == 0:
        raise EmptyTrace("cannot compute bit statistics of an empty trace")
    # a zero value has no essential bits, so both fractions share one sum
    total = float(essential_counts(values, width).sum())
    nz_total = np.count_nonzero(values)
    frac_all = total / (values.size * width)
    frac_nz = total / (nz_total * width) if nz_total else None
    return BitStats(
        mean_essential_frac_all=frac_all,
        mean_essential_frac_nonzero=frac_nz,
        zero_fraction=1.0 - nz_total / values.size,
    )
