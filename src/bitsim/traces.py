"""Synthetic trace generation and the binary trace file format.

Synthetic neuron traces follow the shape observed in practice: normal
around zero, then rectified, which leaves about half the values zero and
the rest with low essential-bit content. Generation uses numpy's PCG64
generator so a seed reproduces the same tensor on every platform.

Trace files are little-endian throughout:

    offset  size  field
    0       4     magic "PRGT"
    4       2     version (u16), currently 1
    6       1     dtype: 0 = signed 16-bit, 1 = unsigned 8-bit
    7       1     reserved (0)
    8       12    dims x, y, i (u32 each)
    20      -     payload, (y, x, i) order with i fastest
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .geometry import LayerSpec, Tensor3
from .numerics import QuantParams, quantize8

MAGIC = b"PRGT"
VERSION = 1
DTYPE_I16 = 0
DTYPE_U8 = 1

# Largest synapse magnitude generate_synapses draws.
SYNAPSE_BOUND = 127

# Values generate_synapses draws per call: a chunk's temporaries stay in
# cache where a whole filter set's would fault in fresh pages. Even, as
# numpy splits each 32-bit draw into two uint16 values within one call.
SYNAPSE_CHUNK = 1 << 16

# Bits of a synapse's 64-bit uniform that index the inverse-CDF table;
# the other _LOW_BITS are drawn only where the table cannot decide.
_TABLE_BITS = 16
_LOW_BITS = 64 - _TABLE_BITS
# Table entry of a bucket that a threshold cuts (no value is -128).
_STRADDLES = -128

_HEADER = struct.Struct("<4sHBBIII")


class TraceIOError(IOError):
    """Malformed trace file or filesystem failure."""


def neuron_rng(seed: int, layer_index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, layer_index, 0])


def synapse_rng(seed: int, layer_index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, layer_index, 1])


def synapse_low_rng(seed: int, layer_index: int = 0) -> np.random.Generator:
    """The low bits of the synapse draws the table cannot decide."""
    return np.random.default_rng([seed, layer_index, 2])


def generate_trace(
    spec: LayerSpec,
    sigma: float,
    relu: bool,
    seed: int,
    layer_index: int = 0,
) -> Tensor3:
    """Synthetic input tensor: Normal(0, sigma), optional ReLU, rounded."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rng = neuron_rng(seed, layer_index)
    vals = rng.normal(0.0, sigma, size=(spec.ny, spec.nx, spec.i))
    # Rectify, round and clamp in place: one float buffer, one cast.
    if relu:
        np.maximum(vals, 0.0, out=vals)
    np.rint(vals, out=vals)
    np.clip(vals, -(1 << 15), (1 << 15) - 1, out=vals)
    return Tensor3(vals.astype(np.int32))


def synapse_thresholds(sigma: float) -> list[int]:
    """``floor(Phi((k + 1/2) / sigma) * 2^64)`` for k = -127 .. 126, the
    inverse-CDF thresholds of ``clip(rint(Normal(0, sigma)), -127, 127)``
    on a 64-bit uniform: the value is -127 plus the number of thresholds
    at or below the uniform.

    The upper half is ``2^64`` less the lower half's mirror, rounded up,
    so the values are symmetric about zero and the upper tail is as
    precise as the lower. A threshold of ``2^64``, whose CDF rounds to 1,
    is never crossed; one of 0 is always crossed.
    """
    lower = []
    for k in range(-SYNAPSE_BOUND, 0):
        x = (k + 0.5) / sigma if sigma else -math.inf
        lower.append(math.ldexp(0.5 * math.erfc(-x / math.sqrt(2.0)), 64))
    return ([math.floor(t) for t in lower]
            + [(1 << 64) - math.ceil(t) for t in reversed(lower)])


@functools.lru_cache(maxsize=8)
def _synapse_sampler(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The value of each of the 2^16 buckets of the top uniform bits, or
    :data:`_STRADDLES` where a threshold cuts the bucket, and the
    thresholds below ``2^64`` as uint64, for the cut buckets' draws."""
    thresholds = synapse_thresholds(sigma)
    # from the bucket each threshold lies in, the values above it; the
    # buckets a threshold cuts are then marked
    buckets = [t >> _LOW_BITS for t in thresholds]
    counts = np.diff(buckets, prepend=0, append=1 << _TABLE_BITS)
    table = np.repeat(np.arange(-SYNAPSE_BOUND, SYNAPSE_BOUND + 1, dtype=np.int8), counts)
    low = (1 << _LOW_BITS) - 1
    table[[b for b, t in zip(buckets, thresholds) if t & low]] = _STRADDLES
    finite = np.array([t for t in thresholds if t < 1 << 64], dtype=np.uint64)
    table.flags.writeable = finite.flags.writeable = False  # shared by every call
    return table, finite


def generate_synapses(
    spec: LayerSpec,
    sigma: float,
    seed: int,
    layer_index: int = 0,
) -> np.ndarray:
    """Synthetic int32 filters, magnitude-bounded by :data:`SYNAPSE_BOUND`
    to keep accumulators tame.

    Each value is drawn from the distribution of ``rint(Normal(0, sigma))``
    clipped to the bound, by the inverse CDF of a 64-bit uniform (see
    :func:`synapse_thresholds`). Its top 16 bits come from
    :func:`synapse_rng` and index a table that gives the value outright,
    except in the at most 254 buckets a threshold cuts; a draw in one of
    those takes its low 48 bits from :func:`synapse_low_rng`, in stream
    order, and is compared against the thresholds. The values are drawn
    :data:`SYNAPSE_CHUNK` at a time and equal one whole-array draw.
    """
    if not sigma >= 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    table, thresholds = _synapse_sampler(sigma)
    rng, low_rng = synapse_rng(seed, layer_index), synapse_low_rng(seed, layer_index)
    out = np.empty((spec.n, spec.fy, spec.fx, spec.i), dtype=np.int32)
    flat = out.reshape(-1)
    for start in range(0, flat.size, SYNAPSE_CHUNK):
        top = rng.integers(0, 1 << _TABLE_BITS, size=min(SYNAPSE_CHUNK, flat.size - start),
                           dtype=np.uint16)
        part = table[top]  # casts top a buffer at a time; np.take copies it whole
        cut = np.flatnonzero(part == _STRADDLES)
        if cut.size:
            uniform = top[cut].astype(np.uint64) << np.uint64(_LOW_BITS)
            uniform |= low_rng.integers(0, 1 << _LOW_BITS, size=cut.size, dtype=np.uint64)
            part[cut] = np.searchsorted(thresholds, uniform, side="right") - SYNAPSE_BOUND
        flat[start : start + part.size] = part
    return out


def generate_quantized_trace(
    spec: LayerSpec,
    sigma: float,
    relu: bool,
    q: QuantParams,
    seed: int,
    layer_index: int = 0,
) -> Tensor3:
    """Synthetic 8-bit codes: the real-valued trace pushed through the
    layer's linear quantizer."""
    rng = neuron_rng(seed, layer_index)
    vals = rng.normal(0.0, sigma, size=(spec.ny, spec.nx, spec.i))
    if relu:
        vals = np.maximum(vals, 0.0)
    return Tensor3(quantize8(vals, q))


def generate_quantized_synapses(
    spec: LayerSpec,
    sigma: float,
    q: QuantParams,
    seed: int,
    layer_index: int = 0,
) -> np.ndarray:
    rng = synapse_rng(seed, layer_index)
    vals = rng.normal(0.0, sigma, size=(spec.n, spec.fy, spec.fx, spec.i))
    return quantize8(vals, q)


def write_trace(path, tensor: Tensor3, dtype: int = DTYPE_I16) -> None:
    """Serialize a tensor; round-trips bit-exactly with :func:`read_trace`."""
    if dtype == DTYPE_I16:
        stored = np.dtype("<i2")
    elif dtype == DTYPE_U8:
        stored = np.dtype("<u1")
    else:
        raise TraceIOError(f"unknown dtype code {dtype}")
    lo, hi = np.iinfo(stored).min, np.iinfo(stored).max
    if tensor.data.min() < lo or tensor.data.max() > hi:
        raise TraceIOError(f"values outside {lo}..{hi} cannot be stored as {stored}")
    payload = tensor.data.astype(stored)
    header = _HEADER.pack(MAGIC, VERSION, dtype, 0, tensor.x, tensor.y, tensor.i)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload.tobytes())
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise TraceIOError(f"cannot write trace {path}: {e}") from e


def read_trace(path) -> tuple[Tensor3, int]:
    """Load a trace file, returning the tensor and its dtype code."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise TraceIOError(f"cannot read trace {path}: {e}") from e
    if len(raw) < _HEADER.size:
        raise TraceIOError(f"{path}: truncated header")
    magic, version, dtype, _, x, y, i = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise TraceIOError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise TraceIOError(f"{path}: unsupported version {version}")
    if dtype == DTYPE_I16:
        np_dtype, size = np.dtype("<i2"), 2
    elif dtype == DTYPE_U8:
        np_dtype, size = np.dtype("<u1"), 1
    else:
        raise TraceIOError(f"{path}: unknown dtype code {dtype}")
    expected = x * y * i * size
    payload = raw[_HEADER.size :]
    if len(payload) != expected:
        raise TraceIOError(
            f"{path}: payload is {len(payload)} bytes, dims imply {expected}"
        )
    values = np.frombuffer(payload, dtype=np_dtype).astype(np.int32)
    return Tensor3(values.reshape(y, x, i)), dtype
