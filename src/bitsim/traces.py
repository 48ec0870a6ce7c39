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

import struct

import numpy as np

from .geometry import LayerSpec, Tensor3
from .numerics import QuantParams, quantize8

MAGIC = b"PRGT"
VERSION = 1
DTYPE_I16 = 0
DTYPE_U8 = 1

# Largest synapse magnitude generate_synapses draws; the CSV digests fix it.
SYNAPSE_BOUND = 127

# Values generate_synapses draws per call: a 1 MB float64 buffer, reused,
# stays in cache where a whole filter set's draw would fault in fresh pages.
SYNAPSE_CHUNK = 1 << 17

_HEADER = struct.Struct("<4sHBBIII")


class TraceIOError(IOError):
    """Malformed trace file or filesystem failure."""


def neuron_rng(seed: int, layer_index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, layer_index, 0])


def synapse_rng(seed: int, layer_index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, layer_index, 1])


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


def generate_synapses(
    spec: LayerSpec,
    sigma: float,
    seed: int,
    layer_index: int = 0,
) -> np.ndarray:
    """Synthetic int32 filters, magnitude-bounded by :data:`SYNAPSE_BOUND`
    to keep accumulators tame.

    The values are those of ``rint(rng.normal(0, sigma, shape))`` clipped
    to the bound, drawn :data:`SYNAPSE_CHUNK` at a time into one reused
    buffer: standard normals in stream order, scaled, rounded and clamped
    in place. ``sigma * z`` differs from ``0.0 + sigma * z`` only in the
    sign of a zero, which the cast erases.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    rng = synapse_rng(seed, layer_index)
    out = np.empty((spec.n, spec.fy, spec.fx, spec.i), dtype=np.int32)
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, SYNAPSE_CHUNK))
    for start in range(0, flat.size, SYNAPSE_CHUNK):
        part = buf[: flat.size - start]
        rng.standard_normal(out=part)
        part *= sigma
        np.rint(part, out=part)
        np.clip(part, -SYNAPSE_BOUND, SYNAPSE_BOUND, out=part)
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
    values = np.frombuffer(payload, dtype=np_dtype).astype(np.int64)
    return Tensor3(values.reshape(y, x, i)), dtype
