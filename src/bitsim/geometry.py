"""Layer geometry, 3D tensors and window/brick/pallet addressing.

Conventions shared by every engine model:

* neuron/synapse arrays are stored with the depth (``i``) dimension
  innermost, i.e. an input tensor is a ``(y, x, i)`` C-order array;
* a *brick* is a run of ``BRICK`` (16) values along ``i``;
* a *pallet* is one brick from each of ``PALLET`` (16) windows that are
  adjacent along ``x`` with the layer stride.

Padding is never materialized: reads that fall into the zero border
return zeros, so traces and memory mapping stay aligned with the
unpadded storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BRICK = 16          # values per brick (depth-direction SIMD width)
PALLET = 16         # windows per pallet (x-direction SIMD width)
FILTERS_PER_TILE = 16
TILES = 16
FILTERS_PER_GROUP = FILTERS_PER_TILE * TILES  # filters processed per pass

INT16_MIN = -(1 << 15)
INT16_MAX = (1 << 15) - 1


def container_bounds(width: int) -> tuple[int, int]:
    """Values a ``width``-bit container holds: its signed and unsigned views."""
    return -(1 << (width - 1)), (1 << width) - 1


# Neuron containers are 16-bit patterns; post-activation streams may use
# the unsigned view, so tensors accept the union of both interpretations.
CONTAINER_MIN, CONTAINER_MAX = container_bounds(16)


class NonIntegralDims(ValueError):
    """Window placement does not divide evenly by the stride."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def pad_depth(depth: int) -> int:
    """Depth after zero-extension to a whole number of bricks."""
    return max(BRICK, _ceil_div(depth, BRICK) * BRICK)


@dataclass(frozen=True)
class LayerSpec:
    """Geometry and metadata of one convolutional layer.

    ``i`` must already be a multiple of 16; loaders zero-extend shallower
    data (see :meth:`normalized`).
    """

    nx: int
    ny: int
    i: int
    n: int
    fx: int
    fy: int
    s: int = 1
    pad: int = 0
    act: str = "identity"
    name: str = ""

    def __post_init__(self):
        for k in ("nx", "ny", "i", "n", "fx", "fy"):
            if getattr(self, k) < 1:
                raise ValueError(f"{k!r} must be positive, got {getattr(self, k)}")
        if self.s < 1:
            raise ValueError(f"stride must be >= 1, got {self.s}")
        if self.pad < 0:
            raise ValueError(f"padding must be >= 0, got {self.pad}")
        if self.i % BRICK != 0:
            raise ValueError(
                f"depth {self.i} is not a multiple of {BRICK}; zero-extend at load"
            )
        if self.act not in ("identity", "relu"):
            raise ValueError(f"unknown activation {self.act!r}")
        # Validate output dims eagerly; raises NonIntegralDims on bad geometry.
        output_dims(self)

    @classmethod
    def normalized(cls, nx, ny, i, n, fx, fy, s=1, pad=0, act="identity", name=""):
        """Build a spec, zero-extending the depth to a brick multiple."""
        return cls(nx, ny, pad_depth(i), n, fx, fy, s, pad, act, name)


def output_dims(spec: LayerSpec) -> tuple[int, int, int]:
    """Exact output array dimensions ``(ox, oy, oi)``.

    Raises :class:`NonIntegralDims` when the padded input is not an
    integer number of stride steps wider than the filter.
    """
    span_x = spec.nx + 2 * spec.pad - spec.fx
    span_y = spec.ny + 2 * spec.pad - spec.fy
    if span_x < 0 or span_y < 0:
        raise NonIntegralDims(f"filter larger than padded input: {spec}")
    if span_x % spec.s or span_y % spec.s:
        raise NonIntegralDims(
            f"(input + 2*pad - filter) not divisible by stride {spec.s}"
        )
    return span_x // spec.s + 1, span_y // spec.s + 1, spec.n


def _set_values(obj, axes: tuple[str, ...], lo: int, hi: int, container: str) -> None:
    """Sets ``obj.data`` to a contiguous int32 copy of itself, checked to
    hold one dimension per name in ``axes`` and integers in ``lo..hi``."""
    a = np.asarray(obj.data)
    if a.ndim != len(axes):
        raise ValueError(f"expected {len(axes)} dims {axes}, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError("values must be integers")
    if a.size and (a.min() < lo or a.max() > hi):
        raise ValueError(f"values exceed the {container} container")
    object.__setattr__(obj, "data", np.ascontiguousarray(a, dtype=np.int32))


@dataclass(frozen=True)
class Tensor3:
    """3D array of signed 16-bit values, ``(y, x, i)`` C-order, ``i`` fastest."""

    data: np.ndarray  # shape (y, x, i), integer dtype

    def __post_init__(self):
        _set_values(self, ("y", "x", "i"), CONTAINER_MIN, CONTAINER_MAX, "16-bit")

    @property
    def x(self) -> int:
        return self.data.shape[1]

    @property
    def y(self) -> int:
        return self.data.shape[0]

    @property
    def i(self) -> int:
        return self.data.shape[2]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.i)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )


@dataclass(frozen=True)
class FilterSet:
    """``n`` filters of identical ``(fy, fx, i)`` shape, signed 16-bit."""

    data: np.ndarray  # shape (n, fy, fx, i), integer dtype

    def __post_init__(self):
        _set_values(self, ("n", "fy", "fx", "i"), INT16_MIN, INT16_MAX, "signed 16-bit")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def fy(self) -> int:
        return self.data.shape[1]

    @property
    def fx(self) -> int:
        return self.data.shape[2]

    @property
    def i(self) -> int:
        return self.data.shape[3]

    def matches(self, spec: LayerSpec) -> bool:
        return (self.n, self.fy, self.fx, self.i) == (spec.n, spec.fy, spec.fx, spec.i)


def num_pallets(spec: LayerSpec) -> int:
    ox, oy, _ = output_dims(spec)
    return _ceil_div(ox, PALLET) * oy


def num_brick_steps(spec: LayerSpec) -> int:
    return spec.fy * spec.fx * (spec.i // BRICK)


def dispatcher_fetch_cycles(spec: LayerSpec) -> int:
    """Per-layer pallet fetch cost ``NM_C``: neuron-memory rows the worst
    pallet fetch of the layer reads, at one row per cycle.

    Bricks are laid out ``(y, depth slice, x)`` with ``x`` fastest, 16 to
    a row. The bricks of one fetch share ``y`` and the depth slice, and
    their ``x`` form one run of step ``s``, clipped to the input: ``c``
    bricks from ``x0`` to ``x1``. With ``a`` the address of ``x = 0`` in
    that ``(y, slice)`` row of the map, they span the rows
    ``(a + x0) // 16`` to ``(a + x1) // 16``, and touch each of them
    while ``s <= 16``; wider strides put each brick in a row of its own.
    So a fetch reads ``min(c, span)`` rows. Only ``a mod 16`` moves the
    span, so the worst fetch is a max over the offsets the map holds,
    the pallets of one output row and ``fx``. A layer whose fetches all
    read the zero border costs 1.
    """
    ox, oy, _ = output_dims(spec)
    s, pad, slices = spec.s, spec.pad, spec.i // BRICK
    ys = ((np.arange(oy) * s)[:, None] + np.arange(spec.fy) - pad).ravel()
    ys = ys[(ys >= 0) & (ys < spec.ny)]  # input rows some fetch reads
    held = np.zeros(PALLET, dtype=bool)  # address offsets mod 16 of those rows
    held[(ys[:, None] * slices + np.arange(slices)) * spec.nx % PALLET] = True
    # per (pallet of a row, bx): the first and last window whose brick x
    # lies in the input
    base = np.arange(0, ox, PALLET)[:, None]
    bx = np.arange(spec.fx)
    first = np.maximum(base, -((bx - pad) // s))
    last = np.minimum(np.minimum(base + PALLET, ox) - 1, (spec.nx - 1 + pad - bx) // s)
    some = last >= first
    c = (last - first + 1)[some]
    x0, x1 = (first * s + bx - pad)[some], (last * s + bx - pad)[some]
    a = np.flatnonzero(held)[:, None]
    rows = np.minimum(c, (a + x1) // PALLET - (a + x0) // PALLET + 1)
    return max(1, int(rows.max(initial=0)))


def num_pairs(spec: LayerSpec) -> int:
    """Neuron/synapse multiplications of the layer, zero border included."""
    ox, oy, _ = output_dims(spec)
    return spec.n * ox * oy * spec.fy * spec.fx * spec.i


def _axis_uses(size: int, f: int, out: int, s: int, pad: int) -> np.ndarray:
    """How many window placements along one axis cover each input index."""
    uses = np.zeros(size + 2 * pad, dtype=np.int64)  # padded coordinates
    for b in range(f):
        uses[b : b + out * s : s] += 1
    return uses[pad : pad + size]


def window_sum(values: np.ndarray, spec: LayerSpec) -> int:
    """Sum of a per-neuron quantity over every window's use of every neuron.

    ``values`` has the input's ``(y, x, i)`` shape and must be 0 for a
    zero neuron, so the virtual zero border adds nothing. That sum equals
    the input weighted by how many windows read each position, and the
    weight is separable: the window rows covering ``y`` times the window
    columns covering ``x``. It gives the same integer as summing over the
    im2col matrix, from ``fy * fx / s^2`` times fewer elements.
    """
    ox, oy, _ = output_dims(spec)
    rows = _axis_uses(spec.ny, spec.fy, oy, spec.s, spec.pad)
    cols = _axis_uses(spec.nx, spec.fx, ox, spec.s, spec.pad)
    per_position = np.asarray(values).sum(axis=2, dtype=np.int64)
    return int(rows @ per_position @ cols)


def filter_groups(spec: LayerSpec) -> int:
    """Sequential 256-filter passes needed; short groups idle lanes."""
    return _ceil_div(spec.n, FILTERS_PER_GROUP)
