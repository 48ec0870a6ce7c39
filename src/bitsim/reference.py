"""Brute-force convolution oracle, the bit-parallel baseline model, and
the lowering every engine shares.

The oracle is a direct convolution by filter tap: one float BLAS
product per tap over an explicitly zero-padded copy of the input, exact
per tap because each reduces over the channels alone, with the taps
summed in int64. It builds no im2col and calls no lowering helper, and
keeps its own exactness bounds, so it shares nothing with the engines it
is used to check but numpy's BLAS.

Every engine computes its output one way, in :class:`ViewLowering`: the
im2col matrix times the filter matrix (:func:`exact_matmul`), exact on
the float BLAS path. The serial engines also put a fixed sample of
bricks through their scalar unit models (:func:`sampled_bricks`), which
model the shifters and the sign handling the lowered product skips.

Both products are exact sums of integers in floating point. Each picks
its float type from its own operands' largest product ``max|x| *
max|w|``: float32 (SGEMM, about twice the throughput of DGEMM) while
that is below 2^24, which covers every input a config can build
(``32768 * 255 < 2^23``), and float64, exact below 2^53, otherwise. The
reduction is cut into chunks whose sums stay under the chosen bound.

A :class:`LayerLowering` holds one layer's input views (raw, or
window-trimmed), each lowered once to its exact output, sampled bricks
and effectual term count. A view is lowered in bands of whole output
rows, so no whole im2col matrix is built. The lowering is every engine's
one input, so a sweep of variants over one lowering lowers each view once.

The baseline ("dadn") models a chip of 16 tiles x 16 filters that
broadcasts one 16-neuron brick per cycle: its cycle count is a pure
function of geometry, blind to the values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .encoding import essential_counts
from .geometry import FilterSet, LayerSpec, Tensor3, dispatcher_fetch_cycles, output_dims
from .numerics import MissingProfile, Precision, activate, full_precision, trim_tensor


class ShapeMismatch(ValueError):
    """Input/filter shapes inconsistent with the layer spec."""


@dataclass
class CycleReport:
    """Counters of one engine run.

    ``compute_cycles`` includes fetch-induced waiting per the engine's
    model; ``stall_cycles`` is the waiting alone. ``sb_reads`` counts
    synapse-set fetches on the shared schedule (all engines see the same
    synapse reuse). Term counters follow the per-multiplication
    convention: ``total_terms`` charges the full container width per
    neuron/synapse pair, ``effectual_terms`` only the essential bits the
    engine actually processed.

    Construction raises ValueError for a negative counter, more stall
    than compute cycles, or more effectual than total terms.
    """

    compute_cycles: int = 0
    nm_fetch_cycles: int = 0
    stall_cycles: int = 0
    sb_reads: int = 0
    total_terms: int = 0
    effectual_terms: int = 0

    def __post_init__(self):
        for name in (
            "compute_cycles",
            "nm_fetch_cycles",
            "stall_cycles",
            "sb_reads",
            "total_terms",
            "effectual_terms",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.stall_cycles > self.compute_cycles:
            raise ValueError("stall_cycles cannot exceed compute_cycles")
        if self.effectual_terms > self.total_terms:
            raise ValueError("effectual_terms cannot exceed total_terms")


@dataclass
class EngineResult:
    """Output tensor plus cycle/term counters for one engine run."""

    output: Tensor3
    report: CycleReport
    engine: str = ""
    variant: str = ""


def variant_key(engine: str, variant: str) -> str:
    """The design point a config names, as the report's aggregate lines
    and the run's messages name it: ``engine:variant`` for a pragmatic
    variant, else the engine alone. A stripes result's variant is its
    layer's precision, so one stripes design spans several variants."""
    return f"{engine}:{variant}" if engine == "pragmatic" and variant else engine


def check_shapes(input: Tensor3, filters: FilterSet, spec: LayerSpec):
    if (input.x, input.y, input.i) != (spec.nx, spec.ny, spec.i):
        raise ShapeMismatch(
            f"input dims {(input.x, input.y, input.i)} != spec {(spec.nx, spec.ny, spec.i)}"
        )
    if not filters.matches(spec):
        raise ShapeMismatch(
            f"filter dims {(filters.n, filters.fy, filters.fx, filters.i)} "
            f"!= spec {(spec.n, spec.fy, spec.fx, spec.i)}"
        )


# Every integer of magnitude below 2^24 is exact in float32, and below
# 2^53 in float64. The oracle keeps these bounds of its own, so no change
# to the engines' product can reach them.
TAP_FLOAT32_LIMIT = 1 << 24
TAP_EXACT_LIMIT = 1 << 53

# Windows per band of the oracle's tap loop, so that one tap's reads and
# products stay this many rows tall on whole (paper-scale) layers; a
# smaller layer is one band. Like the bound above, the oracle keeps it
# apart from the engines' bands.
ORACLE_BAND_WINDOWS = 4096


def conv_oracle(
    input: Tensor3,
    filters: FilterSet,
    spec: LayerSpec,
    out_shift: int = 0,
) -> Tensor3:
    """Ground-truth convolution: a direct loop over the filter taps.

    o(k,l,f) = act( sum_{y,x,i} s_f(y,x,i) * n(y + l*s - pad, x + k*s - pad, i) )

    The input is copied into an explicitly zero-padded float array. For
    each tap ``(by, bx)``, the strided slice of that array that tap reads
    in every window is multiplied by the tap's ``(i, n)`` synapses on the
    float BLAS path, and each tap's product is added in int64. A tap
    reduces over the ``i`` channels alone, so its float sums are exact
    integers while ``i * max|input| * max|synapse|`` stays below the
    float type's bound: :data:`TAP_FLOAT32_LIMIT` on float32, which the
    oracle takes while one product ``max|input| * max|synapse|`` is
    below that bound, and :data:`TAP_EXACT_LIMIT` on float64 otherwise.
    Past the bound, the channels are split into runs that meet it. The
    taps run over bands of whole output rows, about
    :data:`ORACLE_BAND_WINDOWS` windows each, so that one tap's reads
    and products are band-sized. The bands serve whole-layer inputs,
    such as a full VGG-16 view; a layer of fewer windows is one band.
    Each tap's synapses are cast to the float type when that tap is
    used, and the int64 output is activated in place.
    """
    check_shapes(input, filters, spec)
    ox, oy, _ = output_dims(spec)
    s, p = spec.s, spec.pad
    peak = int(np.abs(input.data).max()) * int(np.abs(filters.data).max())
    dtype, limit = np.float32, TAP_FLOAT32_LIMIT
    if peak >= limit:
        dtype, limit = np.float64, TAP_EXACT_LIMIT
    run = spec.i if peak == 0 else max(1, min(spec.i, (limit - 1) // peak))
    padded = np.zeros((spec.ny + 2 * p, spec.nx + 2 * p, spec.i), dtype=dtype)
    padded[p : p + spec.ny, p : p + spec.nx] = input.data
    band = max(1, ORACLE_BAND_WINDOWS // ox)
    out = np.zeros((oy, ox, spec.n), dtype=np.int64)
    for top in range(0, oy, band):
        rows = min(band, oy - top)
        acc = out[top : top + rows].reshape(rows * ox, spec.n)  # a view
        for by in range(spec.fy):
            y0 = top * s + by
            for bx in range(spec.fx):
                reads = padded[y0 : y0 + (rows - 1) * s + 1 : s,
                               bx : bx + (ox - 1) * s + 1 : s]
                reads = reads.reshape(rows * ox, spec.i)
                synapses = filters.data[:, by, bx, :].T.astype(dtype)
                for c in range(0, spec.i, run):
                    acc += (reads[:, c : c + run] @ synapses[c : c + run]).astype(np.int64)
    return Tensor3(activate(out, spec.act, out_shift, in_place=True))


def dadn_cycles(spec: LayerSpec) -> int:
    """Baseline cycles: one (filter-group, window, brick) triple per cycle."""
    ox, oy, _ = output_dims(spec)
    return geo.filter_groups(spec) * ox * oy * spec.fy * spec.fx * (spec.i // geo.BRICK)


def dadn_terms(spec: LayerSpec, width: int = 16) -> int:
    """Terms the bit-parallel units grind through: width per multiplication."""
    return width * geo.num_pairs(spec)


def sb_read_count(spec: LayerSpec) -> int:
    """Synapse-set fetches under the shared schedule, for every engine.

    All designs are scheduled to see the same synapse reuse: one set of
    16 synapse bricks is fetched per (filter-group, pallet, brick-step)
    and serves the 16 windows of the pallet.
    """
    return geo.filter_groups(spec) * geo.num_pallets(spec) * geo.num_brick_steps(spec)


def dadn_layer(lowered: LayerLowering) -> EngineResult:
    """Run the bit-parallel baseline on a layer's lowering: exact output,
    value-blind timing."""
    spec = lowered.spec
    view = lowered.view(None)
    cycles = dadn_cycles(spec)
    report = CycleReport(
        compute_cycles=cycles,
        nm_fetch_cycles=cycles,  # one brick broadcast per cycle
        stall_cycles=0,
        sb_reads=sb_read_count(spec),
        total_terms=dadn_terms(spec, lowered.width),
        effectual_terms=view.effectual_terms,
    )
    return EngineResult(output=view.output, report=report, engine="dadn")


# --- shared lowering helpers (used by the engine models, not the oracle) ---


def _clipped(offset: int, s: int, count: int, n: int) -> tuple[slice, slice]:
    """Slices of the outputs ``k < count`` whose read ``k*s + offset`` lies
    in ``[0, n)``, and of those reads."""
    first = max(0, -(offset // s))
    stop = max(first, min(count, (n - 1 - offset) // s + 1))
    start = first * s + offset  # >= 0, so neither slice wraps
    return slice(first, stop), slice(start, start + (stop - first) * s, s)


def im2col(input: Tensor3, spec: LayerSpec, top: int = 0, rows: int | None = None) -> np.ndarray:
    """Window matrix ``(rows*ox, fy*fx*c)`` of the output rows ``top`` to
    ``top + rows`` (by default every row from ``top`` on), with virtual
    zero padding, in the int32 of :class:`Tensor3`. Its rows are those of
    the whole matrix from window ``top * ox`` on. Each tap gives the
    ``c = input.i`` channels: neurons, or a per-brick map such as costs.

    One copy per filter tap: the windows whose reads of that tap fall in
    the input take one strided 2-D slice of it; the rest stay zero. No
    padded copy of the input is made.
    """
    ox, oy, _ = output_dims(spec)
    rows = oy - top if rows is None else rows
    cols = np.zeros((rows, ox, spec.fy, spec.fx, input.i), dtype=np.int32)
    for by in range(spec.fy):
        out_y, in_y = _clipped(top * spec.s + by - spec.pad, spec.s, rows, spec.ny)
        for bx in range(spec.fx):
            out_x, in_x = _clipped(bx - spec.pad, spec.s, ox, spec.nx)
            cols[out_y, out_x, by, bx] = input.data[in_y, in_x]
    return cols.reshape(rows * ox, spec.fy * spec.fx * input.i)


# Every integer of magnitude below 2^24 is exact in float32, and below
# 2^53 in float64.
EXACT_FLOAT32_LIMIT = 1 << 24
EXACT_FLOAT_LIMIT = 1 << 53


def _abs_max(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min()))


def exact_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` of integer matrices, exact in int64, on the float BLAS path.

    Every integer below 2^24 in magnitude is exact in float32, and below
    2^53 in float64. So a sum of ``K`` products is exact in any order,
    with or without fused multiply-adds, while ``K * max|x| * max|w|``
    stays below the bound of its float type. The product runs in float32
    (:data:`EXACT_FLOAT32_LIMIT`) when one product ``max|x| * max|w|`` is
    below 2^24, and in float64 (:data:`EXACT_FLOAT_LIMIT`) otherwise. The
    reduction axis is cut into chunks that meet the chosen bound for the
    actual maxima, and the chunk sums are added in int64. ``x`` is cast
    whole, so its callers pass it in bands, and ``w`` one chunk at a
    time, so no float copy of the whole filter matrix is made.
    """
    k = x.shape[1]
    peak = _abs_max(x) * _abs_max(w)
    dtype, limit = np.float32, EXACT_FLOAT32_LIMIT
    if peak >= limit:
        dtype, limit = np.float64, EXACT_FLOAT_LIMIT
    chunk = k if peak == 0 else max(1, min(k, (limit - 1) // peak))
    # before the float copy of x: the other order raised the peak RSS of
    # the alexnet_column benchmark by 0.4-0.9 MB
    acc = np.zeros((x.shape[0], w.shape[0]), dtype=np.int64)
    xf = x.astype(dtype)
    for lo in range(0, k, chunk):
        wf = w[:, lo : lo + chunk].T.astype(dtype)
        acc += (xf[:, lo : lo + chunk] @ wf).astype(np.int64)
    return acc


def effectual_terms(values: np.ndarray, spec: LayerSpec, width: int) -> int:
    """Essential bits over every neuron use, times the filters that reuse it."""
    return geo.window_sum(essential_counts(values, width), spec) * spec.n


class ScalarModelMismatch(RuntimeError):
    """A serial unit's scalar model disagrees with the lowered layer."""


SAMPLED_BRICKS = 8


def sample_picks(windows: int, steps: int, n: int) -> list[tuple[int, int, int]]:
    """The ``(window, step, filter)`` of each of ``SAMPLED_BRICKS``
    sampled bricks, of a layer with ``windows`` im2col rows of ``steps``
    bricks and ``n`` filters.

    The picks come from a constant seed, so they depend on the layer's
    shape only, never on the run's seed.
    """
    rng = np.random.default_rng(0)
    return [
        (int(window), int(step), int(f))
        for window, step, f in zip(
            rng.integers(windows, size=SAMPLED_BRICKS),
            rng.integers(steps, size=SAMPLED_BRICKS),
            rng.integers(n, size=SAMPLED_BRICKS),
        )
    ]


def sampled_bricks(rows: np.ndarray, picks, filters: FilterSet):
    """Yield ``(window, step, neurons, synapses, dot)`` for each of the
    :func:`sample_picks`: the 16 lanes of one im2col row at one brick
    step and one filter, as tuples, with their exact dot product.
    ``rows[j]`` is the im2col row of pick ``j``'s window.
    """
    w = filters.data.reshape(filters.n, -1)
    for row, (window, step, f) in zip(rows, picks):
        lanes = slice(step * geo.BRICK, (step + 1) * geo.BRICK)
        neurons = tuple(row[lanes].tolist())
        synapses = tuple(w[f, lanes].tolist())
        dot = sum(n * s for n, s in zip(neurons, synapses))
        yield window, step, neurons, synapses, dot


# --- one lowering per input view, shared by every engine variant ---


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself keeps its flags."""
    view = a.view()
    view.setflags(write=False)
    return view


# Windows per band of a view's lowering, rounded down to whole output
# rows (one row at least): one band's im2col rows, their float copy and
# their product are live at a time, not the whole layer's.
LOWERING_BAND_WINDOWS = 128


class ViewLowering:
    """One input view of a layer, lowered once: its values, exact output,
    effectual term count and :func:`sampled_bricks` at the layer's
    ``picks``, none writable, so no engine variant can change what a
    later one reads. :meth:`cached` keeps what engines derive from the
    view: column costs with their sampled checks, and the sample's
    encoded lanes.

    The output ``act(x @ W.T)`` of the view's im2col matrix ``x`` is
    computed in bands of whole output rows, about
    :data:`LOWERING_BAND_WINDOWS` windows each, so no whole im2col matrix
    and no whole int64 accumulator is built. Each band's im2col rows give
    up the rows the sample picks, then go through :func:`exact_matmul`,
    whose product is activated in place and stored into the int32
    output. A config's neurons fit the 16-bit container (``|n| <=
    32768``) and its synapses 8 bits (``|s| <= 255``), so each product is
    below 2^23 and :func:`exact_matmul` runs in float32, in reduction
    chunks of at least two columns. Inputs built through the API alone,
    up to the 16-bit container and int16 synapses, can reach 2^31 and
    take float64.
    """

    def __init__(self, values: np.ndarray, filters: FilterSet, spec: LayerSpec,
                 width: int, out_shift: int, picks: list[tuple[int, int, int]]):
        self._memo: dict = {}
        self.values = read_only(values)
        input, w = Tensor3(values), filters.data.reshape(filters.n, -1)
        ox, oy, _ = output_dims(spec)
        picked = np.empty((len(picks), w.shape[1]), dtype=np.int32)
        out = np.empty((oy * ox, spec.n), dtype=np.int32)
        band = max(1, LOWERING_BAND_WINDOWS // ox)
        for top in range(0, oy, band):
            x = im2col(input, spec, top, min(band, oy - top))
            first = top * ox
            for j, (window, _, _) in enumerate(picks):
                if first <= window < first + len(x):
                    picked[j] = x[window - first]
            acc = exact_matmul(x, w)
            out[first : first + len(x)] = activate(acc, spec.act, out_shift, in_place=True)
        self.output = Tensor3(out.reshape(oy, ox, spec.n))
        self.output.data.setflags(write=False)
        self.sample = tuple(sampled_bricks(picked, picks, filters))
        self.effectual_terms = effectual_terms(values, spec, width)

    def cached(self, key, make):
        """``make()`` on the first call with ``key``, the same value after."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]


class LayerLowering:
    """A layer's inputs, each input view lowered on first use.

    A view is keyed by its precision window: ``None`` is the raw input, a
    :class:`Precision` the input trimmed to that window. Every engine
    variant on the layer reads the same :class:`ViewLowering` of its
    view. ``nm_cycles`` is the layer's dispatcher fetch cost ``NM_C``
    (:func:`~bitsim.geometry.dispatcher_fetch_cycles`), which both
    serial engines read, and ``picks`` its :func:`sample_picks`, both made
    here: two views may be lowered on different threads.
    """

    def __init__(self, input: Tensor3, filters: FilterSet, spec: LayerSpec,
                 width: int = 16, out_shift: int = 0):
        check_shapes(input, filters, spec)
        self.input, self.filters, self.spec = input, filters, spec
        self.width, self.out_shift = width, out_shift
        self.nm_cycles = dispatcher_fetch_cycles(spec)
        ox, oy, _ = output_dims(spec)
        self.picks = sample_picks(oy * ox, geo.num_brick_steps(spec), spec.n)
        self._views: dict[Precision | None, ViewLowering] = {}

    def view(self, profile: Precision | None) -> ViewLowering:
        if profile not in self._views:
            data = self.input.data
            values = data if profile is None else trim_tensor(data, profile)
            self._views[profile] = ViewLowering(
                values, self.filters, self.spec, self.width, self.out_shift, self.picks
            )
        return self._views[profile]

    def trimmed(self, profile: Precision | None) -> ViewLowering:
        """The view trimmed to the layer's window ``profile``.

        Raises :class:`MissingProfile` without a window and ValueError for
        a window wider than the container.
        """
        if profile is None:
            raise MissingProfile("a trimmed view needs the layer's precision window")
        if profile.msb > full_precision(self.width).msb:
            raise ValueError(f"profile {profile} exceeds container width {self.width}")
        return self.view(profile)
