"""Brute-force convolution oracle, the bit-parallel baseline model, and
the lowering every engine shares.

The oracle is a direct convolution by filter tap: one float64 BLAS
product per tap over an explicitly zero-padded copy of the input, exact
per tap because each reduces over the channels alone, with the taps
summed in int64. It builds no im2col and calls no lowering helper, and
keeps its own exactness bound, so it shares nothing with the engines it
is used to check but numpy's BLAS.

Every engine computes its output one way, :func:`lowered_output`: the
im2col matrix times the filter matrix, exact on the float64 BLAS path.
The serial engines also put a fixed sample of bricks through their
scalar unit models (:func:`sampled_bricks`), which model the shifters
and the sign handling the lowered product skips.

A :class:`LayerLowering` holds one layer's input views (raw, or
window-trimmed), each lowered on first use to its im2col matrix, exact
output and effectual term count. It is every engine's one input, so a
sweep of variants over one lowering lowers each view once.

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
    """

    compute_cycles: int = 0
    nm_fetch_cycles: int = 0
    stall_cycles: int = 0
    sb_reads: int = 0
    total_terms: int = 0
    effectual_terms: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
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


# Every integer of magnitude below 2^53 is exact in float64. The oracle
# keeps this bound of its own, so no change to the engines' product can
# reach it.
TAP_EXACT_LIMIT = 1 << 53

# Windows per band of the oracle's tap loop, so that one tap's reads and
# products stay this many rows tall on whole (paper-scale) layers; a
# smaller layer is one band. Like the bound above, the oracle keeps it
# apart from the engines' row blocks.
ORACLE_BAND_WINDOWS = 4096


def conv_oracle(
    input: Tensor3,
    filters: FilterSet,
    spec: LayerSpec,
    out_shift: int = 0,
) -> Tensor3:
    """Ground-truth convolution: a direct loop over the filter taps.

    o(k,l,f) = act( sum_{y,x,i} s_f(y,x,i) * n(y + l*s - pad, x + k*s - pad, i) )

    The input is copied into an explicitly zero-padded float64 array. For
    each tap ``(by, bx)``, the strided slice of that array that tap reads
    in every window is multiplied by the tap's ``(i, n)`` synapses on the
    float64 BLAS path, and each tap's product is added in int64. A tap
    reduces over the ``i`` channels alone, so its float sums are exact
    integers while ``i * max|input| * max|synapse|`` stays below
    :data:`TAP_EXACT_LIMIT`; past that, the channels are split into runs
    that meet it. The taps run over bands of whole output rows, about
    :data:`ORACLE_BAND_WINDOWS` windows each, so that one tap's reads
    and products are band-sized. The bands serve whole-layer inputs,
    such as a full VGG-16 view; a layer of fewer windows is one band.
    The padded input and the whole output stay live through
    :func:`activate`.
    """
    check_shapes(input, filters, spec)
    ox, oy, _ = output_dims(spec)
    s, p = spec.s, spec.pad
    padded = np.zeros((spec.ny + 2 * p, spec.nx + 2 * p, spec.i))
    padded[p : p + spec.ny, p : p + spec.nx] = input.data
    taps = filters.data.astype(np.float64)
    peak = int(np.abs(input.data).max()) * int(np.abs(filters.data).max())
    run = spec.i if peak == 0 else max(1, min(spec.i, (TAP_EXACT_LIMIT - 1) // peak))
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
                synapses = taps[:, by, bx, :].T
                for c in range(0, spec.i, run):
                    acc += (reads[:, c : c + run] @ synapses[c : c + run]).astype(np.int64)
    return Tensor3(activate(out, spec.act, out_shift))


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


def im2col(input: Tensor3, spec: LayerSpec) -> np.ndarray:
    """Window matrix ``(oy*ox, fy*fx*i)`` with virtual zero padding, in
    the int32 of :class:`Tensor3`.

    One copy per filter tap: the windows whose reads of that tap fall in
    the input take one strided 2-D slice of it; the rest stay zero. No
    padded copy of the input is made.
    """
    ox, oy, _ = output_dims(spec)
    cols = np.zeros((oy, ox, spec.fy, spec.fx, spec.i), dtype=np.int32)
    for by in range(spec.fy):
        out_y, in_y = _clipped(by - spec.pad, spec.s, oy, spec.ny)
        for bx in range(spec.fx):
            out_x, in_x = _clipped(bx - spec.pad, spec.s, ox, spec.nx)
            cols[out_y, out_x, by, bx] = input.data[in_y, in_x]
    return cols.reshape(oy * ox, spec.fy * spec.fx * spec.i)


# Every integer of magnitude below 2^53 is exact in float64.
EXACT_FLOAT_LIMIT = 1 << 53


def _abs_max(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min()))


# Rows of ``x`` cast to float64 at a time: a float copy of a block, not of
# the whole im2col matrix, is live during the product.
EXACT_BLOCK_ROWS = 4096


def exact_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` of integer matrices, exact in int64, on the float64 BLAS path.

    Every integer below 2^53 in magnitude is exact in float64, so a sum
    of ``K`` products is exact in any order while ``K * max|x| * max|w|``
    stays below that. The reduction axis is cut into chunks that meet the
    bound for the actual maxima, and the chunk sums are added in int64.
    ``x`` is cast and multiplied ``EXACT_BLOCK_ROWS`` rows at a time.
    """
    k = x.shape[1]
    peak = _abs_max(x) * _abs_max(w)
    chunk = k if peak == 0 else max(1, min(k, (EXACT_FLOAT_LIMIT - 1) // peak))
    wf = w.T.astype(np.float64)
    acc = np.zeros((x.shape[0], w.shape[0]), dtype=np.int64)
    for top in range(0, x.shape[0], EXACT_BLOCK_ROWS):
        xf = x[top : top + EXACT_BLOCK_ROWS].astype(np.float64)
        block = acc[top : top + EXACT_BLOCK_ROWS]
        for lo in range(0, k, chunk):
            block += (xf[:, lo : lo + chunk] @ wf[lo : lo + chunk]).astype(np.int64)
    return acc


def lowered_output(
    x: np.ndarray, filters: FilterSet, spec: LayerSpec, out_shift: int = 0
) -> Tensor3:
    """The layer output ``act(x @ W.T)`` from its im2col matrix ``x``.

    This is the one output path of every engine. Neurons fit the 16-bit
    container and synapses int16, so each product is below 2^31 and
    every real layer's reduction fits one exact float64 chunk of
    :func:`exact_matmul`.
    """
    acc = exact_matmul(x, filters.data.reshape(filters.n, -1))
    ox, oy, _ = output_dims(spec)
    return Tensor3(activate(acc.reshape(oy, ox, spec.n), spec.act, out_shift))


def effectual_terms(values: np.ndarray, spec: LayerSpec, width: int) -> int:
    """Essential bits over every neuron use, times the filters that reuse it."""
    return geo.window_sum(essential_counts(values, width), spec) * spec.n


class ScalarModelMismatch(RuntimeError):
    """A serial unit's scalar model disagrees with the lowered layer."""


SAMPLED_BRICKS = 8


def sampled_bricks(x: np.ndarray, filters: FilterSet):
    """Yield ``(window, step, neurons, synapses, dot)`` for a fixed sample
    of ``SAMPLED_BRICKS`` bricks: the 16 lanes of one im2col row at one
    brick step, against one filter, with their exact dot product.

    The picks come from a constant seed, so they depend on the layer's
    shape only, never on the run's seed.
    """
    w = filters.data.reshape(filters.n, -1)
    rng = np.random.default_rng(0)
    picks = zip(
        rng.integers(x.shape[0], size=SAMPLED_BRICKS),
        rng.integers(x.shape[1] // geo.BRICK, size=SAMPLED_BRICKS),
        rng.integers(filters.n, size=SAMPLED_BRICKS),
    )
    for window, step, f in picks:
        lanes = slice(step * geo.BRICK, (step + 1) * geo.BRICK)
        neurons = x[window, lanes].tolist()
        synapses = w[f, lanes].tolist()
        dot = sum(n * s for n, s in zip(neurons, synapses))
        yield int(window), int(step), neurons, synapses, dot


# --- one lowering per input view, shared by every engine variant ---


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself keeps its flags."""
    view = a.view()
    view.setflags(write=False)
    return view


class ViewLowering:
    """One input view of a layer, lowered once: its values, im2col matrix,
    exact output and effectual term count, all read-only, so no engine
    variant can change what a later one reads. :meth:`cached` keeps what
    engines derive from the view: column costs with their sampled checks,
    and the checks' encoded sample.
    """

    def __init__(self, values: np.ndarray, filters: FilterSet, spec: LayerSpec,
                 width: int, out_shift: int):
        self._memo: dict = {}
        self.values = read_only(values)
        self.x = read_only(im2col(Tensor3(values), spec))
        self.output = lowered_output(self.x, filters, spec, out_shift)
        self.output.data.setflags(write=False)
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
    serial engines read.
    """

    def __init__(self, input: Tensor3, filters: FilterSet, spec: LayerSpec,
                 width: int = 16, out_shift: int = 0):
        check_shapes(input, filters, spec)
        self.input, self.filters, self.spec = input, filters, spec
        self.width, self.out_shift = width, out_shift
        self.nm_cycles = dispatcher_fetch_cycles(spec)
        self._views: dict[Precision | None, ViewLowering] = {}

    def view(self, profile: Precision | None) -> ViewLowering:
        if profile not in self._views:
            data = self.input.data
            values = data if profile is None else trim_tensor(data, profile)
            self._views[profile] = ViewLowering(
                values, self.filters, self.spec, self.width, self.out_shift
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
