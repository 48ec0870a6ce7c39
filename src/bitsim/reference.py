"""Brute-force convolution oracle, the bit-parallel baseline model, and
the lowering every engine shares.

The oracle walks windows one at a time and reduces each against all
filters with an int64 multiply-accumulate over the window volume — no
im2col, no float path, no bricks, pallets or bit decomposition — so it
shares nothing with the engines it is used to check.

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
from .geometry import FilterSet, LayerSpec, Tensor3, output_dims
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


def conv_oracle(
    input: Tensor3,
    filters: FilterSet,
    spec: LayerSpec,
    out_shift: int = 0,
) -> Tensor3:
    """Ground-truth convolution: direct window loop, wide accumulators.

    o(k,l,f) = act( sum_{y,x,i} s_f(y,x,i) * n(y + l*s - pad, x + k*s - pad, i) )

    Each clipped window is reduced against every filter at once in int64.
    """
    check_shapes(input, filters, spec)
    ox, oy, _ = output_dims(spec)
    data = input.data.astype(np.int64)
    w = filters.data.astype(np.int64)
    acc = np.zeros((oy, ox, spec.n), dtype=np.int64)
    for l in range(oy):
        for k in range(ox):
            x0 = k * spec.s - spec.pad
            y0 = l * spec.s - spec.pad
            # Clip the window against the virtual zero border.
            ylo, yhi = max(0, y0), min(spec.ny, y0 + spec.fy)
            xlo, xhi = max(0, x0), min(spec.nx, x0 + spec.fx)
            if ylo >= yhi or xlo >= xhi:
                continue
            window = data[ylo:yhi, xlo:xhi, :]
            wslice = w[:, ylo - y0 : yhi - y0, xlo - x0 : xhi - x0, :]
            acc[l, k, :] = np.tensordot(wslice, window, axes=3)
    return Tensor3(activate(acc, spec.act, out_shift))


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


def im2col(input: Tensor3, spec: LayerSpec) -> np.ndarray:
    """Window matrix ``(oy*ox, fy*fx*i)`` with virtual zero padding, in
    the int32 of :class:`Tensor3`."""
    ox, oy, _ = output_dims(spec)
    data = input.data
    cols = np.zeros((oy, ox, spec.fy, spec.fx, spec.i), dtype=np.int32)
    for by in range(spec.fy):
        for bx in range(spec.fx):
            for l in range(oy):
                y = l * spec.s + by - spec.pad
                if not 0 <= y < spec.ny:
                    continue
                xs = np.arange(ox) * spec.s + bx - spec.pad
                ok = (xs >= 0) & (xs < spec.nx)
                cols[l, ok, by, bx, :] = data[y, xs[ok], :]
    return cols.reshape(oy * ox, spec.fy * spec.fx * spec.i)


# Every integer of magnitude below 2^53 is exact in float64.
EXACT_FLOAT_LIMIT = 1 << 53


def _abs_max(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min()))


def exact_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` of integer matrices, exact in int64, on the float64 BLAS path.

    Every integer below 2^53 in magnitude is exact in float64, so a sum
    of ``K`` products is exact in any order while ``K * max|x| * max|w|``
    stays below that. The reduction axis is cut into chunks that meet the
    bound for the actual maxima, and the chunk sums are added in int64.
    """
    k = x.shape[1]
    peak = _abs_max(x) * _abs_max(w)
    chunk = k if peak == 0 else max(1, min(k, (EXACT_FLOAT_LIMIT - 1) // peak))
    xf = x.astype(np.float64)
    wf = w.T.astype(np.float64)
    acc = np.zeros((x.shape[0], w.shape[0]), dtype=np.int64)
    for lo in range(0, k, chunk):
        acc += (xf[:, lo : lo + chunk] @ wf[lo : lo + chunk]).astype(np.int64)
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


class _Cached:
    """Values derived once per key and handed to every later reader."""

    def __init__(self):
        self._memo: dict = {}

    def cached(self, key, make):
        """``make()`` on the first call with ``key``, the same value after."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]


class ViewLowering(_Cached):
    """One input view of a layer, lowered once: its values, im2col matrix,
    exact output and effectual term count, all read-only, so no engine
    variant can change what a later one reads. :meth:`cached` keeps what
    engines derive from the view (sampled checks, column costs).
    """

    def __init__(self, values: np.ndarray, filters: FilterSet, spec: LayerSpec,
                 width: int, out_shift: int):
        super().__init__()
        self.values = read_only(values)
        self.x = read_only(im2col(Tensor3(values), spec))
        self.output = lowered_output(self.x, filters, spec, out_shift)
        self.output.data.setflags(write=False)
        self.effectual_terms = effectual_terms(values, spec, width)


class LayerLowering(_Cached):
    """A layer's inputs, each input view lowered on first use.

    A view is keyed by its precision window: ``None`` is the raw input, a
    :class:`Precision` the input trimmed to that window. Every engine
    variant on the layer reads the same :class:`ViewLowering` of its
    view, and :meth:`cached` keeps what depends on the layer alone.
    """

    def __init__(self, input: Tensor3, filters: FilterSet, spec: LayerSpec,
                 width: int = 16, out_shift: int = 0):
        super().__init__()
        check_shapes(input, filters, spec)
        self.input, self.filters, self.spec = input, filters, spec
        self.width, self.out_shift = width, out_shift
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
