"""Essential-bit-serial engine: PIP units, two-stage shift scheduling,
and pallet- and per-column synchronization.

A PIP column holds 16 neuron lanes that share one brick. Every cycle the
column's control picks the minimum live oneffset ``c`` (the second-stage
shift), and every lane whose head is within ``2^L`` of it emits the term
``synapse << (head - c)``; the adder-tree sum is then shifted by ``c``
and accumulated. Lanes further ahead stall that cycle. ``L = 4`` spans
the whole offset range, i.e. single-stage shifting.

Synchronization:

* pallet: all 16 columns advance together; a phase costs the slowest
  column's cycles, overlapped with the next pallet fetch.
* column: each column walks its own brick sequence; synapse sets are
  buffered in SSRs with a 16-way down-counter, the single SB port grants
  one read per cycle (lowest column index first), and the dispatcher's
  pallet buffer bounds how far columns may drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import geometry as geo
from .encoding import encode
# dispatcher_fetch_cycles (NM_C) is also public under this module's name
from .geometry import BRICK, PALLET, FilterSet, LayerSpec, dispatcher_fetch_cycles, output_dims
from .numerics import Precision
from .reference import (
    CycleReport,
    EngineResult,
    LayerLowering,
    ScalarModelMismatch,
    ViewLowering,
    read_only,
    sampled_bricks,
    sb_read_count,
)


class AllDone(RuntimeError):
    """Scheduler stepped with every lane already exhausted."""


class DeadlockDetected(RuntimeError):
    """Column sync cannot start: no SSR slot or no pallet buffer slot."""


@dataclass(frozen=True)
class PragConfig:
    """Design-space knobs of the essential-bit engine.

    ``l_bits`` is the first-stage shifter width (4 means single-stage);
    ``ssr_count``/``pallet_buffer`` apply to column sync only, ``None``
    meaning unbounded. ``pallet_buffer=None`` with a bounded ``ssr_count``
    sizes the dispatcher buffer to ``ssr_count + 1``, the smallest depth
    the SSR skew can use (two pallets for one SSR).
    """

    l_bits: int = 2
    sync: str = "pallet"
    ssr_count: int | None = 1
    pallet_buffer: int | None = None
    trim: str = "profile"  # "profile" (software-guided window) or "none" (raw)

    def __post_init__(self):
        if self.l_bits not in (0, 1, 2, 3, 4):
            raise ValueError(f"l_bits must be in 0..4, got {self.l_bits}")
        if self.sync not in ("pallet", "column"):
            raise ValueError(f"sync must be 'pallet' or 'column', got {self.sync!r}")
        if self.ssr_count is not None and self.ssr_count < 1:
            raise ValueError("ssr_count must be >= 1 (or None for unbounded)")
        if self.pallet_buffer is not None and self.pallet_buffer < 1:
            raise ValueError("pallet_buffer must be >= 1 (or None)")
        if self.trim not in ("profile", "none"):
            raise ValueError(f"trim must be 'profile' or 'none', got {self.trim!r}")

    @property
    def effective_buffer(self) -> int | None:
        if self.pallet_buffer is not None:
            return self.pallet_buffer
        if self.ssr_count is None:
            return None
        return self.ssr_count + 1

    def variant_name(self) -> str:
        tag = f"{self.l_bits}b-{self.sync}"
        if self.sync == "column":
            tag += f"-{'inf' if self.ssr_count is None else self.ssr_count}R"
            if self.pallet_buffer is not None:
                tag += f"-{self.pallet_buffer}B"
        tag += "-raw" if self.trim == "none" else "-red"
        return tag


def two_stage_step(heads, l_bits: int):
    """One scheduling decision over the current lane heads.

    ``heads`` holds one optional offset per lane (None = exhausted).
    Returns ``(c, advance, done)``: the shared second-stage shift, the
    per-lane advance mask, and whether every live head was consumed
    (no lane left stalled). A head advances when it lies below
    ``c + 2^L``, so every live head did when the highest one does.
    Raises :class:`AllDone` with no live lane.
    """
    heads = list(heads)
    live = [h for h in heads if h is not None]
    if not live:
        raise AllDone("no live lanes to schedule")
    c = 0 if l_bits >= 4 else min(live)
    reach = c + (1 << l_bits)
    advance = tuple(h is not None and h < reach for h in heads)
    return c, advance, max(live) < reach


@dataclass(frozen=True)
class ScheduleStep:
    common_shift: int
    advanced: tuple[int, ...]  # lane indices that consumed their head


def pip_schedule(streams, l_bits: int) -> list[ScheduleStep]:
    """Cycle-by-cycle schedule of one PIP column (16 lanes max).

    Each cycle asks :func:`two_stage_step` which lanes advance, then
    moves only those lanes' heads to their next offset, and counts down
    the live lanes. All-empty lanes still take one cycle: the
    end-of-neuron marker has to be consumed.
    """
    offsets = [s.offsets for s in streams]
    if len(offsets) > BRICK:
        raise ValueError(f"a PIP column has at most {BRICK} lanes")
    rest = [iter(o) for o in offsets]  # each lane's offsets after its head
    heads = [next(r, None) for r in rest]
    live = len(heads) - heads.count(None)
    lanes = range(len(heads))
    steps: list[ScheduleStep] = []
    while live:
        c, advance, _ = two_stage_step(heads, l_bits)
        advanced = tuple(compress(lanes, advance))
        for idx in advanced:
            heads[idx] = head = next(rest[idx], None)
            live -= head is None
        steps.append(ScheduleStep(common_shift=c, advanced=advanced))
    if not steps:
        steps.append(ScheduleStep(common_shift=0, advanced=()))
    return steps


def pip_inner(neuron_streams, synapses, l_bits: int = 4) -> tuple[int, int]:
    """Inner product of one PIP: shift-accumulate over essential bits.

    Returns ``(value, cycles)``, one cycle per :func:`pip_schedule` step.
    The value is accumulated exactly as the datapath does: per cycle,
    first-stage shifts of ``head - c``, adder tree, then the common shift
    by ``c``.
    """
    streams = list(neuron_streams)
    synapses = [int(s) for s in synapses]
    if len(streams) != len(synapses):
        raise ValueError("need one synapse per neuron stream")
    signed = [-s if stream.neg else s for stream, s in zip(streams, synapses)]
    steps = pip_schedule(streams, l_bits)
    rest = [iter(stream.offsets) for stream in streams]  # consumed in step order
    acc = 0
    for step in steps:
        first_stage = 0
        for idx in step.advanced:
            first_stage += signed[idx] << (next(rest[idx]) - step.common_shift)
        acc += first_stage << step.common_shift
    return acc, len(steps)


# --- vectorized column costs (the same scheduler on magnitude bitmasks) ---


def column_costs(masks: np.ndarray, l_bits: int) -> np.ndarray:
    """Scheduler cycle counts for batches of 16-lane magnitude masks.

    ``masks[..., lane]`` holds the essential-bit set of each lane as a
    bitmask in ``[0, 2^16)``; the returned uint8 array drops the lane
    axis. Exactly matches :func:`pip_schedule` length, vectorized: the
    shift ``c`` is the lowest set bit of the OR of the lanes' masks, and
    each iteration consumes the head (lowest set bit) of every lane
    below ``c + 2^L``. Every lane whose head is ``c`` advances, so ``c``
    rises each cycle and a brick takes at most 16 cycles.

    Raises ValueError for a mask outside ``[0, 2^16)``, which no cast
    may wrap.
    """
    masks = np.asarray(masks)
    if masks.dtype != np.uint16 and masks.size and (
        masks.min() < 0 or masks.max() >= 1 << 16
    ):
        raise ValueError("column_costs masks must lie in [0, 2^16)")
    # lane-major and C-ordered, so the OR over lanes runs along whole rows
    m = masks.reshape(-1, masks.shape[-1]).T.astype(np.uint16, order="C")
    head = np.empty_like(m)
    cycles = np.zeros(m.shape[1], dtype=np.uint8)
    reach = (1 << (1 << l_bits)) - 1  # 2^L ones; times the low bit: c .. c + 2^L - 1
    union = np.bitwise_or.reduce(m, axis=0)
    while union.any():
        cycles += union != 0
        union &= -union
        union *= reach  # wraps above bit 15, where no head lies
        np.negative(m, out=head)
        head &= m
        head &= union
        m ^= head
        np.bitwise_or.reduce(m, axis=0, out=union)
    return np.maximum(cycles, 1).reshape(masks.shape[:-1])


# --- layer lowering shared by both sync modes ---


def _layer_costs(values: np.ndarray, spec: LayerSpec, l_bits: int) -> np.ndarray:
    """Column costs arranged (pallet, brick-step, window) from the input.

    A brick's cost depends on its 16 neurons alone, so every brick of the
    input is scheduled once and its cost gathered into each window that
    reads it. Bricks of the zero border, and idle lanes past the row
    edge, cost one cycle, as an all-zero mask does.
    """
    ox, oy, _ = output_dims(spec)
    nb = -(-ox // PALLET)
    s, pad = spec.s, spec.pad
    mags = np.abs(values).astype(np.uint16).reshape(spec.ny, spec.nx, spec.i // BRICK, BRICK)
    per_brick = column_costs(mags, l_bits)
    # One more column of ones past the border stands in for idle lanes.
    per_brick = np.pad(per_brick, ((pad, pad), (pad, pad + 1), (0, 0)), constant_values=1)
    rows = (np.arange(oy) * s)[:, None] + np.arange(spec.fy)  # (wy, by)
    wx = np.arange(nb * PALLET).reshape(nb, 1, PALLET)
    cols = np.where(wx < ox, wx * s + np.arange(spec.fx)[:, None], -1)  # (nb, bx, window)
    depth = np.arange(spec.i // BRICK)[:, None]
    # (wy, nb, by, bx, d, window) -> (pallet, step, window)
    costs = per_brick[rows[:, None, :, None, None, None], cols[None, :, None, :, None, :], depth]
    return costs.reshape(oy * nb, geo.num_brick_steps(spec), PALLET).astype(np.int64)


def _sampled_streams(view: ViewLowering, filters: FilterSet):
    """The view's :func:`sampled_bricks`, each lane encoded once as its
    oneffset stream: ``(window, step, streams, synapses, dot)``."""
    return tuple(
        (window, step, tuple(encode(v) for v in neurons), synapses, dot)
        for window, step, neurons, synapses, dot in sampled_bricks(view.x, filters)
    )


def _checked_costs(view: ViewLowering, filters: FilterSet, spec: LayerSpec,
                   l_bits: int) -> np.ndarray:
    """The view's column costs ``(pallet, step, window)`` at ``l_bits``.

    A fixed sample of bricks goes through :func:`pip_inner`, whose value
    must equal the brick's dot product and whose cycles must equal the
    brick's column cost. The sample and its encoded lanes depend on the
    view alone, so the view keeps them for every ``l_bits``.
    """
    costs = _layer_costs(view.values, spec, l_bits)
    ox, _, _ = output_dims(spec)
    row_pallets = -(-ox // PALLET)
    sample = view.cached("pip_sample", lambda: _sampled_streams(view, filters))
    for window, step, streams, synapses, dot in sample:
        value, cycles = pip_inner(streams, synapses, l_bits)
        wy, wx = divmod(window, ox)
        cost = int(costs[wy * row_pallets + wx // PALLET, step, wx % PALLET])
        if (value, cycles) != (dot, cost):
            raise ScalarModelMismatch(
                f"pip_inner gives {value} in {cycles} cycles on window {window}, "
                f"brick step {step}; the lowered layer gives {dot} in {cost}"
            )
    return read_only(costs)


# --- per-column synchronization simulator ---


@dataclass
class ColumnSchedule:
    """Outcome of one column-sync pass over a filter group."""

    total_cycles: int
    sb_reads: int
    column_busy: list[int]
    start_cycles: np.ndarray | None = None  # (steps, columns) when recorded
    grants: list[tuple[int, int, int]] = field(default_factory=list)  # (t, step, col)


SCAN_WINDOW = 128  # steps per max-plus scan, so temporaries stay this size


def simulate_column_sync(
    costs: np.ndarray,
    nm_cycles: int,
    ssr_count: int | None,
    pallet_buffer: int | None,
    record: bool = False,
) -> ColumnSchedule:
    """Cycle-accurate schedule of independently advancing PIP columns.

    ``costs[g, w]`` is column ``w``'s compute cycles for global
    brick-step ``g``. Rules: a column starts step ``g`` once (1) the
    dispatcher has fetched pallet ``g`` (sequential prefetch, ``nm_cycles``
    per pallet), (2) the in-use pallet span fits the dispatcher buffer,
    and (3) step ``g``'s synapse set is in an SSR, or the single SB port
    grants it a read (lowest column index wins, one grant per cycle, a
    free SSR slot required). A set frees once all columns copied it;
    reads and copies may land in the same cycle a slot frees.

    The rules are those of a cycle-by-cycle arbiter; only the method
    differs. They pin down each set's read cycle ``R[g]`` and every
    start ``S[g, w]`` (``F = S + costs``, ``k = ssr_count``,
    ``B = pallet_buffer``)::

        R[g]    = max(R[g-1] + 1, g * nm_cycles, min_w F[g-1, w],
                      max_w F[g-1-k, w], max_w F[g-B, w])
        S[g, w] = max(F[g-1, w], R[g])

    Sets are read in step order, one per cycle; the first requester of
    set ``g`` is the column that finishes step ``g-1`` first; set
    ``g-k`` frees its slot once every column has started it, that is
    finished step ``g-1-k``; and the buffer holds pallet ``g`` once
    every column has finished step ``g-B``. Given ``R``, each column's
    starts are one max-plus prefix scan down the steps. Every term is
    nondecreasing in ``R``, so scanning from a lower bound and raising
    ``R`` to the terms again rises monotonically to the least solution,
    which is the schedule; the first step whose bound rose is exact, and
    the scan resumes there. Steps go in windows of ``SCAN_WINDOW``.

    Only ``ssr_count < 1`` or ``pallet_buffer < 1`` can stall a column
    forever, so those raise :class:`DeadlockDetected` up front. With
    ``record``, ``start_cycles`` holds ``S`` and ``grants`` names the
    column granted each read (:func:`_grants`).
    """
    costs = np.asarray(costs).astype(np.int64, copy=False)
    n_steps, n_cols = costs.shape
    busy = [int(b) for b in costs.sum(axis=0)]
    if not n_steps or not n_cols:
        return ColumnSchedule(
            total_cycles=0, sb_reads=0, column_busy=busy,
            start_cycles=np.full((n_steps, n_cols), -1, dtype=np.int64) if record else None,
        )
    if (ssr_count is not None and ssr_count < 1) or (
        pallet_buffer is not None and pallet_buffer < 1
    ):
        raise DeadlockDetected(
            f"no column can start with {ssr_count} SSRs and a buffer of {pallet_buffer}"
        )
    # No step lies n_steps behind another, so a limit of n_steps or more
    # never binds: it is the same as an unbounded one, and clamping it
    # keeps the arrays below step-sized.
    if ssr_count is not None and ssr_count >= n_steps:
        ssr_count = None
    lag = min(n_steps,
              n_steps if ssr_count is None else ssr_count + 1,
              n_steps if pallet_buffer is None else pallet_buffer)
    finish, reads, starts = _least_schedule(costs, nm_cycles, lag, record)
    return ColumnSchedule(
        total_cycles=int(finish.max()),
        sb_reads=n_steps,
        column_busy=busy,
        start_cycles=starts,
        grants=_grants(starts, reads, ssr_count) if record else [],
    )


def _least_schedule(costs: np.ndarray, nm_cycles: int, lag: int, record: bool):
    """Least ``R``/``S`` solution of the column-sync rules, window by window.

    Returns the last step's finishes, and with ``record`` the read
    cycles and the starts; else ``None`` for those two.
    """
    n_steps, n_cols = costs.shape
    # last_finish[lag + g] = max_w F[g, w]; the first lag entries stand
    # for the steps before 0, which bind nothing.
    last_finish = np.zeros(lag + n_steps, dtype=np.int64)
    reads = np.empty(n_steps, dtype=np.int64) if record else None
    starts = np.empty((n_steps, n_cols), dtype=np.int64) if record else None
    ramp = np.arange(1, SCAN_WINDOW + 1)
    finish = np.zeros(n_cols, dtype=np.int64)  # F of the last exact step
    read = -1                                  # R of the last exact step
    for w0 in range(0, n_steps, SCAN_WINDOW):
        cost = costs[w0:w0 + SCAN_WINDOW]
        size = len(cost)
        done = np.cumsum(cost, axis=0)         # each column's cost to step end
        ahead = done - cost                    # ... and to step start
        arrive = np.arange(w0, w0 + size) * nm_cycles
        bound = np.maximum(arrive, read + ramp[:size])
        j = 0                                  # steps before w0 + j are exact
        while True:
            # S = ahead + max-prefix of (R - ahead), from the last exact F
            scan = bound[j:, None] - ahead[j:]
            np.maximum(scan[0], finish - ahead[j], out=scan[0])
            np.maximum.accumulate(scan, axis=0, out=scan)
            fin = scan + done[j:]
            last_finish[lag + w0 + j:lag + w0 + size] = fin.max(axis=1)
            # R's other terms: arrival, the lagged step's last finish (SSR
            # slot or buffer) and the previous step's first finish
            want = np.maximum(arrive[j:], last_finish[w0 + j:w0 + size])
            want[0] = max(want[0], finish.min())
            np.maximum(want[1:], fin[:-1].min(axis=1), out=want[1:])
            # R[g] = max(R[g-1] + 1, want[g]) from the last exact R
            want -= ramp[:size - j]
            np.maximum(want, read, out=want)
            new = np.maximum.accumulate(want) + ramp[:size - j]
            rose = new > bound[j:]
            exact = int(rose.argmax()) if rose.any() else size - j
            if exact:
                if record:
                    reads[w0 + j:w0 + j + exact] = new[:exact]
                    starts[w0 + j:w0 + j + exact] = scan[:exact] + ahead[j:j + exact]
                finish = fin[exact - 1]
                read = int(new[exact - 1])
            j += exact
            if j == size:
                break
            bound[j:] = new[exact:]
    return finish, reads, starts


def _grants(starts: np.ndarray, reads: np.ndarray, ssr_count: int | None):
    """``(R[g], g, column)`` of each read: the arbiter's sweep, in closed form.

    Within a cycle the arbiter tries idle columns in index order and
    sweeps again while starts keep unblocking columns; a column that
    starts a 0-cost step tries its next one a sweep later. So a column
    that starts steps ``h0..g`` in cycle ``R[g]`` tries set ``g`` in
    sweep ``g - h0``, and the read goes to the first try in sweep order.
    The pallet buffer holds no try back before the read: a pallet still
    in use as the cycle begins is one that a 0-cost chain of starts
    finishes, and that chain is shorter, in sweeps, than the chain of any
    column that waits on it. So only a full set of SSRs refuses a try.
    Then the slot frees at the last copy of the oldest resident set. Every
    column that copies that set in this cycle starts there, in sweep 0,
    so the highest of them frees it; a column below it that tried first
    tries again in the next sweep.
    """
    n_steps, n_cols = starts.shape
    steps = np.arange(n_steps)[:, None]
    cols = np.arange(n_cols)
    # the first step each column starts in each read cycle
    first = np.stack([np.searchsorted(starts[:, w], reads) for w in range(n_cols)], axis=1)
    order = (steps - first) * n_cols + cols        # sweep order of every start
    tries = np.where(starts == reads[:, None], order, np.iinfo(np.int64).max)
    if ssr_count is not None and n_cols > 1:
        oldest = np.searchsorted(starts.max(axis=1), reads)  # oldest resident set
        full = np.flatnonzero(steps[:, 0] - oldest >= ssr_count)
        last_copy = np.where(starts[oldest[full]] == reads[full, None], cols, -1).max(axis=1)
        early = tries[full]
        tries[full] = np.where(early <= last_copy[:, None], early + n_cols, early)
    return list(zip(reads.tolist(), range(n_steps), tries.argmin(axis=1).tolist()))


def pragmatic_layer(
    lowered: LayerLowering, profile: Precision | None, cfg: PragConfig
) -> EngineResult:
    """Run the essential-bit engine on one layer's lowering.

    ``cfg.trim == "profile"`` reads the input trimmed to ``profile``,
    ``"none"`` the raw input. Column costs are computed once per (view,
    ``l_bits``) of the lowering.

    Pallet sync: a phase retires when its slowest column does; the next
    pallet fetch overlaps processing, so each phase occupies
    ``max(NM_C, P_C)`` cycles and ``(NM_C - P_C)+`` of that is fetch
    stall.

    Column sync: timing comes from :func:`simulate_column_sync` on the
    per-step column costs; the filter groups repeat the identical
    schedule. The SSR policy reads each synapse set exactly once per
    phase: the schedule has one read cycle per set.
    """
    spec = lowered.spec
    view = lowered.trimmed(profile) if cfg.trim == "profile" else lowered.view(None)
    costs = view.cached(
        ("costs", cfg.l_bits),
        lambda: _checked_costs(view, lowered.filters, spec, cfg.l_bits),
    )
    nm_c = lowered.nm_cycles
    n_steps = costs.shape[0] * costs.shape[1]
    if cfg.sync == "pallet":
        phase_cycles = costs.max(axis=2)  # slowest column per phase
        slots = np.maximum(phase_cycles, nm_c)
        cycles = int(slots.sum())
        stall = int((slots - phase_cycles).sum())
    else:
        sched = simulate_column_sync(
            costs.reshape(n_steps, PALLET), nm_c, cfg.ssr_count, cfg.effective_buffer
        )
        cycles = sched.total_cycles
        stall = cycles - max(sched.column_busy)

    groups = geo.filter_groups(spec)
    report = CycleReport(
        compute_cycles=groups * cycles,
        nm_fetch_cycles=groups * n_steps * nm_c,
        stall_cycles=groups * stall,
        sb_reads=sb_read_count(spec),
        total_terms=lowered.width * geo.num_pairs(spec),
        effectual_terms=view.effectual_terms,
    )
    return EngineResult(output=view.output, report=report, engine="pragmatic",
                        variant=cfg.variant_name())
