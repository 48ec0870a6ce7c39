"""Essential-bit-serial engine: PIP units, two-stage shift scheduling,
pallet- and per-column synchronization, and the dispatcher fetch model.

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

import numpy as np

from . import geometry as geo
from .encoding import encode
from .geometry import BRICK, PALLET, FilterSet, LayerSpec, output_dims
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
    """Column-sync arbitration stopped making progress (must never fire)."""


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
        tag += "-raw" if self.trim == "none" else "-red"
        return tag


def two_stage_step(heads, l_bits: int):
    """One scheduling decision over the current lane heads.

    ``heads`` holds one optional offset per lane (None = exhausted).
    Returns ``(c, advance, done)``: the shared second-stage shift, the
    per-lane advance mask, and whether every live head was consumed
    (no lane left stalled). Raises :class:`AllDone` with no live lane.
    """
    heads = list(heads)
    live = [h for h in heads if h is not None]
    if not live:
        raise AllDone("no live lanes to schedule")
    c = 0 if l_bits >= 4 else min(live)
    span = 1 << l_bits
    advance = tuple(h is not None and h - c < span for h in heads)
    done = all(h is None or adv for h, adv in zip(heads, advance))
    return c, advance, done


@dataclass(frozen=True)
class ScheduleStep:
    common_shift: int
    advanced: tuple[int, ...]  # lane indices that consumed their head


def pip_schedule(streams, l_bits: int) -> list[ScheduleStep]:
    """Cycle-by-cycle schedule of one PIP column (16 lanes max).

    All-empty lanes still take one cycle: the end-of-neuron marker has to
    be consumed.
    """
    offsets = [s.offsets for s in streams]
    if len(offsets) > BRICK:
        raise ValueError(f"a PIP column has at most {BRICK} lanes")
    pos = [0] * len(offsets)  # each lane's next offset
    steps: list[ScheduleStep] = []
    while any(p < len(o) for p, o in zip(pos, offsets)):
        heads = [o[p] if p < len(o) else None for p, o in zip(pos, offsets)]
        c, advance, _ = two_stage_step(heads, l_bits)
        advanced = tuple(idx for idx, adv in enumerate(advance) if adv)
        for idx in advanced:
            pos[idx] += 1
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
    pos = [0] * len(streams)  # each lane's next offset
    acc = 0
    for step in steps:
        first_stage = 0
        for idx in step.advanced:
            f = streams[idx].offsets[pos[idx]]
            pos[idx] += 1
            first_stage += signed[idx] << (f - step.common_shift)
        acc += first_stage << step.common_shift
    return acc, len(steps)


# --- vectorized column costs (the same scheduler on magnitude bitmasks) ---

_LOWBIT = np.full(1 << 16, 64, dtype=np.int64)
for _k in range(16):
    _LOWBIT[1 << _k] = _k


def column_costs(masks: np.ndarray, l_bits: int) -> np.ndarray:
    """Scheduler cycle counts for batches of 16-lane magnitude masks.

    ``masks[..., lane]`` holds the essential-bit set of each lane as a
    bitmask; the returned array drops the lane axis. Exactly matches
    :func:`pip_schedule` length, vectorized: each iteration consumes the
    head (lowest set bit) of every lane within first-stage reach of the
    batch minimum.
    """
    m = np.asarray(masks, dtype=np.int64).copy()
    cycles = np.zeros(m.shape[:-1], dtype=np.int64)
    span = 1 << l_bits
    while True:
        live = m != 0
        active = live.any(axis=-1)
        if not active.any():
            break
        heads = _LOWBIT[m & -m]
        c = heads.min(axis=-1)
        adv = live & ((heads - c[..., None]) < span)
        m = np.where(adv, m & (m - 1), m)
        cycles += active
    return np.maximum(cycles, 1)


# --- dispatcher: neuron memory mapping and fetch cost ---


def _nm_row(spec: LayerSpec, x: int, y: int, i0: int) -> int:
    """NM row of a brick, one row holding 256 neurons (16 bricks).

    Bricks are laid out (y, i0, x) with x fastest, so a pallet's 16
    stride-adjacent bricks are s bricks apart regardless of the layer
    depth: unit-stride pallets land on one row (two when straddling a
    boundary) and stride-s pallets spread over at most min(s+1, 16)
    rows. Bricks never span a row.
    """
    depth_slices = spec.i // BRICK
    addr = (y * depth_slices + i0 // BRICK) * spec.nx + x
    return addr // PALLET


def pallet_fetch_rows(
    spec: LayerSpec, base_wx: int, wy: int, bx: int, by: int, i0: int
) -> int:
    """Distinct NM rows one pallet fetch touches (0 if all-padding)."""
    ox, _, _ = output_dims(spec)
    y = wy * spec.s + by - spec.pad
    if not 0 <= y < spec.ny:
        return 0
    rows = set()
    for w in range(PALLET):
        wx = base_wx + w
        if wx >= ox:
            continue
        x = wx * spec.s + bx - spec.pad
        if 0 <= x < spec.nx:
            rows.add(_nm_row(spec, x, y, i0))
    return len(rows)


def dispatcher_fetch_cycles(spec: LayerSpec) -> int:
    """Per-layer pallet fetch cost ``NM_C`` (one row read per cycle).

    Derived from the actual memory mapping: the worst pallet of the
    layer. With unit stride this is 1 when the 16 bricks share a row and
    2 when they straddle a boundary; with stride S the bricks spread over
    up to min(S+1, 16) rows.
    """
    worst = 1
    for base_wx, wy in geo.pallet_bases(spec):
        for by, bx, i0 in geo.brick_steps(spec):
            worst = max(worst, pallet_fetch_rows(spec, base_wx, wy, bx, by, i0))
            if worst >= min(spec.s + 1, PALLET):
                return worst  # already at the mapping's ceiling
    return worst


def fetch_cycles(lowered: LayerLowering) -> int:
    """:func:`dispatcher_fetch_cycles` of the layer, once per shared lowering."""
    return lowered.cached("fetch", lambda: dispatcher_fetch_cycles(lowered.spec))


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
    mags = np.abs(values).reshape(spec.ny, spec.nx, spec.i // BRICK, BRICK)
    per_brick = column_costs(mags, l_bits)
    # One more column of ones past the border stands in for idle lanes.
    per_brick = np.pad(per_brick, ((pad, pad), (pad, pad + 1), (0, 0)), constant_values=1)
    rows = (np.arange(oy) * s)[:, None] + np.arange(spec.fy)  # (wy, by)
    wx = np.arange(nb * PALLET).reshape(nb, 1, PALLET)
    cols = np.where(wx < ox, wx * s + np.arange(spec.fx)[:, None], -1)  # (nb, bx, window)
    depth = np.arange(spec.i // BRICK)[:, None]
    # (wy, nb, by, bx, d, window) -> (pallet, step, window)
    costs = per_brick[rows[:, None, :, None, None, None], cols[None, :, None, :, None, :], depth]
    return costs.reshape(oy * nb, geo.num_brick_steps(spec), PALLET)


def _checked_costs(view: ViewLowering, filters: FilterSet, spec: LayerSpec,
                   l_bits: int) -> np.ndarray:
    """The view's column costs ``(pallet, step, window)`` at ``l_bits``.

    A fixed sample of bricks goes through :func:`pip_inner`, whose value
    must equal the brick's dot product and whose cycles must equal the
    brick's column cost.
    """
    costs = _layer_costs(view.values, spec, l_bits)
    ox, _, _ = output_dims(spec)
    row_pallets = -(-ox // PALLET)
    for window, step, neurons, synapses, dot in sampled_bricks(view.x, filters):
        value, cycles = pip_inner([encode(v) for v in neurons], synapses, l_bits)
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


def simulate_column_sync(
    costs: np.ndarray,
    nm_cycles: int,
    ssr_count: int | None,
    pallet_buffer: int | None,
    record: bool = False,
) -> ColumnSchedule:
    """Cycle-accurate arbitration of independently advancing PIP columns.

    ``costs[g, w]`` is column ``w``'s compute cycles for global
    brick-step ``g``. Rules: a column starts step ``g`` once (1) the
    dispatcher has fetched pallet ``g`` (sequential prefetch, ``nm_cycles``
    per pallet), (2) the in-use pallet span fits the dispatcher buffer,
    and (3) step ``g``'s synapse set is in an SSR, or the single SB port
    grants it a read (lowest column index wins, one grant per cycle, a
    free SSR slot required). A set frees once all columns copied it;
    reads and copies may land in the same cycle a slot frees.

    Within a cycle, idle columns are tried in index order, and the sweep
    repeats while starts keep unblocking columns. The arbiter is
    event-driven: a blocked column waits on the one event that can lift
    its block (its pallet's arrival, a rise of the oldest in-use pallet,
    a freed SSR slot, or the next cycle's SB port), and only cycles with
    a finish, an arrival or a fresh SB port after a grant are visited.
    A start of cost >= 1 leaves the starter's in-use pallet unchanged,
    so only finishes and 0-cost starts move the oldest one.
    """
    costs = np.asarray(costs)
    n_steps, n_cols = costs.shape
    rows = costs.astype(np.int64, copy=False).tolist()  # whole cycles
    # Unbounded limits become ones that never bind: no column runs
    # n_steps ahead of the oldest pallet, and a step that is not resident
    # leaves fewer than n_steps sets resident.
    buffer = n_steps if pallet_buffer is None else pallet_buffer
    slots = n_steps if ssr_count is None else ssr_count

    frontier = [0] * n_cols          # next step each column will start
    busy_until = [0] * n_cols
    copies_left = [0] * n_steps      # resident set -> copies still to make
    slots_used = 0
    sb_reads = 0
    grants: list[tuple[int, int, int]] = []
    starts = np.full((n_steps, n_cols), -1, dtype=np.int64) if record else None

    # The oldest in-use pallet is the lowest step that some column has not
    # finished; the -1 after the last step stops the scan for it.
    finished = [0] * n_steps + [-1]
    oldest = 0

    # Column sets are bitmasks over column indices. ``ready`` columns are
    # tried at the next sweep; every other idle column waits on one event.
    ready = (1 << n_cols) - 1 if n_steps else 0
    port_wait = 0                    # lost the SB port: retry next cycle
    ssr_wait = 0                     # every SSR slot held: retry on a free
    buffer_wait: dict[int, int] = {}  # retry once oldest reaches the key
    due: dict[int, list[int]] = {}   # cycle -> columns finishing or fed then

    t = 0
    while True:
        for w in due.pop(t, ()):
            if busy_until[w] == t:   # a finish; else the column's pallet arrived
                g = frontier[w]
                finished[g - 1] += 1
                if g == n_steps:
                    continue
            ready |= 1 << w
        while finished[oldest] == n_cols:
            oldest += 1
            ready |= buffer_wait.pop(oldest, 0)
        reach = oldest + buffer      # the buffer holds pallets oldest..reach-1

        granted = False
        while ready:
            pending, ready = ready, 0
            while pending:
                bit = pending & -pending
                pending ^= bit
                w = bit.bit_length() - 1
                g = frontier[w]
                # pallet g arrives at g * nm_cycles; pallet 0 overlaps
                # startup, as in pallet sync
                if g * nm_cycles > t:
                    due.setdefault(g * nm_cycles, []).append(w)
                    continue
                if g >= reach:
                    key = g - buffer + 1
                    buffer_wait[key] = buffer_wait.get(key, 0) | bit
                    continue
                left = copies_left[g]
                if left:
                    copies_left[g] = left - 1
                    if left == 1:    # the set frees its SSR slot
                        slots_used -= 1
                        # later columns join this sweep, earlier ones the next
                        pending |= ssr_wait & -(bit << 1)
                        ready |= ssr_wait & (bit - 1)
                        ssr_wait = 0
                elif granted:
                    port_wait |= bit
                    continue
                elif slots_used >= slots:
                    ssr_wait |= bit
                    continue
                else:
                    granted = True
                    sb_reads += 1
                    grants.append((t, g, w))
                    if n_cols > 1:
                        copies_left[g] = n_cols - 1
                        slots_used += 1
                end = t + rows[g][w]
                busy_until[w] = end
                frontier[w] = g + 1
                if record:
                    starts[g, w] = t
                if end > t:
                    due.setdefault(end, []).append(w)
                    continue
                # a 0-cost start finishes at once, idle on the next step
                finished[g] += 1
                if g + 1 < n_steps:
                    ready |= bit
                while finished[oldest] == n_cols:
                    oldest += 1
                    reach = oldest + buffer
                    woken = buffer_wait.pop(oldest, 0)
                    pending |= woken & -(bit << 1)
                    ready |= woken & (bit - 1)

        if granted:
            t += 1
            ready, port_wait = port_wait, 0
        elif due:
            t = min(due)
        elif any(g < n_steps for g in frontier):
            raise DeadlockDetected("no runnable column and no pending event")
        else:
            break

    return ColumnSchedule(
        total_cycles=max(busy_until) if busy_until else 0,
        sb_reads=sb_reads,
        column_busy=[int(costs[:, w].sum()) for w in range(n_cols)],
        start_cycles=starts,
        grants=grants,
    )


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
    phase, which the simulation cross-checks against the shared SB-read
    count.
    """
    spec = lowered.spec
    view = lowered.trimmed(profile) if cfg.trim == "profile" else lowered.view(None)
    costs = view.cached(
        ("costs", cfg.l_bits),
        lambda: _checked_costs(view, lowered.filters, spec, cfg.l_bits),
    )
    nm_c = fetch_cycles(lowered)
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
        if sched.sb_reads != n_steps:
            raise AssertionError(
                f"SSR policy must read each set once: {sched.sb_reads} != {n_steps}"
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
