"""Two column-sync arbiters, kept as test references.

``reference_column_sync`` is the original ``simulate_column_sync``: it
steps time one cycle at a time while any idle column is blocked and
rebuilds every column's in-use pallet after each start. It is slow but
direct. ``event_column_sync`` is the event-driven arbiter that replaced
it: it visits only the cycles where something can change, so it checks
schedules of tens of thousands of steps in about a second. The property
tests require the max-plus solver in ``bitsim.pragmatic`` to produce the
identical ``ColumnSchedule`` as both.
"""

from __future__ import annotations

import numpy as np

from bitsim.pragmatic import ColumnSchedule, DeadlockDetected


def reference_column_sync(
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
    """
    costs = np.asarray(costs)
    n_steps, n_cols = costs.shape
    buffer = pallet_buffer

    frontier = [0] * n_cols          # next step each column will start
    busy_until = [0] * n_cols
    resident: dict[int, int] = {}    # step -> copies remaining
    slots_used = 0
    sb_reads = 0
    grants: list[tuple[int, int, int]] = []
    starts = np.full((n_steps, n_cols), -1, dtype=np.int64) if record else None

    def avail(g: int) -> int:
        return g * nm_cycles  # pallet 0 overlaps startup, as in pallet sync

    def current_pallet(w: int, t: int) -> int | None:
        if frontier[w] >= n_steps and busy_until[w] <= t:
            return None  # done column holds nothing
        return frontier[w] - 1 if busy_until[w] > t else frontier[w]

    t = 0
    guard = 0
    limit = int(costs.sum()) + (n_steps + 1) * (nm_cycles + n_cols + 2) + 64
    while True:
        progressed = True
        granted_this_cycle = False
        while progressed:
            progressed = False
            in_use = [p for w in range(n_cols) if (p := current_pallet(w, t)) is not None]
            oldest = min(in_use) if in_use else None
            for w in range(n_cols):
                g = frontier[w]
                if g >= n_steps or busy_until[w] > t:
                    continue
                if avail(g) > t:
                    continue
                if buffer is not None and oldest is not None and g - oldest + 1 > buffer:
                    continue
                if g in resident:
                    resident[g] -= 1
                    if resident[g] == 0:
                        del resident[g]
                        slots_used -= 1
                elif not granted_this_cycle and (
                    ssr_count is None or slots_used < ssr_count
                ):
                    granted_this_cycle = True
                    sb_reads += 1
                    grants.append((t, g, w))
                    if n_cols > 1:
                        resident[g] = n_cols - 1
                        slots_used += 1
                else:
                    continue  # blocked on SB port or SSR slots this cycle
                busy_until[w] = t + int(costs[g, w])
                frontier[w] = g + 1
                if record:
                    starts[g, w] = t
                progressed = True
                in_use = [
                    p for w2 in range(n_cols) if (p := current_pallet(w2, t)) is not None
                ]
                oldest = min(in_use) if in_use else None

        if all(f >= n_steps for f in frontier) and all(b <= t for b in busy_until):
            break

        candidates = [b for b in busy_until if b > t]
        for w in range(n_cols):
            if frontier[w] < n_steps and busy_until[w] <= t:
                candidates.append(max(t + 1, avail(frontier[w])))
        if not candidates:
            raise DeadlockDetected("no runnable column and no pending event")
        t = min(candidates)
        guard += 1
        if guard > limit:
            raise DeadlockDetected(f"no completion within {limit} events")

    return ColumnSchedule(
        total_cycles=max(busy_until) if busy_until else 0,
        sb_reads=sb_reads,
        column_busy=[int(costs[:, w].sum()) for w in range(n_cols)],
        start_cycles=starts,
        grants=grants,
    )


def event_column_sync(
    costs: np.ndarray,
    nm_cycles: int,
    ssr_count: int | None,
    pallet_buffer: int | None,
    record: bool = False,
) -> ColumnSchedule:
    """The same arbitration as :func:`reference_column_sync`, event by event.

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
