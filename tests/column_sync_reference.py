"""Cycle-by-cycle column-sync arbiter, kept as the test reference.

This is the original ``simulate_column_sync``: it steps time one cycle at
a time while any idle column is blocked and rebuilds every column's
in-use pallet after each start. It is slow but direct, and the property
tests require the event-driven arbiter in ``bitsim.pragmatic`` to
produce the identical ``ColumnSchedule``.
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
