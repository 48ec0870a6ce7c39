"""The event-driven column-sync arbiter against the cycle-by-cycle reference."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bitsim.pragmatic as pragmatic
from bitsim.config import load_config
from bitsim.pragmatic import DeadlockDetected, simulate_column_sync
from bitsim.runner import simulate
from column_sync_reference import reference_column_sync

EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.json"


def cost_matrices(max_steps: int):
    return st.tuples(
        st.integers(min_value=0, max_value=max_steps),
        st.integers(min_value=1, max_value=16),
    ).flatmap(
        lambda shape: st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=shape[0] * shape[1],
            max_size=shape[0] * shape[1],
        ).map(lambda values: np.array(values, dtype=np.int64).reshape(shape))
    )


NM_CYCLES = st.integers(min_value=0, max_value=3)
SSR_COUNTS = st.none() | st.integers(min_value=1, max_value=4)
BUFFERS = st.none() | st.integers(min_value=1, max_value=6)


def assert_same_schedule(got, want):
    assert got.total_cycles == want.total_cycles
    assert got.sb_reads == want.sb_reads
    assert got.column_busy == want.column_busy
    assert got.grants == want.grants
    np.testing.assert_array_equal(got.start_cycles, want.start_cycles)


@settings(max_examples=300, deadline=None)
@given(cost_matrices(40), NM_CYCLES, SSR_COUNTS, BUFFERS)
def test_matches_reference_schedule(costs, nm_cycles, ssr_count, buffer):
    got = simulate_column_sync(costs, nm_cycles, ssr_count, buffer, record=True)
    want = reference_column_sync(costs, nm_cycles, ssr_count, buffer, record=True)
    assert_same_schedule(got, want)


def test_matches_reference_on_example_config(monkeypatch):
    seen = []

    def spy(costs, nm_cycles, ssr_count, pallet_buffer, record=False):
        seen.append((np.array(costs), nm_cycles, ssr_count, pallet_buffer))
        return simulate_column_sync(costs, nm_cycles, ssr_count, pallet_buffer, record)

    monkeypatch.setattr(pragmatic, "simulate_column_sync", spy)
    simulate(load_config(EXAMPLE))
    # two layers, each with 1, 4 and unbounded SSRs
    assert len(seen) == 6
    for costs, nm_cycles, ssr_count, buffer in seen:
        assert_same_schedule(
            simulate_column_sync(costs, nm_cycles, ssr_count, buffer, record=True),
            reference_column_sync(costs, nm_cycles, ssr_count, buffer, record=True),
        )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=2**32 - 1),
    NM_CYCLES,
    SSR_COUNTS,
    BUFFERS,
)
def test_valid_inputs_never_deadlock(n_steps, n_cols, seed, nm_cycles, ssr_count, buffer):
    # longer runs than the reference can check quickly, drawn from a seed
    costs = np.random.default_rng(seed).integers(0, 10, size=(n_steps, n_cols))
    sched = simulate_column_sync(costs, nm_cycles, ssr_count, buffer)
    assert sched.sb_reads == costs.shape[0]
    assert sched.total_cycles >= max(sched.column_busy)


@pytest.mark.parametrize("arbiter", [simulate_column_sync, reference_column_sync])
def test_zero_ssrs_deadlock(arbiter):
    costs = np.array([[1, 2], [3, 1]])
    with pytest.raises(DeadlockDetected):
        arbiter(costs, nm_cycles=1, ssr_count=0, pallet_buffer=None)
