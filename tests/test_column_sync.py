"""The max-plus column-sync solver against the two arbiter references."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bitsim.pragmatic as pragmatic
from bitsim.config import load_config
from bitsim.geometry import FilterSet, LayerSpec
from bitsim.numerics import Precision
from bitsim.pragmatic import DeadlockDetected, PragConfig, pragmatic_layer, simulate_column_sync
from bitsim.reference import LayerLowering
from bitsim.runner import simulate
from bitsim.traces import generate_synapses, generate_trace
from column_sync_reference import event_column_sync, reference_column_sync

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


def spy_on_column_sync(monkeypatch) -> list:
    """Record the arguments of every column-sync call the engine makes."""
    seen = []

    def spy(costs, nm_cycles, ssr_count, pallet_buffer, record=False):
        seen.append((np.array(costs), nm_cycles, ssr_count, pallet_buffer))
        return simulate_column_sync(costs, nm_cycles, ssr_count, pallet_buffer, record)

    monkeypatch.setattr(pragmatic, "simulate_column_sync", spy)
    return seen


def test_matches_reference_on_example_config(monkeypatch):
    seen = spy_on_column_sync(monkeypatch)
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
    assert_same_schedule(
        simulate_column_sync(costs, nm_cycles, ssr_count, buffer, record=True),
        event_column_sync(costs, nm_cycles, ssr_count, buffer, record=True),
    )


def test_matches_event_reference_on_a_whole_vgg_conv3_1_view(monkeypatch):
    # VGG-16 conv3_1 whole: 56 x 56 x 128, so 16,128 steps of 16 columns
    spec = LayerSpec(nx=56, ny=56, i=128, n=256, fx=3, fy=3, s=1, pad=1, act="relu")
    lowered = LayerLowering(generate_trace(spec, 900.0, True, seed=1),
                            FilterSet(generate_synapses(spec, 10.0, seed=1)), spec)
    seen = spy_on_column_sync(monkeypatch)
    for ssr_count in (1, 4, None):
        pragmatic_layer(lowered, Precision(9, 0),
                        PragConfig(l_bits=2, sync="column", ssr_count=ssr_count))
    assert [(c.shape, s) for c, _, s, _ in seen] == [((16128, 16), s) for s in (1, 4, None)]
    for costs, nm_cycles, ssr_count, buffer in seen:
        assert_same_schedule(
            simulate_column_sync(costs, nm_cycles, ssr_count, buffer, record=True),
            event_column_sync(costs, nm_cycles, ssr_count, buffer, record=True),
        )


@pytest.mark.parametrize("ssr_count", [1, None])
def test_narrow_costs_are_widened_a_window_at_a_time(ssr_count):
    # a view keeps its column costs in uint8; the solver takes less
    # memory than an int64 copy of them, and schedules them as that copy
    costs = np.random.default_rng(4).integers(0, 40, size=(20000, 16)).astype(np.uint8)
    wide = costs.astype(np.int64)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_column_sync(costs, 2, ssr_count, None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < wide.nbytes
    assert_same_schedule(simulate_column_sync(costs, 2, ssr_count, None, record=True),
                         simulate_column_sync(wide, 2, ssr_count, None, record=True))


@pytest.mark.parametrize("limit", [60, 10**18, 2**63, 10**30])
def test_limits_past_the_steps_are_unbounded(limit):
    # no step lies 60 behind another, so these limits never bind; they
    # must not size any array either
    costs = np.random.default_rng(3).integers(0, 10, size=(60, 5))
    unbounded = simulate_column_sync(costs, 2, None, None, record=True)
    assert_same_schedule(unbounded, event_column_sync(costs, 2, None, None, record=True))
    for ssr_count, buffer in ((limit, limit), (limit, None), (None, limit)):
        assert_same_schedule(
            simulate_column_sync(costs, 2, ssr_count, buffer, record=True), unbounded
        )
        assert_same_schedule(
            event_column_sync(costs, 2, ssr_count, buffer, record=True), unbounded
        )


@pytest.mark.parametrize("arbiter", [simulate_column_sync, reference_column_sync])
def test_zero_ssrs_deadlock(arbiter):
    costs = np.array([[1, 2], [3, 1]])
    with pytest.raises(DeadlockDetected):
        arbiter(costs, nm_cycles=1, ssr_count=0, pallet_buffer=None)


@pytest.mark.parametrize(
    "arbiter", [simulate_column_sync, event_column_sync, reference_column_sync]
)
@pytest.mark.parametrize("ssr_count", [1, None])
def test_zero_buffer_deadlock(arbiter, ssr_count):
    costs = np.array([[1, 2], [3, 1]])
    with pytest.raises(DeadlockDetected):
        arbiter(costs, nm_cycles=1, ssr_count=ssr_count, pallet_buffer=0)


def test_no_steps_schedule_nothing():
    # nothing to start, so no limit can deadlock
    for ssr_count, buffer in ((0, None), (1, 0), (None, None)):
        for arbiter in (simulate_column_sync, event_column_sync, reference_column_sync):
            sched = arbiter(np.zeros((0, 3), dtype=np.int64), 1, ssr_count, buffer,
                            record=True)
            assert (sched.total_cycles, sched.sb_reads, sched.grants) == (0, 0, [])
            assert sched.start_cycles.shape == (0, 3)
