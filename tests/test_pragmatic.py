import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bitsim.pragmatic as pragmatic
from bitsim.encoding import OneffsetStream, encode
from bitsim.geometry import FilterSet, LayerSpec, Tensor3
from bitsim.numerics import MissingProfile, Precision, trim_tensor
from bitsim.pragmatic import (
    AllDone,
    PragConfig,
    column_costs,
    dispatcher_fetch_cycles,
    pip_inner,
    pip_schedule,
    pragmatic_layer,
    simulate_column_sync,
    two_stage_step,
)
from bitsim.reference import (
    LayerLowering,
    ScalarModelMismatch,
    conv_oracle,
    dadn_cycles,
    sb_read_count,
)
from bitsim.stripes import stripes_layer
from bricks import pallet_fetch_rows, pallet_phase_cycles, walked_fetch_cycles
from scalar_forms import first_pip_inner, rebuilt_heads_schedule


class TestTwoStageStep:
    def test_low_heads_advance_high_stalls(self):
        c, advance = two_stage_step([1, 0, 4], l_bits=2)
        assert c == 0
        assert advance == (True, True, False)  # 4 - 0 >= 2^2 stalls

    def test_minimum_subtraction(self):
        c, advance = two_stage_step([6, 7, 4], l_bits=2)
        assert c == 4
        # first-stage shifts are head - c: (2, 3, 0), all below 2^2
        assert advance == (True, True, True)

    def test_single_stage_always_advances(self):
        c, advance = two_stage_step([15, 0, 7, None], l_bits=4)
        assert c == 0
        assert advance == (True, True, True, False)

    def test_all_done_raises(self):
        with pytest.raises(AllDone):
            two_stage_step([None, None], l_bits=2)

    @given(st.lists(st.one_of(st.none(), st.integers(0, 15)), min_size=1, max_size=16)
           .filter(lambda heads: any(h is not None for h in heads)),
           st.integers(0, 4))
    def test_advance_is_every_live_head_below_reach(self, heads, l_bits):
        c, advance = two_stage_step(heads, l_bits)
        assert c == (0 if l_bits == 4 else min(h for h in heads if h is not None))
        assert advance == tuple(h is not None and h < c + (1 << l_bits) for h in heads)


# one lane's essential bits: none, or any ascending offsets in [0, 16)
LANE_STREAMS = st.one_of(
    st.just(OneffsetStream(())),
    st.sets(st.integers(0, 15)).map(lambda bits: OneffsetStream(tuple(sorted(bits)))),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(LANE_STREAMS, max_size=16), st.integers(0, 4))
def test_pip_schedule_equals_the_rebuilt_heads_loop(streams, l_bits):
    assert pip_schedule(streams, l_bits) == rebuilt_heads_schedule(streams, l_bits)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(LANE_STREAMS, st.booleans(), st.integers(-(1 << 15), 1 << 15)),
                max_size=16),
       st.integers(0, 4))
def test_pip_inner_equals_the_schedule_then_accumulate_form(lanes, l_bits):
    # one loop schedules and accumulates; the first form walked the
    # offsets again after the whole schedule
    streams = [OneffsetStream(s.offsets, neg) for s, neg, _ in lanes]
    synapses = [w for _, _, w in lanes]
    assert pip_inner(streams, synapses, l_bits) == first_pip_inner(streams, synapses, l_bits)


@pytest.mark.parametrize("stuck_after", [0, 1, 2])
def test_pip_schedule_refuses_a_rule_that_advances_no_lane(monkeypatch, stuck_after):
    # a rule that stops advancing lanes, at once or after some valid
    # cycles, must end the schedule with a mismatch, not loop forever
    calls = []

    def stuck(heads, l_bits):
        calls.append(heads)
        c, advance = two_stage_step(heads, l_bits)
        if len(calls) > stuck_after:
            advance = (False,) * len(advance)
        return c, advance

    monkeypatch.setattr(pragmatic, "two_stage_step", stuck)
    streams = [encode(0b1011_0001), encode(0), encode(0b100_0000_0000)]
    with pytest.raises(ScalarModelMismatch, match="advances no lane"):
        pip_schedule(streams, l_bits=1)
    assert len(calls) == stuck_after + 1


class TestPipInner:
    def test_schedule_of_three_nine_bit_pairs(self):
        # lanes with offsets {1,6,8}, {0,7}, {4,7,8}: heads (1,0,4) then (6,7,4)
        streams = [OneffsetStream((1, 6, 8)), OneffsetStream((0, 7)),
                   OneffsetStream((4, 7, 8))]
        sched = pip_schedule(streams, l_bits=2)
        assert [s.common_shift for s in sched] == [0, 4, 7, 8]
        assert len(sched) == 4  # finishes in cycle 4
        assert sched[0].advanced == (0, 1)  # third lane stalled in cycle 1

    def test_value_of_fig_style_instance(self):
        streams = [OneffsetStream((1, 6, 8)), OneffsetStream((0, 7)),
                   OneffsetStream((4, 7, 8))]
        synapses = [11, -7, 3]
        value, cycles = pip_inner(streams, synapses, l_bits=2)
        direct = sum(s.value() * w for s, w in zip(streams, synapses))
        assert (value, cycles) == (direct, 4)

    def test_all_zero_single_slot(self):
        streams = [encode(0)] * 16
        value, cycles = pip_inner(streams, [7] * 16, l_bits=2)
        assert (value, cycles) == (0, 1)

    @pytest.mark.parametrize("l_bits", range(5))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs_equal_direct_dot(self, l_bits, seed):
        rng = np.random.default_rng(seed)
        neurons = rng.integers(-(1 << 15), 1 << 16, size=16)
        synapses = rng.integers(-(1 << 15), 1 << 15, size=16)
        streams = [encode(int(v)) for v in neurons]
        value, cycles = pip_inner(streams, synapses, l_bits)
        assert value == int(np.dot(neurons.astype(object), synapses.astype(object)))
        assert cycles >= max(1, max(len(s.offsets) for s in streams) if streams else 1)

    @pytest.mark.parametrize("synapse", [2.5, np.float64(2.0), "2"])
    def test_a_synapse_that_is_not_an_integer_is_refused(self, synapse):
        # a cast read 2.5 as 2: the product of 3 and 2.5 came out 6
        with pytest.raises(TypeError):
            pip_inner([encode(3)], [synapse], 2)

    def test_numpy_integer_synapses_give_the_same_product(self):
        streams = [encode(v) for v in (3, -5, 0)]
        assert pip_inner(streams, np.array([7, 2, 9], dtype=np.int64), 2) == pip_inner(
            streams, [7, 2, 9], 2) == (11, 2)

    def test_single_stage_cycles_are_max_stream_length(self):
        streams = [encode(v) for v in (0xFF, 0x0F, 0, 1)]
        _, cycles = pip_inner(streams, [1, 1, 1, 1], l_bits=4)
        assert cycles == 8


class TestPalletPhaseCycles:
    def test_all_zero_pallet(self):
        streams = [encode(0)] * 256
        assert pallet_phase_cycles(streams, l_bits=4) == 1

    def test_single_busy_neuron_dominates(self):
        streams = [encode(0)] * 256
        streams[37] = encode(0xFF)  # 8 essential bits
        assert pallet_phase_cycles(streams, l_bits=4) == 8

    def test_uniform_single_bit(self):
        streams = [encode(0b1000)] * 256
        assert pallet_phase_cycles(streams, l_bits=4) == 1

    def test_matches_max_essential_count_at_l4(self):
        rng = np.random.default_rng(1)
        vals = rng.integers(0, 1 << 16, size=256)
        streams = [encode(int(v)) for v in vals]
        expect = max(1, max(bin(v).count("1") for v in vals.tolist()))
        assert pallet_phase_cycles(streams, l_bits=4) == expect

    @pytest.mark.parametrize("l_bits", range(5))
    def test_vectorized_costs_match_unit_scheduler(self, l_bits):
        rng = np.random.default_rng(2 + l_bits)
        vals = rng.integers(-(1 << 15), 1 << 16, size=(40, 16))
        masks = np.abs(vals.astype(np.int64)) & 0xFFFF
        vec = column_costs(masks, l_bits)
        for row, mask_row in zip(vals, masks):
            streams = [encode(int(v)) for v in row]
            assert len(pip_schedule(streams, l_bits)) == vec[
                np.flatnonzero((masks == mask_row).all(axis=1))[0]
            ]


class TestDispatcherFetch:
    def test_unit_stride_aligned_single_row(self):
        # nx=16, i=16, 1x1 filter: every pallet sits in one NM row
        spec = LayerSpec(nx=16, ny=4, i=16, n=1, fx=1, fy=1, s=1)
        assert dispatcher_fetch_cycles(spec) == 1

    def test_unit_stride_misaligned_two_rows(self):
        # nx=18 with 3x3 filters shifts pallet starts off row boundaries
        spec = LayerSpec(nx=18, ny=4, i=16, n=1, fx=3, fy=3, s=1)
        assert dispatcher_fetch_cycles(spec) == 2

    def test_stride_four_spreads_over_five_rows(self):
        # ox=16; window rows hit start addresses off 16-brick alignment
        spec = LayerSpec(nx=62, ny=9, i=16, n=1, fx=2, fy=1, s=4)
        assert dispatcher_fetch_cycles(spec) == 5
        # independent check of one known-misaligned fetch: wy=1 -> y=4,
        # start address 4*62 = 248 = 15*16+8, bricks every 4 -> rows 15..19
        assert pallet_fetch_rows(spec, 0, 1, 0, 0, 0) == 5

    def test_never_exceeds_sixteen(self):
        spec = LayerSpec(nx=241, ny=1, i=16, n=1, fx=1, fy=1, s=16)
        assert dispatcher_fetch_cycles(spec) <= 16


@st.composite
def fetch_geometries(draw):
    """Valid layers built from their output size: the input is as wide as
    ``ox`` windows of stride ``s`` need, less the padding. Strides above
    16 put every brick of a fetch in a row of its own."""
    ox, oy = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    s = draw(st.integers(1, 20) | st.integers(17, 300))
    fx, fy = draw(st.integers(1, 11)), draw(st.integers(1, 3))
    pad = draw(st.integers(0, min(5, ((ox - 1) * s + fx - 1) // 2,
                                  ((oy - 1) * s + fy - 1) // 2)))
    return LayerSpec(nx=(ox - 1) * s + fx - 2 * pad, ny=(oy - 1) * s + fy - 2 * pad,
                     i=16 * draw(st.integers(1, 5)), n=1, fx=fx, fy=fy, s=s, pad=pad)


@settings(max_examples=300, deadline=None)
@given(fetch_geometries())
def test_fetch_cost_closed_form_equals_the_pallet_walk(spec):
    assert dispatcher_fetch_cycles(spec) == walked_fetch_cycles(spec)


def layer_fixture(seed, neg=False, **overrides):
    kw = dict(nx=18, ny=4, i=16, n=16, fx=3, fy=3, s=1, pad=0, act="identity")
    kw.update(overrides)
    spec = LayerSpec(**kw)
    rng = np.random.default_rng(seed)
    lo = -900 if neg else 0
    t = Tensor3(rng.integers(lo, 900, size=(spec.ny, spec.nx, spec.i)))
    f = FilterSet(rng.integers(-12, 12, size=(spec.n, spec.fy, spec.fx, spec.i)))
    return spec, t, f


class TestPalletSyncLayer:
    def test_worst_case_equals_baseline(self):
        spec = LayerSpec(nx=18, ny=4, i=16, n=16, fx=3, fy=3)  # ox = 16
        t = Tensor3(np.full((4, 18, 16), 0xFFFF))
        rng = np.random.default_rng(0)
        f = FilterSet(rng.integers(-9, 9, size=(16, 3, 3, 16)))
        for l_bits in range(5):
            cfg = PragConfig(l_bits=l_bits, sync="pallet", trim="none")
            res = pragmatic_layer(LayerLowering(t, f, spec), None, cfg)
            assert res.report.compute_cycles == dadn_cycles(spec)
            assert res.output == conv_oracle(t, f, spec)

    def test_worked_example_two_cycle_phases(self):
        # every neuron = 10001b (2 essential bits), 5-bit window, aligned rows
        spec = LayerSpec(nx=16, ny=4, i=16, n=8, fx=1, fy=1)
        t = Tensor3(np.full((4, 16, 16), 0b10001))
        rng = np.random.default_rng(1)
        f = FilterSet(rng.integers(-9, 9, size=(8, 1, 1, 16)))
        profile = Precision(4, 0)
        phases = 4  # one pallet per row, one brick step
        prag = pragmatic_layer(LayerLowering(t, f, spec), profile, PragConfig(l_bits=4))
        assert prag.report.compute_cycles == 2 * phases
        stri = stripes_layer(LayerLowering(t, f, spec), profile)
        assert stri.report.compute_cycles == 5 * phases

    def test_requires_profile_in_trim_mode(self):
        spec, t, f = layer_fixture(2)
        with pytest.raises(MissingProfile):
            pragmatic_layer(LayerLowering(t, f, spec), None, PragConfig(trim="profile"))

    @pytest.mark.parametrize("l_bits", range(5))
    def test_oracle_equivalence_every_l(self, l_bits):
        spec, t, f = layer_fixture(3, neg=True, pad=1)
        profile = Precision(8, 1)
        cfg = PragConfig(l_bits=l_bits, sync="pallet")
        res = pragmatic_layer(LayerLowering(t, f, spec), profile, cfg)
        trimmed = Tensor3(trim_tensor(t.data, profile))
        assert res.output == conv_oracle(trimmed, f, spec)

    def test_stall_accounting(self):
        # stride 3, tiny p: fetch dominates -> stalls appear
        spec = LayerSpec(nx=47, ny=4, i=16, n=4, fx=2, fy=1, s=3)
        rng = np.random.default_rng(4)
        t = Tensor3(rng.integers(0, 2, size=(4, 47, 16)))  # 1-bit values
        f = FilterSet(rng.integers(-9, 9, size=(4, 1, 2, 16)))
        cfg = PragConfig(l_bits=4, sync="pallet")
        res = pragmatic_layer(LayerLowering(t, f, spec), Precision(0, 0), cfg)
        nm = dispatcher_fetch_cycles(spec)
        assert nm > 1
        assert res.report.stall_cycles > 0
        assert res.report.compute_cycles >= res.report.stall_cycles


class TestColumnSyncLayer:
    def test_identical_columns_match_pallet_sync(self):
        spec = LayerSpec(nx=16, ny=4, i=16, n=8, fx=1, fy=1)
        t = Tensor3(np.full((4, 16, 16), 0b1011))
        rng = np.random.default_rng(5)
        f = FilterSet(rng.integers(-9, 9, size=(8, 1, 1, 16)))
        p = Precision(7, 0)
        col = pragmatic_layer(
            LayerLowering(t, f, spec), p, PragConfig(sync="column", ssr_count=1)
        )
        pal = pragmatic_layer(LayerLowering(t, f, spec), p, PragConfig(sync="pallet"))
        assert col.report.compute_cycles == pal.report.compute_cycles

    @pytest.mark.parametrize("ssrs", [1, 2, 4, None])
    def test_oracle_equivalence_and_sb_reads(self, ssrs):
        spec, t, f = layer_fixture(6, neg=True)
        profile = Precision(9, 0)
        cfg = PragConfig(l_bits=2, sync="column", ssr_count=ssrs)
        res = pragmatic_layer(LayerLowering(t, f, spec), profile, cfg)
        trimmed = Tensor3(trim_tensor(t.data, profile))
        assert res.output == conv_oracle(trimmed, f, spec)
        assert res.report.sb_reads == sb_read_count(spec)

    def test_monotone_in_ssrs_and_bounded_by_pallet(self):
        spec, t, f = layer_fixture(7)
        profile = Precision(11, 0)
        pal = pragmatic_layer(LayerLowering(t, f, spec), profile, PragConfig(l_bits=2))
        prev = None
        for ssrs in (1, 2, 4, None):
            cfg = PragConfig(l_bits=2, sync="column", ssr_count=ssrs)
            c = pragmatic_layer(
                LayerLowering(t, f, spec), profile, cfg
            ).report.compute_cycles
            assert c <= pal.report.compute_cycles
            if prev is not None:
                assert c <= prev
            prev = c

    def test_monotone_in_l(self):
        spec, t, f = layer_fixture(8)
        profile = Precision(12, 0)
        for sync, ssr in (("pallet", 1), ("column", 2)):
            prev = None
            for l_bits in (4, 3, 2, 1, 0):
                cfg = PragConfig(l_bits=l_bits, sync=sync, ssr_count=ssr)
                c = pragmatic_layer(
                    LayerLowering(t, f, spec), profile, cfg
                ).report.compute_cycles
                if prev is not None:
                    assert prev <= c  # fewer shifter bits never run faster
                prev = c

    def test_l0_pallet_no_slower_than_stripes(self):
        for seed in range(5):
            spec, t, f = layer_fixture(20 + seed, neg=(seed % 2 == 0))
            profile = Precision(10, 2)
            prag = pragmatic_layer(LayerLowering(t, f, spec), profile, PragConfig(l_bits=0))
            stri = stripes_layer(LayerLowering(t, f, spec), profile)
            assert prag.report.compute_cycles <= stri.report.compute_cycles


class TestColumnSimCore:
    def test_two_window_one_ssr_schedule(self):
        # two windows, brick costs (2,4,4) and (5,2,2), one SSR, 2-pallet buffer
        costs = np.array([[2, 5], [4, 2], [4, 2]])
        sched = simulate_column_sync(costs, nm_cycles=1, ssr_count=1,
                                     pallet_buffer=2, record=True)
        # faster first column moves on to each next brick before the other
        assert sched.start_cycles[:, 0].tolist() == [0, 2, 6]
        assert sched.start_cycles[:, 1].tolist() == [0, 5, 7]
        assert (sched.start_cycles[1:, 0] < sched.start_cycles[1:, 1]).all()
        assert sched.total_cycles == 10  # the busiest column's serial cost
        assert sched.sb_reads == 3  # one read per synapse set
        assert [g for _, g, _ in sched.grants] == [0, 1, 2]

    def test_unbounded_ssrs_reach_critical_column_cost(self):
        rng = np.random.default_rng(9)
        costs = rng.integers(1, 9, size=(12, 16))
        costs[:, 3] += 8  # make one column strictly critical
        sched = simulate_column_sync(costs, nm_cycles=1, ssr_count=None,
                                     pallet_buffer=None)
        assert sched.total_cycles == max(sched.column_busy)

    def test_buffer_one_forces_lockstep(self):
        costs = np.array([[1, 5], [5, 1], [1, 5]])
        lock = simulate_column_sync(costs, 1, ssr_count=None, pallet_buffer=1)
        free = simulate_column_sync(costs, 1, ssr_count=None, pallet_buffer=None)
        assert lock.total_cycles == 15  # sum of per-step maxima
        assert free.total_cycles < lock.total_cycles

    def test_single_column(self):
        costs = np.array([[3], [2], [4]])
        sched = simulate_column_sync(costs, 1, 1, None)
        assert sched.total_cycles == 9
        assert sched.sb_reads == 3


def test_layer_equals_brick_by_brick_pip_sums():
    # the vectorized layer path must agree with pip_inner over the brick
    # schedule, and the pallet phase costs with the unit scheduler
    from bitsim.encoding import encode
    from bitsim.geometry import output_dims
    from bricks import brick_steps, build_pallet, pallet_bases, window_brick
    from bitsim.numerics import activate

    spec = LayerSpec(nx=5, ny=4, i=32, n=3, fx=2, fy=2, s=1, pad=1, act="identity")
    rng = np.random.default_rng(9)
    t = Tensor3(rng.integers(-700, 700, size=(4, 5, 32)))
    f = FilterSet(rng.integers(-11, 11, size=(3, 2, 2, 32)))
    profile = Precision(9, 0)
    cfg = PragConfig(l_bits=2, sync="pallet")
    res = pragmatic_layer(LayerLowering(t, f, spec), profile, cfg)

    trimmed = Tensor3(trim_tensor(t.data, profile))
    ox, oy, _ = output_dims(spec)
    for wy in range(oy):
        for wx in range(ox):
            for fi in range(spec.n):
                acc = 0
                for by, bx, i0 in brick_steps(spec):
                    brick = window_brick(trimmed, spec, wx, wy, bx, by, i0)
                    streams = [encode(int(v)) for v in brick.values]
                    syn = f.data[fi, by, bx, i0 : i0 + 16]
                    value, _ = pip_inner(streams, syn.tolist(), cfg.l_bits)
                    acc += value
                assert res.output.data[wy, wx, fi] == activate(acc, spec.act)

    # phase costs via the unit-level scheduler reproduce the engine total
    nm = dispatcher_fetch_cycles(spec)
    total = 0
    for base, wy in pallet_bases(spec):
        for by, bx, i0 in brick_steps(spec):
            pallet = build_pallet(trimmed, spec, base, wy, bx, by, i0)
            streams = [encode(int(v)) for b in pallet.bricks for v in b.values]
            total += max(nm, pallet_phase_cycles(streams, cfg.l_bits))
    assert total == res.report.compute_cycles


def test_filter_groups_scale_cycles_linearly():
    rng = np.random.default_rng(12)
    small = LayerSpec(nx=4, ny=4, i=16, n=256, fx=2, fy=2)
    big = LayerSpec(nx=4, ny=4, i=16, n=512, fx=2, fy=2)
    t = Tensor3(rng.integers(0, 500, size=(4, 4, 16)))
    fs = FilterSet(rng.integers(-9, 9, size=(256, 2, 2, 16)))
    fb = FilterSet(rng.integers(-9, 9, size=(512, 2, 2, 16)))
    p = Precision(9, 0)
    for cfg in (PragConfig(l_bits=2), PragConfig(l_bits=2, sync="column")):
        one = pragmatic_layer(LayerLowering(t, fs, small), p, cfg).report
        two = pragmatic_layer(LayerLowering(t, fb, big), p, cfg).report
        assert two.compute_cycles == 2 * one.compute_cycles
        assert two.sb_reads == 2 * one.sb_reads


class TestRawMode:
    def test_untrimmed_matches_raw_oracle(self):
        spec, t, f = layer_fixture(10, neg=True)
        for sync in ("pallet", "column"):
            cfg = PragConfig(l_bits=3, sync=sync, trim="none")
            res = pragmatic_layer(LayerLowering(t, f, spec), None, cfg)
            assert res.output == conv_oracle(t, f, spec)

    def test_trim_reduces_cycles(self):
        spec, t, f = layer_fixture(11)
        profile = Precision(6, 0)
        raw = pragmatic_layer(
            LayerLowering(t, f, spec), None, PragConfig(l_bits=2, trim="none")
        )
        red = pragmatic_layer(LayerLowering(t, f, spec), profile, PragConfig(l_bits=2))
        assert red.report.compute_cycles <= raw.report.compute_cycles
