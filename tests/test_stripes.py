import numpy as np
import pytest

from bitsim.geometry import FilterSet, LayerSpec, Tensor3
from bitsim.numerics import MissingProfile, Precision, trim_tensor
from bitsim.reference import LayerLowering, conv_oracle, dadn_cycles
from bitsim.stripes import sip_inner, stripes_layer
from scalar_forms import stripes_cycles


class TestSipInner:
    def test_all_zero_lanes(self):
        assert sip_inner([0] * 16, list(range(16)), Precision(7, 0)) == 0

    def test_small_pair(self):
        # direct dot product: 3*5 + 1*(-2) = 13
        assert sip_inner([3, 1], [5, -2], Precision(1, 0)) == 13

    def test_exhaustive_4bit_unsigned(self):
        p = Precision(3, 0)
        for n0 in range(16):
            for n1 in range(16):
                expect_base = None
                for s0 in range(-8, 8):
                    for s1 in range(-8, 8):
                        got = sip_inner([n0, n1], [s0, s1], p)
                        assert got == n0 * s0 + n1 * s1

    def test_exhaustive_4bit_signed(self):
        p = Precision(3, 0)
        for n0 in range(-8, 8):
            for n1 in range(-8, 8):
                for s0 in range(-8, 8):
                    for s1 in range(-8, 8):
                        got = sip_inner([n0, n1], [s0, s1], p, signed=True)
                        assert got == n0 * s0 + n1 * s1

    def test_window_violation_rejected(self):
        with pytest.raises(ValueError):
            sip_inner([0b1000], [1], Precision(2, 0))  # bit 3 outside window

    @pytest.mark.parametrize("neurons, synapses", [([1.5, 2], [3, 4]), ([1, 2], [3, 4.0]),
                                                   ([np.float64(1), 2], [3, 4])])
    def test_a_lane_that_is_not_an_integer_is_refused(self, neurons, synapses):
        # a cast read 1.5 as 1: the product came out 1*3 + 2*4 = 11
        with pytest.raises(TypeError):
            sip_inner(neurons, synapses, Precision(3, 0))

    def test_numpy_integer_lanes_give_the_same_product(self):
        lanes = np.array([[1, 2], [3, 4]], dtype=np.int64)
        assert sip_inner(lanes[0], lanes[1], Precision(3, 0)) == sip_inner(
            [1, 2], [3, 4], Precision(3, 0)) == 11


def relu_layer(rng, p_bits=16, **overrides):
    kw = dict(nx=18, ny=4, i=16, n=16, fx=3, fy=3, s=1, pad=0, act="relu")
    kw.update(overrides)
    spec = LayerSpec(**kw)
    t = Tensor3(rng.integers(0, 1 << p_bits, size=(spec.ny, spec.nx, spec.i)))
    f = FilterSet(rng.integers(-10, 10, size=(spec.n, spec.fy, spec.fx, spec.i)))
    return spec, t, f


class TestStripesLayer:
    def test_requires_profile(self):
        rng = np.random.default_rng(0)
        spec, t, f = relu_layer(rng)
        with pytest.raises(MissingProfile):
            stripes_layer(LayerLowering(t, f, spec), None)

    def test_p16_matches_baseline_on_full_pallets(self):
        rng = np.random.default_rng(1)
        spec, t, f = relu_layer(rng)  # ox = 16
        res = stripes_layer(LayerLowering(t, f, spec), Precision(15, 0))
        assert res.report.compute_cycles == dadn_cycles(spec)

    def test_p8_is_half_of_p16(self):
        rng = np.random.default_rng(2)
        spec, t, f = relu_layer(rng, p_bits=8)
        c8 = stripes_layer(LayerLowering(t, f, spec), Precision(7, 0)).report.compute_cycles
        c16 = stripes_layer(
            LayerLowering(t, f, spec), Precision(15, 0)
        ).report.compute_cycles
        assert 2 * c8 == c16

    @pytest.mark.parametrize("p", range(1, 17))
    def test_cycle_ratio_law(self, p):
        # row-aligned mapping so the fetch never bounds even p=1
        rng = np.random.default_rng(3)
        spec, t, f = relu_layer(rng, p_bits=1, nx=16, fx=1, fy=1)
        res = stripes_layer(LayerLowering(t, f, spec), Precision(p - 1, 0))
        assert res.report.compute_cycles * 16 == dadn_cycles(spec) * p
        assert res.report.compute_cycles == stripes_cycles(spec, p)
        assert res.report.stall_cycles == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_equivalence_random_layers(self, seed):
        rng = np.random.default_rng(100 + seed)
        kw = dict(
            nx=int(rng.integers(4, 12)),
            ny=int(rng.integers(4, 12)),
            i=16 * int(rng.integers(1, 3)),
            n=int(rng.integers(1, 20)),
            s=1,
            pad=int(rng.integers(0, 2)),
            act="identity",
        )
        kw["fx"] = int(rng.integers(1, min(4, kw["nx"] + 1)))
        kw["fy"] = int(rng.integers(1, min(4, kw["ny"] + 1)))
        spec = LayerSpec(**kw)
        t = Tensor3(rng.integers(-500, 500, size=(spec.ny, spec.nx, spec.i)))
        f = FilterSet(rng.integers(-15, 15, size=(spec.n, spec.fy, spec.fx, spec.i)))
        profile = Precision(int(rng.integers(4, 16)), int(rng.integers(0, 3)))
        res = stripes_layer(LayerLowering(t, f, spec), profile)
        trimmed = Tensor3(trim_tensor(t.data, profile))
        assert res.output == conv_oracle(trimmed, f, spec)

    def test_exhaustive_small_width_layer(self):
        # 4-bit neurons x 4-bit synapses through a full layer path
        spec = LayerSpec(nx=2, ny=2, i=16, n=2, fx=1, fy=1)
        rng = np.random.default_rng(4)
        t = Tensor3(rng.integers(0, 16, size=(2, 2, 16)))
        f = FilterSet(rng.integers(-8, 8, size=(2, 1, 1, 16)))
        res = stripes_layer(LayerLowering(t, f, spec), Precision(3, 0))
        assert res.output == conv_oracle(t, f, spec)

    def test_content_blind_cycles(self):
        rng = np.random.default_rng(5)
        spec, t, f = relu_layer(rng)
        other = Tensor3(np.zeros_like(t.data))
        p = Precision(9, 0)
        assert (
            stripes_layer(LayerLowering(t, f, spec), p).report.compute_cycles
            == stripes_layer(LayerLowering(other, f, spec), p).report.compute_cycles
        )

    def test_signed_layer_streams_full_twos_complement(self):
        # negative values force planes up to bit 15; output stays exact
        spec = LayerSpec(nx=4, ny=4, i=16, n=3, fx=2, fy=2)
        rng = np.random.default_rng(6)
        t = Tensor3(rng.integers(-2000, 2000, size=(4, 4, 16)))
        f = FilterSet(rng.integers(-12, 12, size=(3, 2, 2, 16)))
        profile = Precision(10, 1)
        res = stripes_layer(LayerLowering(t, f, spec), profile)
        trimmed = Tensor3(trim_tensor(t.data, profile))
        assert res.output == conv_oracle(trimmed, f, spec)
        # serial cost reflects the widened stream: 16 - lsb planes
        assert res.report.compute_cycles == stripes_cycles(spec, 15)

    def test_layer_equals_brick_by_brick_unit_sums(self):
        # the layer engine must agree with summing sip_inner over the
        # brick schedule: same arithmetic, opposite granularity
        from bitsim.geometry import output_dims
        from bricks import brick_steps, window_brick
        from bitsim.numerics import activate

        spec = LayerSpec(nx=5, ny=4, i=32, n=3, fx=2, fy=2, s=1, pad=1, act="relu")
        rng = np.random.default_rng(8)
        t = Tensor3(rng.integers(0, 800, size=(4, 5, 32)))
        f = FilterSet(rng.integers(-11, 11, size=(3, 2, 2, 32)))
        profile = Precision(8, 0)
        res = stripes_layer(LayerLowering(t, f, spec), profile)

        trimmed = Tensor3(trim_tensor(t.data, profile))
        ox, oy, _ = output_dims(spec)
        for wy in range(oy):
            for wx in range(ox):
                for fi in range(spec.n):
                    acc = 0
                    for by, bx, i0 in brick_steps(spec):
                        brick = window_brick(trimmed, spec, wx, wy, bx, by, i0)
                        syn = f.data[fi, by, bx, i0 : i0 + 16]
                        acc += sip_inner(brick.values.tolist(), syn.tolist(), profile)
                    assert res.output.data[wy, wx, fi] == activate(acc, spec.act)

    def test_terms_count_profile_width_per_pair(self):
        rng = np.random.default_rng(7)
        spec, t, f = relu_layer(rng, p_bits=5)
        res = stripes_layer(LayerLowering(t, f, spec), Precision(4, 0))
        ox, oy = 16, 2
        pairs = spec.n * ox * oy * spec.fx * spec.fy * spec.i
        assert res.report.total_terms == 5 * pairs
