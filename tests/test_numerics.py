import numpy as np
import pytest
from hypothesis import given, strategies as st

from bitsim.numerics import (
    DegenerateRange,
    Precision,
    QuantParams,
    activate,
    quantize8,
    trim_tensor,
)
from scalar_forms import dequantize8, trim


class TestPrecision:
    def test_width_and_mask(self):
        p = Precision(10, 7)
        assert p.width == 4
        assert p.mask == 0b0000_0111_1000_0000

    def test_from_width(self):
        assert Precision.from_width(9) == Precision(8, 0)
        assert Precision.from_width(5, lsb=2) == Precision(6, 2)

    def test_bounds(self):
        with pytest.raises(ValueError):
            Precision(16, 0)
        with pytest.raises(ValueError):
            Precision(3, 5)


class TestTrim:
    def test_bits_already_inside_window(self):
        v = 0b0000_0101_1000_0000
        assert trim(v, Precision(10, 7)) == v

    def test_mask_keeps_window_bits(self):
        # mask = bits 1..2: 0b1111 -> 0b0110
        assert trim(0b1111, Precision(2, 1)) == 0b0110

    def test_zero(self):
        assert trim(0, Precision(12, 3)) == 0

    def test_negative_sign_magnitude(self):
        assert trim(-0b1111, Precision(2, 1)) == -0b0110

    @given(
        st.integers(min_value=-(1 << 15), max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    )
    def test_idempotent_and_popcount(self, v, a, b):
        p = Precision(max(a, b), min(a, b))
        t = trim(v, p)
        assert trim(t, p) == t
        assert bin(abs(t)).count("1") <= bin(abs(v)).count("1")
        # essential bits of the result stay inside the window
        assert abs(t) & ~p.mask == 0

    def test_tensor_variant_matches_scalar(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(-(1 << 15), 1 << 15, size=100)
        p = Precision(9, 2)
        out = trim_tensor(vals, p)
        assert [trim(int(v), p) for v in vals] == out.tolist()

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_tensor_variant_is_int32_at_the_container_ends(self, dtype):
        vals = np.array([-32768, 32767, -1, 0], dtype=dtype)
        for p in (Precision(15, 0), Precision(14, 0), Precision(15, 1)):
            out = trim_tensor(vals, p)
            assert out.dtype == np.int32
            assert out.tolist() == [trim(int(v), p) for v in vals.tolist()]

    def test_tensor_variant_masks_int64_before_the_cast(self):
        # magnitudes past 32 bits keep only the window's bits, not a wrapped cast
        vals = np.array([(1 << 31) + 0x1234, -((1 << 31) + 5), (1 << 40) + 7, -(1 << 63)],
                        dtype=np.int64)
        out = trim_tensor(vals, Precision(15, 0))
        assert out.dtype == np.int32
        assert out.tolist() == [0x1234, -5, 7, 0]


class TestQuantize:
    Q = QuantParams(-2.0, 6.0)

    def test_endpoints(self):
        assert quantize8(self.Q.vmin, self.Q) == 0
        assert quantize8(self.Q.vmax, self.Q) == 255

    def test_midpoint_rounds_half_to_even(self):
        mid = (self.Q.vmin + self.Q.vmax) / 2  # exact code 127.5
        assert quantize8(mid, self.Q) == 128

    def test_clamps_below_and_above(self):
        assert quantize8(self.Q.vmin - 100.0, self.Q) == 0
        assert quantize8(self.Q.vmax + 100.0, self.Q) == 255

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            QuantParams(1.0, 1.0)

    def test_a_range_whose_scale_overflows_is_degenerate(self):
        # quantize8 multiplies by 255 before it divides by the range
        assert quantize8(7e305, QuantParams(0.0, 7e305)) == 255
        for vmin, vmax in ((0.0, 1e306), (-1.7e308, 1.7e308)):
            with pytest.raises(DegenerateRange):
                QuantParams(vmin, vmax)

    def test_monotone_and_roundtrip_exhaustive(self):
        q = QuantParams(-3.7, 11.2)
        xs = np.linspace(q.vmin - 1, q.vmax + 1, 4001)
        codes = quantize8(xs, q)
        assert (np.diff(codes) >= 0).all()
        all_codes = np.arange(256)
        back = dequantize8(all_codes, q)
        again = quantize8(back, q)
        assert (again == all_codes).all()

    def test_dequantize_examples(self):
        q = QuantParams(0.0, 255.0)
        assert dequantize8(0, q) == q.vmin
        assert dequantize8(255, q) == q.vmax
        assert dequantize8(100, q) == pytest.approx(q.vmin + 100 * (q.vmax - q.vmin) / 255)

    def test_dequantize_within_one_step(self):
        q = QuantParams(-1.0, 1.0)
        xs = np.linspace(-1.5, 1.5, 1001)
        err = np.abs(dequantize8(quantize8(xs, q), q) - np.clip(xs, q.vmin, q.vmax))
        assert (err <= q.step / 2 + 1e-12).all()


class TestActivate:
    def test_relu_negative(self):
        assert activate(-5, "relu") == 0

    def test_saturates(self):
        assert activate(70000) == 32767
        assert activate(-70000) == -32768

    def test_shift(self):
        assert activate(48, out_shift=4) == 3
        assert activate(-1, out_shift=4) == -1  # rounds toward -inf

    @given(st.integers(min_value=-(1 << 14), max_value=(1 << 14)))
    def test_identity_region(self, v):
        assert activate(v) == v

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("act, out_shift", [("relu", 0), ("relu", 3), ("identity", 5)])
    def test_leaves_the_callers_array_unchanged(self, dtype, act, out_shift):
        acc = np.array([[-70000, -9, 0], [7, 48, 70000]], dtype=dtype)
        before = acc.copy()
        got = activate(acc, act, out_shift)
        assert np.array_equal(acc, before)
        want = [[activate(int(v), act, out_shift) for v in row] for row in before]
        assert got.dtype == np.int64 and got.tolist() == want

    def test_leaves_scalars_unchanged(self):
        for v in (-70000, np.int64(-70000), np.int32(-9)):
            before = int(v)
            assert activate(v, "relu", 2) == 0
            assert v == before

    @given(st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1, max_size=20),
           st.sampled_from(["relu", "identity"]), st.integers(0, 8))
    def test_in_place_equals_the_copying_form(self, values, act, out_shift):
        acc = np.array(values, dtype=np.int64)
        want = activate(acc, act, out_shift)
        got = activate(acc, act, out_shift, in_place=True)
        assert got is acc and np.array_equal(acc, want)

    @pytest.mark.parametrize("acc", [np.zeros(3, dtype=np.int32), [1, 2], 5])
    def test_in_place_needs_an_int64_array(self, acc):
        with pytest.raises(TypeError, match="int64 array"):
            activate(acc, "relu", in_place=True)
