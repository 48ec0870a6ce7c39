import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitsim.encoding import EmptyTrace, OneffsetStream, encode, essential_counts, stats
from bitsim.numerics import Precision
from scalar_forms import essential_count, per_bit_encode, trim


class TestEncode:
    def test_value_101b(self):
        s = encode(0b101)
        assert s.offsets == (0, 2)
        # wire form: most-significant first, eon on the last entry
        assert s.pow_eon_pairs() == [(2, False), (0, True)]

    def test_value_111b(self):
        assert encode(0b111).offsets == (0, 1, 2)
        assert [p for p, _ in encode(0b111).pow_eon_pairs()] == [2, 1, 0]

    def test_zero_single_slot(self):
        s = encode(0)
        assert s.offsets == ()
        assert s.pow_eon_pairs() == [(0, True)]

    def test_negative_sign_magnitude(self):
        s = encode(-0b101)
        assert s.offsets == (0, 2) and s.neg
        assert s.value() == -5

    @pytest.mark.parametrize("v", [0x10000, -0x10000, 1 << 40])
    def test_magnitude_past_16_bits_raises(self, v):
        with pytest.raises(ValueError, match="does not fit 16 bits"):
            encode(v)

    def test_roundtrip_exhaustive_16bit(self):
        # sum of 2^offset (negated by the flag) reconstructs every value
        # the 16-bit container can hold, signed or unsigned view
        for v in range(-(1 << 15), 1 << 16):
            assert encode(v).value() == v

    def test_equals_the_sixteen_bit_tests_on_every_container_value(self):
        # encode walks the set bits lowest first; the first form tested
        # each of the 16 bits in turn
        for v in range(-(1 << 15), 1 << 16):
            assert encode(v) == per_bit_encode(v)

    @pytest.mark.parametrize("v", [1.5, np.float64(3.7), 2.0, "5"])
    def test_a_value_that_is_not_an_integer_is_refused(self, v):
        # a cast read 1.5 as 1 and 3.7 as 3
        with pytest.raises(TypeError):
            encode(v)

    @pytest.mark.parametrize("v", [np.int64(-5), np.int32(300), np.uint16(0xFFFF)])
    def test_numpy_and_python_integers_encode_as_their_value(self, v):
        assert encode(v) == per_bit_encode(int(v))

    def test_at_most_width_offsets(self):
        assert len(encode(0xFFFF).offsets) == 16

    def test_ascending_required(self):
        with pytest.raises(ValueError):
            OneffsetStream((2, 1))

    @pytest.mark.parametrize("offsets", [(16,), (3, 16), (-1, 3)])
    def test_offset_outside_16_bits_raises(self, offsets):
        with pytest.raises(ValueError, match="outside"):
            OneffsetStream(offsets)


class TestEssentialCount:
    def test_zero(self):
        assert essential_count(0) == 0

    def test_paper_value(self):
        assert essential_count(0b10001) == 2

    def test_all_ones(self):
        assert essential_count(0xFFFF, width=16) == 16

    @given(st.integers(min_value=-(1 << 15), max_value=(1 << 16) - 1),
           st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15))
    def test_trim_never_increases(self, v, a, b):
        p = Precision(max(a, b), min(a, b))
        assert essential_count(trim(v, p)) <= essential_count(v)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        vals = rng.integers(-(1 << 15), 1 << 16, size=500)
        vec = essential_counts(vals)
        assert [essential_count(int(v)) for v in vals] == vec.tolist()


class TestStats:
    def test_hand_counted(self):
        s = stats([0, 0, 0, 1], width=16)
        assert s.mean_essential_frac_all == pytest.approx(1 / 64)
        assert s.mean_essential_frac_nonzero == pytest.approx(1 / 16)
        assert s.zero_fraction == pytest.approx(0.75)

    def test_all_zero(self):
        s = stats([0, 0], width=16)
        assert s.mean_essential_frac_all == 0
        assert s.mean_essential_frac_nonzero is None
        assert s.zero_fraction == 1.0

    def test_all_ones_magnitude(self):
        s = stats([0xFFFF], width=16)
        assert s.mean_essential_frac_all == 1.0
        assert s.mean_essential_frac_nonzero == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyTrace):
            stats([], width=16)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([np.int16, np.int32, np.int64, np.uint16]),
           st.sampled_from([8, 16]))
    def test_equals_per_value_counts(self, data, dtype, width):
        # every container end, and at width 8 values past 8 bits
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        value = st.one_of(st.sampled_from([lo, hi, -32768, 32767, 65535, 256, -256, 0]),
                          st.integers(lo, hi))
        values = data.draw(st.lists(value.filter(lambda v: lo <= v <= hi),
                                    min_size=1, max_size=40))
        s = stats(np.array(values, dtype=dtype), width)
        total = sum(essential_count(v, width) for v in values)
        nonzero = sum(v != 0 for v in values)
        assert s.mean_essential_frac_all == total / (len(values) * width)
        assert s.mean_essential_frac_nonzero == (
            total / (nonzero * width) if nonzero else None)
        assert s.zero_fraction == 1.0 - nonzero / len(values)
