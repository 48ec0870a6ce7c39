import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import bitsim.traces as traces
from bitsim.geometry import LayerSpec, Tensor3
from bitsim.numerics import QuantParams
from bitsim.traces import (
    DTYPE_I16,
    DTYPE_U8,
    SYNAPSE_CHUNK,
    TraceIOError,
    generate_quantized_trace,
    generate_synapses,
    generate_trace,
    neuron_rng,
    read_trace,
    synapse_low_rng,
    synapse_rng,
    synapse_thresholds,
    write_trace,
)

SPEC = LayerSpec(nx=20, ny=20, i=32, n=4, fx=3, fy=3, pad=1)
LOW = (1 << 48) - 1  # the low bits of a 64-bit uniform below the table's 16


def finite(sigma):
    """The thresholds below 2^64, as uint64: those a uniform can cross."""
    return np.array([t for t in synapse_thresholds(sigma) if t < 1 << 64], dtype=np.uint64)


def reference_synapses(shape, sigma, seed, layer_index):
    """The sampler without its table or its chunks: the inverse CDF, by
    ``searchsorted``, of each draw's full 64-bit uniform. Its top 16 bits
    come from one whole draw of the synapse stream; a draw whose value
    its low bits can change takes them, in order, from the low stream,
    and any other draw's low bits are left at 0."""
    thresholds = finite(sigma)
    size = math.prod(shape)
    top = synapse_rng(seed, layer_index).integers(0, 1 << 16, size=size, dtype=np.uint16)
    uniform = top.astype(np.uint64) << np.uint64(48)
    cut = (np.searchsorted(thresholds, uniform, side="right")
           != np.searchsorted(thresholds, uniform | np.uint64(LOW), side="right"))
    uniform[cut] |= synapse_low_rng(seed, layer_index).integers(
        0, 1 << 48, size=int(cut.sum()), dtype=np.uint64)
    return (np.searchsorted(thresholds, uniform, side="right") - 127).reshape(shape)


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate_trace(SPEC, sigma=100.0, relu=True, seed=7)
        b = generate_trace(SPEC, sigma=100.0, relu=True, seed=7)
        c = generate_trace(SPEC, sigma=100.0, relu=True, seed=8)
        assert a == b
        assert a != c

    def test_relu_zero_fraction_near_half(self):
        spec = LayerSpec(nx=40, ny=40, i=16, n=1, fx=1, fy=1)  # 25600 samples
        t = generate_trace(spec, sigma=1000.0, relu=True, seed=1)
        zf = float((t.data == 0).mean())
        assert abs(zf - 0.5) < 0.05

    def test_tiny_sigma_rounds_to_zero(self):
        t = generate_trace(SPEC, sigma=0.05, relu=False, seed=2)
        assert (t.data == 0).all()

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_trace(SPEC, sigma=0.0, relu=True, seed=0)

    def test_synapses_bounded(self):
        syn = generate_synapses(SPEC, sigma=50.0, seed=3)
        assert syn.shape == (4, 3, 3, 32)
        assert np.abs(syn).max() <= 127

    @pytest.mark.parametrize("seed, sigma, bound",
                             [(0, 10.0, 127), (3, 50.0, 127), (7, 300.0, 127),
                              (11, 0.0, 127)])
    def test_synapses_equal_clipped_rounded_draws(self, seed, sigma, bound):
        # the table and the refinement of its cut buckets give the values
        # of the plain inverse CDF of the clipped, rounded normal
        syn = generate_synapses(SPEC, sigma=sigma, seed=seed, layer_index=2)
        assert syn.dtype == np.int32
        assert np.abs(syn).max() <= bound
        assert np.array_equal(syn, reference_synapses((4, 3, 3, 32), sigma, seed, 2))

    @pytest.mark.parametrize("size", [2 * SYNAPSE_CHUNK - 1, 2 * SYNAPSE_CHUNK,
                                      2 * SYNAPSE_CHUNK + 1, 6 * SYNAPSE_CHUNK + 5])
    @pytest.mark.parametrize("sigma", [0.0, 10.0, 400.0])
    def test_chunked_synapses_equal_one_whole_draw(self, size, sigma):
        # the chunks continue both streams: the values of a single draw
        spec = SimpleNamespace(n=size, fy=1, fx=1, i=1)  # any length, not only bricks
        syn = generate_synapses(spec, sigma=sigma, seed=9, layer_index=1)
        assert syn.dtype == np.int32
        assert np.array_equal(syn, reference_synapses((size, 1, 1, 1), sigma, 9, 1))

    def test_negative_synapse_sigma_raises(self):
        with pytest.raises(ValueError):
            generate_synapses(SPEC, sigma=-1.0, seed=0)

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("sigma", [100.0, 40000.0])
    def test_trace_equals_rectified_rounded_clipped_draws(self, relu, sigma):
        t = generate_trace(SPEC, sigma=sigma, relu=relu, seed=5, layer_index=3)
        draws = neuron_rng(5, 3).normal(0.0, sigma, size=(20, 20, 32))
        if relu:
            draws = np.maximum(draws, 0.0)
        assert t.data.dtype == np.int32
        assert np.array_equal(t.data, np.clip(np.rint(draws), -(1 << 15), (1 << 15) - 1))

    def test_quantized_codes_in_range(self):
        q = QuantParams(0.0, 500.0)
        t = generate_quantized_trace(SPEC, sigma=200.0, relu=True, q=q, seed=4)
        assert t.data.min() >= 0 and t.data.max() <= 255


class EdgeRng:
    """A generator whose every integer is the lowest or the highest of
    its range."""

    def __init__(self, highest):
        self.highest = highest

    def integers(self, low, high, size, dtype):
        return np.full(size, high - 1 if self.highest else low, dtype=dtype)


class TestSynapseSampler:
    SIGMAS = [0.0, 0.3, 10.0, 300.0, 1e6]

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 10.0, 300.0, 1e6])
    def test_thresholds_are_the_scaled_cdf(self, sigma):
        # floor(Phi((k + 1/2) / sigma) * 2^64), up to float64 rounding of
        # the CDF: a few ulps of 1.0, from a formula of its own
        thresholds = synapse_thresholds(sigma)
        assert len(thresholds) == 254
        assert thresholds == sorted(thresholds)
        for k, t in zip(range(-127, 127), thresholds):
            cdf = 0.5 * (1.0 + math.erf((k + 0.5) / sigma / math.sqrt(2.0)))
            assert abs(t - math.floor(math.ldexp(cdf, 64))) <= 1 << 13, k
        # the upper half mirrors the lower, so P(X = k) = P(X = -k)
        for k in range(127):
            assert abs(thresholds[127 + k] + thresholds[126 - k] - (1 << 64)) <= 1

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_the_sampler_holds_the_thresholds_below_two_to_the_64(self, sigma):
        _, thresholds = traces._synapse_sampler(sigma)
        assert thresholds.dtype == np.uint64
        assert np.array_equal(thresholds, finite(sigma))

    def test_sigma_zero_thresholds_are_never_and_always_crossed(self):
        assert synapse_thresholds(0.0) == [0] * 127 + [1 << 64] * 127

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_each_table_entry_is_its_buckets_value_or_marked_as_cut(self, sigma):
        table, _ = traces._synapse_sampler(sigma)
        thresholds = finite(sigma)
        start = np.arange(1 << 16, dtype=np.uint64) << np.uint64(48)
        lowest = np.searchsorted(thresholds, start, side="right") - 127
        highest = np.searchsorted(thresholds, start | np.uint64(LOW), side="right") - 127
        cut = lowest != highest
        assert table.dtype == np.int8 and table.shape == (1 << 16,)
        assert cut.sum() <= 254
        assert np.array_equal(table[~cut], lowest[~cut])
        assert (table[cut] == traces._STRADDLES).all()

    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.3])
    @pytest.mark.parametrize("highest", [False, True], ids=["lowest", "highest"])
    def test_a_threshold_whose_cdf_rounds_to_one_is_never_crossed(self, monkeypatch,
                                                                   sigma, highest):
        # every draw's uniform is 0, or 2^64 - 1 (the top bucket, its low
        # bits drawn where the bucket is cut); a threshold of 2^64 stays
        # above it, and one of 0 below
        monkeypatch.setattr(traces, "synapse_rng", lambda *key: EdgeRng(highest))
        monkeypatch.setattr(traces, "synapse_low_rng", lambda *key: EdgeRng(highest))
        syn = generate_synapses(SimpleNamespace(n=1000, fy=1, fx=1, i=1), sigma, seed=0)
        thresholds = synapse_thresholds(sigma)
        crossed = sum(t < 1 << 64 for t in thresholds) if highest else thresholds.count(0)
        assert (syn == crossed - 127).all()
        if sigma < 0.1:
            assert (syn == 0).all()

    def test_values_are_int32_within_the_bound(self):
        # nearly every draw of a huge sigma lands in the tail mass at +-127
        syn = generate_synapses(SimpleNamespace(n=50_000, fy=1, fx=1, i=1), 1e6, seed=4)
        assert syn.dtype == np.int32
        assert syn.min() == -127 and syn.max() == 127
        assert np.isin(syn, [-127, 127]).mean() > 0.99

    def test_a_draws_temporaries_stay_under_a_megabyte(self):
        # the float64 chunk buffer this sampler replaced held 1 MB
        spec = SimpleNamespace(n=384, fy=3, fx=3, i=384)
        generate_synapses(spec, 10.0, seed=2)  # the table is built once
        tracemalloc.start()
        try:
            syn = generate_synapses(spec, 10.0, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - syn.nbytes < 1 << 20

    @pytest.mark.parametrize("sigma", [10.0, 300.0])
    def test_one_whole_draw_equals_any_chunking(self, monkeypatch, sigma):
        spec = SimpleNamespace(n=30_001, fy=1, fx=1, i=1)
        whole = generate_synapses(spec, sigma, seed=5, layer_index=3)
        for chunk in [2, 6, 1024, 30_002]:  # even: a 32-bit draw gives two top halves
            monkeypatch.setattr(traces, "SYNAPSE_CHUNK", chunk)
            assert np.array_equal(generate_synapses(spec, sigma, seed=5, layer_index=3), whole)

    @pytest.mark.parametrize("sigma", [0.7, 10.0, 100.0])
    def test_draws_match_clipped_rounded_normal_draws(self, sigma):
        # two-sample chi-square on 2^20 draws a side at a fixed seed; the
        # bins with fewer than 20 draws in both samples are pooled
        size = 1 << 20
        syn = generate_synapses(SimpleNamespace(n=size, fy=1, fx=1, i=1), sigma, seed=12)
        normal = np.clip(np.rint(np.random.default_rng(12).normal(0.0, sigma, size)), -127, 127)
        a = np.bincount(syn.reshape(-1) + 127, minlength=255)
        b = np.bincount(normal.astype(np.int64) + 127, minlength=255)
        big = a + b >= 20
        a = np.append(a[big], a[~big].sum())
        b = np.append(b[big], b[~big].sum())
        keep = a + b > 0
        a, b = a[keep], b[keep]
        chi2 = float(((a - b) ** 2 / (a + b)).sum())
        df = a.size - 1
        # Wilson-Hilferty: the standard score of chi2 with df degrees of freedom
        z = ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
        assert z < 3.09, (chi2, df)  # p > 0.001


class TestTraceFile:
    def test_roundtrip_i16(self, tmp_path):
        rng = np.random.default_rng(0)
        t = Tensor3(rng.integers(-(1 << 15), 1 << 15, size=(5, 4, 16)))
        path = tmp_path / "t.prgt"
        write_trace(path, t, DTYPE_I16)
        back, dtype = read_trace(path)
        assert back == t and dtype == DTYPE_I16

    def test_roundtrip_u8(self, tmp_path):
        rng = np.random.default_rng(1)
        t = Tensor3(rng.integers(0, 256, size=(3, 3, 16)))
        path = tmp_path / "t8.prgt"
        write_trace(path, t, DTYPE_U8)
        back, dtype = read_trace(path)
        assert back == t and dtype == DTYPE_U8

    def test_header_layout(self, tmp_path):
        t = Tensor3(np.zeros((2, 3, 16), dtype=np.int64))
        path = tmp_path / "h.prgt"
        write_trace(path, t, DTYPE_I16)
        raw = path.read_bytes()
        assert raw[:4] == b"PRGT"
        assert int.from_bytes(raw[4:6], "little") == 1  # version
        assert raw[6] == DTYPE_I16
        assert int.from_bytes(raw[8:12], "little") == 3   # x
        assert int.from_bytes(raw[12:16], "little") == 2  # y
        assert int.from_bytes(raw[16:20], "little") == 16  # i
        assert len(raw) == 20 + 2 * 3 * 16 * 2

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.prgt"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(TraceIOError):
            read_trace(path)

    def test_truncated_payload_rejected(self, tmp_path):
        t = Tensor3(np.zeros((2, 2, 16), dtype=np.int64))
        path = tmp_path / "short.prgt"
        write_trace(path, t, DTYPE_I16)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TraceIOError):
            read_trace(path)

    def test_u8_range_enforced_on_write(self, tmp_path):
        t = Tensor3(np.full((1, 1, 16), 300))
        with pytest.raises(TraceIOError):
            write_trace(tmp_path / "x.prgt", t, DTYPE_U8)

    def test_i16_extremes_roundtrip(self, tmp_path):
        t = Tensor3(np.array([-(1 << 15), (1 << 15) - 1] * 8).reshape(1, 1, 16))
        path = tmp_path / "edge.prgt"
        write_trace(path, t, DTYPE_I16)
        back, _ = read_trace(path)
        assert back == t

    def test_i16_range_enforced_on_write(self, tmp_path):
        t = Tensor3(np.full((1, 1, 16), 1 << 15))
        with pytest.raises(TraceIOError):
            write_trace(tmp_path / "x.prgt", t, DTYPE_I16)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceIOError):
            read_trace(tmp_path / "absent.prgt")
