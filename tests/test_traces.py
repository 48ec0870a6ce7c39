from types import SimpleNamespace

import numpy as np
import pytest

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
    synapse_rng,
    write_trace,
)

SPEC = LayerSpec(nx=20, ny=20, i=32, n=4, fx=3, fy=3, pad=1)


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
        # rounding and clamping in place must give the out-of-place values
        syn = generate_synapses(SPEC, sigma=sigma, seed=seed, layer_index=2)
        draws = synapse_rng(seed, 2).normal(0.0, sigma, size=(4, 3, 3, 32))
        assert syn.dtype == np.int32
        assert np.array_equal(syn, np.clip(np.rint(draws), -bound, bound))

    @pytest.mark.parametrize("size", [SYNAPSE_CHUNK - 1, SYNAPSE_CHUNK, SYNAPSE_CHUNK + 1,
                                      3 * SYNAPSE_CHUNK + 5])
    @pytest.mark.parametrize("sigma", [0.0, 10.0, 400.0])
    def test_chunked_synapses_equal_one_whole_draw(self, size, sigma):
        # the chunks continue one stream: the values of a single normal()
        spec = SimpleNamespace(n=size, fy=1, fx=1, i=1)  # any length, not only bricks
        syn = generate_synapses(spec, sigma=sigma, seed=9, layer_index=1)
        draws = synapse_rng(9, 1).normal(0.0, sigma, size=(size, 1, 1, 1))
        assert syn.dtype == np.int32
        assert np.array_equal(syn, np.clip(np.rint(draws), -127, 127))

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
