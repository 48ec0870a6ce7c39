"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line. Tolerances are exact (integer equality or strict
inequality) throughout; criterion 1 additionally carries its stated
runtime budget.
"""

import time

import numpy as np
import pytest

from bitsim.analysis import count_terms
from bitsim.encoding import encode, stats
from bitsim.geometry import FilterSet, LayerSpec, Tensor3
from bitsim.numerics import Precision, QuantParams, quantize8, trim_tensor
from bitsim.pragmatic import (
    PragConfig,
    pip_inner,
    pip_schedule,
    pragmatic_layer,
)
from bitsim.encoding import OneffsetStream
from bitsim.reference import (
    LayerLowering,
    conv_oracle,
    dadn_cycles,
    dadn_layer,
    sb_read_count,
)
from bitsim.stripes import sip_inner, stripes_layer
from bitsim.traces import generate_trace
from scalar_forms import dequantize8, pair_term_counts


def emit(number: int, name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} {status}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}"


def random_geometry(rng, max_xy=16, max_i=64, max_n=64):
    while True:
        s = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 2))
        fx = int(rng.integers(1, 4))
        fy = int(rng.integers(1, 4))
        nx = int(rng.integers(fx, max_xy + 1))
        ny = int(rng.integers(fy, max_xy + 1))
        i = 16 * int(rng.integers(1, max_i // 16 + 1))
        n = int(rng.integers(1, max_n + 1))
        if (nx + 2 * pad - fx) % s or (ny + 2 * pad - fy) % s:
            continue
        if nx + 2 * pad < fx or ny + 2 * pad < fy:
            continue
        return LayerSpec(nx=nx, ny=ny, i=i, n=n, fx=fx, fy=fy, s=s, pad=pad,
                         act="identity")


def random_tensors(rng, spec, signed=True):
    lo = -2000 if signed else 0
    t = Tensor3(rng.integers(lo, 2000, size=(spec.ny, spec.nx, spec.i)))
    f = FilterSet(rng.integers(-14, 14, size=(spec.n, spec.fy, spec.fx, spec.i)))
    return t, f


def test_criterion_01_oracle_equivalence_randomized():
    """200 randomized layers: serial engines bit-equal to the oracle."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    ssr_grid = [1, 2, 4, None]
    checked = 0
    for k in range(200):
        spec = random_geometry(rng)
        signed = bool(rng.integers(0, 2))
        t, f = random_tensors(rng, spec, signed)
        msb = int(rng.integers(4, 16))
        profile = Precision(msb, int(rng.integers(0, min(4, msb + 1))))
        trimmed = Tensor3(trim_tensor(t.data, profile))
        oracle = conv_oracle(trimmed, f, spec)

        res_s = stripes_layer(LayerLowering(t, f, spec), profile)
        ok = res_s.output == oracle

        cfg = PragConfig(
            l_bits=k % 5,
            sync="pallet" if k % 2 == 0 else "column",
            ssr_count=ssr_grid[k % 4],
        )
        res_p = pragmatic_layer(LayerLowering(t, f, spec), profile, cfg)
        ok = ok and res_p.output == oracle
        if not ok:
            emit(1, "oracle equivalence on randomized layers", False,
                 f"layer {k}: {spec}")
        checked += 1
    elapsed = time.monotonic() - start
    emit(1, "oracle equivalence on randomized layers", checked == 200,
         f"200 layers, {elapsed:.1f}s")
    assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_02_exhaustive_small_width_arithmetic():
    """All 4-bit neuron x 4-bit synapse 2-element combinations, both units."""
    p = Precision(3, 0)
    cases = 0
    for n0 in range(16):
        for n1 in range(16):
            e0, e1 = encode(n0), encode(n1)
            for s0 in range(-8, 8):
                for s1 in range(-8, 8):
                    want = n0 * s0 + n1 * s1
                    if sip_inner([n0, n1], [s0, s1], p) != want:
                        emit(2, "exhaustive 4-bit serial arithmetic", False,
                             f"sip {n0},{n1},{s0},{s1}")
                    value, _ = pip_inner([e0, e1], [s0, s1], l_bits=2)
                    if value != want:
                        emit(2, "exhaustive 4-bit serial arithmetic", False,
                             f"pip {n0},{n1},{s0},{s1}")
                    cases += 1
    emit(2, "exhaustive 4-bit serial arithmetic", cases == 1 << 16,
         f"{cases} cases each")


def test_criterion_03_worked_term_example():
    """Neuron 10001b with a 5-bit window: (DaDN, STR, PRA) = (16, 5, 2, 2)."""
    got = pair_term_counts(0b10001, Precision.from_width(5), width=16)
    ok = (got["dadn"], got["str"], got["pra_fp16"], got["pra_red"]) == (16, 5, 2, 2)
    emit(3, "worked per-pair term counts", ok, str(got))


def test_criterion_04_worst_case_guarantee():
    """All-ones neurons, no trim: serial engines match the baseline exactly."""
    spec = LayerSpec(nx=18, ny=6, i=32, n=24, fx=3, fy=3)  # ox = 16
    t = Tensor3(np.full((6, 18, 32), 0xFFFF))
    rng = np.random.default_rng(7)
    f = FilterSet(rng.integers(-9, 9, size=(24, 3, 3, 32)))
    base = dadn_cycles(spec)
    ok = True
    for l_bits in range(5):
        cfg = PragConfig(l_bits=l_bits, sync="pallet", trim="none")
        got = pragmatic_layer(LayerLowering(t, f, spec), None, cfg).report.compute_cycles
        ok = ok and got == base
    stri = stripes_layer(
        LayerLowering(t, f, spec), Precision(15, 0)
    ).report.compute_cycles
    ok = ok and stri == base
    emit(4, "worst-case cycles equal the bit-parallel baseline", ok,
         f"baseline {base}")


def test_criterion_05_precision_speedup_law():
    """Precision-serial cycles scale exactly as p/16 of the baseline."""
    # i = one brick and nx = 16 keep every pallet inside one NM row, so the
    # fetch never bounds a phase even at p = 1
    spec = LayerSpec(nx=16, ny=8, i=16, n=16, fx=1, fy=1)
    rng = np.random.default_rng(8)
    t = Tensor3(rng.integers(0, 2, size=(8, 16, 16)))
    f = FilterSet(rng.integers(-9, 9, size=(16, 1, 1, 16)))
    base = dadn_cycles(spec)
    ok = True
    for p in range(1, 17):
        got = stripes_layer(
            LayerLowering(t, f, spec), Precision(p - 1, 0)
        ).report.compute_cycles
        ok = ok and got * 16 == base * p
    emit(5, "cycles scale as p/16 across p in 1..16", ok, f"baseline {base}")


def test_criterion_06_monotonicity_suites():
    """Nonincreasing cycles in L and SSRs; column <= pallet; L=0 <= stripes."""
    rng = np.random.default_rng(31)
    failures = []
    for k in range(100):
        spec = random_geometry(rng, max_xy=10, max_i=32, max_n=8)
        t, f = random_tensors(rng, spec, signed=bool(rng.integers(0, 2)))
        msb = int(rng.integers(4, 16))
        profile = Precision(msb, int(rng.integers(0, 3)))

        pallet = [
            pragmatic_layer(
                LayerLowering(t, f, spec), profile, PragConfig(l_bits=l)
            ).report
            for l in range(5)
        ]
        cyc = [r.compute_cycles for r in pallet]
        if not all(cyc[l + 1] <= cyc[l] for l in range(4)):
            failures.append((k, "L", cyc))

        col_cycles = []
        for ssrs in (1, 2, 4, None):
            cfg = PragConfig(l_bits=2, sync="column", ssr_count=ssrs)
            col_cycles.append(
                pragmatic_layer(
                    LayerLowering(t, f, spec), profile, cfg
                ).report.compute_cycles
            )
        if not all(b <= a for a, b in zip(col_cycles, col_cycles[1:])):
            failures.append((k, "ssr", col_cycles))
        if not col_cycles[0] <= cyc[2]:
            failures.append((k, "column<=pallet", (col_cycles[0], cyc[2])))

        stri = stripes_layer(LayerLowering(t, f, spec), profile).report.compute_cycles
        if not cyc[0] <= stri:
            failures.append((k, "L0<=stripes", (cyc[0], stri)))
    emit(6, "monotonicity in L, SSRs, sync mode, and vs precision-serial",
         not failures, f"failures: {failures[:3]}" if failures else "100 layers")


def test_criterion_07_sb_read_conservation():
    """Synapse buffer reads identical across engines and sync modes."""
    rng = np.random.default_rng(77)
    ok = True
    for k in range(20):
        spec = random_geometry(rng, max_xy=10, max_i=32, max_n=8)
        t, f = random_tensors(rng, spec, signed=False)
        profile = Precision(9, 0)
        expected = sb_read_count(spec)
        reads = [
            dadn_layer(LayerLowering(t, f, spec)).report.sb_reads,
            stripes_layer(LayerLowering(t, f, spec), profile).report.sb_reads,
            pragmatic_layer(
                LayerLowering(t, f, spec), profile, PragConfig()
            ).report.sb_reads,
            pragmatic_layer(
                LayerLowering(t, f, spec), profile, PragConfig(sync="column", ssr_count=1)
            ).report.sb_reads,
            pragmatic_layer(
                LayerLowering(t, f, spec), profile, PragConfig(sync="column", ssr_count=None)
            ).report.sb_reads,
        ]
        ok = ok and all(r == expected for r in reads)
    emit(7, "SB reads conserved across engines", ok)


def test_criterion_08_two_stage_schedule_trace():
    """The L=2 scheduling example: c-sequence starts (0, 4), 4 cycles total."""
    streams = [OneffsetStream((1, 6, 8)), OneffsetStream((0, 7)),
               OneffsetStream((4, 7, 8))]
    sched = pip_schedule(streams, l_bits=2)
    cs = [s.common_shift for s in sched]
    ok = cs[:2] == [0, 4] and len(sched) == 4
    # cycle 1: the two low heads advance, the 4-offset lane stalls
    ok = ok and sched[0].advanced == (0, 1)
    # cycle 2: heads (6, 7, 4), minimum 4, all three advance
    ok = ok and sched[1].advanced == (0, 1, 2)
    emit(8, "two-stage scheduler trace", ok, f"c-sequence {cs}")


def test_criterion_09_essential_bit_advantage():
    """ReLU-Gaussian traces: essential fraction < 0.25 and the essential-bit
    engine strictly beats zero-skipping, across 10 seeds."""
    spec = LayerSpec(nx=16, ny=16, i=32, n=4, fx=3, fy=3, pad=1, act="relu")
    ok = True
    details = []
    for seed in range(10):
        t = generate_trace(spec, sigma=3000.0, relu=True, seed=seed)
        bs = stats(t.data, width=16)
        tc = count_terms(t, spec, Precision(15, 0), width=16)
        frac_ok = bs.mean_essential_frac_all < 0.25
        beats_zn = tc.totals["pra_fp16"] < tc.totals["zn"]
        ok = ok and frac_ok and beats_zn
        details.append(round(bs.mean_essential_frac_all, 3))
    emit(9, "essential-bit advantage over zero-skipping", ok,
         f"essential fractions {details}")


def test_criterion_10_quantized_mode():
    """Width-8 runs: code-domain oracle equivalence, <= 8 terms per pair,
    and exhaustive quantizer properties."""
    rng = np.random.default_rng(404)
    ok = True
    for k in range(10):
        spec = random_geometry(rng, max_xy=10, max_i=32, max_n=8)
        t = Tensor3(rng.integers(0, 256, size=(spec.ny, spec.nx, spec.i)))
        f = FilterSet(rng.integers(0, 256, size=(spec.n, spec.fy, spec.fx, spec.i)))
        profile = Precision(7, 0)
        oracle = conv_oracle(t, f, spec)
        ok = ok and stripes_layer(
            LayerLowering(t, f, spec, width=8), profile
        ).output == oracle
        cfg = PragConfig(l_bits=k % 5, sync="column" if k % 2 else "pallet")
        res = pragmatic_layer(LayerLowering(t, f, spec, width=8), profile, cfg)
        ok = ok and res.output == oracle
        pairs = res.report.total_terms // 8
        ok = ok and res.report.effectual_terms <= 8 * pairs

    q = QuantParams(-1.5, 2.5)
    codes = quantize8(np.linspace(q.vmin, q.vmax, 10001), q)
    ok = ok and codes[0] == 0 and codes[-1] == 255 and (np.diff(codes) >= 0).all()
    all_codes = np.arange(256)
    ok = ok and (quantize8(dequantize8(all_codes, q), q) == all_codes).all()
    emit(10, "quantized 8-bit mode", ok)
