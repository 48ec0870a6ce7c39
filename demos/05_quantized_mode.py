"""The essential-bit advantage survives an 8-bit quantized representation.

Codes are unsigned 8-bit patterns mapped linearly between per-layer
limits; the engines run on the raw code bit patterns, so a code-domain
dot product is the shared ground truth. The zero-skipping counter only
removes code-0 neurons, while essential-bit counting profits from every
zero bit inside the surviving codes.
"""

from bitsim import (
    FilterSet,
    LayerLowering,
    LayerSpec,
    PragConfig,
    Precision,
    QuantParams,
    conv_oracle,
    count_terms,
    pragmatic_layer,
    stats,
)
from bitsim.traces import generate_quantized_synapses, generate_quantized_trace

spec = LayerSpec(nx=20, ny=20, i=32, n=16, fx=3, fy=3, pad=1, act="identity",
                 name="q8")
q = QuantParams(0.0, 6.0)
profile = Precision(7, 0)

t = generate_quantized_trace(spec, sigma=1.5, relu=True, q=q, seed=5)
f = FilterSet(generate_quantized_synapses(spec, sigma=1.0, q=q, seed=5))

s = stats(t.data, width=8)
print(f"code zero fraction   {s.zero_fraction:.3f}")
print(f"essential (all)      {s.mean_essential_frac_all:.3f}")

tc = count_terms(t, spec, profile, width=8)
norm = tc.normalized()
print()
print("terms normalized to the 8-bit bit-parallel baseline")
print(f"  zero-skipping  {norm['zn']:.3f}")
print(f"  essential-bit  {norm['pra_fp16']:.3f}")

oracle = conv_oracle(t, f, spec)
res = pragmatic_layer(LayerLowering(t, f, spec, width=8), profile, PragConfig(l_bits=2))
assert res.output == oracle
pairs = res.report.total_terms // 8
print()
print(f"engine run verified against the code-domain oracle; "
      f"{res.report.effectual_terms / pairs:.2f} effectual terms per pair (max 8)")
