"""One convolutional layer through all three datapaths.

Every engine must land on the bit-identical output tensor (the
brute-force oracle checks them); they differ only in how many cycles the
schedule takes and how many terms the arithmetic actually touches.
"""

from bitsim import (
    FilterSet,
    LayerLowering,
    LayerSpec,
    PragConfig,
    Precision,
    Tensor3,
    conv_oracle,
    dadn_layer,
    pragmatic_layer,
    stripes_layer,
    trim_tensor,
)
from bitsim.analysis import report
from bitsim.reference import dadn_cycles
from bitsim.traces import generate_synapses, generate_trace

spec = LayerSpec(nx=18, ny=18, i=32, n=16, fx=3, fy=3, s=1, pad=0, act="relu",
                 name="conv")
profile = Precision.from_width(9)  # software-provided per-layer window

t = generate_trace(spec, sigma=900.0, relu=True, seed=3)
f = FilterSet(generate_synapses(spec, sigma=10.0, seed=3))
trimmed = Tensor3(trim_tensor(t.data, profile))
oracle = conv_oracle(trimmed, f, spec)
lowered = LayerLowering(t, f, spec)  # shared by every engine below

results = []
results.append(("conv", dadn_layer(lowered), dadn_cycles(spec)))

stri = stripes_layer(lowered, profile)
assert stri.output == oracle
results.append(("conv", stri, dadn_cycles(spec)))

for cfg in (
    PragConfig(l_bits=4, sync="pallet"),
    PragConfig(l_bits=2, sync="pallet"),
    PragConfig(l_bits=2, sync="column", ssr_count=1),
):
    res = pragmatic_layer(lowered, profile, cfg)
    assert res.output == oracle
    results.append(("conv", res, dadn_cycles(spec)))

print(report(results).table())
print()
print("All outputs verified bit-identical against the brute-force oracle.")
