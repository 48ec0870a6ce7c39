"""Sweeping the essential-bit engine's design space.

Two knobs matter most: the first-stage shifter width L (area vs cycles)
and the synchronization scheme (pallet-level lockstep vs per-column with
a few synapse set registers). This sweep shows the usual picture: L of 2
recovers nearly all of the single-stage performance, and even one SSR
buys a solid boost over pallet sync.
"""

from bitsim import (
    FilterSet,
    LayerLowering,
    LayerSpec,
    PragConfig,
    Precision,
    pragmatic_layer,
)
from bitsim.reference import dadn_cycles
from bitsim.stripes import stripes_layer
from bitsim.traces import generate_synapses, generate_trace

layers = [
    (LayerSpec(nx=18, ny=18, i=32, n=24, fx=3, fy=3, act="relu", name="mid"),
     Precision.from_width(9)),
    (LayerSpec(nx=16, ny=16, i=64, n=32, fx=2, fy=2, act="relu", name="deep"),
     Precision.from_width(7)),
]

inputs = []
for idx, (spec, profile) in enumerate(layers):
    t = generate_trace(spec, sigma=1200.0, relu=True, seed=idx)
    f = FilterSet(generate_synapses(spec, sigma=9.0, seed=idx))
    inputs.append((LayerLowering(t, f, spec), profile))

base = sum(dadn_cycles(lowered.spec) for lowered, _ in inputs)
stri = sum(
    stripes_layer(lowered, prof).report.compute_cycles for lowered, prof in inputs
)
print(f"baseline cycles {base}, precision-serial speedup {base / stri:.2f}x")
print()

print("pallet synchronization, sweeping the first-stage width")
print(f"{'L':>4} {'cycles':>10} {'speedup':>9}")
for l_bits in range(5):
    total = sum(
        pragmatic_layer(lowered, prof, PragConfig(l_bits=l_bits)).report.compute_cycles
        for lowered, prof in inputs
    )
    print(f"{l_bits:>4} {total:>10} {base / total:>8.2f}x")

print()
print("per-column synchronization at L=2, sweeping synapse set registers")
print(f"{'SSRs':>5} {'cycles':>10} {'speedup':>9}")
for ssrs in (1, 2, 4, None):
    cfg = PragConfig(l_bits=2, sync="column", ssr_count=ssrs)
    total = sum(
        pragmatic_layer(lowered, prof, cfg).report.compute_cycles
        for lowered, prof in inputs
    )
    label = "inf" if ssrs is None else ssrs
    print(f"{label!s:>5} {total:>10} {base / total:>8.2f}x")
