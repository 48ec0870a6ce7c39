"""Precision-serial engine: bit-serial neurons, bit-parallel synapses.

Each serial inner-product unit consumes one neuron bit per lane per
cycle, reduces the 16 AND terms through an adder tree and accumulates
the plane sum shifted by the bit position:

    sum_i s_i * n_i  =  sum_b 2^b * sum_i bit_b(n_i) * s_i

For two's-complement neurons the sign plane's contribution is
subtracted. 16 windows are processed in parallel so a phase of p cycles
retires one pallet against one latched synapse set; with p = 16 the
schedule degenerates to the bit-parallel baseline's.
"""

from __future__ import annotations

from . import geometry as geo
from .geometry import FilterSet
from .numerics import Precision
from .reference import (
    CycleReport,
    EngineResult,
    LayerLowering,
    ScalarModelMismatch,
    ViewLowering,
    sampled_bricks,
    sb_read_count,
)
from .pragmatic import fetch_cycles


def _check_window(n: int, p: Precision, signed: bool):
    if signed:
        lo, hi = -(1 << p.msb), (1 << p.msb) - (1 << p.lsb)
        ok = lo <= n <= hi and n % (1 << p.lsb) == 0
    else:
        ok = n >= 0 and (n & ~p.mask) == 0
    if not ok:
        raise ValueError(f"neuron {n} not representable in window {p} (signed={signed})")


def sip_inner(neurons, synapses, p: Precision, signed: bool | None = None) -> int:
    """Serial inner product of up to 16 lane pairs over the window ``p``.

    Streams bit planes ``p.lsb .. p.msb``; the MSB plane is negated when
    the neurons are signed two's complement. Exactly equals the direct
    dot product for every input representable in the window.
    """
    neurons = [int(v) for v in neurons]
    synapses = [int(v) for v in synapses]
    if len(neurons) != len(synapses) or len(neurons) > 16:
        raise ValueError("need matching neuron/synapse lanes, at most 16")
    if signed is None:
        signed = any(v < 0 for v in neurons)
    for v in neurons:
        _check_window(v, p, signed)
    acc = 0
    for b in range(p.lsb, p.msb + 1):
        plane = sum(((v >> b) & 1) * s for v, s in zip(neurons, synapses))
        if signed and b == p.msb:
            plane = -plane
        acc += plane << b
    return acc


def _check_sip(view: ViewLowering, filters: FilterSet, profile: Precision):
    """The streamed window of a view, after the sampled :func:`sip_inner`
    bricks matched the lowered layer."""
    signed = bool((view.values < 0).any())
    stream = Precision(15 if signed else profile.msb, profile.lsb)
    for window, step, neurons, synapses, dot in sampled_bricks(view.x, filters):
        value = sip_inner(neurons, synapses, stream, signed)
        if value != dot:
            raise ScalarModelMismatch(
                f"sip_inner gives {value} on window {window}, brick step {step}; "
                f"the lowered layer gives {dot}"
            )
    return stream


def stripes_layer(lowered: LayerLowering, profile: Precision | None) -> EngineResult:
    """Run the precision-serial engine on one layer's lowering.

    The input is trimmed to the profile window first (the previous
    layer's output stage would have done this in hardware). Layers that
    contain negative values are streamed as full-range two's complement
    above the suffix trim (planes ``lsb..15`` with the top plane
    negated), since a magnitude window narrower than the container has
    no exact two's-complement transmission.

    The output is the shared exact lowered product; a fixed sample of
    bricks goes through :func:`sip_inner` over the streamed planes, once
    per view of the lowering, and any disagreement raises
    :class:`ScalarModelMismatch`.

    Cycles per phase are ``max(NM_C, p)``: the dispatcher fetch model is
    shared with the essential-bit engine, and equals the pure ``p``
    closed form whenever the fetch keeps up (``NM_C <= p``).
    """
    view = lowered.trimmed(profile)
    stream = view.cached("sip", lambda: _check_sip(view, lowered.filters, profile))

    p_eff = stream.width
    spec = lowered.spec
    groups = geo.filter_groups(spec)
    phases = geo.num_pallets(spec) * geo.num_brick_steps(spec)
    nm_c = fetch_cycles(lowered)
    report = CycleReport(
        compute_cycles=groups * phases * max(nm_c, p_eff),
        nm_fetch_cycles=groups * phases * nm_c,
        stall_cycles=groups * phases * max(0, nm_c - p_eff),
        sb_reads=sb_read_count(spec),
        total_terms=p_eff * geo.num_pairs(spec),
        effectual_terms=view.effectual_terms,
    )
    return EngineResult(output=view.output, report=report, engine="stripes",
                        variant=f"p{profile.width}")

