"""Per-value, closed-form and earlier counterparts of library functions,
kept for the tests that check one against the other."""

from __future__ import annotations

import numpy as np

from bitsim import geometry as geo
from bitsim.encoding import essential_counts
from bitsim.geometry import BRICK, LayerSpec
from bitsim.numerics import Precision, QuantParams, trim_tensor
from bitsim.pragmatic import ScheduleStep, two_stage_step


def pair_term_counts(
    value: int,
    profile: Precision,
    width: int = 16,
    first_layer: bool = False,
) -> dict[str, int]:
    """Terms one neuron/synapse multiplication costs on each engine."""
    essential = int(essential_counts(np.asarray([value]), width)[0])
    trimmed = int(essential_counts(trim_tensor(np.asarray([value]), profile), width)[0])
    zn = 0 if value == 0 else width
    return {
        "dadn": width,
        "zn": zn,
        "cvn": width if first_layer else zn,
        "str": profile.width,
        "pra_fp16": essential,
        "pra_red": trimmed,
    }


def stripes_cycles(spec: LayerSpec, p: int) -> int:
    """Closed-form cycles at precision ``p`` when the fetch keeps up."""
    return geo.filter_groups(spec) * geo.num_pallets(spec) * geo.num_brick_steps(spec) * p


def dequantize8(code, q: QuantParams):
    """Inverse of :func:`bitsim.numerics.quantize8` up to one quantization step."""
    c = np.asarray(code, dtype=np.float64)
    out = q.vmin + c * (q.vmax - q.vmin) / 255.0
    if np.ndim(code) == 0:
        return float(out)
    return out


def rebuilt_heads_schedule(streams, l_bits: int) -> list[ScheduleStep]:
    """:func:`bitsim.pragmatic.pip_schedule` as it was first written: every
    cycle rebuilds each lane's head from its position and rescans the
    lanes for one still live."""
    offsets = [s.offsets for s in streams]
    if len(offsets) > BRICK:
        raise ValueError(f"a PIP column has at most {BRICK} lanes")
    pos = [0] * len(offsets)  # each lane's next offset
    steps: list[ScheduleStep] = []
    while any(p < len(o) for p, o in zip(pos, offsets)):
        heads = [o[p] if p < len(o) else None for p, o in zip(pos, offsets)]
        c, advance, _ = two_stage_step(heads, l_bits)
        advanced = tuple(idx for idx, adv in enumerate(advance) if adv)
        for idx in advanced:
            pos[idx] += 1
        steps.append(ScheduleStep(common_shift=c, advanced=advanced))
    if not steps:
        steps.append(ScheduleStep(common_shift=0, advanced=()))
    return steps
