"""Per-value and closed-form counterparts of the library's layer-wide
functions, kept for the tests that check one against the other."""

from __future__ import annotations

import numpy as np

from bitsim import geometry as geo
from bitsim.encoding import essential_counts
from bitsim.geometry import LayerSpec
from bitsim.numerics import Precision, QuantParams, trim_tensor


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
