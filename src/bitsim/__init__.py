"""bitsim: functional and cycle-count models of convolution accelerator
datapaths — a bit-parallel baseline, a precision-serial design, and an
essential-bit-serial design — verified against a brute-force oracle.
"""

from .geometry import (
    BRICK,
    PALLET,
    FilterSet,
    LayerSpec,
    Tensor3,
    output_dims,
)
from .numerics import (
    Precision,
    QuantParams,
    activate,
    quantize8,
    trim,
    trim_tensor,
)
from .encoding import BitStats, OneffsetStream, encode, essential_count, stats
from .reference import (
    CycleReport,
    EngineResult,
    LayerLowering,
    conv_oracle,
    dadn_cycles,
    dadn_layer,
    dadn_terms,
    sb_read_count,
)
from .stripes import sip_inner, stripes_layer
from .pragmatic import (
    PragConfig,
    dispatcher_fetch_cycles,
    pip_inner,
    pragmatic_layer,
    two_stage_step,
)
from .analysis import TermCounts, count_terms, report
from .traces import generate_trace, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "BRICK",
    "PALLET",
    "BitStats",
    "CycleReport",
    "EngineResult",
    "FilterSet",
    "LayerLowering",
    "LayerSpec",
    "OneffsetStream",
    "PragConfig",
    "Precision",
    "QuantParams",
    "Tensor3",
    "TermCounts",
    "activate",
    "conv_oracle",
    "count_terms",
    "dadn_cycles",
    "dadn_layer",
    "dadn_terms",
    "dispatcher_fetch_cycles",
    "encode",
    "essential_count",
    "generate_trace",
    "output_dims",
    "pip_inner",
    "pragmatic_layer",
    "quantize8",
    "read_trace",
    "report",
    "sb_read_count",
    "sip_inner",
    "stats",
    "stripes_layer",
    "trim",
    "trim_tensor",
    "two_stage_step",
    "write_trace",
]
