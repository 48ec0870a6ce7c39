"""Experiment orchestration: build inputs, run engines, verify, report.

Every engine variant in a run consumes the same generated or loaded
tensors, so the designs see identical synapse reuse and comparisons are
fair. Each input view (raw or profile-trimmed) is lowered once per
layer and shared by every variant that reads it. Each engine's output
is checked against the brute-force oracle on its own input view; a
mismatch is an engine bug and aborts the run.
"""

from __future__ import annotations

import numpy as np

from .analysis import ReportDocument, TermCounts, count_terms, report
from .config import EngineSelector, ExperimentConfig, LayerConfig
from .encoding import stats
from .geometry import FilterSet, Tensor3, container_bounds
from .numerics import trim_tensor
from .pragmatic import pragmatic_layer
from .reference import EngineResult, LayerLowering, conv_oracle, dadn_cycles, dadn_layer
from .stripes import stripes_layer
from .traces import (
    TraceIOError,
    generate_quantized_synapses,
    generate_quantized_trace,
    generate_synapses,
    generate_trace,
    read_trace,
)


class OracleMismatch(RuntimeError):
    """A serial engine's output differs from the brute-force oracle."""


def build_layer_input(cfg: ExperimentConfig, layer: LayerConfig, index: int) -> Tensor3:
    """The layer's input tensor, loaded or generated from the neuron stream."""
    spec = layer.spec
    if cfg.trace_kind == "file":
        path = cfg.trace_paths[index]
        tensor, _ = read_trace(path)
        if (tensor.x, tensor.y) != (spec.nx, spec.ny) or tensor.i > spec.i:
            raise TraceIOError(
                f"{path}: trace dims {tensor.dims} do not fit layer {spec.name!r} "
                f"({spec.nx},{spec.ny},{spec.i})"
            )
        if tensor.i < spec.i:
            padded = np.zeros((spec.ny, spec.nx, spec.i), dtype=np.int64)
            padded[:, :, : tensor.i] = tensor.data
            tensor = Tensor3(padded)
        lo, hi = container_bounds(cfg.width)
        if tensor.data.min() < lo or tensor.data.max() > hi:
            raise TraceIOError(
                f"{path}: trace values {tensor.data.min()}..{tensor.data.max()} "
                f"do not fit the {cfg.width}-bit container ({lo}..{hi})"
            )
    elif cfg.width == 8:
        tensor = generate_quantized_trace(
            spec, cfg.trace_sigma, cfg.trace_relu, layer.quant, cfg.seed, index
        )
    else:
        tensor = generate_trace(spec, cfg.trace_sigma, cfg.trace_relu, cfg.seed, index)
    return tensor


def build_layer_inputs(
    cfg: ExperimentConfig, layer: LayerConfig, index: int
) -> tuple[Tensor3, FilterSet]:
    """The layer's input tensor and its filters (from the synapse stream)."""
    spec = layer.spec
    tensor = build_layer_input(cfg, layer, index)
    if cfg.width == 8:
        syn = generate_quantized_synapses(
            spec, cfg.synapse_sigma, layer.quant, cfg.seed, index
        )
    else:
        syn = generate_synapses(spec, cfg.synapse_sigma, cfg.seed, index)
    return tensor, FilterSet(syn)


def run_engine(
    sel: EngineSelector,
    input: Tensor3,
    filters: FilterSet,
    layer: LayerConfig,
    width: int,
    out_shift: int,
) -> EngineResult:
    """One engine variant on one layer, on a lowering of its own."""
    return _run(sel, layer, LayerLowering(input, filters, layer.spec, width, out_shift))


def _run(sel: EngineSelector, layer: LayerConfig, lowered: LayerLowering) -> EngineResult:
    """One engine variant on the layer's lowering."""
    if sel.engine == "dadn":
        return dadn_layer(lowered)
    if sel.engine == "stripes":
        return stripes_layer(lowered, layer.precision)
    if sel.engine == "pragmatic":
        return pragmatic_layer(lowered, layer.precision, sel.prag)
    raise ValueError(f"unknown engine {sel.engine!r}")


def _reads_trimmed(sel: EngineSelector) -> bool:
    """Whether the oracle must see the window-trimmed input to match this
    engine: raw for the bit-parallel baseline and untrimmed runs."""
    return sel.engine == "stripes" or (
        sel.engine == "pragmatic" and sel.prag.trim == "profile"
    )


def run_layer(
    cfg: ExperimentConfig, layer: LayerConfig, input: Tensor3, filters: FilterSet
) -> list[EngineResult]:
    """Every engine variant of the run on one layer, in config order.

    Each input view is lowered once and shared by the variants that read
    it. Raises :class:`OracleMismatch` if any engine disagrees with the
    brute-force convolution on its input view.
    """
    lowered = LayerLowering(input, filters, layer.spec, cfg.width, cfg.out_shift)
    oracles: dict[bool, Tensor3] = {}
    results = []
    for sel in cfg.engines:
        result = _run(sel, layer, lowered)
        trimmed = _reads_trimmed(sel)
        if trimmed not in oracles:
            # built apart from the engines' lowering, so a wrong view shows
            view = Tensor3(trim_tensor(input.data, layer.precision)) if trimmed else input
            oracles[trimmed] = conv_oracle(view, filters, layer.spec, cfg.out_shift)
        if result.output != oracles[trimmed]:
            raise OracleMismatch(
                f"{sel.label()} output differs from the oracle on layer "
                f"{layer.spec.name!r}"
            )
        results.append(result)
    return results


def simulate(cfg: ExperimentConfig) -> ReportDocument:
    """Run the full layer x engine grid, verifying every output.

    Raises :class:`OracleMismatch` if any engine disagrees with the
    brute-force convolution on its input view.
    """
    rows = []
    terms: dict[str, TermCounts] = {}
    bits = {}
    for index, layer in enumerate(cfg.layers):
        input, filters = build_layer_inputs(cfg, layer, index)
        baseline = dadn_cycles(layer.spec)
        for result in run_layer(cfg, layer, input, filters):
            rows.append((layer.spec.name, result, baseline))
        terms[layer.spec.name] = count_terms(
            input, layer.spec, layer.precision, cfg.width, layer.first_layer
        )
        bits[layer.spec.name] = stats(input.data, cfg.width)
    return report(rows, terms, bits, cfg.width)


def analyze(cfg: ExperimentConfig) -> tuple[dict[str, TermCounts], dict]:
    """Term counts and essential-bit statistics only, no timing."""
    terms: dict[str, TermCounts] = {}
    bits = {}
    for index, layer in enumerate(cfg.layers):
        input = build_layer_input(cfg, layer, index)
        terms[layer.spec.name] = count_terms(
            input, layer.spec, layer.precision, cfg.width, layer.first_layer
        )
        bits[layer.spec.name] = stats(input.data, cfg.width)
    return terms, bits


ANALYZE_CSV_COLUMNS = (
    "layer",
    "width",
    "pairs",
    "terms_dadn",
    "terms_zn",
    "terms_cvn",
    "terms_str",
    "terms_pra_fp16",
    "terms_pra_red",
    "norm_str",
    "norm_pra_fp16",
    "norm_pra_red",
    "essential_frac_all",
    "essential_frac_nz",
    "zero_fraction",
)


def analyze_csv_lines(cfg: ExperimentConfig, terms, bits) -> list[str]:
    lines = [",".join(ANALYZE_CSV_COLUMNS)]
    for layer in cfg.layers:
        name = layer.spec.name
        tc, bs = terms[name], bits[name]
        norm = tc.normalized()
        nz = "" if bs.mean_essential_frac_nonzero is None else (
            f"{bs.mean_essential_frac_nonzero:.6g}"
        )
        lines.append(
            ",".join(
                [
                    name,
                    str(cfg.width),
                    str(tc.pairs),
                    str(tc.totals["dadn"]),
                    str(tc.totals["zn"]),
                    str(tc.totals["cvn"]),
                    str(tc.totals["str"]),
                    str(tc.totals["pra_fp16"]),
                    str(tc.totals["pra_red"]),
                    f"{norm['str']:.6g}",
                    f"{norm['pra_fp16']:.6g}",
                    f"{norm['pra_red']:.6g}",
                    f"{bs.mean_essential_frac_all:.6g}",
                    nz,
                    f"{bs.zero_fraction:.6g}",
                ]
            )
        )
    return lines
