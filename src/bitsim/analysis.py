"""Term-count comparisons across engine models and report assembly.

Every neuron/synapse multiplication is charged an equivalent number of
terms (single-bit partial products):

* ``dadn``     - the full container width, always;
* ``zn``       - width, but zero neurons are free (idealized skipping);
* ``cvn``      - like ``zn`` except the network's first layer pays full;
* ``str``      - the layer's profile width, value-blind;
* ``pra_fp16`` - the neuron's essential bit count, raw container;
* ``pra_red``  - the essential bit count after the profile trim.

Totals include synapse reuse: each neuron use is multiplied by every
filter. For 8-bit containers the same tags apply with width 8 (the
``fp16`` name keeps the raw-container meaning).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import BitStats, essential_counts
from .geometry import LayerSpec, Tensor3, num_pairs, window_sum
from .numerics import MissingProfile, Precision, trim_tensor
from .reference import EngineResult

ENGINE_TAGS = ("dadn", "zn", "cvn", "str", "pra_fp16", "pra_red")


@dataclass(frozen=True)
class TermCounts:
    """Total terms per engine tag for one layer, and ratios vs the baseline."""

    totals: dict[str, int]
    pairs: int

    def __post_init__(self):
        missing = [t for t in ENGINE_TAGS if t not in self.totals]
        if missing:
            raise ValueError(f"missing engine tags: {missing}")

    def normalized(self) -> dict[str, float]:
        base = self.totals["dadn"]
        return {tag: self.totals[tag] / base for tag in ENGINE_TAGS}


def count_terms(
    input: Tensor3,
    spec: LayerSpec,
    profile: Precision | None,
    width: int = 16,
    first_layer: bool = False,
) -> TermCounts:
    """Count equivalent terms each engine processes for one layer."""
    if profile is None:
        raise MissingProfile("term counting needs the layer's precision window")
    values = input.data
    pairs = num_pairs(spec)
    uses = pairs // spec.n  # neuron uses before filter reuse

    nonzero = window_sum(values != 0, spec)
    raw_essential = window_sum(essential_counts(values, width), spec)
    trimmed_essential = window_sum(essential_counts(trim_tensor(values, profile), width), spec)

    totals = {
        "dadn": width * pairs,
        "zn": width * nonzero * spec.n,
        "cvn": width * (uses if first_layer else nonzero) * spec.n,
        "str": profile.width * pairs,
        "pra_fp16": raw_essential * spec.n,
        "pra_red": trimmed_essential * spec.n,
    }
    return TermCounts(totals=totals, pairs=pairs)


@dataclass
class LayerRow:
    """One layer x engine-variant line of the report."""

    layer: str
    engine: str
    variant: str
    width: int
    compute_cycles: int
    stall_cycles: int
    nm_fetch_cycles: int
    sb_reads: int
    total_terms: int
    effectual_terms: int
    baseline_cycles: int
    oracle_ok: bool = True

    @property
    def speedup(self) -> float:
        return self.baseline_cycles / self.compute_cycles


@dataclass
class ReportDocument:
    """Per-layer rows plus aggregate speedups and bit statistics."""

    rows: list[LayerRow] = field(default_factory=list)
    term_counts: dict[str, TermCounts] = field(default_factory=dict)
    bit_stats: dict[str, BitStats] = field(default_factory=dict)

    CSV_COLUMNS = (
        "layer",
        "engine",
        "variant",
        "width",
        "compute_cycles",
        "stall_cycles",
        "nm_fetch_cycles",
        "sb_reads",
        "total_terms",
        "effectual_terms",
        "speedup_vs_dadn",
        "oracle_ok",
    )

    def aggregate_speedups(self) -> dict[str, float]:
        """Time-weighted speedup per engine variant: total baseline cycles
        over total variant cycles (how whole-network averages compose)."""
        base: dict[str, int] = {}
        own: dict[str, int] = {}
        for row in self.rows:
            key = f"{row.engine}:{row.variant}" if row.variant else row.engine
            base[key] = base.get(key, 0) + row.baseline_cycles
            own[key] = own.get(key, 0) + row.compute_cycles
        return {k: base[k] / own[k] for k in base}

    def geomean_speedups(self) -> dict[str, float]:
        """Per-layer geometric means, reported separately from the
        time-weighted aggregate."""
        acc: dict[str, list[float]] = {}
        for row in self.rows:
            key = f"{row.engine}:{row.variant}" if row.variant else row.engine
            acc.setdefault(key, []).append(row.speedup)
        return {k: float(np.exp(np.mean(np.log(v)))) for k, v in acc.items()}

    def csv_lines(self) -> list[str]:
        lines = [",".join(self.CSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        r.layer,
                        r.engine,
                        r.variant,
                        str(r.width),
                        str(r.compute_cycles),
                        str(r.stall_cycles),
                        str(r.nm_fetch_cycles),
                        str(r.sb_reads),
                        str(r.total_terms),
                        str(r.effectual_terms),
                        f"{r.speedup:.6g}",
                        "1" if r.oracle_ok else "0",
                    ]
                )
            )
        return lines

    def table(self) -> str:
        """Human-readable summary table."""
        header = (
            f"{'layer':<12} {'engine':<10} {'variant':<16} {'cycles':>10} "
            f"{'stall':>8} {'sb':>6} {'terms':>12} {'eff.terms':>12} {'speedup':>8}"
        )
        out = [header, "-" * len(header)]
        for r in self.rows:
            out.append(
                f"{r.layer:<12} {r.engine:<10} {r.variant:<16} {r.compute_cycles:>10} "
                f"{r.stall_cycles:>8} {r.sb_reads:>6} {r.total_terms:>12} "
                f"{r.effectual_terms:>12} {r.speedup:>8.3f}"
            )
        agg = self.aggregate_speedups()
        geo = self.geomean_speedups()
        if agg:
            out.append("-" * len(header))
            out.append("aggregate speedup vs dadn (time-weighted | per-layer geomean):")
            for key in sorted(agg):
                out.append(f"  {key:<28} {agg[key]:>8.3f} | {geo[key]:.3f}")
        if self.term_counts:
            out.append("-" * len(header))
            out.append(
                f"{'layer':<12} {'norm zn':>8} {'norm cvn':>9} {'norm str':>9} "
                f"{'norm fp':>8} {'norm red':>9} {'ess.all':>8} {'ess.nz':>8} "
                f"{'zeros':>7}"
            )
            for layer, tc in self.term_counts.items():
                norm = tc.normalized()
                bs = self.bit_stats.get(layer)
                nz = "-" if bs is None or bs.mean_essential_frac_nonzero is None \
                    else f"{bs.mean_essential_frac_nonzero:.3f}"
                ess = "-" if bs is None else f"{bs.mean_essential_frac_all:.3f}"
                zf = "-" if bs is None else f"{bs.zero_fraction:.3f}"
                out.append(
                    f"{layer:<12} {norm['zn']:>8.3f} {norm['cvn']:>9.3f} "
                    f"{norm['str']:>9.3f} {norm['pra_fp16']:>8.3f} "
                    f"{norm['pra_red']:>9.3f} {ess:>8} {nz:>8} {zf:>7}"
                )
        return "\n".join(out)


def report(
    results: list[tuple[str, EngineResult, int]],
    term_counts: dict[str, TermCounts] | None = None,
    bit_stats: dict[str, BitStats] | None = None,
    width: int = 16,
) -> ReportDocument:
    """Assemble the report from (layer name, engine result, baseline cycles)
    triples plus optional per-layer term counts and bit statistics."""
    doc = ReportDocument(
        term_counts=dict(term_counts or {}), bit_stats=dict(bit_stats or {})
    )
    for layer, res, baseline in results:
        doc.rows.append(
            LayerRow(
                layer=layer,
                engine=res.engine,
                variant=res.variant,
                width=width,
                compute_cycles=res.report.compute_cycles,
                stall_cycles=res.report.stall_cycles,
                nm_fetch_cycles=res.report.nm_fetch_cycles,
                sb_reads=res.report.sb_reads,
                total_terms=res.report.total_terms,
                effectual_terms=res.report.effectual_terms,
                baseline_cycles=baseline,
            )
        )
    return doc
