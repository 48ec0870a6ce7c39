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

This module writes both CSVs, ``simulate``'s
(:meth:`ReportDocument.csv_lines`) and ``analyze``'s
(:func:`analyze_csv_lines`), and the ``simulate`` table. Every CSV cell
is written by one rule, :func:`csv_line`'s: a float to 6 significant
digits, None as an empty cell, any other value by ``str``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .config import ExperimentConfig
from .encoding import BitStats
from .geometry import LayerSpec, Tensor3, num_pairs, window_sum
from .numerics import MissingProfile, Precision, trim_tensor
from .reference import CycleReport, EngineResult, dadn_terms, effectual_terms, variant_key

ENGINE_TAGS = ("dadn", "zn", "cvn", "str", "pra_fp16", "pra_red")
# The engine tags whose term counts analyze also writes over the baseline's.
NORM_TAGS = ("str", "pra_fp16", "pra_red")

# The CycleReport counters simulate's CSV writes, in column order: both
# the header and each row's values come from these names.
COUNTER_COLUMNS = (
    "compute_cycles",
    "stall_cycles",
    "nm_fetch_cycles",
    "sb_reads",
    "total_terms",
    "effectual_terms",
)
_counters = attrgetter(*COUNTER_COLUMNS)

ANALYZE_CSV_COLUMNS = (
    "layer",
    "width",
    "pairs",
    *(f"terms_{tag}" for tag in ENGINE_TAGS),
    *(f"norm_{tag}" for tag in NORM_TAGS),
    "essential_frac_all",
    "essential_frac_nz",
    "zero_fraction",
)


def csv_line(values: Iterable) -> str:
    """One CSV line of report cells: a float to 6 significant digits,
    None as an empty cell, any other value by ``str``."""
    return ",".join("" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)
                    for v in values)


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
    totals = {
        "dadn": dadn_terms(spec, width),
        "zn": width * nonzero * spec.n,
        "cvn": width * (uses if first_layer else nonzero) * spec.n,
        "str": profile.width * pairs,
        "pra_fp16": effectual_terms(values, spec, width),
        "pra_red": effectual_terms(trim_tensor(values, profile), spec, width),
    }
    return TermCounts(totals=totals, pairs=pairs)


@dataclass
class LayerRow:
    """One layer x engine-variant line of the report: the run's counters
    as its :class:`~bitsim.reference.CycleReport`, and the layer's
    bit-parallel baseline cycles. The run's output tensor is not kept."""

    layer: str
    engine: str
    variant: str
    width: int
    report: CycleReport
    baseline_cycles: int

    @property
    def key(self) -> str:
        """The row's :func:`~bitsim.reference.variant_key`."""
        return variant_key(self.engine, self.variant)

    @property
    def speedup(self) -> float:
        return self.baseline_cycles / self.report.compute_cycles


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
        *COUNTER_COLUMNS,
        "speedup_vs_dadn",
        "oracle_ok",
    )

    def aggregate_speedups(self) -> dict[str, float]:
        """Time-weighted speedup per design point (:attr:`LayerRow.key`): total
        baseline over total own cycles, as whole-network averages compose."""
        base: dict[str, int] = {}
        own: dict[str, int] = {}
        for row in self.rows:
            base[row.key] = base.get(row.key, 0) + row.baseline_cycles
            own[row.key] = own.get(row.key, 0) + row.report.compute_cycles
        return {k: base[k] / own[k] for k in base}

    def geomean_speedups(self) -> dict[str, float]:
        """Per-layer geometric means, reported separately from the
        time-weighted aggregate."""
        acc: dict[str, list[float]] = {}
        for row in self.rows:
            acc.setdefault(row.key, []).append(row.speedup)
        return {k: float(np.exp(np.mean(np.log(v)))) for k, v in acc.items()}

    def csv_lines(self) -> list[str]:
        """The ``simulate`` CSV: a header of :attr:`CSV_COLUMNS`, then one
        line per row. ``oracle_ok`` is 1: a mismatch aborts the run
        before any row."""
        return [csv_line(self.CSV_COLUMNS), *(
            csv_line([r.layer, r.engine, r.variant, r.width, *_counters(r.report),
                      r.speedup, 1])
            for r in self.rows)]

    def table(self) -> str:
        """Human-readable summary table."""
        header = (
            f"{'layer':<12} {'engine':<10} {'variant':<16} {'cycles':>10} "
            f"{'stall':>8} {'sb':>6} {'terms':>12} {'eff.terms':>12} {'speedup':>8}"
        )
        out = [header, "-" * len(header)]
        for r in self.rows:
            rep = r.report
            out.append(
                f"{r.layer:<12} {r.engine:<10} {r.variant:<16} {rep.compute_cycles:>10} "
                f"{rep.stall_cycles:>8} {rep.sb_reads:>6} {rep.total_terms:>12} "
                f"{rep.effectual_terms:>12} {r.speedup:>8.3f}"
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
    triples plus optional per-layer term counts and bit statistics. Each
    row keeps its result's :class:`~bitsim.reference.CycleReport`, not the
    result, so no output tensor outlives the call."""
    return ReportDocument(
        rows=[LayerRow(layer, res.engine, res.variant, width, res.report, baseline)
              for layer, res, baseline in results],
        term_counts=dict(term_counts or {}),
        bit_stats=dict(bit_stats or {}),
    )


def analyze_csv_lines(cfg: ExperimentConfig, terms: dict[str, TermCounts],
                      bits: dict[str, BitStats]) -> list[str]:
    """The ``analyze`` CSV: a header of :data:`ANALYZE_CSV_COLUMNS`, then
    one line per layer, in config order, of its term counts per engine
    tag, those of :data:`NORM_TAGS` over the baseline's, and its
    essential-bit statistics."""
    lines = [csv_line(ANALYZE_CSV_COLUMNS)]
    for layer in cfg.layers:
        name = layer.spec.name
        tc, bs = terms[name], bits[name]
        norm = tc.normalized()
        lines.append(csv_line([
            name, cfg.width, tc.pairs,
            *(tc.totals[tag] for tag in ENGINE_TAGS),
            *(norm[tag] for tag in NORM_TAGS),
            bs.mean_essential_frac_all, bs.mean_essential_frac_nonzero, bs.zero_fraction,
        ]))
    return lines
