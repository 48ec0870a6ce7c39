"""Traced replay of ``bitsim.runner.simulate`` and per-stage probes.

The replay makes the same public calls as ``runner.simulate``, in the
same order, with one span around each call. Probe spans re-call, on the
same inputs, stages that the engines run internally (im2col, column
costs, the dispatcher fetch model, the column-sync arbiter); they are
marked as probes and left out of the loop total. Spans stay in memory
and are written out when the benchmark ends.

Peak memory of a span is the highest resident set size a sampling
process sees while the span is open, minus the resident size at its
start. Before each such span the C heap is trimmed, so memory freed by
earlier stages does not hide the growth. Trimming and talking to the
sampler happen in probe spans named ``trace.mem``.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from bitsim import geometry as geo
from bitsim import runner
from bitsim.analysis import count_terms, report
from bitsim.config import load_config
from bitsim.encoding import stats
from bitsim.geometry import BRICK, PALLET, Tensor3, output_dims
from bitsim.numerics import trim_tensor
from bitsim.pragmatic import column_costs, dispatcher_fetch_cycles, simulate_column_sync
from bitsim.reference import conv_oracle, dadn_cycles, im2col

# Span name -> per-layer metric of its summed duration.
TIME_METRICS = {
    "config.load": "config.load_s",
    "traces.build": "traces.build_s",
    "reference.im2col": "reference.im2col_s",
    "reference.oracle": "reference.oracle_s",
    "reference.dadn": "reference.dadn_s",
    "stripes.layer": "stripes.layer_s",
    "pragmatic.pallet": "pragmatic.pallet_s",
    "pragmatic.column": "pragmatic.column_s",
    "pragmatic.column_costs": "pragmatic.column_costs_s",
    "pragmatic.fetch": "pragmatic.fetch_s",
    "pragmatic.column_sync": "pragmatic.column_sync_s",
    "analysis.count_terms": "analysis.count_terms_s",
    "encoding.stats": "encoding.stats_s",
    "analysis.report": "analysis.report_s",
}
# Span name -> per-layer metric of its largest peak.
PEAK_METRICS = {
    "reference.oracle": "reference.oracle_peak_mb",
    "stripes.layer": "stripes.peak_mb",
    "pragmatic.pallet": "pragmatic.pallet_peak_mb",
    "pragmatic.column": "pragmatic.column_peak_mb",
}


def _trim_heap():
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to trim


class RssSampler:
    """Peak resident set size of this process while a span is open.

    A helper process (``child.py rss``) reads this process's
    ``/proc/<pid>/statm`` every millisecond between :meth:`begin` and
    :meth:`end`; sampling from a thread here would contend for the
    interpreter lock and slow the spans it measures.
    """

    def __init__(self):
        self._proc = None
        if os.path.exists(f"/proc/{os.getpid()}/statm"):
            self._proc = subprocess.Popen(
                [sys.executable, os.path.join(os.path.dirname(__file__), "child.py"),
                 "rss", str(os.getpid())],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            )

    def _ask(self, cmd: bytes) -> int:
        self._proc.stdin.write(cmd)
        return int(self._proc.stdout.readline())

    def begin(self):
        if self._proc:
            self._ask(b"b")

    def end(self) -> float:
        """Peak growth since :meth:`begin`, in MB (0 without /proc)."""
        return self._ask(b"e") / 2**20 if self._proc else 0.0

    def close(self):
        if self._proc:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
            self._proc = None


class Tracer:
    """In-memory spans: name, start, end, parent, run id, probe flag."""

    def __init__(self, sampler: RssSampler):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._sampler = sampler
        self.run_id = 0

    @contextmanager
    def span(self, name: str, probe: bool = False, mem: bool = False, **attrs):
        if mem:
            with self.span("trace.mem", probe=True):
                _trim_heap()
                self._sampler.begin()
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "probe": probe, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if mem:
                with self.span("trace.mem", probe=True):
                    rec["peak_mb"] = self._sampler.end()


def engine_span(sel) -> str:
    if sel.engine == "dadn":
        return "reference.dadn"
    if sel.engine == "stripes":
        return "stripes.layer"
    return f"pragmatic.{sel.prag.sync}"


def variant_key(sel) -> str:
    return sel.label().replace(":", ".")


def uses_trimmed_view(sel) -> bool:
    """Whether the oracle checks this engine on the window-trimmed input."""
    return sel.engine == "stripes" or (
        sel.engine == "pragmatic" and sel.prag.trim == "profile"
    )


def layer_masks(x: np.ndarray, spec) -> np.ndarray:
    """Column-cost input: magnitudes as (pallet, brick-step, window, lane),
    with zero masks for idle lanes past the row edge."""
    ox, oy, _ = output_dims(spec)
    k = geo.num_brick_steps(spec)
    nb = -(-ox // PALLET)
    padded = np.zeros((oy, nb * PALLET, k, BRICK), dtype=np.int64)
    padded[:, :ox] = np.abs(x).reshape(oy, ox, k, BRICK)
    arr = padded.reshape(oy, nb, PALLET, k, BRICK).transpose(0, 1, 3, 2, 4)
    return arr.reshape(oy * nb, k, PALLET, BRICK)


class Replay:
    """One traced pass of a workload: the replayed loop plus probes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.csv: list[list[str]] = []      # per config
        self.rows: list[tuple] = []         # (variant key, CycleReport, pairs)
        self.mismatches = 0                 # rows whose output != oracle
        self.probe_mismatches = 0           # probes disagreeing with the engine
        self.column_sync_events = 0
        self._layers: list[tuple] = []      # kept for the probes

    def run(self, paths: list[str], seed: int):
        t = self.tracer
        with t.span("run"):
            cfgs = []
            for path in paths:
                with t.span("config.load"):
                    cfg = load_config(path)
                cfg.seed = seed
                cfgs.append(cfg)
            for cfg in cfgs:
                self._simulate(cfg)
            with t.span("probes", probe=True):
                for item in self._layers:
                    self._probe(*item)
        self._layers = []

    def _simulate(self, cfg):
        t = self.tracer
        with t.span("runner.simulate"):
            rows, terms, bits = [], {}, {}
            for index, layer in enumerate(cfg.layers):
                name = layer.spec.name
                with t.span("traces.build", layer=name):
                    input, filters = runner.build_layer_inputs(cfg, layer, index)
                baseline = dadn_cycles(layer.spec)
                oracles = {}
                done = []
                for sel in cfg.engines:
                    with t.span(engine_span(sel), mem=True, layer=name,
                                variant=variant_key(sel)):
                        result = runner.run_engine(
                            sel, input, filters, layer, cfg.width, cfg.out_shift
                        )
                    trimmed = uses_trimmed_view(sel)
                    view = Tensor3(trim_tensor(input.data, layer.precision)) \
                        if trimmed else input
                    if trimmed not in oracles:
                        with t.span("reference.oracle", mem=True, layer=name):
                            oracles[trimmed] = conv_oracle(
                                view, filters, layer.spec, cfg.out_shift
                            )
                    if result.output != oracles[trimmed]:
                        self.mismatches += 1
                    rows.append((name, result, baseline))
                    done.append((sel, result.report))
                with t.span("analysis.count_terms", layer=name):
                    terms[name] = count_terms(
                        input, layer.spec, layer.precision, cfg.width, layer.first_layer
                    )
                with t.span("encoding.stats", layer=name):
                    bits[name] = stats(input.data, cfg.width)
                for sel, rep in done:
                    self.rows.append((variant_key(sel), rep, terms[name].pairs))
                self._layers.append((layer, input, filters, done))
            with t.span("analysis.report"):
                self.csv.append(report(rows, terms, bits, cfg.width).csv_lines())

    def _probe(self, layer, input, filters, done):
        t = self.tracer
        spec = layer.spec
        views = {}
        for flag in sorted({uses_trimmed_view(sel) for sel, _ in done}):
            view = Tensor3(trim_tensor(input.data, layer.precision)) if flag else input
            with t.span("reference.im2col", probe=True, layer=spec.name):
                views[flag] = im2col(view, spec)
        groups = geo.filter_groups(spec)
        for sel, rep in done:
            if sel.engine != "pragmatic":
                continue
            cfg = sel.prag
            masks = layer_masks(views[uses_trimmed_view(sel)], spec)
            with t.span("pragmatic.column_costs", probe=True, layer=spec.name):
                costs = column_costs(masks, cfg.l_bits)
            with t.span("pragmatic.fetch", probe=True, layer=spec.name):
                nm_c = dispatcher_fetch_cycles(spec)
            if cfg.sync == "pallet":
                cycles = groups * int(np.maximum(costs.max(axis=2), nm_c).sum())
            else:
                flat = costs.reshape(-1, PALLET)
                with t.span("pragmatic.column_sync", probe=True, layer=spec.name,
                            events=int(flat.size)):
                    sched = simulate_column_sync(
                        flat, nm_c, cfg.ssr_count, cfg.effective_buffer
                    )
                cycles = groups * sched.total_cycles
                self.column_sync_events += int(flat.size)
            if cycles != rep.compute_cycles:
                self.probe_mismatches += 1


def _duration(span) -> float:
    return span["end"] - span["start"]


def check_spans(spans: list[dict]) -> list[str]:
    """Structural problems: a span outside its parent, mixed run ids under
    one root, or non-probe children outlasting a loop span."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        if s["run"] != parent["run"]:
            problems.append(f"span {s['id']} {s['name']} has another run id than its parent")
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['id']} {s['name']} is not inside its parent")
    for loop in (s for s in spans if s["name"] == "runner.simulate"):
        kids = [c for c in spans if c["parent"] == loop["id"] and not c["probe"]]
        if sum(map(_duration, kids)) > _duration(loop):
            problems.append(f"children of loop span {loop['id']} outlast it")
    return problems


def layer_metrics(spans: list[dict], replay: Replay, untraced_s: float) -> dict:
    """Per-layer values of one traced pass (run id), by metric name."""
    out = {m: 0.0 for m in TIME_METRICS.values()}
    out.update({m: 0.0 for m in PEAK_METRICS.values()})
    for s in spans:
        if s["name"] in TIME_METRICS:
            out[TIME_METRICS[s["name"]]] += _duration(s)
        if s["name"] in PEAK_METRICS:
            key = PEAK_METRICS[s["name"]]
            out[key] = max(out[key], s["peak_mb"])

    loop_total = self_s = 0.0
    for loop in (s for s in spans if s["name"] == "runner.simulate"):
        kids = [c for c in spans if c["parent"] == loop["id"]]
        total = _duration(loop) - sum(_duration(c) for c in kids if c["probe"])
        loop_total += total
        self_s += total - sum(_duration(c) for c in kids if not c["probe"])
    out["runner.self_s"] = self_s
    out["trace.overhead_s"] = loop_total - untraced_s
    out["trace.untraced_simulate_s"] = untraced_s

    events = replay.column_sync_events
    out["pragmatic.column_sync_us_per_event"] = (
        out["pragmatic.column_sync_s"] * 1e6 / events if events else 0.0
    )
    out["work.column_sync_events"] = events
    out["work.pairs"] = sum(pairs for _, _, pairs in replay.rows)

    sums: dict[str, dict[str, int]] = {}
    for key, rep, _ in replay.rows:
        acc = sums.setdefault(key, {"cycles": 0, "stall_cycles": 0, "sb_reads": 0,
                                    "effectual": 0, "total": 0})
        acc["cycles"] += rep.compute_cycles
        acc["stall_cycles"] += rep.stall_cycles
        acc["sb_reads"] += rep.sb_reads
        acc["effectual"] += rep.effectual_terms
        acc["total"] += rep.total_terms
    for key, acc in sums.items():
        out[f"model.{key}.cycles"] = acc["cycles"]
        out[f"model.{key}.stall_cycles"] = acc["stall_cycles"]
        out[f"model.{key}.sb_reads"] = acc["sb_reads"]
        out[f"model.{key}.effectual_frac"] = (
            acc["effectual"] / acc["total"] if acc["total"] else 0.0
        )
    return out
