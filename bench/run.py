"""bitsim benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; bitsim is imported from its ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it replays the runner loop with spans
and reports the per-layer metrics. Either way the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and a manifest with the full result is written under
``bench/out/``. Host times are simulator time; ``model.*`` counts are
simulated time.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time

import harness

CHILD_TIMEOUT_S = 160
SETUP_SAMPLES = 25
MODEL_NOTE = (
    "The cycle model has not been checked against the paper's published "
    "figures: the repository holds no reference results, so no error "
    "figure is given."
)


def _spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child(mode: str, workload: str, seed: int, *extra) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(harness.BENCH, "child.py"), mode, workload,
         str(seed), *map(str, extra)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=harness.ROOT,
    )
    if proc.returncode != 0:
        raise harness.BenchError(f"child {mode} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(harness.ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(args, bitsim) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": harness.nproc(),
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "bitsim": bitsim.__version__,
        "git_commit": _git_commit(),
        "configs": {
            os.path.relpath(p, harness.ROOT): harness.file_sha256(p)
            for p in harness.config_paths(args.workload)
        },
        "digest_reference": (
            "recorded" if harness.recorded_digests(args.workload, args.seed)
            else "none recorded for this seed; the first pass is the reference"
        ),
        "model_validation": MODEL_NOTE,
    }


class Gate:
    """Counts operations and failures against the reference CSV digests."""

    def __init__(self, workload: str, seed: int):
        ref = harness.recorded_digests(workload, seed) or {}
        self.ref = {"simulate": ref.get("simulate"), "analyze": ref.get("analyze")}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, kind: str, digest: str | None, rows: int):
        """Count ``rows`` operations; all fail unless ``digest`` matches."""
        self.attempted += rows
        if self.ref[kind] is None and digest is not None:
            self.ref[kind] = digest  # no recorded digest: check determinism
        if digest is None or digest != self.ref[kind]:
            self.failed += rows
            if digest is not None:
                self.errors.append(f"{kind} CSV digest {digest[:16]} != {self.ref[kind][:16]}")

    def error(self, kind: str, exc: Exception, rows: int):
        self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        self.check(kind, None, rows)


def end_to_end(args, cfgs, gate: Gate) -> tuple[dict, dict]:
    """Untraced metrics from fresh processes; returns (values, summaries).

    The timings are medians at the reference host speed (see
    ``harness.at_reference_speed``); their raw host seconds and kernel
    times are kept in the summaries.
    """
    m = _child("measure", args.workload, args.seed, SETUP_SAMPLES, args.seconds)
    timings = {}
    for kind, rows in (("simulate", harness.rows_per_pass(cfgs)),
                       ("analyze", harness.analyze_rows(cfgs))):
        gate.errors += m[kind]["errors"]
        for digest in m[kind]["digests"]:
            gate.check(kind, digest, rows)
    for kind, ref_s in (("simulate", harness.PROBE_REF_S), ("analyze", harness.PROBE_REF_S),
                        ("setup", harness.SETUP_REF_S)):
        raw, cal = m[kind]["raw"], m[kind]["cal"]
        timings[f"{kind}_s"] = harness.summarize(harness.at_reference_speed(raw, cal, ref_s))
        timings[f"{kind}_s.raw"] = {**harness.summarize(raw), "samples": raw, "cal": cal}
    sim_s = timings["simulate_s"]["median"]
    values = {
        "simulate_s": sim_s,
        "sim_pairs_per_s": m["pairs"] / sim_s,
        "analyze_s": timings["analyze_s"]["median"],
        "peak_rss_mb": m["maxrss_kb"] / 1024,
        "setup_s": timings["setup_s"]["median"],
    }
    return values, timings


def traced(args, gate: Gate) -> tuple[dict, dict, list, list]:
    """Traced replays until the time budget is spent; per-layer medians."""
    import statistics

    import tracing

    paths = harness.config_paths(args.workload)
    cfgs = harness.load_workload(args.workload, args.seed)
    rows = harness.rows_per_pass(cfgs)
    sampler = tracing.RssSampler()
    tracer = tracing.Tracer(sampler)
    per_pass: list[dict] = []
    problems: list[str] = []
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            try:
                data, _ = harness.simulate_pass(cfgs)
                untraced_s = time.perf_counter() - t0
                gate.check("simulate", harness.sha256(data), rows)
            except Exception as e:
                untraced_s = time.perf_counter() - t0
                gate.error("simulate", e, rows)
            replay = tracing.Replay(tracer)
            try:
                replay.run(paths, args.seed)
            except Exception as e:
                gate.error("simulate", e, rows)
                break
            replay_csv = b"".join(harness.csv_bytes(lines) for lines in replay.csv)
            gate.check("simulate", harness.sha256(replay_csv), rows)
            if replay.mismatches:
                gate.failed += replay.mismatches
                problems.append(f"{replay.mismatches} replayed rows differ from the oracle")
            if replay.probe_mismatches:
                problems.append(f"{replay.probe_mismatches} probes disagree with the engine cycles")
            spans = [s for s in tracer.spans if s["run"] == tracer.run_id]
            problems += tracing.check_spans(spans)
            per_pass.append(tracing.layer_metrics(spans, replay, untraced_s))
            tracer.run_id += 1
            elapsed = time.perf_counter() - start
            if elapsed + (time.perf_counter() - t0) > args.seconds:
                break
    finally:
        sampler.close()
    names = sorted({k for p in per_pass for k in p})
    values = {k: statistics.median([p.get(k, 0) for p in per_pass]) for k in names}
    return values, {"passes": len(per_pass)}, tracer.spans, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bitsim benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spans: list = []
    problems: list[str] = []
    try:
        spec = _spec()
        bitsim = harness.bootstrap()
        cfgs = harness.load_workload(args.workload, args.seed)
        gate = Gate(args.workload, args.seed)
        if args.trace:
            values, timings, spans, problems = traced(args, gate)
            wanted = spec["per_layer"]
        else:
            values, timings = end_to_end(args, cfgs, gate)
            wanted = spec["end_to_end"]
    except (OSError, ValueError, KeyError, harness.BenchError,
            subprocess.TimeoutExpired) as e:
        print(f"bench: cannot run here: {e}", file=sys.stderr)
        return 2

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            if args.trace:  # a variant or stage this workload does not run
                values[m["name"]] = 0
            else:
                problems.append(f"end-to-end metric {m['name']} was not measured")
                continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    listed = {m["name"] for m in wanted}
    unlisted = {k: v for k, v in values.items() if k not in listed}

    result = {
        "correct": gate.failed == 0 and not problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    os.makedirs(harness.OUT, exist_ok=True)
    stem = os.path.join(harness.OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "manifest": manifest(args, bitsim),
            "result": result,
            "fail_frac": gate.failed / gate.attempted if gate.attempted else 0.0,
            "timings": timings,
            "unlisted_metrics": unlisted,
            "errors": gate.errors,
            "problems": problems,
        }, fh, indent=1)
    if spans:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    for name, m in metrics.items():
        extra = ""
        if name in timings:
            t = timings[name]
            extra = "  " + " ".join(f"{k}={v:.6g}" for k, v in t.items())
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}{extra}")
    if not args.trace:
        frac = gate.failed / gate.attempted if gate.attempted else 0.0
        print(f"{'fail_frac':<44} {frac:>16.6g} ratio  ({gate.failed}/{gate.attempted})")
    for line in gate.errors[:5] + problems[:5]:
        print(f"problem: {line}")
    print(f"manifest: {os.path.relpath(stem + '.json', harness.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
