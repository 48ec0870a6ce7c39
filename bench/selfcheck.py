"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py [--workload NAME] [--seed N] [--seconds S]

Runs ``run.py`` on one workload (default ``shipped_configs``, the
fastest) once untraced and twice traced, then checks that:

* every printed metric name matches ``[A-Za-z0-9_.-]+``, has a unit and
  is the set BENCHMARK.json lists for that mode;
* every run reports ``correct`` with no failed operation;
* spans nest inside their parents and share their root's run id, and
  the non-probe children of each loop span sum to no more than it;
* the ``model.*`` and ``work.*`` counts repeat exactly across the two
  traced runs.

Exits 0 when all hold, 1 otherwise, printing each problem.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

import harness

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(harness.BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=harness.ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="check the benchmark's own invariants")
    ap.add_argument("--workload", default="shipped_configs", choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=3.0)
    args = ap.parse_args(argv)

    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    results = {t: _run(args.workload, args.seed, args.seconds, t) for t in (0, 1)}
    spans_path = os.path.join(
        harness.OUT, f"{args.workload}-seed{args.seed}-trace1-spans.json"
    )
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    again = _run(args.workload, args.seed, args.seconds, 1)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = results[trace]
        listed = {m["name"] for m in spec[key]}
        if set(res["metrics"]) != listed:
            problems.append(f"--trace {trace} printed {sorted(set(res['metrics']) ^ listed)} "
                            "against BENCHMARK.json")
        for name, m in res["metrics"].items():
            if not NAME_RE.fullmatch(name) or not m.get("unit"):
                problems.append(f"metric {name!r} has a bad name or no unit")
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            problems.append(f"--trace {trace} run not correct: {res['attempted']} attempted, "
                            f"{res['failed']} failed")
    harness.bootstrap()
    import tracing

    problems += tracing.check_spans(spans)
    if not any(s["name"] == "runner.simulate" for s in spans):
        problems.append("no loop span recorded")

    counts = [n for n in results[1]["metrics"] if n.startswith(("model.", "work."))]
    for name in counts:
        a, b = results[1]["metrics"][name]["value"], again["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name} differs across runs: {a} != {b}")

    for p in problems:
        print(f"FAIL {p}")
    print(f"selfcheck {args.workload}: {len(counts)} counts, {len(spans)} spans, "
          f"{'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
