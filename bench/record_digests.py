"""Record the reference ``simulate`` and ``analyze`` CSV digests.

Usage, from the checkout root:

    python3 bench/record_digests.py [--workload NAME ...] [--seed N ...]

Runs every named workload (default: all) at every named seed (default:
the benchmark's default seed) and merges the sha256 of the CSV bytes into
``bench/digests.json``. The benchmark counts every row of a pass whose
digest differs from the recorded one as failed, so re-record only when a
change to the CSV bytes is intended and explained.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", action="append", type=int)
    args = ap.parse_args(argv)
    harness.bootstrap()

    table = {}
    if os.path.exists(harness.DIGESTS):
        with open(harness.DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    for workload in args.workload or list(harness.WORKLOADS):
        for seed in args.seed or [harness.DEFAULT_SEED]:
            cfgs = harness.load_workload(workload, seed)
            sim, _ = harness.simulate_pass(cfgs)
            entry = {
                "simulate": harness.sha256(sim),
                "analyze": harness.sha256(harness.analyze_pass(cfgs)),
            }
            table.setdefault(workload, {})[str(seed)] = entry
            print(workload, seed, entry["simulate"][:16], entry["analyze"][:16], flush=True)
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
    with open(harness.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
