"""Shared pieces of the bitsim benchmark: workload table, bootstrap, CSV gate.

The benchmark drives bitsim from outside, through its public functions,
and imports it from ``src/`` of the checkout it lives in. Nothing here
imports numpy or bitsim at module level, so :func:`bootstrap` can pin
the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
DIGESTS = os.path.join(BENCH, "digests.json")

DEFAULT_SEED = 1

# Workload name -> config files, relative to the checkout root. Each pass
# of a workload runs its configs in this order with the seed overridden.
WORKLOADS = {
    "vgg_pallet": ["bench/workloads/vgg_pallet.json"],
    "alexnet_column": ["bench/workloads/alexnet_column.json"],
    "shipped_configs": ["configs/example.json", "configs/quantized.json"],
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, configs or tools)."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def bootstrap():
    """Pin BLAS to one thread, put the checkout's ``src`` first, import
    bitsim.

    OpenBLAS worker threads spin while they wait. On two shared cores,
    two of them made a ``shipped_configs`` pass swing by a quarter from
    call to call, against 4% with one thread. Child processes inherit
    the setting. Raises :class:`BenchError` unless bitsim comes from
    this checkout.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not os.path.isdir(os.path.join(SRC, "bitsim")):
        raise BenchError(f"no bitsim sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bitsim

    origin = os.path.realpath(os.path.dirname(bitsim.__file__))
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"bitsim imported from {origin}, not from {SRC}")
    return bitsim


def config_paths(workload: str) -> list[str]:
    paths = [os.path.join(ROOT, p) for p in WORKLOADS[workload]]
    missing = [p for p in paths if not os.path.isfile(p)]
    if missing:
        raise BenchError(f"workload {workload!r} is missing {missing}")
    return paths


def load_workload(workload: str, seed: int):
    """The workload's parsed configs, seed overridden as ``--seed`` does."""
    from bitsim.config import load_config

    cfgs = []
    for path in config_paths(workload):
        cfg = load_config(path)
        cfg.seed = seed
        cfgs.append(cfg)
    return cfgs


def rows_per_pass(cfgs) -> int:
    """Operations in one pass: one per (layer, engine variant) row."""
    return sum(len(c.layers) * len(c.engines) for c in cfgs)


def analyze_rows(cfgs) -> int:
    return sum(len(c.layers) for c in cfgs)


def csv_bytes(lines: list[str]) -> bytes:
    """The bytes the CLI writes for ``lines``."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def simulate_pass(cfgs) -> tuple[bytes, list]:
    """One ``simulate`` of every config; the CSV bytes and the documents."""
    from bitsim.runner import simulate

    docs = [simulate(cfg) for cfg in cfgs]
    return b"".join(csv_bytes(d.csv_lines()) for d in docs), docs


def analyze_pass(cfgs) -> bytes:
    from bitsim.runner import analyze, analyze_csv_lines

    out = []
    for cfg in cfgs:
        terms, bits = analyze(cfg)
        out.append(csv_bytes(analyze_csv_lines(cfg, terms, bits)))
    return b"".join(out)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def recorded_digests(workload: str, seed: int) -> dict | None:
    """``{"simulate": sha, "analyze": sha}`` recorded for this seed, if any."""
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


PROBE_REF_S = 0.0003  # child.SpeedProbe.kernel's time at the reference speed
SETUP_REF_S = 0.02  # child.interpreter_kernel's time at the reference speed


def at_reference_speed(raw: list[float], cal: list[float], ref_s: float) -> list[float]:
    """Scale each sample to the reference speed, where the kernel timed
    with it takes ``ref_s``: a sample whose kernel ran 1.3 times slower
    than that is divided by 1.3."""
    return [t * ref_s / c for t, c in zip(raw, cal)]


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (nearest rank; none below 21 samples), and the sample count."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n}
    q = int(100 - 1000 / n) if n else 0
    if q > 50:
        ordered = sorted(samples)
        rank = -(-q * n // 100)  # ceil(q/100 * n), 1-based
        out[f"p{q}"] = ordered[rank - 1]
    return out
