"""Fresh-process measurements for the benchmark; run by ``run.py``.

    python3 bench/child.py setup WORKLOAD SEED
        time to import bitsim and load the workload's configs, and the
        interpreter kernel's time in the same process around it
    python3 bench/child.py measure WORKLOAD SEED SETUPS SECONDS
        one untimed ``simulate`` pass and ``ru_maxrss`` right after it,
        then timed ``simulate`` passes for SECONDS, with timed ``analyze``
        passes for a quarter as long and SETUPS fresh ``setup`` processes
        spread among them; each sample is timed with the speed probe
    python3 bench/child.py rss PID
        resident-set sampler for the traced run (see tracing.RssSampler)

``setup`` and ``measure`` print one JSON object on stdout. A pass that
raises is recorded with a null digest and its error; the loop goes on.
"""

from __future__ import annotations

import json
import math
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time


def sample_rss(pid: int) -> int:
    """Serve one-byte commands on stdin: ``b`` starts sampling the resident
    set of ``pid`` every millisecond, ``e`` stops and answers the peak
    growth in bytes; end of input exits."""
    page = os.sysconf("SC_PAGE_SIZE")
    path = f"/proc/{pid}/statm"

    def rss() -> int:
        with open(path, "rb") as fh:
            return int(fh.read().split()[1]) * page

    fd = sys.stdin.fileno()
    active = False
    base = peak = 0
    while True:
        ready, _, _ = select.select([fd], [], [], 0.001 if active else None)
        if active:
            peak = max(peak, rss())
        if not ready:
            continue
        cmd = os.read(fd, 1)
        if cmd == b"b":
            base = peak = rss()
            active = True
            reply = 0
        elif cmd == b"e":
            peak = max(peak, rss())
            active = False
            reply = peak - base
        else:
            return 0
        os.write(sys.stdout.fileno(), b"%d\n" % reply)


class SpeedProbe:
    """Times a tiny fixed kernel inside each sample, as the host's speed
    while that sample ran.

    On a shared host a core runs the same code up to half slower, in
    stretches shorter than one ``simulate`` pass, and a kernel timed
    between samples misses them. A ``SIGALRM`` every ``PERIOD_S`` runs
    the kernel in the sampled thread itself, between bytecodes of the
    sampled code, so it sees the same core at the same moment. A long
    numpy call defers it, so such stretches give fewer readings.
    """

    PERIOD_S = 0.025

    def __init__(self):
        import numpy as np  # not at module level: bootstrap() pins BLAS first

        self._np = np
        self._x = np.arange(1 << 11, dtype=np.int64)
        self._buf = np.empty_like(self._x)
        self._readings: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self._readings.append(self.kernel()))

    def kernel(self) -> float:
        """An interpreter loop and small numpy calls, about 0.3 ms. It
        allocates nothing, so it takes no page faults."""
        t0 = time.perf_counter()
        acc = 0
        for j in range(3000):
            acc += j & 7
        for _ in range(20):
            self._np.multiply(self._x, 3, out=self._buf)
            acc += int(self._buf.sum())
        return time.perf_counter() - t0

    def time(self, fn) -> tuple[float, float]:
        """Call ``fn``; its seconds without the kernel's, and the median
        kernel time while it ran (one reading after it, if none came)."""
        self._readings = []
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        readings = self._readings or [self.kernel()]
        return elapsed - sum(self._readings), statistics.median(readings)


def interpreter_kernel() -> float:
    """A fixed pure-Python kernel, timed in each set-up process before and
    after its set-up, as that process's speed.

    One set-up's user time varies by up to half from process to process
    on a shared host, with the same work and page faults: it depends on
    the core the process lands on. The kernel, run in the same process,
    slows with it.
    """
    t0 = time.perf_counter()
    acc = 0
    for j in range(150_000):
        acc += j & 7
    names = {}
    for j in range(20_000):
        names[str(j)] = (j, str(j))
    return time.perf_counter() - t0


class SetupSampler:
    """Fresh ``setup`` processes, spread evenly over the measuring loop.

    The host's speed drifts over a run and one set-up varies by up to
    half from process to process, so the samples are many and taken
    throughout. A first, cold process warms the page cache and is not
    kept.
    """

    def __init__(self, workload: str, seed: int, count: int):
        self._argv = [sys.executable, os.path.abspath(__file__), "setup", workload, str(seed)]
        self.count = count
        self.samples = {"raw": [], "cal": []}  # set-up and kernel seconds
        self._one()

    def _one(self) -> dict:
        proc = subprocess.run(self._argv, capture_output=True, text=True, timeout=60, check=True)
        return json.loads(proc.stdout)

    def keep_up(self, share: float):
        """Take samples until ``share`` of the count is done."""
        while len(self.samples["raw"]) < min(self.count, math.ceil(self.count * share)):
            one = self._one()
            self.samples["raw"].append(one["setup_s"])
            self.samples["cal"].append(one["cal_s"])


class Series:
    """Timed samples of ``batch`` calls of ``fn``, which returns a digest:
    seconds per call, the probe's kernel time per sample, digests (None
    on a raise) and errors."""

    def __init__(self, fn, batch: int = 1):
        self.fn, self.batch = fn, batch
        self.out = {"raw": [], "cal": [], "digests": [], "errors": []}
        self.spent = 0.0  # seconds of samples, the probe's included

    def calls(self):
        for _ in range(self.batch):
            try:
                digest = self.fn()
            except Exception as e:  # any raise fails the pass; keep measuring
                digest = None
                self.out["errors"].append(f"{type(e).__name__}: {e}")
            self.out["digests"].append(digest)

    def sample(self, probe: SpeedProbe):
        t0 = time.perf_counter()
        net, cal = probe.time(self.calls)
        self.spent += time.perf_counter() - t0
        self.out["raw"].append(net / self.batch)
        self.out["cal"].append(cal)


def measure(workload: str, seed: int, setups: int, seconds: float) -> dict:
    """Untimed first passes, then ``simulate`` samples for ``seconds``, each
    followed by ``analyze`` samples up to a quarter of the time so far and
    by set-up processes up to the same share of their count, so all three
    see the same stretches of host speed."""
    import harness

    harness.bootstrap()
    cfgs = harness.load_workload(workload, seed)
    sims = Series(lambda: harness.sha256(harness.simulate_pass(cfgs)[0]))
    anas = Series(lambda: harness.sha256(harness.analyze_pass(cfgs)))
    docs = []
    try:  # before anything else allocates, so ru_maxrss is bitsim's own
        data, docs = harness.simulate_pass(cfgs)
        sims.out["digests"].append(harness.sha256(data))
    except Exception as e:
        sims.out["digests"].append(None)
        sims.out["errors"].append(f"{type(e).__name__}: {e}")
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pairs = sum(d.term_counts[r.layer].pairs for d in docs for r in d.rows)
    t0 = time.perf_counter()
    anas.calls()
    anas.batch = max(1, round(0.2 / (time.perf_counter() - t0)))  # about 0.2 s a sample

    probe = SpeedProbe()
    setup = SetupSampler(workload, seed, setups)
    while not sims.out["raw"] or sims.spent < seconds:
        sims.sample(probe)
        while anas.spent < sims.spent / 4 or len(anas.out["raw"]) < 5:
            anas.sample(probe)
        setup.keep_up(sims.spent / seconds)
    setup.keep_up(1.0)
    return {"simulate": sims.out, "analyze": anas.out, "maxrss_kb": maxrss_kb,
            "pairs": pairs, "setup": setup.samples}


def main(argv) -> int:
    mode = argv[0]
    if mode == "rss":
        return sample_rss(int(argv[1]))
    workload, seed = argv[1], int(argv[2])
    if mode == "measure":
        print(json.dumps(measure(workload, seed, int(argv[3]), float(argv[4]))))
        return 0
    import harness  # stdlib only: numpy and bitsim load in bootstrap()

    before = interpreter_kernel()
    t0 = time.perf_counter()
    harness.bootstrap()
    harness.load_workload(workload, seed)
    setup_s = time.perf_counter() - t0
    cal_s = (before + interpreter_kernel()) / 2
    print(json.dumps({"setup_s": setup_s, "cal_s": cal_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
