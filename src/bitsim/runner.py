"""Experiment orchestration: build inputs, run engines, verify, report.

Every engine variant in a run consumes the same generated or loaded
tensors, so the designs see identical synapse reuse and comparisons are
fair. Each input view (raw or profile-trimmed) is lowered once per
layer and shared by every variant that reads it. Each engine's output
is checked against the brute-force oracle on its own input view; a
mismatch is an engine bug and aborts the run.

``simulate`` keeps one side thread beside the main thread, which runs
the engines. The oracle shares no code with the engines and reads only
the layer's inputs, and each layer's inputs come from generators of
their own. So a layer's input build and its oracles are jobs: a large
layer queues them on the side thread, which draws the next layer's
inputs and then computes layer k's oracles while layer k's engines run,
and a small layer's run on the main thread when due. At most two
layers' inputs are alive at once. Each view is lowered in bands of
output rows (see :class:`~bitsim.reference.ViewLowering`), so the
lowering and an oracle running beside it stay small in memory.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from operator import itemgetter

import numpy as np

from .analysis import ENGINE_TAGS, ReportDocument, TermCounts, count_terms, report
from .config import EngineSelector, ExperimentConfig, LayerConfig
from .encoding import BitStats, stats
from .geometry import FilterSet, Tensor3, container_bounds, output_dims
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
    else:
        if cfg.width == 8:
            tensor = generate_quantized_trace(
                spec, cfg.trace_sigma, cfg.trace_relu, layer.quant, cfg.seed, index
            )
        else:
            tensor = generate_trace(spec, cfg.trace_sigma, cfg.trace_relu, cfg.seed, index)
        if layer.depth is not None:
            tensor.data[:, :, layer.depth :] = 0  # the zero-extension channels
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


def _oracle(cfg: ExperimentConfig, layer: LayerConfig, input: Tensor3,
            filters: FilterSet, trimmed: bool) -> Tensor3:
    """The brute-force output of the layer's raw or trimmed input view."""
    # built apart from the engines' lowering, so a wrong view shows
    view = Tensor3(trim_tensor(input.data, layer.precision)) if trimmed else input
    return conv_oracle(view, filters, layer.spec, cfg.out_shift)


def _oracle_jobs(cfg: ExperimentConfig, layer: LayerConfig, input: Tensor3,
                 filters: FilterSet, make: Callable[..., _Job]) -> dict[bool, _Job]:
    """Per input view the engines read, in the order they first read it,
    its oracle as a job made by ``make``: ``_Job`` or ``_SideThread.submit``."""
    return {trimmed: make(_oracle, cfg, layer, input, filters, trimmed)
            for trimmed in dict.fromkeys(map(_reads_trimmed, cfg.engines))}


def run_layer(
    cfg: ExperimentConfig, layer: LayerConfig, input: Tensor3, filters: FilterSet,
    oracles: dict[bool, _Job] | None = None,
) -> list[EngineResult]:
    """Every engine variant of the run on one layer, in config order.

    Each input view is lowered once and shared by the variants that read
    it. Each engine's output is compared with the outcome of its view's
    oracle job, ``oracles[trimmed]``, once the engine has run. The job
    runs once, for the first engine on its view unless a side thread has
    claimed it; by default none is queued. Raises :class:`OracleMismatch`
    if any engine disagrees with the brute-force convolution on its view.
    """
    if oracles is None:
        oracles = _oracle_jobs(cfg, layer, input, filters, _Job)
    lowered = LayerLowering(input, filters, layer.spec, cfg.width, cfg.out_shift)
    results = []
    for sel in cfg.engines:
        result = _run(sel, layer, lowered)
        if result.output != oracles[_reads_trimmed(sel)].result():
            raise OracleMismatch(
                f"{sel.label()} output differs from the oracle on layer "
                f"{layer.spec.name!r}"
            )
        results.append(result)
    return results


def _layer_terms(cfg: ExperimentConfig, layer: LayerConfig,
                 input: Tensor3) -> tuple[TermCounts, BitStats]:
    """The layer's term counts and essential-bit statistics."""
    terms = count_terms(input, layer.spec, layer.precision, cfg.width, layer.first_layer)
    return terms, stats(input.data, cfg.width)


def _other_cpus() -> tuple[set[int], set[int]] | None:
    """The CPUs this thread may run on, and those less the one it runs on
    now; None where either is unknown or no other CPU is left."""
    try:
        allowed = os.sched_getaffinity(0)
        with open("/proc/thread-self/stat", "rb") as fh:  # field 39: the CPU
            here = int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (AttributeError, OSError, ValueError, IndexError):  # no affinity or /proc
        return None
    others = allowed - {here}
    return (allowed, others) if others else None


class _Job:
    """One call, run once by whoever first takes its own lock (never
    released): the side thread, if it is queued there, or the caller of
    :meth:`result`. Once run, it drops the call and keeps the outcome."""

    def __init__(self, fn: Callable, *args):
        self.fn, self.args = fn, args
        self._claim = threading.Lock()
        self._pending = threading.Lock()  # held until the job has run
        self._pending.acquire()  # cheaper than an Event by about 3.5 us a job
        self.outcome = None

    def claim(self) -> bool:
        """Whether the caller is the first to claim the job, and so runs it."""
        return self._claim.acquire(blocking=False)

    def run(self) -> None:
        try:
            self.outcome = self.fn(*self.args)
        except BaseException as e:  # raised again by result, on the caller
            self.outcome = e
        finally:
            self.fn = self.args = None
            self._pending.release()

    def result(self):
        """The job's value, or what it raised, raised again. A job nobody
        has claimed runs here; one already claimed is waited for."""
        if self.claim():
            self.run()
        else:
            with self._pending:  # free once the claimant has run it
                pass
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


class _SideThread:
    """One thread that runs a queue of jobs in order, beside the main thread.

    The thread starts with the first job. Its starter moves it off the
    CPU the starter runs on, and the thread waits for that before its
    first job; it then lets itself run on every CPU again. A new thread
    starts on its parent's CPU, and a scheduler may leave it there while
    another CPU idles: on a 2-vCPU guest, for 150-400 ms, longer than a
    layer, so the two threads took turns on one CPU. A thread that moved
    itself would hold the interpreter lock while the other CPU woke up.

    A caller asks for a queued job's :meth:`_Job.result` when it is due,
    and runs the job itself if the thread has not started it, so it never
    waits on the thread's backlog. Where no thread can be started,
    :meth:`submit` queues nothing and the job runs when due, so it holds
    its outcome only while the caller does. :meth:`close` drops the jobs
    not started and joins the thread.

    The queue, and the ``queue`` module, are made with the thread, at the
    first job: a run that hands over no job loads neither.
    """

    def __init__(self):
        self._queue = None  # made with the thread: a SimpleQueue of jobs, None to stop
        self._thread: threading.Thread | None = None
        self._placed = threading.Event()
        self._closed = False  # the thread drops the jobs it takes from now on

    def submit(self, fn: Callable, *args) -> _Job:
        job = _Job(fn, *args)
        if self._thread is None:
            self._start()
        if self._queue is not None:
            self._queue.put(job)
        return job

    def _start(self) -> None:
        import queue

        cpus = _other_cpus()
        self._queue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._loop, args=(cpus,), name="bitsim-side")
        try:
            self._thread.start()
        except RuntimeError:  # the system would start no thread: jobs run when due
            self._queue = None
            return
        try:
            if cpus is not None:
                os.sched_setaffinity(self._thread.native_id, cpus[1])
        except OSError:  # moving threads is not allowed here
            pass
        finally:
            self._placed.set()

    def _loop(self, cpus: tuple[set[int], set[int]] | None) -> None:
        self._placed.wait()  # off the starter's CPU before the first job
        if cpus is not None:
            try:  # so that a descheduled CPU does not hold it
                os.sched_setaffinity(0, cpus[0])
            except OSError:
                pass
        while (job := self._queue.get()) is not None:  # None: closed
            if not self._closed and job.claim():
                job.run()
            del job  # not kept, with its outcome, while the queue is empty

    def close(self) -> None:
        if self._queue is not None:  # a thread runs
            self._closed = True
            self._queue.put(None)
            self._thread.join()


# Fewest multiply-accumulates a layer must hold for its input build and
# its oracles to run on the side thread. Handing a job over costs the
# main thread about 1 ms (the thread's start or wake-up, and the
# interpreter lock it takes while the main thread runs Python), which is
# what a layer of some 10^7 MACs spends in its oracles.
SIDE_MIN_MACS = 1 << 24


def _on_side(layer: LayerConfig) -> bool:
    spec = layer.spec
    ox, oy, _ = output_dims(spec)
    return oy * ox * spec.n * spec.fy * spec.fx * spec.i >= SIDE_MIN_MACS


def simulate(cfg: ExperimentConfig) -> ReportDocument:
    """Run the full layer x engine grid, verifying every output.

    Each layer's input build and each of its oracles, one per input view
    in the order the engines first read the views, is a :class:`_Job`.
    A layer of at least :data:`SIDE_MIN_MACS` multiply-accumulates queues
    its jobs on one side thread, which runs them in order: by the time
    the main thread starts layer k's engines, the next layer's build is
    queued, and behind it layer k's oracles. A smaller layer's jobs are
    never queued. Every job the side thread has not started when it is
    due runs on the main thread. At most two layers' inputs are alive:
    layer k's and the next layer's build.

    Outputs are compared on the main thread, in config order, so a
    failed build, a failed oracle and a mismatch raise as in a serial
    loop, the first one first. The side thread is joined before this
    returns or raises.

    Raises :class:`OracleMismatch` if any engine disagrees with the
    brute-force convolution on its input view.
    """
    rows = []
    terms: dict[str, TermCounts] = {}
    bits = {}
    side = _SideThread()

    def make(layer: LayerConfig) -> Callable[..., _Job]:
        return side.submit if _on_side(layer) else _Job

    # layer 0's build is due at once, so it runs here, beside layer 1's
    build = _Job(build_layer_inputs, cfg, cfg.layers[0], 0) if cfg.layers else None
    try:
        for index, (layer, ahead) in enumerate(zip(cfg.layers, [*cfg.layers[1:], None])):
            next_build = ahead and make(ahead)(build_layer_inputs, cfg, ahead, index + 1)
            input, filters = build.result()
            oracles = _oracle_jobs(cfg, layer, input, filters, make(layer))
            baseline = dadn_cycles(layer.spec)
            for result in run_layer(cfg, layer, input, filters, oracles):
                rows.append((layer.spec.name, result, baseline))
            terms[layer.spec.name], bits[layer.spec.name] = _layer_terms(cfg, layer, input)
            input = filters = oracles = None  # freed before layer k+2's build
            build = next_build
    finally:
        side.close()
    return report(rows, terms, bits, cfg.width)


def analyze(cfg: ExperimentConfig) -> tuple[dict[str, TermCounts], dict]:
    """Term counts and essential-bit statistics only, no timing."""
    terms: dict[str, TermCounts] = {}
    bits = {}
    for index, layer in enumerate(cfg.layers):
        input = build_layer_input(cfg, layer, index)
        terms[layer.spec.name], bits[layer.spec.name] = _layer_terms(cfg, layer, input)
    return terms, bits


# The engine tags whose term counts analyze also writes over the baseline's.
NORM_TAGS = ("str", "pra_fp16", "pra_red")
# A row's terms_* and norm_* fields, in column order, each group in one call
_terms, _norms = itemgetter(*ENGINE_TAGS), itemgetter(*NORM_TAGS)
_TERMS_CSV = ",".join(["%s"] * len(ENGINE_TAGS))
_NORMS_CSV = ",".join(["%.6g"] * len(NORM_TAGS))

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


def analyze_csv_lines(cfg: ExperimentConfig, terms, bits) -> list[str]:
    """The ``analyze`` CSV: a header of :data:`ANALYZE_CSV_COLUMNS`, then
    one line per layer, in config order, of its term counts per engine
    tag, those of :data:`NORM_TAGS` over the baseline's, and its
    essential-bit statistics."""
    lines = [",".join(ANALYZE_CSV_COLUMNS)]
    for layer in cfg.layers:
        name = layer.spec.name
        tc, bs = terms[name], bits[name]
        nz = "" if bs.mean_essential_frac_nonzero is None else (
            f"{bs.mean_essential_frac_nonzero:.6g}"
        )
        lines.append(
            ",".join(
                [
                    name,
                    str(cfg.width),
                    str(tc.pairs),
                    _TERMS_CSV % _terms(tc.totals),
                    _NORMS_CSV % _norms(tc.normalized()),
                    f"{bs.mean_essential_frac_all:.6g}",
                    nz,
                    f"{bs.zero_fraction:.6g}",
                ]
            )
        )
    return lines
