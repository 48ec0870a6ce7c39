"""Experiment orchestration: build inputs, run engines, verify, report.

Every engine variant in a run consumes the same generated or loaded
tensors, so the designs see identical synapse reuse and comparisons are
fair. Each input view (raw or profile-trimmed) is lowered once per
layer and shared by every variant that reads it. Each engine's output
is checked against the brute-force oracle on its own input view; a
mismatch is an engine bug and aborts the run.

``simulate`` runs the layers in turn beside one side thread, which
draws the next layer's inputs and, for a large layer, works through its
oracles, later views and term counts while its engines run on the main
thread (see :func:`run_layer`). At most two layers' inputs are alive at
once. Each view is lowered in bands of output rows (see
:class:`~bitsim.reference.ViewLowering`), so two lowerings, or a
lowering and an oracle, running side by side stay small in memory.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable
from operator import itemgetter

import numpy as np

from .analysis import ENGINE_TAGS, ReportDocument, TermCounts, count_terms, report
from .config import EngineSelector, ExperimentConfig, LayerConfig
from .encoding import BitStats, stats
from .geometry import FilterSet, Tensor3, container_bounds, num_pairs
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
        depth = spec.i if layer.depth is None else layer.depth  # as declared
        if (tensor.x, tensor.y) != (spec.nx, spec.ny) or tensor.i > depth:
            raise TraceIOError(
                f"{path}: trace dims {tensor.dims} do not fit layer {spec.name!r} "
                f"({spec.nx},{spec.ny},{depth})"
            )
        if tensor.i < spec.i:
            padded = np.zeros((spec.ny, spec.nx, spec.i), dtype=np.int32)
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


def _lower(cfg: ExperimentConfig, layer: LayerConfig, lowered: LayerLowering,
           trimmed: bool) -> None:
    """Lowers the layer's raw or trimmed input view into ``lowered``, as
    the first engine that reads the view would."""
    if trimmed:
        lowered.trimmed(layer.precision)
    else:
        lowered.view(None)


class _Job:
    """One call, run once by whoever first takes the job's lock, which is
    held while it runs: the side thread, if it is queued there, or the
    caller of :meth:`result`. Once run, it drops the call and keeps the
    outcome."""

    def __init__(self, fn: Callable, *args):
        self.fn, self.args = fn, args
        self._lock = threading.Lock()
        self.outcome = None

    def run(self, blocking: bool = True) -> bool:
        """Runs the call unless it has run; False, without running it,
        if another thread holds the job and ``blocking`` is off."""
        if not self._lock.acquire(blocking):
            return False
        if self.fn is not None:  # a dropped call has run
            try:
                self.outcome = self.fn(*self.args)
            except BaseException as e:  # raised again by result, on the caller
                self.outcome = e
            self.fn = self.args = None
        self._lock.release()
        return True

    def result(self, others: Iterable[_Job] = ()):
        """The job's value, or what it raised, raised again. A job nobody
        has started runs here. While another thread runs it, the caller
        runs the jobs of ``others`` nobody has started, in order, until it
        is done, and then waits for it: ``others`` are its layer's jobs,
        never another layer's build, which would keep a third layer's
        inputs alive."""
        if not self.run(blocking=False):
            for job in others:
                if not self._lock.locked():
                    break
                job.run(blocking=False)
            self.run()  # waits for the thread that runs it
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


def run_layer(
    cfg: ExperimentConfig, layer: LayerConfig, input: Tensor3, filters: FilterSet,
    make: Callable[..., _Job] = _Job,
) -> tuple[list[EngineResult], tuple[TermCounts, BitStats]]:
    """Every engine variant of the run on one layer, in config order, and
    the layer's term counts and essential-bit statistics.

    Each input view is lowered once and shared by the variants that read
    it. ``make`` makes the layer's jobs (:class:`_Job`), in this order:
    per input view, in the order the engines first read them, the view's
    lowering (past the first view, which the engines lower when they
    first read it) and its oracle, then the term counts. The default
    queues none; :meth:`_SideThread.submit` queues them on the side
    thread. A view's lowering job is asked for before the first engine
    that reads the view, each engine's output is compared with the
    outcome of its view's oracle job once the engine has run, and the
    counts are asked for once every engine has run. A job runs once: here
    when it is due and nobody has started it, else on the side thread;
    while this waits for a view job there, it runs the layer's view jobs
    nobody has started (:meth:`_Job.result`). Raises
    :class:`OracleMismatch` if any engine disagrees with the brute-force
    convolution on its view.
    """
    lowered = LayerLowering(input, filters, layer.spec, cfg.width, cfg.out_shift)
    views: dict[bool, tuple[_Job | None, _Job]] = {}
    for trimmed in dict.fromkeys(map(_reads_trimmed, cfg.engines)):
        lower = make(_lower, cfg, layer, lowered, trimmed) if views else None
        views[trimmed] = lower, make(_oracle, cfg, layer, input, filters, trimmed)
    counts = make(_layer_terms, cfg, layer, input)
    queued = [job for pair in views.values() for job in pair if job]  # in queue order
    results = []
    for sel in cfg.engines:
        lower, oracle = views[_reads_trimmed(sel)]
        if lower:
            lower.result(queued)
        result = _run(sel, layer, lowered)
        if result.output != oracle.result(queued):
            raise OracleMismatch(
                f"{sel.label()} output differs from the oracle on layer "
                f"{layer.spec.name!r}"
            )
        results.append(result)
    lowered = views = queued = oracle = None  # freed before the counts run
    return results, counts.result()


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
            if not self._closed:
                job.run(blocking=False)
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
    return num_pairs(layer.spec) >= SIDE_MIN_MACS


def simulate(cfg: ExperimentConfig) -> ReportDocument:
    """Run the full layer x engine grid, verifying every output.

    Each layer runs in :func:`run_layer`, in config order, and each
    layer's input build is a job (:class:`_Job`), made as the layer
    before it starts, so that the next layer's inputs are drawn while
    this one runs. A layer of at least :data:`SIDE_MIN_MACS`
    multiply-accumulates queues its build and its own jobs on one side
    thread, which runs them in order; a smaller layer's run on the main
    thread when due. At most two layers' inputs are alive: layer k's and
    the next layer's build. The side thread is joined, by
    :meth:`_SideThread.close`, before this returns or raises, and every
    failure raises as in a serial loop, the first one first.

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
            name, baseline = layer.spec.name, dadn_cycles(layer.spec)
            results, (terms[name], bits[name]) = run_layer(
                cfg, layer, *build.result(), make(layer))
            rows += [(name, result, baseline) for result in results]
            build = next_build  # layer k's inputs freed before layer k+2's build
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
