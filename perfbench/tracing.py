"""Traced-run instrumentation: a timing proxy for kernels and span records.

The library is measured from outside.  Two wrappers feed a
:class:`Recorder`:

* :class:`TimedKernel` wraps the kernel object handed to
  ``find_spectrum`` / ``orbit_spectra``.  It forwards every attribute by
  name and times every method call, so it keeps working whatever
  methods the root search calls (``boundary_matrices`` today, a
  ``coefficients(x)`` protocol later).
* :meth:`Recorder.wrap_search` wraps ``find_spectrum``; the benchmark
  calls the wrapped function directly for single searches and rebinds
  ``ring_spectra.iso.find_spectrum`` for orbit sweeps.

Stage times are read from the order of kernel calls inside one search:

    grid    search start -> first point evaluation
    tracks  end of the first evaluation -> second call of the same method
    refine  that call -> first call of a different method (verification)
    verify  first verification call -> search end

each minus the kernel busy time inside it, so the four stages add up to
``roots.self_ms``.  A search whose call pattern differs (no grid, no
refinement) reads zero for the missing stages instead of failing.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

_now = time.perf_counter_ns


def _points(args) -> int:
    """Energy points in a kernel call: the size of its first argument."""
    if not args:
        return 0
    try:
        return int(np.size(args[0]))
    except (TypeError, ValueError):
        return 0


@dataclass
class KernelCall:
    layer: str
    method: str
    t0: int
    t1: int
    points: int


@dataclass
class Search:
    """One ``find_spectrum`` call and the kernel calls made inside it."""

    span: int
    op: int | None
    thread: int
    t0: int
    t1: int = 0
    roots: int | None = None  # None when the search raised
    calls: list[KernelCall] = field(default_factory=list)
    max_residual: float = 0.0


@dataclass
class Op:
    """One benchmark operation (a search or an orbit sweep)."""

    span: int
    t0: int
    t1: int = 0
    collected: list[np.ndarray] | None = None  # evaluated energies, if kept


class Recorder:
    """Spans and kernel calls of one traced run.

    Thread-safe: searches inside the ``iso`` pool each run on one worker
    thread, which tracks its current search in thread-local state; the
    shared lists are appended under a lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_span = 0
        self.spans: list[tuple[int, str, int, int, int | None, int | None]] = []
        self.searches: list[Search] = []
        self.ops: list[Op] = []
        self.current_op: Op | None = None

    def _span_id(self) -> int:
        with self._lock:
            self._next_span += 1
            return self._next_span

    def _add_span(self, span, name, t0, t1, parent, op) -> None:
        with self._lock:
            self.spans.append((span, name, t0, t1, parent, op))

    # -- operations --------------------------------------------------------

    def begin_op(self, collect_points: bool = False) -> Op:
        """Start an operation; with ``collect_points`` keep every evaluated
        energy array so distinct points can be counted afterwards."""
        op = Op(self._span_id(), _now(), collected=[] if collect_points else None)
        self.current_op = op
        return op

    def end_op(self, op: Op, name: str) -> None:
        op.t1 = _now()
        self.current_op = None
        self._add_span(op.span, name, op.t0, op.t1, None, op.span)
        with self._lock:
            self.ops.append(op)

    # -- searches ----------------------------------------------------------

    def wrap_search(self, find_spectrum):
        """``find_spectrum`` with a span around every call."""

        def traced_find_spectrum(*args, **kwargs):
            op = self.current_op
            search = Search(self._span_id(), op.span if op else None, threading.get_ident(), _now())
            self._local.search = search
            try:
                result = find_spectrum(*args, **kwargs)
                search.roots = len(getattr(result, "roots", ()))
                return result
            finally:
                search.t1 = _now()
                self._local.search = None
                self._add_span(search.span, "roots.find_spectrum", search.t0, search.t1,
                               search.op, search.op)
                with self._lock:
                    self.searches.append(search)

        return traced_find_spectrum

    # -- kernel calls ------------------------------------------------------

    def kernel_call(self, layer, method, t0, t1, args, result) -> None:
        search = getattr(self._local, "search", None)
        call = KernelCall(layer, method, t0, t1, _points(args))
        if search is None:
            self._add_span(self._span_id(), f"{layer}.{method}", t0, t1, None, None)
            return
        search.calls.append(call)
        self._add_span(self._span_id(), f"{layer}.{method}", t0, t1, search.span, search.op)
        if method == "spectral_values" and np.size(result):
            search.max_residual = max(search.max_residual, float(np.max(np.abs(result))))
        op = self.current_op
        if op is not None and op.collected is not None and call.points:
            with self._lock:
                op.collected.append(np.asarray(args[0], dtype=float))

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, parent, op id."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span, name, t0, t1, parent, op in spans:
                fh.write(json.dumps({"id": span, "name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "op": op}) + "\n")


class TimedKernel:
    """Forwards every attribute of ``kernel``; method calls are timed.

    The layer name is the kernel's ``theory`` attribute (``dirac`` or
    ``schrod``), falling back to the class name.
    """

    def __init__(self, kernel, recorder: Recorder):
        self._kernel = kernel
        self._recorder = recorder
        self._layer = str(getattr(kernel, "theory", type(kernel).__name__))

    def __getattr__(self, name):
        attr = getattr(self._kernel, name)
        if not callable(attr):
            return attr
        recorder, layer = self._recorder, self._layer

        def timed(*args, **kwargs):
            t0 = _now()
            result = None
            try:
                result = attr(*args, **kwargs)
                return result
            finally:
                recorder.kernel_call(layer, name, t0, _now(), args, result)

        return timed


# ---------------------------------------------------------------------------
# derived metrics


def _busy(calls, start: int, end: int) -> int:
    return sum(c.t1 - c.t0 for c in calls if start <= c.t0 < end)


def _mean(vals) -> float:
    vals = list(vals)
    return sum(vals) / len(vals) if vals else 0.0


def stage_times_ns(search: Search) -> dict[str, int]:
    """Self time of grid, tracks, refine and verify stages (see module doc)."""
    calls = search.calls
    end = search.t1
    evals = [c for c in calls if c.points]
    if not evals:
        return {"grid": end - search.t0 - _busy(calls, search.t0, end),
                "tracks": 0, "refine": 0, "verify": 0}
    first = evals[0]
    later = [c for c in calls if c.t0 > first.t0]
    verify_start = next((c.t0 for c in later if c.method != first.method), end)
    refine_start = next((c.t0 for c in later if c.method == first.method), verify_start)
    refine_start = min(refine_start, verify_start)
    bounds = {
        "grid": (search.t0, first.t0),
        "tracks": (first.t1, refine_start),
        "refine": (refine_start, verify_start),
        "verify": (verify_start, end),
    }
    return {k: (b - a) - _busy(calls, a, b) for k, (a, b) in bounds.items()}


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer metrics, averaged per ``find_spectrum`` call.

    The kernel layer is reported as ``kernel.*`` whatever its theory, so
    every metric is measured on every workload; :func:`kernel_layers`
    names the kernel behind it.
    """
    searches = list(recorder.searches)
    n = len(searches) or 1  # with no searches every sum below is 0
    calls = [c for s in searches for c in s.calls]
    points = sum(c.points for c in calls)
    busy = sum(c.t1 - c.t0 for c in calls)
    out = {
        "kernel.calls": sum(1 for c in calls if c.points) / n,
        "kernel.points": points / n,
        "kernel.busy_ms": busy / n / 1e6,
        "kernel.ns_per_point": busy / points if points else 0.0,
    }
    evals = [[c for c in s.calls if c.points] for s in searches]
    ok = [s for s in searches if s.roots]
    ok_roots = sum(s.roots for s in ok)
    stages = [stage_times_ns(s) for s in searches]
    out["roots.search_ms"] = _mean(s.t1 - s.t0 for s in searches) / 1e6
    out["roots.self_ms"] = _mean(
        (s.t1 - s.t0) - sum(c.t1 - c.t0 for c in s.calls) for s in searches) / 1e6
    out["roots.kernel_calls_per_search"] = _mean(
        sum(c.method == e[0].method for c in e) if e else 0 for e in evals)
    out["roots.grid_points"] = _mean(e[0].points if e else 0 for e in evals)
    out["roots.points_per_root"] = (
        sum(c.points for s in ok for c in s.calls) / ok_roots if ok_roots else 0.0)
    for stage in ("grid", "tracks", "refine", "verify"):
        out[f"roots.{stage}_ms"] = _mean(st[stage] for st in stages) / 1e6
    out["roots.max_residual"] = max((s.max_residual for s in searches), default=0.0)
    return out


def kernel_layers(recorder: Recorder) -> list[str]:
    """Names of the kernel layers the searches called (``dirac``, ``schrod``)."""
    return sorted({c.layer for s in recorder.searches for c in s.calls})


def iso_metrics(recorder: Recorder) -> dict[str, float]:
    """Orbit-sweep metrics: worker threads seen, summed search time over
    orbit time, and kernel points evaluated per distinct point."""
    by_op: dict[int, list[Search]] = {}
    for s in recorder.searches:
        if s.op is not None:
            by_op.setdefault(s.op, []).append(s)
    workers, speedups, reuse = [], [], []
    for op in recorder.ops:
        searches = by_op.get(op.span, [])
        if len(searches) < 2:
            continue
        workers.append(len({s.thread for s in searches}))
        speedups.append(sum(s.t1 - s.t0 for s in searches) / (op.t1 - op.t0))
        if op.collected:
            xs = np.concatenate([np.ravel(a) for a in op.collected])
            reuse.append(xs.size / np.unique(xs).size)
    return {
        "iso.workers": float(max(workers, default=0)),
        "iso.parallel_speedup": statistics.median(speedups) if speedups else 0.0,
        "iso.kernel_evals_per_distinct_point": statistics.median(reuse) if reuse else 0.0,
    }
