#!/usr/bin/env python3
"""Stage-by-stage timing of small spectrum searches, base tree against this one.

Run from the root of a checkout, with a copy of the base commit's tree:

    git archive <base> | tar -x -C /tmp/base
    python3 tools/stage_bench.py --base /tmp/base/src --out BENCH_<topic>.json

Both libraries are loaded into one process (the base under another
package name).  Inputs are the benchmark's seed-101 inputs of all three
workloads (``perfbench/workloads.py``), ``sweep`` also split into its
random U, its ``dpp`` at alpha in {0, pi} (doubly degenerate levels) and
its other ``dpp``, and once more with each input searched on a new
kernel (``sweep: fresh kernel``), as ``ring-spectra spectrum`` searches,
so that no search is served an earlier one's sample stage; batches of
2, 3, 4, 16, 64 and 256 random U (``default_rng(101)``) through
``find_spectra``: the small ones are the
sizes the library's own batches take (an orbit's members that fail
certification, the four-U orbit of ``ring-spectra verify``, the README's
three-U example); and one-U searches of 24 random U (``default_rng(5)``)
on the windows of ``WINDOWS``, on either side of the start stage's
selection.  Per side it records:

- per-stage wall time per op: the U-independent samples of the ends
  call and the polar form there, and where the start stage pays the
  call at its stencil's nodes too (``roots._sample_stage``, which a
  tree that keeps the last stage serves to repeat searches; a tree
  without it does that work inside ``roots._levels`` and reads 0 here),
  the ends call's tracks (``roots._levels``, on ``orbit`` also the
  certification's track reading), the start stage (``roots._start``,
  one ``polar`` call where it runs, two in a tree that evaluates its
  stencil there; 0 in a tree without it), the refinement
  (``roots._refine``), clustering and verification
  (``roots.collect_spectra``), on ``orbit`` the building of the orbit
  members (whichever of ``_orbit_members`` and ``conjugate_orbit`` the
  tree's ``iso`` calls) and the certification (``roots._certify`` less
  its ``_levels`` call, so with its ``polar`` call in a tree whose
  ``_levels`` takes the polar form), and the rest of the op,
  plus microseconds per refinement round (per ``polar`` call made by
  ``roots._refine``);
- ``polar`` calls per op (counted on the kernel; a one-U op is one
  search), and of those the start stage's and the refinement's (the
  sample stage's are the rest);
- the ``tracemalloc`` peak of an op (the largest over the inputs, in a
  separate pass, since tracing slows everything).

Times are the median over ``--runs`` runs (at least 9) of one pass over
the inputs, in which base and change run each input back to back and
alternate which goes first; ``other``, the rest of the op time, is taken
in each run before the median.  ``ratio`` is the change's time over the
base's within each pass, as median and quartiles over the passes.  The
timers wrap module functions, which adds about a microsecond per stage
call; a stage's time excludes the stages it calls.  A tree that builds
an orbit member per call pays that microsecond once per member, one
that builds them in one batch once per orbit.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import ring_spectra  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STAGES = ("samples", "ends", "start", "refine", "collect", "members", "certify")
#: (theory, mu0, window) of the one-U searches: where the start stage runs
#: (Dirac mu0 = 1 up to (-20, 20], Schroedinger (0, 100]) and where it does
#: not (wider windows, the gap edge at mu0 = 20, and the straight tracks
#: of a massless particle)
WINDOWS = (
    ("dirac", 1.0, (-10.0, 10.0)), ("dirac", 1.0, (-20.0, 20.0)), ("dirac", 1.0, (-40.0, 40.0)),
    ("dirac", 1.0, (-80.0, 80.0)), ("dirac", 20.0, (19.0, 60.0)), ("dirac", 0.0, (0.0, 30.0)),
    ("schrod", 0.0, (0.0, 100.0)), ("schrod", 0.0, (0.0, 1e3)), ("schrod", 0.0, (-50.0, 400.0)),
)
#: stage -> (module, the names it may have there; the first one present is
#: wrapped, and a tree with none of them reads 0 for the stage)
_WRAPPED = {
    "samples": ("roots", ("_sample_stage",)),
    "ends": ("roots", ("_levels",)),
    "start": ("roots", ("_start",)),
    "refine": ("roots", ("_refine",)),
    "collect": ("roots", ("collect_spectra",)),
    "members": ("iso", ("_orbit_members", "conjugate_orbit")),
    "certify": ("iso", ("_certify",)),
}


def load_base(src: Path):
    """The library under ``src`` as the package ``ring_spectra_base``."""
    init = src / "ring_spectra" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "ring_spectra_base", init, submodule_search_locations=[str(init.parent)]
    )
    lib = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lib
    spec.loader.exec_module(lib)
    return lib


class Side:
    """One library with stage timers around its search functions and a
    polar counter on its kernels."""

    def __init__(self, lib):
        self.lib = lib
        self.times = dict.fromkeys(STAGES, 0.0)
        # polar calls, and those made by the start stage and the refinement
        self.polar = self.starts = self.rounds = 0
        self._nested = 0.0  # time of the timed calls inside the running one
        self._stage = None  # the timed stage running
        for stage, (module, names) in _WRAPPED.items():
            module = getattr(lib, module)
            name = next((n for n in names if hasattr(module, n)), None)
            if name is not None:
                setattr(module, name, self._timed(stage, getattr(module, name)))

    def _timed(self, stage, fn):
        def timed(*args):
            outer, self._nested = self._nested, 0.0
            outer_stage, self._stage = self._stage, stage
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                dt = time.perf_counter() - t0
                self.times[stage] += dt - self._nested
                self._nested = outer + dt
                self._stage = outer_stage
        return timed

    def kernel(self, theory, mu0):
        k = self.lib.DiracKernel(mu0) if theory == "dirac" else self.lib.SchrodKernel()
        polar = k.polar

        def counted(x):
            self.polar += 1
            self.starts += self._stage == "start"
            self.rounds += self._stage == "refine"
            return polar(x)

        k.polar = counted
        return k

    def bc(self, u):
        return self.lib.bc.UnitaryBC(u.matrix, u.eta, u.m0, u.m)

    def reset(self):
        self.times = dict.fromkeys(STAGES, 0.0)
        self.polar = self.starts = self.rounds = 0


def sweep_part(case) -> str:
    """The part of ``sweep`` an input belongs to."""
    if case.family == "random":
        return "random U"
    return "dpp, alpha in {0, pi}" if case.alpha in (0.0, float(np.pi)) else "dpp, other alpha"


def workload_ops(side, w, part=None):
    """One zero-argument callable per seed-101 input of workload ``w``,
    or of its inputs in ``part`` (:func:`sweep_part`)."""
    kernel = side.kernel(w.theory, w.mu0)
    us = [side.bc(c.u) for c in w.cases(101) if part is None or sweep_part(c) == part]
    if w.n_lambda:
        iso = side.lib.iso
        return [lambda u=u: iso.orbit_spectra(u, w.window, kernel, n_lambda=w.n_lambda)
                for u in us]
    return [lambda u=u: side.lib.find_spectrum(u, w.window, kernel) for u in us]


def fresh_ops(side, w):
    """One zero-argument callable per seed-101 input of workload ``w``,
    each searching on a kernel of its own, built inside the op."""
    us = [side.bc(c.u) for c in w.cases(101)]
    return [lambda u=u: side.lib.find_spectrum(u, w.window, side.kernel(w.theory, w.mu0))
            for u in us]


def batch_ops(side, theory, window, size):
    rng = np.random.default_rng(101)
    us = [side.bc(ring_spectra.random_unitary_bc(rng)) for _ in range(size)]
    kernel = side.kernel(theory, 1.0)
    return [lambda: side.lib.find_spectra(us, window, kernel)]


def window_ops(side, theory, mu0, window):
    rng = np.random.default_rng(5)
    us = [side.bc(ring_spectra.random_unitary_bc(rng)) for _ in range(24)]
    kernel = side.kernel(theory, mu0)
    return [lambda u=u: side.lib.find_spectrum(u, window, kernel) for u in us]


def measure(sides, make_ops, runs):
    """Median per-op stage times (us), polar calls and tracemalloc peak
    for each side, over ``runs`` passes, and the median and quartiles of
    the second side's time over the first's within a pass.  Within a
    pass the two sides run each input back to back, alternating which
    goes first, so that drift of the machine hits both alike."""
    ops = [make_ops(side) for side in sides]
    for side_ops in ops:
        for op in side_ops:
            op()  # warm-up
    samples = [[] for _ in sides]
    for r in range(runs):
        totals = [0.0, 0.0]
        for side in sides:
            side.reset()
        for j in range(len(ops[0])):
            for i in ((0, 1) if (r + j) % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                ops[i][j]()
                totals[i] += time.perf_counter() - t0
        for i, side in enumerate(sides):
            other = totals[i] - sum(side.times.values())
            samples[i].append(
                {"total": totals[i], **side.times, "other": other, "polar": side.polar,
                 "starts": side.starts, "rounds": side.rounds})
    out = []
    for side_ops, runs_of in zip(ops, samples):
        n = len(side_ops)
        med = {k: statistics.median(s[k] for s in runs_of) for k in runs_of[0]}
        peak = 0
        for op in side_ops:
            tracemalloc.start()
            op()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        stage_us = {k: 1e6 * med[k] / n for k in ("total", *STAGES, "other")}
        out.append({
            "us_per_op": {k: round(v, 1) for k, v in stage_us.items()},
            "polar_calls_per_op": round(med["polar"] / n, 3),
            "start_calls_per_op": round(med["starts"] / n, 3),
            "refine_calls_per_op": round(med["rounds"] / n, 3),
            "tracemalloc_peak_kib": round(peak / 1024, 1),
            "refine_us_per_round":
                round(1e6 * med["refine"] / med["rounds"], 1) if med["rounds"] else None,
        })
    ratios = [b["total"] / a["total"] for a, b in zip(*samples)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return out, {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, type=Path, help="src/ directory of the base tree")
    p.add_argument("--runs", type=int, default=9)
    p.add_argument("--out", type=Path, required=True, help="the BENCH_<topic>.json to write")
    args = p.parse_args(argv)
    if args.runs < 9:
        p.error("--runs must be at least 9")
    sides = [Side(load_base(args.base)), Side(ring_spectra)]
    report = {
        "description": "stage times of small searches, base tree against this tree, in "
                       "one process, each input run back to back on both (tools/stage_bench.py)",
        "machine": {"cpus": len(os.sched_getaffinity(0)), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "runs": args.runs,
        "statistic": "median over runs of one pass over the inputs, per op; ratio: "
                     "change over base within each pass, median and quartiles",
        "workloads": {},
        "batches": {},
        "windows": {},
    }
    parts = [(name, w, None, lambda side, w=w: workload_ops(side, w))
             for name, w in WORKLOADS.items()]
    sweep = WORKLOADS["sweep"]
    parts += [(f"sweep: {p}", sweep, p, lambda side, p=p: workload_ops(side, sweep, p))
              for p in ("random U", "dpp, alpha in {0, pi}", "dpp, other alpha")]
    parts.append(("sweep: fresh kernel", sweep, "a new kernel per op",
                  lambda side: fresh_ops(side, sweep)))
    for name, w, part, make_ops in parts:
        (base, change), ratio = measure(sides, make_ops, args.runs)
        report["workloads"][name] = {
            "inputs": f"perfbench {w.name}, seed 101" + (f", {part}" if part else ""),
            "base": base, "change": change, "ratio": ratio,
        }
        print(name, ratio, flush=True)
    for theory, window in (("dirac", (-10.0, 10.0)), ("schrod", (0.0, 1e4))):
        for size in (2, 3, 4, 16, 64, 256):
            (base, change), ratio = measure(
                sides, lambda side, s=size: batch_ops(side, theory, window, s), args.runs)
            key = f"{theory} {window} x{size}"
            report["batches"][key] = {"base": base, "change": change, "ratio": ratio}
            print(key, ratio, flush=True)
    for theory, mu0, window in WINDOWS:
        (base, change), ratio = measure(
            sides, lambda side, t=theory, m=mu0, w=window: window_ops(side, t, m, w), args.runs)
        key = f"{theory} mu0={mu0:g} {window}, 24 U one at a time"
        report["windows"][key] = {"base": base, "change": change, "ratio": ratio}
        print(key, ratio, flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
