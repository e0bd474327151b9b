#!/usr/bin/env python3
"""Benchmark runner for ring-spectra.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,wide,orbit} --seed N \\
        --seconds S --trace {0,1}

Each invocation is one fresh process running one workload as a closed
loop with a single client: the next operation starts when the previous
one returns.  The library is imported from ``src/`` of the checkout and
measured from outside, through its public functions.

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` runs the same inputs twice, untraced then traced, and
reports the per-layer metrics plus the tracing overhead; the spans go to
``.perfbench_out/spans-<workload>.jsonl``.

Every operation's output goes through the correctness gate in
``workloads.py``.  An operation that raises or fails a check counts as
failed, with its error class recorded, and the run goes on.  The result
line counts inputs: ``attempted`` the distinct inputs run, ``failed``
those with a failed operation.  A detailed report (machine, input
recipe, op counts, error classes, fail share, sample counts)
is printed first; the last line of standard output is the result object.
"""

import os
import sys
import time

# set-up time counts from here, before numpy is imported
_START = time.perf_counter()

# pin BLAS before numpy loads it (OpenBLAS here is built for 64 threads)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
# the library's auto mode uses os.cpu_count(), which ignores affinity
_CPUS = sorted(os.sched_getaffinity(0))
os.environ["RING_SPECTRA_THREADS"] = str(len(_CPUS))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# glibc's M_MMAP_THRESHOLD, fixed at its own dynamic maximum (32 MiB):
# otherwise the threshold moves with the order of past allocations and
# frees, and the peak RSS of the same workload differs from run to run
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024


def _pin_allocator() -> bool:
    try:
        return bool(ctypes.CDLL("libc.so.6").mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES))
    except (OSError, AttributeError):
        return False


_ALLOCATOR_PINNED = _pin_allocator()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: set-up is also measured in fresh processes before the timed loop and
#: after it, so the samples span the whole run: on each side at least this
#: many probes, and more while they have taken less than SETUP_PROBE_S
SETUP_PROBES = 2
SETUP_PROBE_S = 2.0
#: cli.main is replayed on this many sweep inputs in the traced run
CLI_SAMPLES = 16
#: bc construction is timed over this many calls of each constructor
BC_SAMPLES = 200
#: in orbit, kernel points are collected for this many traced ops
DISTINCT_POINT_OPS = 2
#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


@dataclass
class Outcome:
    case: int  # index of the input
    ms: float
    error: str | None = None  # exception class, None if the op returned
    failed_checks: list[str] = field(default_factory=list)
    base_ms: float | None = None  # the same input on the frozen library

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failed_checks


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "wide", "orbit"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit")
    p.add_argument("--baseline", action="store_true",
                   help="serve op timings of the frozen library copy (see baseline.py)")
    return p.parse_args(argv)


def metric_specs(group: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


def machine_info(np) -> dict:
    caches = {}
    # glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    for name, key in (("l1d", 188), ("l2", 191), ("l3", 194)):
        try:
            caches[name] = os.sysconf(key)
        except (ValueError, OSError):
            caches[name] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(_CPUS),
        "cpu_count": os.cpu_count(),
        "cache_bytes": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "malloc_mmap_threshold": _MMAP_THRESHOLD_BYTES if _ALLOCATOR_PINNED else None,
        "env": {k: os.environ[k] for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RING_SPECTRA_THREADS")},
    }


@dataclass
class Run:
    """What one timed loop measured."""

    outcomes: list[Outcome]
    wall_s: float  # loop wall time, baseline ops excluded


def measure(w, cases, kernel, seconds, run_op, baseline=None) -> Run:
    """Closed loop over ``cases`` for ``seconds``; checks every output.

    The loop runs at least one full pass, so every input is attempted
    whatever the speed of the machine.  With a ``baseline``, each op is
    paired with the same input on the frozen library, run right after it
    on even ops and right before it on odd ones; ``seconds`` then counts
    both, and ``wall_s`` the ops alone.
    """
    from workloads import error_class

    run = Run([], 0.0)
    base_s = 0.0
    start = time.perf_counter()
    i = 0

    def time_baseline(case) -> float:
        nonlocal base_s
        t0 = time.perf_counter()
        ms = baseline.time_ms(case.spec)
        base_s += time.perf_counter() - t0
        return ms

    while i < len(cases) or time.perf_counter() - start < seconds:
        index = i % len(cases)
        case = cases[index]
        base_ms = time_baseline(case) if baseline is not None and i % 2 else None
        i += 1
        t0 = time.perf_counter()
        try:
            result = run_op(case)
        except Exception as exc:  # a failing op is recorded, never fatal
            outcome = Outcome(index, (time.perf_counter() - t0) * 1e3, error_class(exc))
        else:
            outcome = Outcome(index, (time.perf_counter() - t0) * 1e3)
            try:
                outcome.failed_checks = w.check(case, result, kernel)
            except Exception as exc:
                outcome.failed_checks = [f"check raised {type(exc).__name__}"]
        if baseline is not None and base_ms is None:
            base_ms = time_baseline(case)
        outcome.base_ms = base_ms
        run.outcomes.append(outcome)
    run.wall_s = time.perf_counter() - start - base_s
    return run


def tally(outcomes: list[Outcome]) -> dict:
    """Inputs attempted and inputs failed.

    Each input is deterministic, so all its ops end the same way, and how
    often an input repeats depends only on the machine's speed.  Counting
    inputs rather than ops makes ``attempted`` and ``failed`` depend only
    on the seed and the program.  An input counts as failed if any of its
    ops raised or failed a check.  ``mixed_inputs`` counts inputs whose
    ops ended differently, which a deterministic program never shows.
    """
    ok: dict[int, set[bool]] = {}
    for o in outcomes:
        ok.setdefault(o.case, set()).add(o.ok)
    return {"inputs": len(ok),
            "failed_inputs": sum(False in v for v in ok.values()),
            "mixed_inputs": sum(len(v) > 1 for v in ok.values())}


def latency(outcomes: list[Outcome]) -> dict:
    """Latency of the successful ops (of all ops if none succeeded).

    ``p50`` and ``p90`` are taken over every op.  ``best_p50`` is the
    median over inputs of each input's fastest op.  ``ratio_p50`` is the
    median over ops of the op time over its baseline op time, and
    ``base_p50`` the median baseline op time.
    """
    ok = [o for o in outcomes if o.ok] or outcomes
    ms = [o.ms for o in ok]
    paired = [o for o in ok if o.base_ms]
    best: dict[int, float] = {}
    for o in ok:
        best[o.case] = min(best.get(o.case, o.ms), o.ms)
    out = {"p50": statistics.median(ms), "samples": len(ms), "p90": None,
           "best_p50": statistics.median(best.values()), "inputs": len(best)}
    if len(ms) >= 10 * TAIL_SAMPLES:
        out["p90"] = statistics.quantiles(ms, n=10)[-1]
    if paired:
        out["ratio_p50"] = statistics.median(o.ms / o.base_ms for o in paired)
        out["base_p50"] = statistics.median(o.base_ms for o in paired)
    return out


def setup_probes(args) -> list[float]:
    """Set-up time of fresh processes running the same workload and seed."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_PROBES or time.perf_counter() - start < SETUP_PROBE_S:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def cli_overhead_ms(rs, seed: int) -> float:
    """``cli.main spectrum`` minus the bare library call, on sweep inputs."""
    from ring_spectra import cli
    from workloads import WORKLOADS

    sweep = WORKLOADS["sweep"]
    kernel = sweep.kernel()
    lo, hi = sweep.window
    diffs = []
    for case in sweep.cases(seed)[:CLI_SAMPLES]:
        argv = ["spectrum", "--theory", sweep.theory, "--mu0", repr(sweep.mu0),
                "--bc", case.spec, "--window", repr(lo), repr(hi)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        t1 = time.perf_counter()
        rs.find_spectrum(case.u, sweep.window, kernel)
        t2 = time.perf_counter()
        if code == 0:
            diffs.append((t1 - t0) - (t2 - t1))
    return statistics.median(diffs) * 1e3 if diffs else 0.0


def bc_us_per_bc(rs, np, seed: int) -> float:
    """Mean cost of building a validated UnitaryBC through the three
    public constructors the workloads use."""
    from workloads import WORKLOADS

    rng = np.random.default_rng(seed)
    base = rs.random_unitary_bc(rng)
    specs = [c.spec for c in WORKLOADS["sweep"].cases(seed)[:BC_SAMPLES]]
    t0 = time.perf_counter()
    for _ in range(BC_SAMPLES):
        rs.random_unitary_bc(rng)
    for k in range(BC_SAMPLES):
        rs.conjugate_orbit(base, k * np.pi / BC_SAMPLES)
    for spec in specs:
        rs.parse_bc(spec)
    return (time.perf_counter() - t0) / (2 * BC_SAMPLES + len(specs)) * 1e6


def traced_phase(w, cases, kernel, seconds, rs, iso):
    """Same loop with the timing proxy and a wrapped find_spectrum."""
    from tracing import Recorder, TimedKernel

    recorder = Recorder()
    proxy = TimedKernel(kernel, recorder)
    traced_find = recorder.wrap_search(rs.find_spectrum)

    def run_op(case):
        collect = bool(w.n_lambda) and len(recorder.ops) < DISTINCT_POINT_OPS
        op = recorder.begin_op(collect_points=collect)
        try:
            return w.run(case, proxy, traced_find)
        finally:
            recorder.end_op(op, f"op.{w.name}")

    original = iso.find_spectrum
    iso.find_spectrum = traced_find
    try:
        run = measure(w, cases, kernel, seconds, run_op)
    finally:
        iso.find_spectrum = original
    return recorder, run


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.baseline:
        from baseline import serve

        serve(args.workload)
        return 0
    if not (SRC / "ring_spectra" / "__init__.py").is_file():
        print(f"error: no ring_spectra package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import ring_spectra as rs
    from ring_spectra import iso

    if not Path(rs.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: ring_spectra imported from {rs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    kernel = w.kernel()
    cases = w.cases(args.seed)
    try:
        w.run(cases[0], kernel)  # warm-up, untimed and unchecked
    except Exception:
        pass  # the measured ops record failures; set-up only needs the work done
    setup_s = time.perf_counter() - _START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "client": "closed loop, 1 client",
              "recipe": {"theory": w.theory, "mu0": w.mu0, "window": w.window,
                         "closed_form_share": 0.25 if w.closed_form else 0.0,
                         "closed_form": w.closed_form, "orbit_lambdas": w.n_lambda,
                         "distinct_inputs": w.n_cases},
              "machine": machine_info(np)}
    cases = cases[1:] + cases[:1]  # start measuring after the warm-up input

    if args.trace:
        half = args.seconds / 2.0
        plain = measure(w, cases, kernel, half, lambda c: w.run(c, kernel))
        recorder, traced = traced_phase(w, cases, kernel, half, rs, iso)
        outcomes, wall = plain.outcomes + traced.outcomes, plain.wall_s + traced.wall_s
        from tracing import iso_metrics, kernel_layers, layer_metrics

        untraced_p50 = latency(plain.outcomes)["best_p50"]
        traced_p50 = latency(traced.outcomes)["best_p50"]
        values = {**layer_metrics(recorder), **iso_metrics(recorder),
                  "bc.us_per_bc": bc_us_per_bc(rs, np, args.seed),
                  "cli.overhead_ms": cli_overhead_ms(rs, args.seed),
                  "trace.overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{w.name}.jsonl"
        recorder.write_spans(spans_path)
        report["tracing"] = {
            "untraced_op_ms_best_p50": untraced_p50, "traced_op_ms_best_p50": traced_p50,
            "spans": len(recorder.spans), "spans_file": str(spans_path.relative_to(ROOT)),
            "searches": len(recorder.searches), "kernel_layers": kernel_layers(recorder),
            "search_ms_minus_busy_and_self": values["roots.search_ms"]
            - values["kernel.busy_ms"] - values["roots.self_ms"],
        }
        specs = metric_specs("per_layer")
    else:
        from baseline import Baseline

        samples = [setup_s] + setup_probes(args)
        if not w.n_lambda:
            # One thread does all the work, and the baseline (a child
            # process, which inherits the pinning) must run on the CPU the
            # ops run on: the two CPUs of a shared machine differ in speed
            # by up to 40 %, and which one is faster changes from minute to
            # minute.  The last CPU, because the first one tends to take the
            # interrupts.  The iso pool of orbit uses every CPU, and so does
            # its baseline.
            os.sched_setaffinity(0, _CPUS[-1:])
        loop_cpus = sorted(os.sched_getaffinity(0))
        baseline = Baseline(w.name)
        try:
            run = measure(w, cases, kernel, args.seconds, lambda c: w.run(c, kernel), baseline)
        finally:
            baseline.close()
            os.sched_setaffinity(0, _CPUS)
        outcomes, wall = run.outcomes, run.wall_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples += setup_probes(args)
        lat = latency(outcomes)
        values = {"op_ratio.p50": lat["ratio_p50"], "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(samples)}
        specs = metric_specs("end_to_end")
        # every end-to-end metric, gated or not, with its unit and samples
        e2e = {k: {"value": values[k], "unit": specs[k]} for k in specs}
        e2e["op_ratio.p50"].update(samples=lat["samples"], baseline_op_ms_p50=lat["base_p50"],
                                   cpus=loop_cpus)
        e2e["op_ms.p50"] = {"value": lat["p50"], "unit": "ms", "samples": lat["samples"]}
        e2e["op_ms.best_p50"] = {"value": lat["best_p50"], "unit": "ms", "inputs": lat["inputs"]}
        e2e["op_ms.p90"] = {"value": lat["p90"], "unit": "ms", "samples": lat["samples"],
                            "note": f"needs {10 * TAIL_SAMPLES} successful ops"}
        e2e["setup_s"]["samples"] = samples
        e2e["ops_per_s"] = {"value": len(outcomes) / wall, "unit": "1/s"}
        e2e["fail_share"] = {"value": sum(not o.ok for o in outcomes) / len(outcomes),
                             "unit": "share", "attempted": len(outcomes)}
        report["end_to_end"] = e2e

    failed = [o for o in outcomes if not o.ok]
    inputs = tally(outcomes)
    report["inputs"] = inputs
    report["ops"] = {
        "attempted": len(outcomes),
        "ok": len(outcomes) - len(failed),
        "ok_ops_per_s": (len(outcomes) - len(failed)) / wall,
        "error_classes": dict(Counter(o.error or "check: " + ",".join(o.failed_checks)
                                      for o in failed)),
    }
    if set(values) != set(specs):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(specs))} out of step with BENCHMARK.json")
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": not any(o.failed_checks for o in outcomes),
        "attempted": inputs["inputs"],
        "failed": inputs["failed_inputs"],
        "metrics": {k: {"value": float(values[k]), "unit": specs[k]} for k in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
