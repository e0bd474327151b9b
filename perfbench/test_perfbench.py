"""Self-tests of the benchmark: timing-proxy counts and correctness checks.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ring_spectra as rs  # noqa: E402
from ring_spectra import iso  # noqa: E402

from tracing import (  # noqa: E402
    Recorder,
    TimedKernel,
    iso_metrics,
    kernel_layers,
    layer_metrics,
    stage_times_ns,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    Case,
    check_slice,
    dpp_levels,
    error_class,
    multiplicities,
    qp_levels,
    weyl_count,
)

SWEEP = WORKLOADS["sweep"]


def _traced_search(kernel, u, window):
    recorder = Recorder()
    proxy = TimedKernel(kernel, recorder)
    result = recorder.wrap_search(rs.find_spectrum)(u, window, proxy)
    return recorder, result


# ---------------------------------------------------------------------------
# timing proxy


class _CountingKernel:
    """Delegates to a real kernel and counts calls per method."""

    def __init__(self, kernel):
        self.inner = kernel
        self.theory = kernel.theory
        self.counts = {}
        self.points = 0
        self._lock = threading.Lock()

    def _count(self, name, x=None):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1
            if x is not None:
                self.points += np.size(x)

    def boundary_matrices(self, x):
        self._count("boundary_matrices", x)
        return self.inner.boundary_matrices(x)

    def spectral_values(self, x, u):
        self._count("spectral_values", x)
        return self.inner.spectral_values(x, u)

    def special_points(self):
        self._count("special_points")
        return self.inner.special_points()


def test_proxy_counts_match_the_calls_the_search_makes():
    counting = _CountingKernel(rs.DiracKernel(1.0))
    u = rs.random_unitary_bc(np.random.default_rng(3))
    recorder, result = _traced_search(counting, u, (-10.0, 10.0))
    m = layer_metrics(recorder)
    assert len(recorder.searches) == 1
    evals = counting.counts["boundary_matrices"] + counting.counts["spectral_values"]
    assert m["kernel.calls"] == evals
    assert m["kernel.points"] == counting.points
    assert m["roots.kernel_calls_per_search"] == counting.counts["boundary_matrices"]
    assert m["roots.grid_points"] == result.grid_points
    assert m["roots.points_per_root"] == counting.points / len(result.roots)
    assert counting.counts["spectral_values"] == len(result.roots)
    assert 0.0 < m["roots.max_residual"] < 1e-9
    assert kernel_layers(recorder) == ["dirac"]


def test_busy_plus_self_and_stages_account_for_search_time():
    u = rs.random_unitary_bc(np.random.default_rng(4))
    recorder, _ = _traced_search(rs.SchrodKernel(), u, (-20.0, 80.0))
    m = layer_metrics(recorder)
    assert kernel_layers(recorder) == ["schrod"]
    assert m["kernel.busy_ms"] > 0 and m["roots.self_ms"] > 0
    assert m["kernel.busy_ms"] + m["roots.self_ms"] == pytest.approx(m["roots.search_ms"])
    stages = sum(m[f"roots.{s}_ms"] for s in ("grid", "tracks", "refine", "verify"))
    assert stages == pytest.approx(m["roots.self_ms"])
    assert all(m[f"roots.{s}_ms"] > 0 for s in ("grid", "tracks", "refine", "verify"))


def test_proxy_forwards_attributes_and_errors():
    kernel = rs.DiracKernel(2.5)
    proxy = TimedKernel(kernel, Recorder())
    assert proxy.mu0 == 2.5 and proxy.theory == "dirac"
    assert proxy.special_points() == kernel.special_points()
    with pytest.raises(AttributeError):
        proxy.no_such_method  # noqa: B018
    with pytest.raises(ValueError):
        rs.find_spectrum(rs.named_family("dpp", alpha=0.0), (1.0, -1.0), proxy)


class _CoefficientKernel:
    """A kernel with a different protocol and no grid: a few scalar calls."""

    theory = "dirac"

    def coefficients(self, x):
        return (np.cos(x), np.sin(x), np.ones_like(x))


def test_stage_metrics_survive_another_kernel_protocol():
    recorder = Recorder()
    proxy = TimedKernel(_CoefficientKernel(), recorder)

    def search(kernel):
        for x in (0.5, 1.5, 2.5):
            kernel.coefficients(np.array([x]))
        return None

    recorder.wrap_search(search)(proxy)
    recorder.wrap_search(lambda k: None)(proxy)  # a search that calls no kernel
    proxy.coefficients(np.zeros(3))  # a call outside any search
    m = layer_metrics(recorder)
    assert m["kernel.calls"] == 1.5 and m["kernel.points"] == 1.5
    assert m["roots.verify_ms"] == 0.0 and m["roots.points_per_root"] == 0.0
    for s in recorder.searches:
        assert sum(stage_times_ns(s).values()) == pytest.approx(
            (s.t1 - s.t0) - sum(c.t1 - c.t0 for c in s.calls))
    assert iso_metrics(recorder)["iso.workers"] == 0.0


def test_proxy_is_thread_safe_under_the_orbit_pool(monkeypatch):
    monkeypatch.setenv("RING_SPECTRA_THREADS", "4")
    recorder = Recorder()
    counting = _CountingKernel(rs.DiracKernel(1.0))
    proxy = TimedKernel(counting, recorder)
    monkeypatch.setattr(iso, "find_spectrum", recorder.wrap_search(rs.find_spectrum))
    u = rs.random_unitary_bc(np.random.default_rng(5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        op = recorder.begin_op(collect_points=True)
        entries = iso.orbit_spectra(u, (-5.0, 5.0), proxy, n_lambda=8)
        recorder.end_op(op, "op.orbit")
    finally:
        sys.setswitchinterval(interval)
    assert len(entries) == 8 and len(recorder.searches) == 8
    assert all(s.op == op.span for s in recorder.searches)
    calls = [c for s in recorder.searches for c in s.calls]
    assert len(calls) == sum(counting.counts.values())
    assert sum(c.points for c in calls) == counting.points
    ids = [span[0] for span in recorder.spans]
    assert len(ids) == len(set(ids)) == 1 + 8 + len(calls)
    m = iso_metrics(recorder)
    assert 1 <= m["iso.workers"] <= 4
    assert m["iso.kernel_evals_per_distinct_point"] == pytest.approx(8.0, rel=0.05)


def test_spans_are_written_with_parents(tmp_path):
    u = rs.random_unitary_bc(np.random.default_rng(6))
    recorder, _ = _traced_search(rs.DiracKernel(1.0), u, (-3.0, 3.0))
    path = tmp_path / "spans.jsonl"
    recorder.write_spans(path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    search = [s for s in spans if s["name"] == "roots.find_spectrum"]
    assert len(search) == 1
    kids = [s for s in spans if s["parent"] == search[0]["id"]]
    assert len(kids) == len(spans) - 1
    assert all(search[0]["start_ns"] <= s["start_ns"] <= s["end_ns"] <= search[0]["end_ns"]
               for s in kids)


# ---------------------------------------------------------------------------
# correctness gate


def _case(family, alpha, u):
    return Case(family, alpha, "", u)


def _slice_with(s, roots):
    return rs.SpectrumSlice(window=s.window, roots=tuple(roots), grid_points=s.grid_points,
                            theory=s.theory)


def test_closed_form_levels_and_multiplicities():
    levels = dpp_levels(0.0, 1.0, (-10.0, 10.0))
    assert multiplicities(levels) == [2, 1, 1, 2]
    assert levels[2] == pytest.approx(-1.0) and levels[3] == pytest.approx(1.0)
    assert multiplicities(dpp_levels(np.pi, 1.0, (-10.0, 10.0))) == [2, 2, 2, 2]
    assert multiplicities(dpp_levels(1.0, 1.0, (-10.0, 10.0))) == [1] * 6
    assert qp_levels((0.0, 500.0)) == pytest.approx(np.pi**2 * (np.arange(7) + 0.5) ** 2)
    assert weyl_count("dirac", 1.0, (-10.0, 10.0)) == pytest.approx(2 * np.sqrt(99) / np.pi)
    assert weyl_count("schrod", 0.0, (-5.0, 1e4)) == pytest.approx(100 / np.pi)


@pytest.mark.parametrize("alpha", [0.0, np.pi, 2.1])
def test_dpp_outputs_pass_and_doctored_outputs_fail(alpha):
    kernel = rs.DiracKernel(1.0)
    u = rs.named_family("dpp", alpha=alpha)
    case = _case("dpp", alpha, u)
    s = rs.find_spectrum(u, SWEEP.window, kernel)
    assert check_slice(SWEEP, case, s, kernel) == []
    roots = list(s.roots)
    moved = roots[0].__class__(roots[0].x * (1 + 1e-9), roots[0].multiplicity,
                               roots[0].residual, roots[0].method)
    assert "closed_form" in check_slice(SWEEP, case, _slice_with(s, [moved] + roots[1:]), kernel)
    assert "closed_form" in check_slice(SWEEP, case, _slice_with(s, roots[1:]), kernel)
    split = [type(r)(r.x, 1, r.residual, r.method) for r in roots]
    if any(r.multiplicity == 2 for r in roots):
        assert check_slice(SWEEP, case, _slice_with(s, split), kernel) == ["closed_form"]


def test_random_outputs_pass_and_residual_and_weyl_checks_fire():
    kernel = rs.DiracKernel(1.0)
    u = rs.random_unitary_bc(np.random.default_rng(7))
    case = _case("random", float("nan"), u)
    s = rs.find_spectrum(u, SWEEP.window, kernel)
    assert check_slice(SWEEP, case, s, kernel) == []
    r = s.roots[0]
    off = type(r)(r.x + 1e-6, r.multiplicity, r.residual, r.method)
    assert check_slice(SWEEP, case, _slice_with(s, [off] + list(s.roots[1:])), kernel) == ["residual"]
    assert check_slice(SWEEP, case, _slice_with(s, s.roots[3:]), kernel) == ["weyl_count"]


def test_qp_output_passes_on_the_wide_window_family():
    kernel = rs.SchrodKernel()
    u = rs.named_family("qp", alpha=0.0)
    w = WORKLOADS["wide"]
    small = type(w)(w.name, w.theory, w.mu0, (0.0, 500.0), w.closed_form, 0, 4)
    s = rs.find_spectrum(u, small.window, kernel)
    assert check_slice(small, _case("qp", 0.0, u), s, kernel) == []


def test_orbit_check_flags_unequal_members():
    w = WORKLOADS["orbit"]
    small = type(w)(w.name, w.theory, w.mu0, (-8.0, 8.0), "", 4, 4)
    kernel = small.kernel()
    case = small.cases(1)[0]
    entries = small.run(case, kernel)
    assert small.check(case, entries, kernel) == []
    lam, bc, s = entries[2]
    r = s.roots[0]
    shifted = type(r)(r.x + 1e-7, r.multiplicity, r.residual, r.method)
    bad = list(entries)
    bad[2] = (lam, bc, _slice_with(s, (shifted,) + s.roots[1:]))
    assert small.check(case, bad, kernel) == ["residual", "orbit_equal"]


def test_cases_are_seeded_and_mix_closed_forms():
    a, b, c = SWEEP.cases(11), SWEEP.cases(11), SWEEP.cases(12)
    assert [x.spec for x in a] == [x.spec for x in b]
    assert [x.spec for x in a] != [x.spec for x in c]
    families = [x.family for x in a]
    assert families.count("dpp") == len(a) // 4
    assert {x.alpha for x in a if x.family == "dpp"} >= {0.0, np.pi}
    for x in a[:8]:  # the text form reproduces the matrix
        assert np.allclose(rs.parse_bc(x.spec).matrix, x.u.matrix, atol=1e-12)
    assert {x.spec for x in WORKLOADS["wide"].cases(1) if x.family == "qp"} == {"qp:alpha=0.0"}


def test_error_classes():
    exc = RuntimeError("root at x = 1 failed residual verification: |F| = 1e-9 > 1e-9")
    assert error_class(exc) == "RuntimeError: residual verification"
    assert error_class(rs.SpectralPoleError(1.0)) == "SpectralPoleError"


# ---------------------------------------------------------------------------
# runner


def test_tally_counts_inputs_not_repeats():
    import run

    outcomes = [run.Outcome(0, 1.0), run.Outcome(1, 1.0, "RuntimeError"),
                run.Outcome(0, 1.0), run.Outcome(1, 1.0, "RuntimeError"),
                run.Outcome(2, 1.0, None, ["residual"]), run.Outcome(3, 1.0),
                run.Outcome(3, 1.0, "RuntimeError")]
    assert run.tally(outcomes) == {"inputs": 4, "failed_inputs": 3, "mixed_inputs": 1}
    # a longer run repeats inputs more often but counts the same
    assert run.tally(outcomes + outcomes) == run.tally(outcomes)


def test_measure_attempts_every_input_and_pairs_each_op_with_the_baseline():
    import run

    events = []

    class _Baseline:
        def time_ms(self, spec):
            events.append(("base", spec))
            return 2.0

    def op(case):
        events.append(("op", case.spec))
        return case

    cases = SWEEP.cases(1)[:5]
    result = run.measure(SWEEP, cases, SWEEP.kernel(), 0.0, op, _Baseline())
    assert [o.case for o in result.outcomes] == list(range(5))
    assert all(o.base_ms == 2.0 for o in result.outcomes)
    # the baseline runs the same input, after even ops and before odd ones
    for i, case in enumerate(cases):
        assert events[2 * i: 2 * i + 2] == (
            [("op", case.spec), ("base", case.spec)] if i % 2 == 0
            else [("base", case.spec), ("op", case.spec)])
    assert run.latency(result.outcomes)["base_p50"] == 2.0


def test_baseline_times_the_frozen_library():
    from baseline import Baseline

    baseline = Baseline("sweep")
    try:
        assert baseline.time_ms(SWEEP.cases(1)[0].spec) > 0.0
        assert baseline.time_ms("dpp:alpha=0.0") > 0.0
    finally:
        baseline.close()
    assert baseline._proc.returncode == 0


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
