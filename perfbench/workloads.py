"""The three benchmark workloads: seeded inputs, one operation, and the
correctness gate applied to every operation's output.

All workloads use the library's default tolerances and grid density.
The library only ever sees the generated ``UnitaryBC`` objects and the
window; the seed picks the boundary conditions.

sweep   Dirac, mu0 = 1, window (-10, 10]: one ``find_spectrum`` per op.
        Three in four inputs are random U, one in four is ``dpp`` (half
        of those at alpha in {0, pi}, where every level is doubly
        degenerate, the rest at a uniform alpha).
wide    Schroedinger, window (0, 1e4]: one ``find_spectrum`` per op.
        Three in four inputs are random U, one in four is ``qp:alpha=0``.
orbit   Dirac, mu0 = 1, window (-200, 200]: one ``orbit_spectra`` with
        16 lambda samples per op, on a random U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ring_spectra as rs
from ring_spectra import iso

#: the residual contract every reported root must meet
TOL_RESIDUAL = 1e-9
#: closed-form families must match to this relative error
TOL_CLOSED_FORM = 1e-10
#: orbit members must have equal spectra to this absolute gap
TOL_ORBIT = 1e-8
#: random-U root counts may differ from Weyl's law by at most this
WEYL_SLACK = 2.0
#: roots closer than this (relative) are one level of the closed form
_DEGENERATE = 1e-8


@dataclass(frozen=True)
class Case:
    """One input: the boundary condition and its text form."""

    family: str  # "random", "dpp" or "qp"
    alpha: float
    spec: str
    u: rs.UnitaryBC


@dataclass(frozen=True)
class Workload:
    name: str
    theory: str
    mu0: float
    window: tuple[float, float]
    closed_form: str  # family mixed into the random inputs, "" for none
    n_lambda: int  # orbit samples per op; 0 means one search per op
    # distinct inputs per run: few enough that a run repeats each one
    # several times, so each input's fastest op can be taken
    n_cases: int

    def kernel(self):
        return rs.DiracKernel(self.mu0) if self.theory == "dirac" else rs.SchrodKernel()

    def cases(self, seed: int) -> list[Case]:
        """The seeded input list; ops cycle through it in order."""
        rng = np.random.default_rng(seed)
        out = []
        for i in range(self.n_cases):
            if self.closed_form and i % 4 == 3:
                if self.closed_form == "qp":
                    alpha = 0.0
                elif (i // 4) % 2 == 0:
                    alpha = float(np.pi * ((i // 8) % 2))
                else:
                    alpha = float(rng.uniform(0.0, 2.0 * np.pi))
                spec = f"{self.closed_form}:alpha={alpha!r}"
                out.append(Case(self.closed_form, alpha, spec, rs.parse_bc(spec)))
            else:
                u = rs.random_unitary_bc(rng)
                out.append(Case("random", float("nan"), u2_spec(u), u))
        return out

    def run(self, case: Case, kernel, find_spectrum=rs.find_spectrum):
        """One operation; returns what the library returned."""
        if self.n_lambda:
            return iso.orbit_spectra(case.u, self.window, kernel, n_lambda=self.n_lambda)
        return find_spectrum(case.u, self.window, kernel)

    def check(self, case: Case, result, kernel) -> list[str]:
        """Names of the correctness checks the output fails (empty if none)."""
        if not self.n_lambda:
            return check_slice(self, case, result, kernel)
        failed = []
        base = result[0][2]
        for _, bc, s in result:
            for name in check_slice(self, Case(case.family, case.alpha, case.spec, bc), s, kernel):
                if name not in failed:
                    failed.append(name)
        if not all(rs.compare_spectra(base, s, tol=TOL_ORBIT).equal for _, _, s in result[1:]):
            failed.append("orbit_equal")
        return failed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "dirac", 1.0, (-10.0, 10.0), "dpp", 0, 128),
        Workload("wide", "schrod", 0.0, (0.0, 1e4), "qp", 0, 8),
        Workload("orbit", "dirac", 1.0, (-200.0, 200.0), "", 16, 6),
    )
}


def u2_spec(u: rs.UnitaryBC) -> str:
    """The ``u2:`` text form of a boundary condition, at full precision."""
    eta, m0, m1, m2, m3 = (float(v) for v in (u.eta, u.m0, *u.m))
    return f"u2:eta={eta!r},m0={m0!r},m1={m1!r},m2={m2!r},m3={m3!r}"


# ---------------------------------------------------------------------------
# reference spectra


def dpp_levels(alpha: float, mu0: float, window) -> np.ndarray:
    """Spinor pseudo-periodic levels +-sqrt((2 pi n + alpha)^2 + mu0^2)."""
    lo, hi = window
    nmax = int(np.ceil(max(abs(lo), abs(hi)) / (2.0 * np.pi))) + 2
    k = 2.0 * np.pi * np.arange(-nmax, nmax + 1) + alpha
    vals = np.sqrt(k * k + mu0 * mu0)
    vals = np.concatenate([vals, -vals])
    return np.sort(vals[(vals > lo) & (vals <= hi)])


def qp_levels(window) -> np.ndarray:
    """Quasi-periodic (alpha = 0) levels pi^2 (n + 1/2)^2, n >= 0."""
    lo, hi = window
    n = np.arange(int(np.sqrt(max(hi, 0.0)) / np.pi) + 2)
    vals = np.pi**2 * (n + 0.5) ** 2
    return vals[(vals > lo) & (vals <= hi)]


def multiplicities(levels: np.ndarray) -> list[int]:
    """Multiplicity of each distinct level in a sorted list of levels."""
    out: list[int] = []
    for i, v in enumerate(levels):
        if i and v - levels[i - 1] <= _DEGENERATE * max(1.0, abs(v)):
            out[-1] += 1
        else:
            out.append(1)
    return out


def weyl_count(theory: str, mu0: float, window) -> float:
    """Leading-order eigenvalue count in (lo, hi]."""
    lo, hi = window
    if theory == "dirac":
        def n(mu):
            return np.sign(mu) * np.sqrt(max(mu * mu - mu0 * mu0, 0.0)) / np.pi
    else:
        def n(e):
            return np.sqrt(max(e, 0.0)) / np.pi
    return float(n(hi) - n(lo))


def check_slice(w: Workload, case: Case, s, kernel) -> list[str]:
    """Residual, closed-form and Weyl-count checks on one spectrum."""
    failed = []
    xs = s.values()
    if xs.size and not np.all(np.abs(kernel.spectral_values(xs, case.u)) < TOL_RESIDUAL):
        failed.append("residual")
    got = s.expanded()
    if case.family == "random":
        if abs(len(got) - weyl_count(w.theory, w.mu0, w.window)) > WEYL_SLACK:
            failed.append("weyl_count")
        return failed
    want = dpp_levels(case.alpha, w.mu0, w.window) if case.family == "dpp" else qp_levels(w.window)
    if (
        len(got) != len(want)
        or np.any(np.abs(got - want) > TOL_CLOSED_FORM * np.abs(want))
        or [r.multiplicity for r in s.roots] != multiplicities(want)
    ):
        failed.append("closed_form")
    return failed


def error_class(exc: BaseException) -> str:
    """Short, stable name for an exception raised by an operation."""
    msg = str(exc)
    for key in ("residual verification", "coincident eigenphase crossings"):
        if key in msg:
            return f"{type(exc).__name__}: {key}"
    return type(exc).__name__
