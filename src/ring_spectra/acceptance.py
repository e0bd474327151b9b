"""Acceptance suite: the checks that gate a release.

Each check is a pure function returning a :class:`CheckResult`; the CLI
``verify`` subcommand prints them as TAP lines and the test suite runs
them one per test.  All random checks use fixed seeds so a pass is
reproducible bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bc, dirac, oracles, schrod, triple
from .iso import compare_spectra
from .matalg import I2, det2
from .roots import find_spectra, find_spectrum

DIRAC_WINDOW = (-10.0, 10.0)  # ten gap widths at mu0 = 1
SCHROD_WINDOW = (-20.0, 80.0)  # no gap exists; a window catching several roots


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    detail: str


def _spinor_pairs(rng: np.random.Generator, count: int) -> list[tuple[triple.SpinorSample, triple.SpinorSample]]:
    """Random degree-4 polynomial and trigonometric spinors with
    analytically supplied derivatives."""

    def poly_sample() -> triple.SpinorSample:
        coeff = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        dcoeff = np.array([np.polyder(c) for c in coeff])

        def psi(x):
            return np.column_stack([np.polyval(c, x) for c in coeff])

        def dpsi(x):
            return np.column_stack([np.polyval(c, x) for c in dcoeff])

        return triple.SpinorSample.from_callables(psi, dpsi)

    def trig_sample() -> triple.SpinorSample:
        om = rng.uniform(-12.0, 12.0, size=2)
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)

        def psi(x):
            return np.column_stack([amp[0] * np.exp(1j * om[0] * x), amp[1] * np.exp(1j * om[1] * x)])

        def dpsi(x):
            return np.column_stack(
                [1j * om[0] * amp[0] * np.exp(1j * om[0] * x), 1j * om[1] * amp[1] * np.exp(1j * om[1] * x)]
            )

        return triple.SpinorSample.from_callables(psi, dpsi)

    out = []
    for k in range(count):
        make = poly_sample if k % 2 == 0 else trig_sample
        out.append((make(), make()))
    return out


def check_quasi_periodic_spectrum() -> CheckResult:
    """Roots of the quasi-periodic family in e = (0, 500] match
    pi^2 (n + 1/2)^2, n = 0..6, to 1e-10 relative; < 1 s."""
    bcs = [
        bc.named_family("qp", alpha=0.0),
        bc.named_family("qp", alpha=np.pi / 2.0),
        bc.named_family("pp", alpha=np.pi / 2.0),
    ]
    expected = np.pi**2 * (np.arange(7) + 0.5) ** 2
    kernel = schrod.SchrodKernel()
    start = time.perf_counter()
    worst = 0.0
    for u in bcs:
        got = find_spectrum(u, (0.0, 500.0), kernel).expanded()
        if len(got) != len(expected):
            return CheckResult(False, f"found {len(got)} roots, expected {len(expected)}")
        worst = max(worst, float(np.max(np.abs(got - expected) / expected)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    return CheckResult(ok, f"max rel err {worst:.2e}, {elapsed:.2f} s for 3 conditions")


def check_isospectral_orbits() -> CheckResult:
    """50 random U x lambda in {0.37, 1.2, 2.9}, both theories: spectra
    equal at tol 1e-8; < 60 s."""
    rng = np.random.default_rng(20240201)
    lams = (0.37, 1.2, 2.9)
    jobs = [
        (dirac.DiracKernel(1.0), DIRAC_WINDOW),
        (schrod.SchrodKernel(), SCHROD_WINDOW),
    ]
    start = time.perf_counter()
    worst = 0.0
    for kernel, window in jobs:
        for _ in range(50):
            u = bc.random_unitary_bc(rng)
            orbit = [u] + [bc.conjugate_orbit(u, lam) for lam in lams]
            base, *others = find_spectra(orbit, window, kernel)
            for other in others:
                cmp = compare_spectra(base, other, tol=1e-8)
                if not cmp.equal:
                    return CheckResult(
                        False, f"orbit spectrum differs (gap {cmp.max_pairwise_gap:.2e})"
                    )
                worst = max(worst, cmp.max_pairwise_gap)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    return CheckResult(ok, f"max root gap {worst:.2e}, {elapsed:.1f} s for 400 searches")


def check_pointwise_invariance() -> CheckResult:
    """|F_U - F_{U_lambda}| < 1e-12 on 2000-point grids, 20 random (U, lambda)."""
    rng = np.random.default_rng(7)
    mu = np.linspace(-10.0, 10.0, 2000)
    e = np.linspace(-50.0, 450.0, 2000)
    dk, sk = dirac.DiracKernel(1.0), schrod.SchrodKernel()
    worst = 0.0
    for _ in range(20):
        u = bc.random_unitary_bc(rng)
        v = bc.conjugate_orbit(u, rng.uniform(0.0, np.pi))
        worst = max(
            worst,
            float(np.max(np.abs(dk.spectral_values(mu, u) - dk.spectral_values(mu, v)))),
            float(np.max(np.abs(sk.spectral_values(e, u) - sk.spectral_values(e, v)))),
        )
    return CheckResult(worst < 1e-12, f"max |F_U - F_U_lambda| = {worst:.2e}")


def check_mass_mode_criterion() -> CheckResult:
    """|F(+-mu0)| < 1e-9 iff the closed-form membership holds, 200 U x
    mu0 in {0.5, 1, 5}."""
    rng = np.random.default_rng(11)
    kernels = {mu0: dirac.DiracKernel(mu0) for mu0 in (0.5, 1.0, 5.0)}
    for _ in range(200):
        u = bc.random_unitary_bc(rng)
        for mu0, kernel in kernels.items():
            for sign in (+1, -1):
                f_abs = abs(kernel.spectral_values(sign * mu0, u)[0])
                by_f = f_abs < 1e-9
                by_chart = dirac.mass_mode_membership(u, sign, mu0, tol=1e-10)
                if by_f != by_chart:
                    return CheckResult(
                        False,
                        f"criterion split at mu0={mu0}, sign={sign}: |F|={f_abs:.2e}",
                    )
    return CheckResult(True, "1200 samples, spectral and chart criteria agree")


def check_dual_path_kernel() -> CheckResult:
    """Closed-form (a, b, c) vs B = A_minus A_plus^{-1} to 1e-11 on 1e4
    points; det A_pm matches its closed form to 1e-10 relative."""
    mu0 = 2.0
    mu = np.linspace(-12.0, 12.0, 10_010)
    mu = mu[(np.abs(mu - mu0) > 1e-3) & (np.abs(mu + mu0) > 1e-3)]
    assert len(mu) >= 10_000
    worst_b = 0.0
    worst_det = 0.0
    closed_b = oracles.boundary_matrix(*dirac.DiracKernel(mu0).coefficients(mu)[:2])
    for m, b_closed in zip(mu, closed_b):
        a_plus, a_minus = oracles.build_Apm(float(m), mu0)
        b_mat = a_minus @ np.linalg.inv(a_plus)
        worst_b = max(worst_b, float(np.max(np.abs(b_mat - b_closed))))
        k = oracles.wavenumber(float(m), mu0)
        for mat, sgn in ((a_plus, +1), (a_minus, -1)):
            closed = (-4j / (m + mu0)) * (m * np.sin(k) - sgn * 1j * k * np.cos(k))
            worst_det = max(worst_det, float(abs(det2(mat) - closed) / abs(closed)))
    ok = worst_b < 1e-11 and worst_det < 1e-10
    return CheckResult(ok, f"max |B gap| {worst_b:.2e}, max det rel err {worst_det:.2e}")


def check_unitarity_unimodularity() -> CheckResult:
    """||B^H B - I|| < 1e-10 and ||c|-1| < 1e-12 on a grid reaching
    kappa = 500 inside the gap."""
    mu0 = 500.0
    mu = np.concatenate(
        [
            np.linspace(-520.0, -500.05, 400),
            np.linspace(-499.999, 499.999, 4001),
            np.array([0.0, -mu0, mu0]),
            np.linspace(500.05, 520.0, 400),
        ]
    )
    mu.sort()
    a, b, c, _ = dirac.DiracKernel(mu0).coefficients(mu)
    bmat = oracles.boundary_matrix(a, b)
    gram = np.einsum("nki,nkj->nij", bmat.conj(), bmat)
    unit_res = float(np.max(np.linalg.norm(gram - I2, axis=(1, 2))))
    c_res = float(np.max(np.abs(np.abs(c) - 1.0)))
    ok = unit_res < 1e-10 and c_res < 1e-12
    return CheckResult(ok, f"max ||B^H B - I|| = {unit_res:.2e}, max ||c|-1| = {c_res:.2e}")


def check_gap_edge_continuity() -> CheckResult:
    """||B(mu0 + d) - B(mu0)|| falls off at first order in d."""
    mu0 = 1.0
    b0 = oracles.mass_mode_B(+1, mu0)
    deltas = np.array([1e-2, 1e-3, 1e-4])
    a, b, *_ = dirac.DiracKernel(mu0).coefficients(mu0 + deltas)
    gaps = np.linalg.norm(oracles.boundary_matrix(a, b) - b0, axis=(1, 2))
    slope = float(np.polyfit(np.log(deltas), np.log(gaps), 1)[0])
    ok = slope >= 0.95 and bool(np.all(np.diff(gaps) < 0))
    return CheckResult(ok, f"observed order {slope:.3f}, gaps {gaps[0]:.1e} -> {gaps[-1]:.1e}")


def check_dirac_pseudo_periodic_oracle() -> CheckResult:
    """Spinor pseudo-periodic conditions at mu0 = 1: roots equal the
    plane-wave values +-sqrt((2 pi n + alpha)^2 + 1) to 1e-9; < 5 s."""
    kernel = dirac.DiracKernel(1.0)
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, 1.0):
        u = bc.named_family("dpp", alpha=alpha)
        got = find_spectrum(u, (-15.0, 15.0), kernel).expanded()
        expect = []
        for n in range(-4, 5):
            k = 2.0 * np.pi * n + alpha
            val = np.sqrt(k * k + 1.0)
            if val <= 15.0:
                expect.extend([val, -val])
        expect = np.sort(expect)
        if len(got) != len(expect):
            return CheckResult(
                False, f"alpha={alpha}: found {len(got)} roots, expected {len(expect)}"
            )
        worst = max(worst, float(np.max(np.abs(got - expect))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    return CheckResult(ok, f"max |root err| {worst:.2e}, {elapsed:.2f} s")


def check_boundary_form_identity() -> CheckResult:
    """Boundary-triple identity residual < 1e-8, 20 random spinor pairs
    in each of 3 representations."""
    rng = np.random.default_rng(23)
    reps = [triple.DIRAC_REP, triple.CliffordRep(np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])), triple.random_rep(rng)]
    worst = 0.0
    for rep in reps:
        for psi1, psi2 in _spinor_pairs(rng, 20):
            worst = max(worst, triple.boundary_form_check(rep, psi1, psi2))
    return CheckResult(worst < 1e-8, f"max identity residual {worst:.2e} over 60 pairs")


def check_representation_independence() -> CheckResult:
    """Spectra assembled in three representations agree root-by-root to
    1e-8 for 10 random U (each representation kernel maps its transfer
    matrix back to the standard basis, so all searches take the same U)."""
    rng = np.random.default_rng(31)
    mu0 = 1.0
    window = (-8.0, 8.0)
    reps = [
        triple.DIRAC_REP,
        triple.CliffordRep(np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])),
        triple.random_rep(rng),
    ]
    base_kernel = dirac.DiracKernel(mu0)
    worst = 0.0
    for _ in range(10):
        u = bc.random_unitary_bc(rng)
        base = find_spectrum(u, window, base_kernel)
        for rep in reps:
            other = find_spectrum(u, window, triple.RepKernel(rep, mu0))
            if len(base.expanded()) != len(other.expanded()):
                return CheckResult(False, "root count differs between representations")
            worst = max(worst, float(np.max(np.abs(base.expanded() - other.expanded()))))
    return CheckResult(worst < 1e-8, f"max root gap across representations {worst:.2e}")


def check_grid_refinement_stability() -> CheckResult:
    """The grid oracle at density 1024 and at 2048 finds the roots the
    grid-free search finds: no root moves by more than 1e-10 and no
    count changes, over 50 random U."""
    rng = np.random.default_rng(41)
    jobs = [
        (dirac.DiracKernel(1.0), (-8.0, 8.0), 25),
        (schrod.SchrodKernel(), SCHROD_WINDOW, 25),
    ]
    worst = 0.0
    for kernel, window, count in jobs:
        for _ in range(count):
            u = bc.random_unitary_bc(rng)
            found = find_spectrum(u, window, kernel).expanded()
            for density in (1024, 2048):
                grid = oracles.grid_spectra([u], window, kernel, density=density)[0].expanded()
                if len(grid) != len(found):
                    return CheckResult(False, f"root count differs from the grid at density {density}")
                worst = max(worst, float(np.max(np.abs(grid - found), initial=0.0)))
    return CheckResult(worst < 1e-10, f"max root gap to the grid at densities 1024 and 2048 {worst:.2e}")


def check_parity_distinguishability() -> CheckResult:
    """20 random parity-family pairs separated by >= 1e-3 in each chart
    coordinate produce spectra differing by > 1e-4 somewhere in a
    ten-gap-width window (finite-window evidence, not a proof)."""
    rng = np.random.default_rng(53)
    kernel = dirac.DiracKernel(1.0)
    pairs = 0
    while pairs < 20:
        eta1, eta2 = rng.uniform(0.0, np.pi, size=2)
        th1, th2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        if abs(eta1 - eta2) < 1e-3 or abs(th1 - th2) < 1e-3:
            continue
        pairs += 1
        s1 = find_spectrum(bc.named_family("parity", eta=eta1, theta=th1), DIRAC_WINDOW, kernel)
        s2 = find_spectrum(bc.named_family("parity", eta=eta2, theta=th2), DIRAC_WINDOW, kernel)
        cmp = compare_spectra(s1, s2, tol=1e-4)
        if cmp.equal:
            return CheckResult(
                False,
                f"parity pair (eta,theta)=({eta1:.3f},{th1:.3f}) vs "
                f"({eta2:.3f},{th2:.3f}) indistinguishable in window {DIRAC_WINDOW}",
            )
    return CheckResult(True, f"20 pairs distinguished within window {DIRAC_WINDOW}")


CHECKS: tuple[tuple[int, str, Callable[[], CheckResult]], ...] = (
    (1, "quasi-periodic spectrum equals pi^2 (n + 1/2)^2", check_quasi_periodic_spectrum),
    (2, "conjugation orbits are isospectral (both theories)", check_isospectral_orbits),
    (3, "spectral function is pointwise orbit-invariant", check_pointwise_invariance),
    (4, "mass-mode membership criterion matches |F| = 0", check_mass_mode_criterion),
    (5, "closed-form kernel agrees with the matrix path", check_dual_path_kernel),
    (6, "B unitary and det B unimodular up to kappa = 500", check_unitarity_unimodularity),
    (7, "gap-edge continuity at first order", check_gap_edge_continuity),
    (8, "pseudo-periodic roots match the plane-wave oracle", check_dirac_pseudo_periodic_oracle),
    (9, "boundary-form identity holds by quadrature", check_boundary_form_identity),
    (10, "spectra are representation independent", check_representation_independence),
    (11, "root set is stable under grid refinement (grid oracle)", check_grid_refinement_stability),
    (12, "parity-family pairs are distinguishable (finite window)", check_parity_distinguishability),
)


def run_all(numbers=None, stream=None) -> bool:
    """Run checks (all by default) printing TAP lines, each ending in the
    check's wall time; True iff all pass.  A selection naming a number
    no check has raises ValueError before anything runs."""
    import sys

    known = [num for num, _, _ in CHECKS]
    unknown = sorted(set(numbers or ()) - set(known))
    if unknown:
        raise ValueError(
            f"no acceptance check numbered {', '.join(map(str, unknown))}; "
            f"checks are numbered {known[0]} to {known[-1]}"
        )
    out = stream or sys.stdout
    selected = [c for c in CHECKS if numbers is None or c[0] in numbers]
    print(f"1..{len(selected)}", file=out)
    all_ok = True
    for idx, (num, desc, fn) in enumerate(selected, start=1):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        status = "ok" if result.ok else "not ok"
        print(f"{status} {idx} - [{num}] {desc}: {result.detail} ({elapsed:.2f} s)", file=out)
        all_ok &= result.ok
    return all_ok
