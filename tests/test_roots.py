"""Tests for eigenphase profiles and spectrum extraction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ring_spectra import bc
from ring_spectra.dirac import DiracKernel, coefficient_arrays
from ring_spectra.oracles import boundary_matrix
from ring_spectra.roots import (
    NumericalError,
    SpectrumSlice,
    eigenphase_profile,
    eigenphases,
    find_spectrum,
)
from ring_spectra.schrod import SchrodKernel

PROPERTY = settings(deadline=None, derandomize=True)


@st.composite
def unitary_bcs(draw):
    """A boundary condition from a chart point: eta in [0, pi) and a
    nonzero 4-vector normalized onto the unit sphere."""
    eta = draw(st.floats(0.0, np.pi, exclude_max=True))
    vec = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(4)])
    assume(np.linalg.norm(vec) > 0.1)
    m0, m1, m2, m3 = (float(v) for v in vec / np.linalg.norm(vec))
    return bc.parse_bc(f"u2:eta={eta!r},m0={m0!r},m1={m1!r},m2={m2!r},m3={m3!r}")


@st.composite
def kernel_points(draw):
    """A kernel and one energy, covering every regime of both theories."""
    regime = draw(st.sampled_from(
        ["outside", "inside", "mass+", "mass-", "massless", "schrod-", "schrod0", "schrod+"]
    ))
    if regime == "outside":
        mu0 = draw(st.floats(0.1, 20.0))
        mu = draw(st.sampled_from([1.0, -1.0])) * (mu0 + draw(st.floats(1e-6, 200.0)))
        return DiracKernel(mu0), mu
    if regime == "inside":  # kappa = sqrt(mu0^2 - mu^2) up to 500
        mu0 = draw(st.floats(0.5, 500.0))
        return DiracKernel(mu0), mu0 * draw(st.floats(-0.999, 0.999))
    if regime in ("mass+", "mass-"):
        mu0 = draw(st.floats(0.1, 50.0))
        return DiracKernel(mu0), mu0 if regime == "mass+" else -mu0
    if regime == "massless":
        return DiracKernel(0.0), draw(st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))
    if regime == "schrod-":
        return SchrodKernel(), draw(st.floats(-1e4, -1e-6))
    if regime == "schrod0":
        return SchrodKernel(), 0.0
    return SchrodKernel(), draw(st.floats(1e-6, 3e4))


def lapack_gap(kernel, x, u) -> float:
    """Largest |e^{i phase} - lambda| between the closed-form eigenphases
    and LAPACK's eigenvalues of W = B U^H, under the better pairing."""
    a, b, c = kernel.coefficients(np.array([x]))
    lam = np.exp(1j * eigenphases(a, b, c, u)[0])
    ref = np.linalg.eigvals(boundary_matrix(a, b)[0] @ u.matrix.conj().T)
    return min(np.max(np.abs(lam - ref)), np.max(np.abs(lam - ref[::-1])))


def test_profile_identity_at_matching_point():
    # U = B(mu*) makes W(mu*) = I: both phases vanish at that node
    mu0 = 1.0
    mu_star = 2.5
    a, b, _ = coefficient_arrays(np.array([mu_star]), mu0)
    u = bc.from_matrix(boundary_matrix(a, b)[0])
    grid = np.linspace(2.0, 3.0, 101)  # includes 2.5
    prof = eigenphase_profile(u, grid, DiracKernel(mu0))
    i = np.argmin(np.abs(grid - mu_star))
    assert np.max(np.abs(prof.phases[i])) < 1e-10
    # unwrapped tracks reassemble from wrapped phases and wrap counts
    assert np.allclose(prof.phases + 2 * np.pi * prof.wraps, prof.tracks)


def test_profile_crossings_dirac_periodic():
    # tracks cross zero at +-sqrt((2 pi n)^2 + 1), n = 0, 1, 2
    kernel = DiracKernel(1.0)
    u = bc.named_family("dpp", 0.0)
    grid = np.linspace(-14.0, 14.0, 4001)
    prof = eigenphase_profile(u, grid, kernel)
    expected = sorted(
        {s * np.sqrt((2 * np.pi * n) ** 2 + 1.0) for n in range(3) for s in (+1, -1)}
    )
    for mu_star in expected:
        i = np.argmin(np.abs(grid - mu_star))
        window = prof.phases[max(0, i - 2) : i + 3]  # wrapped: crossing means ~0
        assert np.min(np.abs(window)) < 0.1


def test_profile_crossings_schrod_quasi_periodic():
    u = bc.named_family("qp", 0.0)
    grid = np.linspace(0.0, 140.0, 4001)
    prof = eigenphase_profile(u, grid, SchrodKernel())
    for n in range(3):
        e_star = np.pi**2 * (n + 0.5) ** 2
        i = np.argmin(np.abs(grid - e_star))
        assert np.min(np.abs(prof.phases[max(0, i - 2) : i + 3])) < 0.1


def test_profile_rejects_bad_grid():
    u = bc.named_family("qp", 0.0)
    with pytest.raises(ValueError):
        eigenphase_profile(u, np.array([1.0, 1.0, 2.0]), SchrodKernel())


@PROPERTY
@given(point=kernel_points(), u=unitary_bcs())
def test_eigenphases_match_lapack(point, u):
    kernel, x = point
    assert lapack_gap(kernel, x, u) <= 1e-12


@PROPERTY
@given(point=kernel_points(), offset=st.sampled_from([0.0, 1e-9, -1e-9]))
def test_eigenphases_match_lapack_at_exact_degeneracy(point, offset):
    # U = B(x*): W = I at x*, both eigenphases vanish there
    kernel, x = point
    a, b, _ = kernel.coefficients(np.array([x]))
    u = bc.from_matrix(boundary_matrix(a, b)[0])
    assert lapack_gap(kernel, x + offset, u) <= 1e-12
    assert np.max(np.abs(np.exp(1j * eigenphases(*kernel.coefficients(x), u)) - 1.0)) < 1e-12


@PROPERTY
@given(n=st.integers(0, 40), sign=st.sampled_from([1.0, -1.0]), mu0=st.sampled_from([0.0, 1.0]))
def test_eigenphases_match_lapack_on_dpp_levels(n, sign, mu0):
    # dpp:alpha=0 levels +-sqrt((2 pi n)^2 + mu0^2) are doubly degenerate for n > 0
    x = sign * np.sqrt((2.0 * np.pi * n) ** 2 + mu0**2)
    assert lapack_gap(DiracKernel(mu0), x, bc.named_family("dpp", 0.0)) <= 1e-12


def test_find_spectrum_quasi_periodic_window():
    s = find_spectrum(bc.named_family("qp", 0.0), (0.0, 500.0), SchrodKernel())
    expect = np.pi**2 * (np.arange(7) + 0.5) ** 2
    assert len(s.roots) == 7
    assert all(r.multiplicity == 1 for r in s.roots)
    assert np.max(np.abs(s.expanded() - expect) / expect) < 1e-10


def test_find_spectrum_mass_mode_in_window():
    # identity condition admits mu = +mu0; window (0.5, 1.5] catches exactly
    # it, localized up to the mass-mode snap width (1e-12)
    s = find_spectrum(bc.from_matrix(np.eye(2)), (0.5, 1.5), DiracKernel(1.0))
    assert len(s.roots) == 1
    assert s.roots[0].x == pytest.approx(1.0, abs=3e-12)
    assert s.roots[0].multiplicity == 1


def test_find_spectrum_dirac_pseudo_periodic_alpha():
    kernel = DiracKernel(1.0)
    for alpha in (0.0, 1.0):
        expect = []
        for n in range(-4, 5):
            val = np.sqrt((2 * np.pi * n + alpha) ** 2 + 1.0)
            if val <= 15.0:
                expect.extend([val, -val])
        expect = np.sort(expect)
        got = find_spectrum(bc.named_family("dpp", alpha), (-15.0, 15.0), kernel).expanded()
        assert len(got) == len(expect)
        assert np.max(np.abs(got - expect)) < 1e-9


def test_find_spectrum_schrod_periodic_multiplicities():
    # periodic conditions: e = 0 simple (constant), e = (2 pi n)^2 doubly degenerate
    s = find_spectrum(bc.named_family("pp", 0.0), (-10.0, 200.0), SchrodKernel())
    got = [(r.x, r.multiplicity) for r in s.roots]
    assert len(got) == 3
    assert got[0][0] == pytest.approx(0.0, abs=1e-10) and got[0][1] == 1
    assert got[1][0] == pytest.approx(4 * np.pi**2, abs=1e-9) and got[1][1] == 2
    assert got[2][0] == pytest.approx(16 * np.pi**2, abs=1e-9) and got[2][1] == 2


def test_find_spectrum_massless_dirac():
    # massless periodic spinor conditions: mu = 2 pi n, the zero mode doubly so
    s = find_spectrum(bc.named_family("dpp", 0.0), (-7.0, 7.0), DiracKernel(0.0))
    got = [(round(r.x, 9), r.multiplicity) for r in s.roots]
    two_pi = round(2 * np.pi, 9)
    assert got == [(-two_pi, 2), (0.0, 2), (two_pi, 2)]


def test_find_spectrum_massless_chiral_is_asymmetric():
    # massless chiral conditions: F = e^{2i a} - e^{-2i mu}, so the
    # spectrum is the shifted ladder mu = pi n - a, not symmetric in mu
    alpha = 0.8
    s = find_spectrum(bc.named_family("chiral", alpha), (-10.0, 10.0), DiracKernel(0.0))
    expect = np.sort(
        [np.pi * n - alpha for n in range(-3, 4) if abs(np.pi * n - alpha) <= 10]
    )
    assert len(s.expanded()) == len(expect)
    assert np.max(np.abs(s.expanded() - expect)) < 1e-10
    assert all(r.multiplicity == 1 for r in s.roots)


def test_window_is_half_open():
    # boundary roots are resolved up to fp fuzz at the tol_root scale
    kernel = SchrodKernel()
    u = bc.named_family("qp", 0.0)
    e0 = np.pi**2 * 0.25
    s = find_spectrum(u, (e0, 100.0), kernel)  # root exactly at lo excluded
    assert all(r.x > e0 for r in s.roots)
    assert len(s.roots) == 2  # n = 1, 2; the n = 0 root sits at lo
    s = find_spectrum(u, (0.0, e0), kernel)  # root exactly at hi included
    assert len(s.roots) == 1
    assert s.roots[0].x == pytest.approx(e0, abs=1e-10)


def test_residual_contract():
    rng = np.random.default_rng(51)
    kernel = DiracKernel(1.0)
    for _ in range(20):
        s = find_spectrum(bc.random_unitary_bc(rng), (-8.0, 8.0), kernel)
        assert all(r.residual < 1e-9 for r in s.roots)


def test_high_energy_root_meets_residual_contract():
    # the root near e = 4354.14 used to come back as a bisection midpoint
    # 2e-9 off, |F| = 1.09e-9, and the search raised
    u = bc.parse_bc(
        "u2:eta=2.898828237744827,m0=0.7630449460145657,m1=0.47324551691884914,"
        "m2=0.3156935106245526,m3=0.3068203031537929"
    )
    kernel = SchrodKernel()
    s = find_spectrum(u, (0.0, 1e4), kernel)
    assert np.min(np.abs(s.values() - 4354.14181425)) < 1e-6
    assert np.all(np.abs(kernel.spectral_values(s.values(), u)) < 1e-9)


@settings(PROPERTY, max_examples=60)
@given(u=unitary_bcs(), lo=st.floats(1e4, 3e4))
def test_residual_contract_in_high_energy_windows(u, lo):
    kernel = SchrodKernel()
    s = find_spectrum(u, (lo, lo + 400.0), kernel)
    assert np.all(np.abs(kernel.spectral_values(s.values(), u)) < 1e-9)


def test_failed_verification_raises_numerical_error():
    with pytest.raises(NumericalError, match="residual verification"):
        find_spectrum(bc.named_family("qp", 0.0), (0.0, 50.0), SchrodKernel(), tol_residual=1e-30)


def test_grid_refinement_does_not_move_roots():
    rng = np.random.default_rng(52)
    kernel = SchrodKernel()
    for _ in range(10):
        u = bc.random_unitary_bc(rng)
        a = find_spectrum(u, (-20.0, 80.0), kernel, density=1024).expanded()
        b = find_spectrum(u, (-20.0, 80.0), kernel, density=2048).expanded()
        assert len(a) == len(b)
        if len(a):
            assert np.max(np.abs(a - b)) < 1e-10


def test_root_set_equal_on_conjugation_orbit():
    rng = np.random.default_rng(53)
    kernel = DiracKernel(1.0)
    for _ in range(10):
        u = bc.random_unitary_bc(rng)
        lam = rng.uniform(0, np.pi)
        a = find_spectrum(u, (-8.0, 8.0), kernel).expanded()
        b = find_spectrum(bc.conjugate_orbit(u, lam), (-8.0, 8.0), kernel).expanded()
        assert len(a) == len(b)
        if len(a):
            assert np.max(np.abs(a - b)) < 1e-10


def test_find_spectrum_validation():
    u = bc.named_family("qp", 0.0)
    kernel = SchrodKernel()
    with pytest.raises(ValueError):
        find_spectrum(u, (2.0, 1.0), kernel)
    with pytest.raises(ValueError):
        find_spectrum(u, (0.0, 1.0), kernel, density=32)
    with pytest.raises(ValueError):
        find_spectrum(u, (0.0, np.inf), kernel)


def test_spectrum_slice_expansion():
    s = SpectrumSlice(
        window=(0.0, 1.0),
        roots=(),
        grid_points=100,
        theory="schrod",
    )
    assert s.expanded().size == 0
