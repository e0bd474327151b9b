"""Tests for the non-relativistic kernel.

The closed-form coefficients were derived from the matrix path, so the
two routes agreeing is the load-bearing check here; the quasi-periodic
and Robin spectra are the independent physics oracles.
"""

import numpy as np
import pytest

from ring_spectra import bc
from ring_spectra.matalg import I2, det2
from ring_spectra.oracles import boundary_matrix, schrod_boundary_map
from ring_spectra.roots import find_spectrum
from ring_spectra.schrod import SchrodKernel


def closed_form_B(e) -> np.ndarray:
    """B = a I + b sx from the production coefficients, shape (n, 2, 2)."""
    a, b, *_ = SchrodKernel().coefficients(e)
    return boundary_matrix(a, b)


def spectral_value(e, u) -> complex:
    return complex(SchrodKernel().spectral_values(e, u)[0])


def matrix_path_B(e: float) -> np.ndarray:
    a_plus, a_minus = schrod_boundary_map(e)
    return a_minus @ np.linalg.inv(a_plus)


def test_zero_energy_limit_consistency():
    # polynomial-basis B(0) equals the e -> 0 limit of the e > 0 closed form
    b0 = matrix_path_B(0.0)
    b_small = closed_form_B(np.array([1e-9]))[0]
    assert np.max(np.abs(b_small - b0)) < 1e-8
    # and the kernel's own e = 0 values are that limit to machine precision
    b_closed = closed_form_B(np.array([0.0]))[0]
    assert np.max(np.abs(b_closed - b0)) < 1e-14


def test_periodic_bc_plane_wave_oracle():
    u_pp = bc.named_family("pp", 0.0)
    # qL = pi is antiperiodic, not periodic
    assert abs(spectral_value(np.pi**2, u_pp)) > 0.1
    # qL = 2 pi is periodic
    assert abs(spectral_value(4 * np.pi**2, u_pp)) < 1e-12


def test_closed_form_agrees_with_matrix_path():
    for e in np.linspace(-80.0, 380.0, 877):
        b_closed = closed_form_B(np.array([e]))[0]
        assert np.max(np.abs(b_closed - matrix_path_B(e))) < 1e-11


def test_spectral_value_equals_det_difference():
    rng = np.random.default_rng(31)
    for _ in range(100):
        u = bc.random_unitary_bc(rng)
        e = rng.uniform(-50.0, 200.0)
        via_triple = spectral_value(e, u)
        via_det = det2(matrix_path_B(e) - u.matrix)
        assert abs(via_triple - via_det) < 1e-11


def test_quasi_periodic_spectrum_low_lying():
    u = bc.named_family("qp", 0.0)
    s = find_spectrum(u, (0.0, 900.0), SchrodKernel())
    expect = np.pi**2 * (np.arange(10) + 0.5) ** 2
    got = s.expanded()
    assert len(got) == len(expect)
    assert np.max(np.abs(got - expect) / expect) < 1e-10


def test_neumann_dirichlet_shares_quasi_periodic_spectrum():
    kernel = SchrodKernel()
    s_qp = find_spectrum(bc.named_family("qp", 0.0), (0.0, 500.0), kernel)
    s_nd = find_spectrum(bc.named_family("qp", np.pi / 2), (0.0, 500.0), kernel)
    assert np.allclose(s_qp.expanded(), s_nd.expanded(), atol=1e-10)


def test_orbit_invariance_pointwise():
    rng = np.random.default_rng(32)
    e = np.linspace(-60.0, 300.0, 800)
    for _ in range(10):
        u = bc.random_unitary_bc(rng)
        v = bc.conjugate_orbit(u, rng.uniform(0, np.pi))
        kernel = SchrodKernel()
        assert np.max(np.abs(kernel.spectral_values(e, u) - kernel.spectral_values(e, v))) < 1e-12


def test_B_unitary_across_regimes():
    e = np.linspace(-100.0, 400.0, 5001)  # includes e = 0 by construction
    assert np.any(e == 0.0)
    mats = closed_form_B(e)
    gram = np.einsum("nki,nkj->nij", mats.conj(), mats)
    assert np.max(np.linalg.norm(gram - I2, axis=(1, 2))) < 1e-10


def test_robin_family_is_parity_symmetric():
    for alpha in (0.3, 1.0, 4.2):
        u = bc.named_family("robin", alpha)
        assert bc.is_parity_symmetric(u)
        for lam in (0.1, 0.7, 2.3):
            assert np.max(np.abs(bc.conjugate_orbit(u, lam).matrix - u.matrix)) < 1e-14


def robin_oracle_roots(gamma: float, e_max: float) -> np.ndarray:
    """Independent secular equations for the Robin condition.

    With gamma = cot(alpha/2), separating even/odd solutions of the
    interval problem gives q tan(q/2) = gamma (even) and
    q cot(q/2) = -gamma (odd), plus hyperbolic counterparts
    -kappa tanh(kappa/2) = gamma and -kappa coth(kappa/2) = gamma
    below zero.  Solved here by dense sampling + bisection, fully
    independent of the kernel code.
    """
    from scipy.optimize import brentq  # test-only dependency

    roots = []

    def sweep(fn, lo, hi, n=200_000):
        xs = np.linspace(lo, hi, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = fn(xs)
        good = np.isfinite(vals[:-1]) & np.isfinite(vals[1:])
        for i in np.nonzero(good & (vals[:-1] * vals[1:] <= 0) & (vals[:-1] != 0))[0]:
            r = brentq(fn, xs[i], xs[i + 1], xtol=1e-14)
            # reject tangent-pole sign flips: genuine roots have small |fn|
            if abs(fn(r)) < 1e-6:
                roots.append(r)

    qmax = np.sqrt(e_max)
    sweep(lambda q: q * np.sin(q / 2) - gamma * np.cos(q / 2), 1e-9, qmax)
    sweep(lambda q: q * np.cos(q / 2) + gamma * np.sin(q / 2), 1e-9, qmax)
    e_pos = [r * r for r in roots]

    roots.clear()
    sweep(lambda k: k * np.tanh(k / 2) + gamma, 1e-9, 60.0, n=60_000)
    sweep(lambda k: k * np.cosh(k / 2) / np.sinh(k / 2) + gamma, 1e-9, 60.0, n=60_000)
    e_neg = [-r * r for r in roots]
    return np.sort(e_neg + e_pos)


@pytest.mark.parametrize("alpha", [0.9, 4.0, 5.8])
def test_robin_spectrum_against_secular_oracle(alpha):
    gamma = 1.0 / np.tan(alpha / 2.0)
    expect = robin_oracle_roots(gamma, e_max=300.0)
    expect = expect[(expect > -200.0) & (expect <= 300.0)]
    s = find_spectrum(bc.named_family("robin", alpha), (-200.0, 300.0), SchrodKernel())
    got = s.expanded()
    assert len(got) == len(expect)
    assert np.max(np.abs(got - expect)) < 1e-8


def test_distinct_robin_conditions_have_distinct_spectra():
    kernel = SchrodKernel()
    s1 = find_spectrum(bc.named_family("robin", 0.3), (0.0, 300.0), kernel)
    s2 = find_spectrum(bc.named_family("robin", 0.9), (0.0, 300.0), kernel)
    v1, v2 = s1.expanded(), s2.expanded()
    assert len(v1) != len(v2) or np.max(np.abs(v1 - v2)) > 1e-3


def test_regime_classification():
    # the solution basis follows the sign of e, and the whole snap band
    # of e = 0 takes the polynomial basis of e = 0 itself
    zero = schrod_boundary_map(0.0)
    for e in (1e-14, -1e-14):
        assert all(np.array_equal(m, z) for m, z in zip(schrod_boundary_map(e), zero))
    for e in (2.0, -2.0):
        assert not np.allclose(schrod_boundary_map(e)[0], zero[0])
    # plane waves e^{+-iqx} above zero, (cosh, sinh)(kappa x) below
    q = np.sqrt(2.0)
    assert schrod_boundary_map(2.0)[0][0, 0] == pytest.approx(1j * np.exp(-0.5j * q) * (1.0 - q))
    kap = np.sqrt(2.0)
    assert schrod_boundary_map(-2.0)[0][0, 0] == pytest.approx(
        kap * np.sinh(kap / 2.0) + 1j * np.cosh(kap / 2.0)
    )
