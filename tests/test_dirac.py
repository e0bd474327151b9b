"""Tests for the relativistic kernel: coefficients, mass modes, the
spectral function, and the dual evaluation paths (with the oracles'
wavenumber and plane-wave matrices)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ring_spectra import bc, find_spectrum
from ring_spectra.dirac import (
    _MAX_MU0,
    DiracKernel,
    PhysicalConfig,
    _closed_form,
    coefficient_arrays,
    mass_mode_membership,
)
from ring_spectra.matalg import I2, SX, det2
from ring_spectra.oracles import (
    boundary_matrix,
    build_Apm,
    mass_mode_Apm,
    mass_mode_B,
    snap_band,
    wavenumber,
)


def closed_form_B(mu, mu0):
    """B = a I + b sx from the production coefficients, shape (n, 2, 2)."""
    a, b, *_ = coefficient_arrays(np.atleast_1d(mu), mu0)
    return boundary_matrix(a, b)


def spectral_value(mu, mu0, u) -> complex:
    return complex(DiracKernel(mu0).spectral_values(mu, u)[0])


def test_wavenumber_pythagorean():
    assert wavenumber(5.0, 3.0) == pytest.approx(4.0)


def test_wavenumber_inside_gap():
    assert wavenumber(0.0, 1.0) == pytest.approx(1j)


def test_wavenumber_below_gap_is_positive_real():
    assert wavenumber(-5.0, 3.0) == pytest.approx(4.0)


def test_wavenumber_rejects_mass_modes():
    with pytest.raises(ValueError):
        wavenumber(1.0, 1.0)


def test_classification_and_snapping():
    # real outside the gap, imaginary inside, and undefined in the whole
    # snap band of +-mu0 (of mu = 0 when mu0 = 0)
    assert wavenumber(5.0, 3.0).imag == 0.0 and wavenumber(-5.0, 3.0).imag == 0.0
    assert wavenumber(0.5, 3.0).real == 0.0
    for mu, mu0 in ((3.0 + 1e-13, 3.0), (-3.0 - 1e-13, 3.0), (0.0, 0.0), (1e-13, 0.0)):
        with pytest.raises(ValueError):
            wavenumber(mu, mu0)
    assert wavenumber(3.0 + 2 * snap_band(3.0), 3.0).imag == 0.0


def test_massless_coefficients():
    # a vanishes identically and |c| = 1 with c = (sin + i cos)/(sin - i cos) at K = |mu|
    mu = np.array([0.7, 2.0, -3.3, 11.0])
    a, b, c, _ = coefficient_arrays(mu, 0.0)
    assert np.max(np.abs(a)) == 0.0
    k = np.abs(mu)
    expect = (mu * np.sin(k) + 1j * k * np.cos(k)) / (mu * np.sin(k) - 1j * k * np.cos(k))
    assert np.allclose(c, expect, atol=1e-14)
    assert np.max(np.abs(np.abs(c) - 1.0)) < 1e-14


def test_kernel_against_matrix_path_345():
    a_plus, a_minus = build_Apm(5.0, 3.0)
    b_mat = a_minus @ np.linalg.inv(a_plus)
    a, b, *_ = (v[0] for v in coefficient_arrays(np.array([5.0]), 3.0))
    assert np.max(np.abs(b_mat - (a * I2 + b * SX))) < 1e-12


def test_hyperbolic_form_equals_complex_wavenumber_form():
    # in-gap production path vs the plane-wave formulas evaluated at K = i kappa
    mu0 = 1.0
    for mu in np.linspace(-0.95, 0.95, 39):
        kap = np.sqrt(mu0**2 - mu**2)
        k = 1j * kap
        d = mu * np.sin(k) - 1j * k * np.cos(k)
        expect = (mu0 * np.sin(k) / d, -1j * k / d)
        a, b, c, _ = (v[0] for v in coefficient_arrays(np.array([mu]), mu0))
        assert abs(a - expect[0]) < 1e-12
        assert abs(b - expect[1]) < 1e-12
        assert abs(c - (a * a - b * b)) < 1e-13


def test_build_Apm_det_example():
    # mu=5, mu0=3: amplitude ratio 1/2 and the closed-form determinant
    a_plus, a_minus = build_Apm(5.0, 3.0)
    ratio = wavenumber(5.0, 3.0) / (5.0 + 3.0)
    assert ratio == pytest.approx(0.5)
    for mat, sgn in ((a_plus, +1), (a_minus, -1)):
        closed = (-4j / 8.0) * (5.0 * np.sin(4.0) - sgn * 1j * 4.0 * np.cos(4.0))
        assert det2(mat) == pytest.approx(closed, abs=1e-12)


def test_build_Apm_massless_dual_path():
    a_plus, a_minus = build_Apm(2 * np.pi, 0.0)
    assert np.max(np.abs(a_minus @ np.linalg.inv(a_plus) - closed_form_B(2 * np.pi, 0.0)[0])) < 1e-12


def test_build_Apm_rejects_mass_modes():
    with pytest.raises(ValueError):
        build_Apm(3.0, 3.0)


def test_mass_mode_B_plus_example():
    expect = (1.0 / (1.0 - 1j)) * np.array([[1.0, -1j], [-1j, 1.0]])
    assert np.max(np.abs(mass_mode_B(+1, 1.0) - expect)) < 1e-15


def test_mass_mode_B_minus_unimodular():
    b = mass_mode_B(-1, 1.0)
    assert abs(abs(det2(b)) - 1.0) < 1e-12
    assert np.linalg.norm(b.conj().T @ b - I2) < 1e-12


def test_mass_mode_B_matches_polynomial_matrix_path():
    for sign in (+1, -1):
        for mu0 in (0.5, 1.0, 4.0):
            a_plus, a_minus = mass_mode_Apm(sign, mu0)
            assert np.max(np.abs(a_minus @ np.linalg.inv(a_plus) - mass_mode_B(sign, mu0))) < 1e-12


def test_mass_mode_B_continuity():
    b0 = mass_mode_B(+1, 1.0)
    gaps = [np.linalg.norm(closed_form_B(1.0 + d, 1.0)[0] - b0) for d in (1e-3, 1e-5)]
    assert gaps[1] < gaps[0] < 2e-3
    # approach from inside the gap converges as well
    inner = [np.linalg.norm(closed_form_B(1.0 - d, 1.0)[0] - b0) for d in (1e-3, 1e-5)]
    assert inner[1] < inner[0] < 2e-3


def test_mass_mode_B_rejects_massless():
    with pytest.raises(ValueError):
        mass_mode_B(+1, 0.0)


def test_spectral_value_identity_bc_at_mass_modes():
    u = bc.from_matrix(I2)
    for mu0 in (0.5, 1.0, 5.0):
        assert abs(spectral_value(mu0, mu0, u)) < 1e-14
    assert abs(spectral_value(-1.0, 1.0, u)) > 0.1


def test_spectral_value_assembly_paths_agree():
    rng = np.random.default_rng(21)
    mu0 = 1.3
    for _ in range(50):
        u = bc.random_unitary_bc(rng)
        mu = rng.uniform(-8.0, 8.0)
        via_triple = spectral_value(mu, mu0, u)
        via_det = det2(closed_form_B(mu, mu0)[0] - u.matrix)
        assert abs(via_triple - via_det) < 1e-11


def test_spectral_value_orbit_invariance_pointwise():
    rng = np.random.default_rng(22)
    mu = np.linspace(-6.0, 6.0, 500)
    kernel = DiracKernel(1.0)
    for _ in range(10):
        u = bc.random_unitary_bc(rng)
        v = bc.conjugate_orbit(u, rng.uniform(0, np.pi))
        gap = np.abs(kernel.spectral_values(mu, u) - kernel.spectral_values(mu, v))
        assert gap.max() < 1e-12


def test_membership_examples():
    u_id = bc.from_matrix(I2)
    assert mass_mode_membership(u_id, +1, 0.7)
    assert mass_mode_membership(u_id, +1, 5.0)
    assert not mass_mode_membership(u_id, -1, 1.0)
    u_pp = bc.named_family("pp", 0.0)  # eta=pi/2, m0=0, m1=1
    assert not mass_mode_membership(u_pp, +1, 0.5)
    assert not mass_mode_membership(u_pp, +1, 2.0)


def test_unimodular_c_on_three_gap_widths():
    mu0 = 1.0
    mu = np.linspace(-3.0, 3.0, 10_000)
    _, _, c, _ = coefficient_arrays(mu, mu0)
    assert np.max(np.abs(np.abs(c) - 1.0)) < 1e-12


def test_c_equals_a2_minus_b2_everywhere():
    mu0 = 2.0
    mu = np.linspace(-9.0, 9.0, 5000)
    a, b, c, _ = coefficient_arrays(mu, mu0)
    assert np.max(np.abs(c - (a * a - b * b))) < 1e-12


def test_B_unitary_including_mass_modes():
    mu0 = 1.0
    mu = np.concatenate([np.linspace(-3.0, 3.0, 3001), [-1.0, 1.0]])
    mats = closed_form_B(mu, mu0)
    gram = np.einsum("nki,nkj->nij", mats.conj(), mats)
    assert np.max(np.linalg.norm(gram - I2, axis=(1, 2))) < 1e-10


@st.composite
def closed_form_pairs(draw):
    """(p, n) arrays: Dirac energies around the gap edges +-mu0, with mu0
    in {0} and [1e-300, 1e12], or Schrodinger energies (e, 1)."""
    if draw(st.booleans()):
        e = draw(st.lists(st.floats(5e-324, 1e15), min_size=1, max_size=8))
        e = np.concatenate([e, np.negative(e), [0.0]])
        return e, np.ones_like(e)
    mu0 = draw(st.just(0.0) | st.floats(1e-300, 1e12))
    edges = [mu0, np.nextafter(mu0, 0.0), np.nextafter(mu0, np.inf),
             mu0 * (1.0 - 1e-12), mu0 * (1.0 + 1e-12)]
    rel = draw(st.lists(st.floats(-1.0, 1e3), min_size=1, max_size=8))
    mags = draw(st.lists(st.floats(1e-320, 1e15), min_size=1, max_size=8))
    mu = np.concatenate([edges, mu0 * (1.0 + np.array(rel)), mags, [0.0]])
    mu = np.concatenate([mu, np.negative(mu)])
    return mu - mu0, mu + mu0


@settings(deadline=None, derandomize=True, max_examples=300)
@given(pair=closed_form_pairs())
def test_the_closed_form_has_no_pole(pair):
    # |D|^2 = (mu S)^2 + C^2 >= 1 on every branch (module docstring), so
    # the spectral function has no pole anywhere on the real axis
    mu, _, _, big_s, big_c, *_ = _closed_form(*pair)
    mu_s = mu * big_s
    d2 = mu_s * mu_s + big_c * big_c
    finite = np.isfinite(d2)
    assert np.all(d2[finite] >= 1.0 - 8.0 * np.finfo(float).eps)


@pytest.mark.parametrize("mu0", [np.nextafter(_MAX_MU0, np.inf), 1e155, 1e160, 1e200, 1e308])
def test_a_rest_energy_whose_square_overflows_is_refused(mu0):
    # mu0^2 = inf: K^2 = p n overflows in and around the gap, where the
    # in-gap bound state was lost (1e160, 1e200) or failed verification
    # with an overflow warning (1e155); the message names the limit
    with pytest.raises(ValueError, match=r"at most 1\.3407807929942596e\+154"):
        DiracKernel(mu0)


@pytest.mark.parametrize("mu0", [1e100, 1e154, _MAX_MU0])
def test_a_rest_energy_up_to_the_limit_keeps_its_bound_state(mu0):
    # each of these conditions has one root inside the gap at every mu0
    # from 1e100 up to the largest one whose square is finite
    assert _MAX_MU0 * _MAX_MU0 < np.inf
    rng = np.random.default_rng(11)
    kernel = DiracKernel(mu0)
    window = (-mu0 * (1.0 - 1e-9), mu0 * (1.0 - 1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5):
            assert len(find_spectrum(bc.random_unitary_bc(rng), window, kernel).roots) == 1


def test_physical_config():
    cfg = PhysicalConfig(L=2.0, mass=3.0, hbar=0.5, c=4.0)
    assert cfg.mu0 == pytest.approx(3.0 * 4.0 * 2.0 / 0.5)
    assert cfg.dirac_mu(cfg.dirac_energy(1.7)) == pytest.approx(1.7)
    assert cfg.schrod_e(cfg.schrod_energy(42.0)) == pytest.approx(42.0)
    with pytest.raises(ValueError):
        PhysicalConfig(L=0.0, mass=1.0, hbar=1.0, c=1.0)
    with pytest.raises(ValueError):
        PhysicalConfig(L=1.0, mass=-1.0, hbar=1.0, c=1.0)
