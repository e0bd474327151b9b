"""Tests for the boundary-triple machinery."""

import numpy as np
import pytest

from ring_spectra import bc
from ring_spectra.dirac import DiracKernel
from ring_spectra.matalg import I2, SX, SZ
from ring_spectra.oracles import boundary_matrix
from ring_spectra.roots import find_spectrum
from ring_spectra.triple import (
    DIRAC_REP,
    CliffordRep,
    RepKernel,
    SpinorSample,
    bc_in_rep,
    boundary_eigvecs,
    boundary_form_check,
    gamma_maps,
    random_rep,
    representation_transform,
)

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SY_SZ = CliffordRep(SY, SZ)


def constant_spinor(v) -> SpinorSample:
    v = np.asarray(v, dtype=complex)
    return SpinorSample.from_callables(
        lambda x: np.broadcast_to(v, (len(x), 2)).copy(),
        lambda x: np.zeros((len(x), 2), dtype=complex),
    )


def poly_spinor(rng, degree=4) -> SpinorSample:
    coeff = rng.normal(size=(2, degree + 1)) + 1j * rng.normal(size=(2, degree + 1))
    dcoeff = np.array([np.polyder(c) for c in coeff])
    return SpinorSample.from_callables(
        lambda x: np.column_stack([np.polyval(c, x) for c in coeff]),
        lambda x: np.column_stack([np.polyval(c, x) for c in dcoeff]),
    )


def test_clifford_validation_rejects_bad_pairs():
    with pytest.raises(ValueError):
        CliffordRep(SX, SX)  # does not anticommute
    with pytest.raises(ValueError):
        CliffordRep(0.5 * SX, SZ)  # not an involution
    with pytest.raises(ValueError):
        CliffordRep(1j * SX, SZ)  # not Hermitian


def test_random_reps_satisfy_invariants():
    rng = np.random.default_rng(61)
    for _ in range(10):
        rep = random_rep(rng)  # constructor validates
        assert np.linalg.norm(rep.alpha @ rep.beta + rep.beta @ rep.alpha) < 1e-12
        assert np.linalg.norm(rep.alpha @ rep.alpha - I2) < 1e-12


def test_boundary_eigvecs_dirac_rep():
    ep, em = boundary_eigvecs(DIRAC_REP, +0.5)
    assert np.allclose(ep, np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(em, np.array([1.0, -1.0]) / np.sqrt(2))
    # side swap exchanges the two eigenvectors
    ep_l, em_l = boundary_eigvecs(DIRAC_REP, -0.5)
    assert np.allclose(ep_l, em)
    assert np.allclose(em_l, ep)


def test_boundary_eigvecs_diagonal_alpha():
    rep = CliffordRep(SZ, SX)
    ep, em = boundary_eigvecs(rep, +0.5)
    assert np.allclose(ep, [1.0, 0.0])
    assert np.allclose(em, [0.0, 1.0])


def test_boundary_eigvecs_spectral_decomposition():
    rng = np.random.default_rng(62)
    for rep in (DIRAC_REP, SY_SZ, random_rep(rng)):
        for side in (+0.5, -0.5):
            ep, em = boundary_eigvecs(rep, side)
            normal = rep.alpha if side > 0 else -rep.alpha
            assert np.linalg.norm(normal @ ep - ep) < 1e-12
            assert np.linalg.norm(normal @ em + em) < 1e-12
            rebuilt = np.outer(ep, ep.conj()) - np.outer(em, em.conj())
            assert np.linalg.norm(rebuilt - normal) < 1e-12


def test_gamma_maps_constant_spinors():
    gm, gp = gamma_maps(DIRAC_REP, constant_spinor([1.0, 0.0]))
    assert np.allclose(np.sqrt(2) * gp, [1.0, 1.0])
    assert np.allclose(np.sqrt(2) * gm, [1.0, 1.0])
    gm, gp = gamma_maps(DIRAC_REP, constant_spinor([0.0, 1.0]))
    assert np.allclose(np.sqrt(2) * gp, [-1.0, 1.0])
    assert np.allclose(np.sqrt(2) * gm, [1.0, -1.0])


def test_gamma_maps_chi_free_spinor_satisfies_identity_bc():
    rng = np.random.default_rng(63)
    coeff = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi = lambda x: np.polyval(coeff, x) * np.cos(x)
    sample = SpinorSample.from_callables(
        lambda x: np.column_stack([phi(x), np.zeros_like(x)]),
        lambda x: np.column_stack([np.gradient(phi(x), x), np.zeros_like(x)]),
    )
    gm, gp = gamma_maps(DIRAC_REP, sample)
    assert np.allclose(gm, gp)  # chi = 0 at the ends realizes U = I


def test_gamma_matrix_equals_boundary_vectors():
    # sqrt(2) Gamma_pm and the kernel's boundary vectors are the same
    # linear map of (phi(-), chi(-), phi(+), chi(+)); compare matrices
    cols = []
    for k in range(4):
        vals = np.zeros(4)
        vals[k] = 1.0

        def psi(x, vals=vals):
            out = np.zeros((len(x), 2), dtype=complex)
            out[x == -0.5] = vals[:2]
            out[x == +0.5] = vals[2:]
            return out

        sample = SpinorSample.from_callables(psi, lambda x: np.zeros((len(x), 2), dtype=complex))
        gm, gp = gamma_maps(DIRAC_REP, sample)
        cols.append(np.concatenate([np.sqrt(2) * gm, np.sqrt(2) * gp]))
    mat = np.column_stack(cols)
    expect_minus = np.array([[1, 1, 0, 0], [0, 0, 1, -1]], dtype=complex)
    expect_plus = np.array([[1, -1, 0, 0], [0, 0, 1, 1]], dtype=complex)
    assert np.max(np.abs(mat[:2] - expect_minus)) < 1e-14
    assert np.max(np.abs(mat[2:] - expect_plus)) < 1e-14
    # and pointwise on random boundary values
    rng = np.random.default_rng(64)
    for _ in range(100):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = mat @ v
        expect = np.concatenate([expect_minus @ v, expect_plus @ v])
        assert np.max(np.abs(got - expect)) < 1e-13


def test_boundary_form_eigenspinor_is_null_pairing():
    # plane-wave eigenspinor obeying spinor-periodic conditions: both
    # sides of the identity vanish on the diagonal pairing
    mu0 = 1.0
    k = 2 * np.pi
    mu = np.sqrt(k * k + mu0 * mu0)
    r = k / (mu + mu0)
    psi = lambda x: np.column_stack([np.exp(1j * k * x), r * np.exp(1j * k * x)])
    dpsi = lambda x: np.column_stack(
        [1j * k * np.exp(1j * k * x), 1j * k * r * np.exp(1j * k * x)]
    )
    sample = SpinorSample.from_callables(psi, dpsi)
    res = boundary_form_check(DIRAC_REP, sample, sample, mu0=mu0)
    assert res < 1e-10
    gm, gp = gamma_maps(DIRAC_REP, sample)
    assert abs((np.vdot(gm, gm) - np.vdot(gp, gp))) < 1e-12


def test_boundary_form_trig_pair():
    s1 = SpinorSample.from_callables(
        lambda x: np.column_stack([np.exp(1j * x), np.zeros_like(x)]),
        lambda x: np.column_stack([1j * np.exp(1j * x), np.zeros_like(x)]),
    )
    s2 = SpinorSample.from_callables(
        lambda x: np.column_stack([np.zeros_like(x), np.exp(-1j * x)]),
        lambda x: np.column_stack([np.zeros_like(x), -1j * np.exp(-1j * x)]),
    )
    assert boundary_form_check(DIRAC_REP, s1, s2) < 1e-8


def test_boundary_form_random_polynomials_three_reps():
    rng = np.random.default_rng(65)
    for rep in (DIRAC_REP, SY_SZ, random_rep(rng)):
        for _ in range(20):
            res = boundary_form_check(rep, poly_spinor(rng), poly_spinor(rng))
            assert res < 1e-8


def test_boundary_form_requires_shared_grid():
    rng = np.random.default_rng(66)
    s1 = poly_spinor(rng)
    s2 = SpinorSample.from_callables(
        lambda x: np.zeros((len(x), 2), dtype=complex),
        lambda x: np.zeros((len(x), 2), dtype=complex),
        panels=4,
    )
    with pytest.raises(ValueError):
        boundary_form_check(DIRAC_REP, s1, s2)


def test_representation_transform_identity():
    assert np.allclose(representation_transform(DIRAC_REP, DIRAC_REP), I2)


def test_representation_transform_sx_to_sy():
    v = representation_transform(DIRAC_REP, SY_SZ)
    assert np.linalg.norm(v @ SX @ v.conj().T - SY) < 1e-12
    assert np.linalg.norm(v @ SZ @ v.conj().T - SZ) < 1e-12


def test_representation_transform_random_pairs():
    rng = np.random.default_rng(67)
    for _ in range(10):
        r1, r2 = random_rep(rng), random_rep(rng)
        v = representation_transform(r1, r2)
        assert np.linalg.norm(v.conj().T @ v - I2) < 1e-12
        assert np.linalg.norm(v @ r1.alpha @ v.conj().T - r2.alpha) < 1e-10
        assert np.linalg.norm(v @ r1.beta @ v.conj().T - r2.beta) < 1e-10


def test_spectra_match_across_representations():
    rng = np.random.default_rng(68)
    mu0 = 1.0
    window = (-8.0, 8.0)
    base_kernel = DiracKernel(mu0)
    for _ in range(5):
        u = bc.random_unitary_bc(rng)
        base = find_spectrum(u, window, base_kernel)
        for rep in (DIRAC_REP, SY_SZ, random_rep(rng)):
            other = find_spectrum(u, window, RepKernel(rep, mu0))
            assert len(base.expanded()) == len(other.expanded())
            assert np.max(np.abs(base.expanded() - other.expanded())) < 1e-8


def test_bc_in_rep_relabels_the_same_boundary_data():
    # a spinor obeying Gamma_- = U Gamma_+ in the standard representation,
    # carried to rep as V^H psi, obeys Gamma'_- = U' Gamma'_+ there
    rng = np.random.default_rng(70)
    for rep in (DIRAC_REP, SY_SZ, random_rep(rng)):
        u = bc.random_unitary_bc(rng)
        v = representation_transform(rep, DIRAC_REP)
        g_plus = rng.normal(size=2) + 1j * rng.normal(size=2)
        g_minus = u.matrix @ g_plus
        ends = []
        for k, side in enumerate((-0.5, +0.5)):
            ep, em = boundary_eigvecs(DIRAC_REP, side)
            ends.append(v.conj().T @ (g_plus[k] * ep + g_minus[k] * em))

        def psi(x, ends=ends):
            out = np.zeros((len(x), 2), dtype=complex)
            out[x == -0.5] = ends[0]
            out[x == +0.5] = ends[1]
            return out

        sample = SpinorSample.from_callables(psi, lambda x: np.zeros((len(x), 2), dtype=complex))
        gm, gp = gamma_maps(rep, sample)
        assert np.linalg.norm(gm - bc_in_rep(rep, u).matrix @ gp) < 1e-12


def coefficient_gap(kernel, mu) -> float:
    """Largest distance of the kernel's (a, b, c) from the closed form's."""
    got = kernel.coefficients(mu)[:3]
    want = DiracKernel(kernel.mu0).coefficients(mu)[:3]
    return max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))


def test_rep_kernel_matches_closed_form_in_dirac_rep():
    mu = np.linspace(-6.0, 6.0, 501)
    kern = RepKernel(DIRAC_REP, 1.0)
    rep_b = boundary_matrix(*kern.coefficients(mu)[:2])
    direct_b = boundary_matrix(*DiracKernel(1.0).coefficients(mu)[:2])
    assert np.max(np.abs(rep_b - direct_b)) < 1e-11
    assert isinstance(kern, DiracKernel) and repr(kern) == "RepKernel(mu0=1)"


def test_rep_kernel_stays_finite_deep_in_the_gap():
    # kappa = 2000 at mu = 0: the unscaled basis would overflow cosh(kappa / 2)
    mu = np.array([0.0, 1500.0, -1999.0])
    for rep in (DIRAC_REP, SY_SZ):
        kern = RepKernel(rep, 2000.0)
        assert np.all(np.isfinite(np.concatenate(kern.coefficients(mu))))
        assert coefficient_gap(kern, mu) < 1e-14


def test_rep_kernel_handles_mass_modes():
    # at the gap edges +-mu0, 1 ulp to either side and a relative 1e-13
    # to either side, the propagator basis is the same one route as
    # anywhere else, and agrees with the closed form to 1e-14
    for mu0 in (1.0, 1e3, 2.6e6):
        near = np.array([mu0, np.nextafter(mu0, np.inf), np.nextafter(mu0, 0.0),
                         mu0 * (1 + 1e-13), mu0 * (1 - 1e-13)])
        for rep in (DIRAC_REP, SY_SZ):
            assert coefficient_gap(RepKernel(rep, mu0), np.concatenate([near, -near])) < 1e-14
    kern = RepKernel(SY_SZ, 1.0)
    mats = boundary_matrix(*kern.coefficients(np.array([-1.0, 1.0]))[:2])
    gram = np.einsum("nki,nkj->nij", mats.conj(), mats)
    assert np.max(np.linalg.norm(gram - I2, axis=(1, 2))) < 1e-12


def test_rep_kernel_rejects_a_transfer_matrix_off_the_ab_form():
    # with one endpoint phase wrong, Q_-^H B' Q_+ is no longer a I + b sx
    kern = RepKernel(SY_SZ, 1.0)
    mu = np.linspace(-6.0, 6.0, 11)
    kern.coefficients(mu)
    kern._q = {+1: kern._q[+1], -1: kern._q[-1] * np.array([1.0, 1j])}
    with pytest.raises(RuntimeError, match="off the a I"):
        kern.coefficients(mu)


def test_spinor_sample_grid_contract():
    rng = np.random.default_rng(69)
    s = poly_spinor(rng)
    assert s.x[0] == -0.5 and s.x[-1] == 0.5
    assert np.all(np.diff(s.x) > 0)
    with pytest.raises(ValueError):
        SpinorSample(
            x=np.array([0.0, 0.5]),
            values=np.zeros((2, 2), dtype=complex),
            dvalues=np.zeros((2, 2), dtype=complex),
            weights=np.zeros(2),
        )
