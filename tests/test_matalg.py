"""Tests for the 2x2 matrix-algebra primitives.

The ``unitary_eigen`` tests check the closed-form eigenphases of a
unitary given in Pauli form (the complex route, kept as an oracle in
``ring_spectra.oracles``), against known cases and against LAPACK.
"""

import numpy as np
import pytest

from ring_spectra.matalg import (
    I2,
    SX,
    SZ,
    NonUnitaryError,
    det2,
    require_unitary,
)
from ring_spectra.oracles import unitary_eigenphases

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def random_matrices(rng, n):
    return rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))


def random_unitaries(rng, n):
    """Haar-like: random eta in [0, pi) and a Gaussian point on S^3."""
    eta = rng.uniform(0.0, np.pi, size=n)
    v = rng.normal(size=(n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    out = np.empty((n, 2, 2), dtype=complex)
    out[:, 0, 0] = v[:, 0] + 1j * v[:, 3]
    out[:, 1, 1] = v[:, 0] - 1j * v[:, 3]
    out[:, 0, 1] = v[:, 2] + 1j * v[:, 1]
    out[:, 1, 0] = -v[:, 2] + 1j * v[:, 1]
    return np.exp(1j * eta)[:, None, None] * out


def test_det_difference_pauli_example():
    # det(sx - sz) = det [[-1, 1], [1, 1]] = -2
    assert det2(SX - SZ) == pytest.approx(-2.0)


def test_det_difference_matches_cofactor_on_random_pairs():
    rng = np.random.default_rng(1)
    m = random_matrices(rng, 10_000)
    n = random_matrices(rng, 10_000)
    identity_side = det2(m) + det2(n) + (m @ n)[:, [0, 1], [0, 1]].sum(axis=1) - (
        m[:, 0, 0] + m[:, 1, 1]
    ) * (n[:, 0, 0] + n[:, 1, 1])
    cofactor_side = det2(m - n)
    scale = np.abs(np.concatenate([m, n], axis=1)).max(axis=(1, 2))
    rel = np.abs(identity_side - cofactor_side) / scale
    assert rel.max() < 1e-12


def pair_gap(lam, ref):
    """Largest eigenvalue mismatch under the better of the two pairings."""
    return np.minimum(
        np.max(np.abs(lam - ref), axis=-1), np.max(np.abs(lam - ref[..., ::-1]), axis=-1)
    )


def eigenphases_of(w, h=None):
    """Closed-form eigenphases of a unitary (or a batch, shape (n, 2, 2))."""
    s0 = 0.5 * (w[..., 0, 0] + w[..., 1, 1])
    s1 = 0.5 * (w[..., 0, 1] + w[..., 1, 0])
    s2 = 0.5j * (w[..., 0, 1] - w[..., 1, 0])
    s3 = 0.5 * (w[..., 0, 0] - w[..., 1, 1])
    s_norm = np.sqrt(np.abs(s1) ** 2 + np.abs(s2) ** 2 + np.abs(s3) ** 2)
    if h is None:
        h = 0.5 * np.angle(det2(w))
    return unitary_eigenphases(s0, s_norm, h)


def test_unitary_eigen_identity():
    assert np.allclose(np.exp(1j * eigenphases_of(I2)), [1.0, 1.0])


def test_unitary_eigen_sx():
    assert pair_gap(np.exp(1j * eigenphases_of(SX)), np.array([1.0, -1.0])) < 1e-12


def test_unitary_eigen_global_phase():
    lam = np.exp(1j * eigenphases_of(np.exp(1j * np.pi / 4) * I2))
    assert np.allclose(lam, np.exp(1j * np.pi / 4))


def test_unitary_eigen_branch_convention_at_pi():
    # eigenvalues of -I are both e^{i pi}; compared as e^{i phase}, any
    # branch of the phases gives them
    assert np.allclose(np.exp(1j * eigenphases_of(-I2)), [-1.0, -1.0])


def test_require_unitary_rejects_non_unitary():
    with pytest.raises(NonUnitaryError) as err:
        require_unitary(1.5 * SX)
    assert err.value.residual > 1e-10
    require_unitary(SX)


def test_unitary_eigen_reconstruction():
    # batched: e^{i phases} are the eigenvalues, so they rebuild tr W
    # and det W, and they match LAPACK's eigenvalues
    rng = np.random.default_rng(3)
    w = random_unitaries(rng, 10_000)
    lam = np.exp(1j * eigenphases_of(w))
    assert np.max(np.abs(lam.sum(axis=1) - (w[:, 0, 0] + w[:, 1, 1]))) < 1e-12
    assert np.max(np.abs(lam.prod(axis=1) - det2(w))) < 1e-12
    assert pair_gap(lam, np.linalg.eigvals(w)).max() < 1e-12


def test_unitary_eigen_closed_form_phases():
    # W = e^{i delta}(w0 I + i w.sigma) has eigenphases delta +- arccos(w0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        delta = rng.uniform(-np.pi / 2, np.pi / 2)
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        w = np.exp(1j * delta) * (v[0] * I2 + 1j * (v[1] * SX + v[2] * SY + v[3] * SZ))
        got = np.exp(1j * eigenphases_of(w))
        expect = np.exp(1j * (delta + np.array([1.0, -1.0]) * np.arccos(v[0])))
        assert pair_gap(got, expect) < 1e-12


def test_unitary_eigen_explicit_half_phase_branch():
    # any half phase of det W gives the same eigenvalues: h -> h + pi
    # flips the sign of w0 and maps the spread s to pi - s
    rng = np.random.default_rng(6)
    w = random_unitaries(rng, 100)
    h = 0.5 * np.angle(det2(w))
    plain = np.exp(1j * eigenphases_of(w, h))
    shifted = np.exp(1j * eigenphases_of(w, h + np.pi))
    assert pair_gap(plain, shifted).max() < 1e-12


def test_unimodular_determinants_on_random_unitaries():
    rng = np.random.default_rng(5)
    w = random_unitaries(rng, 10_000)
    assert np.max(np.abs(np.abs(det2(w)) - 1.0)) < 1e-12
