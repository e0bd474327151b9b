"""Complex 2x2 matrix algebra on the Pauli basis.

Everything downstream (boundary conditions, spectral kernels, root
finding) manipulates 2x2 unitaries, so the few primitives that must
behave identically everywhere live here: the determinant-of-difference
identity, Pauli decomposition, and a closed-form eigendecomposition of
unitary matrices with a fixed eigenphase branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TAU = 2.0 * np.pi

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SX, SY, SZ)


class NonUnitaryError(ValueError):
    """Raised when a matrix fails its unitarity tolerance."""

    def __init__(self, residual: float, tol: float):
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not unitary: ||W^H W - I||_F = {residual:.3e} "
            f"exceeds tolerance {tol:.1e}"
        )


def det2(m: np.ndarray) -> complex | np.ndarray:
    """Determinant of a 2x2 matrix (or a batch with shape (..., 2, 2))."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def tr2(m: np.ndarray) -> complex | np.ndarray:
    """Trace of a 2x2 matrix (or batch)."""
    return m[..., 0, 0] + m[..., 1, 1]


def unitarity_residual(w: np.ndarray) -> float:
    """Frobenius norm of W^H W - I."""
    w = np.asarray(w, dtype=complex)
    return float(np.linalg.norm(w.conj().T @ w - I2))


def require_unitary(w: np.ndarray, tol: float = 1e-10) -> None:
    """Reject matrices that are not unitary within ``tol``."""
    res = unitarity_residual(w)
    if not res < tol:
        raise NonUnitaryError(res, tol)


def wrap_angle(x):
    """Reduce angles to the branch (-pi, pi], mapping exactly-pi to +pi.

    The fixed branch makes eigenphase-crossing detection deterministic.
    """
    y = np.mod(np.asarray(x, dtype=float) + np.pi, TAU) - np.pi
    y = np.where(y == -np.pi, np.pi, y)
    return float(y) if y.ndim == 0 else y


def det2x2_difference(m: np.ndarray, n: np.ndarray) -> complex:
    """det(M - N) evaluated through det/trace invariants only.

    Uses det(M - N) = det(M) + det(N) + tr(MN) - tr(M) tr(N), valid for
    any pair of 2x2 matrices.  A direct cofactor evaluation of M - N
    must agree; tests enforce this.
    """
    m = np.asarray(m, dtype=complex)
    n = np.asarray(n, dtype=complex)
    return complex(det2(m) + det2(n) + tr2(m @ n) - tr2(m) * tr2(n))


def pauli_decompose(m: np.ndarray) -> tuple[complex, complex, complex, complex]:
    """Coefficients (c0, c1, c2, c3) with M = c0 I + c1 sx + c2 sy + c3 sz.

    Coefficients are complex in general; tr(s_j s_k) = 2 delta_jk makes
    the expansion unique.
    """
    m = np.asarray(m, dtype=complex)
    c0 = 0.5 * tr2(m)
    c1 = 0.5 * (m[0, 1] + m[1, 0])
    c2 = 0.5j * (m[0, 1] - m[1, 0])
    c3 = 0.5 * (m[0, 0] - m[1, 1])
    return complex(c0), complex(c1), complex(c2), complex(c3)


def pauli_compose(c0: complex, c1: complex, c2: complex, c3: complex) -> np.ndarray:
    """Inverse of :func:`pauli_decompose`."""
    return c0 * I2 + c1 * SX + c2 * SY + c3 * SZ


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first nonzero entry is real positive."""
    idx = 0 if abs(v[0]) > 1e-12 else 1
    phase = v[idx] / abs(v[idx])
    return v / phase


@dataclass(frozen=True)
class UnitaryEigen:
    """Eigendecomposition of a 2x2 unitary.

    ``phases`` are the two eigenphases in (-pi, pi] (exactly-pi maps to
    +pi); ``vectors[:, j]`` is the orthonormal eigenvector belonging to
    ``phases[j]``.  Sum_j exp(i phases[j]) |v_j><v_j| reconstructs the
    input.
    """

    phases: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            v = self.vectors[:, j]
            out += np.exp(1j * self.phases[j]) * np.outer(v, v.conj())
        return out


def unitary_eigen(w: np.ndarray, tol: float = 1e-10) -> UnitaryEigen:
    """Eigenphases and eigenvectors of a 2x2 unitary, closed form.

    Writes W = e^{i delta} (w0 I + i w.sigma) with real delta, w0, w;
    the eigenphases are delta +- arccos(w0) reduced to (-pi, pi].  For
    w ~ 0 (scalar W) the canonical basis is returned, which keeps the
    output deterministic.
    """
    w = np.asarray(w, dtype=complex)
    require_unitary(w, tol)
    delta = 0.5 * np.angle(det2(w))
    v = np.exp(-1j * delta) * w
    w0 = float(np.clip(0.5 * tr2(v).real, -1.0, 1.0))
    # v = w0 I + i (w1 sx + w2 sy + w3 sz) with real w's
    w1 = 0.5 * (v[0, 1] + v[1, 0]).imag
    w2 = 0.5 * (v[0, 1] - v[1, 0]).real
    w3 = 0.5 * (v[0, 0] - v[1, 1]).imag
    wvec = np.array([w1, w2, w3])
    spread = float(np.arccos(w0))
    phases = wrap_angle(np.array([delta + spread, delta - spread]))

    wnorm = np.linalg.norm(wvec)
    if wnorm < 1e-12:
        vectors = np.eye(2, dtype=complex)
    else:
        n1, n2, n3 = wvec / wnorm
        # +1 eigenvector of n.sigma; pick the better-conditioned pivot
        if 1.0 + n3 >= 1.0 - n3:
            vp = np.array([1.0 + n3, n1 + 1j * n2])
        else:
            vp = np.array([n1 - 1j * n2, 1.0 - n3])
        vp = vp / np.linalg.norm(vp)
        vm = np.array([-np.conj(vp[1]), np.conj(vp[0])])
        vectors = np.column_stack([_canonical_phase(vp), _canonical_phase(vm)])
    return UnitaryEigen(phases=phases, vectors=vectors)
