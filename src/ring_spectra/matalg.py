"""Complex 2x2 matrix algebra on the Pauli basis.

Everything downstream (boundary conditions, spectral kernels, oracles)
manipulates 2x2 unitaries, so the few primitives that must behave
identically everywhere live here: the identity and the Pauli matrices
sx and sz, determinant and trace, and the unitarity check.
"""

from __future__ import annotations

import math

import numpy as np

TAU = 2.0 * np.pi

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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
    """Frobenius norm of W^H W - I: inf where finite entries are so large
    (beyond 1e154) that the product overflows."""
    w = np.asarray(w, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        res = float(np.linalg.norm(w.conj().T @ w - I2))
    return math.inf if math.isnan(res) and np.isfinite(w).all() else res


def require_unitary(w: np.ndarray, tol: float = 1e-10) -> None:
    """Reject matrices that are not unitary within ``tol``."""
    res = unitarity_residual(w)
    if not res < tol:
        raise NonUnitaryError(res, tol)
