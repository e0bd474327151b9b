"""Non-relativistic spectral kernel on the ring.

Dimensionless energy e = 2 m E L^2 / hbar^2.  The boundary-data vectors
use the length scale L, so with q = sqrt(e) the two plane waves
e^{+-i q x/L} give a boundary transfer matrix B(e) = a I + b sx with

    a = (e - 1) sin q / D,   b = 2 i q / D,
    c = det B = ((1 + e) sin q + 2 i q cos q) / D,
    D = (1 + e) sin q - 2 i q cos q.

These closed forms were derived once from the matrix path
B = A_minus A_plus^{-1} and the two routes are required to agree to
1e-11 (tests).  For e < 0 the same expressions continue analytically to
a cosh-normalized hyperbolic form; e = 0 is the polynomial-basis limit
with a = -1/(1 - 2i), b = 2i/(1 - 2i), c = (1 + 2i)/(1 - 2i).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bc import UnitaryBC, invariant_triple
from .dirac import _check_poles

#: |e| below this is treated as the exact e = 0 point.
ZERO_SNAP_TOL = 1e-12

# polynomial-basis (1, x/L) limit values at e = 0
_A0 = -1.0 / (1.0 - 2.0j)
_B0 = 2.0j / (1.0 - 2.0j)
_C0 = (1.0 + 2.0j) / (1.0 - 2.0j)


class SchrodRegime(str, enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class SchrodPoint:
    """A dimensionless energy with its sign regime."""

    e: float
    regime: SchrodRegime

    @classmethod
    def classify(cls, e: float) -> "SchrodPoint":
        if abs(e) < ZERO_SNAP_TOL:
            return cls(0.0, SchrodRegime.ZERO)
        return cls(e, SchrodRegime.POSITIVE if e > 0 else SchrodRegime.NEGATIVE)


def schrod_boundary_map(p: SchrodPoint) -> tuple[np.ndarray, np.ndarray]:
    """Boundary matrices (A_plus, A_minus) of the solution basis.

    Columns are the boundary-data images of the two basis solutions:
    plane waves e^{+-i q x/L} for e > 0, (cosh, sinh)(kappa x/L) for
    e < 0, and the polynomials (1, x/L) at e = 0.  B = A_minus
    A_plus^{-1} is basis independent.
    """
    if p.regime is SchrodRegime.ZERO:
        a_plus = np.array([[1j, -1.0 - 0.5j], [1j, 1.0 + 0.5j]])
        a_minus = np.array([[-1j, -1.0 + 0.5j], [-1j, 1.0 - 0.5j]])
        return a_plus, a_minus
    if p.regime is SchrodRegime.POSITIVE:
        q = np.sqrt(p.e)
        ep = np.exp(1j * q / 2.0)
        em = np.exp(-1j * q / 2.0)
        # columns: psi = e^{iqx}, psi = e^{-iqx}
        a_plus = 1j * np.array(
            [[em * (1.0 - q), ep * (1.0 + q)], [ep * (1.0 + q), em * (1.0 - q)]]
        )
        a_minus = -1j * np.array(
            [[em * (1.0 + q), ep * (1.0 - q)], [ep * (1.0 - q), em * (1.0 + q)]]
        )
        return a_plus, a_minus
    kap = np.sqrt(-p.e)
    sh, ch = np.sinh(kap / 2.0), np.cosh(kap / 2.0)
    # columns: psi = cosh(kap x), psi = sinh(kap x)
    a_plus = np.array(
        [[kap * sh + 1j * ch, -(kap * ch + 1j * sh)], [kap * sh + 1j * ch, kap * ch + 1j * sh]]
    )
    a_minus = np.array(
        [[kap * sh - 1j * ch, -(kap * ch - 1j * sh)], [kap * sh - 1j * ch, kap * ch - 1j * sh]]
    )
    return a_plus, a_minus


def coefficient_arrays(e):
    """Vectorized (a, b, c) over an array of energies, all regimes."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    a = np.empty(e.shape, dtype=complex)
    b = np.empty(e.shape, dtype=complex)
    c = np.empty(e.shape, dtype=complex)

    zero = np.abs(e) < ZERO_SNAP_TOL
    pos = (e > 0) & ~zero
    neg = (e < 0) & ~zero

    if np.any(pos):
        ee = e[pos]
        q = np.sqrt(ee)
        s, co = np.sin(q), np.cos(q)
        d = (1.0 + ee) * s - 2.0j * q * co
        _check_poles(d, ee, q)
        a[pos] = (ee - 1.0) * s / d
        b[pos] = 2.0j * q / d
        c[pos] = ((1.0 + ee) * s + 2.0j * q * co) / d

    if np.any(neg):
        ee = e[neg]
        kap = np.sqrt(-ee)
        t = np.tanh(kap)
        em = np.exp(-kap)
        kap_sech = 2.0 * kap * em / (1.0 + em * em)
        d = (kap * kap - 1.0) * t + 2.0j * kap
        _check_poles(d, ee, kap)
        a[neg] = (kap * kap + 1.0) * t / d
        b[neg] = -2.0j * kap_sech / d
        c[neg] = ((kap * kap - 1.0) * t - 2.0j * kap) / d

    a[zero], b[zero], c[zero] = _A0, _B0, _C0
    return a, b, c


def boundary_matrix_arrays(e) -> np.ndarray:
    """B(e) = a I + b sx over an array of energies."""
    a, b, _ = coefficient_arrays(e)
    out = np.empty(a.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 1, 1] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = b
    return out


def spectral_values(e, u: UnitaryBC) -> np.ndarray:
    """F_U over an array of energies."""
    a, b, c = coefficient_arrays(e)
    t = invariant_triple(u)
    return t.det_u - a * t.tr_u + b * t.tr_u_sx + c


def schrod_spectral_value(p: SchrodPoint, u: UnitaryBC) -> complex:
    """F_U(e) = det U - a tr U + b tr(U sx) + c at one energy."""
    return complex(spectral_values(np.array([p.e]), u)[0])


class SchrodKernel:
    """Non-relativistic kernel (no free parameters after rescaling)."""

    theory = "schrod"

    def boundary_matrices(self, e) -> np.ndarray:
        return boundary_matrix_arrays(e)

    def spectral_values(self, e, u: UnitaryBC) -> np.ndarray:
        return spectral_values(e, u)

    def special_points(self) -> tuple[float, ...]:
        return (0.0,)

    def __repr__(self) -> str:
        return "SchrodKernel()"
