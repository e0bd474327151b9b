"""Non-relativistic spectral kernel on the ring.

Dimensionless energy e = 2 m E L^2 / hbar^2.  The boundary-data vectors
use the length scale L, so with q = sqrt(e) the two plane waves
e^{+-i q x/L} give a boundary transfer matrix B(e) = a I + b sx with

    a = (e - 1) sin q / D,   b = 2 i q / D,
    c = det B = ((1 + e) sin q + 2 i q cos q) / D,
    D = (1 + e) sin q - 2 i q cos q.

These closed forms were derived once from the matrix path
B = A_minus A_plus^{-1} (kept as an oracle in :mod:`ring_spectra.oracles`)
and the two routes are required to agree to 1e-11 (tests).  For e < 0
the same expressions continue analytically to a cosh-normalized
hyperbolic form; e = 0 is the polynomial-basis limit with
a = -1/(1 - 2i), b = 2i/(1 - 2i), c = (1 + 2i)/(1 - 2i).  As with the
relativistic kernel, only the scalars (a, b, c) and the lifted half
phase h of c are handed out: c = conj(D)/D, so h = -arg D, which for
e > 0, with eps = 2q/(1 + e) <= 1, is

    h = pi/2 - q - atan((1 - eps) sin q cos q / (sin^2 q + eps cos^2 q)),

and for e < 0, where Im D = 2 kappa > 0, h = pi - atan2(2 kappa,
(kappa^2 - 1) tanh kappa).  Both tend to atan 2, the e = 0 value, so h
is continuous and never increases.
"""

from __future__ import annotations

import numpy as np

from .bc import UnitaryBC, spectral_function
from .dirac import MASS_SNAP_TOL, _check_poles

#: |e| below this is treated as the exact e = 0 point (the same band the
#: relativistic kernel snaps its special points with).
ZERO_SNAP_TOL = MASS_SNAP_TOL

# polynomial-basis (1, x/L) limit values at e = 0
_A0 = -1.0 / (1.0 - 2.0j)
_B0 = 2.0j / (1.0 - 2.0j)
_C0 = (1.0 + 2.0j) / (1.0 - 2.0j)
_H0 = np.arctan(2.0)  # the limit of h from both sides


def coefficient_arrays(e):
    """Vectorized (a, b, c, h) over an array of energies, all regimes;
    h is the half phase of c, e^{2ih} = c, continuous in e."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    a = np.empty(e.shape, dtype=complex)
    b = np.empty(e.shape, dtype=complex)
    c = np.empty(e.shape, dtype=complex)
    h = np.empty(e.shape)

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
        # h = -arg D with D = (1 + e) e^{-i pi/2 + i q} (positive real part)
        h[pos] = 0.5 * np.pi - q - np.arctan2((1.0 + ee - 2.0 * q) * s * co,
                                              (1.0 + ee) * s * s + 2.0 * q * co * co)

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
        h[neg] = np.pi - np.arctan2(2.0 * kap, (kap * kap - 1.0) * t)  # Im D > 0

    a[zero], b[zero], c[zero], h[zero] = _A0, _B0, _C0, _H0
    return a, b, c, h


class SchrodKernel:
    """Non-relativistic kernel (no free parameters after rescaling);
    same protocol as :class:`~ring_spectra.dirac.DiracKernel`."""

    theory = "schrod"

    def coefficients(self, e):
        return coefficient_arrays(e)

    def spectral_values(self, e, u: UnitaryBC) -> np.ndarray:
        return spectral_function(*self.coefficients(e)[:3], u)

    def special_points(self) -> tuple[float, ...]:
        return (0.0,)

    def __repr__(self) -> str:
        return "SchrodKernel()"
