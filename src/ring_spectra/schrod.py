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
relativistic kernel, only the scalars (a, b, c) are handed out.
"""

from __future__ import annotations

import numpy as np

from .bc import UnitaryBC, spectral_function
from .dirac import _check_poles

#: |e| below this is treated as the exact e = 0 point.
ZERO_SNAP_TOL = 1e-12

# polynomial-basis (1, x/L) limit values at e = 0
_A0 = -1.0 / (1.0 - 2.0j)
_B0 = 2.0j / (1.0 - 2.0j)
_C0 = (1.0 + 2.0j) / (1.0 - 2.0j)


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


class SchrodKernel:
    """Non-relativistic kernel (no free parameters after rescaling);
    same protocol as :class:`~ring_spectra.dirac.DiracKernel`."""

    theory = "schrod"

    def coefficients(self, e):
        return coefficient_arrays(e)

    def spectral_values(self, e, u: UnitaryBC) -> np.ndarray:
        return spectral_function(*self.coefficients(e), u)

    def special_points(self) -> tuple[float, ...]:
        return (0.0,)

    def __repr__(self) -> str:
        return "SchrodKernel()"
