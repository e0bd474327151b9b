"""Non-relativistic spectral kernel on the ring.

Dimensionless energy e = 2 m E L^2 / hbar^2.  The boundary-data vectors
use the length scale L, so with q = sqrt(e) the two plane waves
e^{+-i q x/L} give a boundary transfer matrix B(e) = a I + b sx with

    a = (e - 1) sin q / D_S,   b = 2 i q / D_S,
    c = det B = ((1 + e) sin q + 2 i q cos q) / D_S,
    D_S = (1 + e) sin q - 2 i q cos q.

These closed forms were derived once from the matrix path
B = A_minus A_plus^{-1} (kept as an oracle in :mod:`ring_spectra.oracles`)
and the two routes are required to agree to 1e-11 (tests).  They are
the relativistic ones in disguise.  At mu = (1 + e)/2 and
mu0 = (1 - e)/2, that is p = mu - mu0 = e and n = mu + mu0 = 1, the
relativistic wavenumber is K^2 = p n = e = q^2 and its denominator is
d = mu sin q - i q cos q = D_S / 2, so

    a = -a_dirac,   b = -b_dirac,   c = c_dirac,   h = h_dirac:

B(e) is minus the relativistic transfer matrix at that pair, and its
polar form B = e^{ih} (u I - i v sx) / |D| has (u, v) = -(u, v)_dirac.
So this module evaluates :func:`ring_spectra.dirac._closed_form` at
(p, n) = (e, 1), and takes its turning points from
:func:`ring_spectra.dirac._turns` at the same pair: |u| / v peaks
above 1 near every zero q = m pi of sin q, so the tracks are
staircases from e ~ 6 on.  The regimes follow: e > 0 is oscillatory,
e < 0 is the evanescent (in-gap) form, and e = 0 is the
zero-wavenumber point at rest energy 1/2, the one energy taken as the
closed form's limit (any other e, however small, is evaluated as it
is): there the polynomial-basis (1, x/L) limit is a = -1/(1 - 2i),
b = 2i/(1 - 2i), c = (1 + 2i)/(1 - 2i) and h = atan 2.  The lifted
half phase h of c is continuous and never increases.
"""

from __future__ import annotations

import math

import numpy as np

from .bc import InvariantTriple, UnitaryBC, spectral_function
from .dirac import _closed_form, _coefficients, _in_window, _phase, _turn_spots, _turns


def _core(e):
    """The relativistic real core at (p, n) = (e, 1)."""
    return _closed_form(np.array(e, dtype=float, ndmin=1), 1.0)


def _abc(core):
    """(a, b, c) from the real core: minus the relativistic a and b."""
    a, b, c = _coefficients(*core)
    return -a, -b, c


def coefficient_arrays(e):
    """Vectorized (a, b, c, h) over an array of energies, all regimes;
    h is the half phase of c, e^{2ih} = c, continuous in e."""
    core = _core(e)
    return (*_abc(core), _phase(*core))


class SchrodKernel:
    """Non-relativistic kernel (no free parameters after rescaling);
    same protocol as :class:`~ring_spectra.dirac.DiracKernel`, including
    ``turning_points``: ``polar`` reads the phase h and (u, v) of the
    real core, ``spectral_values`` its (a, b, c) without h."""

    theory = "schrod"

    def coefficients(self, e):
        return coefficient_arrays(e)

    def polar(self, e):
        """Polar form (h, u, v) of B: B = e^{ih} (u I - i v sx) /
        sqrt(u^2 + v^2), all float arrays."""
        core = _core(e)
        return _phase(*core), -core[5], -core[6]

    def spectral_values(self, e, u: UnitaryBC | InvariantTriple) -> np.ndarray:
        return spectral_function(*_abc(_core(e)), u)

    def turning_points(self, lo: float, hi: float, limit: int) -> np.ndarray:
        """The energies in (lo, hi) around which the tracks turn, sorted
        and distinct; they do not depend on U.  At (p, n) = (q^2, 1) the
        peak ratio (q^2 - 1) / (2 q) exceeds 1 at every zero q = m pi of
        sin q (:func:`ring_spectra.dirac._turns`), and all lie at
        q >= pi / 2, away from e = 0.  A window with more than ``limit``
        such zeros gets none, so nothing is allocated for it.
        """
        first, count = _turn_spots(math.sqrt(max(lo, 0.0)), math.sqrt(max(hi, 0.0)))
        if count > limit:
            return np.empty(0)
        q = np.pi * np.arange(first, first + count)
        return _in_window(_turns(q, q * q, 1.0) ** 2, lo, hi)

    def special_points(self) -> tuple[float, ...]:
        return (0.0,)

    def __repr__(self) -> str:
        return "SchrodKernel()"
