"""Independent matrix-path oracles for the closed-form kernels.

The root search works on the scalar coefficients (a, b, c) alone.  The
plane-wave and polynomial-basis boundary matrices A_pm, from which
those coefficients were derived through B = A_minus A_plus^{-1}, live
here so checks and tests can rebuild B the long way and compare.  No
production code path imports this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dirac import DiracPoint, MassModeError, mass_mode_coefficients, wavenumber
from .matalg import I2, SX
from .schrod import ZERO_SNAP_TOL


def boundary_matrix(a, b) -> np.ndarray:
    """B = a I + b sx from kernel coefficients, shape (..., 2, 2)."""
    a = np.asarray(a, dtype=complex)[..., None, None]
    b = np.asarray(b, dtype=complex)[..., None, None]
    return a * I2 + b * SX


# ---------------------------------------------------------------------------
# relativistic kernel


def build_Apm(p: DiracPoint) -> tuple[np.ndarray, np.ndarray]:
    """The plane-wave boundary matrices (A_plus, A_minus).

    Built verbatim from the two plane-wave solutions, with the amplitude
    ratio r = K / (mu + mu0); det A_pm = -4i/(mu + mu0) [mu sin K -+
    i K cos K] holds in every regime.  Undefined at the zero-wavenumber
    points, where the solution basis degenerates.  Entries grow like
    e^{kappa/2} inside the gap, so this path is an oracle for moderate
    kappa; production code uses the normalized coefficients.
    """
    if p.is_mass_mode:
        raise MassModeError("plane-wave basis degenerates at mu = +-mu0")
    k = wavenumber(p)
    r = k / (p.mu + p.mu0)
    ep = np.exp(1j * k / 2.0)
    em = np.exp(-1j * k / 2.0)
    a_plus = np.array(
        [[em * (1.0 - r), ep * (1.0 + r)], [ep * (1.0 + r), em * (1.0 - r)]]
    )
    a_minus = np.array(
        [[em * (1.0 + r), ep * (1.0 - r)], [ep * (1.0 - r), em * (1.0 + r)]]
    )
    return a_plus, a_minus


def mass_mode_Apm(sign: int, mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Boundary matrices of the polynomial solution basis at mu = +-mu0.

    Both are invertible, and A_minus A_plus^{-1} reproduces
    :func:`mass_mode_B`.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not mu0 > 0:
        raise MassModeError("mass modes need mu0 > 0")
    if sign == +1:
        # basis (1, 0) and (x, -i/(2 mu0))
        a_plus = np.array([[1.0, -0.5 * (1.0 - 1j / mu0)], [1.0, 0.5 * (1.0 - 1j / mu0)]])
        a_minus = np.array([[1.0, -0.5 * (1.0 + 1j / mu0)], [1.0, 0.5 * (1.0 + 1j / mu0)]])
    else:
        # basis (0, 1) and (i/(2 mu0), x)
        a_plus = np.array([[-1.0, 0.5 * (1j / mu0 + 1.0)], [1.0, 0.5 * (1j / mu0 + 1.0)]])
        a_minus = np.array([[1.0, 0.5 * (1j / mu0 - 1.0)], [-1.0, 0.5 * (1j / mu0 - 1.0)]])
    return a_plus, a_minus


def mass_mode_B(sign: int, mu0: float) -> np.ndarray:
    """B(+-mu0) = +-(mu0 I - i sx) / (mu0 -+ i); unitary closed form."""
    a, b, _ = mass_mode_coefficients(sign, mu0)
    return boundary_matrix(a, b)


# ---------------------------------------------------------------------------
# non-relativistic kernel


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
