"""Relativistic spectral kernel on the ring.

All formulas live in dimensionless variables: mu = (E / hbar c) L is
the rescaled energy and mu0 = (m c / hbar) L the rescaled rest energy.
Outside the mass gap (|mu| > mu0) the wavenumber K = sqrt(mu^2 - mu0^2)
is real; inside it is purely imaginary and the kernel switches to a
hyperbolic form normalized by cosh so it stays finite for kappa >> 1.
The boundary transfer matrix is B(mu) = a I + b sx with

    a = mu0 sin K / (mu sin K - i K cos K)
    b = -i K     / (mu sin K - i K cos K)
    c = det B = a^2 - b^2,   |c| = 1 on the real axis,

and the spectrum of the condition U is the zero set of the spectral
function F_U(mu) = det(B(mu) - U) = det U - a tr U + b tr(U sx) + c.
The kernel only ever hands out the scalars (a, b, c) and the half
phase h of c, e^{2ih} = c; the matrix B is never built here.  Since
c = conj(d)/d for the denominator d (times -1 in the gap), h = -arg d
lifts in closed form.  Above the gap, with eps = K/|mu|,

    h = pi/2 - K - atan((1 - eps) sin K cos K / (sin^2 K + eps cos^2 K)),

whose atan argument has a positive denominator, so h is continuous;
below the gap h is pi minus the same expression in |mu|, and inside it
h = pi/2 - atan(mu tanh(kappa) / kappa).  They meet the
zero-wavenumber values h(mu0) = atan(1/mu0) and h(-mu0) = pi -
atan(1/mu0), so h is continuous on the whole axis and, like the
eigenphases, never increases.  The energies mu = +-mu0 (zero wavenumber) have
closed-form coefficients and enter the root search as ordinary points;
which energies snap to them is decided in one place,
:func:`mass_mode_masks`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bc import UnitaryBC, spectral_function

#: |mu -+ mu0| below this (times max(1, mu0)) is treated as the exact
#: zero-wavenumber point, which has its own analytic solution.
MASS_SNAP_TOL = 1e-12


class SpectralPoleError(ArithmeticError):
    """Denominator of the kernel coefficients vanished (never expected
    away from the snapped special points; kept as a guard)."""

    def __init__(self, mu):
        self.mu = np.atleast_1d(mu)
        super().__init__(
            f"spectral-function pole at mu in [{self.mu.min():.6g}, {self.mu.max():.6g}]"
        )


class MassModeError(ValueError):
    """Operation undefined at a zero-wavenumber point."""


class Regime(str, enum.Enum):
    ABOVE_GAP = "above_gap"
    BELOW_GAP = "below_gap"
    INSIDE_GAP = "inside_gap"
    MASS_MODE_PLUS = "mass_mode_plus"
    MASS_MODE_MINUS = "mass_mode_minus"


@dataclass(frozen=True)
class PhysicalConfig:
    """Ring length and particle constants; converts to dimensionless form."""

    L: float
    mass: float
    hbar: float
    c: float

    def __post_init__(self):
        if not (self.L > 0 and self.hbar > 0 and self.c > 0):
            raise ValueError("L, hbar, c must be strictly positive")
        if not self.mass >= 0:
            raise ValueError("mass must be non-negative")

    @property
    def mu0(self) -> float:
        return self.mass * self.c * self.L / self.hbar

    def dirac_mu(self, energy: float) -> float:
        return energy * self.L / (self.hbar * self.c)

    def dirac_energy(self, mu: float) -> float:
        return mu * self.hbar * self.c / self.L

    def schrod_e(self, energy: float) -> float:
        if self.mass == 0:
            raise ValueError("non-relativistic scaling needs mass > 0")
        return 2.0 * self.mass * energy * self.L**2 / self.hbar**2

    def schrod_energy(self, e: float) -> float:
        if self.mass == 0:
            raise ValueError("non-relativistic scaling needs mass > 0")
        return e * self.hbar**2 / (2.0 * self.mass * self.L**2)


@dataclass(frozen=True)
class DiracPoint:
    """A dimensionless energy with its regime label.

    ``classify`` snaps energies within :data:`MASS_SNAP_TOL` of +-mu0 to
    the exact zero-wavenumber points (for mu0 = 0 the single point
    mu = 0, labelled ``MASS_MODE_PLUS``, is handled by the analytic
    K -> 0 limit B = sx).
    """

    mu: float
    mu0: float
    regime: Regime

    @classmethod
    def classify(cls, mu: float, mu0: float) -> "DiracPoint":
        if mu0 < 0:
            raise ValueError("mu0 must be non-negative")
        plus, minus = mass_mode_masks(mu, mu0)
        if plus:
            return cls(mu0, mu0, Regime.MASS_MODE_PLUS)
        if minus:
            return cls(-mu0, mu0, Regime.MASS_MODE_MINUS)
        if abs(mu) < mu0:
            return cls(mu, mu0, Regime.INSIDE_GAP)
        return cls(mu, mu0, Regime.ABOVE_GAP if mu > 0 else Regime.BELOW_GAP)

    @property
    def is_mass_mode(self) -> bool:
        return self.regime in (Regime.MASS_MODE_PLUS, Regime.MASS_MODE_MINUS)


def wavenumber(p: DiracPoint) -> complex:
    """Dimensionless wavenumber K: real sqrt(mu^2 - mu0^2) outside the
    gap, i sqrt(mu0^2 - mu^2) inside."""
    if p.is_mass_mode:
        raise MassModeError("wavenumber vanishes at mu = +-mu0")
    if abs(p.mu) > p.mu0:
        return complex(np.sqrt(p.mu**2 - p.mu0**2))
    return 1j * np.sqrt(p.mu0**2 - p.mu**2)


def mass_mode_coefficients(sign: int, mu0: float) -> tuple[complex, complex, complex]:
    """(a, b, c) of the closed-form B(+-mu0)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not mu0 > 0:
        raise MassModeError("mass modes need mu0 > 0")
    d = mu0 - 1j * sign
    a = sign * mu0 / d
    b = -1j * sign / d
    c = (mu0 + 1j * sign) / d
    return a, b, c


def _check_poles(d: np.ndarray, mu: np.ndarray, k: np.ndarray) -> None:
    bad = np.abs(d) < 1e-13 * (np.abs(mu) + np.abs(k))
    if np.any(bad):
        raise SpectralPoleError(mu[bad])


def mass_mode_masks(mu, mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks (plus, minus) of the energies that snap to mu = +mu0 and
    mu = -mu0: within MASS_SNAP_TOL * max(1, mu0) of them.  For mu0 = 0
    the single point mu = 0 counts as ``plus`` (the K -> 0 limit
    B = sx) and ``minus`` is empty.
    """
    mu = np.asarray(mu, dtype=float)
    snap = MASS_SNAP_TOL * max(1.0, mu0)
    plus = np.abs(mu - mu0) < snap
    if mu0 > 0:
        return plus, np.abs(mu + mu0) < snap
    return plus, np.zeros(mu.shape, dtype=bool)


def coefficient_arrays(mu, mu0: float):
    """Vectorized (a, b, c, h) over an array of energies, all regimes.

    Energies within the snap tolerance of +-mu0 get the closed-form
    values; in-gap points use the cosh-normalized hyperbolic rewrite,
    finite up to kappa ~ 700.  ``h`` is the half phase of c, e^{2ih} = c,
    lifted in closed form so it is continuous in mu across all regimes.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu0 < 0:
        raise ValueError("mu0 must be non-negative")
    a = np.empty(mu.shape, dtype=complex)
    b = np.empty(mu.shape, dtype=complex)
    c = np.empty(mu.shape, dtype=complex)
    h = np.empty(mu.shape)

    plus, minus = mass_mode_masks(mu, mu0)
    inside = (np.abs(mu) < mu0) & ~plus & ~minus
    outside = ~(plus | minus | inside)

    if np.any(outside):
        m = mu[outside]
        k = np.sqrt(m * m - mu0 * mu0)
        s, co = np.sin(k), np.cos(k)
        d = m * s - 1j * k * co
        _check_poles(d, m, k)
        a[outside] = mu0 * s / d
        b[outside] = -1j * k / d
        c[outside] = (m * s + 1j * k * co) / d
        # h = -arg d, lifted: above the gap d = |mu| e^{i(k - pi/2)} z with
        # Re z > 0; below it d is minus the conjugate of that
        am = np.abs(m)
        g = 0.5 * np.pi - k - np.arctan2((am - k) * s * co, am * s * s + k * co * co)
        h[outside] = np.where(m > 0, g, np.pi - g)

    if np.any(inside):
        m = mu[inside]
        kap = np.sqrt(mu0 * mu0 - m * m)
        t = np.tanh(kap)
        em = np.exp(-kap)
        kap_sech = 2.0 * kap * em / (1.0 + em * em)
        d = kap + 1j * m * t
        _check_poles(d, m, kap)
        a[inside] = 1j * mu0 * t / d
        b[inside] = kap_sech / d
        c[inside] = (1j * m * t - kap) / d
        h[inside] = 0.5 * np.pi - np.arctan2(m * t, kap)  # c = -conj(d)/d

    # h at zero wavenumber: the common limit of the forms on either side
    if np.any(plus):
        if mu0 > 0:
            a[plus], b[plus], c[plus] = mass_mode_coefficients(+1, mu0)
        else:  # massless K -> 0 limit: B = sx
            a[plus], b[plus], c[plus] = 0.0, 1.0, -1.0
        h[plus] = np.arctan2(1.0, mu0)
    if np.any(minus):
        a[minus], b[minus], c[minus] = mass_mode_coefficients(-1, mu0)
        h[minus] = np.pi - np.arctan2(1.0, mu0)
    return a, b, c, h


def mass_mode_membership(
    u: UnitaryBC, sign: int, mu0: float, tol: float = 1e-10
) -> bool:
    """Whether the energy mu = sign * mu0 belongs to the spectrum of U.

    Closed-form criterion in the chart: m1 + sin(eta) = mu0 (m0 -+
    cos(eta)), upper sign for sign = +1.  Equivalent to
    |F_U(sign * mu0)| = 0; tests enforce the equivalence.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if mu0 < 0:
        raise ValueError("mu0 must be non-negative")
    lhs = u.m[0] + np.sin(u.eta)
    rhs = mu0 * (u.m0 - sign * np.cos(u.eta))
    return bool(abs(lhs - rhs) < tol)


class DiracKernel:
    """Relativistic kernel bound to a fixed dimensionless mass.

    The kernel protocol the root search uses: ``theory``,
    ``special_points()`` and ``coefficients(mu) -> (a, b, c, h)``;
    ``spectral_values`` evaluates F_U from (a, b, c).
    """

    theory = "dirac"

    def __init__(self, mu0: float):
        if mu0 < 0:
            raise ValueError("mu0 must be non-negative")
        self.mu0 = float(mu0)

    def coefficients(self, mu):
        return coefficient_arrays(mu, self.mu0)

    def spectral_values(self, mu, u: UnitaryBC) -> np.ndarray:
        return spectral_function(*self.coefficients(mu)[:3], u)

    def special_points(self) -> tuple[float, ...]:
        if self.mu0 > 0:
            return (-self.mu0, self.mu0)
        return (0.0,)

    def __repr__(self) -> str:
        return f"DiracKernel(mu0={self.mu0:.6g})"
