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
The energies mu = +-mu0 (zero wavenumber) are covered by closed-form
matrices and enter the grid machinery as ordinary points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bc import UnitaryBC, invariant_triple
from .matalg import I2, SX

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
        snap = MASS_SNAP_TOL * max(1.0, mu0)
        if mu0 > 0 and abs(mu - mu0) < snap:
            return cls(mu0, mu0, Regime.MASS_MODE_PLUS)
        if mu0 > 0 and abs(mu + mu0) < snap:
            return cls(-mu0, mu0, Regime.MASS_MODE_MINUS)
        if mu0 == 0 and abs(mu) < snap:
            return cls(0.0, 0.0, Regime.MASS_MODE_PLUS)
        if abs(mu) < mu0:
            return cls(mu, mu0, Regime.INSIDE_GAP)
        return cls(mu, mu0, Regime.ABOVE_GAP if mu > 0 else Regime.BELOW_GAP)

    @property
    def is_mass_mode(self) -> bool:
        return self.regime in (Regime.MASS_MODE_PLUS, Regime.MASS_MODE_MINUS)


@dataclass(frozen=True)
class KernelValue:
    """Kernel coefficients at one energy: c = a^2 - b^2 = det B and
    B = a I + b sx is unitary.  ``f`` is only set once a boundary
    condition has been supplied."""

    a: complex
    b: complex
    c: complex
    B: np.ndarray
    f: complex | None = None


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


def mass_mode_B(sign: int, mu0: float) -> np.ndarray:
    """B(+-mu0) = +-(mu0 I - i sx) / (mu0 -+ i); unitary closed form."""
    a, b, _ = mass_mode_coefficients(sign, mu0)
    return a * I2 + b * SX


def _check_poles(d: np.ndarray, mu: np.ndarray, k: np.ndarray) -> None:
    bad = np.abs(d) < 1e-13 * (np.abs(mu) + np.abs(k))
    if np.any(bad):
        raise SpectralPoleError(mu[bad])


def coefficient_arrays(mu, mu0: float):
    """Vectorized (a, b, c) over an array of energies, all regimes.

    Energies within the snap tolerance of +-mu0 get the closed-form
    values; in-gap points use the cosh-normalized hyperbolic rewrite,
    finite up to kappa ~ 700.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu0 < 0:
        raise ValueError("mu0 must be non-negative")
    a = np.empty(mu.shape, dtype=complex)
    b = np.empty(mu.shape, dtype=complex)
    c = np.empty(mu.shape, dtype=complex)

    snap = MASS_SNAP_TOL * max(1.0, mu0)
    if mu0 > 0:
        plus = np.abs(mu - mu0) < snap
        minus = np.abs(mu + mu0) < snap
    else:
        plus = np.abs(mu) < snap
        minus = np.zeros(mu.shape, dtype=bool)
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

    if np.any(plus):
        if mu0 > 0:
            a[plus], b[plus], c[plus] = mass_mode_coefficients(+1, mu0)
        else:  # massless K -> 0 limit: B = sx
            a[plus], b[plus], c[plus] = 0.0, 1.0, -1.0
    if np.any(minus):
        a[minus], b[minus], c[minus] = mass_mode_coefficients(-1, mu0)
    return a, b, c


def boundary_matrix_arrays(mu, mu0: float) -> np.ndarray:
    """B(mu) = a I + b sx over an array of energies, shape (..., 2, 2)."""
    a, b, c = coefficient_arrays(mu, mu0)
    out = np.empty(a.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 1, 1] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = b
    return out


def kernel_at(p: DiracPoint, u: UnitaryBC | None = None) -> KernelValue:
    """Kernel coefficients at one non-special energy.

    With a boundary condition supplied, the spectral value rides along
    in the ``f`` slot.
    """
    if p.is_mass_mode:
        raise MassModeError(
            "kernel coefficients at mu = +-mu0 come from mass_mode_B"
        )
    a, b, c = (complex(arr[0]) for arr in coefficient_arrays(p.mu, p.mu0))
    f = None
    if u is not None:
        t = invariant_triple(u)
        f = t.det_u - a * t.tr_u + b * t.tr_u_sx + c
    return KernelValue(a, b, c, a * I2 + b * SX, f)


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


def spectral_values(mu, mu0: float, u: UnitaryBC) -> np.ndarray:
    """F_U over an array of energies (special points included)."""
    a, b, c = coefficient_arrays(mu, mu0)
    t = invariant_triple(u)
    return t.det_u - a * t.tr_u + b * t.tr_u_sx + c


def spectral_value(p: DiracPoint, u: UnitaryBC) -> complex:
    """F_U(mu) = det U - a tr U + b tr(U sx) + c at one energy."""
    return complex(spectral_values(np.array([p.mu]), p.mu0, u)[0])


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
    """Relativistic kernel bound to a fixed dimensionless mass."""

    theory = "dirac"

    def __init__(self, mu0: float):
        if mu0 < 0:
            raise ValueError("mu0 must be non-negative")
        self.mu0 = float(mu0)

    def boundary_matrices(self, mu) -> np.ndarray:
        return boundary_matrix_arrays(mu, self.mu0)

    def spectral_values(self, mu, u: UnitaryBC) -> np.ndarray:
        return spectral_values(mu, self.mu0, u)

    def special_points(self) -> tuple[float, ...]:
        if self.mu0 > 0:
            return (-self.mu0, self.mu0)
        return (0.0,)

    def __repr__(self) -> str:
        return f"DiracKernel(mu0={self.mu0:.6g})"
