"""Relativistic spectral kernel on the ring, and the one closed form
both kernels evaluate.

All formulas live in dimensionless variables: mu = (E / hbar c) L is
the rescaled energy and mu0 = (m c / hbar) L the rescaled rest energy.
The boundary transfer matrix is B(mu) = a I + b sx with

    a = mu0 sin K / d,   b = -i K / d,   c = det B = a^2 - b^2,
    d = mu sin K - i K cos K,   K^2 = mu^2 - mu0^2 = p n,

where p = mu - mu0 and n = mu + mu0.  The spectrum of the condition U
is the zero set of F_U(mu) = det(B(mu) - U) = det U - a tr U +
b tr(U sx) + c.  The kernel only ever hands out the scalars (a, b, c)
and the half phase h of c, e^{2ih} = c; the matrix B is never built
here.

Divided by K (by i kappa cosh kappa inside the gap, where K = i kappa),
the denominator becomes D = mu S - i C and

    a = mu0 S / D,   b = -i sigma / D,   c = conj(D) / D,

with (S, C, sigma) = (sin K / K, cos K, 1) where p n > 0 (above the gap
when p > 0, below it when n < 0) and (tanh kappa / kappa, 1,
sech kappa) where p n < 0 (inside the gap), so nothing overflows.
Both tend to (1, 1, 1) at zero wavenumber, p = 0 or n = 0, and stay
accurate as K -> 0, so the points mu = +-mu0 are the same form with
D = +-mu0 - i, taken as that limit where K^2 = 0 exactly.  |D|^2 =
(mu S)^2 + C^2 >= 1 everywhere, so the form has no pole:

- oscillatory: mu^2 = K^2 + mu0^2 >= K^2, so (mu sin K / K)^2 +
  cos^2 K >= sin^2 K + cos^2 K = 1;
- in the gap: C = 1;
- at K^2 = 0: mu0^2 + 1.

With rho = sign(mu) K where p n > 0 and rho = 0 elsewhere,

    h = -arg D = pi/2 - rho - atan2((mu - rho) S cos rho,
                                    1 + (mu - rho) S sin rho),

whose second atan2 argument is at least 1, so h is continuous on the
whole axis and, like the eigenphases, never increases.  Since
D = |D| e^{-ih}, B has the polar form

    B = e^{ih} (u I - i v sx) / |D|,   u = mu0 S,   v = sigma,

with u and v real and |D|^2 = u^2 + v^2 (B is unitary).  The root
search works on (h, u, v) alone, in real arithmetic (``polar``);
(a, b, c) serve the spectral function F_U (``spectral_values``), and
the root search's verification reads them without h, so it takes no
arctan.

:func:`_closed_form` is the only place the real core (mu, rho,
sin rho, S, C, u, sigma) is written, :func:`_phase` the only place h
is formed from it and :func:`_coefficients` the only place (a, b, c)
are; ``polar`` reads h, u and v = sigma, ``spectral_values`` reads a,
b and c, and ``coefficients`` all four.  The core works on (p, n), so
u = (n - p) S / 2, and forms K^2 as their product, never as mu^2 -
mu0^2, which would cancel.  Where |u| / v =
|n - p| |sin K| / (2 K) can exceed 1 (for Dirac at K < mu0, near the
gap edges) the eigenphase tracks turn steeply near each zero of sin K;
:func:`_turns` names those spots on (p, n), once for both kernels, and
the search samples them (``turning_points``).  The non-relativistic
kernel is the same form at p = e, n = 1 (:mod:`ring_spectra.schrod`).

A rest energy whose square overflows, mu0 > sqrt(largest double) ~
1.34e154, is refused with ``ValueError``: K^2 = p n would overflow
inside and around the gap, where a search would miss the bound states
or fail to verify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bc import InvariantTriple, UnitaryBC, spectral_function


#: the largest rest energy whose square is finite (~1.34e154); a larger
#: one is refused, since K^2 = p n overflows inside and around its gap
_MAX_MU0 = math.sqrt(np.finfo(float).max)


class SpectralPoleError(ArithmeticError):
    """A pole of the spectral function.  Nothing raises it: |D| >= 1
    (module docstring), so F_U has none.  It stays exported only for
    the benchmark's self-test, until that test changes (ROADMAP item
    9)."""


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


def _closed_form(p, n):
    """The real core (mu, rho, sin rho, S, C, u, sigma) at p = mu - mu0
    and n = mu + mu0 (module docstring), u = (n - p) S / 2.  The phase h
    is not part of it (:func:`_phase`), so a call that reads only
    (a, b, c) (:func:`_coefficients`) computes no arctan.

    All regimes run through the same array expressions, selected by the
    sign of K^2 = p n, so a call costs the same few dozen real array
    operations whatever its energies.  The one special case is K^2 = 0
    exactly (also where p n underflows), where (S, C, sigma) take their
    limit (1, 1, 1); any nonzero K^2, however small, is evaluated as it
    is.
    """
    k2 = p * n
    zero = k2 == 0.0
    r = np.sqrt(np.abs(k2))
    mu = 0.5 * (p + n)
    osc = k2 > 0
    rho = np.where(osc, np.copysign(r, mu), 0.0)
    kap = np.where(osc, 0.0, r)
    sin_rho = np.sin(rho)
    # S = sin K / K or tanh kappa / kappa, and 1 / 1 at zero wavenumber
    big_s = (sin_rho + np.tanh(kap) + zero) / (rho + kap + zero)
    # sech kappa, and 1 where kappa = 0; cosh overflows past kappa = 710,
    # where sech is below the smallest normal double anyway
    sigma = 1.0 / np.cosh(np.minimum(kap, 710.0))
    return mu, rho, sin_rho, big_s, np.cos(rho), 0.5 * (n - p) * big_s, sigma


def _phase(mu, rho, sin_rho, big_s, big_c, *_):
    """The lifted half phase h = -arg D of the real core (module
    docstring), for ``polar`` and ``coefficients``."""
    y = (mu - rho) * big_s
    return 0.5 * np.pi - rho - np.arctan2(y * big_c, 1.0 + y * sin_rho)


def _turns(k, p, n):
    """The wavenumbers where the tracks turn, around the zeros K = k of
    sin K, with (p, n) taken at K = k.

    In the oscillatory regime |u| / v = |n - p| |sin K| / (2 K), which
    is 0 at K = k.  Where its peak |n - p| / (2 k) exceeds 1 the tracks
    are staircases: almost all of a level's 2 pi turns within
    |K - k| ~ 2 k / |n - p|.  For each such k this returns k and the
    points k +- arcsin(min(1, c 2 k / |n - p|)), c = 1 and 3, where
    |u| / v is about c; unsorted.
    """
    peak = np.abs(n - p) / (2.0 * k)
    k, peak = k[peak > 1.0], peak[peak > 1.0]
    offsets = [np.arcsin(np.minimum(1.0, c / peak)) for c in (1.0, 3.0)]
    return np.concatenate([k, *(k + d for d in offsets), *(k - d for d in offsets)])


def _turn_spots(k_lo: float, k_hi: float) -> tuple[int, int]:
    """The first m >= 1 of the zeros K = m pi from the last at or below
    k_lo to the first at or above k_hi, those whose turning points can
    reach into [k_lo, k_hi], and how many they are (a Python int, so a
    window up to the largest double counts them exactly)."""
    first = max(1, math.floor(k_lo / np.pi))
    return first, max(0, math.ceil(k_hi / np.pi) + 1 - first)


def _in_window(x, lo: float, hi: float) -> np.ndarray:
    """x sorted, without exact repeats, strictly inside (lo, hi)."""
    x = np.sort(x)
    keep = (lo < x) & (x < hi) & np.append(True, x[1:] != x[:-1])
    return x[keep]


def _coefficients(mu, rho, sin_rho, big_s, big_c, u, sigma):
    """(a, b, c) from the real core: a = u / D, b = -i sigma / D and
    c = conj(D) / D, with D = mu S - i C; no phase."""
    d = mu * big_s - 1j * big_c
    return u / d, -1j * sigma / d, np.conj(d) / d


def _core(mu, mu0: float):
    """The real core over an array of energies mu, at a rest energy
    mu0 that :class:`DiracKernel` validated."""
    mu = np.array(mu, dtype=float, ndmin=1)
    return _closed_form(mu - mu0, mu + mu0)


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
    """Relativistic kernel bound to a fixed dimensionless mass; ``mu0``
    is read-only, so the kernel is a value for its whole lifetime.  A
    ``mu0`` that is negative, not finite or whose square overflows
    (above ~1.34e154) raises ``ValueError``.

    The kernel protocol, which every kernel speaks; the root search
    (:mod:`ring_spectra.roots`) calls nothing else of it:

    - ``theory``, the name of the theory;
    - ``turning_points(lo, hi, limit)``: the energies the search samples
      besides its evenly spaced ones, strictly inside (lo, hi), sorted
      and distinct, that do not depend on U; none where the tracks do
      not turn steeply, or past ``limit`` spots;
    - ``polar(x) -> (h, u, v)``, which reads the phase h and (u, v) of
      the real core;
    - ``spectral_values(x, u)``, F_U for U or its invariant triple
      (arrays of them for a batch), from (a, b, c) without h.

    ``turning_points`` and ``polar`` must be pure functions of their
    arguments for the kernel's lifetime, since a search may be served
    samples and a polar form computed for the same kernel object
    earlier; the kernels here are immutable values.  Every energy is
    evaluated as itself, up to and on the zero-wavenumber points, so a
    root there is found, counted and placed like any other.  Besides
    the protocol, ``coefficients(x) -> (a, b, c, h)`` serves the oracles
    and checks, and ``special_points()``, the zero-wavenumber points,
    the grid oracle, which refines its grid there.
    """

    theory = "dirac"

    def __init__(self, mu0: float):
        if not 0 <= mu0 < np.inf:
            raise ValueError("mu0 must be finite and non-negative")
        if mu0 > _MAX_MU0:
            raise ValueError(
                f"mu0 must be at most {_MAX_MU0!r}, the largest rest energy whose "
                f"square is finite; got {float(mu0)!r}"
            )
        self._mu0 = float(mu0)

    @property
    def mu0(self) -> float:
        """The dimensionless rest energy, fixed for the kernel's lifetime."""
        return self._mu0

    def coefficients(self, mu):
        """(a, b, c, h) over an array of energies, all regimes; h is the
        half phase of c, e^{2ih} = c, continuous in mu."""
        core = _core(mu, self.mu0)
        return (*_coefficients(*core), _phase(*core))

    def polar(self, mu):
        """Polar form (h, u, v) of B: B = e^{ih} (u I - i v sx) /
        sqrt(u^2 + v^2), all float arrays."""
        core = _core(mu, self.mu0)
        return _phase(*core), *core[5:]

    def spectral_values(self, mu, u: UnitaryBC | InvariantTriple) -> np.ndarray:
        """F_U from (a, b, c) of the real core, without the phase h."""
        return spectral_function(*_coefficients(*_core(mu, self.mu0)), u)

    def turning_points(self, lo: float, hi: float, limit: int) -> np.ndarray:
        """The energies in (lo, hi) around which the tracks turn
        (:func:`_turns`), sorted and distinct; they do not depend on U.

        n - p = 2 mu0, so the peak ratio mu0 / K exceeds 1 only at K <
        mu0, near the gap edges, on both oscillatory branches mu =
        +-sqrt(K^2 + mu0^2); as K >= pi there, the set is empty for mu0
        <= pi.  Every point has K >= pi / 2, so none lies on an edge
        (past mu0 ~ 1e8, hypot may round one onto +-mu0, where it is an
        ordinary sample).  A window with more than ``limit`` zeros K = m
        pi to turn at gets none, so nothing is allocated for it.
        """
        mu0 = self.mu0
        if mu0 <= np.pi:
            return np.empty(0)

        def wavenumber(mu):
            return math.sqrt(abs(mu) - mu0) * math.sqrt(abs(mu) + mu0)

        branches = [
            (sign, _turn_spots(wavenumber(near), min(wavenumber(far), mu0)))
            for sign, near, far in ((1.0, max(lo, mu0), hi), (-1.0, min(hi, -mu0), lo))
            if sign * far > mu0
        ]
        if sum(count for _, (_, count) in branches) > limit:
            return np.empty(0)
        parts = [np.empty(0)]
        for sign, (first, count) in branches:
            k = np.pi * np.arange(first, first + count)
            mu = np.hypot(k, mu0)
            parts.append(sign * np.hypot(_turns(k, mu - mu0, mu + mu0), mu0))
        return _in_window(np.concatenate(parts), lo, hi)

    def special_points(self) -> tuple[float, ...]:
        if self.mu0 > 0:
            return (-self.mu0, self.mu0)
        return (0.0,)

    def __repr__(self) -> str:
        return f"DiracKernel(mu0={self.mu0:.6g})"
