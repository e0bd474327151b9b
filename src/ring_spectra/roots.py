"""Spectrum extraction: all real zeros of the spectral function.

F_U(x) = det(B(x) - U) is complex on the real axis, so minimizing |F|
cannot bracket.  Instead, with W(x) = B(x) U^H (unitary, since both
factors are), F_U = 0 exactly when W has eigenvalue 1, i.e. when an
eigenphase of W crosses zero.  In U's chart U = e^{i eta} (m0 I +
i m.sigma) and with B = a I + b sx,

    W = e^{-i eta} (s0 I + s.sigma),   det(s0 I + s.sigma) = c,
    s0 = a m0 - i b m1,
    s  = (b m0 - i a m1, -i a m2 - b m3, b m2 - i a m3),

so the two eigenphases are

    t_pm(x) = h(x) - eta +- atan2(|s|, w0),   w0 = Re(s0 e^{-i h}),

with h = arg(c)/2, unwrapped along the grid for the tracks.  Their
crossings of 2 pi n are bracketed by sign changes on a fine grid and
refined by bisection on the same closed form (taken with the plain
branch of h).  |s| comes straight from the coefficients, so the phases
stay accurate to machine precision through degeneracies and double
roots are located as sharply as simple ones.  Two crossings closer
than the separation tolerance merge into one root of multiplicity 2,
which is the maximum for 2x2 unitaries; a larger cluster raises, since
it would mean the dimension count failed.

A kernel is anything with ``theory``, ``special_points()``,
``coefficients(x) -> (a, b, c)`` and ``spectral_values(x, u)``; the
search calls nothing else, and never builds a 2x2 matrix per point.

Everything here is pure-function over value inputs; concurrent searches
on shared read-only kernels are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bc import UnitaryBC
from .matalg import TAU, unitary_eigenphases, wrap_angle

#: grid nodes per 2*pi of window length (default; >= 64 enforced)
DEFAULT_DENSITY = 1024
#: roots closer than SEPARATION_FACTOR * max(1, |x|) merge (multiplicity 2)
SEPARATION_FACTOR = 1e-8
DEFAULT_TOL_ROOT = 1e-12
DEFAULT_TOL_RESIDUAL = 1e-9

_MAX_BISECT = 200


class NumericalError(RuntimeError):
    """A search could not meet its numerical contract: a root failed
    residual verification or more than two eigenphase crossings
    coincided."""


@dataclass(frozen=True)
class Root:
    """One eigenvalue: location, multiplicity, |F| at the root, method."""

    x: float
    multiplicity: int
    residual: float
    method: str


@dataclass(frozen=True)
class SpectrumSlice:
    """Sorted eigenvalues with multiplicities inside one energy window."""

    window: tuple[float, float]
    roots: tuple[Root, ...]
    grid_points: int
    theory: str

    def values(self) -> np.ndarray:
        return np.array([r.x for r in self.roots])

    def expanded(self) -> np.ndarray:
        """Root values repeated according to multiplicity."""
        return np.repeat(self.values(), [r.multiplicity for r in self.roots])


@dataclass(frozen=True)
class PhaseProfile:
    """Eigenphase tracks of W = B U^H along a grid.

    ``phases`` holds the wrapped values in (-pi, pi]; ``wraps`` counts
    the 2 pi multiples removed, so ``phases + 2 pi wraps`` are the
    continuous tracks (also exposed as ``tracks``).
    """

    grid: np.ndarray
    phases: np.ndarray  # (n, 2), wrapped to (-pi, pi]
    wraps: np.ndarray  # (n, 2), integer
    tracks: np.ndarray  # (n, 2), unwrapped


def eigenphases(a, b, c, u: UnitaryBC, h=None) -> np.ndarray:
    """Both eigenphases of W = (a I + b sx) U^H, shape (..., 2).

    Closed form in U's chart (see the module docstring).  ``h`` is a
    half phase of c; the plain branch arg(c)/2 by default.  |s| is
    summed one component at a time so a long grid never holds all
    four Pauli coefficients at once.
    """
    m0, (m1, m2, m3) = u.m0, u.m
    if h is None:
        h = 0.5 * np.angle(c)
    s_norm2 = np.abs(b * m0 - 1j * m1 * a) ** 2
    s_norm2 += np.abs(-1j * m2 * a - b * m3) ** 2
    s_norm2 += np.abs(b * m2 - 1j * m3 * a) ** 2
    s0 = a * m0 - 1j * m1 * b
    out = unitary_eigenphases(s0, np.sqrt(s_norm2), h)
    out -= u.eta
    return out


def _tracks(kernel, grid: np.ndarray, u: UnitaryBC) -> np.ndarray:
    """Continuous eigenphase tracks along a sorted grid, shape (n, 2)."""
    a, b, c = kernel.coefficients(grid)
    return eigenphases(a, b, c, u, h=0.5 * np.unwrap(np.angle(c)))


def eigenphase_profile(u: UnitaryBC, grid, kernel) -> PhaseProfile:
    """Continuous-as-possible eigenphase tracks of W = B U^H on a grid.

    The grid must be sorted strictly increasing; special points
    (zero-wavenumber energies) are fine since the kernel evaluates them
    in closed form.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be 1-d, sorted, strictly increasing")
    tracks = _tracks(kernel, grid, u)
    phases = wrap_angle(tracks)
    wraps = np.round((tracks - phases) / TAU).astype(int)
    return PhaseProfile(grid=grid, phases=phases, wraps=wraps, tracks=tracks)


def _build_grid(window, density: int, specials) -> np.ndarray:
    lo, hi = window
    n = int(np.ceil((hi - lo) / TAU * density)) + 1
    grid = [np.linspace(lo, hi, max(n, 9))]
    # refine geometrically around zero-wavenumber points: the phase
    # speed diverges like 1/K there and a uniform grid alone could step
    # over more than pi in phase for large mu0
    h = (hi - lo) / max(n - 1, 1)
    for s in specials:
        if lo < s < hi:
            offs = h * 4.0 ** (-np.arange(1.0, 13.0))
            grid.append(np.clip(s + offs, lo, hi))
            grid.append(np.clip(s - offs, lo, hi))
            grid.append(np.array([s]))
    merged = np.unique(np.concatenate(grid))
    # drop near-duplicates that would create zero-width cells
    keep = np.concatenate([[True], np.diff(merged) > 1e-15 * np.maximum(1.0, np.abs(merged[1:]))])
    return merged[keep]


def _bisect(kernel, u, xl, xr, tl, tr, target, tol_root, tol_residual):
    """Vectorized bisection of track crossings.

    State per bracket: [xl, xr] with lifted track values tl, tr
    straddling ``target`` (a multiple of 2 pi).  The midpoint track
    value is the eigenphase candidate lifted closest to the linear
    interpolation of the bracket.

    Brackets stay active until the width tolerance holds *and* the
    nearer endpoint's phase is small enough that |F| ~ |phase| clears
    the residual contract, with a hard floor at the fp grid spacing (a
    steep crossing far from the origin cannot be localized below it).
    That nearer endpoint is what gets returned: it is the point the
    stop rule certified, where the midpoint of a wide-in-phase bracket
    need not be.
    """
    xl = xl.copy()
    xr = xr.copy()
    tl = tl.copy()
    tr = tr.copy()
    phase_tol = 0.125 * tol_residual
    for _ in range(_MAX_BISECT):
        xm = 0.5 * (xl + xr)
        scale = np.maximum(1.0, np.abs(xm))
        width = xr - xl
        phase = np.minimum(np.abs(tl - target), np.abs(tr - target))
        active = (width > 32.0 * np.finfo(float).eps * scale) & (
            (width > tol_root * scale) | (phase > phase_tol)
        )
        if not np.any(active):
            break
        xa = xm[active]
        cand = eigenphases(*kernel.coefficients(xa), u)
        texp = 0.5 * (tl[active] + tr[active])
        lifted = cand + TAU * np.round((texp[:, None] - cand) / TAU)
        pick = np.argmin(np.abs(lifted - texp[:, None]), axis=1)
        tm = lifted[np.arange(len(xa)), pick]
        g = tm - target[active]
        gl = tl[active] - target[active]
        go_right = np.sign(g) == np.sign(gl)
        exact = g == 0.0

        idx = np.flatnonzero(active)
        right = idx[go_right & ~exact]
        left = idx[~go_right & ~exact]
        hit = idx[exact]
        xl[right] = xa[go_right & ~exact]
        tl[right] = tm[go_right & ~exact]
        xr[left] = xa[~go_right & ~exact]
        tr[left] = tm[~go_right & ~exact]
        xl[hit] = xm[hit]
        xr[hit] = xm[hit]
    return np.where(np.abs(tl - target) <= np.abs(tr - target), xl, xr)


def find_spectrum(
    u: UnitaryBC,
    window: tuple[float, float],
    kernel,
    density: int = DEFAULT_DENSITY,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_residual: float = DEFAULT_TOL_RESIDUAL,
) -> SpectrumSlice:
    """All zeros of F_U in the half-open window (lo, hi].

    Every sign change of an eigenphase track through a multiple of 2 pi
    is bisected to |dx| < tol_root * max(1, |x|); accepted roots are
    re-verified against |F_U| < tol_residual, and crossings closer
    together than the separation tolerance merge into a multiplicity-2
    root.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ValueError("window must be finite")
    if density < 64:
        raise ValueError("grid density must be at least 64 per 2*pi")
    if tol_root <= 0 or tol_residual <= 0:
        raise ValueError("tolerances must be positive")

    # pad the top end by the root tolerance: a zero sitting exactly at hi
    # (up to fp fuzz) belongs to the half-open window and must be bracketed
    pad = tol_root * max(1.0, abs(hi))
    grid = _build_grid((lo, hi + pad), density, kernel.special_points())
    tracks = _tracks(kernel, grid, u)

    brackets: list[tuple[float, float, float, float, float]] = []
    exact_hits: list[float] = []
    for g in range(2):
        t = tracks[:, g]
        floors = np.floor(t / TAU)
        cells = np.flatnonzero(floors[:-1] != floors[1:])
        for i in cells:
            lo_f = int(min(floors[i], floors[i + 1]))
            hi_f = int(max(floors[i], floors[i + 1]))
            for n in range(lo_f + 1, hi_f + 1):
                target = TAU * n
                if t[i] == target:
                    exact_hits.append(grid[i])
                elif t[i + 1] == target:
                    exact_hits.append(grid[i + 1])
                else:
                    brackets.append((grid[i], grid[i + 1], t[i], t[i + 1], target))

    if brackets:
        arr = np.array(brackets, dtype=float)
        located = _bisect(
            kernel, u, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4],
            tol_root, tol_residual,
        )
        found = sorted(located.tolist() + exact_hits)
    else:
        found = sorted(exact_hits)

    roots: list[Root] = []
    i = 0
    while i < len(found):
        cluster = [found[i]]
        while (
            i + 1 < len(found)
            and found[i + 1] - found[i] <= SEPARATION_FACTOR * max(1.0, abs(found[i]))
        ):
            i += 1
            cluster.append(found[i])
        i += 1
        if len(cluster) > 2:
            raise NumericalError(
                f"{len(cluster)} coincident eigenphase crossings near x = "
                f"{cluster[0]:.6g}; multiplicity of a 2x2 unitary cannot exceed 2"
            )
        x = float(np.mean(cluster))
        if x > hi and x - hi <= pad:
            x = hi
        if not lo < x <= hi:
            continue
        residual = float(abs(kernel.spectral_values(np.array([x]), u)[0]))
        if residual > tol_residual:
            raise NumericalError(
                f"root at x = {x:.12g} failed residual verification: "
                f"|F| = {residual:.3e} > {tol_residual:.1e}"
            )
        roots.append(Root(x, len(cluster), residual, "eigenphase-bisection"))

    return SpectrumSlice(
        window=(lo, hi),
        roots=tuple(sorted(roots, key=lambda r: r.x)),
        grid_points=len(grid),
        theory=kernel.theory,
    )
