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

(a, b, c) do not depend on U, so the one search, :func:`find_spectra`,
runs a batch of boundary conditions on one kernel evaluation;
:func:`find_spectrum` is that search for a single U.

Everything here is pure-function over value inputs; concurrent searches
on shared read-only kernels are safe.
"""

from __future__ import annotations

from collections.abc import Sequence
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
#: a window needing a larger grid is refused before anything is allocated
MAX_GRID_POINTS = 2**24

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


def eigenphases(a, b, c, eta, m0, m, h=None) -> np.ndarray:
    """Both eigenphases of W = (a I + b sx) U^H, shape (..., 2).

    Closed form in U's chart (see the module docstring).  The chart
    ``(eta, m0, m)`` broadcasts against the coefficients: scalars and a
    3-vector ``m`` for one U, or one row per point (``m`` of shape
    (..., 3)) for many.  ``h`` is a half phase of c; the plain branch
    arg(c)/2 by default.  |s| is summed one component at a time so a
    long grid never holds all four Pauli coefficients at once.
    """
    m = np.asarray(m)
    m1, m2, m3 = m[..., 0], m[..., 1], m[..., 2]
    if h is None:
        h = 0.5 * np.angle(c)
    s_norm2 = np.abs(b * m0 - 1j * m1 * a) ** 2
    s_norm2 += np.abs(-1j * m2 * a - b * m3) ** 2
    s_norm2 += np.abs(b * m2 - 1j * m3 * a) ** 2
    s0 = a * m0 - 1j * m1 * b
    out = unitary_eigenphases(s0, np.sqrt(s_norm2), h)
    out -= np.asarray(eta)[..., None]
    return out


def eigenphase_profile(u: UnitaryBC, grid, kernel) -> PhaseProfile:
    """Continuous-as-possible eigenphase tracks of W = B U^H on a grid.

    The grid must be sorted strictly increasing; special points
    (zero-wavenumber energies) are fine since the kernel evaluates them
    in closed form.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be 1-d, sorted, strictly increasing")
    a, b, c = kernel.coefficients(grid)
    tracks = eigenphases(a, b, c, u.eta, u.m0, u.m, h=0.5 * np.unwrap(np.angle(c)))
    phases = wrap_angle(tracks)
    wraps = np.round((tracks - phases) / TAU).astype(int)
    return PhaseProfile(grid=grid, phases=phases, wraps=wraps, tracks=tracks)


def _build_grid(lo: float, hi: float, n: int, specials) -> np.ndarray:
    """n uniform nodes on [lo, hi] (at least 9), refined around specials."""
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


def _brackets(grid: np.ndarray, tracks: np.ndarray, tag: int) -> list[tuple[float, ...]]:
    """Cells where a track crosses a multiple of 2 pi, one row (xl, xr,
    tl, tr, target, tag) per multiple crossed.  A track that sits on the
    multiple at a node gives a zero-width bracket at that node, which
    bisection returns as it is."""
    rows = []
    for g in range(2):
        t = tracks[:, g]
        floors = np.floor(t / TAU)
        cells = np.flatnonzero(floors[:-1] != floors[1:])
        for i in cells:
            lo_f = int(min(floors[i], floors[i + 1]))
            hi_f = int(max(floors[i], floors[i + 1]))
            for n in range(lo_f + 1, hi_f + 1):
                target = TAU * n
                xl = grid[i + 1] if t[i + 1] == target else grid[i]
                xr = grid[i] if t[i] == target else grid[i + 1]
                rows.append((xl, xr, t[i], t[i + 1], target, tag))
    return rows


def _bisect(kernel, chart, xl, xr, tl, tr, target, tol_root, tol_residual):
    """Vectorized bisection of track crossings.

    State per bracket: [xl, xr] with lifted track values tl, tr
    straddling ``target`` (a multiple of 2 pi), and the chart row
    (eta, m0, m1, m2, m3) of the U whose track it is, so brackets of
    many U refine together.  The midpoint track value is the eigenphase
    candidate lifted closest to the linear interpolation of the bracket.

    Brackets stay active until the width tolerance holds *and* the
    nearer endpoint's phase is small enough that |F| ~ |phase| clears
    the residual contract, with a hard floor at the fp grid spacing (a
    steep crossing far from the origin cannot be localized below it).
    That nearer endpoint is what gets returned: it is the point the
    stop rule certified, where the midpoint of a wide-in-phase bracket
    need not be.
    """
    xl, xr, tl, tr = (v.copy() for v in (xl, xr, tl, tr))
    phase_tol = 0.125 * tol_residual
    fp_floor = 32.0 * np.finfo(float).eps
    for _ in range(_MAX_BISECT):
        xm = 0.5 * (xl + xr)
        scale = np.maximum(1.0, np.abs(xm))
        width = xr - xl
        phase = np.minimum(np.abs(tl - target), np.abs(tr - target))
        active = (width > fp_floor * scale) & ((width > tol_root * scale) | (phase > phase_tol))
        if not active.any():
            break
        xa = xm[active]
        rows = chart[active]
        cand = eigenphases(*kernel.coefficients(xa), rows[:, 0], rows[:, 1], rows[:, 2:])
        texp = 0.5 * (tl[active] + tr[active])
        lifted = cand + TAU * np.round((texp[:, None] - cand) / TAU)
        pick = np.argmin(np.abs(lifted - texp[:, None]), axis=1)
        tm = lifted[np.arange(len(xa)), pick]
        g = tm - target[active]
        gl = tl[active] - target[active]
        go_right = np.sign(g) == np.sign(gl)
        exact = g == 0.0
        to_right = go_right & ~exact
        to_left = ~go_right & ~exact

        idx = np.flatnonzero(active)
        right = idx[to_right]
        left = idx[to_left]
        hit = idx[exact]
        xl[right] = xa[to_right]
        tl[right] = tm[to_right]
        xr[left] = xa[to_left]
        tr[left] = tm[to_left]
        xl[hit] = xm[hit]
        xr[hit] = xm[hit]
    return np.where(np.abs(tl - target) <= np.abs(tr - target), xl, xr)


def find_spectra(
    us: Sequence[UnitaryBC],
    window: tuple[float, float],
    kernel,
    density: int = DEFAULT_DENSITY,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_residual: float = DEFAULT_TOL_RESIDUAL,
) -> list[SpectrumSlice]:
    """All zeros of F_U in the half-open window (lo, hi], for each U.

    The grid and (a, b, c) on it are built once; tracks and brackets are
    made one U at a time (memory stays that of a single search), and the
    brackets of all U are bisected together to |dx| < tol_root *
    max(1, |x|).  Per U, crossings closer than the separation tolerance
    merge into a multiplicity-2 root, and the roots are verified against
    |F_U| < tol_residual in one kernel call.  Slices follow ``us``.
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
    nodes = np.ceil((hi + pad - lo) / TAU * density) + 1.0  # inf if hi - lo overflows
    if nodes > MAX_GRID_POINTS:
        raise NumericalError(
            f"window ({lo:.6g}, {hi:.6g}] needs {nodes:.0f} grid points at density "
            f"{density}, over the cap of {MAX_GRID_POINTS}; split it into smaller windows"
        )
    grid = _build_grid(lo, hi + pad, int(nodes), kernel.special_points())
    a, b, c = kernel.coefficients(grid)
    h = 0.5 * np.unwrap(np.angle(c))

    brackets = []
    for k, u in enumerate(us):
        brackets += _brackets(grid, eigenphases(a, b, c, u.eta, u.m0, u.m, h), k)

    arr = np.array(brackets, dtype=float).reshape(-1, 6)
    owner = arr[:, 5].astype(int)
    chart = np.array([(u.eta, u.m0, *u.m) for u in us]).reshape(-1, 5)[owner]
    located = _bisect(
        kernel, chart, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4],
        tol_root, tol_residual,
    )

    slices = []
    for k, u in enumerate(us):
        found = np.sort(located[owner == k])
        apart = np.diff(found) > SEPARATION_FACTOR * np.maximum(1.0, np.abs(found[:-1]))
        xs, mults = [], []
        for cluster in np.split(found, np.flatnonzero(apart) + 1) if found.size else []:
            if len(cluster) > 2:
                raise NumericalError(
                    f"{len(cluster)} coincident eigenphase crossings near x = "
                    f"{cluster[0]:.6g}; multiplicity of a 2x2 unitary cannot exceed 2"
                )
            x = float(np.mean(cluster))
            if x > hi and x - hi <= pad:
                x = hi
            if lo < x <= hi:
                xs.append(x)
                mults.append(len(cluster))
        residuals = np.abs(kernel.spectral_values(np.array(xs, dtype=float), u))
        for x, residual in zip(xs, residuals):
            if residual > tol_residual:
                raise NumericalError(
                    f"root at x = {x:.12g} failed residual verification: "
                    f"|F| = {residual:.3e} > {tol_residual:.1e}"
                )
        roots = tuple(
            Root(x, n, float(r), "eigenphase-bisection") for x, n, r in zip(xs, mults, residuals)
        )
        slices.append(SpectrumSlice((lo, hi), roots, len(grid), kernel.theory))
    return slices


def find_spectrum(
    u: UnitaryBC,
    window: tuple[float, float],
    kernel,
    density: int = DEFAULT_DENSITY,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_residual: float = DEFAULT_TOL_RESIDUAL,
) -> SpectrumSlice:
    """All zeros of F_U in the half-open window (lo, hi]; see find_spectra."""
    return find_spectra([u], window, kernel, density, tol_root, tol_residual)[0]
