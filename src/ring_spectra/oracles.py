"""Independent oracles for the closed-form kernels and the root search.

The root search works on the kernels' polar form (h, u, v) alone, and
verifies roots with the scalar coefficients (a, b, c).  The complex
eigenphase route it replaced, from (a, b) and the lifted half phase h,
lives here (:func:`eigenphases`), held against LAPACK by the tests and
used by the grid search below.  The plane-wave and
polynomial-basis boundary matrices A_pm, from which those coefficients
were derived through B = A_minus A_plus^{-1}, live here so checks and
tests can rebuild B the long way and compare.  So does the reference
grid search, :func:`grid_spectra`: it brackets crossings on a fine
uniform grid with h unwrapped numerically from arg(c) (never the
closed-form lift) and bisects them, so the count-certified production
search can be held against it.  Neither the engine nor the CLI's
search commands import this module; only the acceptance checks behind
``ring-spectra verify`` and the tests do.
"""

from __future__ import annotations

import numpy as np

from .matalg import I2, SX, TAU
from .roots import (
    DEFAULT_TOL_RESIDUAL,
    DEFAULT_TOL_ROOT,
    SpectrumSlice,
    _top_end,
    _validate,
    collect_spectra,
)

#: grid nodes per 2 pi of the reference search
DEFAULT_DENSITY = 1024
#: an energy closer than SNAP_TOL * max(1, |s|) to a zero-wavenumber
#: point s takes the solution basis of s itself (:func:`snap_band`)
SNAP_TOL = 1e-12


def snap_band(at: float) -> float:
    """Half-width of the snap band of the zero-wavenumber point ``at``.

    The plane-wave bases of this module (:func:`wavenumber`,
    :func:`build_Apm`, :func:`schrod_boundary_map`) degenerate at K = 0,
    so an energy less than this far from the point takes the point's
    own polynomial basis.  The kernels need no such band: their closed
    form is accurate right down to K = 0, and ``triple.RepKernel``'s
    propagator basis is regular there.
    """
    return SNAP_TOL * max(1.0, abs(at))


def boundary_matrix(a, b) -> np.ndarray:
    """B = a I + b sx from kernel coefficients, shape (..., 2, 2)."""
    a = np.asarray(a, dtype=complex)[..., None, None]
    b = np.asarray(b, dtype=complex)[..., None, None]
    return a * I2 + b * SX


# ---------------------------------------------------------------------------
# relativistic kernel


def wavenumber(mu: float, mu0: float) -> complex:
    """Dimensionless wavenumber K: real sqrt(mu^2 - mu0^2) outside the
    gap, i sqrt(mu0^2 - mu^2) inside.  Undefined in the snap band of
    mu = +-mu0, where it vanishes."""
    band = snap_band(mu0)
    if abs(mu - mu0) < band or abs(mu + mu0) < band:
        raise ValueError("wavenumber vanishes at mu = +-mu0")
    if abs(mu) > mu0:
        return complex(np.sqrt(mu**2 - mu0**2))
    return 1j * np.sqrt(mu0**2 - mu**2)


def build_Apm(mu: float, mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """The plane-wave boundary matrices (A_plus, A_minus) at energy mu.

    Built verbatim from the two plane-wave solutions, with the amplitude
    ratio r = K / (mu + mu0); det A_pm = -4i/(mu + mu0) [mu sin K -+
    i K cos K] holds in every regime.  Undefined at the zero-wavenumber
    points, where the solution basis degenerates.  Entries grow like
    e^{kappa/2} inside the gap, so this path is an oracle for moderate
    kappa; production code uses the normalized coefficients.
    """
    k = wavenumber(mu, mu0)
    r = k / (mu + mu0)
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
        raise ValueError("mass modes need mu0 > 0")
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
    """B(+-mu0) = +-(mu0 I - i sx) / (mu0 -+ i); unitary closed form,
    written out here apart from the kernels' own evaluation."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not mu0 > 0:
        raise ValueError("mass modes need mu0 > 0")
    return sign * (mu0 * I2 - 1j * SX) / (mu0 - sign * 1j)


# ---------------------------------------------------------------------------
# non-relativistic kernel


def schrod_boundary_map(e: float) -> tuple[np.ndarray, np.ndarray]:
    """Boundary matrices (A_plus, A_minus) of the solution basis at e.

    Columns are the boundary-data images of the two basis solutions:
    plane waves e^{+-i q x/L} for e > 0, (cosh, sinh)(kappa x/L) for
    e < 0, and the polynomials (1, x/L) at e = 0 (and in its snap
    band).  B = A_minus A_plus^{-1} is basis independent.
    """
    if abs(e) < snap_band(0.0):
        a_plus = np.array([[1j, -1.0 - 0.5j], [1j, 1.0 + 0.5j]])
        a_minus = np.array([[-1j, -1.0 + 0.5j], [-1j, 1.0 - 0.5j]])
        return a_plus, a_minus
    if e > 0:
        q = np.sqrt(e)
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
    kap = np.sqrt(-e)
    sh, ch = np.sinh(kap / 2.0), np.cosh(kap / 2.0)
    # columns: psi = cosh(kap x), psi = sinh(kap x)
    a_plus = np.array(
        [[kap * sh + 1j * ch, -(kap * ch + 1j * sh)], [kap * sh + 1j * ch, kap * ch + 1j * sh]]
    )
    a_minus = np.array(
        [[kap * sh - 1j * ch, -(kap * ch - 1j * sh)], [kap * sh - 1j * ch, kap * ch - 1j * sh]]
    )
    return a_plus, a_minus


# ---------------------------------------------------------------------------
# complex eigenphase route


def unitary_eigenphases(s0, s_norm, h):
    """Both eigenphases of a unitary W = s0 I + s.sigma (complex s0, s).

    With h a half phase of det W (any branch, e.g. a kernel's
    continuous lift), W = e^{ih} (w0 I + i w.sigma) for a real unit 4-vector
    (w0, w) with w0 = Re(s0 e^{-ih}) and |w| = |s|, so the eigenphases
    are h +- atan2(|s|, w0).  Taking |s| from the coefficients keeps the
    spread accurate to machine precision through a degeneracy
    (|s| -> 0), where arccos(w0) would lose half the digits.  Inputs
    broadcast; output has shape (..., 2), not wrapped.
    """
    spread = np.arctan2(s_norm, np.real(s0 * np.exp(-1j * h)))
    return np.stack([h + spread, h - spread], axis=-1)


def eigenphases(a, b, h, eta, m0, m) -> np.ndarray:
    """Both eigenphase tracks of W = (a I + b sx) U^H, shape (..., 2),
    from the complex coefficients; the search's own tracks come from
    the kernel's polar form instead (:mod:`ring_spectra.roots`).

    In U's chart, W = e^{-i eta} (s0 I + s.sigma) with
    s0 = a m0 - i b m1 and s = (b m0 - i a m1, -i a m2 - b m3,
    b m2 - i a m3), and det(s0 I + s.sigma) = c = e^{2ih}.  The chart
    ``(eta, m0, m)`` broadcasts against the coefficients: scalars and a
    3-vector ``m`` for one U, or one row per point (``m`` of shape
    (..., 3)) for many.  Columns are t_+ and t_-.
    """
    m = np.asarray(m)
    m1, m2, m3 = m[..., 0], m[..., 1], m[..., 2]
    s_norm2 = np.abs(b * m0 - 1j * m1 * a) ** 2
    s_norm2 += np.abs(-1j * m2 * a - b * m3) ** 2
    s_norm2 += np.abs(b * m2 - 1j * m3 * a) ** 2
    s0 = a * m0 - 1j * m1 * b
    out = unitary_eigenphases(s0, np.sqrt(s_norm2), h)
    out -= np.asarray(eta)[..., None]
    return out


# ---------------------------------------------------------------------------
# reference root search


def _charts(us) -> np.ndarray:
    """One chart row (eta, m0, m1, m2, m3) per U."""
    return np.array([(u.eta, u.m0, *u.m) for u in us], dtype=float).reshape(-1, 5)


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


def _grid_brackets(grid: np.ndarray, tracks: np.ndarray, tag: int) -> list[tuple[float, ...]]:
    """Cells where a track crosses a multiple of 2 pi, one row (xl, xr,
    tl, tr, target, tag) per multiple crossed.  A track that sits on the
    multiple at a node gives a zero-width bracket at that node."""
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
    """Plain bisection of grid brackets.  The midpoint track value is the
    eigenphase candidate (plain branch arg(c)/2 of h) lifted closest to
    the linear interpolation of the bracket; the stop rule and the
    certified-endpoint return are those of the production search."""
    xl, xr, tl, tr = (v.copy() for v in (xl, xr, tl, tr))
    phase_tol = 0.125 * tol_residual
    fp_floor = 32.0 * np.finfo(float).eps
    for _ in range(200):
        xm = 0.5 * (xl + xr)
        scale = np.maximum(1.0, np.abs(xm))
        width = xr - xl
        phase = np.minimum(np.abs(tl - target), np.abs(tr - target))
        active = (width > fp_floor * scale) & ((width > tol_root * scale) | (phase > phase_tol))
        if not active.any():
            break
        xa = xm[active]
        rows = chart[active]
        a, b, c, _ = kernel.coefficients(xa)
        cand = eigenphases(a, b, 0.5 * np.angle(c), rows[:, 0], rows[:, 1], rows[:, 2:])
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


def grid_spectra(
    us,
    window: tuple[float, float],
    kernel,
    density: int = DEFAULT_DENSITY,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_residual: float = DEFAULT_TOL_RESIDUAL,
) -> list[SpectrumSlice]:
    """Reference search: the zeros of F_U in (lo, hi] for each U, from
    sign changes of the tracks on a uniform grid of ``density`` nodes per
    2 pi (refined around the special points), with h unwrapped from
    arg(c) along the grid, refined by bisection.  Clustering, the window
    rule and residual verification are the production search's.
    ``grid_points`` reports the grid size.  Memory grows with the window;
    meant for test windows only."""
    lo, hi = _validate(window, tol_root, tol_residual)
    if density < 64:
        raise ValueError("grid density must be at least 64 per 2*pi")
    top = _top_end(hi, tol_root)
    nodes = int(np.ceil((top - lo) / TAU * density)) + 1
    grid = _build_grid(lo, top, nodes, kernel.special_points())
    a, b, c, _ = kernel.coefficients(grid)
    h = 0.5 * np.unwrap(np.angle(c))

    brackets = []
    for k, u in enumerate(us):
        brackets += _grid_brackets(grid, eigenphases(a, b, h, u.eta, u.m0, u.m), k)
    arr = np.array(brackets, dtype=float).reshape(-1, 6)
    owner = arr[:, 5].astype(int)
    located = _bisect(
        kernel, _charts(us)[owner], arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4],
        tol_root, tol_residual,
    )
    evaluated = np.full(len(us), len(grid))
    return collect_spectra(us, located, owner, (lo, hi), tol_root, kernel, tol_residual, evaluated)
