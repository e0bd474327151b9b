"""Spectrum extraction: all real zeros of the spectral function.

F_U(x) = det(B(x) - U) is complex on the real axis, so minimizing |F|
cannot bracket.  Instead, with W(x) = B(x) U^H (unitary, since both
factors are), F_U = 0 exactly when W has eigenvalue 1, i.e. when an
eigenphase of W crosses zero.  Every kernel hands out B in polar form,

    B(x) = e^{ih} (u I - i v sx) / |D|,   |D|^2 = u^2 + v^2,

with u, v real and h the half phase of c = det B (e^{2ih} = c).  In
U's chart U = e^{i eta} (m0 I + i m.sigma) this gives

    W = e^{i(h - eta)} (w0 I - i w.sigma) / |D|,
    w0 = u m0 - v m1,   w = (u m1 + v m0, u m2 - v m3, u m3 + v m2),
    |w|^2 = (v m0 + u m1)^2 + (u^2 + v^2) m_perp^2,   m_perp^2 = m2^2 + m3^2,

with w0^2 + |w|^2 = |D|^2, so the two eigenphases are

    t_pm(x) = h(x) - eta +- atan2(|w|, w0):

the positive factor 1/|D| drops out of atan2, and both tracks come out
of real arithmetic, with no complex number and no e^{-ih}.  A track
sees U only through (eta, m0, m1, m_perp^2), which is the invariant
triple (det U, tr U, tr(U sx)) in other coordinates.  Every kernel
hands out h already lifted, continuous in x in closed form, so t_pm
are continuous tracks at any single x, with no grid and no unwrapping.
Both tracks never increase
with energy (the Herglotz/Krein monotonicity of the eigenphases), so
the multiples of 2 pi a track passes between the window ends are
exactly its crossings: the tracks at the two ends alone certify the
root count, and each crossing gets its own bracket, refined by Brent's
method on its own track.  |w| comes straight from (u, v), so the
phases stay accurate to machine precision through degeneracies and
double roots are located as sharply as simple ones.  Two crossings
closer than the separation tolerance merge into one root of
multiplicity 2, which is the maximum for 2x2 unitaries; a larger
cluster raises, since it would mean the dimension count failed.

A kernel is anything with ``theory``, ``special_points()``,
``polar(x) -> (h, u, v)`` and ``spectral_values(x, u)``; the search
calls nothing else, and never builds a 2x2 matrix per point.  The
kernels evaluate a small band around each special point as the point
itself (:func:`ring_spectra.dirac.snap_band`), so a root whose final
bracket meets that band is reported at the special point, and the
count at the window's top end is read past any band that holds it.

(h, u, v) do not depend on U, so the one search, :func:`find_spectra`,
runs a batch of boundary conditions on one kernel call per refinement
round, and verifies the roots of every U in one more;
:func:`find_spectrum` is that search for a single U.  Memory grows
with the number of roots, not with the window.  The reference grid
search it replaced, and the complex eigenphase route it used, live on
as oracles (:mod:`ring_spectra.oracles`).

Everything here is pure-function over value inputs; concurrent searches
on shared read-only kernels are safe.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .bc import InvariantTriple, UnitaryBC, invariant_triple
from .dirac import snap_band
from .matalg import TAU

#: roots closer than SEPARATION_FACTOR * max(1, |x|) merge (multiplicity 2)
SEPARATION_FACTOR = 1e-8
DEFAULT_TOL_ROOT = 1e-12
DEFAULT_TOL_RESIDUAL = 1e-9
#: a window holding more roots for one U is refused before anything is allocated
MAX_ROOTS = 2**17

_MAX_ROUNDS = 200


class NumericalError(RuntimeError):
    """A search could not meet its numerical contract: the window holds
    more than MAX_ROOTS roots or no finite count, a root failed residual
    verification, or more than two eigenphase crossings coincided."""


class Root(NamedTuple):
    """One eigenvalue: location, multiplicity, |F| at the root, method.

    An immutable named tuple, so it also compares equal to a plain
    tuple of the same four values.
    """

    x: float
    multiplicity: int
    residual: float
    method: str


@dataclass(frozen=True)
class SpectrumSlice:
    """Sorted eigenvalues with multiplicities inside one energy window.

    ``grid_points`` is the number of energies the search evaluated for
    this U: the two window ends plus every refinement step of its
    brackets (the grid size, for the grid oracle).
    """

    window: tuple[float, float]
    roots: tuple[Root, ...]
    grid_points: int
    theory: str

    def values(self) -> np.ndarray:
        return np.array([r.x for r in self.roots])

    def expanded(self) -> np.ndarray:
        """Root values repeated according to multiplicity."""
        return np.repeat(self.values(), [r.multiplicity for r in self.roots])


def _validate(window, tol_root, tol_residual) -> tuple[float, float]:
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ValueError("window must be finite")
    if not (0 < tol_root < np.inf and 0 < tol_residual < np.inf):
        raise ValueError("tolerances must be positive and finite")
    return lo, hi


def _top_end(hi: float, tol_root: float, specials) -> float:
    """Where the tracks are read for the window's top end.

    hi is padded by the root tolerance: a zero sitting exactly at hi (up
    to fp fuzz) belongs to the half-open window and must be counted.
    Should that land in a special point's snap band, the kernel would
    evaluate it as the point itself, where a crossing sits on its target
    only up to rounding; the end then moves past the band, so a root at
    the point is counted whichever way that rounding goes.
    """
    top = hi + tol_root * max(1.0, abs(hi))
    for s in specials:
        band = snap_band(s)
        if abs(top - s) < band:
            top = s + 2.0 * band
    return top


#: the sign of the spread on track t_+ and on track t_-
_SIGNS = np.array([1.0, -1.0])


def _charts(us: Sequence[UnitaryBC]) -> np.ndarray:
    """One row (eta, m0, m1, m_perp^2) per U: all of U a track sees."""
    return np.array(
        [(u.eta, u.m0, u.m[0], u.m[1] ** 2 + u.m[2] ** 2) for u in us], dtype=float
    ).reshape(-1, 4)


def _tracks(h, u, v, eta, m0, m1, mperp2, sign):
    """The eigenphase track h - eta + sign atan2(|w|, w0) of W = B U^H
    from the kernel's polar form (h, u, v) and U's (eta, m0, m1,
    m_perp^2) (module docstring): t_+ for sign = +1, t_- for sign = -1.
    All arguments broadcast."""
    w0 = u * m0 - v * m1
    q = v * m0 + u * m1
    spread = np.arctan2(sign * np.sqrt(q * q + mperp2 * (u * u + v * v)), w0)
    return h + spread - eta  # the rounding order of oracles.eigenphases


def _refine(kernel, consts, xl, xr, gl, gr, tol_root, tol_residual):
    """Brent's method on all track crossings at once.

    Per bracket: [xl, xr] with g = t - target straddling zero, gl > 0 >=
    gr (tracks never increase), on the track whose :func:`_tracks`
    arguments (eta, m0, m1, m_perp^2, sign) and target make its column
    of ``consts``.  Each round makes one ``polar`` call at one point per
    active bracket and evaluates each bracket's own track alone.  The
    state is Brent's: the best end b, the
    contrapoint c with g(c) of the other sign, the previous best a, and
    the last two step lengths.  Steps are secant or inverse quadratic
    interpolation, replaced by bisection whenever they would not shrink
    the bracket fast enough, and never shorter than a quarter of the
    width the stop rule asks for, so a one-sided approach still closes
    the bracket.  Superlinear on smooth tracks; at the kinks where two
    tracks touch (double roots) it falls back to bisection steps.

    Brackets stay active until the width tolerance holds *and* the
    nearer endpoint's phase is small enough that |F| ~ |phase| clears
    the residual contract, with a hard floor at the fp grid spacing (a
    steep crossing far from the origin cannot be localized below it).
    The state holds the active brackets only, with each one's original
    index: a bracket that retires has its final (b, c, g(b), g(c)) and
    evaluation count written back at that index, and the state is
    compressed, so every round works on whole arrays.  Whatever is still
    active after _MAX_ROUNDS rounds is written back as it stands.  The
    nearer endpoint is what gets returned: it is the point the stop rule
    certified.  Returns (x, lower end, upper end, evaluations per
    bracket).
    """
    n = len(xl)
    b_out, c_out, fb_out, fc_out = (np.empty(n) for _ in range(4))
    evals_out = np.empty(n, dtype=int)
    live = np.arange(n)
    b, fb = np.array(xr, dtype=float), np.array(gr, dtype=float)
    c, fc = np.array(xl, dtype=float), np.array(gl, dtype=float)
    a, fa = c.copy(), fc.copy()
    d = b - a
    e = d.copy()
    evals = np.zeros(n, dtype=int)
    phase_tol = 0.125 * tol_residual
    fp_floor = 32.0 * np.finfo(float).eps
    for _ in range(_MAX_ROUNDS):
        swap = np.abs(fc) < np.abs(fb)  # keep b the better end
        a, fa = np.where(swap, b, a), np.where(swap, fb, fa)
        b, c = np.where(swap, c, b), np.where(swap, b, c)
        fb, fc = np.where(swap, fc, fb), np.where(swap, fb, fc)
        width = np.abs(c - b)
        scale = np.maximum(1.0, np.abs(0.5 * (b + c)))
        active = (
            (fb != 0.0)
            & (width > fp_floor * scale)
            & ((width > tol_root * scale) | (np.abs(fb) > phase_tol))
        )
        if not active.all():
            done = ~active
            k = live[done]
            b_out[k], c_out[k], fb_out[k], fc_out[k] = b[done], c[done], fb[done], fc[done]
            evals_out[k] = evals[done]
            live, a, fa, b, fb, c, fc, d, e, evals, width, scale = (
                arr[active] for arr in (live, a, fa, b, fb, c, fc, d, e, evals, width, scale)
            )
            consts = consts[:, active]
        if not live.size:
            break
        # shortest step: a quarter of the width that meets both the width
        # tolerance and, at the secant slope, the phase tolerance
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.abs(fc - fb) / width
            tol_x = np.fmin(tol_root * scale, phase_tol / slope)
            tol1 = np.maximum(0.25 * tol_x, 2.0 * np.finfo(float).eps * np.abs(b))
            xm = 0.5 * (c - b)
            s = fb / fa
            secant = a == c
            qa, rb = fa / fc, fb / fc
            p = np.where(secant, 2.0 * xm * s, s * (2.0 * xm * qa * (qa - rb) - (b - a) * (rb - 1.0)))
            q = np.where(secant, 1.0 - s, (qa - 1.0) * (rb - 1.0) * (s - 1.0))
            q = np.where(p > 0, -q, q)
            p = np.abs(p)
            take = (
                (np.abs(e) >= tol1)
                & (np.abs(fa) > np.abs(fb))
                & (2.0 * p < np.minimum(3.0 * xm * q - np.abs(tol1 * q), np.abs(e * q)))
            )
            step = np.where(take, p / q, xm)
        x = b + np.where(np.abs(step) > tol1, step, np.copysign(tol1, xm))
        *track, goal = consts
        g = _tracks(*kernel.polar(x), *track) - goal
        evals += 1
        # the new point replaces c when it lands on c's side of the root
        same = np.sign(g) == np.sign(fc)
        e = np.where(same, x - b, np.where(take, d, step))
        d = np.where(same, x - b, step)
        a, fa, c, fc = b, fb, np.where(same, b, c), np.where(same, fb, fc)
        b, fb = x, g
    b_out[live], c_out[live], fb_out[live], fc_out[live] = b, c, fb, fc
    evals_out[live] = evals
    located = np.where(np.abs(fb_out) <= np.abs(fc_out), b_out, c_out)
    exact = fb_out == 0.0
    lower = np.where(exact, b_out, np.minimum(b_out, c_out))
    upper = np.where(exact, b_out, np.maximum(b_out, c_out))
    return located, lower, upper, evals_out


def _snap_to_special_points(x, xl, xr, specials) -> np.ndarray:
    """Roots whose final bracket meets a special point's snap band are
    reported at the special point: the kernel evaluates that whole band
    as the point itself, so a crossing there is a crossing at it."""
    x = x.copy()
    for s in specials:
        band = snap_band(s)
        x[(xl <= s + band) & (xr >= s - band)] = s
    return x


def collect_spectra(us, located, owner, window, tol_root, kernel, tol_residual, evaluated):
    """Cluster the located crossings of every U into roots (multiplicity
    at most 2), keep those in the half-open window, verify all of them
    against |F_U| < tol_residual in one kernel call, and wrap each U's
    roots in a slice reporting ``evaluated[k]`` energies.

    ``owner[j]`` is the index in ``us`` of crossing j.  A root is only
    located to tol_root * max(1, |x|), so one that close to an end
    counts as sitting on it: within that distance above lo it is left
    out, within it above hi it is reported at hi.  Adjacent windows
    therefore split the roots between them exactly.  A failure is
    raised for the first U that has one, as a search of that U alone
    would raise it."""
    lo, hi = window
    pad_lo, pad = (tol_root * max(1.0, abs(v)) for v in window)
    order = np.lexsort((located, owner))
    found, owner = located[order], owner[order]
    # a cluster starts at each new U and wherever neighbours lie apart
    apart = (np.diff(owner) != 0) | (
        np.diff(found) > SEPARATION_FACTOR * np.maximum(1.0, np.abs(found[:-1]))
    )
    starts = np.flatnonzero(np.concatenate([[found.size > 0], apart]))
    sizes = np.diff(np.append(starts, found.size))
    xs = np.add.reduceat(found, starts) / sizes if found.size else found
    xs = np.where((xs > hi) & (xs - hi <= pad), hi, xs)
    inside = (xs > lo + pad_lo) & (xs <= hi)
    xs, mults, ks = xs[inside], sizes[inside], owner[starts][inside]
    per_u = invariant_triple(np.array([u.matrix for u in us], dtype=complex).reshape(-1, 2, 2))
    triples = InvariantTriple(per_u.det_u[ks], per_u.tr_u[ks], per_u.tr_u_sx[ks])
    residuals = np.abs(kernel.spectral_values(xs, triples))

    big = np.flatnonzero(sizes > 2)
    bad = np.flatnonzero(residuals > tol_residual)
    if big.size and (not bad.size or owner[starts[big[0]]] <= ks[bad[0]]):
        j = big[0]
        raise NumericalError(
            f"{sizes[j]} coincident eigenphase crossings near x = "
            f"{found[starts[j]]:.6g}; multiplicity of a 2x2 unitary cannot exceed 2"
        )
    if bad.size:
        j = bad[0]
        raise NumericalError(
            f"root at x = {xs[j]:.12g} failed residual verification: "
            f"|F| = {residuals[j]:.3e} > {tol_residual:.1e}"
        )
    roots = list(map(Root._make, zip(
        xs.tolist(), mults.tolist(), residuals.tolist(), repeat("eigenphase-count")
    )))
    ends = np.cumsum(np.bincount(ks, minlength=len(us))).tolist()
    return [
        SpectrumSlice((lo, hi), tuple(roots[start:end]), int(evaluated[k]), kernel.theory)
        for k, (start, end) in enumerate(zip([0] + ends[:-1], ends))
    ]


def find_spectra(
    us: Iterable[UnitaryBC],
    window: tuple[float, float],
    kernel,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_residual: float = DEFAULT_TOL_RESIDUAL,
) -> list[SpectrumSlice]:
    """All zeros of F_U in the half-open window (lo, hi], for each U.

    The tracks of every U are evaluated at the two window ends only (one
    kernel call); since they never increase, the multiples of 2 pi they
    cross are the exact root count, and each crossing becomes its own
    bracket over the whole window.  A U whose count exceeds MAX_ROOTS,
    or is not finite, is refused before anything else is allocated.
    The brackets of all U are refined together to |dx| < tol_root *
    max(1, |x|).  Per U, crossings closer than the separation tolerance
    merge into a multiplicity-2 root, and the roots of every U are
    verified against |F_U| < tol_residual in one kernel call.  Slices
    follow ``us``, which may be any iterable.
    """
    us = list(us)
    lo, hi = _validate(window, tol_root, tol_residual)
    top = _top_end(hi, tol_root, kernel.special_points())
    chart = _charts(us)
    with np.errstate(invalid="ignore", over="ignore"):
        h, u, v = (part[:, None] for part in kernel.polar(np.array([lo, top])))
        ends = _tracks(h, u, v, *chart.T[:, :, None, None], _SIGNS)
    # ends[k, e, g]: track g of U k at end e; crossings of 2 pi n with
    # t(top) <= 2 pi n < t(lo)
    first = np.ceil(ends[:, 1] / TAU)
    counts = np.maximum(np.ceil(ends[:, 0] / TAU) - first, 0.0)
    totals = counts.sum(axis=1)
    for k, total in enumerate(totals):
        if not total <= MAX_ROOTS:
            count = f"{total:.0f} roots" if np.isfinite(total) else "no finite root count"
            raise NumericalError(
                f"window ({lo:.6g}, {hi:.6g}] holds {count} for boundary condition {k}, "
                f"against a cap of {MAX_ROOTS} roots; split it into smaller windows"
            )

    n = counts.astype(int).ravel()
    row = np.repeat(np.arange(n.size), n)  # flat (U, track) index per bracket
    step = np.arange(row.size) - np.repeat(np.cumsum(n) - n, n)
    target = TAU * (first.ravel()[row] + step)
    owner, track = np.divmod(row, 2)
    consts = np.vstack([chart[owner].T, _SIGNS[track], target])
    t_lo, t_hi = ends[:, 0].ravel()[row], ends[:, 1].ravel()[row]
    located, xl, xr, evals = _refine(
        kernel, consts, np.full(row.size, lo), np.full(row.size, top),
        t_lo - target, t_hi - target, tol_root, tol_residual,
    )
    located = _snap_to_special_points(located, xl, xr, kernel.special_points())
    evaluated = 2 + np.bincount(owner, weights=evals, minlength=len(us))
    return collect_spectra(us, located, owner, (lo, hi), tol_root, kernel, tol_residual, evaluated)


def find_spectrum(
    u: UnitaryBC,
    window: tuple[float, float],
    kernel,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_residual: float = DEFAULT_TOL_RESIDUAL,
) -> SpectrumSlice:
    """All zeros of F_U in the half-open window (lo, hi]; see find_spectra."""
    return find_spectra([u], window, kernel, tol_root, tol_residual)[0]
