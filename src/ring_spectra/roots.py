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
Both tracks never increase with energy (the Herglotz/Krein monotonicity
of the eigenphases), so the multiples of 2 pi a track passes between the
window ends are exactly its crossings: the tracks at the two ends alone
certify the root count.  The one kernel call that reads the ends samples
the tracks at S + 1 evenly spaced energies, S = max(64, 256 // (number
of U)), so one U starts from narrow brackets and a batch's call does not
grow, and at the kernel's turning points.  Where the samples show that
every track drops little over every sample interval and the tracks bend
(:func:`_start_pays`), one more call evaluates a Chebyshev stencil in
each sample interval.  Neither the samples, the stencil nor the polar
form there depend on U, so that stage is kept for the last kernel,
window and S searched, and a search that repeats them, with any U, pays
only for its own tracks (:func:`_sample_stage`).  Each crossing starts
in the sample interval it lies in; where there is a stencil, a start
stage closes most brackets in one kernel call, by inverse interpolation
through it (:func:`_start`).  Every bracket is then refined on its own
track by a two-point step that keeps it between its ends, down to
adjacent doubles at most; the step's state is built only where the stop
test leaves a bracket open (:func:`_refine`), so a search whose
brackets the start stage closed refines nothing.  The turning points
are where the tracks turn steeply: where |u| / v can exceed 1 the
tracks are staircases that take almost all of a level's 2 pi near each
zero of u, and the kernel names those spots, with the points on either
side where |u| / v is 1 and 3, so no refinement round is spent finding
the step.  |w| comes straight from
(u, v), so the phases stay accurate to machine precision through
degeneracies and double roots are located as sharply as simple ones.
Two crossings closer than the separation tolerance merge into one root
of multiplicity 2, the maximum for 2x2 unitaries; a larger cluster
raises, since it would mean the dimension count failed.

A kernel is anything with ``theory``, ``turning_points(lo, hi,
limit)``, ``polar(x) -> (h, u, v)`` and ``spectral_values(x, u)``; the
search calls nothing else, and never builds a 2x2 matrix per point.
``turning_points`` returns energies strictly inside (lo, hi), sorted
and distinct, that do not depend on U (none where the tracks do not
turn steeply, or past ``limit`` spots).  ``turning_points`` and
``polar`` must be pure functions of their arguments for the kernel's
lifetime: a search may be served samples and a polar form computed for
the same kernel object earlier.  The kernels here are immutable values
(``mu0`` and ``rep`` are read-only).  The kernels evaluate every
energy as itself, up to and on the zero-wavenumber points, so a root
there is found, counted and placed like any other.

(h, u, v) do not depend on U, so the one search, :func:`find_spectra`,
runs a batch of boundary conditions on one kernel call per refinement
round, and verifies the roots of every U in one more;
:func:`find_spectrum` is that search for a single U.  Memory grows with
the number of roots, not with the window, plus the one sample stage
kept: (S + 1 + turning points) x 4 doubles, a few KB for windows with
few turning points and at most ~21 MB at MAX_ROOTS turning spots of 5
points each, and where the start stage pays, (_STENCIL - 1) x (sample
intervals) x 4 doubles for its stencil, ~57 KB at S = 256 and at most
~0.2 MB (README).  U that share one invariant triple (a conjugation
orbit) share one spectrum, so once one of them is searched,
:func:`_certify` checks its roots for the others on their own tracks in
one kernel call, with each U's own residuals from one more.  The
reference grid search it replaced, and the complex eigenphase route it
used, live on as oracles (:mod:`ring_spectra.oracles`).

Everything here is pure-function over value inputs but the sample stage
kept, which is replaced whole; concurrent searches on shared kernels are
safe.  :func:`find_spectra` and :func:`_certify` each enter one
``np.errstate`` for all their stages, which enter none of their own:
tracks read NaN or inf where a kernel overflows (the count refuses
them), and no ``RuntimeWarning`` reaches a caller.  A
:class:`SpectrumSlice` holds its roots as read-only arrays and builds
its ``roots`` records on first access; threads that race on that access
build equal tuples.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Sequence
from dataclasses import FrozenInstanceError
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .bc import InvariantTriple, UnitaryBC, invariant_triple
from .matalg import TAU

#: roots closer than SEPARATION_FACTOR * max(1, |x|) merge (multiplicity 2)
SEPARATION_FACTOR = 1e-8
DEFAULT_TOL_ROOT = 1e-12
DEFAULT_TOL_RESIDUAL = 1e-9
#: a window holding more roots for one U is refused before anything is allocated
MAX_ROOTS = 2**17

_MAX_ROUNDS = 200
#: sample intervals of the ends call per U, at least _SAMPLES and
#: _BATCH_SAMPLES over the batch: more samples save refinement rounds but
#: add points to the ends call, where every U is evaluated at every sample
_SAMPLES, _BATCH_SAMPLES = 64, 256
#: the start stage (:func:`_start`): the Chebyshev-Lobatto intervals of its
#: stencil, where its interior nodes lie in a sample interval (the sample
#: stage evaluates them), and its selection (:func:`_start_pays`)
_STENCIL = 8
_NODES = 0.5 - 0.5 * np.cos(np.pi * np.arange(1, _STENCIL) / _STENCIL)
_EYE = np.eye(_STENCIL + 1)
_STENCIL_DROP, _STENCIL_BEND = 0.4, 1e-2


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


class SpectrumSlice:
    """Sorted eigenvalues with multiplicities inside one energy window.

    The roots are held as three read-only columns: ``x`` (float),
    ``multiplicity`` (int) and ``residual`` (|F| at the root, float).
    ``roots`` builds the matching tuple of :class:`Root` records, with
    Python floats and ints, on first access and keeps it; a search
    builds none.  The constructor takes such records (any tuples of the
    four fields; the method is not kept, since every root here is found
    by eigenphase counting), as ``SpectrumSlice(window, roots,
    grid_points, theory)``.  A slice is immutable and hashable, and two
    slices are equal when their window, columns, ``grid_points`` and
    theory are.

    ``grid_points`` is the number of energies the search evaluated for
    this U: the samples across the window (S + 1 evenly spaced energies,
    S = max(64, 256 // the number of U searched together), merged with
    the kernel's turning points; they count also when an earlier search
    on the same kernel, window and S evaluated them and this one was
    served them) plus, per bracket, the start stage's points where it
    ran (the stencil's _STENCIL - 1 nodes, counted as the samples are,
    and the pair's 2) and every refinement step (the grid size, for the
    grid oracle; 2 + 2N, the window ends and the ends of its N brackets,
    for a slice certified from another U's roots).
    """

    window: tuple[float, float]
    x: np.ndarray
    multiplicity: np.ndarray
    residual: np.ndarray
    grid_points: int
    theory: str

    _FIELDS = ("window", "x", "multiplicity", "residual", "grid_points", "theory")

    def __init__(self, window, roots, grid_points, theory):
        roots = tuple(roots)
        columns = [np.array([r[i] for r in roots], dtype=t) for i, t in enumerate((float, int, float))]
        for column in columns:
            column.flags.writeable = False
        vars(self).update(zip(self._FIELDS, (window, *columns, grid_points, theory)))

    @classmethod
    def _from_columns(cls, *fields):
        """A slice over the given fields, in ``_FIELDS`` order; the
        columns are taken as they are, so they must be read-only."""
        s = cls.__new__(cls)
        vars(s).update(zip(cls._FIELDS, fields))
        return s

    @cached_property
    def roots(self) -> tuple[Root, ...]:
        return tuple(map(Root._make, zip(
            self.x.tolist(), self.multiplicity.tolist(), self.residual.tolist(),
            repeat("eigenphase-count"),
        )))

    def __setattr__(self, name, *_):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # every field compares as an array: the columns, and the rest as 0-d or 1-d arrays
        return all(np.array_equal(vars(self)[f], vars(other)[f]) for f in self._FIELDS)

    def __hash__(self):
        return hash((self.window, self.grid_points, self.theory, *self.x.tolist()))

    def __repr__(self):
        return (f"SpectrumSlice(window={self.window!r}, roots={self.roots!r}, "
                f"grid_points={self.grid_points!r}, theory={self.theory!r})")

    def values(self) -> np.ndarray:
        return self.x.copy()

    def expanded(self) -> np.ndarray:
        """Root values repeated according to multiplicity."""
        return np.repeat(self.x, self.multiplicity)


def _validate(window, tol_root, tol_residual) -> tuple[float, float]:
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError("window must be finite")
    if not (0 < tol_root < np.inf and 0 < tol_residual < np.inf):
        raise ValueError("tolerances must be positive and finite")
    return lo, hi


def _top_end(hi: float, tol_root: float) -> float:
    """Where the tracks are read for the window's top end: hi padded by
    the root tolerance, since a zero sitting exactly at hi (up to fp
    fuzz) belongs to the half-open window and must be counted."""
    return hi + tol_root * max(1.0, abs(hi))


#: the sign of the spread on track t_+ and on track t_-
_SIGNS = np.array([1.0, -1.0])


def _charts(us: Sequence[UnitaryBC]) -> np.ndarray:
    """One row (eta, m0, m1, m_perp^2) per U: all of U a track sees."""
    return np.array(
        [(u.eta, u.m0, u.m[0], u.m[1] ** 2 + u.m[2] ** 2) for u in us], dtype=float
    ).reshape(-1, 4)


def _spread(u, v, m0, m1, mperp2):
    """atan2(|w|, w0), the spread of both tracks about h - eta, from the
    kernel's (u, v) and U's (m0, m1, m_perp^2) (module docstring).  All
    arguments broadcast."""
    w0 = u * m0 - v * m1
    q = v * m0 + u * m1
    return np.arctan2(np.sqrt(q * q + mperp2 * (u * u + v * v)), w0)


def _tracks(h, u, v, eta, m0, m1, mperp2, sign):
    """The eigenphase track h - eta + sign atan2(|w|, w0) of W = B U^H
    from the kernel's polar form (h, u, v) and U's (eta, m0, m1,
    m_perp^2) (module docstring): t_+ for sign = +1, t_- for sign = -1.
    All arguments broadcast.  atan2 is odd in its first argument, so
    sign * atan2(|w|, w0) is atan2(sign |w|, w0) bit for bit, signed
    zeros and w0 < 0 included."""
    # the rounding order of oracles.eigenphases
    return h + sign * _spread(u, v, m0, m1, mperp2) - eta


def _open(xl, xr, gl, gr, tol_root, phase_tol):
    """:func:`_refine`'s stop test: which brackets stay open, with their
    width, rounded midpoint and width tolerance."""
    width = xr - xl
    mid = xl + 0.5 * width
    g_best = np.where(gl + gr >= 0.0, gr, gl)  # the better end's value
    tol_x = tol_root * np.maximum(1.0, np.abs(mid))
    active = (
        (g_best != 0.0)
        & (xl < mid) & (mid < xr)  # a double lies strictly between the ends
        & ((width > tol_x) | (np.abs(g_best) > phase_tol))
    )
    return active, width, mid, tol_x


def _refine(kernel, consts, xl, xr, gl, gr, tol_root, tol_residual):
    """A two-point bracketing step on all track crossings at once.

    Per bracket: [xl, xr] with g = t - target straddling zero, gl > 0 >=
    gr (tracks never increase), on the track whose :func:`_tracks`
    arguments (eta, m0, m1, m_perp^2, sign) and target make its column
    of ``consts``.  Each round makes one ``polar`` call at one point per
    active bracket and evaluates each bracket's own track alone; the new
    point replaces the end of its own sign, so the ends always straddle
    the crossing.  The step is Anderson-Bjorck false position: the
    secant through the two ends, with the value at an end kept twice in
    a row scaled down by 1 - g(new) / g(replaced) (by 1/2 if that is not
    positive).  Every point lies at least a quarter of the width the
    stop rule asks for inside both ends, or at the midpoint where that
    would leave the open bracket.  Superlinear on smooth tracks; at the
    kinks where two tracks touch (double roots) the scaling pulls the
    next point toward an end kept twice, so neither end sticks.

    Brackets stay active until the width tolerance holds *and* the
    better end's phase is small enough that |F| ~ |phase| clears the
    residual contract, or until the rounded midpoint xl + (xr - xl) / 2
    is no longer strictly between the ends: exactly when no double lies
    between them (:func:`_open`, the test at the top of every round).
    Where it closes every bracket before the first round, as after a
    start stage that closed them all, nothing more is built: no ``polar``
    call is made and every count is 0.  Otherwise the step's state is
    built for the brackets, and a bracket that retires has its final
    ends, their values and its evaluation count (the round it retired
    in) written out: in that round while others stay active (the state
    keeps the active rows alone), else once after the loop, as is what
    is still active after _MAX_ROUNDS rounds.  Returns (the better end,
    which the stop rule certified, lower end, upper end, evaluations per
    bracket).  The caller enters ``np.errstate``: a secant through equal
    values divides by zero, and the midpoint then takes its place.
    """
    xl, xr, gl, gr = (np.array(a, dtype=float) for a in (xl, xr, gl, gr))
    n = xl.size
    phase_tol = 0.125 * tol_residual
    test = _open(xl, xr, gl, gr, tol_root, phase_tol)
    evals = np.zeros(n, dtype=int)
    if test[0].any():
        ends = np.empty((4, n))  # the final xl, xr, gl, gr of each bracket
        evals = np.full(n, _MAX_ROUNDS)
        live = np.arange(n)  # the bracket of each row of the state
        fl, fr = gl.copy(), gr.copy()  # the end values the secant is drawn through
        # whether the last step replaced the left end; the better end (gl + gr
        # >= 0, i.e. |gr| <= |gl|) counts as replaced before the first
        d = gl + gr < 0.0
        *track, goal = consts
        for r in range(_MAX_ROUNDS):
            active, width, mid, tol_x = test
            kept = np.count_nonzero(active)
            if not kept:
                evals[live] = r
                break
            if kept < live.size:
                done = ~active
                k = live[done]
                ends[:, k] = xl[done], xr[done], gl[done], gr[done]
                evals[k] = r
                live, xl, xr, gl, gr, fl, fr, d, width, mid, tol_x = (
                    arr[active] for arr in (live, xl, xr, gl, gr, fl, fr, d, width, mid, tol_x)
                )
                consts = consts[:, active]
                *track, goal = consts
            # a quarter of the width that meets both the width tolerance
            # and, at the secant slope, the phase tolerance
            tol1 = 0.25 * np.fmin(tol_x, phase_tol * width / (gl - gr))
            x = xl + width * (fl / (fl - fr))
            x = np.minimum(np.maximum(x, xl + tol1), xr - tol1)
            x = np.where((xl < x) & (x < xr), x, mid)
            g = _tracks(*kernel.polar(x), *track) - goal
            left = g > 0.0
            # the end kept twice in a row: Anderson-Bjorck scaling of its value
            m = 1.0 - g / np.where(left, gl, gr)
            m = np.where(d == left, np.where(m > 0.0, m, 0.5), 1.0)
            d = left
            xl, gl, fl = np.where(left, x, xl), np.where(left, g, gl), np.where(left, g, fl * m)
            xr, gr, fr = np.where(left, xr, x), np.where(left, gr, g), np.where(left, fr * m, g)
            test = _open(xl, xr, gl, gr, tol_root, phase_tol)
        ends[:, live] = xl, xr, gl, gr
        xl, xr, gl, gr = ends
    located = np.where(gl + gr >= 0.0, xr, xl)
    lower = np.where(gr == 0.0, xr, xl)
    return located, lower, xr, evals


def _start(kernel, consts, stencil, interval, xl, xr, gl, gr, tol_root, tol_residual):
    """Tighter brackets for :func:`_refine`, from at most one kernel call.

    Takes the brackets as :func:`_refine` does, each the sample interval
    ``interval`` of the sample stage, and that stage's ``stencil`` (its
    nodes in every sample interval and the polar form there).  Of a
    bracket's ends and nodes, in order, the first point after the left
    end with g <= 0 and the one before it are the tightest pair that
    straddles the crossing, and the barycentric inverse interpolant x(g)
    through all of them estimates the crossing at x(0): inside a sample
    interval the tracks are analytic, so where they bend slowly the
    estimate is all but exact.  A pair with an end on an exact zero stops
    there, as :func:`_refine`'s stop rule does, and if every pair
    stopped, so does the stage.  Otherwise one ``polar`` call evaluates
    est -+ tol1 (``_refine``'s tol1 for the pair, the estimate clamped
    into it; a stopped pair is read at its own ends, so it keeps them): a
    crossing between the two points closes the bracket to half the width
    tolerance, else the nearer point replaces its end.  Returns the
    brackets (xl, xr, gl, gr), which straddle or keep an end on an exact
    zero, and the energies evaluated per bracket, served nodes included.
    """
    n = xl.size
    nodes, h, u, v = (part[interval] for part in stencil)
    xs, gs = np.empty((2, n, _STENCIL + 1))
    xs[:, 0], xs[:, 1:-1], xs[:, -1] = xl, nodes, xr
    gs[:, 0], gs[:, -1] = gl, gr
    gs[:, 1:-1] = _tracks(h, u, v, *consts[:-1, :, None]) - consts[-1, :, None]
    # the barycentric weights 1 / prod_k (G_j - G_k) of the inverse
    # interpolant, [bracket, node], over G_j, summed at g = 0
    c = 1.0 / ((gs[:, :, None] - gs[:, None, :] + _EYE).prod(axis=2) * gs)
    est = (c * xs).sum(axis=1) / c.sum(axis=1)
    j = (_STENCIL + 1) * np.arange(n) + np.argmax(gs[:, 1:] <= 0.0, axis=1)
    xs, gs = xs.ravel(), gs.ravel()
    xl, xr, gl, gr = xs[j], xs[j + 1], gs[j], gs[j + 1]
    stopped = (gl == 0.0) | (gr == 0.0)
    if stopped.all():
        return xl, xr, gl, gr, _STENCIL - 1
    width = xr - xl
    tol_x = tol_root * np.maximum(1.0, np.abs(xl + 0.5 * width))
    tol1 = 0.25 * np.fmin(tol_x, 0.125 * tol_residual * width / (gl - gr))
    tol1[stopped] = np.inf  # a stopped pair is read at its own ends again
    est = np.fmin(np.fmax(est, xl), xr)  # a NaN estimate goes to xl
    p1, p2 = np.maximum(est - tol1, xl), np.minimum(est + tol1, xr)
    h, u, v = (p.reshape(2, n) for p in kernel.polar(np.concatenate([p1, p2])))
    g1, g2 = _tracks(h, u, v, *consts[:-1]) - consts[-1]
    # the crossing lies left of p1, between p1 and p2, or right of p2
    left, mid = g1 <= 0.0, g2 <= 0.0
    return (
        np.where(left, xl, np.where(mid, p1, p2)), np.where(left, p1, np.where(mid, p2, xr)),
        np.where(left, gl, np.where(mid, g1, g2)), np.where(left, g1, np.where(mid, g2, gr)),
        _STENCIL + 1,
    )


def collect_spectra(us, located, owner, window, tol_root, kernel, tol_residual, evaluated):
    """Cluster the located crossings of every U into roots (multiplicity
    at most 2), keep those in the half-open window, verify all of them
    against |F_U| < tol_residual in one kernel call, and wrap each U's
    roots in a slice reporting ``evaluated[k]`` energies.  Only if a root
    fails, one more call per U with failing roots, in order, evaluates
    their 1- and 2-ulp neighbours in the window, and each root takes its
    neighbour of least |F| where that is smaller, up to the first U with
    a root that still fails.  The roots of all U are made read-only
    columns once, and each slice holds views of its own run of them.

    ``owner[j]`` is the index in ``us`` of crossing j.  A root is only
    located to tol_root * max(1, |x|), so one that close to an end
    counts as sitting on it: within that distance above lo it is left
    out, within it above hi it is reported at hi, so adjacent windows
    split the roots between them exactly.  A failure raises
    :class:`NumericalError` for the first U that has one, as a search of
    that U alone would raise it."""
    lo, hi = window
    pad_lo, pad = (tol_root * max(1.0, abs(v)) for v in window)
    order = np.lexsort((located, owner))
    found, owner = located[order], owner[order]
    # a cluster starts at each U's first crossing and wherever neighbours
    # lie apart; edge[j] marks crossing j as a start, edge[-1] is the end
    edge = np.empty(found.size + 1, dtype=bool)
    edge[1:-1] = found[1:] - found[:-1] > SEPARATION_FACTOR * np.maximum(1.0, np.abs(found[:-1]))
    per_u = np.arange(len(us) + 1)
    edge[owner.searchsorted(per_u)] = True
    edges = np.flatnonzero(edge)
    starts, sizes = edges[:-1], edges[1:] - edges[:-1]
    xs = np.add.reduceat(found, starts) / sizes if found.size else found
    xs = np.where((xs > hi) & (xs - hi <= pad), hi, xs)
    inside = (xs > lo + pad_lo) & (xs <= hi)
    xs, mults, ks = xs[inside], sizes[inside], owner[starts][inside]
    bounds = ks.searchsorted(per_u).tolist()  # each U's run of roots
    triple = invariant_triple(np.array([u.matrix for u in us], dtype=complex).reshape(-1, 2, 2))

    def residuals_at(x, k):
        triples = InvariantTriple(triple.det_u[k], triple.tr_u[k], triple.tr_u_sx[k])
        return np.abs(kernel.spectral_values(x, triples))

    residuals = residuals_at(xs, ks)
    bad = np.flatnonzero(residuals > tol_residual)
    # a double next to a failing root may pass where the root does not:
    # try the 1- and 2-ulp neighbours in the window of each U's failing
    # roots and keep the best, U by U, up to the first U that still fails
    for run in np.split(bad, np.flatnonzero(np.diff(ks[bad])) + 1) if bad.size else ():
        down, up = np.nextafter(xs[run], -np.inf), np.nextafter(xs[run], np.inf)
        near = np.stack([down, up, np.nextafter(down, -np.inf), np.nextafter(up, np.inf)])
        f = residuals_at(near.ravel(), np.tile(ks[run], 4)).reshape(near.shape)
        f[(near <= lo + pad_lo) | (near > hi)] = np.inf
        best = np.argmin(f, axis=0)
        x_best, f_best = (a[best, np.arange(run.size)] for a in (near, f))
        better = f_best < residuals[run]
        xs[run] = np.where(better, x_best, xs[run])
        residuals[run] = np.where(better, f_best, residuals[run])
        if np.any(residuals[run] > tol_residual):
            break
    bad = bad[residuals[bad] > tol_residual]

    big = np.flatnonzero(sizes > 2)
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
            f"|F| = {residuals[j]:.3e} > {tol_residual:.1e}, the least over it and its "
            f"1- and 2-ulp neighbours; no double within 2 ulps of it meets the tolerance, "
            f"so at this tolerance the root lies beyond double precision in this energy "
            f"variable; use a larger tol_residual (--tol-residual)"
        )
    for column in (xs, mults, residuals):
        column.flags.writeable = False
    return [
        SpectrumSlice._from_columns(
            (lo, hi), xs[start:end], mults[start:end], residuals[start:end],
            int(evaluated[k]), kernel.theory,
        )
        for k, (start, end) in enumerate(zip(bounds, bounds[1:]))
    ]


#: the last sample stage served: (kernel, (lo, top, count) as bits, stage)
_last_stage = (None, None, None)


def _start_pays(h, u, v) -> bool:
    """Whether :func:`_start` pays on samples with the polar form (h, u,
    v), for every U at once.  Over a sample interval a track drops by at
    most |dh| + |d phi|, phi = atan2(v, u) the angle of B's SU(2) part
    (the distance between two rotations bounds the change of the angle
    of their products with U's), so the stencil resolves every track where
    that is at most _STENCIL_DROP.  And where h is a straight line and phi
    does not turn (as for a massless particle), so are the tracks, and
    false position alone is all but exact: the stage pays where |d^2 h| +
    |d phi| reaches _STENCIL_BEND of the largest |dh|."""
    dh, dphi = np.abs(np.diff(h)), np.abs(np.diff(np.arctan2(v, u)))
    drop = (dh + dphi).max(initial=0.0)
    bend = np.abs(np.diff(h, 2)).max(initial=0.0) + dphi.max(initial=0.0)
    return bool(drop <= _STENCIL_DROP and bend >= _STENCIL_BEND * dh.max(initial=0.0))


def _sample_stage(kernel, lo, top, count):
    """The U-independent part of a search: ``count`` + 1 evenly spaced
    energies from lo to top, merged with the kernel's turning points in
    (lo, top), and the kernel's polar form there (one ``polar`` call), as
    read-only arrays (xs, h, u, v), and the start stage's stencil where
    it pays on them (:func:`_start_pays`), else None: the _STENCIL - 1
    interior Chebyshev-Lobatto nodes of every sample interval and the
    polar form there (one more call), as read-only [interval, node]
    arrays (nodes, h, u, v).

    The last stage is kept, with its kernel, and served again for the
    same kernel object, lo, top and count (as bits, so -0.0 is not 0.0):
    a kernel's ``turning_points`` and ``polar`` are pure functions of
    their arguments, so the stage is what a new call would compute.  The
    slot holds the kernel itself, so no other object can take its
    identity, and is replaced by one assignment, so threads that race on
    it may each compute a stage but never read half of one.
    """
    global _last_stage
    key = struct.pack("ddq", lo, top, count)
    held, held_key, stage = _last_stage
    if held is kernel and held_key == key:
        return stage
    xs = np.linspace(lo, top, count + 1)  # ends exactly lo and top
    # by keyword: the call evaluates no energy, and proxies that count
    # evaluations by the size of the first argument must not count it
    turns = kernel.turning_points(lo=lo, hi=top, limit=MAX_ROOTS)
    if turns.size:
        xs = np.sort(np.concatenate([xs, turns]))
        xs = xs[np.append(True, xs[1:] != xs[:-1])]
    polar, stencil = kernel.polar(xs), None
    if _start_pays(*polar):
        nodes = xs[:-1, None] + np.diff(xs)[:, None] * _NODES
        stencil = (nodes, *(p.reshape(nodes.shape) for p in kernel.polar(nodes.ravel())))
    for part in (xs, *polar, *(stencil or ())):
        part.flags.writeable = False
    stage = (xs, *polar, stencil)
    _last_stage = (kernel, key, stage)
    return stage


def _levels(polar, chart):
    """The tracks of every U from the kernel's polar form (h, u, v) at
    sorted energies, their levels and the crossings between neighbouring
    energies, as (tracks, level, counts), each indexed [U, energy,
    track].

    The multiples 2 pi n with t(x_j+1) <= 2 pi n < t(x_j) are a track's
    crossings in (x_j, x_j+1], counts[:, j].  The levels ceil(t / 2 pi)
    are taken as their running minimum, held at the last energy's level,
    which keeps every count nonnegative and their sum the certificate of
    the two ends.  Both tracks share one arctan per U and energy: they
    are :func:`_tracks` at sign +1 and -1 bit for bit.
    """
    h, u, v = (part[:, None] for part in polar)
    eta, m0, m1, mperp2 = chart.T[:, :, None, None]
    tracks = h + _SIGNS * _spread(u, v, m0, m1, mperp2) - eta
    level = np.ceil(tracks / TAU)
    level = np.maximum(np.minimum.accumulate(level, axis=1), level[:, -1:])
    return tracks, level, level[:, :-1] - level[:, 1:]


def _certify(s, us, kernel, tol_root, tol_residual) -> list[SpectrumSlice | None]:
    """The spectrum of each U in ``us`` on the window of ``s``, certified
    from the roots of ``s`` (found for a U of the same invariant triple)
    instead of searched for, or None where that fails.

    One ``polar`` call reads the tracks of every U (once per distinct
    :func:`_charts` row) at lo, at x_i -+ w_i/2 around each root x_i of
    ``s`` (w_i = tol_root * max(1, |x_i|), clamped into the window) and
    at the window's top end.  A U is certified when its own count over
    (lo, top] is the sum of the multiplicities m_i, its two tracks cross
    m_i times in total inside each bracket, and neither track crosses
    there more than once.  Its roots are then those of ``s``: each x_i
    is the centre of a bracket of a search's width that its own tracks
    certified, and m_i is its own crossing count.  Only the residuals are
    its own, from one ``spectral_values`` call for every certified U.  A
    certified slice reports the 2 + 2N energies of the call (N roots); a
    U that is not certified, or has a root over tol_residual, gets None.
    """
    if not us:
        return []
    lo, hi = s.window
    top = _top_end(hi, tol_root)
    w = 0.5 * tol_root * np.maximum(1.0, np.abs(s.x))
    xl, xr = np.maximum(s.x - w, lo), np.minimum(s.x + w, top)
    xs = np.concatenate([[lo], np.column_stack([xl, xr]).ravel(), [top]])
    out = [None] * len(us)
    if not np.all(xs[:-1] <= xs[1:]):  # brackets that overlap count nothing
        return out
    # U with equal chart rows have equal tracks, and an orbit has only a
    # few rows (told apart by the rounding of m_perp^2): each is read once
    rows = {}
    row_of = [rows.setdefault(row, len(rows)) for row in map(tuple, _charts(us).tolist())]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tracks, level, counts = _levels(kernel.polar(xs), np.array(list(rows)))
        inside = counts[:, 1::2]  # [row, root, track]
        target = TAU * level[:, 2:-1:2]
        gl, gr = tracks[:, 1:-1:2] - target, tracks[:, 2:-1:2] - target
        certified = (
            (counts.sum(axis=(1, 2)) == s.multiplicity.sum())
            & np.all(inside[..., 0] + inside[..., 1] == s.multiplicity, axis=1)
            & np.all((inside == 0) | ((inside == 1) & (gl > 0.0) & (gr <= 0.0)), axis=(1, 2))
        )
        kept = np.flatnonzero(certified[row_of])
        if not kept.size:
            return out
        per_u = invariant_triple(np.array([us[k].matrix for k in kept], dtype=complex))
        triples = InvariantTriple(per_u.det_u[:, None], per_u.tr_u[:, None], per_u.tr_u_sx[:, None])
        residuals = np.abs(kernel.spectral_values(s.x, triples))  # [U, root]
        residuals.flags.writeable = False
        passed = (residuals <= tol_residual).all(axis=1).tolist()
        for k, residual, ok in zip(kept, residuals, passed):
            if ok:
                out[k] = SpectrumSlice._from_columns(
                    s.window, s.x, s.multiplicity, residual, xs.size, kernel.theory
                )
        return out


def find_spectra(
    us: Iterable[UnitaryBC],
    window: tuple[float, float],
    kernel,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_residual: float = DEFAULT_TOL_RESIDUAL,
) -> list[SpectrumSlice]:
    """All zeros of F_U in the half-open window (lo, hi], for each U.

    The tracks of every U are evaluated at S + 1 evenly spaced energies
    from lo to the top end, S = max(64, 256 // len(us)), merged with the
    kernel's turning points (one kernel call, which the next search on
    the same kernel object, lo, top end and S does not repeat:
    :func:`_sample_stage`); since they never increase, the multiples of
    2 pi they cross between the two ends are the exact root count, and
    each crossing becomes its own bracket over the one sample interval
    it lies in.  The count per interval is read
    off the running minimum of the tracks, so it is never negative and
    the counts add up to the certificate of the two ends.  A U whose
    count exceeds MAX_ROOTS, or is not finite, is refused before any
    bracket is allocated; a window with more than MAX_ROOTS spots to
    turn at gets no turning points, so none is built for it either.
    Where the samples show that it pays (:func:`_start_pays`, the same for
    every U), the sample stage holds a stencil in every sample interval
    too, and the start stage tightens every bracket from it in one more
    kernel call (:func:`_start`).  The brackets of all U are then refined
    together (:func:`_refine`) to |dx| < tol_root * max(1, |x|), or to
    adjacent doubles.  Per U, crossings
    closer than the separation tolerance merge into a multiplicity-2
    root, and the roots of every U are verified against |F_U| <
    tol_residual in one kernel call.  Slices follow ``us``, which may be
    any iterable.
    """
    us = list(us)
    lo, hi = _validate(window, tol_root, tol_residual)
    if not us:
        return []
    top = _top_end(hi, tol_root)
    chart = _charts(us)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        intervals = max(_SAMPLES, _BATCH_SAMPLES // len(us))
        xs, *polar, stencil = _sample_stage(kernel, lo, top, intervals)
        tracks, level, counts = _levels(polar, chart)
        for k, total in enumerate(counts.sum(axis=(1, 2))):
            if not total <= MAX_ROOTS:
                count = f"{total:.0f} roots" if np.isfinite(total) else "no finite root count"
                raise NumericalError(
                    f"window ({lo:.6g}, {hi:.6g}] holds {count} for boundary condition {k}, "
                    f"against a cap of {MAX_ROOTS} roots; split it into smaller windows"
                )

        n = counts.astype(int).ravel()
        row = np.repeat(np.arange(n.size), n)  # flat (U, interval, track) index per bracket
        step = np.arange(row.size) - (np.cumsum(n) - n)[row]
        owner, interval, track = np.unravel_index(row, counts.shape)
        left = row + 2 * owner  # flat index of each bracket's left end in tracks
        target = TAU * (level.ravel()[left + 2] + step)
        gl, gr = (tracks.ravel()[left + end] - target for end in (0, 2))
        # the track arrays grow with the turning points: free them before refining
        del tracks, level, counts, n, row, step, left
        consts = np.concatenate((chart.T[:, owner], [_SIGNS[track], target]))
        xl, xr, spent, tols = xs[interval], xs[interval + 1], 0, (tol_root, tol_residual)
        if stencil is not None and owner.size:
            xl, xr, gl, gr, spent = _start(kernel, consts, stencil, interval, xl, xr, gl, gr, *tols)
        located, _, _, evals = _refine(kernel, consts, xl, xr, gl, gr, *tols)
        evaluated = xs.size + np.bincount(owner, weights=evals + spent, minlength=len(us))
        return collect_spectra(
            us, located, owner, (lo, hi), tol_root, kernel, tol_residual, evaluated
        )


def find_spectrum(
    u: UnitaryBC,
    window: tuple[float, float],
    kernel,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_residual: float = DEFAULT_TOL_RESIDUAL,
) -> SpectrumSlice:
    """All zeros of F_U in the half-open window (lo, hi]; see find_spectra."""
    return find_spectra([u], window, kernel, tol_root, tol_residual)[0]
