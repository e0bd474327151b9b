"""Isospectrality services.

Every boundary condition U is either parity symmetric (it commutes with
sx, sits in the two-parameter family, and is uniquely tied to its
spectrum) or it generates a U(1) orbit of distinct matrices that all
sound identical.  This module classifies a U, sweeps its orbit (one
search, whose roots are then certified for every member), and compares
spectra.  Distinguishability of parity-symmetric conditions is
only ever checked on finite windows, and results are reported with the
window that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bc import InvariantTriple, UnitaryBC, conjugate_orbit, invariant_triple, is_parity_symmetric
# find_spectrum stays importable from here: perfbench's traced run rebinds
# iso.find_spectrum around its measured loop
from .roots import (  # noqa: F401
    DEFAULT_TOL_RESIDUAL,
    DEFAULT_TOL_ROOT,
    SpectrumSlice,
    _certify,
    find_spectra,
    find_spectrum,
)

#: classify() samples the orbit at lambda = k pi / 16, k = 1..15: one
#: period (pi) without U itself, at lambda = 0, as ``orbit --lambdas 16``
ORBIT_LAMBDAS = tuple(k * np.pi / 16.0 for k in range(1, 16))


@dataclass(frozen=True)
class IsoClassification:
    """Where a boundary condition sits in the isospectrality structure."""

    parity_symmetric: bool
    orbit_samples: tuple[UnitaryBC, ...]
    invariant_triple: InvariantTriple
    canonical_tag: tuple[float, ...]


def _tag(triple: InvariantTriple) -> tuple[float, ...]:
    vals = (triple.det_u, triple.tr_u, triple.tr_u_sx)
    return tuple(round(part, 10) for z in vals for part in (z.real, z.imag))


def classify(u: UnitaryBC) -> IsoClassification:
    """Parity flag, orbit samples and the invariant fingerprint of U."""
    triple = invariant_triple(u)
    return IsoClassification(
        parity_symmetric=is_parity_symmetric(u),
        orbit_samples=tuple(conjugate_orbit(u, lam) for lam in ORBIT_LAMBDAS),
        invariant_triple=triple,
        canonical_tag=_tag(triple),
    )


@dataclass(frozen=True)
class SpectrumComparison:
    equal: bool
    max_pairwise_gap: float


def compare_spectra(s1: SpectrumSlice, s2: SpectrumSlice, tol: float) -> SpectrumComparison:
    """Element-by-element comparison of two spectra over the same
    window: each spectrum's roots, sorted, with a multiplicity-2 root
    listed twice, and the k-th of one against the k-th of the other.

    Equal means identical counts and every pair closer than ``tol``.
    """
    if s1.window != s2.window or s1.theory != s2.theory:
        raise ValueError("spectra must share window and theory to be compared")
    v1 = s1.expanded()
    v2 = s2.expanded()
    if len(v1) != len(v2):
        return SpectrumComparison(equal=False, max_pairwise_gap=float("inf"))
    if len(v1) == 0:
        return SpectrumComparison(equal=True, max_pairwise_gap=0.0)
    gap = float(np.max(np.abs(v1 - v2)))
    return SpectrumComparison(equal=bool(gap < tol), max_pairwise_gap=gap)


def orbit_spectra(
    u: UnitaryBC,
    window: tuple[float, float],
    kernel,
    n_lambda: int = 16,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_residual: float = DEFAULT_TOL_RESIDUAL,
) -> list[tuple[float, UnitaryBC, SpectrumSlice]]:
    """Spectra across the conjugation orbit, lambda = k pi / n_lambda.

    The orbit has period pi, and all its members share one invariant
    triple, hence one spectrum.  Each member is
    :func:`~ring_spectra.bc.conjugate_orbit` of U at its lambda.  The
    lambda = 0 member is searched
    (:func:`~ring_spectra.roots.find_spectra`) and keeps its search's
    slice, and every other member is certified from its roots on its
    own tracks (:func:`~ring_spectra.roots._certify`): its own count over
    the window, each crossing bracketed to tol_root * max(1, |x|) by its
    own tracks, and its own residual checked.  A certified member
    reports the searched roots and multiplicities bit for bit, with its
    own residuals.  The members that fail certification (a residual
    over the tolerance, say) are searched in one batch, which rescues or
    raises as a search of each would.  The tolerances are those of
    :func:`~ring_spectra.roots.find_spectra`, for the searches and the
    certification alike.  Results come back in lambda order.
    """
    if n_lambda < 1:
        raise ValueError("need at least one orbit sample")
    lams = [k * np.pi / n_lambda for k in range(n_lambda)]
    bcs = [conjugate_orbit(u, lam) for lam in lams]
    (first,) = find_spectra(bcs[:1], window, kernel, tol_root, tol_residual)
    slices = [first, *_certify(first, bcs[1:], kernel, tol_root, tol_residual)]
    failed = [k for k, s in enumerate(slices) if s is None]
    if failed:
        retry = find_spectra([bcs[k] for k in failed], window, kernel, tol_root, tol_residual)
        for k, s in zip(failed, retry):
            slices[k] = s
    return list(zip(lams, bcs, slices))
