"""Isospectrality services.

Every boundary condition U is either parity symmetric (it commutes with
sx, sits in the two-parameter family, and is uniquely tied to its
spectrum) or it generates a U(1) orbit of distinct matrices that all
sound identical.  This module classifies a U, sweeps its orbit, and
compares spectra.  Distinguishability of parity-symmetric conditions is
only ever checked on finite windows, and results are reported with the
window that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bc import InvariantTriple, UnitaryBC, conjugate_orbit, invariant_triple, is_parity_symmetric
# find_spectrum stays importable from here: perfbench's traced run rebinds
# iso.find_spectrum around its measured loop
from .roots import SpectrumSlice, find_spectra, find_spectrum  # noqa: F401

#: classify() sweeps the orbit at lambda = k pi / 8, k = 1..15
ORBIT_LAMBDAS = tuple(k * np.pi / 8.0 for k in range(1, 16))


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
    return IsoClassification(
        parity_symmetric=is_parity_symmetric(u),
        orbit_samples=tuple(conjugate_orbit(u, lam) for lam in ORBIT_LAMBDAS),
        invariant_triple=invariant_triple(u),
        canonical_tag=_tag(invariant_triple(u)),
    )


@dataclass(frozen=True)
class SpectrumComparison:
    equal: bool
    max_pairwise_gap: float


def compare_spectra(s1: SpectrumSlice, s2: SpectrumSlice, tol: float) -> SpectrumComparison:
    """Greedy sorted matching of two spectra over the same window.

    Multiplicity-2 roots count twice.  Equal means identical counts and
    every matched pair closer than ``tol``.
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
    density: int = 1024,
) -> list[tuple[float, UnitaryBC, SpectrumSlice]]:
    """Spectra across the conjugation orbit, lambda = k pi / n_lambda.

    The orbit has period pi.  All samples go through one batched search
    (:func:`~ring_spectra.roots.find_spectra`), which evaluates the
    kernel on the grid once for the whole orbit; results come back in
    lambda order.
    """
    if n_lambda < 1:
        raise ValueError("need at least one orbit sample")
    lams = [k * np.pi / n_lambda for k in range(n_lambda)]
    bcs = [conjugate_orbit(u, lam) for lam in lams]
    return list(zip(lams, bcs, find_spectra(bcs, window, kernel, density=density)))
