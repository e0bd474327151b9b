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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bc import InvariantTriple, UnitaryBC, conjugate_orbit, invariant_triple, is_parity_symmetric
from .roots import SpectrumSlice, find_spectrum

#: classify() sweeps the orbit at lambda = k pi / 8, k = 1..15
ORBIT_LAMBDAS = tuple(k * np.pi / 8.0 for k in range(1, 16))


def thread_count() -> int:
    """Worker cap from RING_SPECTRA_THREADS (unset or 0 means auto).

    Auto is the number of CPUs this process may run on (its affinity
    set where the platform reports one, else the machine's CPU count).
    """
    raw = os.environ.get("RING_SPECTRA_THREADS", "0")
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"RING_SPECTRA_THREADS must be an integer, got {raw!r}") from exc
    if val > 0:
        return val
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    The orbit has period pi.  Spectra are computed in parallel over the
    lambda samples (worker count from RING_SPECTRA_THREADS); results
    come back in lambda order regardless of scheduling.
    """
    if n_lambda < 1:
        raise ValueError("need at least one orbit sample")
    lams = [k * np.pi / n_lambda for k in range(n_lambda)]
    bcs = [conjugate_orbit(u, lam) for lam in lams]

    def run(bc: UnitaryBC) -> SpectrumSlice:
        return find_spectrum(bc, window, kernel, density=density)

    workers = min(thread_count(), len(bcs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            slices = list(pool.map(run, bcs))
    else:
        slices = [run(bc) for bc in bcs]
    return list(zip(lams, bcs, slices))
