"""Spectra of a free quantum particle on a ring with a junction.

The junction admits a four-parameter family of self-adjoint behaviors,
one per U(2) matrix.  This package computes the exact energy spectrum
for any of them, relativistic or not, and classifies which conditions
can be distinguished by their spectrum alone.

The check-only modules (``oracles``, ``triple`` and ``acceptance``)
hold the independent references the tests and ``ring-spectra verify``
compare against; importing the package does not load them.
"""

from .bc import (
    BCConstraintError,
    BCParseError,
    InvariantTriple,
    UnitaryBC,
    conjugate_orbit,
    from_matrix,
    invariant_triple,
    is_parity_symmetric,
    named_family,
    parse_bc,
    random_unitary_bc,
)
from .dirac import DiracKernel, PhysicalConfig, SpectralPoleError, mass_mode_membership
from .iso import IsoClassification, classify, compare_spectra, orbit_spectra
from .matalg import NonUnitaryError
from .roots import NumericalError, Root, SpectrumSlice, find_spectra, find_spectrum
from .schrod import SchrodKernel

__version__ = "0.1.0"

__all__ = [
    "BCConstraintError",
    "BCParseError",
    "DiracKernel",
    "InvariantTriple",
    "IsoClassification",
    "NonUnitaryError",
    "NumericalError",
    "PhysicalConfig",
    "Root",
    "SchrodKernel",
    "SpectralPoleError",
    "SpectrumSlice",
    "UnitaryBC",
    "classify",
    "compare_spectra",
    "conjugate_orbit",
    "find_spectra",
    "find_spectrum",
    "from_matrix",
    "invariant_triple",
    "is_parity_symmetric",
    "mass_mode_membership",
    "named_family",
    "orbit_spectra",
    "parse_bc",
    "random_unitary_bc",
]
