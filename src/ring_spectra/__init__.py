"""Spectra of a free quantum particle on a ring with a junction.

The junction admits a four-parameter family of self-adjoint behaviors,
one per U(2) matrix.  This package computes the exact energy spectrum
for any of them, relativistic or not, and classifies which conditions
can be distinguished by their spectrum alone.
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
from .dirac import (
    DiracKernel,
    DiracPoint,
    MassModeError,
    PhysicalConfig,
    Regime,
    SpectralPoleError,
    mass_mode_membership,
    wavenumber,
)
from .iso import IsoClassification, classify, compare_spectra, orbit_spectra
from .matalg import NonUnitaryError, det2x2_difference, pauli_decompose
from .roots import (
    NumericalError,
    PhaseProfile,
    Root,
    SpectrumSlice,
    eigenphase_profile,
    find_spectrum,
)
from .schrod import SchrodKernel
from .triple import (
    DIRAC_REP,
    CliffordRep,
    RepKernel,
    SpinorSample,
    bc_in_rep,
    boundary_eigvecs,
    boundary_form_check,
    gamma_maps,
    representation_transform,
)

__version__ = "0.1.0"

__all__ = [
    "BCConstraintError",
    "BCParseError",
    "CliffordRep",
    "DIRAC_REP",
    "DiracKernel",
    "DiracPoint",
    "InvariantTriple",
    "IsoClassification",
    "MassModeError",
    "NonUnitaryError",
    "NumericalError",
    "PhaseProfile",
    "PhysicalConfig",
    "Regime",
    "RepKernel",
    "Root",
    "SchrodKernel",
    "SpectralPoleError",
    "SpectrumSlice",
    "SpinorSample",
    "UnitaryBC",
    "bc_in_rep",
    "boundary_eigvecs",
    "boundary_form_check",
    "classify",
    "compare_spectra",
    "conjugate_orbit",
    "det2x2_difference",
    "eigenphase_profile",
    "find_spectrum",
    "from_matrix",
    "gamma_maps",
    "invariant_triple",
    "is_parity_symmetric",
    "mass_mode_membership",
    "named_family",
    "orbit_spectra",
    "parse_bc",
    "pauli_decompose",
    "random_unitary_bc",
    "representation_transform",
    "wavenumber",
]
