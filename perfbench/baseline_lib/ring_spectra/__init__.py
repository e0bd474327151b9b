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
    KernelValue,
    MassModeError,
    PhysicalConfig,
    Regime,
    SpectralPoleError,
    build_Apm,
    kernel_at,
    mass_mode_B,
    mass_mode_membership,
    spectral_value,
    wavenumber,
)
from .iso import IsoClassification, classify, compare_spectra, orbit_spectra
from .matalg import (
    NonUnitaryError,
    UnitaryEigen,
    det2x2_difference,
    pauli_decompose,
    unitary_eigen,
)
from .roots import PhaseProfile, Root, SpectrumSlice, eigenphase_profile, find_spectrum
from .schrod import SchrodKernel, SchrodPoint, schrod_boundary_map, schrod_spectral_value
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
    "KernelValue",
    "MassModeError",
    "NonUnitaryError",
    "PhaseProfile",
    "PhysicalConfig",
    "Regime",
    "RepKernel",
    "Root",
    "SchrodKernel",
    "SchrodPoint",
    "SpectralPoleError",
    "SpectrumSlice",
    "SpinorSample",
    "UnitaryBC",
    "UnitaryEigen",
    "bc_in_rep",
    "boundary_eigvecs",
    "boundary_form_check",
    "build_Apm",
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
    "kernel_at",
    "mass_mode_B",
    "mass_mode_membership",
    "named_family",
    "orbit_spectra",
    "parse_bc",
    "pauli_decompose",
    "random_unitary_bc",
    "representation_transform",
    "schrod_boundary_map",
    "schrod_spectral_value",
    "spectral_value",
    "unitary_eigen",
    "wavenumber",
]
