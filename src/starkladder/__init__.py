"""Tilted non-Hermitian tight-binding lattices and their ladder physics.

Complex spectra of dimerized chains under a linear potential remain
organized in ladders with real, equal level spacing; this package builds
the finite lattices, certifies the ladder and symmetry structure as matrix
identities, propagates single-particle and particle-pair states, and maps
1D two-particle problems onto 2D single-particle square lattices.
"""

__version__ = "0.1.0"

from .lattices import (  # noqa: F401
    LatticeKind,
    LatticeSpec,
    OperatorMatrix,
    SymmetryOp,
    apply_symmetry,
    build_chain,
    build_pair_lattice,
    compose,
    gauge_conjugation_deviation,
    gauge_op,
    interior_margin,
    interior_slice,
    parity_2d_op,
    pt_commutator_deviation,
    ramped_translation_deviation,
    time_reversal_op,
    translation_op,
)
from .spectra import (  # noqa: F401
    ComplexSpectrum,
    EigendecompositionError,
    LadderFamily,
    LadderReport,
    ReferenceSelectionError,
    ReferenceState,
    ScanResult,
    conjugation_closure_deviation,
    detect_ladders,
    eigendecompose,
    localization_center,
    participation_ratio,
    scan_E0_vs_omega,
    select_reference_state,
    spectrum_multiset_distance,
    verify_ladder_operator,
)
from .dynamics import (  # noqa: F401
    TimeSeries,
    build_pair_product_state,
    dirac_probability,
    evolve,
    evolve_pair,
    extract_projected_mu,
    family_projection,
    fidelity,
    gaussian_state,
    site_state,
)
from .pairmap import (  # noqa: F401
    PairBasis,
    lift_1d_evolution,
    oracle_pair_hamiltonian,
    pair_basis,
    sector_decompose,
    sector_reassembled_distance,
)
