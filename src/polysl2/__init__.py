"""Spectra and dynamics of quantum models with a polynomially deformed sl(2).

The deformation is carried by a structure function psi: a polynomial whose
values on an integer ladder give the squared matrix elements of the raising
operator.  Models (such as three-boson frequency conversion) decompose into
finite blocks labeled by integrals of motion; each block gets an exact
tridiagonal spectrum, an equidistant su(2) reference, a coherent-state
variational approximation, and spectral time evolution.
"""

from .algebra import (
    Block,
    BlockError,
    StructureFunction,
    block_operators,
    build_block,
    falling_product,
    holstein_primakoff,
    su2_ladder,
    su2_rotation,
)
from .dynamics import (
    CollapseReport,
    IncommensurabilityReport,
    MeanFieldTrajectory,
    RabiResult,
    Signal,
    detect_collapse_revival,
    evolve_block,
    incommensurability_measure,
    meanfield_trajectory,
    observable_n3,
    rabi_signal,
)
from .solver import (
    HamiltonianParams,
    Spectrum,
    TridiagonalHamiltonian,
    amplitude_recurrence,
    build_hamiltonian,
    eigensolve,
    sl2_reference_energies,
    sl2_reference_spectrum,
    spectral_polynomial_roots,
)
from .reference import gcs_overlaps, reg_hyp_2F1, stationarity_residual
from .three_boson import (
    BlockLabel,
    CoherentInput,
    ThreeBosonParams,
    block_constants,
    block_fock_state,
    build_model_block,
    enumerate_blocks,
    fock_to_block,
    project_coherent,
    psi3_for_block,
)
from .variational import (
    VariationalSolution,
    energy_functional,
    solve_alpha,
    variational_spectrum,
)

__all__ = [
    "Block",
    "BlockError",
    "BlockLabel",
    "CoherentInput",
    "CollapseReport",
    "HamiltonianParams",
    "IncommensurabilityReport",
    "MeanFieldTrajectory",
    "RabiResult",
    "Signal",
    "Spectrum",
    "StructureFunction",
    "ThreeBosonParams",
    "TridiagonalHamiltonian",
    "VariationalSolution",
    "amplitude_recurrence",
    "block_constants",
    "block_fock_state",
    "block_operators",
    "build_block",
    "build_hamiltonian",
    "build_model_block",
    "detect_collapse_revival",
    "eigensolve",
    "energy_functional",
    "enumerate_blocks",
    "evolve_block",
    "falling_product",
    "fock_to_block",
    "gcs_overlaps",
    "holstein_primakoff",
    "incommensurability_measure",
    "meanfield_trajectory",
    "observable_n3",
    "project_coherent",
    "psi3_for_block",
    "rabi_signal",
    "reg_hyp_2F1",
    "sl2_reference_energies",
    "sl2_reference_spectrum",
    "solve_alpha",
    "spectral_polynomial_roots",
    "stationarity_residual",
    "su2_ladder",
    "su2_rotation",
    "variational_spectrum",
]

__version__ = "0.1.0"
