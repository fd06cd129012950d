"""Deterministic equivalent spectral measures for non-Hermitian random
matrices with a variance profile.

The package solves the self-consistent master equations attached to a
normalized variance profile V = (sigma_ij^2 / n), builds the radially
symmetric limiting measure (CDF, density, atom at zero), and validates it
against closed-form oracles and Monte Carlo eigenvalue experiments.
"""

from .core import (
    AllZeroError,
    MESolution,
    NegativeEntryError,
    NoConvergenceError,
    NonFiniteError,
    NonSquareError,
    ProfileError,
    RadialMeasure,
    SolverConfig,
    VarianceProfile,
    default_s_grid,
    read_config,
    read_profile_csv,
    validate_profile,
    write_profile_csv,
)
from .profiles import (
    SeparableProfile,
    SinkhornResult,
    build_block_atom,
    build_sampled,
    build_separable,
    circular_law_test,
    cyclic_classes,
    is_block_fully_indecomposable,
    is_fully_indecomposable,
    is_irreducible,
    sinkhorn_scale,
    spectral_radius,
)
from .mesolver import (
    MECurve,
    derivative_s2,
    solve_at_zero,
    solve_curve,
)
from .measures import (
    atom_at_zero,
    build_measure,
    cdf,
    density,
    density_at_zero,
    density_lower_bound,
    grid_density,
)
from .separable import (
    QuadratureUnstableError,
    sampled_rho,
    sampled_separable_curve,
    separable_curve,
    separable_density_zero,
    sombrero_density,
)
from .reference import (
    block_atom_F,
    block_atom_density,
    block_atom_edge,
    circular_F,
    circular_density,
    rank_deficiency_bound,
)
from .montecarlo import (
    BackendUnavailableError,
    EigFailureError,
    EntryLaw,
    SpectrumSample,
    empirical_radial_cdf,
    kolmogorov_distance,
    read_eigenvalue_csv,
    sample_matrix,
    spectrum,
    write_eigenvalue_csv,
)

__version__ = "0.1.0"
