"""Finite range decompositions of lattice Green operators.

Splits the inverse of a variable-coefficient divergence-form operator on a
periodic lattice into levels whose kernels sum to its Green kernel and are
constant beyond a per-level radius, and verifies the construction:
reconstruction, range, positivity (not every level is positive for every
coefficient), kernel decay, coefficient sensitivity, and the discrete
regularity estimates behind the bounds.
"""

from .lattice import (
    LatticeError,
    LatticeField,
    LatticeTorus,
    MultiIndex,
    backward_diff,
    cube_sites,
    dist_inf,
    distances_from,
    forward_diff,
    grad_multi,
)
from .coefficients import (
    BudgetError,
    CoefficientField,
    NonEllipticError,
    PerturbationSpec,
    TrigMode,
    ellipticity_constants,
    make_perturbed,
    scaled_smoothness_norm,
)
from .operators import (
    ConvergenceError,
    EllipticOperator,
    KernelColumn,
    MeanZeroError,
    SolveReport,
    dense_green,
    dense_matrix,
)
from .smoothing import AveragingOperator, Cube, CubeProjector, project_cube
from .decomposition import (
    Decomposition,
    DecompositionPlan,
    build_decomposition,
    default_cube_sides,
    load_archive,
    save_archive,
)
from .reporting import DecayReport, NormReport
from .sensitivity import (
    DirectionalProbe,
    directional_derivative,
    green_derivative_estimate,
    green_derivative_oracle,
    lipschitz_scan,
)

__version__ = "0.1.0"
