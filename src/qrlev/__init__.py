"""
qrlev: leverage scores from QR decompositions, controlled matrix
perturbations, and evaluators for the perturbation bounds that govern
leverage-score accuracy.
"""

from .angles import PrincipalAngles, principal_angles, sin_theta_max_projector
from .bounds import (
    BoundReport,
    HypothesisError,
    RdotRinv,
    bound_c1,
    bound_t1,
    bound_t2,
    bound_t3_1,
    bound_t3_2,
    bound_t3_3,
    bound_t3_4,
    check_policy,
    delta_q_first_order,
    qr_q_difference,
    rdot_rinv,
    sandwich_holds,
)
from .experiments import (
    BoundViolationError,
    ExperimentConfig,
    FigurePanel,
    emit_csv,
    emit_svg,
    parse_csv,
    run_figure,
    verify_rows,
)
from .generate import (
    GenSpec,
    gaussian_matrix,
    generate,
    make_rng,
    random_orthonormal,
    randsvd_matrix,
    stepped_gaussian,
    stepped_illconditioned,
    stepped_orthonormal,
)
from .io import read_matrix, write_matrix
from .leverage import (
    MatrixStats,
    leverage_from_basis,
    leverage_qr,
    leverage_svd,
    matrix_stats,
    relative_diffs,
)
from .linalg import (
    ConvergenceError,
    RankDeficiencyError,
    SvdResult,
    ThinQR,
    householder_qr,
    jacobi_svd,
    project_complement,
    triu_half,
    two_norm,
)
from .perturb import (
    PerturbationMetrics,
    componentwise_row_perturbation,
    make_perturbation,
    measure,
    normwise_perturbation,
    rotation_perturbation,
    row_subset_perturbation,
    same_row_scaling_perturbation,
)

__version__ = "0.1.0"
