"""One perturbation of each family, with its bound evaluated.

For each perturbation class the script reports the measured
magnitudes, the worst observed relative leverage-score difference,
and the worst-case bound value, so the slack of each bound is
visible.
"""

import numpy as np

from qrlev.angles import principal_angles
from qrlev.bounds import (
    bound_c1,
    bound_t2,
    bound_t3_1,
    bound_t3_2,
    bound_t3_4,
    check_policy,
)
from qrlev.generate import stepped_orthonormal
from qrlev.leverage import leverage_qr, matrix_stats, relative_diffs
from qrlev.perturb import (
    componentwise_row_perturbation,
    measure,
    normwise_perturbation,
    rotation_perturbation,
)

SEED = 42
a = stepped_orthonormal(SEED)
lev = leverage_qr(a)
stats = matrix_stats(a)


def summarize(tag, rel, report):
    defined = ~np.isnan(rel)
    holds = check_policy(rel, report.per_index_bound, report.theorem).holds
    print(
        f"{tag:8s} worst observed {np.max(rel[defined]):.2e}   "
        f"worst bound {np.nanmax(report.per_index_bound):.2e}   "
        f"all hold: {bool(holds[defined].all())}"
    )


# Subspace rotation: angle-based relative bound.
q_tilde = rotation_perturbation(a, 1e-6, 1)
rel = relative_diffs(lev, leverage_qr(q_tilde))
summarize("C1_rel", rel, bound_c1(lev, principal_angles(a, q_tilde)))

# Two-norm Gaussian perturbation: general and projected variants.
delta = normwise_perturbation(a, 1e-8, "two", 2)
metrics = measure(a, delta)
rel = relative_diffs(lev, leverage_qr(a + delta))
projected, general = bound_t2(lev, stats, metrics)
summarize("T2_gen", rel, general)
summarize("T2_perp", rel, projected)

# Frobenius perturbation through the QR route.
delta = normwise_perturbation(a, 1e-8, "fro", 3)
metrics = measure(a, delta)
rel = relative_diffs(lev, leverage_qr(a + delta))
summarize("T3_1", rel, bound_t3_1(lev, stats, metrics))
summarize("T3_2", rel, bound_t3_2(stats, metrics))

# Componentwise row scaling: bound independent of conditioning.
eta = np.full(a.shape[0], 1e-8)
delta = componentwise_row_perturbation(a, eta, 4)
rel = relative_diffs(lev, leverage_qr(a + delta))
summarize("T3_4", rel, bound_t3_4(eta, a.shape[1], kappa2=stats.kappa2))
