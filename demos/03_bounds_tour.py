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
    observed,
)
from qrlev.generate import stepped_orthonormal
from qrlev.leverage import full_rank_qr, leverage_from_basis, leverage_qr
from qrlev.perturb import (
    componentwise_row_perturbation,
    measure,
    normwise_perturbation,
    rotation_perturbation,
)

SEED = 42
a = stepped_orthonormal(SEED)
# Factor a once; the scores, the statistics and every measure read it.
f = full_rank_qr(a)
lev = leverage_from_basis(f.q)
stats = f.stats


def summarize(lev_tilde, report):
    obs = observed(report.theorem, lev, lev_tilde)
    defined = ~np.isnan(obs)
    holds = check_policy(obs, report.per_index_bound, report.theorem).holds
    print(
        f"{report.theorem:8s} worst observed {np.max(obs[defined]):.2e}   "
        f"worst bound {np.nanmax(report.per_index_bound):.2e}   "
        f"all hold: {bool(holds[defined].all())}"
    )


# Subspace rotation: angle-based relative bound.
q_tilde = rotation_perturbation(a, 1e-6, 1)
summarize(leverage_qr(q_tilde), bound_c1(lev, principal_angles(a, q_tilde)))

# Two-norm Gaussian perturbation: general and projected variants.
delta = normwise_perturbation(a, 1e-8, "two", 2)
metrics = measure(f, delta)
lev_tilde = leverage_qr(a + delta)
projected, general = bound_t2(lev, stats, metrics)
summarize(lev_tilde, general)
summarize(lev_tilde, projected)

# Frobenius perturbation through the QR route.
delta = normwise_perturbation(a, 1e-8, "fro", 3)
metrics = measure(f, delta)
lev_tilde = leverage_qr(a + delta)
summarize(lev_tilde, bound_t3_1(lev, stats, metrics))
summarize(lev_tilde, bound_t3_2(stats, metrics))

# Row scaling delta = D a: bound independent of conditioning.
eta = np.full(a.shape[0], 1e-8)
delta = componentwise_row_perturbation(a, eta, 4)
summarize(leverage_qr(a + delta), bound_t3_4(eta, a.shape[1], kappa2=stats.kappa2))
