"""One perturbation of each family, with its bound evaluated.

For each bound the script prints the worst observed relative
leverage-score difference, the worst-case bound value, and whether the
bound holds at every index, so the slack of each bound is visible.
Each perturbation is evaluated through one experiments.Evaluation,
which computes what its bounds read.
"""

import numpy as np

from qrlev.angles import principal_angles
from qrlev.bounds import check_policy
from qrlev.experiments import Evaluation
from qrlev.generate import stepped_orthonormal
from qrlev.leverage import full_rank_qr
from qrlev.perturb import (
    componentwise_row_perturbation,
    normwise_perturbation,
    rotation_perturbation,
)

SEED = 42
a = stepped_orthonormal(SEED)
# Factor a once; every evaluation reads its scores and statistics from f.
f = full_rank_qr(a)


def summarize(ev, tag):
    p = ev.panel(tag, tag)
    defined = ~np.isnan(p.observed)
    holds = check_policy(p.observed, p.bound, tag).holds
    print(
        f"{tag:8s} worst observed {np.max(p.observed[defined]):.2e}   "
        f"worst bound {np.nanmax(p.bound):.2e}   "
        f"all hold: {bool(holds[defined].all())}"
    )


# Subspace rotation: angle-based relative bound, read from the exact
# rotated basis and its angles.
q_tilde = rotation_perturbation(a, 1e-6, 1)
rotation = Evaluation(
    f, q_tilde - a, angles=principal_angles(a, q_tilde), f_tilde=full_rank_qr(q_tilde)
)
summarize(rotation, "C1_rel")

# Two-norm Gaussian perturbation: general and projected variants.
two = Evaluation(f, normwise_perturbation(a, 1e-8, "two", 2))
summarize(two, "T2_gen")
summarize(two, "T2_perp")

# Frobenius perturbation through the QR route.
fro = Evaluation(f, normwise_perturbation(a, 1e-8, "fro", 3))
summarize(fro, "T3_1")
summarize(fro, "T3_2")

# Row scaling delta = D a: bound independent of conditioning.
eta = np.full(a.shape[0], 1e-8)
row_scaled = Evaluation(f, componentwise_row_perturbation(a, eta, 4), eta=eta)
summarize(row_scaled, "T3_4")
