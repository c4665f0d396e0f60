"""Leverage scores of the stepped test matrix, two ways.

The 1000 x 25 stepped matrix has orthonormal columns and leverage
scores that climb in four plateaus spanning eight orders of
magnitude. Both computation routes (Householder QR and the Jacobi
SVD) give the same scores to machine precision.
"""

import numpy as np

from qrlev.generate import STEPPED_BLOCKS, stepped_illconditioned, stepped_orthonormal
from qrlev.leverage import leverage_qr, leverage_svd, matrix_stats

SEED = 42

a = stepped_orthonormal(SEED)
lev = leverage_qr(a)
print("stepped orthonormal matrix, seed", SEED)
print("  sum of scores (should be 25):", lev.sum())
print("  score range: %.2e .. %.2e" % (lev.min(), lev.max()))
for k, block in enumerate(STEPPED_BLOCKS):
    print(f"  block {k}: median score {np.median(lev[block]):.2e}")

print("  max |QR route - SVD route| =", np.abs(lev - leverage_svd(a)).max())

stats = matrix_stats(a)
print(f"  kappa2 = {stats.kappa2:.3f}, stable rank = {stats.stable_rank:.2f}")

# A different seed here: at the same seed the two recipes share the
# underlying Gaussian draw, hence exactly the same column space.
b = stepped_illconditioned(SEED + 1)
stats_b = matrix_stats(b)
lev_b = leverage_qr(b)
print("\nill-conditioned companion (similar plateaus, kappa2 ~ 1e6)")
print(f"  kappa2 = {stats_b.kappa2:.3e}, sum of scores = {lev_b.sum():.6f}")
for k, block in enumerate(STEPPED_BLOCKS):
    print(f"  block {k}: median score {np.median(lev_b[block]):.2e}")
