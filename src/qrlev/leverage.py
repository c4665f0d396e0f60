"""
Leverage scores of full-column-rank matrices, plus the matrix
statistics (condition number, stable rank) that drive every bound.

The leverage score of row j is the squared two-norm of row j of any
orthonormal basis for the column space. Scores lie in [0, 1] and sum
to the column count. leverage_qr, leverage_svd and matrix_stats all go
through full_rank_qr: one Householder QR a = q r, one Jacobi SVD of r
and one rank check. The QR route reads the scores from q, the SVD route
from the left singular vectors q @ u_r, and matrix_stats reads the
singular values of r, which are those of a. The SVD route shares the
QR, so its agreement with the QR route checks the Jacobi step, not the
range of Q.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    BASIS_TOL,
    RankDeficiencyError,
    as_matrix,
    check_orthonormal,
    householder_qr,
    jacobi_svd,
)

# sigma_min > RANK_TOL_FACTOR * m * sigma_max is required for a matrix
# to count as numerically full rank.
RANK_TOL_FACTOR = 1e-15


@dataclass(frozen=True)
class MatrixStats:
    """Scalar conditioning summary of a matrix."""

    kappa2: float       # sigma_max / sigma_min
    stable_rank: float  # ||a||_F**2 / ||a||_2**2


def leverage_from_basis(q):
    """
    Leverage scores as squared row norms of an orthonormal basis.

    Raises ValueError (naming the Gram residual) if the columns of q
    are not orthonormal to within BASIS_TOL.
    """
    q = check_orthonormal(q, BASIS_TOL, "basis")
    return np.einsum("ij,ij->i", q, q)


def full_rank_qr(a):
    """
    Householder QR of an m x n matrix, m >= n, checked for full rank
    through the singular values of r. Returns (q, r, svd_r), where
    svd_r is the full Jacobi SvdResult of r, so q @ svd_r.u holds the
    left singular vectors of a; rank deficiency raises
    RankDeficiencyError carrying the sigma_min/sigma_max ratio.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m < n:
        raise ValueError(f"need m >= n, got shape {a.shape}")
    q, r = householder_qr(a)
    svd_r = jacobi_svd(r)
    smax, smin = svd_r.sigma[0], svd_r.sigma[-1]
    if smax == 0.0 or smin <= RANK_TOL_FACTOR * m * smax:
        ratio = smin / smax if smax > 0 else 0.0
        raise RankDeficiencyError(
            f"matrix is numerically rank deficient: sigma_min/sigma_max = {ratio:.3e}",
            ratio=ratio,
        )
    return q, r, svd_r


def leverage_qr(a):
    """
    Leverage scores computed from a Householder QR decomposition.

    The input must be m x n with m >= n and numerically full rank;
    rank deficiency raises RankDeficiencyError carrying the
    sigma_min/sigma_max ratio.
    """
    return leverage_from_basis(full_rank_qr(a)[0])


def leverage_svd(a):
    """
    Leverage scores as squared row norms of the left singular vectors.

    Same contract as leverage_qr. The singular vectors are q @ u_r from
    the same full_rank_qr, so this is not an independent check of the
    QR's range.
    """
    q, _, svd_r = full_rank_qr(a)
    u = q @ svd_r.u
    return np.einsum("ij,ij->i", u, u)


def matrix_stats(a):
    """
    Condition number and stable rank.

    kappa2 is sigma_max / sigma_min; the stable rank is
    ||a||_F**2 / ||a||_2**2 and never exceeds the column count. Same
    contract as leverage_qr: m >= n and numerically full rank.
    """
    a = as_matrix(a, "a")
    sigma = full_rank_qr(a)[2].sigma
    two = float(sigma[0])
    fro = float(np.linalg.norm(a, "fro"))
    return MatrixStats(kappa2=two / float(sigma[-1]), stable_rank=fro**2 / two**2)


def relative_diffs(base, pert):
    """
    Per-index relative differences |pert - base| / base.

    Entries where base <= 0 are undefined and returned as NaN;
    relative comparisons only make sense for strictly positive scores.
    """
    base = np.asarray(base, dtype=np.float64)
    pert = np.asarray(pert, dtype=np.float64)
    if base.shape != pert.shape:
        raise ValueError(
            f"length mismatch: base has shape {base.shape}, pert has shape {pert.shape}"
        )
    out = np.full(base.shape, np.nan)
    defined = base > 0.0
    out[defined] = np.abs(pert[defined] - base[defined]) / base[defined]
    return out
