"""
Leverage scores of full-column-rank matrices, plus the matrix
statistics (condition number, stable rank) that drive every bound.

The leverage score of row j is the squared two-norm of row j of any
orthonormal basis for the column space. Scores lie in [0, 1] and sum
to the column count. full_rank_qr factors a matrix once (one
Householder QR a = q r, one SVD of r by LAPACK's one-sided Jacobi
dgejsv, one rank check) into a Factorization that callers pass on. Its
lev reads the scores from q, its lev_svd from the left singular vectors
q @ u_r, and its stats the singular values of r, which are those of a.
The SVD route shares the QR, so its agreement with the QR route checks
the dgejsv step, not the range of Q.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    BASIS_TOL,
    RankDeficiencyError,
    SvdResult,
    _range_exponent,
    as_matrix,
    check_orthonormal,
    fro_norm,
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


@dataclass(frozen=True)
class Factorization:
    """
    A full-rank a = q r from full_rank_qr, with the SVD of r. lev and
    lev_svd are computed on first read and kept, so every reader of one
    Factorization shares one array.
    """

    a: np.ndarray
    q: np.ndarray
    r: np.ndarray
    svd_r: SvdResult  # jacobi_svd(r): its sigma are a's singular values

    # The QR route's scores, from q, and the SVD route's, from the left
    # singular vectors q @ svd_r.u, which share the QR.
    lev = cached_property(lambda self: leverage_from_basis(self.q))
    lev_svd = cached_property(lambda self: _squared_row_norms(self.q @ self.svd_r.u))

    @property
    def stats(self):
        """
        kappa2 = sigma_max / sigma_min and the stable rank
        ||a||_F**2 / ||a||_2**2, computed on each read. The stable rank
        is at most n (1 + 4 eps): the two norms come from different
        sums, so at n = 1 it can exceed 1 by a few ulps of round-off.
        """
        sigma = self.svd_r.sigma
        two = float(sigma[0])
        # Square both norms at a's power-of-two prescale, where neither
        # over- nor underflows; the ratio is the same bits at any scale.
        exponent = _range_exponent(self.a)
        fro, two_s = math.ldexp(fro_norm(self.a), -exponent), math.ldexp(two, -exponent)
        return MatrixStats(kappa2=two / float(sigma[-1]), stable_rank=fro**2 / two_s**2)


def leverage_from_basis(q):
    """
    Leverage scores as squared row norms of an orthonormal basis. A
    square q spans the whole space, so every score is exactly 1.

    Raises ValueError (naming the Gram residual) if the columns of q
    are not orthonormal to within BASIS_TOL.
    """
    q = check_orthonormal(q, BASIS_TOL, "basis")
    if q.shape[0] == q.shape[1]:
        return np.ones(q.shape[0])
    return _squared_row_norms(q)


def _squared_row_norms(u):
    return np.einsum("ij,ij->i", u, u)


def full_rank_qr(a):
    """
    Householder QR of an m x n matrix, m >= n, checked for full rank
    through the singular values of r. Returns the frozen Factorization
    (a, q, r, svd_r), where svd_r is jacobi_svd's SvdResult of r (LAPACK
    dgejsv on the n x n factor), so q @ svd_r.u holds the left singular
    vectors of a; rank deficiency raises RankDeficiencyError carrying
    the sigma_min/sigma_max ratio, and a nonzero dgejsv info raises
    ConvergenceError. A zero row of a has an exactly zero row of q.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m < n:
        raise ValueError(f"need m >= n, got shape {a.shape}")
    q, r = householder_qr(a)
    # q = a r**-1 makes a zero row of a a zero row of q. The reflectors
    # keep such a row exactly zero past the first n rows but mix the
    # first n, where round-off up to kappa2 * eps would give it a tiny
    # positive score and an undefined bound on a defined relative
    # change. Only the n x n head is tested, so tall inputs pay nothing.
    head = a[:n]
    if not head.all():
        q[:n][~head.any(axis=1)] = 0.0
    svd_r = jacobi_svd(r)
    smax, smin = svd_r.sigma[0], svd_r.sigma[-1]
    if smax == 0.0 or smin <= RANK_TOL_FACTOR * m * smax:
        ratio = smin / smax if smax > 0 else 0.0
        raise RankDeficiencyError(
            f"matrix is numerically rank deficient: sigma_min/sigma_max = {ratio:.3e}",
            ratio=ratio,
        )
    return Factorization(a, q, r, svd_r)


def leverage_qr(a):
    """
    Leverage scores computed from a Householder QR decomposition.

    The input must be m x n with m >= n and numerically full rank;
    rank deficiency raises RankDeficiencyError carrying the
    sigma_min/sigma_max ratio.
    """
    return full_rank_qr(a).lev


def leverage_svd(a):
    """
    Leverage scores as squared row norms of the left singular vectors.

    Same contract as leverage_qr. The singular vectors are q @ u_r from
    the same full_rank_qr, so this is not an independent check of the
    QR's range.
    """
    return full_rank_qr(a).lev_svd


def matrix_stats(a):
    """
    Condition number and stable rank of a (Factorization.stats). Same
    contract as leverage_qr: m >= n and numerically full rank.
    """
    return full_rank_qr(a).stats
