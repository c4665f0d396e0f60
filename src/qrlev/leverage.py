"""
Leverage scores of full-column-rank matrices, plus the matrix
statistics (condition number, stable rank) that drive every bound.

The leverage score of row j is the squared two-norm of row j of any
orthonormal basis for the column space. Scores lie in [0, 1] and sum
to the column count. Two computation routes are provided: through a
Householder QR decomposition and through the singular value
decomposition; they agree to near machine precision and serve as
mutual oracles.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    RankDeficiencyError,
    as_matrix,
    gram_residual,
    householder_qr,
    jacobi_svd,
)

# Gram residual allowed on a basis fed to leverage_from_basis. Looser
# than the QR kernel's own guarantee so externally produced bases pass.
BASIS_TOL = 1e-10

# sigma_min > RANK_TOL_FACTOR * m * sigma_max is required for a matrix
# to count as numerically full rank.
RANK_TOL_FACTOR = 1e-15


@dataclass(frozen=True)
class MatrixStats:
    """Scalar conditioning summary of a matrix."""

    kappa2: float         # two_norm / sigma_min
    stable_rank: float    # frobenius_norm**2 / two_norm**2
    two_norm: float
    frobenius_norm: float
    sigma_min: float


def leverage_from_basis(q):
    """
    Leverage scores as squared row norms of an orthonormal basis.

    Raises ValueError (naming the Gram residual) if the columns of q
    are not orthonormal to within BASIS_TOL.
    """
    q = as_matrix(q, "q")
    res = gram_residual(q)
    if res > BASIS_TOL:
        raise ValueError(
            f"basis is not orthonormal: Gram residual {res:.3e} exceeds {BASIS_TOL:.3e}"
        )
    return np.einsum("ij,ij->i", q, q)


def _require_full_rank(sigma, m):
    smax = sigma[0]
    smin = sigma[-1]
    if smax == 0.0 or smin <= RANK_TOL_FACTOR * m * smax:
        ratio = smin / smax if smax > 0 else 0.0
        raise RankDeficiencyError(
            f"matrix is numerically rank deficient: sigma_min/sigma_max = {ratio:.3e}",
            ratio=ratio,
        )


def full_rank_qr(a):
    """
    Householder QR of an m x n matrix, m >= n, checked for full rank
    through the singular values of r. Returns (q, r, sigma); rank
    deficiency raises RankDeficiencyError carrying the
    sigma_min/sigma_max ratio.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m < n:
        raise ValueError(f"need m >= n, got shape {a.shape}")
    q, r = householder_qr(a)
    sigma = jacobi_svd(r).sigma
    _require_full_rank(sigma, m)
    return q, r, sigma


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

    Same contract as leverage_qr; serves as its independent oracle.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m < n:
        raise ValueError(f"leverage_svd needs m >= n, got shape {a.shape}")
    res = jacobi_svd(a)
    _require_full_rank(res.sigma, m)
    return np.einsum("ij,ij->i", res.u, res.u)


def matrix_stats(a):
    """
    Condition number, stable rank, and the norms behind them.

    kappa2 is sigma_max / sigma_min; the stable rank is
    ||a||_F**2 / ||a||_2**2 and never exceeds the column count.
    Rank-deficient input raises RankDeficiencyError.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    sigma = jacobi_svd(a).sigma
    _require_full_rank(sigma, max(m, n))
    two = float(sigma[0])
    fro = float(np.linalg.norm(a, "fro"))
    return MatrixStats(
        kappa2=two / float(sigma[-1]),
        stable_rank=fro**2 / two**2,
        two_norm=two,
        frobenius_norm=fro,
        sigma_min=float(sigma[-1]),
    )


def relative_diffs(base, pert, floor=0.0):
    """
    Per-index relative differences |pert - base| / base.

    Entries where base <= floor are undefined and returned as NaN;
    relative comparisons only make sense for strictly positive scores.
    """
    base = np.asarray(base, dtype=np.float64)
    pert = np.asarray(pert, dtype=np.float64)
    if base.shape != pert.shape:
        raise ValueError(
            f"length mismatch: base has shape {base.shape}, pert has shape {pert.shape}"
        )
    if floor < 0:
        raise ValueError("floor must be nonnegative")
    out = np.full(base.shape, np.nan)
    defined = base > floor
    out[defined] = np.abs(pert[defined] - base[defined]) / base[defined]
    return out


__all__ = [
    "BASIS_TOL",
    "MatrixStats",
    "full_rank_qr",
    "leverage_from_basis",
    "leverage_qr",
    "leverage_svd",
    "matrix_stats",
    "relative_diffs",
]
