"""
Principal angles between two equal-dimension column spaces.

The cosines of the angles are the singular values of q.T @ q_tilde;
the sines are the singular values of (I - q q.T) q_tilde. Computing
the sines from the projected matrix (instead of sqrt(1 - cos**2))
preserves full accuracy for tiny angles, which the experiments need
down to sin(theta) ~ 1e-9.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    BASIS_TOL,
    _project_out,
    as_matrix,
    check_orthonormal,
    jacobi_svd,
)

# Above this cosine the naive sine sqrt(1 - c**2) has lost half its
# digits, so the projected-matrix singular values are used instead.
SMALL_ANGLE_COS = 0.999


@dataclass(frozen=True)
class PrincipalAngles:
    """Cosines (nonincreasing) and sines (nondecreasing) of the angles."""

    cosines: np.ndarray
    sines: np.ndarray

    @property
    def sin_theta_max(self):
        return float(self.sines[-1])

    @property
    def cos_theta_min(self):
        return float(self.cosines[0])


def _checked_pair(q, q_tilde):
    q = as_matrix(q, "q")
    q_tilde = as_matrix(q_tilde, "q_tilde")
    if q.shape != q_tilde.shape:
        raise ValueError(
            f"dimension mismatch: q is {q.shape}, q_tilde is {q_tilde.shape}"
        )
    check_orthonormal(q, BASIS_TOL, "q")
    check_orthonormal(q_tilde, BASIS_TOL, "q_tilde")
    return q, q_tilde


def principal_angles(q, q_tilde):
    """
    Principal angles between range(q) and range(q_tilde).

    Parameters
    ----------
    q, q_tilde : (m, n) array_like
        Matrices with orthonormal columns (Gram residual at most
        BASIS_TOL).

    Returns
    -------
    PrincipalAngles
        cosines sorted nonincreasing and clamped to [0, 1]; sines
        sorted nondecreasing, accurate even when the angles are tiny.
    """
    q, q_tilde = _checked_pair(q, q_tilde)
    cosines = np.clip(jacobi_svd(q.T @ q_tilde).sigma, 0.0, 1.0)

    sines = np.sqrt(1.0 - cosines**2)
    small = cosines > SMALL_ANGLE_COS
    if small.any():
        projected = jacobi_svd(_project_out(q, q_tilde)).sigma
        accurate = np.clip(projected[::-1], 0.0, 1.0)  # ascending
        sines = np.where(small, accurate, sines)
    return PrincipalAngles(cosines=cosines, sines=sines)


def sin_theta_max_projector(q, q_tilde):
    """
    Sine of the largest principal angle via the projector formula
    ||(I - q_tilde q_tilde.T) q||_2. Agrees with principal_angles(...).sines[-1],
    which projects the other way, so the two share no computed matrix.
    """
    q, q_tilde = _checked_pair(q, q_tilde)
    projected = _project_out(q_tilde, q)
    if not projected.any():
        return 0.0
    return float(min(jacobi_svd(projected).sigma[0], 1.0))
