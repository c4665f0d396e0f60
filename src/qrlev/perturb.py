"""
Construction of controlled matrix perturbations and measurement of
every perturbation magnitude the bounds consume.

Five perturbation families are provided:

rotation
    rotates all principal angles of an orthonormal basis by a
    prescribed angle, returning the perturbed basis itself;
normwise
    a Gaussian direction scaled to an exact two-norm or Frobenius
    relative magnitude;
row_subset
    a normwise Frobenius perturbation supported on a row range;
same_row_scaling
    a fixed matrix rescaled to a target Frobenius norm, inheriting
    that matrix's row scaling;
componentwise_rows
    row j of the perturbation is zeta_j * eta_j times row j of the
    matrix, with zeta_j uniform on [-1, 1].

measure() reports all six magnitude families: relative two-norm and
Frobenius sizes, their projections onto the orthogonal complement of
the column space, and the per-row relative sizes of both.
"""

from dataclasses import dataclass, asdict

import numpy as np

from .generate import make_rng
from .leverage import full_rank_qr
from .linalg import (
    as_matrix,
    check_orthonormal,
    householder_qr,
    project_complement,
    two_norm,
)

PERTURBATION_KINDS = (
    "rotation",
    "normwise_two",
    "normwise_fro",
    "row_subset",
    "same_row_scaling",
    "componentwise_rows",
)

# Orthonormality required of the basis handed to the rotation family.
ROTATION_BASIS_TOL = 1e-10


@dataclass
class PerturbationSpec:
    """
    Serializable recipe for a perturbation.

    Fields not used by the chosen kind are ignored. eta may be a
    scalar (broadcast over rows) or a length-m sequence.
    """

    kind: str
    eps: float = 0.0
    target_sin: float = 0.0
    row_start: int = 0
    row_stop: int = 0
    eta: object = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")

    def to_dict(self):
        d = asdict(self)
        if isinstance(d["eta"], np.ndarray):
            d["eta"] = d["eta"].tolist()
        return d

    @classmethod
    def from_dict(cls, d):
        allowed = {"kind", "eps", "target_sin", "row_start", "row_stop", "eta", "seed"}
        unknown = set(d) - allowed
        if unknown:
            raise ValueError(f"unknown PerturbationSpec fields: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class PerturbationMetrics:
    """All measured relative magnitudes of a perturbation."""

    eps_two: float            # ||delta||_2 / ||a||_2
    eps_fro: float            # ||delta||_F / ||a||_F
    eps_two_perp: float       # ||(I - P) delta||_2 / ||a||_2
    eps_fro_perp: float       # ||(I - P) delta||_F / ||a||_F
    eps_row: np.ndarray       # ||delta_j|| / ||a_j||, NaN when ||a_j|| == 0
    eps_row_perp: np.ndarray  # ||((I - P) delta)_j|| / ||a_j||, NaN likewise


def rotation_perturbation(q, target_sin, rng):
    """
    Rotate range(q) so every principal angle between the old and new
    bases equals asin(target_sin).

    The new basis is q * cos(theta) + q_perp @ w * sin(theta), where
    q_perp spans a random n-dimensional subspace of the orthogonal
    complement and w is a random rotation. Requires m >= 2n so the
    complement subspace exists, and 0 <= target_sin < 1. Returns the
    perturbed orthonormal matrix itself; subtract q for the additive
    perturbation.
    """
    q = as_matrix(q, "q")
    m, n = q.shape
    check_orthonormal(q, ROTATION_BASIS_TOL, "q")
    if not 0.0 <= target_sin < 1.0:
        raise ValueError(f"target_sin must lie in [0, 1), got {target_sin}")
    if m < 2 * n:
        raise ValueError(
            f"rotation needs m >= 2n for an n-dimensional complement, got {q.shape}"
        )
    if target_sin == 0.0:
        return q.copy()
    rng = make_rng(rng)
    g = rng.standard_normal((m, n))
    q_perp = householder_qr(project_complement(q, g)).q
    w = householder_qr(rng.standard_normal((n, n))).q
    theta = np.arcsin(target_sin)
    return q * np.cos(theta) + (q_perp @ w) * target_sin


def normwise_perturbation(a, eps, norm, rng):
    """
    Gaussian perturbation with exact relative magnitude eps in the
    requested norm ("two" or "fro"): eps * ||a|| * g / ||g||.
    """
    a = as_matrix(a, "a")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if norm not in ("two", "fro"):
        raise ValueError(f"norm must be 'two' or 'fro', got {norm!r}")
    if eps == 0.0:
        return np.zeros_like(a)
    g = make_rng(rng).standard_normal(a.shape)
    if norm == "two":
        return eps * two_norm(a) * g / two_norm(g)
    return eps * np.linalg.norm(a, "fro") * g / np.linalg.norm(g, "fro")


def row_subset_perturbation(a, row_start, row_stop, eps_f, rng):
    """
    Gaussian perturbation supported on rows [row_start, row_stop)
    with ||delta||_F == eps_f * ||a||_F. Rows outside the range are
    exactly zero.
    """
    a = as_matrix(a, "a")
    m = a.shape[0]
    if not (0 <= row_start < row_stop <= m):
        raise ValueError(
            f"row range [{row_start}, {row_stop}) is empty or outside [0, {m})"
        )
    if eps_f < 0:
        raise ValueError("eps_f must be nonnegative")
    delta = np.zeros_like(a)
    if eps_f == 0.0:
        return delta
    g = make_rng(rng).standard_normal((row_stop - row_start, a.shape[1]))
    delta[row_start:row_stop] = g
    delta *= eps_f * np.linalg.norm(a, "fro") / np.linalg.norm(delta, "fro")
    return delta


def same_row_scaling_perturbation(a1, eps_f):
    """
    Deterministic perturbation eps_f * a1 / ||a1||_F. The result has
    Frobenius norm exactly eps_f (normalization is by ||a1||_F, not
    by the norm of the matrix being perturbed) and inherits a1's row
    scaling.
    """
    a1 = as_matrix(a1, "a1")
    if eps_f < 0:
        raise ValueError("eps_f must be nonnegative")
    norm = np.linalg.norm(a1, "fro")
    if norm == 0.0:
        raise ValueError("a1 must be nonzero")
    return eps_f * a1 / norm


def componentwise_row_perturbation(a, eta, rng):
    """
    Row-scaled perturbation: row j of the result is
    zeta_j * eta_j * row j of a, with zeta_j drawn once per row,
    uniform on [-1, 1]. Satisfies |delta_jk| <= eta_j |a_jk| exactly,
    entry by entry.
    """
    a = as_matrix(a, "a")
    m = a.shape[0]
    eta = np.broadcast_to(np.asarray(eta, dtype=np.float64), (m,)).copy()
    if np.any(eta < 0):
        raise ValueError("eta must be nonnegative")
    zeta = make_rng(rng).uniform(-1.0, 1.0, m)
    return (zeta * eta)[:, None] * a


def make_perturbation(spec, a, rng=None):
    """
    Materialize a PerturbationSpec against matrix a, returning the
    additive perturbation delta. For the rotation kind a must be
    orthonormal and delta is (rotated basis) - a.
    """
    rng = make_rng(spec.seed if rng is None else rng)
    if spec.kind == "rotation":
        return rotation_perturbation(a, spec.target_sin, rng) - a
    if spec.kind == "normwise_two":
        return normwise_perturbation(a, spec.eps, "two", rng)
    if spec.kind == "normwise_fro":
        return normwise_perturbation(a, spec.eps, "fro", rng)
    if spec.kind == "row_subset":
        return row_subset_perturbation(a, spec.row_start, spec.row_stop, spec.eps, rng)
    if spec.kind == "same_row_scaling":
        return same_row_scaling_perturbation(a, spec.eps)
    if spec.kind == "componentwise_rows":
        eta = spec.eta if spec.eta is not None else 0.0
        return componentwise_row_perturbation(a, eta, rng)
    raise ValueError(f"unknown perturbation kind {spec.kind!r}")


def measure(a, delta):
    """
    Measure every relative magnitude of a perturbation.

    Parameters
    ----------
    a : (m, n) array_like, m >= n, numerically full rank
    delta : (m, n) array_like

    Returns
    -------
    PerturbationMetrics
        Normwise, projected-normwise, and per-row magnitudes. Rows of
        a with zero norm make the corresponding row magnitudes
        undefined; those entries are NaN.
    """
    a = as_matrix(a, "a")
    delta = as_matrix(delta, "delta")
    if a.shape != delta.shape:
        raise ValueError(
            f"dimension mismatch: a is {a.shape}, delta is {delta.shape}"
        )
    q, _, sigma = full_rank_qr(a)

    a_two = float(sigma[0])
    a_fro = float(np.linalg.norm(a, "fro"))
    perp = project_complement(q, delta)

    a_rows = np.linalg.norm(a, axis=1)
    d_rows = np.linalg.norm(delta, axis=1)
    p_rows = np.linalg.norm(perp, axis=1)
    eps_row = np.full(a_rows.shape, np.nan)
    eps_row_perp = np.full(a_rows.shape, np.nan)
    nz = a_rows > 0.0
    eps_row[nz] = d_rows[nz] / a_rows[nz]
    eps_row_perp[nz] = p_rows[nz] / a_rows[nz]

    return PerturbationMetrics(
        eps_two=two_norm(delta) / a_two,
        eps_fro=float(np.linalg.norm(delta, "fro")) / a_fro,
        eps_two_perp=two_norm(perp) / a_two,
        eps_fro_perp=float(np.linalg.norm(perp, "fro")) / a_fro,
        eps_row=eps_row,
        eps_row_perp=eps_row_perp,
    )
