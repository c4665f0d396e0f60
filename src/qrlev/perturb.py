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

This module holds the two checks of the perturbation contract, which
every other module calls rather than writing its own: as_delta, that a
perturbation delta is finite and has the shape of its matrix, and
as_magnitude, that a perturbation magnitude (eps, eps_f, eta) is finite
and nonnegative.
"""

from dataclasses import dataclass

import numpy as np

from .generate import random_orthonormal
from .io import check_json_type
from .linalg import (
    BASIS_TOL,
    _project_out,
    as_matrix,
    check_orthonormal,
    fro_norm,
    householder_qr,
    project_complement,
    row_norms,
    safe_ratio,
    two_norm,
)

# The fields each perturbation kind reads besides "kind", with the
# JSON type of each; a recipe carries exactly these. The random stream
# is not part of a recipe: make_perturbation takes it separately. eta
# may be a scalar (broadcast over rows) or a length-m array.
PERTURBATION_FIELDS = {
    "rotation": {"target_sin": float},
    "normwise_two": {"eps": float},
    "normwise_fro": {"eps": float},
    "row_subset": {"eps": float, "row_start": int, "row_stop": int},
    "same_row_scaling": {"eps": float},
    "componentwise_rows": {"eta": float | list[float]},
}


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
    check_orthonormal(q, BASIS_TOL, "q")
    if not 0.0 <= target_sin < 1.0:
        raise ValueError(f"target_sin must lie in [0, 1), got {target_sin}")
    if m < 2 * n:
        raise ValueError(
            f"rotation needs m >= 2n for an n-dimensional complement, got {q.shape}"
        )
    if target_sin == 0.0:
        return q.copy()
    rng = np.random.default_rng(rng)  # one stream for both draws
    g = rng.standard_normal((m, n))
    q_perp = householder_qr(_project_out(q, g)).q
    w = random_orthonormal(n, n, rng)
    theta = np.arcsin(target_sin)
    return q * np.cos(theta) + (q_perp @ w) * target_sin


def normwise_perturbation(a, eps, norm, rng):
    """
    Gaussian perturbation with exact relative magnitude eps in the
    requested norm ("two" or "fro"): eps * ||a|| * g / ||g||.
    """
    a = as_matrix(a, "a")
    eps = as_magnitude(eps, "eps")
    if norm not in ("two", "fro"):
        raise ValueError(f"norm must be 'two' or 'fro', got {norm!r}")
    if eps == 0.0:
        return np.zeros_like(a)
    g = np.random.default_rng(rng).standard_normal(a.shape)
    if norm == "two":
        return eps * two_norm(a) * g / two_norm(g)
    return eps * fro_norm(a) * g / fro_norm(g)


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
    eps_f = as_magnitude(eps_f, "eps_f")
    delta = np.zeros_like(a)
    if eps_f == 0.0:
        return delta
    g = np.random.default_rng(rng).standard_normal((row_stop - row_start, a.shape[1]))
    delta[row_start:row_stop] = g
    delta *= eps_f * fro_norm(a) / fro_norm(delta)
    return delta


def same_row_scaling_perturbation(a1, eps_f):
    """
    Deterministic perturbation eps_f * a1 / ||a1||_F. The result has
    Frobenius norm exactly eps_f (normalization is by ||a1||_F, not
    by the norm of the matrix being perturbed) and inherits a1's row
    scaling.
    """
    a1 = as_matrix(a1, "a1")
    eps_f = as_magnitude(eps_f, "eps_f")
    norm = fro_norm(a1)
    if norm == 0.0:
        raise ValueError("a1 must be nonzero")
    return eps_f * a1 / norm


def componentwise_row_perturbation(a, eta, rng):
    """
    Row-scaled perturbation delta = D a, the class T3_4 covers: row j
    of the result is zeta_j * eta_j * row j of a, with zeta_j drawn
    once per row, uniform on [-1, 1], so D = diag(zeta * eta) and
    |delta_jk| <= eta_j |a_jk| entry by entry. eta is one number for
    every row or one per row.
    """
    a = as_matrix(a, "a")
    m = a.shape[0]
    eta = as_magnitude(eta, "eta")
    if eta.ndim > 1 or eta.size not in (1, m):
        raise ValueError(f"eta has shape {eta.shape}, the matrix {m} rows")
    zeta = np.random.default_rng(rng).uniform(-1.0, 1.0, m)
    return (zeta * eta)[:, None] * a


def make_perturbation(recipe, a, rng):
    """
    Materialize a JSON perturbation recipe, {"kind": ...} plus exactly
    the fields PERTURBATION_FIELDS lists for that kind, against matrix
    a with the given seed or Generator, returning the additive
    perturbation delta. For the rotation kind a must be orthonormal
    and delta is (rotated basis) - a. A recipe that is not an object,
    names an unknown kind, lacks or adds a field, or holds a value of
    the wrong JSON type raises ValueError.
    """
    if not isinstance(recipe, dict):
        raise ValueError(
            f"a perturbation recipe is a JSON object, got {type(recipe).__name__}"
        )
    kind = recipe.get("kind")
    if not isinstance(kind, str) or kind not in PERTURBATION_FIELDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    fields = PERTURBATION_FIELDS[kind]
    missing = [f for f in fields if f not in recipe]
    if missing:
        raise ValueError(f"{kind} needs {', '.join(missing)}")
    unread = sorted(set(recipe) - {"kind", *fields})
    if unread:
        raise ValueError(f"{kind} does not read {', '.join(unread)}")
    for name, expected in fields.items():
        check_json_type(recipe[name], expected, f"{kind} {name}")
    if kind == "rotation":
        return rotation_perturbation(a, recipe["target_sin"], rng) - a
    if kind == "normwise_two":
        return normwise_perturbation(a, recipe["eps"], "two", rng)
    if kind == "normwise_fro":
        return normwise_perturbation(a, recipe["eps"], "fro", rng)
    if kind == "row_subset":
        return row_subset_perturbation(
            a, recipe["row_start"], recipe["row_stop"], recipe["eps"], rng
        )
    if kind == "same_row_scaling":
        return same_row_scaling_perturbation(a, recipe["eps"])
    return componentwise_row_perturbation(a, recipe["eta"], rng)


def as_magnitude(x, name):
    """
    The one check of a perturbation magnitude: x (a number or an array)
    as float64, refused with ValueError naming the first bad entry
    unless every entry is finite and nonnegative.
    """
    x = np.asarray(x, dtype=np.float64)
    bad = ~((x >= 0.0) & (x < np.inf))
    if bad.any():
        raise ValueError(f"{name} must be nonnegative and finite, got {x[bad][0]}")
    return x


def as_delta(a, delta):
    """
    The one check of a perturbation delta of the matrix a: delta
    through linalg.as_matrix (2-d, nonempty, finite), checked to have
    a's shape.
    """
    delta = as_matrix(delta, "delta")
    if a.shape != delta.shape:
        raise ValueError(f"dimension mismatch: a is {a.shape}, delta is {delta.shape}")
    return delta


def measure(f, delta):
    """
    Every relative magnitude of delta as a perturbation of a = f.a,
    read from f, the Factorization of a that leverage.full_rank_qr
    returns; a is not factored again. Rows of a with zero norm make
    their row magnitudes undefined: those entries are NaN.
    """
    delta = as_delta(f.a, delta)
    a_two = float(f.svd_r.sigma[0])
    a_fro = fro_norm(f.a)
    perp = project_complement(f.q, delta)
    a_rows = row_norms(f.a)
    return PerturbationMetrics(
        eps_two=two_norm(delta) / a_two,
        eps_fro=fro_norm(delta) / a_fro,
        eps_two_perp=two_norm(perp) / a_two,
        eps_fro_perp=fro_norm(perp) / a_fro,
        eps_row=safe_ratio(row_norms(delta), a_rows),
        eps_row_perp=safe_ratio(row_norms(perp), a_rows),
    )
