"""
Per-index evaluators for every leverage-score perturbation bound,
plus the first-order machinery predicting how the QR factors move
under a perturbation.

Bound tags
----------
T1_abs       absolute difference vs. principal angles
T1_sandwich  two-sided enclosure of the perturbed scores (m == 2n)
C1_rel       relative difference vs. principal angles
T2_perp      relative difference vs. projected two-norm perturbation
T2_gen       relative difference vs. general two-norm perturbation
T3_1         relative difference vs. Frobenius perturbation through QR
T3_2         first order, recognizes row scaling (local + global term)
T3_3         first order, projected variant of T3_2
T3_4         first order, row scalings delta = D a (D diagonal),
             recognized by row_scaling_eta

EVALUATORS is the one place that maps a tag to its evaluator and to
the inputs that evaluator reads. Each bound_* evaluator only
evaluates: it reads the scores and the perturbation sizes and returns
the per-index bound, never the observed differences. Before it does,
_check_hypothesis confirms that the bound applies, and the report
carries the quantity, its value and its limit (T1 and C1 hold for any
angles and carry none).

Every rule for checking a bound lives here, keyed by the tag: observed
gives the quantity a tag bounds (the absolute difference for T1_abs,
the relative one for every other tag), and check_policy decides
whether it holds. The exact bounds (T1, C1, T2, T3_1) carry no dropped
terms and must hold outright; T3_2 through T3_4 are first order, so
verification allows the documented outlier slack (99 percent of
indices within the bound, all indices within 10x). FIRST_ORDER_TAGS
lists the tags that take the outlier policy.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, fro_norm, safe_ratio, solve_upper, triu_half, two_norm
from .perturb import as_delta, as_magnitude

FIRST_ORDER_TAGS = ("T3_2", "T3_3", "T3_4")

# Slack for exact bounds and the T1 enclosure: floating-point
# evaluation of both sides only.
EXACT_REL_SLACK = 1e-3
EXACT_ABS_SLACK = 1e-12

# First-order outlier policy.
FIRST_ORDER_HOLD_FRACTION = 0.99
FIRST_ORDER_CAP = 10.0


class HypothesisError(ValueError):
    """Perturbation is too large for the requested bound to apply."""


@dataclass(frozen=True)
class PolicyCheck:
    """Outcome of the bound-holds policy on one set of indices."""

    holds: np.ndarray  # per index; True where observed or bound is NaN
    frac: float        # share of defined indices that hold (NaN if none)
    worst: float       # largest observed / bound over defined indices (NaN if none)
    ok: bool           # the set as a whole passes the policy
    first_order: bool  # the outlier rule applied, not the exact one

    @property
    def violations(self):
        return int(np.count_nonzero(~self.holds))


def observed(theorem, lev, lev_tilde):
    """
    The per-index quantity the theorem tag bounds: |lev_tilde - lev|
    for T1_abs, and |lev_tilde - lev| / lev (NaN where lev <= 0) for
    every other tag.
    """
    lev = np.asarray(lev, dtype=np.float64)
    lev_tilde = np.asarray(lev_tilde, dtype=np.float64)
    if lev.shape != lev_tilde.shape:
        raise ValueError(
            f"length mismatch: lev has shape {lev.shape}, "
            f"lev_tilde has shape {lev_tilde.shape}"
        )
    diff = np.abs(lev_tilde - lev)
    return diff if theorem == "T1_abs" else safe_ratio(diff, lev)


def check_policy(observed, bound, theorem):
    """
    The bound-holds policy, the only reader of its four constants.

    The theorem tag picks the rule: tags in FIRST_ORDER_TAGS are first
    order, every other tag is exact. An exact bound holds at an index when
    observed <= bound * (1 + EXACT_REL_SLACK) + EXACT_ABS_SLACK, and
    passes when it holds at every index. A first-order bound holds at
    an index when observed <= bound, and passes when it holds at
    FIRST_ORDER_HOLD_FRACTION of the indices and observed stays within
    FIRST_ORDER_CAP times the bound everywhere. Indices where either
    side is NaN are undefined: they hold and are left out of frac and
    worst.
    """
    first_order = theorem in FIRST_ORDER_TAGS
    observed = np.asarray(observed, dtype=np.float64)
    bound = np.asarray(bound, dtype=np.float64)
    defined = ~(np.isnan(observed) | np.isnan(bound))
    obs, bnd = observed[defined], bound[defined]
    if first_order:
        within = obs <= bnd
    else:
        within = obs <= bnd * (1.0 + EXACT_REL_SLACK) + EXACT_ABS_SLACK
    holds = np.ones(observed.shape, dtype=bool)
    holds[defined] = within
    if not defined.any():
        return PolicyCheck(holds, math.nan, math.nan, True, first_order)
    frac = float(np.mean(within))
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = float(np.max(obs / bnd))
    if first_order:
        ok = frac >= FIRST_ORDER_HOLD_FRACTION and np.all(obs <= FIRST_ORDER_CAP * bnd)
    else:
        ok = within.all()
    return PolicyCheck(holds, frac, worst, bool(ok), first_order)


# A bound's applicability condition as checked: the quantity's name,
# its value and its limit, e.g. ("max(eta) * kappa2", 1.1e-2, 1).
Hypothesis = namedtuple("Hypothesis", ("quantity", "value", "limit"))


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound, per index."""

    theorem: str
    per_index_bound: np.ndarray
    lower: np.ndarray = None   # sandwich only
    upper: np.ndarray = None   # sandwich only
    hypothesis: Hypothesis = None  # None for T1 and C1, which need none


def _as_scores(lev):
    lev = np.asarray(lev, dtype=np.float64)
    if lev.ndim != 1:
        raise ValueError("leverage scores must be one-dimensional")
    return lev


def bound_t1(lev, angles):
    """
    Absolute-difference bound from principal angles:
    2 sqrt(l (1 - l)) cos(theta_min) sin(theta_max) + sin(theta_max)**2.

    When the ambient dimension is twice the subspace dimension, the
    report also carries the two-sided enclosure of the perturbed
    scores (fields lower/upper, tag T1_sandwich applies to those).
    """
    lev = _as_scores(lev)
    c1 = angles.cos_theta_min
    sn = angles.sin_theta_max
    clipped = np.clip(lev, 0.0, 1.0)
    bound = 2.0 * np.sqrt(clipped * (1.0 - clipped)) * c1 * sn + sn**2
    lower = upper = None
    if lev.shape[0] == 2 * angles.cosines.shape[0]:
        root = np.sqrt(clipped)
        co_root = np.sqrt(1.0 - clipped)
        lower = 1.0 - (sn * root + c1 * co_root) ** 2
        upper = (c1 * root + sn * co_root) ** 2
    return BoundReport("T1_abs", bound, lower, upper)


def sandwich_holds(report, pert_lev):
    """
    Check the two-sided enclosure against perturbed scores, with
    EXACT_ABS_SLACK on either side.
    """
    if report.lower is None or report.upper is None:
        raise ValueError("report carries no sandwich bounds")
    pert_lev = _as_scores(pert_lev)
    low, high = report.lower - EXACT_ABS_SLACK, report.upper + EXACT_ABS_SLACK
    return (pert_lev >= low) & (pert_lev <= high)


def bound_c1(lev, angles):
    """
    Relative-difference bound from principal angles:
    2 sqrt((1 - l)/l) cos(theta_min) sin(theta_max)
    + sin(theta_max)**2 / l.  Indices with l <= 0 are NaN.
    """
    lev = _as_scores(lev)
    c1 = angles.cos_theta_min
    sn = angles.sin_theta_max
    clipped = np.clip(lev, 0.0, 1.0)
    term1 = 2.0 * np.sqrt(safe_ratio(1.0 - clipped, clipped)) * c1 * sn
    bound = term1 + safe_ratio(sn**2, clipped)
    return BoundReport(theorem="C1_rel", per_index_bound=bound)


def _check_hypothesis(product, limit, strict, tag, quantity="||delta||_2 ||pinv(a)||_2"):
    """
    The one applicability check. Raises HypothesisError naming the tag
    and the quantity unless product < limit (strict) or product <= limit;
    a NaN product never applies. Returns the Hypothesis it checked.
    """
    if (product < limit) if strict else (product <= limit):
        return Hypothesis(quantity, float(product), limit)
    rel = "<" if strict else "<="
    raise HypothesisError(f"{tag} needs {quantity} {rel} {limit}, got {product:.3e}")


def bound_t2(lev, stats, metrics):
    """
    Two-norm perturbation bounds; returns the (projected, general)
    pair of reports.

    projected: 4 (sqrt((1-l)/l) + kappa2 eps_perp / l) kappa2 eps_perp
    general:     (2 sqrt((1-l)/l) + kappa2 eps / l) kappa2 eps

    Both require ||delta||_2 ||pinv(a)||_2 <= 1/2.
    """
    lev = _as_scores(lev)
    kappa = stats.kappa2
    hypothesis = _check_hypothesis(metrics.eps_two * kappa, 0.5, False, "T2")
    clipped = np.clip(lev, 0.0, 1.0)
    ratio = np.sqrt(safe_ratio(1.0 - clipped, clipped))

    ke_perp = kappa * metrics.eps_two_perp
    proj = 4.0 * (ratio + safe_ratio(ke_perp, clipped)) * ke_perp
    ke = kappa * metrics.eps_two
    gen = (2.0 * ratio + safe_ratio(ke, clipped)) * ke

    return (
        BoundReport(theorem="T2_perp", per_index_bound=proj, hypothesis=hypothesis),
        BoundReport(theorem="T2_gen", per_index_bound=gen, hypothesis=hypothesis),
    )


def bound_t3_1(lev, stats, metrics):
    """
    Frobenius-perturbation bound through a QR decomposition:
    12 (sqrt((1-l)/l) + 3 kappa2 sqrt(sr) eps_f / l) kappa2 sqrt(sr) eps_f.

    Requires ||delta||_2 ||pinv(a)||_2 <= 1/2. Non-asymptotic: no
    dropped terms.
    """
    lev = _as_scores(lev)
    kappa = stats.kappa2
    hypothesis = _check_hypothesis(metrics.eps_two * kappa, 0.5, False, "T3_1")
    clipped = np.clip(lev, 0.0, 1.0)
    kse = kappa * np.sqrt(stats.stable_rank) * metrics.eps_fro
    ratio = np.sqrt(safe_ratio(1.0 - clipped, clipped))
    bound = 12.0 * (ratio + safe_ratio(3.0 * kse, clipped)) * kse
    return BoundReport(theorem="T3_1", per_index_bound=bound, hypothesis=hypothesis)


def bound_t3_2(stats, metrics):
    """
    First-order bound that recognizes row scaling:
    2 (eps_row_j + sqrt(2) sqrt(sr) eps_f) kappa2.

    No leverage-score dependence. Requires
    ||delta||_2 ||pinv(a)||_2 < 1. Rows with undefined eps_row stay
    NaN.
    """
    kappa = stats.kappa2
    hypothesis = _check_hypothesis(metrics.eps_two * kappa, 1.0, True, "T3_2")
    global_term = np.sqrt(2.0 * stats.stable_rank) * metrics.eps_fro
    bound = 2.0 * (metrics.eps_row + global_term) * kappa
    return BoundReport(theorem="T3_2", per_index_bound=bound, hypothesis=hypothesis)


def bound_t3_3(stats, metrics):
    """
    First-order projected variant of bound_t3_2:
    4 (eps_row_perp_j + sqrt(2) sqrt(sr) eps_f_perp) kappa2.

    Requires ||delta||_2 ||pinv(a)||_2 <= 1/2.
    """
    kappa = stats.kappa2
    hypothesis = _check_hypothesis(metrics.eps_two * kappa, 0.5, False, "T3_3")
    global_term = np.sqrt(2.0 * stats.stable_rank) * metrics.eps_fro_perp
    bound = 4.0 * (metrics.eps_row_perp + global_term) * kappa
    return BoundReport(theorem="T3_3", per_index_bound=bound, hypothesis=hypothesis)


def bound_t3_4(eta, n, kappa2):
    """
    First-order bound for row-scaled perturbations delta = D a, D
    diagonal with |D_jj| <= eta_j: 2 (eta_j + sqrt(2) n max(eta)). It
    does not cover every entrywise |delta_jk| <= eta_j |a_jk|.

    Depends only on the row-scaling factors and the column count,
    not on conditioning or score magnitude; kappa2 enters only the
    applicability condition max(eta) * kappa2 < 1, which is enforced.
    """
    eta = as_magnitude(eta, "eta")
    if eta.ndim != 1:
        raise ValueError("eta must be one-dimensional")
    if eta.size == 0:
        raise ValueError("eta must be nonempty")
    eta_max = float(eta.max())
    hypothesis = _check_hypothesis(eta_max * kappa2, 1, True, "T3_4", "max(eta) * kappa2")
    bound = 2.0 * (eta + np.sqrt(2.0) * n * eta_max)
    return BoundReport(theorem="T3_4", per_index_bound=bound, hypothesis=hypothesis)


# Tag -> evaluator. Each reads, by name, only the inputs its bound
# takes from an experiments.Evaluation: lev, stats, angles, metrics,
# eta and the Factorization f; the T2 tags read t2, the pair that
# bound_t2(lev, stats, metrics) returns, which the record computes once.
# The evaluators call bound_* through this module's globals, so a
# wrapper bound there (a tracer) sees them.
EVALUATORS = {
    "T1_abs": lambda x: bound_t1(x.lev, x.angles),
    "C1_rel": lambda x: bound_c1(x.lev, x.angles),
    "T2_perp": lambda x: x.t2[0],
    "T2_gen": lambda x: x.t2[1],
    "T3_1": lambda x: bound_t3_1(x.lev, x.stats, x.metrics),
    "T3_2": lambda x: bound_t3_2(x.stats, x.metrics),
    "T3_3": lambda x: bound_t3_3(x.stats, x.metrics),
    "T3_4": lambda x: bound_t3_4(x.eta, x.f.r.shape[1], x.stats.kappa2),
}


# fl(d_j a_jk) and c_j a_jk, c_j the ratio at the row's largest |a_jk|, differ
# by 4u |c_j a_jk| + 3 * 2**-1075 (underflow) to first order; allow twice that.
ROW_SCALING_REL_TOL = 2.0**-50  # 8u, u = 2**-53
ROW_SCALING_ABS_TOL = 2.0**-1072


def row_scaling_eta(a, delta):
    """
    The factors eta_j = max_k |delta_jk / a_jk| of delta = D a, D
    diagonal: the class bound_t3_4 covers. A row of delta that is no
    multiple of a's row, within rounding, raises HypothesisError naming
    the worst.
    """
    a = as_matrix(a, "a")
    delta = as_delta(a, delta)
    ratio = np.divide(delta, a, out=np.zeros_like(a), where=a != 0)
    fit = ratio[np.arange(a.shape[0]), np.abs(a).argmax(axis=1)][:, None] * a
    off = np.abs(delta - fit)
    bad = (off > ROW_SCALING_REL_TOL * np.abs(fit) + ROW_SCALING_ABS_TOL).any(axis=1)
    if bad.any():
        departure = safe_ratio(off.max(axis=1), np.abs(delta).max(axis=1))
        j = int(np.argmax(np.where(bad, departure, -1.0)))
        raise HypothesisError(
            f"T3_4 covers delta = D a; row {j} of delta departs from a multiple "
            f"of row {j} of the matrix by {departure[j]:.3e} relative, beyond "
            "rounding. A difference of two matrices carries rounding of order "
            "u |a_jk|: form delta as d[:, None] * a"
        )
    return np.abs(ratio).max(axis=1)


def _triu_sym(f, delta):
    """triu_half(c + c.T) with c = q.T delta r**-1, for a delta as_delta passed."""
    c = solve_upper(f.r, f.q.T @ delta)
    return triu_half(c + c.T)


def rdot_rinv(f, delta):
    """
    Derivative of the triangular QR factor along the perturbation
    direction, right-multiplied by its inverse.

    With f the Factorization a = q r from full_rank_qr and
    eps_f = ||delta||_F / ||a||_F, the result is

        triu_half(q.T delta r**-1 + (q.T delta r**-1).T) / eps_f,

    an upper-triangular matrix whose Frobenius norm never exceeds
    sqrt(2 * stable_rank) * kappa2. A zero delta, which has no
    direction, raises ValueError.
    """
    delta = as_delta(f.a, delta)
    eps_f = fro_norm(delta) / fro_norm(f.a)
    if eps_f == 0.0:
        raise ValueError("delta must be nonzero")
    return _triu_sym(f, delta) / eps_f


def delta_q_first_order(f, delta):
    """
    First-order prediction of the change in the orthonormal QR factor
    of the Factorization f when a is perturbed by delta:

        delta r**-1 - q triu_half(q.T delta r**-1 + (q.T delta r**-1).T),

    which is delta r**-1 - eps_f * q * rdot_rinv(f, delta) for a nonzero
    delta, and zero for a zero one. The residual against the true change
    decays quadratically in the perturbation size. Requires
    ||delta||_2 ||pinv(a)||_2 < 1.
    """
    delta = as_delta(f.a, delta)
    _check_hypothesis(
        two_norm(delta) / float(f.svd_r.sigma[-1]), 1, True, "first-order prediction"
    )
    return solve_upper(f.r, delta) - f.q @ _triu_sym(f, delta)


def qr_q_difference(f, f_tilde):
    """
    True change f_tilde.q - f.q in the orthonormal QR factor, from the
    Factorizations f of a and f_tilde of a + delta, with f_tilde.q's
    column signs aligned to f.q's (the factors are unique up to column
    signs; alignment uses the diagonal of f.q.T f_tilde.q).
    """
    signs = np.where(np.diag(f.q.T @ f_tilde.q) < 0.0, -1.0, 1.0)
    return f_tilde.q * signs - f.q
