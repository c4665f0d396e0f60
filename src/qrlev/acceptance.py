"""
Acceptance suite: thirteen numbered criteria covering the leverage
axioms, oracle agreement, angle formulas, every bound inequality, the
figure-experiment brackets, the first-order QR machinery, the
projected-row counterexample, and run determinism.

Each criterion reads the shared context and returns only its Verdict
(passed, detail, extra). run_all executes all of them against one
master seed (figure brackets are stochastic, so they are validated at
the default seed) and is the one place that numbers and names them: a
criterion's number is its position in CRITERIA and its name the entry
at that position in CRITERION_NAMES, also when it crashes. The CLI
`check` subcommand and tests/test_acceptance.py both drive this module.
"""

import math
import os
import tempfile
import zlib
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .angles import principal_angles, sin_theta_max_projector
from .bounds import (
    EXACT_ABS_SLACK,
    bound_t1,
    check_policy,
    delta_q_first_order,
    observed,
    qr_q_difference,
    rdot_rinv,
    sandwich_holds,
)
from .experiments import (
    ExperimentConfig,
    FIG4_ROWS,
    FIGURE_RUNNERS,
    emit_csv,
    fig4_panels,
    run_figure,
)
from .generate import (
    STEPPED_BLOCKS,
    gaussian_matrix,
    random_orthonormal,
    randsvd_matrix,
)
from .leverage import full_rank_qr, leverage_from_basis
from .linalg import (
    blas_threads,
    fro_norm,
    householder_qr,
    project_complement,
    solve_upper,
)
from .perturb import measure, rotation_perturbation

DEFAULT_SEED = 42

ENSEMBLE_SIZE = 200
ANGLE_PAIRS = 100
SANDWICH_INSTANCES = 50
RDOT_PAIRS = 100

# Decade targets for the block-max relative differences in the
# stepped experiments at perturbation magnitude 1e-8.
BLOCK_MAX_TARGETS = (1e-5, 1e-7, 1e-8, 1e-9)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    extra: dict = None


# What a criterion returns; run_all adds its number and name.
Verdict = namedtuple("Verdict", ("passed", "detail", "extra"), defaults=(None,))


def _rngs(seed, label, count):
    ss = np.random.SeedSequence([seed, zlib.crc32(label.encode())])
    return [np.random.default_rng(c) for c in ss.spawn(count)]


def _figure(ctx, figure):
    """The figure's panels by name, run once per ctx."""
    if figure not in ctx["figures"]:
        panels = FIGURE_RUNNERS[figure](ctx["seed"])
        ctx["figures"][figure] = {p.name: p for p in panels}
    return ctx["figures"][figure]


# --------------------------------------------------------------------------
# criteria


def criterion_1(ctx):
    """Leverage axioms on the random ensemble."""
    worst_low, worst_high, worst_sum = 0.0, 0.0, 0.0
    for lev_q, _, _, n in ctx["ensemble"]:
        worst_low = min(worst_low, float(lev_q.min()))
        worst_high = max(worst_high, float(lev_q.max()))
        worst_sum = max(worst_sum, abs(float(lev_q.sum()) - n) / n)
    passed = worst_low >= -1e-13 and worst_high <= 1 + 1e-13 and worst_sum <= 1e-12
    return Verdict(
        passed,
        f"{len(ctx['ensemble'])} matrices: min {worst_low:.2e}, "
        f"max-1 {worst_high - 1:.2e}, worst |sum-n|/n {worst_sum:.2e}",
    )


def criterion_2(ctx):
    """
    QR vs SVD oracle agreement and basis independence.

    The SVD route is not independent of the QR: its scores are the row
    norms of Q U_r, where U_r comes from the Jacobi SVD of the same
    Householder R. The check therefore covers the Jacobi step and the
    Q U_r product, not the range of Q; tests/test_linalg.py checks the
    range against a Python Jacobi SVD of A itself.
    """
    worst_oracle = max(d for _, d, _, _ in ctx["ensemble"])
    worst_basis = max(b for _, _, b, _ in ctx["ensemble"])
    passed = worst_oracle <= 1e-12 and worst_basis <= 1e-13
    return Verdict(
        passed,
        f"max |lev_qr - lev_svd| {worst_oracle:.2e} (tol 1e-12), "
        f"max basis-rotation diff {worst_basis:.2e} (tol 1e-13)",
    )


def criterion_3(ctx):
    """SVD sine vs projector-norm sine on seeded subspace pairs."""
    rngs = _rngs(ctx["seed"], "angles", ANGLE_PAIRS)
    targets = np.logspace(-9, math.log10(0.9), 60)
    worst = 0.0
    for i, rng in enumerate(rngs):
        n = int(rng.integers(1, 10))
        if i < 60:
            m = int(rng.integers(2 * n, 300))
            q = random_orthonormal(m, n, rng)
            q_tilde = rotation_perturbation(q, float(targets[i]), rng)
        else:
            m = int(rng.integers(n, 300))
            q = random_orthonormal(m, n, rng)
            q_tilde = random_orthonormal(m, n, rng)
        s_svd = principal_angles(q, q_tilde).sin_theta_max
        s_proj = sin_theta_max_projector(q, q_tilde)
        worst = max(worst, abs(s_svd - s_proj))
    passed = worst <= 1e-10
    return Verdict(
        passed,
        f"{ANGLE_PAIRS} pairs (targets down to 1e-9): worst |svd - projector| "
        f"{worst:.2e} (tol 1e-10)",
    )


def criterion_4(ctx):
    """Exact bound inequalities on every figure instance."""
    cases = []
    for p in (_figure(ctx, "fig1")[name] for name in "bcd"):
        cases.append(("C1_rel", "fig1", p.name, p.observed, p.bound))
        # The absolute-difference bound is the relative bound times
        # the score, so it is checked from the same panel.
        t1_observed = observed("T1_abs", p.ell, p.ell_tilde)
        cases.append(("T1_abs", "fig1", p.name, t1_observed, p.bound * p.ell))
    for figure, names in (("fig2", "cdef"), ("fig3", "ab")):
        for p in (_figure(ctx, figure)[name] for name in names):
            cases.append((p.theorem, figure, p.name, p.observed, p.bound))
    violations = []
    for theorem, figure, name, obs, bound in cases:
        n_bad = check_policy(obs, bound, theorem).violations
        if n_bad:
            violations.append(f"{theorem} {figure}/{name}:{n_bad}")
    passed = not violations
    return Verdict(
        passed,
        "zero violations across fig1/fig2/fig3 panels"
        if passed
        else "violations: " + ", ".join(violations),
    )


def criterion_5(ctx):
    """Two-sided enclosure when the ambient dimension is 2n."""
    rngs = _rngs(ctx["seed"], "sandwich", SANDWICH_INSTANCES + 1)
    targets = np.logspace(-8, math.log10(0.9), SANDWICH_INSTANCES)
    all_hold = True
    worst_excess = 0.0
    for rng, target in zip(rngs[:-1], targets):
        q = random_orthonormal(50, 25, rng)
        q_tilde = rotation_perturbation(q, float(target), rng)
        lev = leverage_from_basis(q)
        lev_tilde = leverage_from_basis(q_tilde)
        report = bound_t1(lev, principal_angles(q, q_tilde))
        if not sandwich_holds(report, lev_tilde).all():
            all_hold = False
        excess = max(
            float(np.max(report.lower - lev_tilde)),
            float(np.max(lev_tilde - report.upper)),
        )
        worst_excess = max(worst_excess, excess)

    # Perturbed range equal to the orthogonal complement: scores flip.
    # One projection of a Gaussian can be ill conditioned (kappa 7.8e3
    # at seed 42), which leaves range(q) in the basis at kappa * eps;
    # projecting and factoring again ("twice is enough") leaves the
    # error to the flip identity itself.
    rng = rngs[-1]
    q = random_orthonormal(50, 25, rng)
    comp = gaussian_matrix(50, 25, rng)
    for _ in range(2):
        comp = householder_qr(project_complement(q, comp)).q
    flip_err = float(
        np.max(np.abs(leverage_from_basis(comp) - (1.0 - leverage_from_basis(q))))
    )
    passed = all_hold and flip_err <= 1e-12
    return Verdict(
        passed,
        f"{SANDWICH_INSTANCES} instances: worst enclosure excess {worst_excess:.2e} "
        f"(slack {EXACT_ABS_SLACK:g}); complement flip error {flip_err:.2e} (tol 1e-12)",
    )


def criterion_6(ctx):
    """First-order bounds at magnitude 1e-8 with the outlier policy."""
    failures = []
    details = []
    for figure, panels in (
        ("fig4", _figure(ctx, "fig4")),
        ("fig4", ctx["fig4_t3_3"]),
        ("fig5", _figure(ctx, "fig5")),
    ):
        for p in (panels["a"], panels["b"]):
            check = check_policy(p.observed, p.bound, p.theorem)
            details.append(
                f"{p.theorem}/{p.name} frac {check.frac:.3f} worst {check.worst:.2f}"
            )
            if not check.ok:
                failures.append(f"{p.theorem} {figure}/{p.name}")
    passed = not failures
    return Verdict(
        passed,
        "; ".join(details) + ("" if passed else " FAILED: " + ",".join(failures)),
    )


def _block_maxes(rel):
    return [float(np.nanmax(rel[b])) for b in STEPPED_BLOCKS]


def _decade_profile(rel):
    """Block maxima of rel, and whether each is within a decade of its target."""
    maxes = _block_maxes(rel)
    return maxes, all(t / 10 <= m <= t * 10 for m, t in zip(maxes, BLOCK_MAX_TARGETS))


def criterion_7(ctx):
    """Figure 1 block-max decade profile and panel scaling."""
    fig1 = _figure(ctx, "fig1")
    maxes_b, decade_ok = _decade_profile(fig1["b"].observed)
    maxes_c = _block_maxes(fig1["c"].observed)
    ratios = [mc / mb for mc, mb in zip(maxes_c, maxes_b)]
    ratios_ok = [10 <= r <= 1000 for r in ratios]
    passed = decade_ok and all(ratios_ok)
    return Verdict(
        passed,
        f"block maxes {['%.1e' % m for m in maxes_b]} vs targets "
        f"{['%.0e' % t for t in BLOCK_MAX_TARGETS]}; "
        f"panel c/b ratios {['%.0f' % r for r in ratios]} (need [10, 1000])",
    )


def criterion_8(ctx):
    """Figure 3 decade profile and accuracy loss at 1e-5."""
    fig3 = _figure(ctx, "fig3")
    maxes_a, decade_ok = _decade_profile(fig3["a"].observed)
    smallest_block_max = float(np.nanmax(fig3["b"].observed[STEPPED_BLOCKS[0]]))
    passed = decade_ok and smallest_block_max >= 0.1
    return Verdict(
        passed,
        f"block maxes at 1e-8 {['%.1e' % m for m in maxes_a]}; smallest-block "
        f"max at 1e-5 is {smallest_block_max:.2e} (need >= 0.1)",
        extra={"decade_ok": decade_ok, "loss": smallest_block_max},
    )


def criterion_9(ctx):
    """Figure 4 locality and row-scaling uniformity."""
    fig4 = _figure(ctx, "fig4")
    rel_a = fig4["a"].observed
    pert = float(np.nanmax(rel_a[FIG4_ROWS]))
    unpert = float(np.nanmax(np.delete(rel_a, FIG4_ROWS)))
    ratio = pert / unpert
    # "Span" of panel (b) is read over the central 90 percent of rows:
    # the extreme min of |N(0, s)|-like samples is arbitrarily small,
    # so a strict min/max span is unbounded for any sample this size.
    q5, q95 = np.nanquantile(fig4["b"].observed, [0.05, 0.95])
    span = float(q95 / q5)
    passed = ratio >= 10.0 and span <= 100.0
    return Verdict(
        passed,
        f"perturbed/unperturbed max ratio {ratio:.0f} (need >= 10); "
        f"panel b p95/p5 span {span:.1f} (need <= 100)",
    )


def criterion_10(ctx):
    """Figure 5 independence from conditioning and score size."""
    fig5 = _figure(ctx, "fig5")
    rel_a, rel_b = fig5["a"].observed, fig5["b"].observed
    med_a = float(np.nanmedian(rel_a))
    med_b = float(np.nanmedian(rel_b))
    cond_ratio = max(med_a, med_b) / min(med_a, med_b)
    block_ok = True
    block_spreads = []
    for rel in (rel_a, rel_b):
        meds = [float(np.nanmedian(rel[b])) for b in STEPPED_BLOCKS]
        spread = max(meds) / min(meds)
        block_spreads.append(spread)
        block_ok = block_ok and spread <= 10.0
    passed = cond_ratio <= 10.0 and block_ok
    return Verdict(
        passed,
        f"medians {med_a:.2e} vs {med_b:.2e} (ratio {cond_ratio:.2f}, need <= 10); "
        f"block-median spreads {['%.2f' % s for s in block_spreads]} (need <= 10)",
    )


def criterion_11(ctx):
    """Triangular-derivative norm bound, quadratic decay, FD order."""
    rngs = _rngs(ctx["seed"], "rdot", RDOT_PAIRS + 2)
    worst_ratio = 0.0
    for rng in rngs[:RDOT_PAIRS]:
        n = int(rng.integers(2, 11))
        m = int(rng.integers(n, 61))
        kappa = 10.0 ** rng.uniform(0, 3)
        a = randsvd_matrix(m, n, kappa, rng)
        delta = 1e-6 * fro_norm(a) * gaussian_matrix(m, n, rng)
        f = full_rank_qr(a)
        rr = rdot_rinv(f, delta)
        stats = f.stats
        limit = math.sqrt(2.0 * stats.stable_rank) * stats.kappa2
        worst_ratio = max(worst_ratio, fro_norm(rr) / limit)
    norm_ok = worst_ratio <= 1.0 + 1e-10

    # Quadratic decay of the first-order residual and the finite-difference
    # derivative of r, both read from one factorization of a + t * direction.
    rng = rngs[RDOT_PAIRS]
    a = randsvd_matrix(60, 12, 50.0, rng)
    direction = gaussian_matrix(60, 12, rng)
    direction *= fro_norm(a) / fro_norm(direction)
    f = full_rank_qr(a)
    formula = rdot_rinv(f, direction)  # direction has eps_f == 1
    residuals, fd_errors = [], []
    for t in (1e-4, 1e-5):
        delta = t * direction
        f_t = full_rank_qr(a + delta)
        q_change = qr_q_difference(f, f_t)
        residuals.append(fro_norm(q_change - delta_q_first_order(f, delta)))
        fd_errors.append(fro_norm(solve_upper(f.r, (f_t.r - f.r) / t) - formula))

    decay_ratio = residuals[0] / residuals[1]
    decay_ok = 30.0 <= decay_ratio <= 300.0
    order = math.log10(fd_errors[0] / fd_errors[1])
    order_ok = order >= 0.9

    passed = norm_ok and decay_ok and order_ok
    return Verdict(
        passed,
        f"{RDOT_PAIRS} pairs: worst norm/limit {worst_ratio:.4f} (<= 1); "
        f"decay ratio {decay_ratio:.0f} (need [30, 300]); "
        f"FD convergence order {order:.2f} (need >= 0.9)",
    )


def criterion_12(ctx):
    """Projected row magnitude can exceed the raw one: exact instance."""
    a = 0.5 * np.array([[1, 1], [1, -1], [1, 1], [1, -1.0]])
    delta = np.array([[1, 1], [0, 0], [0, 0], [0, 0.0]])
    metrics = measure(full_rank_qr(a), delta)
    err_row = abs(metrics.eps_row[2])
    err_perp = abs(metrics.eps_row_perp[2] - 1.0)
    passed = err_row <= 1e-14 and err_perp <= 1e-14
    return Verdict(
        passed,
        f"eps_row[2] = {metrics.eps_row[2]:.2e} (want 0), "
        f"eps_row_perp[2] - 1 = {metrics.eps_row_perp[2] - 1:.2e} (tol 1e-14)",
    )


def criterion_13(ctx):
    """Byte-identical CSV from repeated runs at one seed."""
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        # The first run is the one the other criteria read from ctx.
        earlier = os.path.join(tmp, "earlier.csv")
        emit_csv(list(_figure(ctx, "fig1").values()), earlier)
        cfg = ExperimentConfig(figure="fig1", seed=ctx["seed"], output_dir=tmp)
        _, csv_path, _ = run_figure(cfg, assert_bounds=False)
        for path in (earlier, csv_path):
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    passed = blobs[0] == blobs[1]
    return Verdict(
        passed,
        f"two fig1 runs at seed {ctx['seed']}: CSV bytes "
        + ("identical" if passed else "differ"),
    )


def _ensemble_item(a, rng):
    """
    Criterion 1 and 2 statistics of one ensemble matrix from a single
    factorization: the QR scores come from q, the SVD scores from
    q @ svd_r.u (bit for bit what leverage_svd computes), and the
    basis-rotation check reuses q. Returns (lev_q, oracle_diff,
    basis_diff, n).
    """
    n = a.shape[1]
    f = full_rank_qr(a)
    lev_q = leverage_from_basis(f.q)
    u = f.q @ f.svd_r.u
    lev_s = np.einsum("ij,ij->i", u, u)
    oracle_diff = float(np.max(np.abs(lev_q - lev_s)))
    w = random_orthonormal(n, n, rng)
    basis_diff = float(np.max(np.abs(leverage_from_basis(f.q @ w) - lev_q)))
    return lev_q, oracle_diff, basis_diff, n


def _build_ensemble(seed):
    """Random full-rank matrices with m <= 1000, n <= 25, kappa <= 1e6."""
    rngs = _rngs(seed, "ensemble", ENSEMBLE_SIZE)
    items = []
    for i, rng in enumerate(rngs):
        n = int(rng.integers(1, 26))
        m = int(rng.integers(n, 1001))
        if i % 2 == 0:
            a = gaussian_matrix(m, n, rng)
        else:
            kappa = 10.0 ** rng.uniform(0, 6)
            a = randsvd_matrix(m, n, kappa, rng)
        items.append(_ensemble_item(a, rng))
    return items


# The order of CRITERIA is the criteria's numbering, and
# CRITERION_NAMES holds their names in that order.
CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
)

CRITERION_NAMES = (
    "leverage axioms",
    "oracle equivalence",
    "angle-formula equivalence",
    "exact bound inequalities",
    "m=2n sandwich",
    "first-order bounds",
    "figure 1 brackets",
    "figure 3 brackets",
    "figure 4 locality",
    "figure 5 independence",
    "first-order machinery",
    "projected-row counterexample",
    "determinism",
)


def run_all(seed=DEFAULT_SEED):
    """
    Run every acceptance criterion at one BLAS thread
    (linalg.blas_threads); returns one CriterionResult per criterion,
    numbered by its position in CRITERIA and named from
    CRITERION_NAMES. A criterion that raises is reported as failed under
    that name, with the exception's repr as its detail.
    """
    with blas_threads(1):
        # One fig4 run serves criterion 6's T3_2 and T3_3 checks and criterion 9.
        fig4, fig4_t3_3 = fig4_panels(seed, ("T3_2", "T3_3"))
        ctx = {
            "seed": seed,
            "figures": {"fig4": {p.name: p for p in fig4}},
            "ensemble": _build_ensemble(seed),
            "fig4_t3_3": {p.name: p for p in fig4_t3_3},
        }
        results = []
        criteria = zip(CRITERIA, CRITERION_NAMES, strict=True)
        for number, (fn, name) in enumerate(criteria, start=1):
            try:
                verdict = fn(ctx)
            except Exception as exc:  # a crashed criterion is a failed criterion
                verdict = Verdict(False, repr(exc))
            results.append(CriterionResult(number, name, *verdict))
    return results
