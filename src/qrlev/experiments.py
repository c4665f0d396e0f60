"""
Reproduction harness for the five figure experiments, with CSV and
SVG emission.

Each figure is a fixed recipe whose only input is a seed; every other
parameter is a literal or named constant in its runner. A runner
generates its matrices and perturbations from that seed (sub-streams
are spawned in a fixed documented order, so equal seeds give
byte-identical CSV output), evaluates the figure's bound at every
index, and returns one FigurePanel per panel: per-index columns ell,
ell_tilde, observed (the quantity bounds.observed gives for the
panel's theorem) and bound, where row j of the CSV is index j. Every
runner evaluates its bounds through an Evaluation, the one record of
what a tag reads.

Figure map
----------
fig1  stepped orthonormal matrix, rotation perturbations with
      sin(theta_max) = 1e-8 / 1e-6 / 1e-4; C1_rel bound
      (panel a: leverage scores, panels b-d: the three targets).
fig2  stepped orthonormal and ill-conditioned matrices under a
      two-norm Gaussian perturbation eps = 1e-8; T2_gen bound in
      panels c/d and T2_perp in panels e/f (a/b: scores).
fig3  Frobenius Gaussian perturbations eps_f = 1e-8 (a) and
      1e-5 (b); T3_1 bound.
fig4  eps_f = 1e-8 supported on FIG4_ROWS, the third row block
      (rows 500..749) (a); and ||dA||_F = 1e-8 in absolute terms with
      the stepped Gaussian's row scaling, not A's (b), which relative
      to ||A||_F = 5 is eps_f = 2e-9; T3_2 bound. fig4_panels
      evaluates several tags on one run (acceptance adds T3_3).
fig5  componentwise row-scaled perturbations with eta_j = 1e-8 on
      the well- and ill-conditioned matrices; T3_4 bound.

The ill-conditioned matrix of fig2 and fig5 has a core with condition
number generate.STEPPED_KAPPA = 1e6.
"""

import logging
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import svgplot
from .angles import principal_angles
from .bounds import EVALUATORS, bound_t2, check_policy, observed, row_scaling_eta
from .generate import (
    STEPPED_BLOCKS,
    stepped_gaussian,
    stepped_illconditioned,
    stepped_orthonormal,
)
from .io import format_float
from .leverage import full_rank_qr, leverage_from_basis, leverage_qr, matrix_stats
from .linalg import blas_threads
from .perturb import (
    as_delta,
    componentwise_row_perturbation,
    measure,
    normwise_perturbation,
    rotation_perturbation,
    row_subset_perturbation,
    same_row_scaling_perturbation,
)

logger = logging.getLogger(__name__)

CSV_HEADER = ("panel", "j", "ell", "ell_tilde", "observed", "bound", "theorem")

# Theorem tag of panels that carry leverage scores rather than differences.
SCORES_TAG = "levscores"

# Rows that carry fig4's panel-a perturbation.
FIG4_ROWS = STEPPED_BLOCKS[2]


class BoundViolationError(AssertionError):
    """Observed differences exceeded a bound beyond its slack policy."""


@dataclass
class ExperimentConfig:
    figure: str
    seed: int
    output_dir: str = "."

    def __post_init__(self):
        if self.figure not in FIGURES:
            raise ValueError(f"unknown figure {self.figure!r}; choose from {FIGURES}")
        if self.seed is None:
            raise ValueError("seed is required; runs carry no implicit entropy")


@dataclass(frozen=True, eq=False)
class FigurePanel:
    """
    One figure panel as per-index columns; row j of the CSV is index j.
    Score panels carry SCORES_TAG and NaN in ell_tilde, observed and
    bound.
    """

    name: str
    theorem: str
    ell: np.ndarray
    ell_tilde: np.ndarray
    observed: np.ndarray
    bound: np.ndarray

    @classmethod
    def scores(cls, name, lev):
        nan = np.full(lev.shape, np.nan)
        return cls(name, SCORES_TAG, lev, nan, nan, nan)

    @classmethod
    def from_report(cls, name, lev, lev_tilde, report):
        diff = observed(report.theorem, lev, lev_tilde)
        return cls(name, report.theorem, lev, lev_tilde, diff, report.per_index_bound)


class Evaluation:
    """
    What the bounds read of one perturbation delta of the matrix a that
    f, its Factorization from full_rank_qr, holds. Each input (f_tilde,
    the Factorization of a + delta, and what an evaluator in
    bounds.EVALUATORS reads: lev, lev_tilde, stats, angles, metrics,
    eta, t2) is computed on first read, at most once, unless the caller
    passes it in by name; any other name raises TypeError. delta is
    checked on construction (perturb.as_delta): a delta that is not finite
    or not of f.a's shape raises ValueError. The runners pass lev in,
    so that the panels of one matrix share one array, which emit_csv
    formats once.
    """

    f_tilde = cached_property(lambda self: full_rank_qr(self.f.a + self.delta))
    lev = cached_property(lambda self: leverage_from_basis(self.f.q))
    lev_tilde = cached_property(lambda self: leverage_from_basis(self.f_tilde.q))
    stats = cached_property(lambda self: self.f.stats)
    angles = cached_property(lambda self: principal_angles(self.f.q, self.f_tilde.q))
    metrics = cached_property(lambda self: measure(self.f, self.delta))
    eta = cached_property(lambda self: row_scaling_eta(self.f.a, self.delta))
    # Both T2 reports, which bound_t2 computes together; each T2 tag takes its own.
    t2 = cached_property(lambda self: bound_t2(self.lev, self.stats, self.metrics))

    def __init__(self, f, delta, **given):
        for name in given:
            if not isinstance(getattr(Evaluation, name, None), cached_property):
                raise TypeError(f"Evaluation has no input {name!r}")
        self.f, self.delta = f, as_delta(f.a, delta)
        vars(self).update(given)

    def panel(self, name, tag):
        """The FigurePanel called name under the bound of theorem tag."""
        report = EVALUATORS[tag](self)
        return FigurePanel.from_report(name, self.lev, self.lev_tilde, report)


def _spawn_rngs(seed, count):
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(c) for c in children]


def run_fig1(seed):
    """
    Rotation perturbations of the stepped orthonormal matrix. The
    perturbed basis and the angles are taken from the exact rotation
    q_tilde, not from a + (q_tilde - a) and f.q.
    """
    targets = (1e-8, 1e-6, 1e-4)
    rngs = _spawn_rngs(seed, 1 + len(targets))
    a = stepped_orthonormal(rngs[0])
    f = full_rank_qr(a)
    lev = leverage_from_basis(f.q)
    panels = [FigurePanel.scores("a", lev)]
    for k, target in enumerate(targets):
        panel = chr(ord("b") + k)
        q_tilde = rotation_perturbation(a, target, rngs[1 + k])
        ev = Evaluation(
            f, q_tilde - a, lev=lev, angles=principal_angles(a, q_tilde),
            f_tilde=full_rank_qr(q_tilde),
        )
        logger.info(
            "fig1 panel %s: target sin %.3e, measured sin %.6e",
            panel, target, ev.angles.sin_theta_max,
        )
        panels.append(ev.panel(panel, "C1_rel"))
        del ev  # frees its f_tilde before the next panel is built
    return panels


def run_fig2(seed):
    """Two-norm Gaussian perturbations of both stepped matrices."""
    eps = 1e-8
    rngs = _spawn_rngs(seed, 4)
    mats = [
        ("a", "c", "e", stepped_orthonormal(rngs[0]), rngs[2]),
        ("b", "d", "f", stepped_illconditioned(rngs[1]), rngs[3]),
    ]
    panels = []
    for score_panel, gen_panel, perp_panel, mat, rng in mats:
        delta = normwise_perturbation(mat, eps, "two", rng)
        # lev and stats factor mat again: perfbench's
        # test_fig2_factorization_tally pins those calls.
        ev = Evaluation(
            full_rank_qr(mat), delta, lev=leverage_qr(mat), stats=matrix_stats(mat)
        )
        logger.info(
            "fig2 matrix %s: kappa2 %.3e, eps_two %.3e, measured eps_two_perp %.3e",
            score_panel, ev.stats.kappa2, ev.metrics.eps_two, ev.metrics.eps_two_perp,
        )
        panels.append(FigurePanel.scores(score_panel, ev.lev))
        panels.append(ev.panel(gen_panel, "T2_gen"))
        panels.append(ev.panel(perp_panel, "T2_perp"))
        del ev  # frees its f_tilde before the next matrix is built
    # Emit in panel order a, b, c, d, e, f.
    panels.sort(key=lambda p: p.name)
    return panels


def run_fig3(seed):
    """Frobenius Gaussian perturbations at two magnitudes."""
    eps_fs = (1e-8, 1e-5)
    rngs = _spawn_rngs(seed, 1 + len(eps_fs))
    a = stepped_orthonormal(rngs[0])
    f = full_rank_qr(a)
    lev = leverage_from_basis(f.q)
    panels = []
    for k, eps_f in enumerate(eps_fs):
        panel = chr(ord("a") + k)
        delta = normwise_perturbation(a, eps_f, "fro", rngs[1 + k])
        ev = Evaluation(f, delta, lev=lev)
        logger.info(
            "fig3 panel %s: kappa2 %.3e, eps_fro %.3e",
            panel, ev.stats.kappa2, ev.metrics.eps_fro,
        )
        panels.append(ev.panel(panel, "T3_1"))
        del ev  # frees its f_tilde before the next panel is built
    return panels


def fig4_panels(seed, tags):
    """
    The fig4 experiment under the bound of each theorem tag: a
    Frobenius perturbation of size eps_f = 1e-8 on FIG4_ROWS (panel a),
    and (panel b) the stepped Gaussian scaled to ||dA||_F = 1e-8 in
    absolute terms, so it carries that matrix's row scaling rather than
    A's and, with ||A||_F = 5, has eps_f = 2e-9 relative to A. Returns
    one panel list per tag; every tag reads the same Evaluation of each
    panel, and A is factored once.
    """
    eps_f = 1e-8
    rngs = _spawn_rngs(seed, 3)
    a = stepped_orthonormal(rngs[0])
    f = full_rank_qr(a)
    lev = leverage_from_basis(f.q)

    rows = FIG4_ROWS
    deltas = [
        ("a", row_subset_perturbation(a, rows.start, rows.stop, eps_f, rngs[1])),
        ("b", same_row_scaling_perturbation(stepped_gaussian(rngs[2]), eps_f)),
    ]
    per_tag = [[] for _ in tags]
    for panel, delta in deltas:
        ev = Evaluation(f, delta, lev=lev)
        logger.info(
            "fig4 panel %s: eps_fro %.3e, max eps_row %.3e",
            panel, ev.metrics.eps_fro, np.nanmax(ev.metrics.eps_row),
        )
        for panels, tag in zip(per_tag, tags):
            panels.append(ev.panel(panel, tag))
    return per_tag


def run_fig4(seed):
    """Row-localized and row-scaled Frobenius perturbations; T3_2 bound."""
    return fig4_panels(seed, ("T3_2",))[0]


def run_fig5(seed):
    """
    Componentwise row-scaled perturbations on both matrices. The bound
    reads the class eta = 1e-8, not the measured |d_j| <= eta.
    """
    rngs = _spawn_rngs(seed, 4)
    mats = [
        ("a", stepped_orthonormal(rngs[0]), rngs[2]),
        ("b", stepped_illconditioned(rngs[1]), rngs[3]),
    ]
    panels = []
    for panel, mat, rng in mats:
        eta = np.full(mat.shape[0], 1e-8)
        delta = componentwise_row_perturbation(mat, eta, rng)
        ev = Evaluation(full_rank_qr(mat), delta, eta=eta)
        logger.info(
            "fig5 panel %s: kappa2 %.3e, max(eta) * kappa2 %.3e",
            panel, ev.stats.kappa2, eta.max() * ev.stats.kappa2,
        )
        panels.append(ev.panel(panel, "T3_4"))
        del ev  # frees its f_tilde before the next panel is built
    return panels


FIGURE_RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
}

FIGURES = tuple(FIGURE_RUNNERS)


def verify_rows(panels):
    """
    Enforce the bound-holds invariant on a figure's panels under
    bounds.check_policy: exact bounds allow floating-point slack only,
    first-order bounds follow the outlier policy. Raises
    BoundViolationError on failure.
    """
    for p in panels:
        if p.theorem == SCORES_TAG:
            continue
        check = check_policy(p.observed, p.bound, p.theorem)
        if check.ok:
            continue
        if check.first_order:
            raise BoundViolationError(
                f"panel {p.name}: first-order bound {p.theorem} held at "
                f"{check.frac:.4f} of indices (worst ratio {check.worst:.2f})"
            )
        raise BoundViolationError(
            f"panel {p.name}: exact bound {p.theorem} violated at "
            f"{check.violations} indices (worst ratio {check.worst:.6g})"
        )


def emit_csv(panels, path):
    """
    Write panels to CSV with round-trip float precision (NaN -> empty).
    No field needs CSV quoting: panel names, theorem tags and float
    strings hold no comma, double quote, CR or LF. Each array is
    formatted once per call, so columns that panels share (lev, the NaN
    columns of score panels) are formatted once.
    """
    texts = {}

    def column(values):
        key = id(values)
        if key not in texts:
            # x != x holds for NaN alone.
            texts[key] = ["" if x != x else format_float(x) for x in values.tolist()]
        return texts[key]

    lines = [",".join(CSV_HEADER) + "\n"]
    for p in panels:
        name, theorem = p.name, p.theorem
        columns = zip(
            column(p.ell), column(p.ell_tilde), column(p.observed), column(p.bound)
        )
        lines.extend(
            f"{name},{j},{a},{b},{c},{d},{theorem}\n"
            for j, (a, b, c, d) in enumerate(columns)
        )
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def _points(values):
    """Indices and values of the defined (non-NaN) entries."""
    defined = ~np.isnan(values)
    return np.flatnonzero(defined), values[defined]


def emit_svg(panels, path, title=""):
    """
    Render panels as a grid: leverage-score panels as green scatters,
    difference panels as blue scatters under the red bound curve. One
    self-contained SVG file.
    """
    plots = []
    for p in panels:
        if p.theorem == SCORES_TAG:
            index, values = _points(p.ell)
            plots.append(
                svgplot.Panel(
                    title=f"panel {p.name}: leverage scores",
                    index=index,
                    values=values,
                    point_class="pt-lev",
                )
            )
        else:
            index, values = _points(p.observed)
            bound_index, bound_values = _points(p.bound)
            plots.append(
                svgplot.Panel(
                    title=f"panel {p.name}: rel diff vs {p.theorem}",
                    index=index,
                    values=values,
                    bound_index=bound_index,
                    bound_values=bound_values,
                )
            )
    with open(path, "w", newline="\n") as fh:
        fh.write(svgplot.render(plots, title=title))


def run_figure(cfg, assert_bounds=True, emit=True):
    """
    Run one figure end to end: compute panels, enforce the bound-holds
    invariant (unless disabled), and emit CSV and SVG into
    cfg.output_dir, at one BLAS thread (linalg.blas_threads). Returns
    (panels, csv_path, svg_path); the paths are None when emit is
    False.
    """
    with blas_threads(1):
        panels = FIGURE_RUNNERS[cfg.figure](cfg.seed)
        if assert_bounds:
            verify_rows(panels)
        if not emit:
            return panels, None, None
        os.makedirs(cfg.output_dir, exist_ok=True)
        csv_path = os.path.join(cfg.output_dir, f"{cfg.figure}.csv")
        svg_path = os.path.join(cfg.output_dir, f"{cfg.figure}.svg")
        emit_csv(panels, csv_path)
        emit_svg(panels, svg_path, title=f"{cfg.figure} (seed {cfg.seed})")
    return panels, csv_path, svg_path
