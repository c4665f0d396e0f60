import csv
import dataclasses
import math
import os
import subprocess
import sys
import zlib
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from qrlev import bounds, experiments, svgplot
from qrlev.acceptance import _rngs
from qrlev.bounds import (
    EXACT_ABS_SLACK,
    EXACT_REL_SLACK,
    EVALUATORS,
    FIRST_ORDER_CAP,
    bound_t1,
)
from qrlev.angles import principal_angles
from qrlev.experiments import (
    BoundViolationError,
    Evaluation,
    ExperimentConfig,
    FIG4_ROWS,
    FIGURE_RUNNERS,
    FIGURES,
    FigurePanel,
    emit_csv,
    emit_svg,
    fig4_panels,
    run_fig1,
    run_fig2,
    run_fig4,
    run_figure,
    verify_rows,
)
from qrlev.io import format_float
from qrlev.leverage import full_rank_qr
from qrlev.svgplot import (
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    PANEL_H,
    PANEL_W,
    PANELS_PER_ROW,
    PLOT_FLOOR,
)

SEED = 42
ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "demos" / "out"


# Reference emitters: the value-at-a-time bodies of emit_csv, emit_svg
# and svgplot.render that the column-at-a-time ones replaced, kept
# verbatim (only renamed) so the tests can require equal bytes.


def _reference_emit_csv(panels, path):
    def fmt(x):
        return "" if math.isnan(x) else format_float(x)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(experiments.CSV_HEADER)
        for p in panels:
            columns = zip(
                p.ell.tolist(), p.ell_tilde.tolist(), p.observed.tolist(), p.bound.tolist()
            )
            for j, values in enumerate(columns):
                writer.writerow((p.name, j, *map(fmt, values), p.theorem))


@dataclasses.dataclass
class _ReferencePanel:
    title: str
    points: list = dataclasses.field(default_factory=list)  # (index, value)
    bound: list = dataclasses.field(default_factory=list)   # (index, value)
    point_class: str = "pt-rel"


def _reference_clip(v):
    if not math.isfinite(v) or v < PLOT_FLOOR:
        return PLOT_FLOOR
    return v


def _reference_log_range(panels):
    values = []
    for p in panels:
        values.extend(_reference_clip(v) for _, v in p.points)
        values.extend(_reference_clip(v) for _, v in p.bound)
    if not values:
        return -1.0, 1.0
    lo = math.floor(math.log10(min(values)))
    hi = math.ceil(math.log10(max(values)))
    if lo == hi:
        lo -= 1
        hi += 1
    if any(v == math.inf for p in panels for _, v in (*p.points, *p.bound)):
        hi += 1
    return float(lo), float(hi)


def _reference_x_range(panels):
    hi = 1
    for p in panels:
        for j, _ in p.points:
            hi = max(hi, j)
        for j, _ in p.bound:
            hi = max(hi, j)
    return 0.0, float(hi)


def _reference_render(panels, title=""):
    n_panels = max(len(panels), 1)
    cols = min(PANELS_PER_ROW, n_panels)
    rows = (n_panels + cols - 1) // cols
    width = cols * PANEL_W
    height = rows * PANEL_H + (16 if title else 0)

    ylo, yhi = _reference_log_range(panels)
    xlo, xhi = _reference_x_range(panels)

    plot_w = PANEL_W - MARGIN_L - MARGIN_R
    plot_h = PANEL_H - MARGIN_T - MARGIN_B

    def x_pix(j):
        return MARGIN_L + (j - xlo) / max(xhi - xlo, 1.0) * plot_w

    def y_pix(v):
        lv = yhi if v == math.inf else math.log10(_reference_clip(v))
        return MARGIN_T + (yhi - lv) / (yhi - ylo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    out.append(
        "<style>"
        ".pt-rel{fill:#1f4fd6;stroke:none}"
        ".pt-lev{fill:#1f8f3a;stroke:none}"
        ".bound{fill:none;stroke:#d62717;stroke-width:1.2}"
        ".axis{stroke:#222;stroke-width:1;fill:none}"
        ".grid{stroke:#ccc;stroke-width:0.5}"
        "text{font-family:sans-serif;font-size:9px;fill:#222}"
        ".ptitle{font-size:11px}"
        "</style>"
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        out.append(f'<text x="6" y="12" class="ptitle">{svgplot._escape(title)}</text>')

    y_off0 = 16 if title else 0
    for idx, panel in enumerate(panels):
        gx = (idx % cols) * PANEL_W
        gy = (idx // cols) * PANEL_H + y_off0
        out.append(f'<g transform="translate({gx},{gy})">')
        out.append(
            f'<text x="{MARGIN_L}" y="{MARGIN_T - 10}" class="ptitle">'
            f"{svgplot._escape(panel.title)}</text>"
        )
        out.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
            f'height="{plot_h}" class="axis"/>'
        )
        decade = int(yhi - ylo) // 8 + 1
        level = int(ylo)
        while level <= int(yhi):
            yp = y_pix(10.0**level)
            out.append(
                f'<line x1="{MARGIN_L}" y1="{yp:.2f}" '
                f'x2="{MARGIN_L + plot_w}" y2="{yp:.2f}" class="grid"/>'
            )
            out.append(
                f'<text x="2" y="{yp + 3:.2f}">1e{level}</text>'
            )
            level += decade
        out.append(
            f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{PANEL_H - 8}">index j</text>'
        )
        for j, v in panel.points:
            out.append(
                f'<circle cx="{x_pix(j):.2f}" cy="{y_pix(v):.2f}" r="1.4" '
                f'class="{panel.point_class}"/>'
            )
        if panel.bound:
            pts = " ".join(
                f"{x_pix(j):.2f},{y_pix(v):.2f}" for j, v in sorted(panel.bound)
            )
            out.append(f'<polyline points="{pts}" class="bound"/>')
        out.append("</g>")

    out.append("</svg>")
    return "\n".join(out)


def _reference_points(values):
    return [(j, y) for j, y in enumerate(values.tolist()) if not math.isnan(y)]


def _reference_emit_svg(panels, path, title=""):
    plots = []
    for p in panels:
        if p.theorem == experiments.SCORES_TAG:
            plots.append(
                _ReferencePanel(
                    title=f"panel {p.name}: leverage scores",
                    points=_reference_points(p.ell),
                    point_class="pt-lev",
                )
            )
        else:
            plots.append(
                _ReferencePanel(
                    title=f"panel {p.name}: rel diff vs {p.theorem}",
                    points=_reference_points(p.observed),
                    bound=_reference_points(p.bound),
                )
            )
    with open(path, "w", newline="\n") as fh:
        fh.write(_reference_render(plots, title=title))


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def by_name(panels):
    return {p.name: p for p in panels}


def make_panel(theorem, obs, bound, name="a"):
    obs = np.array(obs, dtype=float)
    ell = np.full(obs.shape, 0.5)
    return FigurePanel(name, theorem, ell, ell.copy(), obs, np.asarray(bound, float))


@pytest.fixture(scope="module")
def fig1_panels():
    return run_fig1(SEED)


@pytest.fixture(scope="module")
def fig2_panels():
    return run_fig2(SEED)


@pytest.fixture(scope="module")
def figure_panels():
    return {figure: FIGURE_RUNNERS[figure](SEED) for figure in FIGURES}


def _edge_cases():
    """Panels and titles that reach each float, range and escape rule."""
    specials = np.array(
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-300, 3e-17, PLOT_FLOOR, 0.5]
    )
    rng = np.random.default_rng(15)
    obs = 10.0 ** rng.uniform(-20.0, 0.0, 40000)
    obs[::97] = np.nan
    bound = obs * 10.0 ** rng.uniform(0.0, 3.0, 40000)
    bound[::89] = np.nan
    ell = rng.uniform(0.0, 1.0, 40000)
    powers = 10.0 ** -np.arange(1.0, 17.0)
    return {
        "empty": ([], ""),
        "lone_score": ([FigurePanel.scores("a", np.array([0.5, 0.25, 1.0]))], ""),
        "specials": (
            [
                FigurePanel.scores("a", specials),
                FigurePanel(
                    "b", "C1_rel", specials, specials[::-1], specials, specials[::-1]
                ),
            ],
            "specials",
        ),
        "powers_of_ten": ([make_panel("T3_1", powers, powers[::-1])], "powers"),
        # On the y range 1e-16..1 these three sit on a .2f rounding edge
        # that np.log10 would put them across; math.log10 does not.
        "log10_last_bit": (
            [
                make_panel(
                    "T3_1",
                    [0.9741862047140378, 0.8047834047986143, 0.7956842117870406, 0.0],
                    [1.0] * 4,
                )
            ],
            "",
        ),
        "one_decade": ([make_panel("T3_1", [1e-8, 1e-8], [1e-8, np.nan])], ""),
        "one_point": ([make_panel("T3_1", [1e-9], [1e-8])], "one point"),
        "no_bound": ([make_panel("T3_2", [1e-9, 1e-10, np.nan], [np.nan] * 3)], ""),
        "all_nan": ([make_panel("T3_2", [np.nan] * 2, [np.nan] * 2)], ""),
        "indices_to_39999": (
            [
                FigurePanel("a", "T3_4", ell, ell[::-1], obs, bound),
                make_panel("T2_gen", [1e-3], [1.0], name="b"),
            ],
            "long",
        ),
        "title_escapes": (
            [make_panel("T2_gen", [1e-9], [1e-8], name="a<&>")],
            'fig <1> & "2"',
        ),
    }


EDGE_CASES = _edge_cases()


def assert_emitters_match_reference(tmp_path, panels, title):
    emit_csv(panels, tmp_path / "new.csv")
    _reference_emit_csv(panels, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    emit_svg(panels, tmp_path / "new.svg", title=title)
    _reference_emit_svg(panels, tmp_path / "ref.svg", title=title)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def _spawned_reference(entropy, count):
    """
    The sub-streams as the figure runners and acceptance._rngs built
    them before they called Generator.spawn: SeedSequence(entropy)'s
    children, each through default_rng.
    """
    children = np.random.SeedSequence(entropy).spawn(count)
    return [np.random.default_rng(c) for c in children]


@pytest.mark.parametrize("seed", [0, 3, 42, 2**40])
def test_generator_spawn_matches_the_seed_sequence_recipe(seed):
    entropies = {
        "int": (seed, np.random.default_rng(seed).spawn(4)),
        "crc": ([seed, zlib.crc32(b"ensemble")], _rngs(seed, "ensemble", 4)),
    }
    for kind, (entropy, got) in entropies.items():
        want = _spawned_reference(entropy, 4)
        for k, (g, w) in enumerate(zip(got, want)):
            assert g.bit_generator.state == w.bit_generator.state, (kind, k)
            raw = g.bit_generator.random_raw(64), w.bit_generator.random_raw(64)
            assert raw[0].tobytes() == raw[1].tobytes(), (kind, k)


class TestConfig:
    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="unknown figure"):
            ExperimentConfig(figure="fig9", seed=1)

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(figure="fig1", seed=None)


class TestFig1:
    def test_row_count_and_panels(self, fig1_panels):
        # 1000 leverage rows plus 1000 rows for each of three targets.
        assert sum(len(p.ell) for p in fig1_panels) == 4000
        assert all(
            len(col) == 1000
            for p in fig1_panels
            for col in (p.ell, p.ell_tilde, p.observed, p.bound)
        )
        panels = by_name(fig1_panels)
        assert set(panels) == {"a", "b", "c", "d"}
        assert panels["a"].theorem == "levscores"
        assert all(p.theorem == "C1_rel" for name, p in panels.items() if name != "a")

    def test_bounds_hold(self, fig1_panels):
        verify_rows(fig1_panels)

    def test_bound_above_observed_everywhere(self, fig1_panels):
        for p in fig1_panels:
            defined = ~np.isnan(p.observed)
            assert np.all(
                p.observed[defined] <= p.bound[defined] * 1.001 + 1e-12
            )


class TestFig2:
    def test_panels(self, fig2_panels):
        panels = {p.name: p.theorem for p in fig2_panels}
        assert [p.name for p in fig2_panels] == sorted(panels)
        assert panels == {
            "a": "levscores",
            "b": "levscores",
            "c": "T2_gen",
            "d": "T2_gen",
            "e": "T2_perp",
            "f": "T2_perp",
        }

    def test_bounds_hold(self, fig2_panels):
        verify_rows(fig2_panels)


class TestOtherFigures:
    @pytest.mark.parametrize("figure", ["fig3", "fig4", "fig5"])
    def test_runs_and_verifies(self, figure, caplog):
        # Each panel logs values the runner already computed.
        logged = {
            "fig3": "kappa2 1.000e+00, eps_fro 1.000e-08",
            "fig4": "eps_fro 1.000e-08, max eps_row",
            "fig5": "kappa2 1.073e+06, max(eta) * kappa2 1.073e-02",
        }[figure]
        caplog.set_level("INFO", logger="qrlev.experiments")
        panels = FIGURE_RUNNERS[figure](SEED)
        assert set(by_name(panels)) == {"a", "b"}
        verify_rows(panels)
        lines = [r.getMessage() for r in caplog.records]
        assert [line.split(":")[0] for line in lines] == [
            f"{figure} panel a", f"{figure} panel b"
        ]
        assert any(logged in line for line in lines), lines

    @pytest.mark.parametrize(
        ("figure", "qr_calls", "svd_calls"),
        [("fig1", 14, 10), ("fig3", 8, 7), ("fig4", 8, 7), ("fig5", 7, 4)],
    )
    def test_base_matrix_factored_once(
        self, factorization_calls, figure, qr_calls, svd_calls
    ):
        # Upper bounds, not pins: one full_rank_qr per base matrix, which
        # measure and the bounds read. fig2 is left to perfbench's tally.
        FIGURE_RUNNERS[figure](SEED)
        assert factorization_calls["householder_qr"] <= qr_calls
        assert factorization_calls["jacobi_svd"] <= svd_calls

    def test_fig4_local_and_global_effects(self):
        panels = by_name(run_fig4(SEED))
        rel_a = panels["a"].observed
        bnd_a = panels["a"].bound
        bnd_b = panels["b"].bound
        assert FIG4_ROWS == slice(500, 750)
        unpert_rel = np.delete(rel_a, FIG4_ROWS)
        # The local perturbation has a global effect on all scores,
        # but a much stronger one on the perturbed rows.
        assert 1e-13 <= unpert_rel.max() <= 1e-9
        assert bnd_a[FIG4_ROWS].min() > np.delete(bnd_a, FIG4_ROWS).max()
        # Same-row-scaling panel: the bound is essentially flat.
        assert bnd_b.max() / bnd_b.min() <= 2.0

    def test_fig4_panels_multi_bound_equals_single_bound_runs(self):
        tags = ("T3_2", "T3_3")
        for shared, tag in zip(fig4_panels(SEED, tags), tags):
            alone = fig4_panels(SEED, (tag,))[0]
            assert [(p.name, p.theorem) for p in shared] == [
                (p.name, p.theorem) for p in alone
            ]
            for p, q in zip(shared, alone):
                for col in ("ell", "ell_tilde", "observed", "bound"):
                    assert np.array_equal(
                        getattr(p, col), getattr(q, col), equal_nan=True
                    ), (p.theorem, p.name, col)

    def test_fig4_panels_second_tag_factors_nothing_more(self, factorization_calls):
        # Both tags read one Evaluation per panel, so measure runs once.
        fig4_panels(SEED, ("T3_2",))
        alone = dict(factorization_calls)
        fig4_panels(SEED, ("T3_2", "T3_3"))
        for name, count in alone.items():
            assert factorization_calls[name] - count <= count, name


class TestEvaluation:
    # The input each tag reads besides lev and lev_tilde.
    READS = {"T1_abs": "angles", "C1_rel": "angles", "T3_4": "eta"}

    @pytest.fixture
    def computed(self, monkeypatch):
        """Names of the inputs an Evaluation computed, one entry per computation."""
        names = []
        for fn, name in ((experiments.principal_angles, "angles"),
                         (experiments.measure, "metrics"),
                         (experiments.row_scaling_eta, "eta")):
            def counted(*args, _fn=fn, _name=name):
                names.append(_name)
                return _fn(*args)

            monkeypatch.setattr(experiments, fn.__name__, counted)
        return names

    @staticmethod
    def evaluation(**given):
        a = np.random.default_rng(1).standard_normal((8, 4))
        delta = np.random.default_rng(2).uniform(-1e-8, 1e-8, 8)[:, None] * a
        return Evaluation(full_rank_qr(a), delta, **given)

    @pytest.mark.parametrize("tag", sorted(EVALUATORS))
    def test_each_tag_computes_only_what_it_reads_once(self, computed, tag):
        ev = self.evaluation()
        first = ev.panel("x", tag)
        assert first.theorem == tag
        second = ev.panel("y", tag)
        assert computed == [self.READS.get(tag, "metrics")]
        assert first.ell is second.ell and first.ell_tilde is second.ell_tilde

    def test_inputs_passed_in_are_not_computed(self, computed):
        given = self.evaluation()
        lev, eta = given.lev, np.full(8, 1e-8)
        ev = self.evaluation(lev=lev, eta=eta, angles=given.angles)
        computed.clear()
        for tag in ("T1_abs", "C1_rel", "T3_4"):
            ev.panel(tag, tag)
        assert computed == []
        assert ev.lev is lev
        # T3_4 reads the eta passed in, not the measured |d_j| below it.
        expected = bounds.bound_t3_4(eta, 4, ev.stats.kappa2).per_index_bound
        np.testing.assert_array_equal(ev.panel("b", "T3_4").bound, expected)


    def test_evaluations_of_one_factorization_share_its_scores(self):
        a = np.random.default_rng(1).standard_normal((8, 4))
        f = full_rank_qr(a)
        first = Evaluation(f, 1e-8 * np.random.default_rng(2).standard_normal((8, 4)))
        second = Evaluation(f, 1e-6 * np.random.default_rng(3).standard_normal((8, 4)))
        assert first.lev is second.lev is f.lev
        panel = first.panel("a", "T3_1")
        assert panel.ell is f.lev and panel.ell_tilde is first.f_tilde.lev

    def test_both_t2_tags_share_one_bound_t2_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return bounds.bound_t2(*args)

        monkeypatch.setattr(experiments, "bound_t2", counted)
        ev = self.evaluation()
        perp, gen = ev.panel("e", "T2_perp"), ev.panel("c", "T2_gen")
        assert len(calls) == 1
        assert (perp.theorem, gen.theorem) == ("T2_perp", "T2_gen")

    @pytest.mark.parametrize("name", ["etta", "angle", "panel"])
    def test_unknown_input_raises(self, name):
        with pytest.raises(TypeError, match=repr(name)):
            self.evaluation(**{name: np.full(8, 1e-8)})


class TestVerifyPolicy:
    def test_exact_violation_raises(self):
        panel = make_panel("C1_rel", [1e-3], [1e-6], name="b")
        with pytest.raises(BoundViolationError, match="C1_rel"):
            verify_rows([panel])

    def test_first_order_outlier_tolerated(self):
        panel = make_panel("T3_4", np.full(200, 1e-9), np.full(200, 1e-7))
        panel.observed[0] = 5e-7  # within 10x
        verify_rows([panel])
        panel.observed[0] = 5e-6  # beyond 10x
        with pytest.raises(BoundViolationError, match="T3_4"):
            verify_rows([panel])

    def test_exact_slack_boundary(self):
        bound = np.array([1e-9, 1e-6, 0.5, 2.0])
        edge = bound * (1.0 + EXACT_REL_SLACK) + EXACT_ABS_SLACK
        verify_rows([make_panel("T2_gen", edge, bound)])
        for j in range(bound.size):
            over = edge.copy()
            over[j] = np.nextafter(over[j], np.inf)
            with pytest.raises(BoundViolationError, match="T2_gen violated at 1 "):
                verify_rows([make_panel("T2_gen", over, bound)])

    def test_first_order_fraction_boundary(self):
        # 100 indices: one above the bound is 99 percent, two is not.
        bound = np.full(100, 1e-7)
        obs = np.full(100, 1e-9)
        obs[0] = np.nextafter(bound[0], np.inf)
        verify_rows([make_panel("T3_2", obs, bound)])
        obs[1] = np.nextafter(bound[1], np.inf)
        with pytest.raises(BoundViolationError, match="held at 0.9800"):
            verify_rows([make_panel("T3_2", obs, bound)])

    def test_first_order_cap_boundary(self):
        bound = np.full(100, 1e-7)
        obs = np.full(100, 1e-9)
        obs[0] = FIRST_ORDER_CAP * bound[0]
        verify_rows([make_panel("T3_3", obs, bound)])
        obs[0] = np.nextafter(obs[0], np.inf)
        with pytest.raises(BoundViolationError, match="T3_3 held at 0.9900"):
            verify_rows([make_panel("T3_3", obs, bound)])

    def test_undefined_indices_ignored_and_scores_skipped(self):
        verify_rows([make_panel("C1_rel", [np.nan, 1e-9], [1e-12, np.nan])])
        verify_rows([FigurePanel.scores("a", np.array([0.5, 0.5]))])


class TestCSV:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "panel,j,ell,ell_tilde,observed,bound,theorem\n"

    def test_nan_serialized_empty(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([FigurePanel.scores("a", np.array([0.5]))], path)
        assert path.read_text().splitlines()[1] == "a,0,0.5,,,,levscores"


class TestSVG:
    @pytest.mark.parametrize("figure", FIGURES)
    def test_valid_xml_and_point_count(self, tmp_path, figure_panels, figure):
        panels = figure_panels[figure]
        path = tmp_path / "fig.svg"
        emit_svg(panels, path, title="smoke")
        tree = ET.parse(path)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        circles = tree.findall(".//svg:circle", ns)
        scores = [p for p in panels if p.theorem == experiments.SCORES_TAG]
        diffs = [p for p in panels if p.theorem != experiments.SCORES_TAG]
        classes = (("pt-lev", "ell", scores), ("pt-rel", "observed", diffs))
        for cls, column, group in classes:
            drawn = [c for c in circles if c.attrib.get("class") == cls]
            defined = sum(
                int(np.count_nonzero(~np.isnan(getattr(p, column)))) for p in group
            )
            assert len(drawn) == defined, cls
        with_bound = [p for p in diffs if not np.all(np.isnan(p.bound))]
        assert with_bound == diffs
        assert len(tree.findall(".//svg:polyline", ns)) == len(with_bound)

    def test_zero_clipped_to_floor(self, tmp_path):
        panel = make_panel("T3_4", [0.0, 1e-8], [1e-7, 1e-7])
        path = tmp_path / "clip.svg"
        emit_svg([panel], path)
        tree = ET.parse(path)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        circles = [
            c for c in tree.findall(".//svg:circle", ns)
            if c.attrib.get("class") == "pt-rel"
        ]
        assert len(circles) == 2  # the zero is drawn, clipped to the floor
        ys = [float(c.attrib["cy"]) for c in circles]
        assert ys[0] > ys[1]  # clipped zero sits below the 1e-8 point

    def test_inf_drawn_at_the_top_of_the_range(self):
        values = np.array([np.inf, 1e-8, 0.0, np.nan, -np.inf])
        svg = svgplot.render([svgplot.Panel("t", values)])
        circles = ET.fromstring(svg).findall(".//{http://www.w3.org/2000/svg}circle")
        # The x range ends at index 4; index 3, the NaN, draws no circle.
        plot_w = PANEL_W - MARGIN_L - MARGIN_R
        xs = [float(f"{MARGIN_L + j / 4 * plot_w:.2f}") for j in (0, 1, 2, 4)]
        assert [float(c.attrib["cx"]) for c in circles] == xs
        inf, finite, zero, minus_inf = (float(c.attrib["cy"]) for c in circles)
        assert inf == MARGIN_T < finite < zero
        assert minus_inf == zero  # -inf stays at the floor


class TestReferenceEmitters:
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_panels_byte_identical(self, tmp_path, case):
        panels, title = EDGE_CASES[case]
        assert_emitters_match_reference(tmp_path, panels, title)

    @pytest.mark.parametrize("figure", FIGURES)
    def test_figures_byte_identical(self, tmp_path, figure_panels, figure):
        assert_emitters_match_reference(
            tmp_path, figure_panels[figure], f"{figure} (seed {SEED})"
        )

    def test_written_names_and_tags_need_no_quoting(self, figure_panels):
        # emit_csv writes fields unquoted, so none may hold a CSV special.
        panels = [p for group in figure_panels.values() for p in group]
        panels += fig4_panels(SEED, ("T3_3",))[0]
        q = np.eye(4)[:, :2]
        t1 = bound_t1(np.full(4, 0.5), principal_angles(q, q)).theorem
        written = {p.name for p in panels} | {p.theorem for p in panels} | {t1}
        assert {"levscores", "T1_abs", "C1_rel", "T2_gen", "T2_perp", "T3_1",
                "T3_2", "T3_3", "T3_4"} <= written
        for text in written:
            assert not set(text) & set(',"\r\n'), text


class TestRunFigure:
    def test_emits_files(self, tmp_path):
        cfg = ExperimentConfig(figure="fig4", seed=SEED, output_dir=str(tmp_path))
        panels, csv_path, svg_path = run_figure(cfg)
        assert panels
        assert (tmp_path / "fig4.csv").exists()
        assert (tmp_path / "fig4.svg").exists()

    @pytest.mark.parametrize("figure", FIGURES)
    def test_outputs_match_committed_demos_out(self, tmp_path, figure):
        # demos/out/ holds the seed-42 outputs of demos/04_figures.py.
        cfg = ExperimentConfig(figure=figure, seed=SEED, output_dir=str(tmp_path))
        run_figure(cfg)
        for suffix in (".csv", ".svg"):
            name = figure + suffix
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    @pytest.mark.skipif(
        _usable_cpus() < 2 or os.environ.get("OPENBLAS_NUM_THREADS") == "1",
        reason="OpenBLAS already runs one thread here",
    )
    @pytest.mark.parametrize("figure", FIGURES)
    def test_one_blas_thread_matches_committed_demos_out(self, tmp_path, figure):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "qrlev.cli", "figure", figure[3:],
             "--seed", str(SEED), "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for suffix in (".csv", ".svg"):
            name = figure + suffix
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    @pytest.mark.skipif(_usable_cpus() < 2, reason="one CPU: no second BLAS thread")
    @pytest.mark.parametrize("figure", FIGURES)
    def test_two_blas_threads_match_committed_demos_out(
        self, tmp_path, figure, two_blas_threads
    ):
        # run_figure holds one thread, so compute and emit outside it.
        panels = FIGURE_RUNNERS[figure](SEED)
        assert [pool.get() for pool in two_blas_threads] == [2] * len(two_blas_threads)
        emit_csv(panels, tmp_path / f"{figure}.csv")
        emit_svg(panels, tmp_path / f"{figure}.svg", title=f"{figure} (seed {SEED})")
        for suffix in (".csv", ".svg"):
            name = figure + suffix
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    @pytest.mark.parametrize("fails", [False, True])
    def test_runs_at_one_blas_thread_and_restores(self, monkeypatch, two_blas_threads, fails):
        seen = []

        def runner(seed):
            seen.append([pool.get() for pool in two_blas_threads])
            if fails:
                raise RuntimeError("runner failed")
            return []

        monkeypatch.setitem(FIGURE_RUNNERS, "fig1", runner)
        cfg = ExperimentConfig(figure="fig1", seed=SEED)
        if fails:
            with pytest.raises(RuntimeError, match="runner failed"):
                run_figure(cfg, emit=False)
        else:
            assert run_figure(cfg, emit=False) == ([], None, None)
        assert seen == [[1] * len(two_blas_threads)]
        assert [pool.get() for pool in two_blas_threads] == [2] * len(two_blas_threads)

    def test_deterministic_bytes(self, tmp_path):
        blobs = []
        for sub in ("one", "two"):
            cfg = ExperimentConfig(
                figure="fig4", seed=SEED, output_dir=str(tmp_path / sub)
            )
            _, csv_path, _ = run_figure(cfg, assert_bounds=False)
            blobs.append(open(csv_path, "rb").read())
        assert blobs[0] == blobs[1]

    def test_policy_applied_once_per_bound_panel(self, monkeypatch):
        # fig1 has three bound panels; the evaluators apply no policy,
        # so verify_rows is the only caller.
        calls = []
        original = bounds.check_policy

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bounds, "check_policy", counting)
        monkeypatch.setattr(experiments, "check_policy", counting)
        run_figure(ExperimentConfig(figure="fig1", seed=SEED), emit=False)
        assert len(calls) == 3
