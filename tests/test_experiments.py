import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qrlev.bounds import (
    EXACT_ABS_SLACK,
    EXACT_REL_SLACK,
    FIRST_ORDER_CAP,
)
from qrlev.experiments import (
    BoundViolationError,
    ExperimentConfig,
    FIGURE_RUNNERS,
    FigurePanel,
    emit_csv,
    emit_svg,
    parse_csv,
    run_fig1,
    run_fig2,
    run_fig4,
    run_figure,
    verify_rows,
)

SEED = 42


def by_name(panels):
    return {p.name: p for p in panels}


def make_panel(theorem, rel_diff, bound, name="a"):
    rel_diff = np.array(rel_diff, dtype=float)
    ell = np.full(rel_diff.shape, 0.5)
    return FigurePanel(name, theorem, ell, ell.copy(), rel_diff, np.asarray(bound, float))


@pytest.fixture(scope="module")
def fig1_panels():
    return run_fig1(ExperimentConfig(figure="fig1", seed=SEED))


@pytest.fixture(scope="module")
def fig2_panels():
    return run_fig2(ExperimentConfig(figure="fig2", seed=SEED))


class TestConfig:
    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="unknown figure"):
            ExperimentConfig(figure="fig9", seed=1)

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(figure="fig1", seed=None)

    def test_roundtrip(self):
        cfg = ExperimentConfig(figure="fig3", seed=7, overrides={"eps_fs": [1e-6]})
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


class TestFig1:
    def test_row_count_and_panels(self, fig1_panels):
        # 1000 leverage rows plus 1000 rows for each of three targets.
        assert sum(len(p.ell) for p in fig1_panels) == 4000
        assert all(
            len(col) == 1000
            for p in fig1_panels
            for col in (p.ell, p.ell_tilde, p.rel_diff, p.bound)
        )
        panels = by_name(fig1_panels)
        assert set(panels) == {"a", "b", "c", "d"}
        assert panels["a"].theorem == "levscores"
        assert all(p.theorem == "C1_rel" for name, p in panels.items() if name != "a")

    def test_bounds_hold(self, fig1_panels):
        verify_rows(fig1_panels)

    def test_bound_above_observed_everywhere(self, fig1_panels):
        for p in fig1_panels:
            defined = ~np.isnan(p.rel_diff)
            assert np.all(
                p.rel_diff[defined] <= p.bound[defined] * 1.001 + 1e-12
            )

    def test_override_targets(self):
        cfg = ExperimentConfig(
            figure="fig1", seed=SEED, overrides={"target_sins": [1e-7]}
        )
        panels = run_fig1(cfg)
        assert set(by_name(panels)) == {"a", "b"}


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
    def test_runs_and_verifies(self, figure):
        panels = FIGURE_RUNNERS[figure](ExperimentConfig(figure=figure, seed=SEED))
        assert set(by_name(panels)) == {"a", "b"}
        verify_rows(panels)

    def test_fig4_local_and_global_effects(self):
        panels = by_name(run_fig4(ExperimentConfig(figure="fig4", seed=SEED)))
        rel_a = panels["a"].rel_diff
        bnd_a = panels["a"].bound
        bnd_b = panels["b"].bound
        unpert_rel = np.concatenate([rel_a[:500], rel_a[750:]])
        # The local perturbation has a global effect on all scores,
        # but a much stronger one on the perturbed rows.
        assert 1e-13 <= unpert_rel.max() <= 1e-9
        assert bnd_a[500:750].min() > np.concatenate(
            [bnd_a[:500], bnd_a[750:]]
        ).max()
        # Same-row-scaling panel: the bound is essentially flat.
        assert bnd_b.max() / bnd_b.min() <= 2.0

    def test_fig5_eta_zero_control(self):
        cfg = ExperimentConfig(figure="fig5", seed=SEED, overrides={"eta": 0.0})
        panels = FIGURE_RUNNERS["fig5"](cfg)
        rel = np.concatenate([p.rel_diff for p in panels])
        assert np.nanmax(rel) <= 1e-12

    def test_fig5_kappa_override(self):
        cfg = ExperimentConfig(figure="fig5", seed=SEED, overrides={"kappa": 1e3})
        verify_rows(FIGURE_RUNNERS["fig5"](cfg))


class TestVerifyPolicy:
    def test_exact_violation_raises(self):
        panel = make_panel("C1_rel", [1e-3], [1e-6], name="b")
        with pytest.raises(BoundViolationError, match="C1_rel"):
            verify_rows([panel])

    def test_first_order_outlier_tolerated(self):
        panel = make_panel("T3_4", np.full(200, 1e-9), np.full(200, 1e-7))
        panel.rel_diff[0] = 5e-7  # within 10x
        verify_rows([panel])
        panel.rel_diff[0] = 5e-6  # beyond 10x
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
    def test_roundtrip_bit_exact(self, tmp_path, fig1_panels):
        path = tmp_path / "rows.csv"
        emit_csv(fig1_panels, path)
        parsed = parse_csv(path)
        assert len(parsed) == len(fig1_panels)
        for a, b in zip(fig1_panels, parsed):
            assert a.name == b.name and a.theorem == b.theorem
            for field in ("ell", "ell_tilde", "rel_diff", "bound"):
                x, y = getattr(a, field), getattr(b, field)
                assert np.array_equal(x, y, equal_nan=True)

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "panel,j,ell,ell_tilde,rel_diff,bound,theorem\n"

    def test_nan_serialized_empty(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([FigurePanel.scores("a", np.array([0.5]))], path)
        assert path.read_text().splitlines()[1] == "a,0,0.5,,,,levscores"

    def test_row_index_must_match_position(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "panel,j,ell,ell_tilde,rel_diff,bound,theorem\n"
            "a,0,0.5,,,,levscores\n"
            "a,2,0.5,,,,levscores\n"
        )
        with pytest.raises(ValueError, match="out of order"):
            parse_csv(path)


class TestSVG:
    def test_valid_xml_and_point_count(self, tmp_path, fig1_panels):
        path = tmp_path / "fig.svg"
        emit_svg(fig1_panels, path, title="smoke")
        tree = ET.parse(path)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        circles = tree.findall(".//svg:circle", ns)
        rel_points = [
            c for c in circles if c.attrib.get("class") == "pt-rel"
        ]
        defined = sum(int(np.count_nonzero(~np.isnan(p.rel_diff))) for p in fig1_panels)
        assert len(rel_points) == defined
        lev_points = [c for c in circles if c.attrib.get("class") == "pt-lev"]
        assert len(lev_points) == 1000

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


class TestRunFigure:
    def test_emits_files(self, tmp_path):
        cfg = ExperimentConfig(figure="fig4", seed=SEED, output_dir=str(tmp_path))
        panels, csv_path, svg_path = run_figure(cfg)
        assert panels
        assert (tmp_path / "fig4.csv").exists()
        assert (tmp_path / "fig4.svg").exists()

    def test_deterministic_bytes(self, tmp_path):
        blobs = []
        for sub in ("one", "two"):
            cfg = ExperimentConfig(
                figure="fig4", seed=SEED, output_dir=str(tmp_path / sub)
            )
            _, csv_path, _ = run_figure(cfg, assert_bounds=False)
            blobs.append(open(csv_path, "rb").read())
        assert blobs[0] == blobs[1]
