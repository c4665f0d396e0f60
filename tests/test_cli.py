import json

import numpy as np
import pytest

from qrlev.cli import main
from qrlev.generate import stepped_orthonormal
from qrlev.io import read_matrix, write_matrix
from qrlev.perturb import componentwise_row_perturbation


def run(argv):
    return main(argv)


class TestGen:
    def test_preset_roundtrip(self, tmp_path):
        out = tmp_path / "a.txt"
        assert run(["gen", "--preset", "stepped", "--seed", "42", "--out", str(out)]) == 0
        a = read_matrix(out)
        np.testing.assert_array_equal(a, stepped_orthonormal(42))

    def test_config(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"m": 12, "n": 3, "sv_mode": "gaussian"}))
        out = tmp_path / "g.txt"
        assert run(["gen", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        assert read_matrix(out).shape == (12, 3)

    def test_requires_recipe(self, tmp_path, capsys):
        assert run(["gen", "--out", str(tmp_path / "x.txt")]) == 1
        assert "preset or --config" in capsys.readouterr().err


class TestPerturb:
    def test_normwise(self, tmp_path):
        mat = tmp_path / "a.txt"
        write_matrix(np.random.default_rng(3).standard_normal((20, 4)), mat)
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"kind": "normwise_fro", "eps": 1e-6}))
        delta_path = tmp_path / "d.txt"
        metrics_path = tmp_path / "m.json"
        code = run([
            "perturb", str(mat), "--config", str(cfg), "--seed", "5",
            "--out", str(delta_path), "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        delta = read_matrix(delta_path)
        a = read_matrix(mat)
        assert np.linalg.norm(delta) / np.linalg.norm(a) == pytest.approx(1e-6, rel=1e-12)
        metrics = json.loads(metrics_path.read_text())
        assert metrics["eps_fro"] == pytest.approx(1e-6, rel=1e-10)

    @pytest.mark.parametrize(
        ("spec", "message"),
        [
            # The seed comes from --seed only; a spec cannot carry one.
            (
                {"kind": "normwise_fro", "eps": 1e-6, "seed": 3},
                "unknown PerturbationSpec fields",
            ),
            ({"kind": "componentwise_rows"}, "componentwise_rows needs eta"),
        ],
    )
    def test_bad_spec_exits_one(self, tmp_path, capsys, spec, message):
        mat = tmp_path / "a.txt"
        write_matrix(np.random.default_rng(3).standard_normal((20, 4)), mat)
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps(spec))
        delta_path = tmp_path / "d.txt"
        code = run(["perturb", str(mat), "--config", str(cfg), "--out", str(delta_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not delta_path.exists()


class TestLevscores:
    def test_csv_stdout(self, tmp_path, capsys):
        mat = tmp_path / "a.txt"
        write_matrix(np.eye(4)[:, :2], mat)
        assert run(["levscores", str(mat)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "j,ell"
        assert lines[1].startswith("0,")

    def test_json_file(self, tmp_path):
        mat = tmp_path / "a.txt"
        write_matrix(np.eye(5)[:, :3], mat)
        out = tmp_path / "lev.json"
        assert run(["levscores", str(mat), "--format", "json", "--out", str(out)]) == 0
        values = json.loads(out.read_text())
        assert values == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_rank_deficient_exit_one(self, tmp_path, capsys):
        mat = tmp_path / "a.txt"
        write_matrix(np.ones((4, 2)), mat)
        assert run(["levscores", str(mat)]) == 1
        assert "rank deficient" in capsys.readouterr().err


class TestBounds:
    def test_t3_4_componentwise(self, tmp_path):
        a = np.random.default_rng(1).standard_normal((30, 4))
        delta = componentwise_row_perturbation(a, 1e-8, 2)
        mat, dlt = tmp_path / "a.txt", tmp_path / "d.txt"
        write_matrix(a, mat)
        write_matrix(delta, dlt)
        out = tmp_path / "r.csv"
        code = run([
            "bounds", "t3_4", "--matrix", str(mat), "--delta", str(dlt),
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0] == "panel,j,ell,ell_tilde,rel_diff,bound,theorem"
        assert len(text) == 31

    def test_t3_4_hypothesis_violation_exit_one(self, tmp_path, capsys):
        # eta * kappa2 >= 1: componentwise scaling of an
        # ill-conditioned matrix with a large eta.
        from qrlev.generate import randsvd_matrix

        a = randsvd_matrix(30, 4, 1e4, 3)
        delta = componentwise_row_perturbation(a, 5e-4, 4)
        mat, dlt = tmp_path / "a.txt", tmp_path / "d.txt"
        write_matrix(a, mat)
        write_matrix(delta, dlt)
        code = run(["bounds", "t3_4", "--matrix", str(mat), "--delta", str(dlt)])
        assert code == 1
        assert "T3_4 needs" in capsys.readouterr().err

    def test_t2_json(self, tmp_path):
        a = np.random.default_rng(5).standard_normal((25, 3))
        delta = 1e-8 * np.random.default_rng(6).standard_normal((25, 3))
        mat, dlt = tmp_path / "a.txt", tmp_path / "d.txt"
        write_matrix(a, mat)
        write_matrix(delta, dlt)
        out = tmp_path / "r.json"
        code = run([
            "bounds", "t2", "--matrix", str(mat), "--delta", str(dlt),
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        records = json.loads(out.read_text())
        assert {r["theorem"] for r in records} == {"T2_perp", "T2_gen"}
        assert all(r["observed"] <= r["bound"] * 1.001 + 1e-12 for r in records)


class TestFigure:
    def test_figure_four_emits(self, tmp_path):
        code = run(["figure", "4", "--seed", "42", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig4.csv").exists()
        assert (tmp_path / "fig4.svg").exists()

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert run(["figure", "4", "--seed", "42", "--out", str(out)]) == 0
            blobs.append((out / "fig4.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_no_assert_flag(self, tmp_path):
        code = run([
            "figure", "5", "--seed", "42", "--out", str(tmp_path), "--no-assert"
        ])
        assert code == 0


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["gen", "--bogus"])
        assert excinfo.value.code == 2

    def test_bad_figure_number(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["figure", "9"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--format", "json"],
            ["check", "--out", "x"],
            ["check", "--config", "c.json"],
            ["levscores", "a.txt", "--seed", "1"],
            ["levscores", "a.txt", "--config", "c.json"],
            ["bounds", "t1", "--matrix", "a", "--delta", "d", "--seed", "1"],
            ["bounds", "t1", "--matrix", "a", "--delta", "d", "--config", "c.json"],
            ["gen", "--preset", "stepped", "--format", "json"],
            ["perturb", "a.txt", "--format", "json"],
            ["figure", "1", "--format", "json"],
            ["figure", "4", "--config", "x.json"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
