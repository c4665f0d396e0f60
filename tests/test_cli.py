import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrlev import acceptance, cli
from qrlev.cli import main
from qrlev.bounds import HypothesisError, check_policy, row_scaling_eta
from qrlev.generate import (
    GenSpec,
    random_orthonormal,
    stepped_illconditioned,
    stepped_orthonormal,
)
from qrlev.io import read_matrix, write_matrix
from qrlev.leverage import full_rank_qr
from qrlev.perturb import PERTURBATION_FIELDS, componentwise_row_perturbation, measure

# One recipe per perturbation kind holding exactly the fields it reads.
RECIPES = {
    "rotation": {"kind": "rotation", "target_sin": 1e-4},
    "normwise_two": {"kind": "normwise_two", "eps": 1e-6},
    "normwise_fro": {"kind": "normwise_fro", "eps": 1e-6},
    "row_subset": {"kind": "row_subset", "eps": 1e-6, "row_start": 0, "row_stop": 4},
    "same_row_scaling": {"kind": "same_row_scaling", "eps": 1e-6},
    "componentwise_rows": {"kind": "componentwise_rows", "eta": 1e-6},
}
RECIPE_FIELDS = sorted({f for fields in PERTURBATION_FIELDS.values() for f in fields})


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
        with pytest.raises(SystemExit) as excinfo:
            run(["gen", "--out", str(tmp_path / "x.txt")])
        assert excinfo.value.code == 2
        assert "one of the arguments --preset --config is required" in (
            capsys.readouterr().err
        )

    def test_preset_and_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"m": 12, "n": 3}))
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as excinfo:
            run(["gen", "--preset", "stepped", "--config", str(cfg), "--out", str(out)])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("spec", "message"),
        [
            ({"m": 20.5, "n": 4}, "GenSpec: m must be an integer, got 20.5"),
            ({"m": True, "n": 1}, "GenSpec: m must be an integer, got true"),
            (
                {"m": 8, "n": 2, "block_sizes": [4, 4.0], "block_scales": [1, 2]},
                "GenSpec: block_sizes must be an array of integers, got an array",
            ),
            (
                {"m": 8, "n": 2, "kappa": "1e6", "sv_mode": "randsvd"},
                'GenSpec: kappa must be a number, got "1e6"',
            ),
            # Python's json reads Infinity; as kappa it made a rank-1 matrix.
            (
                {"m": 20, "n": 3, "kappa": float("inf"), "sv_mode": "randsvd"},
                "GenSpec: kappa must be a number, got Infinity",
            ),
        ],
    )
    def test_wrong_json_type_exits_one(self, tmp_path, capsys, spec, message):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "x.txt"
        assert run(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"qrlev gen: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(GenSpec)])
    def test_every_field_rejects_a_boolean(self, tmp_path, capsys, field):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"m": 8, "n": 2, field: True}))
        assert run(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.txt")]) == 1
        assert f"GenSpec: {field} must be " in capsys.readouterr().err

    def test_integers_are_numbers(self, tmp_path):
        cfg = tmp_path / "g.json"
        spec = {"m": 8, "n": 2, "block_sizes": [4, 4], "block_scales": [1, 100],
                "kappa": 10, "sv_mode": "randsvd"}
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "x.txt"
        assert run(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_matrix(out).shape == (8, 2)

    def test_kappa_without_randsvd_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"m": 60, "n": 5, "kappa": 1e6}))
        out = tmp_path / "x.txt"
        assert run(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        assert "needs sv_mode 'randsvd'" in capsys.readouterr().err
        assert not out.exists()


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

    def test_metrics_go_to_the_file_or_else_to_stdout(self, tmp_path, capsys):
        mat, cfg = tmp_path / "a.txt", tmp_path / "p.json"
        write_matrix(np.random.default_rng(3).standard_normal((20, 4)), mat)
        cfg.write_text(json.dumps({"kind": "normwise_fro", "eps": 1e-6}))
        delta_path, metrics_path = tmp_path / "d.txt", tmp_path / "m.json"
        argv = ["perturb", str(mat), "--config", str(cfg), "--out", str(delta_path)]
        assert run(argv + ["--metrics-out", str(metrics_path)]) == 0
        assert capsys.readouterr().out == f"{delta_path}\n{metrics_path}\n"
        assert run(argv) == 0
        assert capsys.readouterr().out == f"{delta_path}\n" + metrics_path.read_text()

    def test_rank_deficient_writes_no_delta(self, tmp_path, capsys):
        mat, cfg = tmp_path / "a.txt", tmp_path / "p.json"
        write_matrix(np.ones((3, 2)), mat)
        cfg.write_text(json.dumps({"kind": "normwise_fro", "eps": 1e-8}))
        delta_path = tmp_path / "d.txt"
        argv = ["perturb", str(mat), "--config", str(cfg), "--out", str(delta_path)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rank deficient" in captured.err
        assert not delta_path.exists()

    def test_unwritable_metrics_leave_no_delta(self, tmp_path, capsys):
        mat, cfg = tmp_path / "a.txt", tmp_path / "p.json"
        write_matrix(np.random.default_rng(3).standard_normal((20, 4)), mat)
        cfg.write_text(json.dumps({"kind": "normwise_fro", "eps": 1e-6}))
        delta_path = tmp_path / "d.txt"
        assert run([
            "perturb", str(mat), "--config", str(cfg), "--out", str(delta_path),
            "--metrics-out", str(tmp_path / "nodir" / "m.json"),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "No such file or directory" in captured.err
        assert not delta_path.exists()

    def test_requires_config_exits_two(self, tmp_path, capsys):
        mat = tmp_path / "a.txt"
        write_matrix(np.eye(4)[:, :2], mat)
        with pytest.raises(SystemExit) as excinfo:
            run(["perturb", str(mat), "--out", str(tmp_path / "d.txt")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qrlev perturb")
        assert "the following arguments are required: --config" in err
        assert not (tmp_path / "d.txt").exists()

    @pytest.mark.parametrize(
        ("spec", "message"),
        [
            # The seed comes from --seed only; a spec cannot carry one.
            (
                {"kind": "normwise_fro", "eps": 1e-6, "seed": 3},
                "normwise_fro does not read seed",
            ),
            ({"kind": "componentwise_rows"}, "componentwise_rows needs eta"),
            ({"kind": "normwise_fro"}, "normwise_fro needs eps"),
            ({"kind": "rotation"}, "rotation needs target_sin"),
            (
                {"kind": "normwise_fro", "eps": 1e-8, "target_sin": 0.5},
                "normwise_fro does not read target_sin",
            ),
            ([{"kind": "normwise_fro", "eps": 1e-8}], "JSON object, got list"),
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

    def _perturb(self, tmp_path, recipe):
        # An orthonormal input, so the rotation kind can run too.
        mat = tmp_path / "q.txt"
        write_matrix(random_orthonormal(20, 4, 8), mat)
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps(recipe))
        delta_path = tmp_path / "d.txt"
        code = run([
            "perturb", str(mat), "--config", str(cfg), "--seed", "1",
            "--out", str(delta_path), "--metrics-out", str(tmp_path / "m.json"),
        ])
        return code, delta_path

    @pytest.mark.parametrize("kind", sorted(PERTURBATION_FIELDS))
    def test_exact_fields_run(self, tmp_path, kind):
        assert set(RECIPES[kind]) == {"kind", *PERTURBATION_FIELDS[kind]}
        code, delta_path = self._perturb(tmp_path, RECIPES[kind])
        assert code == 0
        assert np.linalg.norm(read_matrix(delta_path)) > 0

    @pytest.mark.parametrize(
        ("kind", "field"),
        [(k, f) for k in sorted(PERTURBATION_FIELDS) for f in PERTURBATION_FIELDS[k]],
    )
    def test_missing_field_exits_one(self, tmp_path, capsys, kind, field):
        recipe = {k: v for k, v in RECIPES[kind].items() if k != field}
        code, delta_path = self._perturb(tmp_path, recipe)
        assert code == 1
        assert f"{kind} needs {field}" in capsys.readouterr().err
        assert not delta_path.exists()

    @pytest.mark.parametrize(
        ("kind", "field"),
        [
            (k, f)
            for k in sorted(PERTURBATION_FIELDS)
            for f in [*RECIPE_FIELDS, "seed"]
            if f not in PERTURBATION_FIELDS[k]
        ],
    )
    def test_unread_field_exits_one(self, tmp_path, capsys, kind, field):
        code, delta_path = self._perturb(tmp_path, {**RECIPES[kind], field: 1})
        assert code == 1
        assert f"{kind} does not read {field}" in capsys.readouterr().err
        assert not delta_path.exists()

    @pytest.mark.parametrize(
        ("recipe", "message"),
        [
            (
                {"kind": "normwise_fro", "eps": "1e-8"},
                'normwise_fro eps must be a number, got "1e-8"',
            ),
            (
                {"kind": "normwise_two", "eps": True},
                "normwise_two eps must be a number, got true",
            ),
            (
                {"kind": "row_subset", "eps": 1e-8, "row_start": 1.5, "row_stop": 9},
                "row_subset row_start must be an integer, got 1.5",
            ),
            (
                {"kind": "row_subset", "eps": 1e-8, "row_start": 0, "row_stop": [9]},
                "row_subset row_stop must be an integer, got an array",
            ),
            (
                {"kind": "rotation", "target_sin": None},
                "rotation target_sin must be a number, got null",
            ),
            (
                {"kind": "componentwise_rows", "eta": [1e-8] * 19 + [False]},
                "componentwise_rows eta must be a number or an array of numbers, "
                "got an array",
            ),
            # Python's json reads NaN and Infinity: name the field, not
            # the non-finite matrix they would make.
            (
                {"kind": "normwise_fro", "eps": float("nan")},
                "normwise_fro eps must be a number, got NaN",
            ),
            (
                {"kind": "componentwise_rows", "eta": [1e-8] * 19 + [float("-inf")]},
                "componentwise_rows eta must be a number or an array of numbers, "
                "got an array",
            ),
        ],
    )
    def test_wrong_json_type_exits_one(self, tmp_path, capsys, recipe, message):
        code, delta_path = self._perturb(tmp_path, recipe)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"qrlev perturb: {message}\n"
        assert not delta_path.exists()

    def test_eta_per_row_array_runs(self, tmp_path):
        recipe = {"kind": "componentwise_rows", "eta": [1e-8] * 19 + [0]}
        code, delta_path = self._perturb(tmp_path, recipe)
        assert code == 0
        assert not read_matrix(delta_path)[19].any()

    def test_eta_of_another_length_names_it_and_the_row_count(self, tmp_path, capsys):
        # Five factors for a 20-row matrix: the message names both
        # counts, not the shapes numpy failed to broadcast.
        recipe = {"kind": "componentwise_rows", "eta": [1e-8] * 5}
        code, delta_path = self._perturb(tmp_path, recipe)
        assert code == 1
        err = capsys.readouterr().err
        assert err == "qrlev perturb: eta has shape (5,), the matrix 20 rows\n"
        assert not delta_path.exists()

    def test_rotation_accepts_basis_within_basis_tol(self, tmp_path):
        # 12 significant digits leave the stepped basis with a Gram
        # residual (4.09e-12) above the QR kernel's ORTH_TOL * n but
        # within the BASIS_TOL a rotation checks its input against.
        q = stepped_orthonormal(42)
        mat = tmp_path / "q.txt"
        rows = "".join(" ".join(f"{x:.12g}" for x in row) + "\n" for row in q)
        mat.write_text("1000 25\n" + rows)
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"kind": "rotation", "target_sin": 1e-6}))
        delta_path = tmp_path / "d.txt"
        code = run([
            "perturb", str(mat), "--config", str(cfg), "--seed", "1",
            "--out", str(delta_path), "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert code == 0
        assert read_matrix(delta_path).shape == (1000, 25)


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
        assert text[0] == "panel,j,ell,ell_tilde,observed,bound,theorem"
        assert len(text) == 31

    def test_t3_4_eta_recovered_below_any_floor(self, tmp_path, capsys):
        # Entries near 2**-1000 (about 1e-301): eta and the T3_4 bound
        # are those of the same pair at scale 1, up to the subnormal
        # rounding of delta.
        a = np.random.default_rng(1).standard_normal((30, 4))
        delta = componentwise_row_perturbation(a, 1e-8, 2)
        bounds = []
        for exponent in (0, -1000):
            mat, dlt = tmp_path / f"a{exponent}.txt", tmp_path / f"d{exponent}.txt"
            write_matrix(np.ldexp(a, exponent), mat)
            write_matrix(np.ldexp(delta, exponent), dlt)
            assert run([
                "bounds", "t3_4", "--matrix", str(mat), "--delta", str(dlt),
                "--format", "json",
            ]) == 0
            bounds.append([r["bound"] for r in json.loads(capsys.readouterr().out)])
            eta = row_scaling_eta(read_matrix(mat), read_matrix(dlt))
            np.testing.assert_allclose(eta, row_scaling_eta(a, delta), rtol=1e-9)
        np.testing.assert_allclose(bounds[1], bounds[0], rtol=1e-9)

    def test_t3_4_entrywise_delta_exits_one(self, tmp_path, capsys):
        # |delta_jk| <= 1e-8 |a_jk| entry by entry, but not delta = D a:
        # T3_4 does not cover it. Reported as a bound, 99.2% of indices
        # exceeded it, by up to 877x.
        a = stepped_illconditioned(42)
        zeta = np.random.default_rng(42).uniform(-1.0, 1.0, a.shape)
        mat, dlt = tmp_path / "a.txt", tmp_path / "d.txt"
        write_matrix(a, mat)
        write_matrix(zeta * 1e-8 * a, dlt)
        out = tmp_path / "r.csv"
        code = run([
            "bounds", "t3_4", "--matrix", str(mat), "--delta", str(dlt),
            "--out", str(out),
        ])
        assert code == 1
        assert "T3_4 covers delta = D a; row " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [42, 3, 7])
    def test_t3_4_row_scaling_passes_after_text_round_trip(self, tmp_path, seed):
        a = stepped_illconditioned(seed)
        delta = componentwise_row_perturbation(a, 1e-8, seed)
        mat, dlt = tmp_path / "a.txt", tmp_path / "d.txt"
        write_matrix(a, mat)
        write_matrix(delta, dlt)
        assert run([
            "bounds", "t3_4", "--matrix", str(mat), "--delta", str(dlt),
            "--out", str(tmp_path / "r.csv"),
        ]) == 0

    def test_t3_4_refusal_says_how_to_form_delta(self, tmp_path, capsys):
        # (1 + d) a - a is D a up to the rounding of the subtraction,
        # about u |a_jk|: far above the rounding of fl(d_j a_jk).
        a = stepped_illconditioned(42)
        d = np.random.default_rng(1).uniform(-1e-8, 1e-8, a.shape[0])
        mat, dlt = tmp_path / "a.txt", tmp_path / "d.txt"
        write_matrix(a, mat)
        write_matrix((1 + d)[:, None] * a - a, dlt)
        assert run(["bounds", "t3_4", "--matrix", str(mat), "--delta", str(dlt)]) == 1
        assert capsys.readouterr().err == (
            "qrlev bounds: T3_4 covers delta = D a; row 139 of delta departs from a "
            "multiple of row 139 of the matrix by 8.526e-06 relative, beyond rounding. "
            "A difference of two matrices carries rounding of order u |a_jk|: "
            "form delta as d[:, None] * a\n"
        )
        write_matrix(d[:, None] * a, dlt)
        assert run([
            "bounds", "t3_4", "--matrix", str(mat), "--delta", str(dlt),
            "--out", str(tmp_path / "r.csv"),
        ]) == 0

    def test_componentwise_eta_allows_rounding_and_names_the_worst_row(self):
        a = np.random.default_rng(3).standard_normal((20, 4))
        d = np.random.default_rng(4).uniform(-1e-8, 1e-8, 20)
        delta = d[:, None] * a
        np.testing.assert_array_equal(
            row_scaling_eta(a, delta), np.abs(delta / a).max(axis=1)
        )
        # One ulp on one entry is rounding; 1e-12 and 1e-10 are not.
        delta[2, 1] = np.nextafter(delta[2, 1], np.inf)
        row_scaling_eta(a, delta)
        delta[5, 2] *= 1.0 + 1e-12
        delta[11, 0] *= 1.0 + 1e-10
        with pytest.raises(HypothesisError, match="row 11 of delta departs"):
            row_scaling_eta(a, delta)
        # A perturbed zero entry of a is no row scaling either.
        a[7, 3], delta = 0.0, d[:, None] * a
        delta[7, 3] = 1e-300
        with pytest.raises(HypothesisError, match="row 7 of delta departs"):
            row_scaling_eta(a, delta)

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

    @pytest.mark.parametrize(
        ("name", "theorem", "limit"),
        [("t2", "T2", "<= 0.5"), ("t3_1", "T3_1", "<= 0.5"),
         ("t3_2", "T3_2", "< 1.0"), ("t3_3", "T3_3", "<= 0.5")],
    )
    def test_hypothesis_violation_exit_one(
        self, tmp_path, capsys, name, theorem, limit
    ):
        # ||delta||_2 = 2 ||a||_2 on the stepped matrix (kappa2 = 1)
        # breaks every two-norm hypothesis.
        mat, dlt, cfg = tmp_path / "a.txt", tmp_path / "d.txt", tmp_path / "p.json"
        cfg.write_text(json.dumps({"kind": "normwise_two", "eps": 2.0}))
        gen = ["gen", "--preset", "stepped", "--seed", "42", "--out", str(mat)]
        assert run(gen) == 0
        assert run([
            "perturb", str(mat), "--config", str(cfg), "--seed", "1", "--out", str(dlt),
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        a, delta = read_matrix(mat), read_matrix(dlt)
        f = full_rank_qr(a)
        product = measure(f, delta).eps_two * f.stats.kappa2
        capsys.readouterr()
        out = tmp_path / "r.csv"
        code = run([
            "bounds", name, "--matrix", str(mat), "--delta", str(dlt),
            "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"qrlev bounds: {theorem} needs ||delta||_2 ||pinv(a)||_2 {limit}, "
            f"got {product:.3e}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        ("name", "qr_calls"),
        [("t1", 3), ("c1", 3), ("t2", 4), ("t3_1", 4), ("t3_2", 4), ("t3_3", 4),
         ("t3_4", 2)],
    )
    def test_factorizations_of_a_are_not_repeated(
        self, tmp_path, factorization_calls, name, qr_calls
    ):
        # An upper bound, not a pin. Every bound factors a and a + delta
        # once each; measure reads a's factorization and adds only the
        # QR inside two_norm of delta and of its projection; t1 and c1
        # factor nothing more. They run at m = 2n, where T1 also
        # carries the enclosure.
        m = 8 if name in ("t1", "c1") else 30
        a = np.random.default_rng(1).standard_normal((m, 4))
        delta = componentwise_row_perturbation(a, 1e-8, 2)
        mat, dlt, out = tmp_path / "a.txt", tmp_path / "d.txt", tmp_path / "r.csv"
        write_matrix(a, mat)
        write_matrix(delta, dlt)
        argv = ["bounds", name, "--matrix", str(mat), "--delta", str(dlt)]
        assert run(argv + ["--out", str(out)]) == 0
        assert factorization_calls["householder_qr"] <= qr_calls
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        tags = {"t1": ["T1_abs"], "c1": ["C1_rel"], "t2": ["T2_perp", "T2_gen"]}
        tags = tags.get(name, [name.upper()])
        assert [r[6] for r in rows] == [tag for tag in tags for _ in range(m)]
        for tag in tags:
            obs, bnd = np.array(
                [[float(r[4] or "nan"), float(r[5] or "nan")] for r in rows if r[6] == tag]
            ).T
            assert check_policy(obs, bnd, tag).ok

    def test_every_name_matches_the_golden_report(self, tmp_path, capsys):
        # Both formats of every name, byte for byte, each report under a
        # header line: t1 and c1 at m = 2n, the rest at 30 x 4, with
        # delta = D a so that t3_4 applies.
        reports = []
        for name in cli.BOUND_NAMES:
            m = 8 if name in ("t1", "c1") else 30
            a = np.random.default_rng(1).standard_normal((m, 4))
            mat, dlt, out = tmp_path / "a.txt", tmp_path / "d.txt", tmp_path / "r.csv"
            write_matrix(a, mat)
            write_matrix(componentwise_row_perturbation(a, 1e-8, 2), dlt)
            argv = ["bounds", name, "--matrix", str(mat), "--delta", str(dlt)]
            assert run(argv + ["--out", str(out)]) == 0
            assert capsys.readouterr().out == f"{out}\n"
            assert run(argv + ["--format", "json"]) == 0
            reports += [f"== {name} csv\n", out.read_text()]
            reports += [f"== {name} json\n", capsys.readouterr().out]
        golden = Path(__file__).parent / "golden" / "bounds.txt"
        assert "".join(reports).encode() == golden.read_bytes()

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

    def test_json_null_where_csv_is_empty(self, tmp_path):
        # A zero row of a has score 0, so its relative difference and
        # the T3_1 bound there are undefined: an empty CSV field, and
        # null, not the NaN strict JSON parsers reject, in JSON.
        a = np.random.default_rng(1).standard_normal((30, 4))
        a[5] = 0.0
        delta = 1e-8 * np.random.default_rng(2).standard_normal((30, 4))
        mat, dlt = tmp_path / "a.txt", tmp_path / "d.txt"
        write_matrix(a, mat)
        write_matrix(delta, dlt)
        argv = ["bounds", "t3_1", "--matrix", str(mat), "--delta", str(dlt), "--out"]
        assert run(argv + [str(tmp_path / "r.csv")]) == 0
        assert run(argv + [str(tmp_path / "r.json"), "--format", "json"]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        records = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)
        rows = [line.split(",") for line in (tmp_path / "r.csv").read_text().splitlines()]
        assert len(records) == len(rows) - 1 == 30
        for rec, row in zip(records, rows[1:]):
            for key, text in (("ell", row[2]), ("observed", row[4]), ("bound", row[5])):
                assert rec[key] == (float(text) if text else None)
        assert records[5]["observed"] is None and records[5]["bound"] is None


class TestBadMatrixFiles:
    """A bad matrix file exits 1 with the file named where it is read."""

    def _files(self, tmp_path, a, delta):
        mat, dlt = tmp_path / "a.txt", tmp_path / "d.txt"
        write_matrix(a, mat)
        write_matrix(delta, dlt)
        return mat, dlt

    def _nan_at(self, path):
        # write_matrix rejects NaN, so put one into the text directly.
        lines = path.read_text().splitlines()
        lines[2] = "nan " + lines[2].split(" ", 1)[1]
        path.write_text("\n".join(lines) + "\n")

    def test_nan_in_matrix(self, tmp_path, capsys):
        mat, _ = self._files(tmp_path, np.eye(5)[:, :2], np.zeros((5, 2)))
        self._nan_at(mat)
        assert run(["levscores", str(mat)]) == 1
        assert f"{mat} contains non-finite entries" in capsys.readouterr().err

    def test_nan_in_delta(self, tmp_path, capsys):
        mat, dlt = self._files(tmp_path, np.eye(5)[:, :2], np.zeros((5, 2)))
        self._nan_at(dlt)
        assert run(["bounds", "t2", "--matrix", str(mat), "--delta", str(dlt)]) == 1
        assert f"{dlt} contains non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["banana", "5", "5 x", "5 2 1", "0 2", "2 0"])
    def test_malformed_header(self, tmp_path, capsys, header):
        mat = tmp_path / "a.txt"
        mat.write_text(header + "\n1 0\n0 1\n")
        assert run(["levscores", str(mat)]) == 1
        assert f"{mat}: malformed header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body", ["", "\n  \n# no rows\n\n"], ids=["header only", "blank and comments"]
    )
    def test_header_without_rows(self, tmp_path, capsys, body):
        mat = tmp_path / "a.txt"
        mat.write_text("3 2\n" + body)
        assert run(["levscores", str(mat)]) == 1
        err = capsys.readouterr().err
        assert f"{mat}: header promises 3x2, all 3 rows are missing" in err
        assert "0x1" not in err

    def test_bad_entry(self, tmp_path, capsys):
        mat = tmp_path / "a.txt"
        mat.write_text("2 2\n1 0\n0 one\n")
        assert run(["levscores", str(mat)]) == 1
        assert f"{mat}: could not convert" in capsys.readouterr().err

    def test_mismatched_shapes(self, tmp_path, capsys):
        mat, dlt = self._files(tmp_path, np.eye(5)[:, :2], np.zeros((4, 2)))
        out = tmp_path / "r.csv"
        code = run([
            "bounds", "t2", "--matrix", str(mat), "--delta", str(dlt), "--out", str(out)
        ])
        assert code == 1
        assert f"{dlt} is 4x2 but {mat} is 5x2" in capsys.readouterr().err
        assert not out.exists()


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
            ["perturb", "a.txt", "--config", "c.json", "--format", "json"],
            ["figure", "1", "--format", "json"],
            ["figure", "4", "--config", "x.json"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "seed"),
        [
            (["gen", "--preset", "stepped"], 0),
            (["perturb", "a.txt", "--config", "c.json"], 0),
            (["figure", "1"], 0),
            (["check"], acceptance.DEFAULT_SEED),
            (["check", "--seed", "3"], 3),
        ],
        ids=["gen", "perturb", "figure", "check", "check_seed_3"],
    )
    def test_seed_default(self, argv, seed):
        assert cli.build_parser().parse_args(argv).seed == seed

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--preset", "stepped", "--seed", "-1"],
            ["perturb", "a.txt", "--config", "c.json", "--seed", "-3"],
            ["figure", "1", "--seed", "-1"],
            ["check", "--seed", "-1"],
            ["check", "--seed", "x"],
        ],
    )
    def test_bad_seed_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: must be a nonnegative integer, got '{argv[-1]}'" in err


class TestBlasThreads:
    @pytest.mark.parametrize("fails", [False, True])
    def test_command_runs_at_one_blas_thread_and_restores(
        self, tmp_path, monkeypatch, capsys, two_blas_threads, fails
    ):
        # The failing read takes main's exit-1 path.
        seen = []

        def read(path):
            seen.append([pool.get() for pool in two_blas_threads])
            if fails:
                raise OSError(f"cannot read {path}")
            return np.eye(3)

        monkeypatch.setattr(cli, "read_matrix", read)
        code = run(["levscores", "a.txt", "--out", str(tmp_path / "lev.csv")])
        assert code == (1 if fails else 0)
        if fails:
            assert "qrlev levscores: cannot read a.txt" in capsys.readouterr().err
        assert seen == [[1] * len(two_blas_threads)]
        assert [pool.get() for pool in two_blas_threads] == [2] * len(two_blas_threads)


class TestLogLevel:
    """
    QRLEV_LOGLEVEL is read in a fresh interpreter: under pytest the root
    logger already has handlers, so logging.basicConfig would not read
    the level at all.
    """

    def _gen(self, tmp_path, level):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), QRLEV_LOGLEVEL=level)
        out = tmp_path / "a.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "qrlev.cli", "gen", "--preset", "stepped",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        return proc, out

    def test_unknown_level_is_a_one_line_refusal(self, tmp_path):
        proc, out = self._gen(tmp_path, "bogus")
        assert proc.returncode == 1
        assert proc.stderr == "qrlev gen: QRLEV_LOGLEVEL: Unknown level: 'bogus'\n"
        assert proc.stdout == ""
        assert not out.exists()

    def test_known_level_runs(self, tmp_path):
        proc, out = self._gen(tmp_path, "WARNING")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{out}\n"
        assert out.exists()
