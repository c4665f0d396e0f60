"""
Tests of the benchmark itself: the factorization tally, the tracer's
rebinding, and that every output check fails on a corrupted input.

    python3 -m pytest perfbench -q
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

qrlev = run.import_package()


def _by_name(spans):
    stats = tracer.summarize(spans, 0, len(spans))
    return {name: (st["calls"], st["distinct"]) for name, st in stats.items()}


def test_fig2_factorization_tally():
    experiments = qrlev.experiments
    with tracer.Tracer() as t:
        experiments.run_figure(
            experiments.ExperimentConfig(figure="fig2", seed=42), emit=False
        )
    counts = _by_name(t.spans)
    assert counts["linalg.householder_qr"] == (19, 13)
    assert counts["linalg.jacobi_svd"] == (16, 12)


def test_recursion_is_one_span_and_inner_qr_has_jacobi_parent():
    wide = np.random.default_rng(0).standard_normal((3, 7))  # transposes, then QR
    with tracer.Tracer() as t:
        qrlev.linalg.jacobi_svd(wide)
    names = [s[0] for s in t.spans]
    assert names == ["linalg.jacobi_svd", "linalg.householder_qr"]
    assert t.spans[1][3] == 0


def test_sigma_only_excludes_leverage_svd():
    a = np.random.default_rng(1).standard_normal((40, 4))
    with tracer.Tracer() as t:
        qrlev.leverage.leverage_svd(a)
        qrlev.leverage.matrix_stats(a)
    stats = tracer.summarize(t.spans, 0, len(t.spans))
    assert stats["linalg.jacobi_svd"]["calls"] == 2
    assert stats["linalg.jacobi_svd"]["sigma_only"] == 1


def test_tracer_restores_every_binding():
    originals = {
        "leverage.householder_qr": qrlev.leverage.householder_qr,
        "linalg.householder_qr": qrlev.linalg.householder_qr,
        "runners": dict(qrlev.experiments.FIGURE_RUNNERS),
        "criteria": qrlev.acceptance.CRITERIA,
    }
    with tracer.Tracer():
        assert qrlev.leverage.householder_qr is not originals["leverage.householder_qr"]
        assert qrlev.experiments.FIGURE_RUNNERS["fig1"] is not originals["runners"]["fig1"]
        assert qrlev.acceptance.CRITERIA[0].__doc__ == originals["criteria"][0].__doc__
    assert qrlev.leverage.householder_qr is originals["leverage.householder_qr"]
    assert qrlev.linalg.householder_qr is originals["linalg.householder_qr"]
    assert qrlev.experiments.FIGURE_RUNNERS == originals["runners"]
    assert qrlev.acceptance.CRITERIA is originals["criteria"]


def test_bookkeeping_stays_out_of_the_parents_self_time():
    spans = [
        ["linalg.jacobi_svd", 0.0, 10.0, -1, {}],
        ["linalg.householder_qr", 2.0, 5.0, 0, {"bookkeeping_s": 1.0}],
    ]
    stats = tracer.summarize(spans, 0, len(spans))
    assert stats["linalg.jacobi_svd"]["self_s"] == 6.0
    assert stats["linalg.householder_qr"]["self_s"] == 3.0
    metrics = tracer.per_layer_metrics(spans, (0, 0), [(0, len(spans))])
    assert metrics["trace.overhead_s"] == 1.0


def test_factorization_spans_record_their_bookkeeping():
    a = np.random.default_rng(2).standard_normal((200, 5))
    with tracer.Tracer() as t:
        qrlev.leverage.leverage_qr(a)
    qr = [s for s in t.spans if s[0] == "linalg.householder_qr"]
    assert qr and all(s[4]["bookkeeping_s"] > 0.0 for s in qr)


def test_per_layer_metrics_cover_every_name():
    experiments = qrlev.experiments
    t = tracer.Tracer()
    with t:
        experiments.run_figure(experiments.ExperimentConfig(figure="fig1", seed=3), emit=False)
    metrics = tracer.per_layer_metrics(t.spans, (0, 0), [(0, len(t.spans))])
    names = {name for name, _ in tracer.PER_LAYER} - {"trace.wall_s"}
    assert set(metrics) == names
    assert metrics["angles.principal_angles.calls"] == 3
    assert metrics["experiments.runner.self_s"] > 0


# -- output checks fail on corrupted input -----------------------------------


def test_figures_check_rejects_wrong_or_changing_csv(tmp_path):
    golden = workloads.Figures(qrlev, 42, str(tmp_path))
    assert golden.check("fig1", golden.golden["fig1"]) is None
    assert golden.check("fig2", "0" * 64) is not None

    other = workloads.Figures(qrlev, 7, str(tmp_path))
    assert other.check("fig1", "a" * 64) is None
    assert other.check("fig1", "b" * 64) is not None


def test_figures_output_hashes_the_csv(tmp_path):
    fig = workloads.Figures(qrlev, 42, str(tmp_path))
    (tmp_path / "fig1.csv").write_bytes(b"panel,j\n")  # truncated output
    assert fig.check("fig1", fig.output("fig1", None, str(tmp_path))) is not None


def test_acceptance_check_wants_exactly_criterion_8_at_default_seed():
    acc = workloads.Acceptance(qrlev, 42, "")
    assert acc.check("run_all", (8,)) is None
    assert acc.check("run_all", (3, 8)) is not None
    assert acc.check("run_all", (7, 8)) is not None
    assert acc.check("run_all", ()) is not None


def test_acceptance_check_allows_only_bracket_criteria_at_other_seeds():
    acc = workloads.Acceptance(qrlev, 12, "")
    assert acc.check("run_all", (7, 8)) is None
    acc = workloads.Acceptance(qrlev, 12, "")
    assert acc.check("run_all", (8, 9)) is not None
    acc = workloads.Acceptance(qrlev, 12, "")
    assert acc.check("run_all", (8,)) is None
    assert acc.check("run_all", (7, 8)) is not None  # must repeat across passes


def test_acceptance_output_counts_criteria():
    acc = workloads.Acceptance(qrlev, 42, "")
    result = [
        qrlev.acceptance.CriterionResult(k, "c", k != 8, "") for k in range(1, 14)
    ]
    assert acc.output("run_all", result, "") == (8,)
    result[2].passed = False  # a corrupted run: criterion 3 red too
    assert acc.check("run_all", acc.output("run_all", result, "")) is not None
    assert (acc.criteria_failed, acc.criteria_attempted) == (3, 26)


def _stepped(m, core, seed):
    generate = qrlev.generate
    spec = generate.GenSpec(
        m=m, n=5, block_sizes=[m // 4] * 4, block_scales=[1.0, 1e2, 1e3, 1e4],
        kappa=1e6 if core == "randsvd" else 1.0, sv_mode=core,
    )
    return generate.generate(spec, seed)


@pytest.mark.parametrize("core", ["gaussian", "randsvd"])
def test_levscores_check_accepts_qr_and_rejects_corruption(core):
    a = _stepped(400, core, 5)
    ref, tol = workloads.reference_scores(a)
    scores = qrlev.leverage.leverage_qr(a)
    assert workloads.scores_mismatch(scores, ref, tol) is None

    j = int(np.argmax(ref))
    bumped = scores.copy()
    bumped[j] += 10 * tol[j]
    assert workloads.scores_mismatch(bumped, ref, tol) is not None
    swapped = scores.copy()
    swapped[[0, j]] = swapped[[j, 0]]
    assert workloads.scores_mismatch(swapped, ref, tol) is not None
    assert workloads.scores_mismatch(scores[:-1], ref, tol) is not None
    nan = scores.copy()
    nan[3] = np.nan
    assert workloads.scores_mismatch(nan, ref, tol) is not None


def test_levscores_tolerance_needs_the_bound_hypothesis():
    a = np.ones((50, 2))
    a[::2, 1] += 1e-15  # kappa2 * eps far above 1/2
    ref, tol = workloads.reference_scores(a)
    assert tol is None
    assert workloads.scores_mismatch(ref, ref, tol) is not None


def test_cli_check_rejects_nonzero_exit_and_changed_bytes(tmp_path):
    cli = workloads.CliRoundtrip(qrlev, 1, str(tmp_path))
    assert cli.check("gen", (1, "x")) is not None
    assert cli.check("levscores", (0, "x")) is None
    assert cli.check("levscores", (0, "y")) is not None


def test_cli_output_hashes_files_and_stdout(tmp_path):
    cli = workloads.CliRoundtrip(qrlev, 1, str(tmp_path))
    (tmp_path / "lev.csv").write_text("j,ell\n0,1.0\n")
    first = cli.output("levscores", (0, f"{tmp_path}/lev.csv\n"), str(tmp_path))
    assert cli.check("levscores", first) is None
    (tmp_path / "lev.csv").write_text("j,ell\n0,1.5\n")
    second = cli.output("levscores", (0, f"{tmp_path}/lev.csv\n"), str(tmp_path))
    assert cli.check("levscores", second) is not None


class _Flaky(workloads.Workload):
    name = "flaky"

    def operations(self, pass_dir):
        def boom():
            raise RuntimeError("boom")

        return [("ok", lambda: 1), ("boom", boom)]


def test_run_counts_a_raising_operation_as_failed(tmp_path):
    r = run.Run(_Flaky(qrlev, 0, str(tmp_path)))
    wall, cpu, ops = r.one_pass(str(tmp_path))
    assert (r.attempted, len(r.failures)) == (2, 1)
    assert set(ops) == {"ok", "boom"} and wall >= 0.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_qr_gflop_formula():
    assert tracer.qr_gflop((1000, 25)) == pytest.approx((4 * 1000 * 625 - 4 * 25**3 / 3) / 1e9)


def test_digest_tells_shape_and_bytes_apart():
    a = np.arange(6.0).reshape(2, 3)
    assert tracer.digest(a) == tracer.digest(a.copy())
    assert tracer.digest(a) != tracer.digest(a.reshape(3, 2))
    assert tracer.digest(a) != tracer.digest(a + 1e-300)
