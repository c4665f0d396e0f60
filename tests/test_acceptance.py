"""
Acceptance gate: one test per numbered criterion, each printing its
pass/fail line (run with -s or look at captured output).

Criterion 8's second clause (relative accuracy loss >= 0.1 in the
smallest leverage block at a 1e-5 Frobenius perturbation) is marked
strict-xfail: under this construction the observed block maximum
concentrates at 0.055-0.08 for every seed (240 scanned), i.e. the
threshold sits one notch above what the experiment produces. The
first clause (decade profile at 1e-8) is asserted separately below.
"""

from pathlib import Path

import numpy as np
import pytest

from qrlev import acceptance, angles, bounds, experiments, leverage, linalg
from qrlev.bounds import EXACT_ABS_SLACK, bound_c1, bound_t1
from qrlev.experiments import FigurePanel
from qrlev.generate import gaussian_matrix, random_orthonormal, randsvd_matrix
from qrlev.leverage import leverage_from_basis, leverage_qr, leverage_svd
from qrlev.linalg import householder_qr


@pytest.fixture(scope="module")
def results():
    out = acceptance.run_all(seed=acceptance.DEFAULT_SEED)
    for res in out:
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number:2d} [{status}] {res.name}: {res.detail}")
    return {r.number: r for r in out}


def _assert_criterion(results, number):
    res = results[number]
    print(f"criterion {res.number:2d} "
          f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    assert res.passed, res.detail


def test_criterion_01_leverage_axioms(results):
    _assert_criterion(results, 1)


def test_criterion_02_oracle_equivalence(results):
    _assert_criterion(results, 2)


def test_criterion_03_angle_formula_equivalence(results):
    _assert_criterion(results, 3)


def test_criterion_04_exact_bound_inequalities(results):
    _assert_criterion(results, 4)


def test_criterion_05_sandwich(results):
    _assert_criterion(results, 5)


def test_criterion_06_first_order_bounds(results):
    _assert_criterion(results, 6)


def test_criterion_07_figure1_brackets(results):
    _assert_criterion(results, 7)


@pytest.mark.xfail(
    strict=True,
    reason="accuracy-loss clause: the smallest-block max at a 1e-5 Frobenius "
    "perturbation concentrates at 0.055-0.08 (never >= 0.1) under this "
    "construction; implemented as stated and left red deliberately",
)
def test_criterion_08_figure3_brackets(results):
    _assert_criterion(results, 8)


def test_criterion_08_decade_profile_clause(results):
    # The first clause of criterion 8 must hold even though the
    # aggregate is expected-fail above.
    assert results[8].extra["decade_ok"], results[8].detail
    # The loss clause sits in its known concentration band; if it
    # drifts below, something changed in the experiment itself.
    assert results[8].extra["loss"] >= 0.03, results[8].detail


def test_criterion_09_figure4_locality(results):
    _assert_criterion(results, 9)


def test_criterion_10_figure5_independence(results):
    _assert_criterion(results, 10)


def test_criterion_11_first_order_machinery(results):
    _assert_criterion(results, 11)


def test_criterion_12_counterexample(results):
    _assert_criterion(results, 12)


def test_criterion_13_determinism(results):
    _assert_criterion(results, 13)


def test_cli_check_reports_every_criterion(results, capsys, monkeypatch):
    # The check subcommand prints one line per criterion and exits
    # nonzero because criterion 8 is red (see module docstring). It is
    # handed the module's results instead of running the suite again.
    # Its stdout must match the committed seed-42 report byte for byte.
    from qrlev.cli import main

    monkeypatch.setattr(
        acceptance, "run_all", lambda seed: [results[k] for k in sorted(results)]
    )
    code = main(["check", "--seed", str(acceptance.DEFAULT_SEED)])
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 13
    assert sum("[FAIL]" in l for l in lines) == 1
    assert "[FAIL] figure 3 brackets" in out
    assert code == 1
    golden = Path(__file__).parent / "golden" / "check_seed42.txt"
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("seed", [3, 7])
def test_cli_check_matches_golden_report(seed, capsys):
    # A full run at two more seeds; each exits 1 on criterion 8 alone.
    from qrlev.cli import main

    assert main(["check", "--seed", str(seed)]) == 1
    golden = Path(__file__).parent / "golden" / f"check_seed{seed}.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def _panels_within_bounds():
    """
    A ctx for criteria 4 and 6 whose panels all hold their bounds:
    observed differences are half the bound at 200 indices.
    """

    def panel(name, theorem):
        ell = np.full(200, 0.1)
        return FigurePanel(
            name, theorem, ell, ell * (1.0 + 5e-7), np.full(200, 5e-7), np.full(200, 1e-6)
        )

    figures = {
        "fig1": {n: panel(n, "C1_rel") for n in "bcd"},
        "fig2": {n: panel(n, t) for n, t in zip("cdef", ("T2_gen",) * 2 + ("T2_perp",) * 2)},
        "fig3": {n: panel(n, "T3_1") for n in "ab"},
        "fig4": {n: panel(n, "T3_2") for n in "ab"},
        "fig5": {n: panel(n, "T3_4") for n in "ab"},
    }
    return {
        "seed": acceptance.DEFAULT_SEED,
        "figures": figures,
        "fig4_t3_3": {n: panel(n, "T3_3") for n in "ab"},
    }


def test_criterion_4_t1_bound_is_ell_times_c1_bound(monkeypatch):
    # Criterion 4 checks T1_abs as ell * C1_rel from fig1's panels;
    # bound_t1, the evaluator behind `qrlev bounds t1`, must agree.
    # fig1 reaches bound_c1 through bounds.EVALUATORS.
    seen = []

    def recording(lev, angles):
        seen.append(angles)
        return bound_c1(lev, angles)

    monkeypatch.setattr(bounds, "bound_c1", recording)
    panels = experiments.run_fig1(acceptance.DEFAULT_SEED)[1:]
    assert len(seen) == len(panels) == 3
    for p, angles in zip(panels, seen):
        np.testing.assert_allclose(
            bound_t1(p.ell, angles).per_index_bound, p.bound * p.ell, rtol=1e-14, atol=0
        )


def test_criteria_4_and_6_pass_on_panels_within_their_bounds():
    ctx = _panels_within_bounds()
    assert acceptance.criterion_4(ctx).passed
    res = acceptance.criterion_6(ctx)
    assert res.passed
    assert res.detail.count("frac 1.000 worst 0.50") == 6


@pytest.mark.parametrize(
    ("figure", "name", "theorem"),
    [("fig1", "c", "C1_rel"), ("fig2", "e", "T2_perp"), ("fig3", "b", "T3_1")],
)
def test_criterion_4_fails_on_one_index_above_its_bound(figure, name, theorem):
    ctx = _panels_within_bounds()
    p = ctx["figures"][figure][name]
    p.observed[17] = 1.01 * p.bound[17]
    res = acceptance.criterion_4(ctx)
    assert not res.passed
    assert res.detail == f"violations: {theorem} {figure}/{name}:1"


def test_criterion_4_checks_the_absolute_bound():
    ctx = _panels_within_bounds()
    p = ctx["figures"]["fig1"]["d"]
    p.ell_tilde[3] = p.ell[3] * (1.0 + 1.01e-6)
    res = acceptance.criterion_4(ctx)
    assert not res.passed
    assert res.detail == "violations: T1_abs fig1/d:1"


@pytest.mark.parametrize(
    ("source", "figure", "name", "theorem"),
    [
        ("fig4", "fig4", "a", "T3_2"),
        ("fig4_t3_3", "fig4", "b", "T3_3"),
        ("fig5", "fig5", "b", "T3_4"),
    ],
)
def test_criterion_6_fails_on_one_index_beyond_the_cap(source, figure, name, theorem):
    ctx = _panels_within_bounds()
    panels = ctx[source] if source == "fig4_t3_3" else ctx["figures"][source]
    p = panels[name]
    # One index above the bound is within the 99 percent allowance.
    p.observed[17] = 2.0 * p.bound[17]
    assert acceptance.criterion_6(ctx).passed
    p.observed[17] = 11.0 * p.bound[17]
    res = acceptance.criterion_6(ctx)
    assert not res.passed
    assert res.detail.endswith(f" FAILED: {theorem} {figure}/{name}")
    assert f"{theorem}/{name} frac 0.995 worst 11.00" in res.detail


def _ensemble_item_reference(a, rng):
    """
    The ensemble item as computed before the factorization was shared:
    three Householder QRs and two Jacobi SVDs per matrix.
    """
    n = a.shape[1]
    lev_q = leverage_qr(a)
    lev_s = leverage_svd(a)
    oracle_diff = float(np.max(np.abs(lev_q - lev_s)))
    q = householder_qr(a).q
    w = random_orthonormal(n, n, rng)
    basis_diff = float(
        np.max(np.abs(leverage_from_basis(q @ w) - leverage_from_basis(q)))
    )
    return lev_q, oracle_diff, basis_diff, n


def _item_bytes(item):
    lev_q, oracle_diff, basis_diff, n = item
    return (
        lev_q.tobytes(),
        np.float64(oracle_diff).tobytes(),
        np.float64(basis_diff).tobytes(),
        n,
    )


@pytest.mark.parametrize(
    ("m", "n", "kappa"),
    [
        (40, 1, None),
        (300, 1, 1e6),
        (26, 25, None),
        (1000, 25, None),
        (500, 12, 1e6),
        (200, 25, 1e6),
        (60, 3, 1e3),
        # Square input: leverage_svd reduces through the same QR as
        # the shared route, so these agree bit for bit as well.
        (1, 1, None),
        (2, 2, None),
        (25, 25, None),
        (12, 12, 1e6),
    ],
)
def test_ensemble_item_is_bitwise_the_three_factorization_recipe(m, n, kappa):
    rng = np.random.default_rng([m, n])
    if kappa is None:
        a = gaussian_matrix(m, n, rng)
    else:
        a = randsvd_matrix(m, n, kappa, rng)
    shared = acceptance._ensemble_item(a, np.random.default_rng(9))
    reference = _ensemble_item_reference(a, np.random.default_rng(9))
    assert _item_bytes(shared) == _item_bytes(reference)


def test_ensemble_matches_the_three_factorization_recipe(monkeypatch):
    monkeypatch.setattr(acceptance, "ENSEMBLE_SIZE", 12)
    shared = acceptance._build_ensemble(acceptance.DEFAULT_SEED)
    monkeypatch.setattr(acceptance, "_ensemble_item", _ensemble_item_reference)
    reference = acceptance._build_ensemble(acceptance.DEFAULT_SEED)
    assert [_item_bytes(i) for i in shared] == [_item_bytes(i) for i in reference]


def test_ensemble_factors_each_matrix_once(monkeypatch):
    size = 6
    monkeypatch.setattr(acceptance, "ENSEMBLE_SIZE", size)
    calls = {"householder_qr": 0, "jacobi_svd": 0}
    for module in (acceptance, leverage):
        for name in calls:
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    assert len(acceptance._build_ensemble(acceptance.DEFAULT_SEED)) == size
    assert calls == {"householder_qr": size, "jacobi_svd": size}


def test_criterion_11_factors_each_matrix_once(factorization_calls):
    # Upper bounds, not pins, so that removing more repeated work
    # passes. Each of the 100 pairs and the decay matrix is factored
    # once; the other QR calls build the randsvd inputs and factor
    # a + t * direction once per step t, for both the decay and the
    # finite-difference checks.
    res = acceptance.criterion_11({"seed": acceptance.DEFAULT_SEED})
    assert res.passed, res.detail
    assert factorization_calls["householder_qr"] <= 307
    assert factorization_calls["jacobi_svd"] <= 105


def test_criterion_3_fails_on_a_small_error_in_the_projected_sines(monkeypatch):
    # A 1e-6 relative error in the singular values principal_angles
    # reads from its projected matrix (I - q q.T) q_tilde: those below
    # the small-angle cutoff. Criterion 3 can only see it if the
    # projector side takes its sine from another matrix.
    projected = set()
    cutoff = np.sqrt(1.0 - angles.SMALL_ANGLE_COS**2)

    def recording(q, q_tilde):
        projected.add(angles._project_out(q, q_tilde).tobytes())
        return angles.principal_angles(q, q_tilde)

    def perturbed(a):
        res = linalg.jacobi_svd(a)
        if a.tobytes() in projected:
            small = res.sigma < cutoff
            return res._replace(sigma=np.where(small, res.sigma * (1.0 + 1e-6), res.sigma))
        return res

    monkeypatch.setattr(acceptance, "principal_angles", recording)
    monkeypatch.setattr(angles, "jacobi_svd", perturbed)
    res = acceptance.criterion_3({"seed": acceptance.DEFAULT_SEED})
    assert not res.passed, res.detail


def test_criterion_5_fails_on_one_index_outside_the_enclosure(monkeypatch):
    # The first instance's score 7 lands just above its upper bound.
    calls = []

    def one_outside(report, pert_lev):
        if not calls:
            pert_lev = pert_lev.copy()
            pert_lev[7] = report.upper[7] + 2.0 * EXACT_ABS_SLACK
        calls.append(1)
        return bounds.sandwich_holds(report, pert_lev)

    monkeypatch.setattr(acceptance, "sandwich_holds", one_outside)
    res = acceptance.criterion_5({"seed": acceptance.DEFAULT_SEED})
    assert len(calls) == acceptance.SANDWICH_INSTANCES
    assert not res.passed, res.detail


def test_run_all_runs_at_one_blas_thread_and_restores(monkeypatch, two_blas_threads):
    # Stub the shared inputs; one criterion records the counts it sees
    # and one crashes, which run_all reports as a failed criterion.
    def counts():
        return [pool.get() for pool in two_blas_threads]

    seen = {}

    def fig4_stub(seed, tags):
        seen["fig4"] = counts()
        return [], []

    def recording(ctx):
        seen["criterion"] = counts()
        return acceptance.Verdict(True, "")

    def crashing(ctx):
        raise RuntimeError("criterion crashed")

    monkeypatch.setattr(acceptance, "fig4_panels", fig4_stub)
    monkeypatch.setattr(acceptance, "_build_ensemble", lambda seed: [])
    monkeypatch.setattr(acceptance, "CRITERIA", (recording, crashing))
    monkeypatch.setattr(acceptance, "CRITERION_NAMES", ("records", "crashes"))
    results = acceptance.run_all(seed=0)
    one = [1] * len(two_blas_threads)
    assert seen == {"fig4": one, "criterion": one}
    assert [(r.number, r.name, r.passed) for r in results] == [
        (1, "records", True), (2, "crashes", False)
    ]
    assert "criterion crashed" in results[1].detail
    assert counts() == [2] * len(two_blas_threads)


def test_criteria_are_numbered_by_their_position():
    # run_all numbers criteria by position, and perfbench's tracer
    # keys them by function name, so the two must agree.
    assert len(acceptance.CRITERIA) == len(acceptance.CRITERION_NAMES) == 13
    for k, fn in enumerate(acceptance.CRITERIA, start=1):
        assert fn.__name__ == f"criterion_{k}"


def test_crashed_criterion_is_one_line_under_its_table_name(monkeypatch, capsys):
    from qrlev.cli import main

    def passing(ctx):
        return acceptance.Verdict(True, "ok")

    def crashing(ctx):
        raise RuntimeError("oracle\ncrashed")

    criteria = [passing] * 13
    criteria[1] = crashing
    monkeypatch.setattr(acceptance, "fig4_panels", lambda seed, tags: ([], []))
    monkeypatch.setattr(acceptance, "_build_ensemble", lambda seed: [])
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria))
    res = acceptance.run_all(seed=0)[1]
    assert (res.number, res.name, res.passed) == (2, "oracle equivalence", False)
    assert main(["check", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14
    assert all(line.startswith("criterion") for line in lines[:13])
    assert lines[1] == (
        "criterion  2 [FAIL] oracle equivalence: RuntimeError('oracle\\ncrashed')"
    )
    assert lines[13] == "12/13 criteria passed"
