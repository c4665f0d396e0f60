import dataclasses

import numpy as np
import pytest

from qrlev import bounds
from qrlev.acceptance import DEFAULT_SEED, RDOT_PAIRS, _rngs
from qrlev.angles import PrincipalAngles, principal_angles
from qrlev.bounds import (
    EXACT_ABS_SLACK,
    EXACT_REL_SLACK,
    FIRST_ORDER_CAP,
    Hypothesis,
    HypothesisError,
    bound_c1,
    bound_t1,
    bound_t2,
    bound_t3_1,
    bound_t3_2,
    bound_t3_3,
    bound_t3_4,
    check_policy,
    delta_q_first_order,
    observed,
    qr_q_difference,
    rdot_rinv,
    sandwich_holds,
)
from qrlev.generate import gaussian_matrix, random_orthonormal, randsvd_matrix
from qrlev.leverage import (
    MatrixStats,
    full_rank_qr,
    leverage_from_basis,
    leverage_qr,
    matrix_stats,
)
from qrlev.linalg import (
    RankDeficiencyError,
    fro_norm,
    householder_qr,
    project_complement,
    solve_upper,
    triu_half,
)
from qrlev.perturb import PerturbationMetrics, measure, normwise_perturbation


def angles_of(sin_max, cos_min=1.0, n=3):
    cosines = np.full(n, cos_min)
    sines = np.full(n, sin_max)
    return PrincipalAngles(cosines=cosines, sines=sines)


def metrics_of(eps_two=0.0, eps_fro=0.0, eps_two_perp=0.0, eps_fro_perp=0.0,
               eps_row=None, eps_row_perp=None, m=4):
    zero = np.zeros(m)
    return PerturbationMetrics(
        eps_two=eps_two,
        eps_fro=eps_fro,
        eps_two_perp=eps_two_perp,
        eps_fro_perp=eps_fro_perp,
        eps_row=zero if eps_row is None else np.asarray(eps_row, float),
        eps_row_perp=zero if eps_row_perp is None else np.asarray(eps_row_perp, float),
    )


def stats_of(kappa2=1.0, stable_rank=25.0):
    return MatrixStats(kappa2=kappa2, stable_rank=stable_rank)


class TestBoundT1:
    def test_zero_angle_zero_bound(self):
        lev = np.array([0.1, 0.5, 0.9])
        report = bound_t1(lev, angles_of(0.0))
        np.testing.assert_array_equal(report.per_index_bound, 0.0)

    def test_endpoint_scores(self):
        report = bound_t1(np.array([0.0, 1.0]), angles_of(1e-3))
        np.testing.assert_allclose(report.per_index_bound, 1e-6, rtol=1e-12)

    def test_sandwich_present_only_for_m_2n(self):
        lev6 = np.full(6, 0.5)
        assert bound_t1(lev6, angles_of(0.1, n=3)).lower is not None
        lev7 = np.full(7, 0.5)
        report = bound_t1(lev7, angles_of(0.1, n=3))
        assert report.lower is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.lower = np.zeros(7)

    def test_complement_forces_flip(self):
        rng = np.random.default_rng(2)
        q = random_orthonormal(10, 5, rng)
        comp = householder_qr(
            project_complement(q, gaussian_matrix(10, 5, rng))
        ).q
        lev = leverage_from_basis(q)
        lev_tilde = leverage_from_basis(comp)
        report = bound_t1(lev, principal_angles(q, comp))
        np.testing.assert_allclose(report.lower, 1.0 - lev, atol=1e-12)
        np.testing.assert_allclose(report.upper, 1.0 - lev, atol=1e-12)
        assert sandwich_holds(report, lev_tilde).all()

    def test_sandwich_slack_edge(self):
        # The enclosure allows EXACT_ABS_SLACK = 1e-12 on either side.
        report = bound_t1(np.full(6, 0.5), angles_of(0.1, n=3))
        for edge, outward in ((report.lower, -1.0), (report.upper, 1.0)):
            assert sandwich_holds(report, edge + outward * 0.5e-12).all()
            assert not sandwich_holds(report, edge + outward * 2e-12).any()

    def test_holds_with_observed(self):
        lev = np.array([0.2, 0.8])
        report = bound_t1(lev, angles_of(1e-4))
        observed = np.array([1e-9, 1e-9])
        assert check_policy(observed, report.per_index_bound, report.theorem).ok


class TestBoundC1:
    def test_full_score(self):
        report = bound_c1(np.array([1.0]), angles_of(1e-4))
        np.testing.assert_allclose(report.per_index_bound, [1e-8], rtol=1e-12)

    def test_frozen_small_score_case(self):
        report = bound_c1(np.array([1e-10]), angles_of(1e-8, cos_min=1.0))
        assert report.per_index_bound[0] == pytest.approx(2.001e-3, rel=1e-3)

    def test_zero_score_flagged(self):
        report = bound_c1(np.array([0.0, 0.5]), angles_of(1e-4))
        assert np.isnan(report.per_index_bound[0])
        assert np.isfinite(report.per_index_bound[1])

    def test_covers_rotation_experiment(self):
        rng = np.random.default_rng(3)
        q = random_orthonormal(120, 6, rng)
        from qrlev.perturb import rotation_perturbation

        q_tilde = rotation_perturbation(q, 1e-5, rng)
        lev = leverage_from_basis(q)
        rel = np.abs(leverage_from_basis(q_tilde) - lev) / lev
        report = bound_c1(lev, principal_angles(q, q_tilde))
        check = check_policy(rel, report.per_index_bound, report.theorem)
        assert not check.first_order and check.holds.all()


class TestBoundT2:
    def test_projected_zero_for_range_preserving(self):
        a = random_orthonormal(30, 4, 2)
        delta = a @ (1e-3 * gaussian_matrix(4, 4, 3))
        metrics = measure(full_rank_qr(a), delta)
        projected, general = bound_t2(
            leverage_from_basis(a), matrix_stats(a), metrics
        )
        assert np.all(projected.per_index_bound <= 1e-12)
        assert np.all(general.per_index_bound > 0)

    def test_full_score_unit_kappa(self):
        projected, general = bound_t2(
            np.array([1.0]), stats_of(), metrics_of(eps_two=1e-8, m=1)
        )
        assert general.per_index_bound[0] == pytest.approx(1e-16, rel=1e-12)

    def test_hypothesis_enforced(self):
        with pytest.raises(HypothesisError, match="T2"):
            bound_t2(np.array([0.5]), stats_of(kappa2=100.0),
                     metrics_of(eps_two=0.02, m=1))


class TestBoundT31:
    def test_zero_perturbation(self):
        report = bound_t3_1(np.array([0.5]), stats_of(), metrics_of(m=1))
        np.testing.assert_array_equal(report.per_index_bound, 0.0)

    def test_frozen_direct_substitution(self):
        report = bound_t3_1(
            np.array([0.5]), stats_of(kappa2=1.0, stable_rank=25.0),
            metrics_of(eps_fro=1e-8, m=1),
        )
        assert report.per_index_bound[0] == pytest.approx(6.0000018e-7, rel=1e-9)

    def test_hypothesis_enforced(self):
        with pytest.raises(HypothesisError, match="T3_1"):
            bound_t3_1(np.array([0.5]), stats_of(kappa2=1e6),
                       metrics_of(eps_two=1e-3, eps_fro=1e-3, m=1))


class TestBoundT32:
    def test_zero(self):
        report = bound_t3_2(stats_of(), metrics_of(m=3))
        np.testing.assert_array_equal(report.per_index_bound, 0.0)

    def test_unperturbed_row_gets_global_term(self):
        report = bound_t3_2(
            stats_of(stable_rank=25.0),
            metrics_of(eps_fro=1e-8, eps_row=[0.0, 1e-7], m=2),
        )
        global_term = 2 * np.sqrt(2.0) * 5.0 * 1e-8
        assert report.per_index_bound[0] == pytest.approx(global_term, rel=1e-12)
        assert report.per_index_bound[1] == pytest.approx(
            2e-7 + global_term, rel=1e-12
        )

    def test_hypothesis_strict(self):
        with pytest.raises(HypothesisError, match="T3_2"):
            bound_t3_2(stats_of(kappa2=10.0), metrics_of(eps_two=0.1, m=1))


class TestBoundT33:
    def test_half_substitution_matches_t3_2(self):
        eps_row = np.array([1e-8, 3e-8, 0.0])
        m2 = metrics_of(eps_fro=1e-8, eps_row=eps_row, m=3)
        m3 = metrics_of(
            eps_fro_perp=0.5e-8, eps_row_perp=eps_row / 2, m=3
        )
        r2 = bound_t3_2(stats_of(), m2)
        r3 = bound_t3_3(stats_of(), m3)
        np.testing.assert_allclose(
            r3.per_index_bound, r2.per_index_bound, rtol=1e-14
        )

    def test_counterexample_row_dominates(self):
        # Row with eps_row 0 but eps_row_perp 1: the projected bound's
        # local term exceeds the unprojected bound's local term there.
        m2 = metrics_of(eps_fro=0.5, eps_row=[0.0], m=1, eps_two=1e-4)
        m3 = metrics_of(eps_fro_perp=0.5, eps_row_perp=[1.0], m=1, eps_two=1e-4)
        r2 = bound_t3_2(stats_of(), m2)
        r3 = bound_t3_3(stats_of(), m3)
        assert r3.per_index_bound[0] > r2.per_index_bound[0]

    def test_range_preserving_vanishes(self):
        a = random_orthonormal(30, 4, 5)
        delta = a @ (1e-4 * gaussian_matrix(4, 4, 6))
        report = bound_t3_3(matrix_stats(a), measure(full_rank_qr(a), delta))
        assert np.all(report.per_index_bound <= 1e-12)


class TestBoundT34:
    def test_zero(self):
        report = bound_t3_4(np.zeros(4), 25, kappa2=1.0)
        np.testing.assert_array_equal(report.per_index_bound, 0.0)

    def test_frozen_uniform_eta(self):
        report = bound_t3_4(np.full(3, 1e-8), 25, kappa2=1.0)
        np.testing.assert_allclose(
            report.per_index_bound, 7.271067811865476e-7, rtol=1e-12
        )

    def test_kappa_independence(self):
        eta = np.full(5, 1e-8)
        b1 = bound_t3_4(eta, 25, kappa2=1.0)
        b2 = bound_t3_4(eta, 25, kappa2=1e5)
        np.testing.assert_array_equal(b1.per_index_bound, b2.per_index_bound)

    def test_hypothesis(self):
        with pytest.raises(HypothesisError, match="T3_4"):
            bound_t3_4(np.full(3, 1e-3), 25, kappa2=1e4)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bound_t3_4(np.array([-1e-8]), 25, kappa2=1.0)


@pytest.mark.parametrize(
    ("evaluate", "message"),
    [
        (lambda: bound_t1(np.full((3, 2), 0.5), angles_of(0.0, n=2)), "one-dimensional"),
        (lambda: bound_c1(np.full((3, 2), 0.5), angles_of(0.0, n=2)), "one-dimensional"),
        (lambda: bound_t2(np.full((3, 2), 0.5), stats_of(), metrics_of()),
         "one-dimensional"),
        (lambda: bound_t3_1(np.full((3, 2), 0.5), stats_of(), metrics_of()),
         "one-dimensional"),
        (lambda: sandwich_holds(bound_c1(np.full(4, 0.5), angles_of(0.0, n=2)),
                                np.full(4, 0.5)),
         "carries no sandwich"),
        (lambda: bound_t3_4(np.zeros((3, 1)), 25, kappa2=1.0), "eta must be one-dim"),
        (lambda: rdot_rinv(full_rank_qr(np.eye(4)[:, :2]), np.ones((3, 2))),
         "equal shapes"),
    ],
    ids=["t1_scores", "c1_scores", "t2_scores", "t3_1_scores", "no_sandwich",
         "t3_4_eta", "rdot_rinv_shapes"],
)
def test_malformed_input_rejected(evaluate, message):
    with pytest.raises(ValueError, match=message):
        evaluate()


def test_monotone_in_perturbation_magnitude():
    lev = np.array([1e-6, 0.03, 0.4, 0.97])
    for x in (1e-9, 1e-6):
        lo, hi = angles_of(x), angles_of(2 * x)
        assert np.all(
            bound_t1(lev, hi).per_index_bound
            >= bound_t1(lev, lo).per_index_bound
        )
        assert np.all(
            bound_c1(lev, hi).per_index_bound
            >= bound_c1(lev, lo).per_index_bound
        )
        stats = stats_of(kappa2=5.0)
        for maker in (
            lambda s: metrics_of(eps_two=s, eps_two_perp=s / 3, m=4),
            lambda s: metrics_of(eps_two=s, eps_two_perp=s, m=4),
        ):
            p_lo, g_lo = bound_t2(lev, stats, maker(x))
            p_hi, g_hi = bound_t2(lev, stats, maker(2 * x))
            assert np.all(p_hi.per_index_bound >= p_lo.per_index_bound)
            assert np.all(g_hi.per_index_bound >= g_lo.per_index_bound)
        assert np.all(
            bound_t3_1(lev, stats, metrics_of(eps_fro=2 * x, m=4)).per_index_bound
            >= bound_t3_1(lev, stats, metrics_of(eps_fro=x, m=4)).per_index_bound
        )
        assert np.all(
            bound_t3_2(stats, metrics_of(eps_fro=2 * x, eps_row=[2 * x] * 4, m=4)).per_index_bound
            >= bound_t3_2(stats, metrics_of(eps_fro=x, eps_row=[x] * 4, m=4)).per_index_bound
        )
        assert np.all(
            bound_t3_3(stats, metrics_of(eps_fro_perp=2 * x, eps_row_perp=[2 * x] * 4, m=4)).per_index_bound
            >= bound_t3_3(stats, metrics_of(eps_fro_perp=x, eps_row_perp=[x] * 4, m=4)).per_index_bound
        )
        assert np.all(
            bound_t3_4(np.full(4, 2 * x), 25, kappa2=1.0).per_index_bound
            >= bound_t3_4(np.full(4, x), 25, kappa2=1.0).per_index_bound
        )


def test_first_order_policy():
    # Bound is ~7.27e-7 everywhere; the policy allows 1 percent of
    # indices above it as long as nothing exceeds ten times it.
    report = bound_t3_4(np.full(100, 1e-8), 25, kappa2=1.0)

    def policy(observed):
        return check_policy(observed, report.per_index_bound, report.theorem)

    check = policy(np.full(100, 1e-9))
    assert check.first_order and check.ok and check.holds.all()

    one_outlier = np.full(100, 1e-9)
    one_outlier[0] = 5e-6  # above bound, below the 10x cap
    check = policy(one_outlier)
    assert not check.holds[0]
    assert check.ok

    two_outliers = one_outlier.copy()
    two_outliers[1] = 1e-6
    assert not policy(two_outliers).ok

    capped_out = np.full(100, 1e-9)
    capped_out[0] = 8e-6  # beyond ten times the bound
    assert not policy(capped_out).ok


class TestCheckPolicy:
    @pytest.mark.parametrize(
        ("theorem", "first_order"),
        [
            *[(tag, False) for tag in ("T1_abs", "C1_rel", "T2_perp", "T2_gen", "T3_1")],
            *[(tag, True) for tag in ("T3_2", "T3_3", "T3_4")],
        ],
    )
    def test_theorem_tag_picks_the_rule(self, theorem, first_order):
        # One index in 100 at 5x its bound: within the outlier policy,
        # but a violation under the exact rule.
        observed = np.full(100, 0.5)
        observed[0] = 5.0
        check = check_policy(observed, np.ones(100), theorem)
        assert check.first_order == first_order
        assert check.ok == first_order and check.violations == 1

    def test_exact_slack_boundary(self):
        bound = np.array([1e-9, 1e-6, 0.5, 2.0])
        edge = bound * (1.0 + EXACT_REL_SLACK) + EXACT_ABS_SLACK
        check = check_policy(edge, bound, "T1_abs")
        assert check.ok and check.holds.all() and check.violations == 0
        over = np.nextafter(edge, np.inf)
        check = check_policy(over, bound, "T1_abs")
        assert not check.ok and not check.holds.any() and check.violations == 4

    def test_first_order_fraction_boundary(self):
        bound = np.full(100, 1e-7)
        obs = np.full(100, 1e-9)
        obs[0] = np.nextafter(bound[0], np.inf)
        check = check_policy(obs, bound, "T3_4")
        assert check.ok and check.frac == 0.99 and check.violations == 1
        obs[1] = np.nextafter(bound[1], np.inf)
        check = check_policy(obs, bound, "T3_4")
        assert not check.ok and check.frac == 0.98

    def test_first_order_cap_boundary(self):
        bound = np.full(100, 1e-7)
        obs = np.full(100, 1e-9)
        obs[0] = FIRST_ORDER_CAP * bound[0]
        check = check_policy(obs, bound, "T3_4")
        assert check.ok and check.worst == FIRST_ORDER_CAP
        obs[0] = np.nextafter(obs[0], np.inf)
        assert not check_policy(obs, bound, "T3_4").ok

    def test_undefined_indices_hold_and_are_left_out(self):
        check = check_policy([np.nan, 5.0], [1.0, np.nan], "T1_abs")
        assert check.ok and check.holds.all() and np.isnan(check.frac)
        check = check_policy([np.nan, 2.0, 0.5], [1.0, 1.0, 1.0], "T3_4")
        assert check.frac == 0.5 and check.worst == 2.0 and not check.ok


@pytest.mark.parametrize(
    ("theorem", "expected"),
    [
        ("T1_abs", [0.125, 0.125, 0.25]),
        *[
            (tag, [np.nan, 0.5, 0.5])
            for tag in ("C1_rel", "T2_perp", "T2_gen", "T3_1", "T3_2", "T3_3", "T3_4")
        ],
    ],
)
def test_observed_quantity_by_tag(theorem, expected):
    # T1 bounds the absolute difference, every other tag the relative
    # one, which is undefined where the score is zero.
    lev = np.array([0.0, 0.25, 0.5])
    lev_tilde = np.array([0.125, 0.125, 0.75])
    np.testing.assert_array_equal(observed(theorem, lev, lev_tilde), expected)


class TestRelativeObserved:
    # The relative difference |lev_tilde - lev| / lev of every tag but T1.
    def test_identical(self):
        np.testing.assert_array_equal(
            observed("C1_rel", np.array([0.3, 0.7]), np.array([0.3, 0.7])), [0.0, 0.0]
        )

    def test_direct_substitution(self):
        out = observed("C1_rel", np.array([0.5]), np.array([0.4]))
        np.testing.assert_allclose(out, [0.2])

    def test_zero_score_flagged(self):
        out = observed("C1_rel", np.array([0.0, 0.5]), np.array([0.9, 0.5]))
        assert np.isnan(out[0])
        assert out[1] == 0.0

    def test_length_mismatch(self):
        for theorem in ("T1_abs", "C1_rel"):
            with pytest.raises(ValueError, match="mismatch"):
                observed(theorem, np.ones(3), np.ones(4))


def _first_order_at(product):
    # ||delta||_2 = product exactly and sigma_min(a) = 1 exactly.
    delta = np.zeros((4, 2))
    delta[0, 0] = product
    return delta_q_first_order(full_rank_qr(np.eye(4, 2)), delta)


NORMWISE = "||delta||_2 ||pinv(a)||_2"


@pytest.mark.parametrize(
    ("evaluate", "limit", "strict", "needs"),
    [
        (lambda p: bound_t2(np.array([0.5]), stats_of(), metrics_of(eps_two=p, m=1)),
         0.5, False, f"T2 needs {NORMWISE} <= 0.5"),
        (lambda p: bound_t3_1(np.array([0.5]), stats_of(), metrics_of(eps_two=p, m=1)),
         0.5, False, f"T3_1 needs {NORMWISE} <= 0.5"),
        (lambda p: bound_t3_3(stats_of(), metrics_of(eps_two=p, m=1)),
         0.5, False, f"T3_3 needs {NORMWISE} <= 0.5"),
        (lambda p: bound_t3_2(stats_of(), metrics_of(eps_two=p, m=1)),
         1.0, True, f"T3_2 needs {NORMWISE} < 1.0"),
        (lambda p: bound_t3_4(np.full(3, p / 2), 25, kappa2=2.0),
         1.0, True, "T3_4 needs max(eta) * kappa2 < 1"),
        (_first_order_at, 1.0, True, f"first-order prediction needs {NORMWISE} < 1"),
    ],
    ids=["T2", "T3_1", "T3_3", "T3_2", "T3_4", "first-order"],
)
def test_hypothesis_at_its_limit(evaluate, limit, strict, needs):
    # Each product is exact: kappa2 = 1 (2 for T3_4), so it is the
    # eps_two, 2 max(eta) or ||delta||_2 passed in.
    evaluate(np.nextafter(limit, 0.0))
    first_failing = limit if strict else np.nextafter(limit, 2.0)
    if not strict:
        evaluate(limit)
    with pytest.raises(HypothesisError) as excinfo:
        evaluate(first_failing)
    assert str(excinfo.value) == f"{needs}, got {first_failing:.3e}"


@pytest.mark.parametrize(
    ("evaluate", "quantity", "limit"),
    [
        (lambda p: bound_t2(np.array([0.5]), stats_of(), metrics_of(eps_two=p, m=1)),
         NORMWISE, 0.5),
        (lambda p: [bound_t3_1(np.array([0.5]), stats_of(), metrics_of(eps_two=p, m=1))],
         NORMWISE, 0.5),
        (lambda p: [bound_t3_2(stats_of(), metrics_of(eps_two=p, m=1))], NORMWISE, 1.0),
        (lambda p: [bound_t3_3(stats_of(), metrics_of(eps_two=p, m=1))], NORMWISE, 0.5),
        (lambda p: [bound_t3_4(np.full(3, p / 2), 25, kappa2=2.0)],
         "max(eta) * kappa2", 1),
    ],
    ids=["T2", "T3_1", "T3_2", "T3_3", "T3_4"],
)
def test_report_carries_its_checked_hypothesis(evaluate, quantity, limit):
    # As in test_hypothesis_at_its_limit, the value is exactly the
    # eps_two or 2 max(eta) passed in; the margin left is limit - value.
    for report in evaluate(0.375 * limit):
        assert report.hypothesis == Hypothesis(quantity, 0.375 * limit, limit)
        assert type(report.hypothesis.value) is float


def test_angle_bounds_carry_no_hypothesis():
    # T1 and C1 hold for any principal angles.
    for evaluate in (bound_t1, bound_c1):
        assert evaluate(np.full(4, 0.5), angles_of(0.5, n=2)).hypothesis is None


class TestRdotRinv:
    def test_identity_direction(self):
        # delta equal to the matrix itself: q.T delta r**-1 is the
        # identity, eps_f is 1, and the result is the identity.
        a = gaussian_matrix(12, 4, 3)
        rr = rdot_rinv(full_rank_qr(a), a)
        np.testing.assert_allclose(rr, np.eye(4), atol=1e-12)

    def test_symmetric_part_identity(self):
        a = gaussian_matrix(15, 5, 4)
        delta = 1e-4 * gaussian_matrix(15, 5, 5)
        rr = rdot_rinv(full_rank_qr(a), delta)
        q, r = householder_qr(a)
        eps_f = np.linalg.norm(delta) / np.linalg.norm(a)
        c = solve_upper(r, q.T @ delta)
        np.testing.assert_allclose(
            rr + rr.T, (c + c.T) / eps_f, atol=1e-10
        )

    def test_strictly_lower_exactly_zero(self):
        a = gaussian_matrix(10, 4, 6)
        rr = rdot_rinv(full_rank_qr(a), gaussian_matrix(10, 4, 7))
        assert np.array_equal(np.tril(rr, -1), np.zeros((4, 4)))

    def test_norm_bound(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(n, 50))
            a = randsvd_matrix(m, n, 10.0 ** rng.uniform(0, 3), rng)
            delta = 1e-5 * np.linalg.norm(a) * rng.standard_normal((m, n))
            rr = rdot_rinv(full_rank_qr(a), delta)
            stats = matrix_stats(a)
            limit = np.sqrt(2.0 * stats.stable_rank) * stats.kappa2
            assert np.linalg.norm(rr, "fro") <= limit * (1.0 + 1e-10)

    def test_finite_difference_convergence(self):
        a = randsvd_matrix(20, 5, 10.0, 8)
        direction = gaussian_matrix(20, 5, 9)
        direction *= np.linalg.norm(a) / np.linalg.norm(direction)
        formula = rdot_rinv(full_rank_qr(a), direction)  # eps_f == 1
        r0 = householder_qr(a).r

        def fd_err(t):
            rt = householder_qr(a + t * direction).r
            fd = solve_upper(r0, (rt - r0) / t)
            return np.linalg.norm(fd - formula)

        order = np.log10(fd_err(1e-4) / fd_err(1e-5))
        assert order >= 0.9

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            rdot_rinv(full_rank_qr(np.eye(3)), np.zeros((3, 3)))


class TestDeltaQFirstOrder:
    def test_zero_delta(self):
        np.testing.assert_array_equal(
            delta_q_first_order(full_rank_qr(np.eye(4)), np.zeros((4, 4))), np.zeros((4, 4))
        )

    def test_quadratic_decay(self):
        a = randsvd_matrix(60, 12, 50.0, 13)
        direction = gaussian_matrix(60, 12, 14)
        direction *= np.linalg.norm(a) / np.linalg.norm(direction)
        f = full_rank_qr(a)

        def residual(eps):
            delta = eps * direction
            return np.linalg.norm(
                qr_q_difference(f, full_rank_qr(a + delta))
                - delta_q_first_order(f, delta)
            )

        ratio = residual(1e-4) / residual(1e-5)
        assert 30.0 <= ratio <= 300.0

    def test_row_bound_chaining(self):
        # Row norms of the prediction obey the scaled local+global bound.
        a = randsvd_matrix(40, 6, 20.0, 15)
        delta = normwise_perturbation(a, 1e-8, "fro", 16)
        pred = delta_q_first_order(full_rank_qr(a), delta)
        lev = leverage_from_basis(householder_qr(a).q)
        stats = matrix_stats(a)
        metrics = measure(full_rank_qr(a), delta)
        rows_pred = np.linalg.norm(pred, axis=1)
        limit = np.sqrt(lev) * (
            metrics.eps_row + np.sqrt(2 * stats.stable_rank) * metrics.eps_fro
        ) * stats.kappa2
        assert np.all(rows_pred <= limit * (1.0 + 1e-10) + 1e-15)

    def test_hypothesis_violation(self):
        a = randsvd_matrix(10, 3, 100.0, 17)
        with pytest.raises(HypothesisError, match="first-order"):
            delta_q_first_order(full_rank_qr(a), 10.0 * a)

    def test_bitwise_the_written_out_formula(self, monkeypatch):
        # Criterion 11's decay and finite-difference inputs, against the
        # R-dot R**-1 formula spelled out here: the same bits from the
        # same triangular solves, and no factorization of a beyond the
        # one handed in.
        def formula(f, delta):
            eps_f = fro_norm(delta) / fro_norm(f.a)
            c = solve_upper(f.r, f.q.T @ delta)
            rr = triu_half(c + c.T) / eps_f
            return rr, solve_upper(f.r, delta) - eps_f * (f.q @ rr)

        # bounds can factor nothing: it imports no QR.
        assert not {"full_rank_qr", "householder_qr"} & set(vars(bounds))
        counts = {}

        def counted(*args, **kwargs):
            counts["solve_upper"] = counts.get("solve_upper", 0) + 1
            return solve_upper(*args, **kwargs)

        monkeypatch.setattr(bounds, "solve_upper", counted)

        rng = _rngs(DEFAULT_SEED, "rdot", RDOT_PAIRS + 2)[RDOT_PAIRS]
        a = randsvd_matrix(60, 12, 50.0, rng)
        direction = gaussian_matrix(60, 12, rng)
        direction *= np.linalg.norm(a, "fro") / np.linalg.norm(direction, "fro")
        f = full_rank_qr(a)
        for eps in (1e-4, 1e-5):
            delta = eps * direction
            rr, pred = formula(f, delta)
            counts.clear()
            assert rdot_rinv(f, delta).tobytes() == rr.tobytes()
            assert delta_q_first_order(f, delta).tobytes() == pred.tobytes()
            assert counts == {"solve_upper": 3}
        rr, _ = formula(f, direction)
        assert rdot_rinv(f, direction).tobytes() == rr.tobytes()


# Each evaluator on the scores, stats and metrics of one (a, delta).
EDGE_EVALUATORS = {
    "T2": bound_t2,
    "T3_1": lambda lev, stats, metrics: (bound_t3_1(lev, stats, metrics),),
    "T3_2": lambda lev, stats, metrics: (bound_t3_2(stats, metrics),),
    "T3_3": lambda lev, stats, metrics: (bound_t3_3(stats, metrics),),
}


def _edge_pair(shape, scale=1.0, zero_row=False, eps=1e-8):
    """kappa2 = 1e3 (a Gaussian column at n = 1) and a Gaussian delta, eps_f ~ eps."""
    m, n = shape
    rng = np.random.default_rng(4)
    a = randsvd_matrix(m, n, 1e3, rng) if n > 1 else rng.standard_normal((m, n))
    if zero_row:
        a[2] = 0.0
    delta = np.random.default_rng(5).standard_normal((m, n))
    delta *= eps * fro_norm(a) / fro_norm(delta)
    return scale * a, scale * delta


class TestEdgeShapes:
    # n = 1, m = n, m = 2n, a zero row, and entries near 1e+-200.
    CASES = [
        ((shape, scale, zero_row), f"{shape[0]}x{shape[1]}-{scale:g}" + ("-zero-row" * zero_row))
        for shape in [(7, 1), (6, 6), (12, 6), (50, 25)]
        for scale in [1.0, 1e200, 1e-200]
        for zero_row in ([False, True] if shape[0] > shape[1] else [False])
    ]

    @pytest.mark.parametrize("tag", sorted(EDGE_EVALUATORS))
    @pytest.mark.parametrize("case", [c for c, _ in CASES], ids=[i for _, i in CASES])
    def test_bound_is_finite_and_holds_where_defined(self, case, tag):
        a, delta = _edge_pair(*case)
        lev, lev_tilde = leverage_qr(a), leverage_qr(a + delta)
        f = full_rank_qr(a)
        for report in EDGE_EVALUATORS[tag](lev, f.stats, measure(f, delta)):
            obs = observed(report.theorem, lev, lev_tilde)
            bound = report.per_index_bound
            defined = ~np.isnan(obs)
            # Undefined (NaN) on a zero row of a, on both sides alike.
            np.testing.assert_array_equal(np.isnan(bound), ~defined)
            assert np.all(np.isfinite(bound[defined]))
            assert np.all(obs[defined] <= bound[defined]), (obs / bound).max()

    @pytest.mark.parametrize("case", [c for c, _ in CASES], ids=[i for _, i in CASES])
    def test_rdot_rinv_is_finite_and_within_its_norm_bound(self, case):
        a, delta = _edge_pair(*case)
        stats = matrix_stats(a)
        rr = rdot_rinv(full_rank_qr(a), delta)
        assert np.all(np.isfinite(rr))
        assert fro_norm(rr) <= np.sqrt(2.0 * stats.stable_rank) * stats.kappa2

    @pytest.mark.parametrize("tag", sorted(EDGE_EVALUATORS))
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_too_large_a_perturbation_raises_hypothesis_error(self, tag, scale):
        # m = 2n at kappa2 = 1e3 and eps_f = 0.1: kappa2 eps_2 is far above 1.
        a, delta = _edge_pair((12, 6), scale, eps=0.1)
        f = full_rank_qr(a)
        with pytest.raises(HypothesisError, match=tag):
            EDGE_EVALUATORS[tag](leverage_qr(a), f.stats, measure(f, delta))

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_zero_column_raises_rank_deficiency_error(self, scale):
        a, delta = _edge_pair((12, 6), scale)
        a[:, 3] = 0.0
        for fn in (leverage_qr, matrix_stats, full_rank_qr):
            with pytest.raises(RankDeficiencyError):
                fn(a)
