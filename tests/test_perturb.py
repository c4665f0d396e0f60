import numpy as np
import pytest

from qrlev.angles import principal_angles
from qrlev.generate import random_orthonormal, stepped_orthonormal
from qrlev.leverage import full_rank_qr
from qrlev.linalg import BASIS_TOL, ORTH_TOL, gram_residual
from qrlev.perturb import (
    componentwise_row_perturbation,
    make_perturbation,
    measure,
    normwise_perturbation,
    rotation_perturbation,
    row_subset_perturbation,
    same_row_scaling_perturbation,
)

CROSS = 0.5 * np.array([[1, 1], [1, -1], [1, 1], [1, -1.0]])
CROSS_DELTA = np.array([[1, 1], [0, 0], [0, 0], [0, 0.0]])


class TestRotation:
    def test_zero_target_preserves_range(self):
        q = random_orthonormal(40, 5, 1)
        q_tilde = rotation_perturbation(q, 0.0, 2)
        assert np.max(principal_angles(q, q_tilde).sines) <= 1e-12

    def test_target_achieved_on_stepped(self):
        a = stepped_orthonormal(42)
        q_tilde = rotation_perturbation(a, 1e-6, 7)
        measured = principal_angles(a, q_tilde).sin_theta_max
        assert 0.999e-6 <= measured <= 1.001e-6

    def test_accepts_any_basis_within_basis_tol(self):
        # Rounded to 12 significant digits, the stepped basis has a Gram
        # residual (4.09e-12) within BASIS_TOL but above the QR kernel's
        # own ORTH_TOL * n.
        a = stepped_orthonormal(42)
        q = np.array([float(f"{x:.12g}") for x in a.ravel()]).reshape(a.shape)
        assert ORTH_TOL * q.shape[1] < gram_residual(q) <= BASIS_TOL
        q_tilde = rotation_perturbation(q, 1e-6, 7)
        measured = principal_angles(q, q_tilde).sin_theta_max
        assert 0.999e-6 <= measured <= 1.001e-6

    def test_target_sweep_accuracy(self):
        rng = np.random.default_rng(19)
        for target in np.logspace(-10, -2, 9):
            q = random_orthonormal(60, 6, rng)
            q_tilde = rotation_perturbation(q, float(target), rng)
            measured = principal_angles(q, q_tilde).sin_theta_max
            assert abs(measured - target) <= 1e-3 * target

    def test_output_orthonormal(self):
        q = random_orthonormal(30, 6, 3)
        q_tilde = rotation_perturbation(q, 0.3, 4)
        assert gram_residual(q_tilde) <= 1e-12

    def test_unit_target_rejected(self):
        q = random_orthonormal(10, 2, 1)
        with pytest.raises(ValueError, match="target_sin"):
            rotation_perturbation(q, 1.0, 2)

    def test_needs_room_for_complement(self):
        q = random_orthonormal(7, 4, 1)
        with pytest.raises(ValueError, match="m >= 2n"):
            rotation_perturbation(q, 0.1, 2)


class TestNormwise:
    def test_zero_eps(self):
        a = np.ones((4, 3))
        np.testing.assert_array_equal(
            normwise_perturbation(a, 0.0, "two", 1), np.zeros((4, 3))
        )

    def test_two_norm_magnitude_exact(self):
        a = stepped_orthonormal(42)
        delta = normwise_perturbation(a, 1e-8, "two", 5)
        metrics = measure(full_rank_qr(a), delta)
        assert abs(metrics.eps_two - 1e-8) <= 1e-20

    def test_fro_magnitude_exact(self):
        a = stepped_orthonormal(42)
        delta = normwise_perturbation(a, 1e-5, "fro", 6)
        metrics = measure(full_rank_qr(a), delta)
        assert abs(metrics.eps_fro - 1e-5) <= 1e-17

    def test_bad_norm_name(self):
        with pytest.raises(ValueError, match="norm"):
            normwise_perturbation(np.eye(3), 0.1, "nuclear", 1)


class TestRowSubset:
    def test_zero_outside_range_exact(self):
        a = stepped_orthonormal(42)
        delta = row_subset_perturbation(a, 500, 750, 1e-8, 9)
        assert np.array_equal(delta[:500], np.zeros((500, 25)))
        assert np.array_equal(delta[750:], np.zeros((250, 25)))
        metrics = measure(full_rank_qr(a), delta)
        assert abs(metrics.eps_fro - 1e-8) <= 1e-20
        assert np.all(metrics.eps_row[:500] == 0.0)
        assert np.all(metrics.eps_row[750:] == 0.0)

    def test_single_row(self):
        a = random_orthonormal(10, 2, 3)
        delta = row_subset_perturbation(a, 4, 5, 1e-3, 4)
        nz = np.flatnonzero(np.linalg.norm(delta, axis=1))
        np.testing.assert_array_equal(nz, [4])

    def test_full_range_matches_normwise_contract(self):
        a = random_orthonormal(12, 3, 5)
        delta = row_subset_perturbation(a, 0, 12, 1e-4, 6)
        assert np.linalg.norm(delta, "fro") == pytest.approx(
            1e-4 * np.linalg.norm(a, "fro"), rel=1e-12
        )

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="row range"):
            row_subset_perturbation(np.eye(4), 2, 2, 0.1, 1)


class TestSameRowScaling:
    def test_zero_eps(self):
        out = same_row_scaling_perturbation(np.ones((3, 2)), 0.0)
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_row_profile_flat_across_blocks(self):
        # A perturbation built from a fresh draw of the stepped recipe
        # inherits its row scaling, so the per-row relative magnitudes
        # are nearly uniform across the leverage blocks.
        from qrlev.generate import stepped_gaussian

        a = stepped_orthonormal(42)
        delta = same_row_scaling_perturbation(stepped_gaussian(99), 1e-8)
        metrics = measure(full_rank_qr(a), delta)
        blocks = (slice(0, 250), slice(250, 500), slice(500, 750), slice(750, 1000))
        medians = [float(np.median(metrics.eps_row[b])) for b in blocks]
        assert max(medians) / min(medians) <= 3.0

    def test_norm_is_eps_exactly(self):
        a1 = np.random.default_rng(8).standard_normal((20, 4))
        out = same_row_scaling_perturbation(a1, 1e-8)
        assert abs(np.linalg.norm(out, "fro") - 1e-8) <= 1e-22

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            same_row_scaling_perturbation(np.zeros((3, 2)), 0.1)


class TestComponentwiseRows:
    def test_zero_eta(self):
        a = np.random.default_rng(1).standard_normal((5, 3))
        out = componentwise_row_perturbation(a, 0.0, 2)
        np.testing.assert_array_equal(out, np.zeros_like(a))

    def test_row_inequality_exact(self):
        a = np.random.default_rng(3).standard_normal((50, 6))
        eta = np.full(50, 1e-8)
        delta = componentwise_row_perturbation(a, eta, 4)
        # Entry-by-entry inequality by construction, every seed.
        assert np.all(np.abs(delta) <= eta[:, None] * np.abs(a))
        row_a = np.linalg.norm(a, axis=1)
        row_d = np.linalg.norm(delta, axis=1)
        assert np.all(row_d <= 1e-8 * row_a)

    def test_zero_row_stays_zero(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
        delta = componentwise_row_perturbation(a, 0.5, 5)
        assert np.array_equal(delta[1], [0.0, 0.0])

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            componentwise_row_perturbation(np.eye(3), -0.1, 1)

    def test_scalar_eta_broadcast(self):
        a = np.random.default_rng(6).standard_normal((8, 2))
        delta = componentwise_row_perturbation(a, 1e-2, 7)
        assert np.all(np.abs(delta) <= 1e-2 * np.abs(a) + 0.0)


class TestMeasure:
    def test_counterexample_exact(self):
        metrics = measure(full_rank_qr(CROSS), CROSS_DELTA)
        assert metrics.eps_row[2] == 0.0
        assert abs(metrics.eps_row_perp[2] - 1.0) <= 1e-14

    def test_range_preserving_perp_vanishes(self):
        a = random_orthonormal(30, 4, 2)
        delta = a @ np.random.default_rng(3).standard_normal((4, 4)) * 1e-3
        metrics = measure(full_rank_qr(a), delta)
        assert metrics.eps_two_perp <= 1e-13

    def test_zero_delta(self):
        a = random_orthonormal(10, 3, 1)
        metrics = measure(full_rank_qr(a), np.zeros_like(a))
        assert metrics.eps_two == 0.0
        assert metrics.eps_fro == 0.0
        assert metrics.eps_two_perp == 0.0
        assert np.all(metrics.eps_row[np.isfinite(metrics.eps_row)] == 0.0)

    def test_projected_dominance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n, 100))
            a = rng.standard_normal((m, n))
            delta = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 0)
            metrics = measure(full_rank_qr(a), delta)
            assert metrics.eps_two_perp <= metrics.eps_two + 1e-14
            assert metrics.eps_fro_perp <= metrics.eps_fro + 1e-14

    def test_zero_row_flagged(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        metrics = measure(full_rank_qr(a), np.full_like(a, 1e-6))
        assert np.isnan(metrics.eps_row[1])
        assert np.isnan(metrics.eps_row_perp[1])

    def test_factors_only_delta_and_its_projection(self, factorization_calls):
        # The two-norms of delta and (I - P) delta each take one tall
        # SVD (a QR, then dgejsv on r); a itself is not factored again.
        a = np.random.default_rng(8).standard_normal((40, 5))
        f = full_rank_qr(a)
        factorization_calls.update(householder_qr=0, jacobi_svd=0)
        measure(f, 1e-8 * np.random.default_rng(9).standard_normal((40, 5)))
        assert factorization_calls["householder_qr"] <= 2
        assert factorization_calls["jacobi_svd"] <= 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            measure(full_rank_qr(np.eye(4)), np.eye(3))


class TestPerturbationSpec:
    """make_perturbation's recipes: one JSON object per kind."""

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown perturbation kind 'earthquake'"):
            make_perturbation({"kind": "earthquake"}, np.eye(4), 0)

    def test_make_perturbation_dispatch(self):
        a = random_orthonormal(20, 3, 1)
        for recipe, seed in (
            ({"kind": "rotation", "target_sin": 1e-4}, 2),
            ({"kind": "normwise_two", "eps": 1e-6}, 3),
            ({"kind": "normwise_fro", "eps": 1e-6}, 4),
            ({"kind": "row_subset", "eps": 1e-6, "row_start": 0, "row_stop": 4}, 5),
            ({"kind": "same_row_scaling", "eps": 1e-6}, 0),
            ({"kind": "componentwise_rows", "eta": 1e-6}, 6),
        ):
            delta = make_perturbation(recipe, a, seed)
            assert delta.shape == a.shape
            assert np.isfinite(delta).all()
            assert np.linalg.norm(delta) > 0

    def test_rotation_delta_restores_basis(self):
        a = random_orthonormal(20, 3, 9)
        delta = make_perturbation({"kind": "rotation", "target_sin": 1e-3}, a, 11)
        assert gram_residual(a + delta) <= 1e-12
