import numpy as np
import pytest

from qrlev.angles import principal_angles, sin_theta_max_projector
from qrlev.generate import random_orthonormal
from qrlev.perturb import rotation_perturbation


def e_cols(m, cols):
    return np.eye(m)[:, cols]


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        q = random_orthonormal(20, 4, 1)
        ang = principal_angles(q, q)
        np.testing.assert_allclose(ang.cosines, 1.0, atol=1e-14)
        np.testing.assert_allclose(ang.sines, 0.0, atol=1e-12)

    def test_orthogonal_lines(self):
        ang = principal_angles(e_cols(2, [0]), e_cols(2, [1]))
        assert ang.cosines[0] == pytest.approx(0.0, abs=1e-15)
        assert ang.sines[0] == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_line(self):
        q_tilde = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        ang = principal_angles(e_cols(2, [0]), q_tilde)
        assert ang.cosines[0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_ordering_and_pythagoras(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(2 * n, 200))
            q = random_orthonormal(m, n, rng)
            q_tilde = random_orthonormal(m, n, rng)
            ang = principal_angles(q, q_tilde)
            assert np.all(np.diff(ang.cosines) <= 1e-14)
            assert np.all(np.diff(ang.sines) >= -1e-14)
            assert np.all(ang.cosines <= 1.0)
            assert np.all(ang.cosines >= 0.0)
            np.testing.assert_allclose(
                ang.cosines**2 + ang.sines**2, 1.0, atol=1e-14
            )

    def test_symmetry(self):
        rng = np.random.default_rng(29)
        q = random_orthonormal(60, 5, rng)
        q_tilde = random_orthonormal(60, 5, rng)
        a1 = principal_angles(q, q_tilde)
        a2 = principal_angles(q_tilde, q)
        np.testing.assert_allclose(a1.cosines, a2.cosines, atol=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(37)
        q = random_orthonormal(60, 5, rng)
        q_tilde = random_orthonormal(60, 5, rng)
        w = random_orthonormal(5, 5, rng)
        base = principal_angles(q, q_tilde)
        rotated = principal_angles(q @ w, q_tilde)
        np.testing.assert_allclose(base.cosines, rotated.cosines, atol=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            principal_angles(np.ones((4, 2)), e_cols(4, [0, 1]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            principal_angles(e_cols(4, [0, 1]), e_cols(4, [0]))


class TestSinThetaMaxProjector:
    def test_identical(self):
        q = random_orthonormal(25, 3, 2)
        assert sin_theta_max_projector(q, q) <= 1e-12

    def test_equal_subspaces_exactly_zero(self):
        # Exact bases of one subspace leave an exactly zero projection.
        assert sin_theta_max_projector(e_cols(6, [0, 2, 4]), e_cols(6, [4, 0, 2])) == 0.0

    def test_orthogonal_lines(self):
        assert sin_theta_max_projector(e_cols(2, [0]), e_cols(2, [1])) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_agrees_with_svd_route(self):
        # Cross-formula oracle over seeded pairs, including angles
        # down to 1e-9 where the naive sine would lose digits.
        rng = np.random.default_rng(41)
        targets = np.logspace(-9, -0.5, 30)
        worst = 0.0
        for target in targets:
            n = int(rng.integers(1, 6))
            m = int(rng.integers(2 * n, 150))
            q = random_orthonormal(m, n, rng)
            q_tilde = rotation_perturbation(q, float(target), rng)
            s_svd = principal_angles(q, q_tilde).sin_theta_max
            s_proj = sin_theta_max_projector(q, q_tilde)
            worst = max(worst, abs(s_svd - s_proj))
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n, 150))
            q = random_orthonormal(m, n, rng)
            q_tilde = random_orthonormal(m, n, rng)
            worst = max(
                worst,
                abs(
                    principal_angles(q, q_tilde).sin_theta_max
                    - sin_theta_max_projector(q, q_tilde)
                ),
            )
        assert worst <= 1e-10

    def test_small_angle_resolved(self):
        # A 1e-8 angle must come back with full relative accuracy, not
        # the ~1e-8 absolute error of sqrt(1 - cos**2).
        q = random_orthonormal(200, 8, 3)
        q_tilde = rotation_perturbation(q, 1e-8, 4)
        ang = principal_angles(q, q_tilde)
        assert ang.sin_theta_max == pytest.approx(1e-8, rel=1e-3)
