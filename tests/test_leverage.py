import numpy as np
import pytest

from qrlev.generate import (
    random_orthonormal,
    randsvd_matrix,
    stepped_illconditioned,
    stepped_orthonormal,
)
from qrlev.leverage import (
    RANK_TOL_FACTOR,
    full_rank_qr,
    leverage_from_basis,
    leverage_qr,
    leverage_svd,
    matrix_stats,
    relative_diffs,
)
from qrlev.linalg import RankDeficiencyError, householder_qr

CROSS = 0.5 * np.array([[1, 1], [1, -1], [1, 1], [1, -1.0]])

BLOCKS = (slice(0, 250), slice(250, 500), slice(500, 750), slice(750, 1000))


class TestLeverageFromBasis:
    def test_identity_columns(self):
        np.testing.assert_array_equal(
            leverage_from_basis(np.eye(4)[:, :2]), [1.0, 1.0, 0.0, 0.0]
        )

    def test_cross_matrix(self):
        np.testing.assert_allclose(
            leverage_from_basis(CROSS), [0.5, 0.5, 0.5, 0.5], atol=1e-15
        )

    def test_sum_equals_column_count(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(n, 120))
            q = householder_qr(rng.standard_normal((m, n))).q
            lev = leverage_from_basis(q)
            assert abs(lev.sum() - n) <= 1e-12 * n
            assert np.all(lev >= -1e-13)
            assert np.all(lev <= 1 + 1e-13)

    def test_non_orthonormal_rejected_with_residual(self):
        with pytest.raises(ValueError, match="Gram residual"):
            leverage_from_basis(np.ones((4, 2)))


class TestLeverageQR:
    def test_scaled_identity_columns(self):
        a = np.zeros((4, 2))
        a[0, 0] = 5.0
        a[1, 1] = 7.0
        np.testing.assert_allclose(leverage_qr(a), [1, 1, 0, 0], atol=1e-15)

    def test_stepped_plateaus(self):
        lev = leverage_qr(stepped_orthonormal(42))
        medians = [float(np.median(lev[b])) for b in BLOCKS]
        assert all(m2 > m1 for m1, m2 in zip(medians, medians[1:]))
        assert 1e-11 <= lev.min() <= 1e-8
        assert 1e-2 <= lev.max() <= 0.5
        assert lev.sum() == pytest.approx(25.0, abs=1e-11)

    def test_matches_svd_route(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((50, 5))
        np.testing.assert_allclose(
            leverage_qr(a), leverage_svd(a), atol=1e-12
        )

    def test_rank_deficiency_raises_with_ratio(self):
        a = np.ones((6, 2))
        with pytest.raises(RankDeficiencyError) as excinfo:
            leverage_qr(a)
        assert excinfo.value.ratio is not None
        assert excinfo.value.ratio <= 1e-14

    def test_wide_rejected(self):
        with pytest.raises(ValueError, match="m >= n"):
            leverage_qr(np.ones((2, 4)))


class TestEdgeShapes:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        ("m", "n"), [(1, 1), (7, 1), (6, 6), (25, 25), (12, 6), (50, 25)]
    )
    def test_unit_interval_and_sum(self, m, n, seed):
        # n = 1, m = n and m = 2n. A square input's scores are all 1 up
        # to a few ulps, so the upper end keeps criterion 1's allowance.
        lev = leverage_qr(np.random.default_rng(seed).standard_normal((m, n)))
        assert np.all(lev >= 0.0)
        assert np.all(lev <= 1.0 + 1e-13)
        assert abs(lev.sum() - n) <= 1e-12 * n

    @pytest.mark.parametrize("exponent", [-700, -660, 660, 700])
    @pytest.mark.parametrize("shape", [(7, 1), (6, 6), (10, 5), (1000, 25)])
    def test_power_of_two_scaling_is_bitwise_invisible(self, shape, exponent):
        # Entries near 1e-211 .. 1e+211: squares under- or overflow
        # unless every kernel scales its input first.
        a = np.random.default_rng(1).standard_normal(shape)
        scaled = leverage_qr(np.ldexp(a, exponent))
        assert scaled.tobytes() == leverage_qr(a).tobytes()

    @pytest.mark.parametrize("row", [3, 6, 9])
    def test_zero_row_below_n_scores_exactly_zero(self, row):
        a = np.random.default_rng(0).standard_normal((10, 3))
        a[row] = 0.0
        assert leverage_qr(a)[row] == 0.0

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_zero_row_among_first_n_scores_at_round_off(self, row):
        # The Householder reflectors mix the first n rows, so the score
        # is round-off (about 5e-32 here), not an exact zero.
        a = np.random.default_rng(0).standard_normal((10, 3))
        a[row] = 0.0
        assert 0.0 <= leverage_qr(a)[row] <= 1e-30

    @pytest.mark.parametrize(("factor", "full_rank"), [(0.5, False), (2.0, True)])
    def test_rank_threshold(self, factor, full_rank):
        m = 40
        a = np.zeros((m, 3))
        a[:3, :3] = np.diag([1.0, 1.0, factor * RANK_TOL_FACTOR * m])
        if full_rank:
            full_rank_qr(a)
        else:
            with pytest.raises(RankDeficiencyError):
                full_rank_qr(a)


class TestLeverageSVD:
    def test_orthonormal_input(self):
        lev = leverage_svd(CROSS)
        np.testing.assert_allclose(lev, [0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_cross_oracle_ensemble(self):
        # Both routes on seeded matrices, plus LAPACK as a fully
        # independent oracle on the well-conditioned ones (subspace
        # round-off scales with kappa, so the external comparison is
        # kept to kappa <= 1e2).
        rng = np.random.default_rng(77)
        worst_internal = 0.0
        worst_external = 0.0
        for i in range(25):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(n, 200))
            kappa = 10.0 ** rng.uniform(0, 2)
            a = randsvd_matrix(m, n, kappa, rng)
            lq = leverage_qr(a)
            ls = leverage_svd(a)
            worst_internal = max(worst_internal, float(np.abs(lq - ls).max()))
            u = np.linalg.svd(a, full_matrices=False)[0]
            worst_external = max(
                worst_external, float(np.abs(lq - (u**2).sum(axis=1)).max())
            )
        assert worst_internal <= 1e-12
        assert worst_external <= 1e-11


class TestMatrixStats:
    def test_orthonormal(self):
        q = random_orthonormal(30, 6, 3)
        stats = matrix_stats(q)
        assert stats.kappa2 == pytest.approx(1.0, abs=1e-13)
        assert stats.stable_rank == pytest.approx(6.0, abs=1e-12)

    def test_stepped_orthonormal_kappa(self):
        stats = matrix_stats(stepped_orthonormal(42))
        assert abs(stats.kappa2 - 1.0) <= 1e-12

    def test_illconditioned_kappa_bracket(self):
        # The recipe's condition number lands near 1e6 (seed
        # dependent); measured, wide bracket.
        stats = matrix_stats(stepped_illconditioned(42))
        assert 1e4 <= stats.kappa2 <= 2e6

    def test_invariants(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(n, 80))
            a = randsvd_matrix(m, n, 10.0 ** rng.uniform(0, 4), rng)
            stats = matrix_stats(a)
            assert stats.kappa2 >= 1.0 - 1e-13
            assert stats.stable_rank <= n + 1e-12
            sigma = np.linalg.svd(a, compute_uv=False)
            assert stats.kappa2 == pytest.approx(sigma[0] / sigma[-1])

    def test_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            matrix_stats(np.ones((5, 2)))


class TestRelativeDiffs:
    def test_identical(self):
        np.testing.assert_array_equal(
            relative_diffs(np.array([0.3, 0.7]), np.array([0.3, 0.7])), [0.0, 0.0]
        )

    def test_direct_substitution(self):
        out = relative_diffs(np.array([0.5]), np.array([0.4]))
        np.testing.assert_allclose(out, [0.2])

    def test_zero_score_flagged(self):
        out = relative_diffs(np.array([0.0, 0.5]), np.array([0.9, 0.5]))
        assert np.isnan(out[0])
        assert out[1] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            relative_diffs(np.ones(3), np.ones(4))


def test_basis_independence_under_rotation():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(n, 150))
        q = householder_qr(rng.standard_normal((m, n))).q
        w = random_orthonormal(n, n, rng)
        diff = np.abs(
            leverage_from_basis(q @ w) - leverage_from_basis(q)
        ).max()
        assert diff <= 1e-13
