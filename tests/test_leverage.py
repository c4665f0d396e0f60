import dataclasses
import math

import numpy as np
import pytest

from qrlev.generate import (
    random_orthonormal,
    randsvd_matrix,
    stepped_illconditioned,
    stepped_orthonormal,
)
from qrlev import leverage
from qrlev.leverage import (
    RANK_TOL_FACTOR,
    MatrixStats,
    full_rank_qr,
    leverage_from_basis,
    leverage_qr,
    leverage_svd,
    matrix_stats,
)
from qrlev.linalg import RankDeficiencyError, _range_exponent, fro_norm, householder_qr
from qrlev.perturb import measure

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

    @pytest.mark.parametrize("n", [1, 2, 7, 25])
    def test_square_basis_scores_exactly_one(self, n):
        # A square basis spans the whole space; its squared row norms
        # alone would miss 1 by round-off, and a non-basis is still
        # rejected.
        q = random_orthonormal(n, n, np.random.default_rng(n))
        np.testing.assert_array_equal(leverage_from_basis(q), np.ones(n))
        with pytest.raises(ValueError, match="Gram residual"):
            leverage_from_basis(2.0 * q)


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

    @pytest.mark.parametrize("n", range(2, 26))
    def test_square_scores_exceed_one_by_at_most_n_eps(self, n):
        # Every exact score of a square full-rank matrix is 1, and the
        # QR route returns exactly that. The SVD route's row norms
        # overshoot by round-off only (worst seen: 1 + 4 eps at n = 4,
        # 1 + 8.9e-16 at n = 25).
        eps = np.finfo(np.float64).eps
        for seed in range(5):
            a = np.random.default_rng(seed).standard_normal((n, n))
            assert np.all(leverage_qr(a) == 1.0)
            lev = leverage_svd(a)
            assert np.all(lev >= 0.0)
            assert np.all(lev <= 1.0 + n * eps), (seed, lev.max() - 1.0)

    @pytest.mark.parametrize("exponent", [-700, -660, 660, 700])
    @pytest.mark.parametrize("shape", [(7, 1), (6, 6), (10, 5), (1000, 25)])
    def test_power_of_two_scaling_is_bitwise_invisible(self, shape, exponent):
        # Entries near 1e-211 .. 1e+211: squares under- or overflow
        # unless every kernel scales its input first.
        a = np.random.default_rng(1).standard_normal(shape)
        scaled = leverage_qr(np.ldexp(a, exponent))
        assert scaled.tobytes() == leverage_qr(a).tobytes()
        assert matrix_stats(np.ldexp(a, exponent)) == matrix_stats(a)
        delta = 1e-8 * np.random.default_rng(2).standard_normal(shape)
        got = measure(np.ldexp(a, exponent), np.ldexp(delta, exponent))
        want = measure(a, delta)
        for field in dataclasses.fields(want):
            x, y = getattr(got, field.name), getattr(want, field.name)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name

    @pytest.mark.parametrize(("m", "n"), [(1, 1), (7, 1), (6, 6), (25, 25), (12, 6), (50, 25)])
    def test_stats_and_measure_on_edge_shapes(self, m, n):
        # n = 1, m = n and m = 2n. ||a||_F and ||a||_2 come from different
        # sums, so at n = 1 the stable rank can exceed 1 by round-off (up
        # to 3 ulps on 200 seeded 7 x 1 Gaussians).
        rng = np.random.default_rng(4)
        a = randsvd_matrix(m, n, 1e3, rng) if n > 1 else rng.standard_normal((m, n))
        stats = matrix_stats(a)
        assert stats.kappa2 >= 1.0
        assert stats.stable_rank <= n * (1.0 + 4.0 * np.finfo(np.float64).eps)
        metrics = measure(a, 1e-8 * rng.standard_normal((m, n)))
        assert np.all(np.isfinite(metrics.eps_row))
        assert 0.0 < metrics.eps_fro < 1e-6

    @pytest.mark.parametrize("rows", [[0], [3, 9], [2, 5, 11]])
    def test_measure_zero_rows_are_nan_exactly_there(self, rows):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 3))
        a[rows] = 0.0
        metrics = measure(a, 1e-8 * rng.standard_normal((12, 3)))
        zero = np.isin(np.arange(12), rows)
        np.testing.assert_array_equal(np.isnan(metrics.eps_row), zero)
        np.testing.assert_array_equal(np.isnan(metrics.eps_row_perp), zero)

    @pytest.mark.parametrize(("factor", "full_rank"), [(0.5, False), (2.0, True)])
    def test_stats_and_measure_at_rank_threshold(self, factor, full_rank):
        m = 40
        a = np.zeros((m, 3))
        a[:3, :3] = np.diag([1.0, 1.0, factor * RANK_TOL_FACTOR * m])
        delta = np.full((m, 3), 1e-20)
        if not full_rank:
            for fn in (lambda: matrix_stats(a), lambda: measure(a, delta)):
                with pytest.raises(RankDeficiencyError):
                    fn()
            return
        stats = matrix_stats(a)
        assert stats.kappa2 == pytest.approx(1.0 / (factor * RANK_TOL_FACTOR * m))
        assert 1.0 <= stats.stable_rank <= 3
        assert np.isnan(measure(a, delta).eps_row[3:]).all()

    @pytest.mark.parametrize("row", [3, 6, 9])
    def test_zero_row_below_n_scores_exactly_zero(self, row):
        a = np.random.default_rng(0).standard_normal((10, 3))
        a[row] = 0.0
        assert leverage_qr(a)[row] == 0.0

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_zero_row_among_first_n_scores_exactly_zero(self, row):
        # The Householder reflectors mix the first n rows, so q's row is
        # round-off there, up to about kappa2 * eps (2e-9 at kappa2 =
        # 1e8); full_rank_qr zeroes it, as q = a r**-1 does exactly.
        for kappa in (1e3, 1e8):
            a = randsvd_matrix(10, 3, kappa, np.random.default_rng(0))
            a[row] = 0.0
            assert leverage_qr(a)[row] == 0.0
            assert not full_rank_qr(a).q[row].any()
        a = np.random.default_rng(0).standard_normal((10, 3))
        a[row] = 0.0
        assert leverage_qr(a)[row] == 0.0

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

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize(
        ("m", "n", "zero_row"), [(7, 1, False), (7, 1, True), (6, 6, False), (12, 6, True)]
    )
    def test_factorization_stats_is_bitwise_the_written_out_formula(self, m, n, zero_row, scale):
        # n = 1, m = n, a zero row, and entries near 1e+-200, against
        # the formula matrix_stats computed before Factorization held it.
        rng = np.random.default_rng(6)
        a = randsvd_matrix(m, n, 1e3, rng) if n > 1 else rng.standard_normal((m, n))
        if zero_row:
            a[2] = 0.0
        a = scale * a
        sigma = full_rank_qr(a).svd_r.sigma
        two = float(sigma[0])
        exponent = _range_exponent(a)
        fro, two_s = math.ldexp(fro_norm(a), -exponent), math.ldexp(two, -exponent)
        want = MatrixStats(kappa2=two / float(sigma[-1]), stable_rank=fro**2 / two_s**2)
        for got in (full_rank_qr(a).stats, matrix_stats(a)):
            assert (got.kappa2.hex(), got.stable_rank.hex()) == (
                want.kappa2.hex(), want.stable_rank.hex()
            )

    def test_frobenius_norm_waits_for_stats(self, monkeypatch):
        # leverage_qr reads only q, so full_rank_qr must not pay for ||a||_F.
        calls = []
        monkeypatch.setattr(leverage, "fro_norm", lambda a: calls.append(a) or fro_norm(a))
        f = full_rank_qr(np.random.default_rng(7).standard_normal((40, 5)))
        assert calls == []
        f.stats
        assert len(calls) == 1


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
