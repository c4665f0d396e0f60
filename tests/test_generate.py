import numpy as np
import pytest

from qrlev import generate as generate_module
from qrlev.generate import (
    STEPPED_BLOCKS,
    GenSpec,
    gaussian_matrix,
    generate,
    random_orthonormal,
    randsvd_matrix,
    stepped_gaussian,
    stepped_illconditioned,
    stepped_orthonormal,
    stepped_spec,
)
from qrlev.leverage import leverage_from_basis, leverage_qr, matrix_stats
from qrlev.linalg import blas_threads, gram_residual, jacobi_svd

BLOCKS = (slice(0, 250), slice(250, 500), slice(500, 750), slice(750, 1000))


class TestGaussian:
    def test_deterministic(self):
        np.testing.assert_array_equal(
            gaussian_matrix(20, 5, 99), gaussian_matrix(20, 5, 99)
        )

    def test_seeds_differ(self):
        a = gaussian_matrix(50, 10, 1)
        b = gaussian_matrix(50, 10, 2)
        assert np.mean(a != b) >= 0.99

    def test_moments_at_scale(self):
        a = gaussian_matrix(1000, 25, 123)
        assert abs(a.mean()) <= 0.02
        assert 0.95 <= a.var() <= 1.05

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            gaussian_matrix(0, 3, 1)


class TestRandomOrthonormal:
    def test_gram(self):
        q = random_orthonormal(80, 7, 5)
        assert gram_residual(q) <= 1e-13 * 7

    def test_square_determinant(self):
        q = random_orthonormal(6, 6, 11)
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-10

    def test_feeds_leverage(self):
        lev = leverage_from_basis(random_orthonormal(40, 4, 2))
        assert lev.sum() == pytest.approx(4.0, abs=1e-12)


class TestRandsvd:
    def test_kappa_one_is_orthonormal(self):
        a = randsvd_matrix(30, 5, 1.0, 7)
        assert gram_residual(a) <= 1e-12

    def test_geometric_ratio(self):
        # sigma_2 / sigma_1 = kappa**(-1/(n-1)) = 1e6**(-1/24)
        sigma = jacobi_svd(randsvd_matrix(200, 25, 1e6, 3)).sigma
        assert sigma[1] / sigma[0] == pytest.approx(
            0.5623413251903491, rel=1e-8
        )

    def test_kappa_roundtrip(self):
        stats = matrix_stats(randsvd_matrix(100, 10, 1e6, 13))
        assert stats.kappa2 == pytest.approx(1e6, rel=1e-8)

    def test_full_profile_recovered(self):
        n = 12
        sigma = jacobi_svd(randsvd_matrix(60, n, 1e4, 17)).sigma
        expected = 1e4 ** (-np.arange(n) / (n - 1))
        np.testing.assert_allclose(sigma, expected, rtol=1e-10)

    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            randsvd_matrix(10, 3, 0.5, 1)


class TestSteppedMatrices:
    def test_orthonormal_kappa_one(self):
        stats = matrix_stats(stepped_orthonormal(42))
        assert abs(stats.kappa2 - 1.0) <= 1e-12

    def test_block_slices(self):
        assert STEPPED_BLOCKS == BLOCKS

    def test_plateaus_span_and_order(self):
        lev = leverage_qr(stepped_orthonormal(42))
        medians = [float(np.median(lev[b])) for b in BLOCKS]
        assert all(m2 > m1 for m1, m2 in zip(medians, medians[1:]))
        assert 1e-10 <= medians[0] <= 1e-8
        assert 1e-2 <= medians[3] <= 0.5
        assert lev.sum() == pytest.approx(25.0, abs=1e-11)

    def test_illconditioned_kappa_and_sum(self):
        b = stepped_illconditioned(42)
        stats = matrix_stats(b)
        assert 1e4 <= stats.kappa2 <= 2e6
        assert leverage_qr(b).sum() == pytest.approx(25.0, abs=1e-11)

    def test_illconditioned_plateaus_match(self):
        lev_a = leverage_qr(stepped_orthonormal(42))
        lev_b = leverage_qr(stepped_illconditioned(42))
        for block in BLOCKS:
            ratio = np.median(lev_b[block]) / np.median(lev_a[block])
            assert 1e-2 <= ratio <= 1e2

    def test_stepped_gaussian_row_scales(self):
        a1 = stepped_gaussian(3)
        scale = np.linalg.norm(a1[750:], axis=1).mean() / np.linalg.norm(
            a1[:250], axis=1
        ).mean()
        assert scale == pytest.approx(1e4, rel=0.5)


class TestGenSpec:
    def test_generate_matches_helper(self):
        np.testing.assert_array_equal(
            generate(stepped_spec("orthonormal"), 42), stepped_orthonormal(42)
        )

    def test_block_sum_validated(self):
        with pytest.raises(ValueError, match="sum to m"):
            GenSpec(m=10, n=2, block_sizes=[4, 4], block_scales=[1.0, 2.0])

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ({"m": 0, "n": 2}, "dimensions must be positive"),
            ({"m": 4, "n": 0}, "dimensions must be positive"),
            ({"m": 8, "n": 2, "block_sizes": [4, 4], "block_scales": [1.0]},
             "must have equal length"),
            ({"m": 8, "n": 2, "block_sizes": [4, 4], "block_scales": [1.0, 0.0]},
             "block_scales must be positive"),
            ({"m": 8, "n": 2, "kappa": 0.5, "sv_mode": "randsvd"},
             "kappa must be at least 1"),
            ({"m": 2, "n": 4, "sv_mode": "orthonormal"}, "needs m >= n"),
        ],
    )
    def test_invalid_field_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            GenSpec(**fields)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="sv_mode"):
            GenSpec(m=4, n=2, sv_mode="mystery")

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown"):
            GenSpec.from_dict({"m": 4, "n": 2, "extra": 1})

    @pytest.mark.parametrize("sv_mode", ["gaussian", "orthonormal"])
    def test_kappa_needs_randsvd(self, sv_mode):
        with pytest.raises(ValueError, match="kappa 1000000.0 needs sv_mode 'randsvd'"):
            GenSpec(m=20, n=4, kappa=1e6, sv_mode=sv_mode)
        assert GenSpec(m=20, n=4, kappa=1e6, sv_mode="randsvd").kappa == 1e6

    def test_missing_dimension(self):
        with pytest.raises(ValueError, match="GenSpec: .*missing .*'n'"):
            GenSpec.from_dict({"m": 4})

    def test_wrong_type(self):
        with pytest.raises(ValueError, match="GenSpec: "):
            GenSpec.from_dict({"m": 4, "n": 2, "kappa": "big", "sv_mode": "randsvd"})

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object, got list"):
            GenSpec.from_dict([4, 2])

    def test_plain_gaussian_not_orthonormalized(self):
        a = generate(GenSpec(m=30, n=4), 5)
        assert gram_residual(a) > 1e-6


class TestBlasThreads:
    @pytest.mark.parametrize("fails", [False, True])
    def test_runs_at_one_blas_thread_and_restores(self, monkeypatch, two_blas_threads, fails):
        seen = []
        original = generate_module.householder_qr

        def probe(a):
            seen.append([pool.get() for pool in two_blas_threads])
            if fails:
                raise RuntimeError("probe failed")
            return original(a)

        monkeypatch.setattr(generate_module, "householder_qr", probe)
        spec = GenSpec(m=8, n=3, sv_mode="orthonormal")
        if fails:
            with pytest.raises(RuntimeError, match="probe failed"):
                generate(spec, 42)
        else:
            assert gram_residual(generate(spec, 42)) <= 1e-14
        assert seen == [[1] * len(two_blas_threads)]
        assert [pool.get() for pool in two_blas_threads] == [2] * len(two_blas_threads)

    # At 40000 x 25 the QR and the product round differently at two
    # threads than at one; at 1000 to 20000 rows they do not.
    @pytest.mark.parametrize(
        "spec",
        [GenSpec(m=40000, n=25, kappa=1e6, sv_mode="randsvd"),
         GenSpec(m=40000, n=25, sv_mode="orthonormal")],
        ids=["randsvd", "orthonormal"],
    )
    def test_same_bits_at_two_threads_as_at_one(self, two_blas_threads, spec):
        at_two = generate(spec, 42)
        with blas_threads(1):
            at_one = generate(spec, 42)
        assert at_two.tobytes() == at_one.tobytes()
