import importlib
import math
import pkgutil
import sys

import numpy as np
import pytest

import qrlev
from qrlev import linalg
from qrlev.angles import principal_angles, sin_theta_max_projector
from qrlev.generate import (
    random_orthonormal,
    randsvd_matrix,
    stepped_gaussian,
    stepped_illconditioned,
    stepped_orthonormal,
)
from qrlev.leverage import leverage_qr, matrix_stats
from qrlev.linalg import (
    BASIS_TOL,
    ORTH_TOL,
    ConvergenceError,
    as_matrix,
    fro_norm,
    gram_residual,
    householder_qr,
    jacobi_svd,
    project_complement,
    row_norms,
    safe_ratio,
    triu_half,
    two_norm,
)
from qrlev.perturb import rotation_perturbation

# 4 x 2 matrix with orthonormal columns and equal leverage scores 1/2;
# also the base matrix of the projected-row counterexample.
CROSS = 0.5 * np.array([[1, 1], [1, -1], [1, 1], [1, -1.0]])


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="2-dimensional"):
        as_matrix([1.0, 2.0])


def test_as_matrix_rejects_empty():
    with pytest.raises(ValueError, match="must be nonempty"):
        as_matrix(np.zeros((0, 3)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("index", [0, 7, 14])
def test_as_matrix_rejects_nonfinite_anywhere(bad, index):
    # First, a middle and the last entry of a 3 x 5 matrix.
    a = np.arange(15.0).reshape(3, 5)
    a.flat[index] = bad
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(a)
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(np.asfortranarray(a))


class TestHouseholderQR:
    def test_identity(self):
        q, r = householder_qr(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-15)

    def test_orthonormal_input_reproduced(self):
        # Input columns are already orthonormal, so q equals the input
        # (the sign convention resolves the ambiguity) and r is I.
        q, r = householder_qr(CROSS)
        np.testing.assert_allclose(q, CROSS, atol=1e-14)
        np.testing.assert_allclose(r, np.eye(2), atol=1e-14)

    def test_residual_small(self):
        a = np.random.default_rng(7).standard_normal((10, 4))
        q, r = householder_qr(a)
        resid = np.linalg.norm(q @ r - a) / np.linalg.norm(a)
        assert resid <= 1e-14

    def test_invariants_random_ensemble(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(n, 200))
            a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
            q, r = householder_qr(a)
            assert gram_residual(q) <= 1e-13 * n
            assert np.linalg.norm(q @ r - a) <= 1e-13 * np.linalg.norm(a)
            assert np.all(np.diag(r) >= 0.0)
            assert np.array_equal(np.tril(r, -1), np.zeros_like(r))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="m >= n"):
            householder_qr(np.ones((2, 3)))

    def test_rank_deficiency_not_an_error(self):
        a = np.zeros((4, 2))
        a[:, 0] = 1.0
        q, r = householder_qr(a)
        assert np.isfinite(q).all()
        np.testing.assert_allclose(q @ r, a, atol=1e-15)


class TestJacobiSVD:
    def test_diagonal(self):
        res = jacobi_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.sigma, [3.0, 1.0])
        np.testing.assert_allclose(res.u, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(res.v, np.eye(2), atol=1e-15)

    def test_permutation(self):
        res = jacobi_svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(res.sigma, [1.0, 1.0])

    def test_gram_eigenvalue_oracle(self):
        # Independent oracle: eigenvalues of a.T a from a symmetric
        # eigensolver must match the squared singular values.
        a = np.random.default_rng(11).standard_normal((6, 3))
        res = jacobi_svd(a)
        expected = np.sqrt(np.sort(np.linalg.eigvalsh(a.T @ a))[::-1])
        np.testing.assert_allclose(res.sigma, expected, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        for shape in [(8, 8), (30, 6), (6, 30), (100, 12)]:
            a = rng.standard_normal(shape)
            res = jacobi_svd(a)
            recon = (res.u * res.sigma) @ res.v.T
            assert np.linalg.norm(recon - a) <= 1e-12 * np.linalg.norm(a)
            k = min(shape)
            assert gram_residual(res.u) <= 1e-13 * k
            assert gram_residual(res.v) <= 1e-13 * k
            assert np.all(np.diff(res.sigma) <= 0.0)
            assert np.all(res.sigma >= 0.0)

    def test_rank_deficient_basis_completed(self):
        a = np.zeros((5, 3))
        a[0, 0] = 2.0  # rank one
        res = jacobi_svd(a)
        assert res.sigma[0] == pytest.approx(2.0)
        np.testing.assert_allclose(res.sigma[1:], 0.0, atol=1e-15)
        assert gram_residual(res.u) <= 1e-13

    def test_square_rank_deficient_basis_completed(self):
        # A square input's missing column has a one-dimensional
        # complement; often no unit vector keeps half its length there.
        rng = np.random.default_rng(0)
        for n in range(2, 13):
            for _ in range(20):
                a = rng.standard_normal((n, n))
                a[:, rng.integers(n)] = 0.0
                res = jacobi_svd(a)
                assert res.sigma[-1] == 0.0
                assert gram_residual(res.u) <= 1e-13 * n
                recon = (res.u * res.sigma) @ res.v.T
                assert np.linalg.norm(recon - a) <= 1e-13 * np.linalg.norm(a)

    def test_singular_values_of_orthonormal_product(self):
        # Products q.T q_tilde of orthonormal bases have singular
        # values in [0, 1] up to round-off.
        rng = np.random.default_rng(17)
        for _ in range(10):
            g1 = rng.standard_normal((40, 6))
            g2 = rng.standard_normal((40, 6))
            q1 = householder_qr(g1).q
            q2 = householder_qr(g2).q
            sigma = jacobi_svd(q1.T @ q2).sigma
            assert np.all(sigma <= 1.0 + 1e-13)
            assert np.all(sigma >= 0.0)


class TestNorms:
    def test_identity(self):
        assert two_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-14)

    def test_cross_matrix(self):
        # The columns are orthonormal, so the two-norm is 1.
        assert two_norm(CROSS) == pytest.approx(1.0, abs=1e-14)

    def test_fro_consistency(self):
        a = np.random.default_rng(3).standard_normal((7, 5))
        assert two_norm(a) <= float(np.linalg.norm(a, "fro")) + 1e-14

    def test_fro_norm(self):
        assert fro_norm(np.array([[3.0], [4.0]])) == 5.0
        a = np.random.default_rng(3).standard_normal((1000, 25))
        assert fro_norm(a) == pytest.approx(np.linalg.norm(a, "fro"), rel=1e-14)

    @pytest.mark.parametrize("exponent", [-1000, -700, 700, 1000])
    def test_norms_scale_exactly_by_powers_of_two(self, exponent):
        # Squares of entries near 2**+-700 over- or underflow.
        a = np.random.default_rng(3).standard_normal((50, 4))
        scaled = np.ldexp(a, exponent)
        assert fro_norm(scaled) == math.ldexp(fro_norm(a), exponent)
        assert row_norms(scaled).tobytes() == np.ldexp(row_norms(a), exponent).tobytes()

    def test_ratio_is_nan_where_denominator_not_positive(self):
        den = np.array([2.0, 0.0, -1.0, np.nan])
        np.testing.assert_array_equal(safe_ratio(1.0, den), [0.5, np.nan, np.nan, np.nan])
        np.testing.assert_array_equal(
            safe_ratio(np.array([3.0, 1.0, 1.0, 1.0]), den), [1.5, np.nan, np.nan, np.nan]
        )


class TestProjectComplement:
    def test_annihilates_range(self):
        q = householder_qr(np.random.default_rng(1).standard_normal((12, 4))).q
        x = q @ np.random.default_rng(2).standard_normal((4, 3))
        out = project_complement(q, x)
        assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(x)

    def test_counterexample_projection(self):
        # Direct projector arithmetic on the counterexample pair gives
        # rows (1,1)/2, 0, -(1,1)/2, 0 (row three is negative).
        delta = np.array([[1, 1], [0, 0], [0, 0], [0, 0.0]])
        out = project_complement(CROSS, delta)
        expected = np.array([[0.5, 0.5], [0, 0], [-0.5, -0.5], [0, 0.0]])
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_fixes_orthogonal_part(self):
        q = np.eye(5)[:, :2]
        x = np.zeros((5, 2))
        x[3:, :] = np.random.default_rng(4).standard_normal((2, 2))
        np.testing.assert_allclose(project_complement(q, x), x, atol=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        q = householder_qr(rng.standard_normal((20, 5))).q
        x = rng.standard_normal((20, 4))
        out = project_complement(q, x)
        np.testing.assert_allclose(out + q @ (q.T @ x), x, atol=1e-13)
        assert np.linalg.norm(q.T @ out) <= 1e-12 * np.linalg.norm(x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            project_complement(np.eye(4)[:, :2], np.ones((3, 2)))

    def test_default_tolerance_is_orth_tol_times_n(self):
        n = 4
        x = np.ones((30, 2))
        project_complement(_stretched(30, n, 0.5 * ORTH_TOL * n), x)
        off = _stretched(30, n, 2.0 * ORTH_TOL * n)
        with pytest.raises(ValueError, match="Gram residual"):
            project_complement(off, x)


def _basis(m, n, seed=5):
    return householder_qr(np.random.default_rng(seed).standard_normal((m, n))).q


def _stretched(m, n, residual):
    """
    An m x n basis whose first column is stretched so that its Gram
    residual is `residual` to two digits.
    """
    q = _basis(m, n)
    q[:, 0] *= math.sqrt(1.0 + residual)
    assert abs(gram_residual(q) - residual) <= 0.01 * residual
    return q


# Each takes the basis under test; the other basis, where there is one,
# is orthonormal to round-off.
BASIS_CHECKED = {
    "principal_angles q": lambda q: principal_angles(q, _basis(30, 4, seed=6)),
    "principal_angles q_tilde": lambda q: principal_angles(_basis(30, 4, seed=6), q),
    "sin_theta_max_projector q":
        lambda q: sin_theta_max_projector(q, _basis(30, 4, seed=6)),
    "sin_theta_max_projector q_tilde":
        lambda q: sin_theta_max_projector(_basis(30, 4, seed=6), q),
    "rotation_perturbation": lambda q: rotation_perturbation(q, 1e-6, 7),
}


@pytest.mark.parametrize("name", list(BASIS_CHECKED))
def test_callers_of_project_out_check_their_basis(name):
    # These callers project with _project_out, which checks nothing;
    # their own check at BASIS_TOL is the one that fires.
    call = BASIS_CHECKED[name]
    call(_stretched(30, 4, 0.5 * BASIS_TOL))
    with pytest.raises(ValueError, match="Gram residual"):
        call(_stretched(30, 4, 2.0 * BASIS_TOL))


def test_callers_of_project_out_check_shapes():
    q = _basis(30, 4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        principal_angles(q, q[:, :3])
    with pytest.raises(ValueError, match="dimension mismatch"):
        sin_theta_max_projector(q, q[:29])
    with pytest.raises(ValueError, match="m >= 2n"):
        rotation_perturbation(_basis(7, 4), 1e-6, 7)


class TestTriuHalf:
    def test_identity_halved(self):
        np.testing.assert_array_equal(triu_half(np.eye(3)), 0.5 * np.eye(3))

    def test_frozen_example(self):
        out = triu_half(np.array([[2.0, 4.0], [6.0, 8.0]]))
        np.testing.assert_array_equal(out, np.array([[1.0, 4.0], [0.0, 4.0]]))

    def test_symmetric_splitting_exact(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 5, 9):
            z = rng.standard_normal((n, n))
            z = z + z.T
            half = triu_half(z)
            np.testing.assert_array_equal(half + half.T, z)
            assert np.array_equal(np.tril(half, -1), np.zeros_like(half))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            triu_half(np.ones((2, 3)))


def test_two_norm_of_zero_matrix():
    assert two_norm(np.zeros((3, 2))) == 0.0


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_extreme_magnitudes_prescaled(scale):
    # Squared entries of these matrices would over/underflow; the
    # power-of-two prescaling keeps both factorizations exact.
    a = np.random.default_rng(2).standard_normal((12, 4))
    q0, r0 = householder_qr(a)
    q1, r1 = householder_qr(a * scale)
    np.testing.assert_allclose(q1, q0, atol=1e-13)
    np.testing.assert_allclose(r1 / scale, r0, rtol=1e-12)
    res0 = jacobi_svd(a)
    res1 = jacobi_svd(a * scale)
    np.testing.assert_allclose(res1.sigma / scale, res0.sigma, rtol=1e-12)
    assert np.isfinite(res1.u).all()


def _sign_normalized_numpy_qr(a):
    q, r = np.linalg.qr(a)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def _route_inputs():
    rng = np.random.default_rng(18)
    cases = {}
    for n in (1, 5, 25, 100, 129, 200):
        for m in sorted({n, 2 * n, 1000}):
            base = rng.standard_normal((2 * m, n))
            cases[f"{m}x{n}-C"] = np.ascontiguousarray(base[:m])
            cases[f"{m}x{n}-F"] = np.asfortranarray(base[:m])
            cases[f"{m}x{n}-rows[::2]"] = base[::2]
    return cases


ROUTE_INPUTS = _route_inputs()


@pytest.mark.parametrize("name", sorted(ROUTE_INPUTS))
def test_householder_qr_bitwise_equals_numpy_qr(name):
    """
    householder_qr runs dgeqrf + dorgqr through scipy; numpy's QR runs
    the same pair in numpy's OpenBLAS. At one BLAS thread, where the
    entry points run, the two agree bit for bit, and q is C-contiguous
    as numpy's is. (At two threads each library splits the blocked
    path's products its own way, so there the bits may differ.) The
    check can fail: with scipy's default workspace (3n) in place of the
    queried one, every case with n > 128 here (n = 129 and 200)
    differs, since dgeqrf and dorgqr then narrow their blocks.
    """
    a = ROUTE_INPUTS[name]
    with linalg.blas_threads(1):
        q, r = householder_qr(a)
        q_ref, r_ref = _sign_normalized_numpy_qr(a)
    assert q.flags.c_contiguous
    assert np.array_equal(q, q_ref)
    assert np.array_equal(r, r_ref)


@pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
def test_householder_qr_raises_on_lapack_info(monkeypatch, routine):
    real = getattr(linalg, routine)

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, -1)

    monkeypatch.setattr(linalg, routine, failing)
    with pytest.raises(RuntimeError, match=f"{routine} failed with info = -1"):
        householder_qr(np.random.default_rng(8).standard_normal((10, 4)))


def _upper_system(n, k, order, r_scale, b_scale):
    """A well-conditioned n x n upper-triangular r in the given order and a k x n b."""
    rng = np.random.default_rng(100 * n + k)
    r = np.triu(rng.standard_normal((n, n))) + 2.0 * np.eye(n)
    b = rng.standard_normal((k, n))
    return np.array(r * r_scale, order=order), b * b_scale


# (r scale, b scale): every pair from 1e-200, 1 and 1e200 but the one
# whose solution, near 1e400, overflows.
SOLVE_SCALES = [
    (r_scale, b_scale)
    for r_scale in (1e-200, 1.0, 1e200)
    for b_scale in (1e-200, 1.0, 1e200)
    if (r_scale, b_scale) != (1e-200, 1e200)
]


@pytest.mark.parametrize(("r_scale", "b_scale"), SOLVE_SCALES)
@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("n", [1, 2, 25])
@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_upper_bits_equal_scipy_solve_triangular(order, n, k, r_scale, b_scale):
    """
    solve_upper calls dtrtrs as scipy's solve_triangular does, so the
    bits are the same. The check can fail: solving an F-ordered r
    through r.T, as a C-ordered one is, changes the bits of 10 of the
    F-ordered cases here (n = 2 and 25, b with one row).
    """
    from scipy.linalg import solve_triangular

    r, b = _upper_system(n, k, order, r_scale, b_scale)
    x = linalg.solve_upper(r, b)
    want = solve_triangular(r, b.T, trans="T", lower=False).T
    assert np.array_equal(x, want)
    assert x.flags.c_contiguous == want.flags.c_contiguous


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("operand", ["r", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_upper_rejects_nonfinite(order, operand, bad):
    r, b = _upper_system(3, 2, order, 1.0, 1.0)
    (r if operand == "r" else b)[1, 2] = bad
    with pytest.raises(ValueError, match=f"{operand} contains non-finite entries"):
        linalg.solve_upper(r, b)


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_upper_zero_diagonal_raises_linalg_error(order):
    r, b = _upper_system(3, 2, order, 1.0, 1.0)
    r[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal entry 1"):
        linalg.solve_upper(r, b)


def test_solve_upper_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="solve_upper needs"):
        linalg.solve_upper(np.eye(3), np.ones((2, 4)))


def test_load_flapack_falls_back_to_a_normal_import(tmp_path, monkeypatch):
    """
    Where the directory holds no extension file (an editable scipy
    build), the loader imports scipy.linalg._flapack the normal way.
    The import rebinds the module in sys.modules and on scipy.linalg;
    monkeypatch puts both back.
    """
    import scipy.linalg

    name = "scipy.linalg._flapack"
    monkeypatch.setattr(scipy.linalg, "_flapack", sys.modules[name], raising=False)
    monkeypatch.delitem(sys.modules, name)
    module = linalg._load_flapack(tmp_path)
    assert module is sys.modules[name]
    a = np.random.default_rng(9).standard_normal((6, 3))
    for got, want in zip(module.dgeqrf(a), linalg.dgeqrf(a)):
        assert np.array_equal(got, want)
    r, b = _upper_system(3, 2, "C", 1.0, 1.0)
    x, info = module.dtrtrs(r.T, b.T, lower=1, trans=0)
    assert info == 0
    assert np.array_equal(x.T, linalg.solve_upper(r, b))


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("orthonormal", [True, False], ids=["orthonormal", "gaussian"])
def test_gram_residual_bits_equal_the_norm_form(orthonormal):
    rng = np.random.default_rng(23)
    for n in range(1, 101):
        q = rng.standard_normal((n + 3, n))
        if orthonormal:
            q = householder_qr(q).q
        want = float(np.linalg.norm(q.T @ q - np.eye(n), "fro"))
        assert _bits(linalg._gram_residual(q)) == _bits(want), n
        assert _bits(gram_residual(q)) == _bits(want), n


def _signed_zeros(n, rng):
    x = rng.standard_normal((n, n))
    x[rng.random((n, n)) < 0.3] = 0.0
    x[rng.random((n, n)) < 0.3] = -0.0
    return x


@pytest.mark.parametrize("n", [1, 2, 5, 25, 129])
def test_upper_mask_bits_equal_triu(n):
    rng = np.random.default_rng(n)
    a = _signed_zeros(n, rng)
    qr = linalg.dgeqrf(rng.standard_normal((2 * n, n)))[0]
    for x in (a, np.asfortranarray(a), qr[:n], -np.zeros((n, n))):
        got = np.where(linalg._upper(n), x, 0.0)
        want = np.triu(x)
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()


def test_upper_mask_is_cached_and_read_only():
    mask = linalg._upper(6)
    assert linalg._upper(6) is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mask[5, 0] = True


def _range_exponent_reference(a):
    peak = max(float(np.max(a)), -float(np.min(a)))
    if peak == 0.0 or 1e-150 < peak < 1e150:
        return 0
    return math.frexp(peak)[1]


def test_range_exponent_equals_the_max_min_form():
    rng = np.random.default_rng(29)
    cases = [np.zeros((3, 2)), -np.zeros((2, 2)), np.eye(4)]
    for scale in (1e-200, 1e-151, 1e-150, 1e150, 1e151, 1e200):
        for g in (rng.standard_normal((6, 3)), np.abs(rng.standard_normal((4, 4)))):
            cases += [g * scale, -g * scale, np.asfortranarray(g * scale)]
    cases.append(np.array([[1e200, -1e-200], [0.0, -2e200]]))
    cases.append(np.array([[1e-200, -0.0], [0.0, -3e-200]]))
    for a in cases:
        assert linalg._range_exponent(a) == _range_exponent_reference(a)


LONGDOUBLE_IS_EXTENDED = np.finfo(np.longdouble).eps < 1e-18
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _longdouble_qr(a):
    """
    Householder QR of a in numpy's longdouble, with diag(r) >= 0: the
    accuracy oracle for householder_qr. Where longdouble is the 80-bit
    format its own error is about 2**11 times below float64's, and its
    exponent range needs no prescaling for entries near 1e+-200.
    """
    r = np.array(a, dtype=np.longdouble)
    m, n = r.shape
    vs = []
    for k in range(n):
        x = r[k:, k]
        norm_x = np.sqrt(np.sum(x * x))
        if norm_x == 0.0:
            vs.append(None)  # zero column: no reflection needed
            continue
        alpha = -norm_x if x[0] >= 0 else norm_x
        v = x.copy()
        v[0] -= alpha
        v /= np.sqrt(np.sum(v * v))
        r[k:, k:] -= 2 * np.outer(v, v @ r[k:, k:])
        vs.append(v)
    q = np.eye(m, n, dtype=np.longdouble)
    for k in range(n - 1, -1, -1):
        if vs[k] is not None:
            q[k:, :] -= 2 * np.outer(vs[k], vs[k] @ q[k:, :])
    r = np.triu(r[:n])
    signs = np.where(np.diag(r) < 0, -1, 1)
    return q * signs, r * signs[:, None]


def _qr_inputs():
    rng = np.random.default_rng(77)
    cases = {
        "n=1": rng.standard_normal((9, 1)),
        "m=n": rng.standard_normal((12, 12)),
        "m=2n": rng.standard_normal((50, 25)),
        "gaussian 1000 x 25": rng.standard_normal((1000, 25)),
    }
    zero_col = rng.standard_normal((30, 6))
    zero_col[:, 3] = 0.0
    cases["zero column"] = zero_col
    zero_rows = rng.standard_normal((30, 6))
    zero_rows[[0, 7, 8, 29]] = 0.0
    cases["zero rows"] = zero_rows
    for scale in (1e-200, 1e200):
        cases[f"scaled {scale:g}"] = scale * rng.standard_normal((40, 5))
    cases["rows graded 1 to 1e8"] = (
        np.logspace(0, 8, 200)[:, None] * rng.standard_normal((200, 10))
    )
    cases["stepped Gaussian"] = stepped_gaussian(rng)
    return cases


QR_INPUTS = _qr_inputs()


def _stepped_inputs():
    cases = {}
    for seed in (0, 3, 7, 12, 42):
        for kind, make in (
            ("orthonormal", stepped_orthonormal),
            ("Gaussian", stepped_gaussian),
            ("kappa2 1e6", stepped_illconditioned),
        ):
            cases[f"stepped {kind}, seed {seed}"] = make(np.random.default_rng(seed))
    return cases


STEPPED_INPUTS = _stepped_inputs()
ORACLE_QR_INPUTS = {**QR_INPUTS, **STEPPED_INPUTS}


@pytest.mark.skipif(
    not LONGDOUBLE_IS_EXTENDED, reason="longdouble is not an extended format here"
)
@pytest.mark.parametrize("name", list(ORACLE_QR_INPUTS))
def test_householder_qr_matches_longdouble_reference(name):
    # Tolerances are set from the dtype, not from observed errors, with
    # eps = m n u. The computed q is within eps of an orthonormal basis
    # of the range of some a + delta with ||delta||_2 <= eps ||a||_2.
    # T2_gen bounds that basis's scores, with kappa2 from the reference
    # R; q's departure from it moves row i's squared norm by at most
    # (2 sqrt(l) + eps) eps, which T2_gen does not cover where l is 1.
    a = ORACLE_QR_INPUTS[name]
    m, n = a.shape
    eps = m * n * UNIT_ROUNDOFF
    q, r = householder_qr(a)
    scale = np.max(np.abs(a))  # keeps the squares of 1e200 finite
    assert np.linalg.norm((q @ r - a) / scale) <= eps * np.linalg.norm(a / scale)
    assert gram_residual(q) <= linalg.ORTH_TOL * n
    assert np.array_equal(np.triu(r), r)
    assert np.all(np.diag(r) >= 0.0)

    q_ref, r_ref = _longdouble_qr(a)
    sigma = np.linalg.svd(r_ref.astype(np.float64), compute_uv=False)
    ke = sigma[0] / sigma[-1] * eps if sigma[-1] > 0 else np.inf
    if not ke <= 0.5:
        return  # rank deficient: T2_gen says nothing and the scores are not unique
    lev_ref = np.sum(q_ref * q_ref, axis=1).astype(np.float64)
    lev = np.einsum("ij,ij->i", q, q)
    clipped = np.clip(lev_ref, 0.0, 1.0)
    tol = ((2.0 * np.sqrt(clipped * (1.0 - clipped)) + ke) * ke
           + (2.0 * np.sqrt(clipped) + eps) * eps)
    assert np.all(np.abs(lev - lev_ref) <= tol), name


# The oracle kernel's relative threshold on off-diagonal Gram entries,
# and its hard sweep limit before giving up.
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 30


def _reference_kernel(a):
    """
    One-sided Jacobi SVD (u, sigma, v) of a matrix with m >= n, rotation
    by rotation: the tests' oracle for jacobi_svd's dgejsv step and for
    leverage_qr. u, v and the Gram matrix are separate arrays, each
    rotated with fresh temporaries.

    Rotations are chosen to zero the off-diagonal Gram entries
    u[:, p] . u[:, q]; a pair is skipped once its entry falls below
    JACOBI_TOL relative to the diagonal. The Gram matrix is kept
    current incrementally within a sweep and recomputed fresh at each
    sweep start so accumulated round-off cannot fake convergence.
    """
    n = a.shape[1]
    u = a.copy()
    v = np.eye(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        g = u.T @ u
        rotated = False
        for p in range(n - 1):
            for q_ in range(p + 1, n):
                app, aqq, apq = g[p, p], g[q_, q_], g[p, q_]
                # On rank-deficient inputs round-off can drive a tracked
                # diagonal entry below zero mid-sweep: that pair is done.
                if app <= 0.0 or aqq <= 0.0 or apq == 0.0:
                    continue
                if abs(apq) <= JACOBI_TOL * np.sqrt(app * aqq):
                    continue
                rotated = True
                zeta = (aqq - app) / (2.0 * apq)
                if zeta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                for mat in (u, v):
                    col_p = c * mat[:, p] - s * mat[:, q_]
                    col_q = s * mat[:, p] + c * mat[:, q_]
                    mat[:, p] = col_p
                    mat[:, q_] = col_q
                gp = c * g[:, p] - s * g[:, q_]
                gq = s * g[:, p] + c * g[:, q_]
                g[:, p] = gp
                g[:, q_] = gq
                rp = c * g[p, :] - s * g[q_, :]
                rq = s * g[p, :] + c * g[q_, :]
                g[p, :] = rp
                g[q_, :] = rq
                g[p, q_] = 0.0
                g[q_, p] = 0.0
        if not rotated:
            break
    else:
        raise ConvergenceError(
            f"Jacobi SVD did not converge in {JACOBI_MAX_SWEEPS} sweeps"
        )
    sigma = np.linalg.norm(u, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = u[:, order]
    v = v[:, order]
    nonzero = sigma > 0.0
    u[:, nonzero] /= sigma[nonzero]
    if not nonzero.all():
        u = _complete_basis(u, np.flatnonzero(~nonzero))
    return u, sigma, v


def _complete_basis(u, missing):
    """Fill the listed columns with unit vectors orthogonal to the rest."""
    u = u.copy()
    m = u.shape[0]
    have = [u[:, j] for j in range(u.shape[1]) if j not in set(missing)]
    for j in missing:
        best = None
        for k in range(m):
            cand = np.zeros(m)
            cand[k] = 1.0
            for w in have:
                cand -= (w @ cand) * w
            norm = np.linalg.norm(cand)
            if norm > 0.5:
                break
            if best is None or norm > best[1]:
                best = cand, norm
        else:
            # No unit vector keeps half its length. The one that keeps the
            # most keeps at least 1/sqrt(m): orthogonalize it once more.
            cand = best[0]
            for w in have:
                cand -= (w @ cand) * w
            norm = np.linalg.norm(cand)
        cand /= norm
        u[:, j] = cand
        have.append(cand)
    return u


def _kernel_inputs():
    rng = np.random.default_rng(2024)
    cases = {f"gaussian n={n}": rng.standard_normal((n, n)) for n in (1, 2, 3, 25)}
    for kappa in (1e2, 1e4, 1e6):
        cases[f"randsvd kappa={kappa:g}"] = randsvd_matrix(25, 25, kappa, rng)
    graded = np.logspace(0, 4, 25)[:, None] * rng.standard_normal((25, 25))
    cases["rows graded 1 to 1e4"] = graded
    cases["R of the stepped Gaussian"] = householder_qr(stepped_gaussian(rng)).r
    zero_col = rng.standard_normal((6, 6))
    zero_col[:, 2] = 0.0
    cases["zero column"] = zero_col
    # Equal Gram diagonal and nonzero off-diagonal: zeta == 0 exactly.
    cases["2x2 equal diagonal"] = np.array([[1.0, 2.0], [2.0, 1.0]])
    for k in (3, 25):
        q1 = random_orthonormal(60, k, rng)
        q2 = random_orthonormal(60, k, rng)
        cases[f"q1.T @ q2, k={k}"] = q1.T @ q2
    # Rank deficient: round-off drives a tracked Gram diagonal below
    # zero mid-sweep, where the oracle must leave the pair alone.
    for seed, n in ((22, 3), (13, 4)):
        dup = np.random.default_rng(seed).standard_normal((n, n))
        dup[:, 1] = 3.0 * dup[:, 0]
        cases[f"column 1 = 3 x column 0, n={n}"] = dup
    return cases


def _kernel_sweep(count=200):
    """
    Seeded square inputs, n from 1 to 12: plain, column-scaled and
    row-scaled up to 1e12, with a zero column, and with one column a
    multiple of another.
    """
    rng = np.random.default_rng(4096)
    cases = {}
    for i in range(count):
        n = 1 + i % 12
        a = rng.standard_normal((n, n))
        kind = ("plain", "columns scaled", "rows scaled", "zero column",
                "column multiple")[i % 5]
        if kind == "columns scaled":
            a *= 10.0 ** rng.uniform(-12, 12, n)
        elif kind == "rows scaled":
            a *= 10.0 ** rng.uniform(-12, 12, (n, 1))
        elif kind == "zero column":
            a[:, rng.integers(n)] = 0.0
        elif kind == "column multiple" and n > 1:
            j, k = rng.choice(n, 2, replace=False)
            a[:, j] = rng.uniform(-4.0, 4.0) * a[:, k]
        cases[f"sweep {i}: n={n}, {kind}"] = a
    return cases


KERNEL_INPUTS = {**_kernel_inputs(), **_kernel_sweep()}


@pytest.mark.parametrize("name", list(KERNEL_INPUTS))
def test_jacobi_kernel_byte_identical_to_reference(name):
    # Named for the bitwise comparison with a second, in-place copy of
    # this kernel that linalg once carried. With one copy left, it checks
    # that the oracle is an SVD, with tolerances from the dtype and the
    # stopping rule:
    # - each column takes at most JACOBI_MAX_SWEEPS (n - 1) rotations,
    #   each within 6u of an exact rotation of its pair, so V and U Sigma
    #   are within `rounding` per column of an orthogonal W and of a @ W.
    #   That bounds the reconstruction by (1 + sqrt(n)) rounding and V's
    #   Gram residual by 2 sqrt(n) rounding;
    # - the last sweep rotated nothing, so U's normalized columns are
    #   orthogonal within JACOBI_TOL plus the rounding of u.T @ u and of
    #   the column norms, 2 (m + 2) u.
    a = KERNEL_INPUTS[name]
    m, n = a.shape
    u, sigma, v = _reference_kernel(a)
    rounding = 6 * UNIT_ROUNDOFF * JACOBI_MAX_SWEEPS * n
    assert fro_norm(a - (u * sigma) @ v.T) <= (1 + math.sqrt(n)) * rounding * fro_norm(a)
    assert gram_residual(v) <= 2 * math.sqrt(n) * rounding
    assert gram_residual(u) <= n * (JACOBI_TOL + 2 * (m + 2) * UNIT_ROUNDOFF)
    assert np.all(np.diff(sigma) <= 0.0) and np.all(sigma >= 0.0)


@pytest.mark.parametrize("name", list(KERNEL_INPUTS))
def test_gram_matrix_is_bitwise_symmetric_in_the_kernel_layout(name):
    # The Gram matrix each oracle sweep starts from, u.T @ u, comes out
    # of BLAS bitwise symmetric, square and stacked 2n x n.
    rng = np.random.default_rng(5)
    a = KERNEL_INPUTS[name]
    for u in (a, np.vstack((a, rng.standard_normal(a.shape)))):
        g = u.T @ u
        assert g.tobytes() == g.T.copy().tobytes(), (
            f"u.T @ u is not bitwise symmetric on {name} {u.shape}"
        )


def test_jacobi_convergence_error_at_sweep_limit(monkeypatch):
    # The limit is read at call time; one sweep cannot diagonalize the
    # Gram matrix of a 25 x 25 Gaussian.
    monkeypatch.setitem(globals(), "JACOBI_MAX_SWEEPS", 1)
    a = np.random.default_rng(8).standard_normal((25, 25))
    with pytest.raises(ConvergenceError, match="1 sweeps"):
        _reference_kernel(a)


def test_no_module_holds_the_python_jacobi_kernel():
    # The Python Jacobi kernel lives in this file only; the package's
    # SVDs run in dgejsv.
    kernel_names = {"_jacobi_kernel", "_jacobi_workspace", "_complete_basis",
                    "JACOBI_TOL", "JACOBI_MAX_SWEEPS"}
    for info in pkgutil.iter_modules(qrlev.__path__):
        module = importlib.import_module(f"qrlev.{info.name}")
        assert not kernel_names & set(vars(module)), info.name


def _oracle_inputs():
    rng = np.random.default_rng(31)
    cases = {
        "stepped orthonormal": stepped_orthonormal(rng),
        "stepped ill-conditioned": stepped_illconditioned(rng),
        "n=1 tall": rng.standard_normal((7, 1)),
        "n=1 square": rng.standard_normal((1, 1)),
        "zero square": np.zeros((4, 4)),
        "zero tall": np.zeros((6, 3)),
    }
    # Columns graded 1 to 1e-12: kappa2 about 1e12.
    for m, n in ((40, 8), (100, 25), (25, 25)):
        cases[f"columns graded {m} x {n}"] = (
            rng.standard_normal((m, n)) * np.logspace(0, -12, n)
        )
    for n in range(2, 13):
        a = rng.standard_normal((n, n))
        a[:, rng.integers(n)] = 0.0
        cases[f"rank-deficient square n={n}"] = a
    return cases


ORACLE_INPUTS = _oracle_inputs()


@pytest.mark.parametrize("name", list(ORACLE_INPUTS))
def test_dgejsv_sigma_agrees_with_the_jacobi_kernel(name):
    # The Python kernel on the same R is the oracle for the LAPACK step;
    # both are one-sided Jacobi methods, so sigma agrees to a relative
    # 4 n eps, and an exactly zero sigma is exactly zero in both.
    a = ORACLE_INPUTS[name]
    m, n = a.shape
    r = householder_qr(a).r if m > n else a
    got = jacobi_svd(a).sigma
    want = _reference_kernel(r)[1]
    tol = 4 * n * np.finfo(np.float64).eps
    assert np.all(np.abs(got - want) <= tol * want), (
        f"sigma differs on {name}: {got} vs {want}"
    )


JACOBI_QR_INPUTS = {
    **{name: QR_INPUTS[name] for name in ("n=1", "m=n", "m=2n")},
    **STEPPED_INPUTS,
}


@pytest.mark.parametrize("name", list(JACOBI_QR_INPUTS))
def test_leverage_qr_agrees_with_the_jacobi_oracle_on_a(name):
    # An oracle that shares no code with the QR: the Python Jacobi SVD
    # of a itself, whose U spans range(a). Householder QR's scores are
    # exact for a matrix within relative two-norm distance eps = m n u of
    # a. So are the oracle's: its rotations round by 6u each, n - 1 per
    # column per sweep, which stays below eps over the 1 to 13 sweeps
    # these inputs take (at m = n every score is 1 whatever the range).
    # By T2_gen the two agree within twice
    # (2 sqrt(l (1 - l)) + kappa2 eps) kappa2 eps. q is within eps of
    # an orthonormal basis, which moves a squared row norm by at most
    # (2 sqrt(l) + eps) eps, and the stopping rule leaves U's columns
    # orthonormal within n JACOBI_TOL, which moves it by at most that
    # times 2 sqrt(l).
    a = JACOBI_QR_INPUTS[name]
    m, n = a.shape
    eps = m * n * UNIT_ROUNDOFF
    ke = matrix_stats(a).kappa2 * eps
    assert ke <= 0.5, "T2_gen's hypothesis fails; the tolerance says nothing"
    u = _reference_kernel(a)[0]
    lev_ref = np.einsum("ij,ij->i", u, u)
    clipped = np.clip(lev_ref, 0.0, 1.0)
    tol = (2.0 * (2.0 * np.sqrt(clipped * (1.0 - clipped)) + ke) * ke
           + (2.0 * np.sqrt(clipped) + eps) * eps
           + 2.0 * np.sqrt(clipped) * n * JACOBI_TOL)
    lev = leverage_qr(a)
    assert np.all(np.abs(lev - lev_ref) <= tol), (
        f"worst |dl|/tol {np.max(np.abs(lev - lev_ref) / tol):.3g} on {name}"
    )
    # The check can fail: the index closest to its tolerance, moved 1%
    # past it, fails it.
    i = int(np.argmax(np.abs(lev - lev_ref) / tol))
    lev[i] = lev_ref[i] + 1.01 * tol[i]
    assert not np.all(np.abs(lev - lev_ref) <= tol)


def test_dgejsv_info_raises_convergence_error(monkeypatch):
    def failing(a, **kwargs):
        n = a.shape[1]
        return np.ones(n), np.eye(n), np.eye(n), np.ones(7), np.zeros(3), 1

    monkeypatch.setattr(linalg, "dgejsv", failing)
    with pytest.raises(ConvergenceError, match="info = 1"):
        jacobi_svd(np.random.default_rng(8).standard_normal((10, 4)))


def _dgejsv_edge_inputs():
    """
    Square inputs, n from 1 to 60, by family: zero, identity, n = 1,
    rank-deficient, rows or columns graded by 1e+-4 and 1e+-8, and
    Gaussians scaled by 1e+-75 to 1e+-150.
    """
    rng = np.random.default_rng(37)
    sizes = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 60)
    families = {
        "zero": [np.zeros((n, n)) for n in sizes],
        "identity": [np.eye(n) for n in sizes],
        "n=1": [np.array([[x]]) for x in (1.0, -2.5, 1e-150, -1e150, 3e-300)],
        "rank-deficient": [],
        "graded": [],
        "scaled": [],
    }
    for n in sizes[1:]:
        for rank in sorted({1, n // 2, n - 1}):
            families["rank-deficient"].append(
                rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
            )
        a = rng.standard_normal((n, n))
        a[:, rng.integers(n)] = 0.0
        b = rng.standard_normal((n, n))
        b[rng.integers(n)] = 0.0
        families["rank-deficient"] += [a, b]
    for n in sizes:
        for top in (8.0, -8.0, 4.0, -4.0):
            grade = np.logspace(0, top, n)
            g = rng.standard_normal((n, n))
            families["graded"] += [g * grade, g * grade[:, None]]
        for scale in (1e-150, 1e-100, 1e-75, 1e75, 1e100, 1e150):
            families["scaled"].append(rng.standard_normal((n, n)) * scale)
    return families


DGEJSV_EDGE_INPUTS = _dgejsv_edge_inputs()


@pytest.mark.parametrize("family", list(DGEJSV_EDGE_INPUTS))
def test_dgejsv_job_c_equals_job_e(family):
    # JOBA 'E' is 'C' plus a condition estimate in work[2]; everything
    # _dgejsv reads is the same bit for bit, and so is what it returns.
    jobs = dict(jobu=0, jobv=0, jobr=1, jobt=0, jobp=0)
    for k, a in enumerate(DGEJSV_EDGE_INPUTS[family]):
        sva_c, u_c, v_c, work_c, _, info_c = linalg.dgejsv(a, joba=0, **jobs)
        sva_e, u_e, v_e, work_e, _, info_e = linalg.dgejsv(a, joba=1, **jobs)
        assert info_c == info_e == 0, (family, k)
        u, sigma, v = linalg._dgejsv(a)
        for got, want in ((sva_c, sva_e), (u_c, u_e), (v_c, v_e),
                          (work_c[:2], work_e[:2]), (u, u_e), (v, v_e),
                          (sigma, sva_e * (work_e[0] / work_e[1]))):
            assert got.tobytes() == want.tobytes(), (family, k)


def _counts(pools):
    return [pool.get() for pool in pools]


class TestBlasThreads:
    def test_finds_numpy_openblas_pool(self):
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        if sys.platform != "linux" or "openblas" not in blas:
            pytest.skip(f"discovery reads /proc/self/maps; numpy's BLAS is {blas}")
        pools = linalg.blas_pools()
        assert pools
        assert all(count >= 1 for count in _counts(pools))

    @pytest.mark.parametrize("k", [1, 2])
    def test_count_inside_is_k_and_restored_on_exit(self, two_blas_threads, k):
        with linalg.blas_threads(k) as pools:
            assert pools == linalg.blas_pools()
            assert _counts(pools) == [k] * len(pools)
        assert _counts(two_blas_threads) == [2] * len(two_blas_threads)

    def test_restored_after_an_exception_inside(self, two_blas_threads):
        with pytest.raises(RuntimeError, match="inside"):
            with linalg.blas_threads(1):
                raise RuntimeError("inside")
        assert _counts(two_blas_threads) == [2] * len(two_blas_threads)

    @pytest.mark.parametrize("inner", [1, 2])
    def test_nested_restores_the_outer_value(self, two_blas_threads, inner):
        with linalg.blas_threads(1) as pools:
            with linalg.blas_threads(inner):
                assert _counts(pools) == [inner] * len(pools)
            assert _counts(pools) == [1] * len(pools)
        assert _counts(two_blas_threads) == [2] * len(two_blas_threads)

    def test_no_op_when_no_library_exports_the_symbols(self, two_blas_threads, monkeypatch):
        monkeypatch.setattr(
            linalg, "BLAS_THREAD_SYMBOLS", (("no_such_get_threads", "no_such_set_threads"),)
        )
        linalg.blas_pools.cache_clear()
        ran = []
        try:
            with linalg.blas_threads(1) as pools:
                ran.append(pools)
                assert _counts(two_blas_threads) == [2] * len(two_blas_threads)
        finally:
            linalg.blas_pools.cache_clear()
        assert ran == [()]
        assert _counts(two_blas_threads) == [2] * len(two_blas_threads)
