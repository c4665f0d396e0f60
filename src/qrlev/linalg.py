"""
Dense linear-algebra kernels: Householder QR, one-sided Jacobi SVD,
norms, projector application, and triangular half-splitting.

LAPACK runs through scipy's compiled f2py wrappers, the module
scipy.linalg._flapack that scipy.linalg.lapack re-exports, loaded
without scipy.linalg's Python layer (_load_flapack says why and how).
The QR runs in LAPACK's dgeqrf and dorgqr, in scipy's OpenBLAS thread
pool, with its signs normalized so that diag(r) >= 0. It takes the
workspace LAPACK reports as optimal and returns q C-ordered, which
keeps its bits those of numpy's own QR at one BLAS thread
(householder_qr's Notes say why). solve_upper calls dtrtrs with the
arguments scipy's solve_triangular passes, so its bits are that
function's.
The entry points (acceptance.run_all, experiments.run_figure,
cli.main, generate.generate) run inside blas_threads(1), which holds
numpy's and scipy's OpenBLAS pools at one thread: at the lab's
n <= 100 a second thread adds no speed, and the two pools do not
contend.

The SVD's n x n step runs in LAPACK's dgejsv, the preconditioned
one-sided Jacobi SVD of Drmač and Veselić; a nonzero info from it
raises ConvergenceError.

All functions but blas_pools and blas_threads are pure: inputs are
never mutated, outputs are fresh arrays. Matrices are plain float64
2-d numpy arrays throughout. Each public call validates its inputs
once. The private _gram_residual and _project_out take inputs that
are already checked: check_orthonormal calls _gram_residual on the q
it has just coerced, and callers that have checked q at BASIS_TOL
themselves project with _project_out rather than check q again in
project_complement.
"""

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# scipy's compiled LAPACK wrappers, the module scipy.linalg.lapack
# re-exports.
_FLAPACK = "scipy.linalg._flapack"


def _load_flapack(directory=None):
    """
    scipy.linalg._flapack, without running scipy/linalg/__init__.py
    where that can be avoided: that file imports scipy's array-API
    layer (numpy.f2py, numpy.testing, numpy.ma), which takes most of
    scipy.linalg's import time and none of which qrlev calls.

    The module comes from sys.modules if scipy.linalg (or an earlier
    call) has loaded it; else from the extension file in directory
    (default: scipy's linalg directory), which registers itself in
    sys.modules, so a later import of scipy.linalg reuses it; else,
    where no such file exists (an editable scipy build), from a normal
    import. All three are the same module.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    if directory is None:
        import scipy

        directory = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(directory) / f"_flapack{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, str(path))
            spec = importlib.util.spec_from_file_location(
                _FLAPACK, path, loader=loader
            )
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            sys.modules[_FLAPACK] = module
            return module
    return importlib.import_module(_FLAPACK)


_flapack = _load_flapack()
dgejsv = _flapack.dgejsv
dgeqrf = _flapack.dgeqrf
dgeqrf_lwork = _flapack.dgeqrf_lwork
dorgqr = _flapack.dorgqr
dtrtrs = _flapack.dtrtrs

# Gram residual allowed for a matrix to count as orthonormal, relative
# to the column count.
ORTH_TOL = 1e-13

# Gram residual allowed on a basis handed in from outside (leverage
# scores, principal angles, rotations). Looser than the QR kernel's own
# guarantee so externally produced bases pass.
BASIS_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Iterative kernel failed to converge within its sweep limit."""


class RankDeficiencyError(ValueError):
    """Matrix is numerically rank deficient; carries sigma_min/sigma_max."""

    def __init__(self, message, ratio=None):
        super().__init__(message)
        self.ratio = ratio


class ThinQR(NamedTuple):
    q: np.ndarray  # m x n, orthonormal columns
    r: np.ndarray  # n x n, upper triangular, nonnegative diagonal


class SvdResult(NamedTuple):
    u: np.ndarray      # m x k, orthonormal columns
    sigma: np.ndarray  # length k, nonincreasing, nonnegative
    v: np.ndarray      # n x k, orthonormal columns


def as_matrix(a, name="matrix"):
    """Coerce to a float64 2-d array and reject NaN/Inf entries."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def gram_residual(q):
    """Frobenius norm of Q^T Q - I."""
    return _gram_residual(as_matrix(q, "q"))


def _gram_residual(q):
    """
    gram_residual of a q that as_matrix has already passed, with the
    bits of np.linalg.norm(q.T @ q - np.eye(n), "fro"): 1 is
    subtracted in place on the diagonal, and norm's "fro" is the
    square root of the raveled matrix's dot product with itself.
    """
    g = (q.T @ q).ravel()
    g[:: q.shape[1] + 1] -= 1.0
    return math.sqrt(g.dot(g))


def fro_norm(x):
    """
    Frobenius norm by numpy's pairwise sum of the squared entries. It
    does not depend on the BLAS thread count, where np.linalg.norm's
    dot product does on long inputs. Entries whose squares would
    overflow or underflow are prescaled by a power of two.
    """
    exponent = _range_exponent(x)
    if exponent:
        return math.ldexp(fro_norm(np.ldexp(x, -exponent)), exponent)
    return float(np.sqrt(np.add.reduce((x * x).ravel())))


def row_norms(x):
    """Two-norm of each row of x, prescaled as in fro_norm."""
    exponent = _range_exponent(x)
    if exponent:
        return np.ldexp(row_norms(np.ldexp(x, -exponent)), exponent)
    return np.linalg.norm(x, axis=1)


def safe_ratio(num, den):
    """num / den where den > 0, NaN elsewhere (also where den is NaN)."""
    out = np.full(np.broadcast(num, den).shape, np.nan)
    return np.divide(num, den, out=out, where=np.greater(den, 0.0))


def check_orthonormal(q, tol, name="q"):
    q = as_matrix(q, name)
    res = _gram_residual(q)
    if res > tol:
        raise ValueError(
            f"{name} is not orthonormal: Gram residual {res:.3e} exceeds {tol:.3e}"
        )
    return q


def _range_exponent(a):
    """
    Power-of-two exponent for prescaling matrices whose squared
    entries would overflow or underflow. Zero for ordinary
    magnitudes, so the common path is untouched bit for bit.
    """
    peak = max(
        float(np.maximum.reduce(a, axis=None)),
        -float(np.minimum.reduce(a, axis=None)),
    )
    if peak == 0.0 or 1e-150 < peak < 1e150:
        return 0
    return math.frexp(peak)[1]


@functools.lru_cache(maxsize=64)
def _upper(n):
    """
    Read-only n x n mask of the upper triangle, diagonal included.
    Selecting through it gives the bits and the C order of np.triu,
    without building the mask on every call.
    """
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def householder_qr(a):
    """
    Thin QR decomposition via Householder reflections, in LAPACK.

    Parameters
    ----------
    a : (m, n) array_like, m >= n
        Matrix to factor; entries must be finite.

    Returns
    -------
    ThinQR
        q with orthonormal columns (m x n) and upper-triangular r
        (n x n) whose diagonal is nonnegative; q @ r reconstructs a
        to machine precision.

    Notes
    -----
    LAPACK's dgeqrf and dorgqr, through scipy, run the blocked form of
    the Householder algorithm, so its row-wise backward error analysis
    (Higham, Accuracy and Stability, ch. 19; Cox and Higham 1998)
    holds. Column signs are then normalized so that diag(r) >= 0, which
    makes the factorization of a full-rank matrix unique; the sign
    flips are exact. Rank deficiency is not an error here; it surfaces
    downstream via singular values of r. A nonzero info from either
    routine raises RuntimeError.

    At one BLAS thread the bits equal those of numpy's own QR, which
    calls the same pair, for two reasons. The workspace is the optimum
    LAPACK reports, the one numpy queries too: scipy's default, 3n,
    makes dgeqrf and dorgqr narrow their blocks for n > 128, which
    changes the bits and runs about 2x slower. And q is returned
    C-ordered, as numpy's is: dorgqr writes it Fortran-ordered, and the
    matrix products downstream round differently on that layout.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m < n:
        raise ValueError(f"householder_qr needs m >= n, got shape {a.shape}")

    exponent = _range_exponent(a)
    if exponent:
        q, r = householder_qr(np.ldexp(a, -exponent))
        return ThinQR(q, np.ldexp(r, exponent))

    lwork, _ = dgeqrf_lwork(m, n)
    qr, tau, work, info = dgeqrf(a, lwork=int(lwork))
    if info != 0:
        raise RuntimeError(f"dgeqrf failed with info = {info}")
    r = np.where(_upper(n), qr[:n], 0.0)
    q, _, info = dorgqr(qr, tau, lwork=max(int(work[0]), n), overwrite_a=True)
    if info != 0:
        raise RuntimeError(f"dorgqr failed with info = {info}")
    signs = np.where(r.diagonal() < 0.0, -1.0, 1.0)
    return ThinQR(np.multiply(q, signs, order="C"), r * signs[:, None])


def _dgejsv(a):
    """
    LAPACK's preconditioned one-sided Jacobi SVD of a square matrix:
    n left vectors, sigma and v. dgejsv returns sigma as sva scaled by
    work[0] / work[1]; a nonzero info raises ConvergenceError. It
    returns U = I with sigma = 0 on a zero matrix and completes U on
    rank-deficient inputs.
    """
    # JOBA 'C': accurate for column-scaled inputs; LAPACK's
    # documentation defines 'E' as 'C' plus a condition estimate in
    # work[2], which nothing here reads. JOBU 'U', JOBV 'V': n vectors
    # each; JOBR 'R': restricted range; JOBT, JOBP 'N'.
    sva, u, v, work, _, info = dgejsv(
        a, joba=0, jobu=0, jobv=0, jobr=1, jobt=0, jobp=0
    )
    if info != 0:
        raise ConvergenceError(f"dgejsv failed with info = {info}")
    return u, sva * (work[0] / work[1]), v


def jacobi_svd(a):
    """
    Singular value decomposition by one-sided Jacobi rotations.

    Parameters
    ----------
    a : (m, n) array_like
        Matrix with finite entries; intended for small n (a few
        hundred at most).

    Returns
    -------
    SvdResult
        u (m x k), sigma (nonincreasing, k = min(m, n)), v (n x k)
        with a ~= u @ diag(sigma) @ v.T.

    Notes
    -----
    Tall matrices are first reduced by Householder QR and the SVD of
    the triangular factor runs in LAPACK's dgejsv, keeping that step
    n x n; dgejsv is the preconditioned one-sided Jacobi method, so
    sigma keeps Jacobi's relative accuracy. A nonzero info from dgejsv
    raises ConvergenceError rather than returning a silently
    inaccurate result.
    """
    a = as_matrix(a, "a")
    exponent = _range_exponent(a)
    if exponent:
        res = jacobi_svd(np.ldexp(a, -exponent))
        return SvdResult(res.u, np.ldexp(res.sigma, exponent), res.v)
    m, n = a.shape
    if m < n:
        res = jacobi_svd(a.T)
        return SvdResult(res.v, res.sigma, res.u)
    if m > n:
        q, r = householder_qr(a)
        u_r, sigma, v = _dgejsv(r)
        return SvdResult(q @ u_r, sigma, v)
    u, sigma, v = _dgejsv(a)
    return SvdResult(u, sigma, v)


def two_norm(a):
    """Largest singular value of a."""
    a = as_matrix(a, "a")
    if not a.any():
        return 0.0
    return float(jacobi_svd(a).sigma[0])


def project_complement(q, x):
    """
    Apply the projector onto the orthogonal complement of range(q).

    Returns (I - q q^T) x for q with orthonormal columns (Gram
    residual at most the QR-output tolerance ORTH_TOL * n). The result
    plus q q^T x reconstructs x exactly up to round-off.
    """
    q = as_matrix(q, "q")
    x = as_matrix(x, "x")
    check_orthonormal(q, ORTH_TOL * q.shape[1], "q")
    if q.shape[0] != x.shape[0]:
        raise ValueError(
            f"row count mismatch: q has {q.shape[0]} rows, x has {x.shape[0]}"
        )
    return _project_out(q, x)


def _project_out(q, x):
    """
    (I - q q^T) x, for a q and x that project_complement's checks, or
    the caller's own at the same or a tighter tolerance, have passed.
    """
    return x - q @ (q.T @ x)


def triu_half(z):
    """
    Extract the upper-triangular half of a square matrix: half the
    diagonal plus the strict upper triangle.

    For symmetric z this is the unique upper-triangular t with
    t + t.T == z.
    """
    z = as_matrix(z, "z")
    if z.shape[0] != z.shape[1]:
        raise ValueError(f"triu_half needs a square input, got shape {z.shape}")
    return np.triu(z, 1) + 0.5 * np.diag(np.diag(z))


def solve_upper(r, b):
    """
    b r**-1 for upper-triangular r: the solution x of x r = b.

    LAPACK's dtrtrs solves r^T x^T = b^T with the arguments scipy's
    solve_triangular(r, b.T, trans="T") passes, so the bits are its
    bits: an F-ordered r is solved as upper with trans, any other as
    the lower triangle of r.T without, and the two orders round
    differently. Non-finite entries raise ValueError, a zero on r's
    diagonal LinAlgError.
    """
    r = as_matrix(r, "r")
    b = as_matrix(b, "b")
    n = r.shape[0]
    if r.shape != (n, n) or b.shape[1] != n:
        raise ValueError(
            f"solve_upper needs r n x n and b k x n, got {r.shape} and {b.shape}"
        )
    if r.flags.f_contiguous:
        x, info = dtrtrs(r, b.T, lower=0, trans=1)
    else:
        x, info = dtrtrs(r.T, b.T, lower=1, trans=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"r is singular: zero at diagonal entry {info - 1}")
    return x.T


# (get, set) thread-count symbols of an OpenBLAS build: numpy's copy
# (64-bit integers), scipy's copy, and a system build.
BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class BlasPool(NamedTuple):
    library: str                   # path of the loaded shared library
    get: Callable[[], int]         # current thread count
    set: Callable[[int], None]     # set the thread count


@functools.cache
def blas_pools():
    """
    The thread pools of the OpenBLAS libraries loaded in this process.

    Found on first call, never at import: the libraries are read from
    /proc/self/maps and each is bound through ctypes to the first pair
    of BLAS_THREAD_SYMBOLS it exports. numpy and scipy (imported by
    this module) have loaded theirs by then. Returns () where the map
    is unreadable or no library exports a pair; a mapped file that
    cannot be opened again (deleted since it was loaded) is skipped.
    """
    try:
        with open("/proc/self/maps") as fh:
            maps = fh.read()
    except OSError:
        return ()
    paths = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and ".so" in line
    })
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in BLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append(BlasPool(path, get, set_))
                break
    return tuple(pools)


@contextlib.contextmanager
def blas_threads(k):
    """
    Run the body with every pool of blas_pools() at k threads.

    On entry each pool's count is read and set to k; on exit, also when
    the body raises, each is set back to what was read, so nesting
    restores the outer value. Yields the pools it set; where none was
    found it yields () and only runs the body. The counts are
    process-global, so this is not safe across Python threads: two
    threads inside it at once restore each other's counts in either
    order.
    """
    pools = blas_pools()
    saved = [pool.get() for pool in pools]
    try:
        for pool in pools:
            pool.set(k)
        yield pools
    finally:
        for pool, count in zip(pools, saved):
            pool.set(count)
