"""
Seeded generation of the test matrices used throughout the
experiments: Gaussian matrices, random orthonormal bases, matrices
with a prescribed geometric singular-value profile, and the two
1000 x 25 workhorses with stepped leverage-score plateaus.

Every generator takes an explicit seed or numpy Generator; identical
seeds reproduce identical matrices. numpy's default PCG64 bit
generator with the ziggurat normal transform supplies the streams.
This holds at any BLAS thread count for generate, the recipe entry
point, which runs at one thread (linalg.blas_threads): at 40000 x 25
a QR or a product at two threads rounds differently from one at one.
The building blocks random_orthonormal and randsvd_matrix run at
their caller's count; gaussian_matrix makes no BLAS call.
"""

from dataclasses import MISSING, dataclass, field, fields
from itertools import accumulate

import numpy as np

from .io import check_json_type
from .linalg import blas_threads, householder_qr

# Fixed recipe behind the stepped-leverage matrices: four row blocks
# of 250, scaled 1, 1e2, 1e3, 1e4, times a 1000 x 25 Gaussian (the
# orthonormal variant) or a randsvd core with condition number
# STEPPED_KAPPA (the ill-conditioned one).
STEPPED_M = 1000
STEPPED_N = 25
STEPPED_BLOCK_SIZES = (250, 250, 250, 250)
STEPPED_BLOCK_SCALES = (1.0, 1e2, 1e3, 1e4)
STEPPED_KAPPA = 1e6
_EDGES = (0, *accumulate(STEPPED_BLOCK_SIZES))
# Row slice of each block, in the order of STEPPED_BLOCK_SCALES.
STEPPED_BLOCKS = tuple(slice(lo, hi) for lo, hi in zip(_EDGES, _EDGES[1:]))


@dataclass
class GenSpec:
    """
    Recipe for a generated matrix, loadable from JSON by from_dict,
    which checks each value against its field's type.

    sv_mode selects the singular-value profile of the result:
    "gaussian" is a raw i.i.d. normal core, "randsvd" is a core with
    geometric singular values from 1 down to 1/kappa, and
    "orthonormal" orthonormalizes the row-scaled Gaussian product via
    QR (kappa exactly 1). Only "randsvd" reads kappa, so any other
    mode rejects a kappa other than 1. Row-block scaling,
    when block_sizes is nonempty, is applied before any
    orthonormalization.
    """

    m: int
    n: int
    block_sizes: list[int] = field(default_factory=list)
    block_scales: list[float] = field(default_factory=list)
    kappa: float = 1.0
    sv_mode: str = "gaussian"

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be positive")
        if len(self.block_sizes) != len(self.block_scales):
            raise ValueError("block_sizes and block_scales must have equal length")
        if any(s < 0 for s in self.block_sizes):
            raise ValueError("block_sizes must be nonnegative")
        if self.block_sizes and sum(self.block_sizes) != self.m:
            raise ValueError("block_sizes must sum to m")
        if any(s <= 0 for s in self.block_scales):
            raise ValueError("block_scales must be positive")
        if self.kappa < 1.0:
            raise ValueError("kappa must be at least 1")
        if self.sv_mode not in ("gaussian", "randsvd", "orthonormal"):
            raise ValueError(f"unknown sv_mode {self.sv_mode!r}")
        if self.kappa != 1.0 and self.sv_mode != "randsvd":
            raise ValueError(
                f"kappa {self.kappa} needs sv_mode 'randsvd', got {self.sv_mode!r}"
            )
        if self.sv_mode == "orthonormal" and self.m < self.n:
            raise ValueError("orthonormal mode needs m >= n")

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"a GenSpec recipe is a JSON object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown GenSpec fields: {sorted(unknown)}")
        for f in fields(cls):
            if f.name in d:
                check_json_type(d[f.name], f.type, f"GenSpec: {f.name}")
        missing = [
            repr(f.name) for f in fields(cls)
            if f.name not in d and f.default is f.default_factory is MISSING
        ]
        if missing:
            raise ValueError(f"GenSpec: missing {', '.join(missing)}")
        return cls(**d)


def gaussian_matrix(m, n, rng):
    """
    i.i.d. standard normal m x n matrix from the seeded stream; no BLAS
    call, so no thread count changes its bits.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    return np.random.default_rng(rng).standard_normal((m, n))


def random_orthonormal(m, n, rng):
    """
    Orthonormal basis from the QR of a seeded Gaussian, m >= n, at the
    caller's BLAS thread count.
    """
    return householder_qr(gaussian_matrix(m, n, rng)).q


def randsvd_matrix(m, n, kappa, rng):
    """
    Random matrix with geometrically spaced singular values.

    Singular values run from 1 down to 1/kappa as
    sigma_i = kappa**(-(i-1)/(n-1)) (all ones when n == 1 or
    kappa == 1), sandwiched between random orthonormal factors, so
    the condition number of the result is kappa up to round-off. Runs
    at the caller's BLAS thread count.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be at least 1")
    rng = np.random.default_rng(rng)  # one stream for both factors
    k = min(m, n)
    if k == 1:
        sigma = np.ones(1)
    else:
        sigma = kappa ** (-np.arange(k) / (k - 1))
    u = random_orthonormal(m, k, rng)
    v = random_orthonormal(n, k, rng)
    return (u * sigma) @ v.T


def stepped_spec(sv_mode):
    """
    The stepped recipe over the given core: STEPPED_BLOCKS scaled by
    STEPPED_BLOCK_SCALES, times a STEPPED_M x STEPPED_N "gaussian",
    "orthonormal" or "randsvd" core; the randsvd core has condition
    number STEPPED_KAPPA.
    """
    return GenSpec(
        m=STEPPED_M,
        n=STEPPED_N,
        block_sizes=list(STEPPED_BLOCK_SIZES),
        block_scales=list(STEPPED_BLOCK_SCALES),
        kappa=STEPPED_KAPPA if sv_mode == "randsvd" else 1.0,
        sv_mode=sv_mode,
    )


def stepped_gaussian(rng):
    """
    The raw row-scaled Gaussian behind the stepped matrices: four
    250-row blocks scaled 1, 1e2, 1e3, 1e4 times randn(1000, 25).
    """
    return generate(stepped_spec("gaussian"), rng)


def stepped_orthonormal(rng):
    """
    1000 x 25 orthonormal matrix whose leverage scores rise in four
    plateaus from about 1e-10 to about 1e-1 (kappa2 == 1 by
    construction).
    """
    return generate(stepped_spec("orthonormal"), rng)


def stepped_illconditioned(rng):
    """
    Ill-conditioned companion of stepped_orthonormal: the same
    row-block scaling applied to a randsvd core with condition number
    STEPPED_KAPPA. Leverage plateaus mimic the orthonormal variant
    while the condition number of the product lands near the core's
    (seed dependent; measured, not asserted).
    """
    return generate(stepped_spec("randsvd"), rng)


def generate(spec, rng):
    """
    Materialize a GenSpec with the given seed or Generator, at one
    BLAS thread (linalg.blas_threads): the same seed gives the same
    bits at any thread count.
    """
    with blas_threads(1):
        if spec.sv_mode == "randsvd":
            core = randsvd_matrix(spec.m, spec.n, spec.kappa, rng)
        else:
            core = gaussian_matrix(spec.m, spec.n, rng)
        if spec.block_sizes:
            scales = np.asarray(spec.block_scales, dtype=np.float64)
            core = np.repeat(scales, spec.block_sizes)[:, None] * core
        if spec.sv_mode == "orthonormal":
            return householder_qr(core).q
        return core
