import sys

import pytest

import qrlev.acceptance  # noqa: F401  (loads every module that factors)
from qrlev import linalg
from qrlev.linalg import blas_pools


@pytest.fixture
def factorization_calls(monkeypatch):
    """
    Counts of householder_qr and jacobi_svd calls made through any
    qrlev module during the test. A call either makes to itself (to
    prescale or transpose) is not counted again; householder_qr inside
    jacobi_svd is.
    """
    counts = {"householder_qr": 0, "jacobi_svd": 0}
    active = []
    modules = [mod for name, mod in sys.modules.items() if name.startswith("qrlev.")]
    for name in counts:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            if not active or active[-1] != _name:
                counts[_name] += 1
            active.append(_name)
            try:
                return _original(*args, **kwargs)
            finally:
                active.pop()

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def two_blas_threads():
    """
    Every OpenBLAS pool at two threads for the test, set through the
    pools' own setters (not blas_threads), then put back as it was. A
    count of 1 read inside an entry point can then only come from the
    entry point.
    """
    pools = blas_pools()
    if not pools:
        pytest.skip("no OpenBLAS thread pool found")
    saved = [pool.get() for pool in pools]
    for pool in pools:
        pool.set(2)
    try:
        yield pools
    finally:
        for pool, count in zip(pools, saved):
            pool.set(count)

