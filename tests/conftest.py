import pytest

from qrlev.linalg import blas_pools


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

