import contextlib

import pytest

from smoa import blas

requires_pin = pytest.mark.skipif(
    not blas.PINNABLE,
    reason="numpy's BLAS is not its bundled OpenBLAS, so there is no thread count to set")


@contextlib.contextmanager
def blas_threads(n):
    """Set the BLAS thread count to n for the block, with the setter seen on entry."""
    set_threads, get_threads = blas._set_threads, blas._get_threads
    previous = get_threads()
    set_threads(n)
    try:
        yield
    finally:
        set_threads(previous)
