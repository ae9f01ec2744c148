import contextlib
import os

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


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps the processes it starts: a worker left running or
    unreaped fails the test that left it."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child process at all
        return
    pytest.fail("the test left a child process running" if pid == 0
                else f"the test left child process {pid} unreaped")
