import contextlib
import os

import numpy as np
import pytest

from smoa import blas, training

requires_pin = pytest.mark.skipif(
    not blas.PINNABLE,
    reason="numpy's BLAS is not its bundled OpenBLAS, so there is no thread count to set")


def flat_weight(d_out, d_in, rng):
    """A d_out x d_in weight with a flat spectrum, made from rng with the
    draws and operations of training.random_weight but sigma_i = 1 in place
    of i**-0.5.  Degeneracy tests use it: on a flat spectrum, rounding
    decides the energy partition."""
    p = min(d_out, d_in)
    qu, _ = np.linalg.qr(rng.standard_normal((d_out, p)))
    qv, _ = np.linalg.qr(rng.standard_normal((d_in, p)))
    w = (qu * np.ones(p)) @ qv.T
    w *= np.sqrt(d_out * d_in) / np.linalg.norm(w)
    return w


def flip_largest_gradient(monkeypatch):
    """Patch training._factor_grads, through monkeypatch, to flip the sign
    of the first gradient entry of largest magnitude: a known fault that
    grad_check must report, as a relative error of 2 at that entry."""
    factor_grads = training._factor_grads

    def flipped(plan):
        factor_grads(plan)
        plan.grads[np.argmax(np.abs(plan.grads))] *= -1.0
    monkeypatch.setattr(training, "_factor_grads", flipped)


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
