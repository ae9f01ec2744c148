import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoa import adapters, blas, rank_analysis
from smoa.errors import NumericalError
from smoa.matrix_io import METHODS, RunConfig
from smoa.spectral import EmptySubspaceWarning
from smoa.training import random_weight

from conftest import blas_threads, requires_pin


@requires_pin
def test_one_thread_pins_one_thread_and_restores_the_count():
    with blas_threads(2):
        with blas.one_thread() as pinned:
            assert (pinned, blas._get_threads()) == (True, 1)
        assert blas._get_threads() == 2


@requires_pin
def test_one_thread_restores_the_count_when_the_block_raises():
    with blas_threads(2):
        with pytest.raises(NumericalError, match="inside the block"):
            with blas.one_thread():
                raise NumericalError("inside the block")
        assert blas._get_threads() == 2


@requires_pin
def test_nested_one_thread_pins_once():
    with blas_threads(2):
        with blas.one_thread() as outer:
            with blas.one_thread() as inner:
                assert blas._get_threads() == 1
            assert blas._get_threads() == 1
        assert (outer, inner, blas._get_threads()) == (True, False, 2)


@requires_pin
def test_one_thread_decorates_a_function_that_runs_pinned_on_every_call():
    @blas.one_thread()
    def threads_inside():
        return blas._get_threads()

    with blas_threads(2):
        assert [threads_inside(), blas._get_threads(), threads_inside()] == [1, 2, 1]
    assert blas._get_threads() == 2


@requires_pin
def test_one_thread_does_nothing_at_one_thread():
    with blas_threads(1):
        with blas.one_thread() as pinned:
            assert (pinned, blas._get_threads()) == (False, 1)
        assert blas._get_threads() == 1


@requires_pin
def test_one_thread_is_a_no_op_without_a_thread_setter(monkeypatch):
    with blas_threads(2):
        monkeypatch.setattr(blas, "_set_threads", None)
        with blas.one_thread() as pinned:
            assert (pinned, blas._get_threads()) == (False, 2)


@requires_pin
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(METHODS), d_out=st.integers(2, 160), d_in=st.integers(2, 160),
       K=st.integers(1, 4), r=st.integers(1, 16), seed=st.integers(0, 2**16))
def test_numerical_rank_does_not_depend_on_the_pin(method, d_out, d_in, K, r, seed):
    K = min(K, d_out, d_in)
    w0 = random_weight(d_out, d_in, np.random.default_rng(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        adapter = adapters.build_adapter(method, RunConfig(K=K, r=r, seed=seed, mode="flexible"),
                                         w0)
    adapters.randomize_factors(adapter, np.random.default_rng([seed, 1]))
    with blas_threads(2):
        pinned = rank_analysis.numerical_rank(adapter)
        with mock.patch.object(blas, "_set_threads", None):
            unpinned = rank_analysis.numerical_rank(adapter)
    assert pinned == unpinned
