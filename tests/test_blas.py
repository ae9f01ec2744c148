import contextlib
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoa import adapters, blas, rank_analysis
from smoa.cli import main
from smoa.errors import NumericalError
from smoa.matrix_io import METHODS, RunConfig
from smoa.spectral import EmptySubspaceWarning
from smoa.training import random_weight

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
def test_rank_bench_writes_the_same_bytes_with_and_without_the_pin(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"methods": list(METHODS), "d": 32, "r_values": [2, 4, 8, 16],
                               "K_values": [1, 2, 4], "n_seeds": 2}))
    seen = []
    spectrum = rank_analysis._singular_values
    monkeypatch.setattr(rank_analysis, "_singular_values",
                        lambda arr: seen.append(blas._get_threads()) or spectrum(arr))
    outputs = []
    with blas_threads(2):
        for name in ("pinned", "unpinned"):
            if name == "unpinned":
                monkeypatch.setattr(blas, "_set_threads", None)
            seen.clear()
            code = main(["rank-bench", "--config", str(cfg), "--out", str(tmp_path / name)])
            out = capsys.readouterr().out.replace(str(tmp_path / name), "")
            outputs.append((code, out, (tmp_path / name).read_bytes(), set(seen)))
    (code_a, out_a, csv_a, seen_a), (code_b, out_b, csv_b, seen_b) = outputs
    assert (code_a, code_b) == (0, 0)
    assert (seen_a, seen_b) == ({1}, {2})
    assert csv_a.count(b"\n") == 1 + 2 * 44  # r=2 skips K=4
    assert csv_a == csv_b
    assert out_a == out_b


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
