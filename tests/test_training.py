import dataclasses
import itertools
import os
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from smoa import adapters, blas, matrix_io, training, workers
from smoa.errors import NumericalError, ValidationError
from smoa.matrix_io import RunConfig, TrainConfig
from smoa.rank_analysis import numerical_rank, theoretical_bound
from smoa.spectral import EmptySubspaceWarning

from conftest import blas_threads, flat_weight, flip_largest_gradient, requires_pin


def small_cfg(K=2, r=4, seed=0, **kwargs):
    return RunConfig(K=K, r=r, seed=seed, **kwargs)


def train_cfg(steps, **settings):
    """A TrainConfig for train, which reads only the step count and the
    optimizer settings; its task fields are placeholders."""
    return TrainConfig(d=1, target_rank=1, n_samples=1, seed=0, steps=steps, **settings)


def test_random_weight_norm_and_spectrum():
    w = training.random_weight(64, 64, np.random.default_rng(0))
    assert_allclose(np.linalg.norm(w), 64.0, rtol=1e-12)
    sigma = np.linalg.svd(w, compute_uv=False)
    expected = np.arange(1, 65, dtype=float) ** -0.5
    assert_allclose(sigma / sigma[0], expected, rtol=1e-10)


@pytest.mark.parametrize("d_out, d_in, message", [
    (4.0, 5, "d_out must be of type int, got 4.0"),
    (0, 5, "d_out must be ≥ 1, got 0"),
    (5, True, "d_in must be of type int, got True"),
    (5, -2, "d_in must be ≥ 1, got -2"),
], ids=["float-d_out", "zero-d_out", "bool-d_in", "negative-d_in"])
def test_random_weight_rejects_bad_dimensions(d_out, d_in, message):
    with pytest.raises(ValidationError, match=message):
        training.random_weight(d_out, d_in, np.random.default_rng(0))


@pytest.mark.parametrize("rng, named", [
    (None, "NoneType"),
    (0, "int"),
    (np.random.RandomState(0), "RandomState"),
], ids=["none", "seed", "legacy-random-state"])
def test_random_weight_rejects_what_is_not_a_generator(rng, named):
    with pytest.raises(ValidationError,
                       match=rf"^rng must be an np\.random\.Generator, got {named}$"):
        training.random_weight(4, 4, rng)


TYPE_TASK = training.make_task(8, 2, 10, 0.0, seed=5)


@pytest.mark.parametrize("call, message", [
    (lambda adapter: training.train_seeds("smoa", small_cfg(), 1),
     "cfg must be a TrainConfig, got RunConfig"),
    (lambda adapter: training.train(adapter, TYPE_TASK, small_cfg()),
     "cfg must be a TrainConfig, got RunConfig"),
    (lambda adapter: training.train(adapter, None, train_cfg(2)),
     "task must be a LinearTask, got NoneType"),
    (lambda adapter: training.grad_check(adapter, {"w0": TYPE_TASK.w0}),
     "task must be a LinearTask, got dict"),
    (lambda adapter: training.forward(None, TYPE_TASK.w0, TYPE_TASK.inputs),
     "adapter must be an Adapter, got NoneType"),
    (lambda adapter: training.backward("smoa", TYPE_TASK.w0, TYPE_TASK.inputs, TYPE_TASK.targets),
     "adapter must be an Adapter, got str"),
    (lambda adapter: training.grad_check(None, TYPE_TASK),
     "adapter must be an Adapter, got NoneType"),
    (lambda adapter: training.train(adapter.params, TYPE_TASK, train_cfg(2)),
     "adapter must be an Adapter, got ndarray"),
    (lambda adapter: adapters.merge(None, TYPE_TASK.w0),
     "adapter must be an Adapter, got NoneType"),
    (lambda adapter: adapters.delta(None), "adapter must be an Adapter, got NoneType"),
    (lambda adapter: theoretical_bound(None), "adapter must be an Adapter, got NoneType"),
    (lambda adapter: adapters.randomize_factors(None, np.random.default_rng(0)),
     "adapter must be an Adapter, got NoneType"),
    (lambda adapter: adapters.save_adapter(None, "made/ckpt"),
     "adapter must be an Adapter, got NoneType"),
    (lambda adapter: training.write_loss_trace(None, "loss.csv"),
     r"trace must be an np\.ndarray, got NoneType"),
    (lambda adapter: matrix_io.write_report(None, "report.csv"),
     "rows must be a list of rank records, got NoneType"),
    (lambda adapter: adapters.block_layout(None, 4, 2), "d_out must be of type int, got None"),
    (lambda adapter: adapters.param_count("lora", small_cfg(), None),
     r"shape must be a \(d_out, d_in\) pair, got None"),
], ids=["train_seeds-cfg", "train-cfg", "train-task", "grad_check-task", "forward-adapter",
        "backward-adapter", "grad_check-adapter", "train-adapter", "merge-adapter",
        "delta-adapter", "theoretical_bound-adapter", "randomize_factors-adapter",
        "save_adapter-adapter", "write_loss_trace-trace", "write_report-rows",
        "block_layout-d_out", "param_count-shape"])
def test_a_config_or_task_of_the_wrong_type_raises_validation_error_naming_it(
        call, message, tmp_path, monkeypatch):
    adapter = adapters.build_adapter("smoa", small_cfg(), TYPE_TASK.w0)
    adapters.randomize_factors(adapter, np.random.default_rng(5))
    params = adapter.params.copy()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(adapter)
    assert_array_equal(adapter.params, params)
    assert list(tmp_path.iterdir()) == []  # the check comes before any file or directory


def test_make_task_shapes_and_scales():
    task = training.make_task(32, 8, 50, 0.0, seed=3)
    assert task.inputs.shape == (50, 32)
    assert task.targets.shape == (50, 32)
    assert_allclose(np.linalg.norm(task.target_delta), 0.1 * np.linalg.norm(task.w0), rtol=1e-12)
    assert_array_equal(task.targets, task.inputs @ (task.w0 + task.target_delta).T)


@pytest.mark.parametrize("rank", [1, 8, 32])
def test_make_task_plants_exact_rank(rank):
    task = training.make_task(32, rank, 40, 0.0, seed=rank)
    assert numerical_rank(task.target_delta) == rank


def test_make_task_block_support():
    task = training.make_task(64, 48, 100, 0.0, seed=5, target_blocks=2)
    assert numerical_rank(task.target_delta) == 48
    assert not np.any(task.target_delta[:32, 32:])
    assert not np.any(task.target_delta[32:, :32])
    assert_allclose(np.linalg.norm(task.target_delta), 0.1 * np.linalg.norm(task.w0), rtol=1e-12)


# The dense plant as make_task drew it before its default became the
# 1-block layout: target_rank outer products over the whole matrix.

def dense_plant_reference(d, target_rank, n_samples, noise_std, seed):
    def unit(n):
        v = rng.standard_normal(n)
        return v / np.linalg.norm(v)

    rng = np.random.default_rng(seed)
    w0 = training.random_weight(d, d, rng)
    target = np.zeros((d, d))
    for _ in range(target_rank):
        target += np.outer(unit(d), unit(d))
    target *= 0.1 * np.linalg.norm(w0) / np.linalg.norm(target)
    inputs = rng.standard_normal((n_samples, d))
    targets = inputs @ (w0 + target).T
    if noise_std > 0:
        targets = targets + rng.normal(0.0, noise_std, size=targets.shape)
    return w0, target, inputs, targets


@pytest.mark.parametrize("noise_std", [0.0, 0.01])
@pytest.mark.parametrize("d", [1, 5, 16, 64])
def test_make_task_default_plant_equals_the_dense_reference_bit_for_bit(d, noise_std):
    for rank in sorted({1, max(1, d // 2), d}):
        for seed in range(3):
            task = training.make_task(d, rank, 2 * d + 1, noise_std, seed)
            want = dense_plant_reference(d, rank, 2 * d + 1, noise_std, seed)
            got = (task.w0, task.target_delta, task.inputs, task.targets)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (rank, seed)


def test_make_task_noise_changes_targets():
    clean = training.make_task(16, 4, 30, 0.0, seed=6)
    noisy = training.make_task(16, 4, 30, 0.5, seed=6)
    assert not np.array_equal(clean.targets, noisy.targets)


def test_make_task_deterministic():
    first = training.make_task(16, 4, 30, 0.1, seed=9)
    second = training.make_task(16, 4, 30, 0.1, seed=9)
    for name in ("w0", "target_delta", "inputs", "targets"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes()


@pytest.mark.parametrize("noise_std", [0.0, 0.1])
def test_make_task_arrays_reject_writes(noise_std):
    task = training.make_task(8, 2, 10, noise_std, seed=9)
    for name in ("w0", "target_delta", "inputs", "targets"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(task, name)[0, 0] = 1.0


def test_make_task_validation():
    with pytest.raises(ValidationError, match="target_rank"):
        training.make_task(8, 9, 10, 0.0, 0)
    with pytest.raises(ValidationError, match="noise_std"):
        training.make_task(8, 2, 10, -0.1, 0)
    with pytest.raises(ValidationError, match="n_samples"):
        training.make_task(8, 2, 0, 0.0, 0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(d=8.0), "d must be of type int, got 8.0"),
    (dict(target_rank=2.0), "target_rank must be of type int, got 2.0"),
    (dict(n_samples=10.0), "n_samples must be of type int, got 10.0"),
    (dict(target_blocks=2.0), "target_blocks must be of type int, got 2.0"),
    (dict(target_blocks="2"), "target_blocks must be of type int, got '2'"),
    (dict(target_blocks=9), r"target_blocks must be in \[1, 8\], got 9"),
    (dict(seed=-1), "seed must be ≥ 0, got -1"),
    (dict(noise_std=float("nan")), "noise_std must be finite"),
    (dict(target_blocks=None), "target_blocks must be of type int, got None"),
], ids=["float-d", "float-target_rank", "float-n_samples", "float-target_blocks",
        "string-target_blocks", "target_blocks-above-d", "negative-seed", "nan-noise_std",
        "none-target_blocks"])
def test_make_task_rejects_mistyped_arguments(kwargs, message):
    args = dict(d=8, target_rank=2, n_samples=10, noise_std=0.0, seed=0) | kwargs
    with pytest.raises(ValidationError, match=message):
        training.make_task(**args)


def test_forward_zero_init_is_host_output():
    task = training.make_task(16, 4, 20, 0.0, seed=1)
    adapter = adapters.build_adapter("smoa", small_cfg(), task.w0)
    assert_array_equal(training.forward(adapter, task.w0, task.inputs),
                       task.inputs @ task.w0.T)


def test_forward_identity_probe():
    task = training.make_task(8, 2, 10, 0.0, seed=2)
    adapter = adapters.build_adapter("smoa", small_cfg(), task.w0)
    adapters.randomize_factors(adapter, np.random.default_rng(0), std=0.1)
    merged = adapters.merge(adapter, task.w0)
    out = training.forward(adapter, task.w0, np.eye(8))
    assert_allclose(out, merged.T, atol=1e-12)


@pytest.mark.parametrize("method", adapters.METHODS)
def test_forward_matches_merged_weight(method):
    task = training.make_task(16, 4, 20, 0.0, seed=3)
    adapter = adapters.build_adapter(method, small_cfg(), task.w0)
    adapters.randomize_factors(adapter, np.random.default_rng(4), std=0.2)
    via_merge = task.inputs @ adapters.merge(adapter, task.w0).T
    out = training.forward(adapter, task.w0, task.inputs)
    assert np.abs(out - via_merge).max() <= 1e-12 * max(1.0, np.abs(via_merge).max())


def test_forward_rejects_bad_width():
    task = training.make_task(8, 2, 10, 0.0, seed=4)
    adapter = adapters.build_adapter("smoa", small_cfg(), task.w0)
    with pytest.raises(ValidationError, match="features"):
        training.forward(adapter, task.w0, np.zeros((3, 5)))


def test_backward_zero_upstream_gives_zero_grads():
    task = training.make_task(8, 2, 10, 0.0, seed=5)
    adapter = adapters.build_adapter("smoa", small_cfg(), task.w0)
    adapters.randomize_factors(adapter, np.random.default_rng(5))
    grads = training.backward(adapter, task.w0, task.inputs, np.zeros((10, 8)))
    for g in grads.A + grads.B:
        assert not np.any(g)


def test_backward_empty_subspace_gets_zero_grads():
    # one dominant direction empties the first two index sets, so their
    # modulation blocks annihilate every gradient
    w0 = np.diag([100.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        adapter = adapters.build_adapter("smoa", RunConfig(K=3, r=3, seed=0), w0)
    adapters.randomize_factors(adapter, np.random.default_rng(6))
    x = np.random.default_rng(7).standard_normal((5, 3))
    upstream = np.random.default_rng(8).standard_normal((5, 3))
    grads = training.backward(adapter, w0, x, upstream)
    for k in (0, 1):
        assert not np.any(grads.A[k])
        assert not np.any(grads.B[k])
    assert np.any(grads.A[2])


def test_backward_rejects_bad_upstream_shape():
    task = training.make_task(8, 2, 10, 0.0, seed=6)
    adapter = adapters.build_adapter("smoa", small_cfg(), task.w0)
    with pytest.raises(ValidationError, match="upstream"):
        training.backward(adapter, task.w0, task.inputs, np.zeros((10, 9)))


@pytest.mark.parametrize("method", adapters.METHODS)
def test_grad_check_passes(method):
    task = training.make_task(16, 8, 32, 0.0, seed=10)
    adapter = adapters.build_adapter(method, small_cfg(K=2, r=4, seed=10), task.w0)
    adapters.randomize_factors(adapter, np.random.default_rng(11), std=0.5)
    report = training.grad_check(adapter, task)
    assert report.passed
    assert report.max_rel_error <= 1e-6


def test_grad_check_at_exact_optimum_is_zero():
    # targets equal the zero-init forward output, so both gradient routes
    # vanish identically
    base = training.make_task(8, 2, 12, 0.0, seed=12)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=12), base.w0)
    targets = training.forward(adapter, base.w0, base.inputs)
    task = dataclasses.replace(base, targets=targets)
    report = training.grad_check(adapter, task)
    assert report.max_rel_error == 0.0


def test_grad_check_flags_corruption(monkeypatch):
    task = training.make_task(8, 4, 16, 0.0, seed=13)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=13), task.w0)
    adapters.randomize_factors(adapter, np.random.default_rng(14), std=0.5)
    flip_largest_gradient(monkeypatch)
    report = training.grad_check(adapter, task)
    assert not report.passed
    assert report.max_rel_error == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("d, seed, message", [
    (32, -1, "seed must be ≥ 0, got -1"),  # 1024 entries: the seed picks the sample
    (8, -1, "seed must be ≥ 0, got -1"),  # 16 entries, all checked
    (32, 1.0, "seed must be of type int, got 1.0"),
], ids=["sampled-negative", "unsampled-negative", "float"])
def test_grad_check_rejects_a_bad_seed(d, seed, message):
    task = training.make_task(d, 8, 40, 0.0, seed=15)
    adapter = adapters.build_adapter("smoa", small_cfg(K=2, r=d // 4, seed=15), task.w0)
    with pytest.raises(ValidationError, match=message):
        training.grad_check(adapter, task, seed=seed)


def test_grad_check_subsamples_large_adapters():
    task = training.make_task(32, 8, 40, 0.0, seed=15)
    adapter = adapters.build_adapter("smoa", small_cfg(K=2, r=8, seed=15), task.w0)
    adapters.randomize_factors(adapter, np.random.default_rng(16), std=0.5)
    report = training.grad_check(adapter, task)
    assert report.n_checked == 256  # 1024 trainable entries, sampled
    assert report.passed


def test_train_stays_at_optimum_for_zero_update_task():
    base = training.make_task(8, 1, 16, 0.0, seed=18)
    zero_delta = np.zeros_like(base.target_delta)
    task = dataclasses.replace(
        base, target_delta=zero_delta, targets=base.inputs @ base.w0.T
    )
    adapter = adapters.build_adapter("smoa", small_cfg(seed=18), base.w0)
    trace = training.train(adapter, task, train_cfg(50))
    assert trace[0] == 0.0
    assert np.all(trace <= trace[0] + 1e-30)


def test_train_converges_on_realizable_task():
    # rank-4 planted update, adapter capacity 8: recorded trajectory
    # reaches ~7e-6 of the initial loss by step 2000 at lr 1e-3
    task = training.make_task(64, 4, 128, 0.0, seed=7)
    adapter = adapters.build_adapter("lora", RunConfig(K=1, r=8, seed=7), task.w0)
    trace = training.train(adapter, task, train_cfg(2000))
    assert trace[-1] <= 1e-4 * trace[0]


def test_train_is_bitwise_deterministic():
    def run():
        task = training.make_task(16, 4, 32, 0.0, seed=19)
        adapter = adapters.build_adapter("smoa", small_cfg(seed=19), task.w0)
        return training.train(adapter, task, train_cfg(100))

    assert run().tobytes() == run().tobytes()


def test_train_diverged_loss_raises_with_step():
    base = training.make_task(8, 2, 10, 0.0, seed=20)
    task = dataclasses.replace(base, targets=np.full_like(base.targets, 1e200))
    adapter = adapters.build_adapter("smoa", small_cfg(seed=20), base.w0)
    before = [t.tobytes() for t in factors(adapter)]
    with pytest.raises(training.DivergenceError, match="step 0"):
        training.train(adapter, task, train_cfg(10))
    assert [t.tobytes() for t in factors(adapter)] == before


def test_train_preserves_frozen_tensors():
    task = training.make_task(16, 4, 32, 0.0, seed=21)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=21), task.w0)
    w0_before = task.w0.tobytes()
    mods_before = [blk.mask.tobytes() for blk in adapter.blocks]
    training.train(adapter, task, train_cfg(200))
    assert task.w0.tobytes() == w0_before
    assert [blk.mask.tobytes() for blk in adapter.blocks] == mods_before


def test_train_loss_drops_tenfold_on_realizable_task():
    task = training.make_task(32, 4, 64, 0.0, seed=22)
    adapter = adapters.build_adapter("lora", RunConfig(K=1, r=8, seed=22), task.w0)
    trace = training.train(adapter, task, train_cfg(2000))
    assert trace[-1] <= trace[0] / 10.0


def test_train_rejects_zero_steps():
    # train takes its step count from a TrainConfig, which checks it
    with pytest.raises(ValidationError, match="steps must be ≥ 1, got 0"):
        train_cfg(0)


def test_write_loss_trace_format(tmp_path):
    path = tmp_path / "loss.csv"
    training.write_loss_trace(np.array([1.0, 0.5]), path)
    assert path.read_text() == "step,loss\n0,1\n1,0.5\n"


def factors(adapter):
    """A_0, ..., A_{K-1}, then B_0, ..., B_{K-1}: the blocks' factor views."""
    return [blk.A for blk in adapter.blocks] + [blk.B for blk in adapter.blocks]


# Dense reference for the block-wise step: the full update matrix, the
# merged-weight forward, and the full upstream^T x gradient sliced to
# each block.

def dense_delta(adapter):
    out = np.zeros(adapter.shape)
    for blk in adapter.blocks:
        update = blk.scale * (blk.B @ blk.A)
        if blk.mask is not None:
            update = update * blk.mask
        out[blk.row0:blk.row1, blk.col0:blk.col1] += update
    return out


def dense_forward(adapter, w0, x):
    return x @ w0.T + x @ dense_delta(adapter).T


def dense_backward(adapter, x, upstream):
    g_delta = upstream.T @ x
    grads_a, grads_b = [], []
    for blk in adapter.blocks:
        gk = g_delta[blk.row0:blk.row1, blk.col0:blk.col1]
        if blk.mask is not None:
            gk = gk * blk.mask
        grads_b.append(blk.scale * (gk @ blk.A.T))
        grads_a.append(blk.scale * (blk.B.T @ gk))
    return grads_a, grads_b


def assert_matches_dense(adapter, w0, x, upstream, rtol=1e-11):
    def close(actual, expected):
        assert_allclose(actual, expected, rtol=0,
                        atol=rtol * max(1.0, np.abs(expected).max()))

    close(training.forward(adapter, w0, x), dense_forward(adapter, w0, x))
    grads = training.backward(adapter, w0, x, upstream)
    ref_a, ref_b = dense_backward(adapter, x, upstream)
    for got, ref in zip(grads.A + grads.B, ref_a + ref_b):
        close(got, ref)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(adapters.METHODS), d_out=st.integers(2, 11),
       d_in=st.integers(2, 11), k_pick=st.integers(1, 11), r_extra=st.integers(0, 4),
       n=st.integers(1, 6), seed=st.integers(0, 2**16), spiked=st.booleans())
def test_blockwise_step_matches_dense_reference(method, d_out, d_in, k_pick, r_extra, n,
                                                seed, spiked):
    # rectangular shapes, K that need not divide d_out or d_in, and (spiked)
    # one dominant singular value, which empties the leading subspaces
    K = min(k_pick, d_out, d_in)
    rng = np.random.default_rng(seed)
    w0 = (flat_weight if spiked else training.random_weight)(d_out, d_in, rng)
    if spiked:
        w0[0] *= 100.0
    cfg = RunConfig(K=K, r=K + r_extra, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        adapter = adapters.build_adapter(method, cfg, w0)
    adapters.randomize_factors(adapter, rng, std=0.5)
    assert_matches_dense(adapter, w0, rng.standard_normal((n, d_in)),
                         rng.standard_normal((n, d_out)))


@pytest.mark.parametrize("method", adapters.METHODS)
def test_blockwise_step_matches_dense_reference_with_empty_subspaces(method):
    w0 = np.diag([100.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        adapter = adapters.build_adapter(method, RunConfig(K=3, r=3, seed=0), w0)
    if method == "smoa":
        assert adapter.partition.empty_sets()
    rng = np.random.default_rng(26)
    adapters.randomize_factors(adapter, rng)
    assert_matches_dense(adapter, w0, rng.standard_normal((5, 3)),
                         rng.standard_normal((5, 3)))


def test_forward_rejects_adapter_of_another_shape():
    task = training.make_task(8, 2, 10, 0.0, seed=27)
    adapter = adapters.build_adapter("smoa", small_cfg(), training.random_weight(
        6, 6, np.random.default_rng(27)))
    with pytest.raises(ValidationError, match="adapter shape"):
        training.forward(adapter, task.w0, task.inputs)


@pytest.mark.parametrize("method", adapters.METHODS)
def test_train_trace_matches_dense_reference_loop(method):
    # 20 AdamW steps through the dense step agree with the block-wise
    # trace to rtol 1e-9 (bit-identical on OpenBLAS 0.3.31)
    task = training.make_task(16, 6, 40, 0.0, seed=28, target_blocks=2)
    cfg = small_cfg(K=2, r=4, seed=28)
    settings_ = train_cfg(20)
    adapter = adapters.build_adapter(method, cfg, task.w0)
    trace = training.train(adapter, task, settings_)

    ref = adapters.build_adapter(method, cfg, task.w0)
    m_a, v_a, m_b, v_b = per_tensor_moments(ref)
    ref_trace = []
    for step in range(1, 22):
        pred = dense_forward(ref, task.w0, task.inputs)
        ref_trace.append(training.mse(pred, task.targets))
        if step == 21:
            break
        upstream = (2.0 / pred.size) * (pred - task.targets)
        grads_a, grads_b = dense_backward(ref, task.inputs, upstream)
        for k, blk in enumerate(ref.blocks):
            adamw_update(blk.A, grads_a[k], m_a[k], v_a[k], step, settings_)
            adamw_update(blk.B, grads_b[k], m_b[k], v_b[k], step, settings_)
    assert_allclose(trace, ref_trace, rtol=1e-9)
    for got, want in zip(factors(adapter), factors(ref), strict=True):
        assert_allclose(got, want, rtol=1e-9, atol=1e-12)


# The factored step: above the one-thread size, an unmasked block trains
# through its factors when that costs fewer multiply-adds than forming
# U_k and G_k.  The dense-reference tests above run below 2**22, so these
# patch the size to 0 or run above it.

@pytest.mark.parametrize("method, d, n, K, r, factored", [
    ("lora", 512, 1024, 1, 8, True),
    ("block_lora", 512, 1024, 2, 16, True),
    ("lora", 512, 1024, 1, 600, False),  # r >= d: forming U_k costs less
    ("smoa", 512, 1024, 2, 16, False),  # masked
    ("lora", 64, 128, 1, 8, False),  # the capacity task, 2**19
    ("lora", 128, 256, 1, 8, False),  # 2**22, the largest pinned run
    ("lora", 128, 257, 1, 8, True),
])
def test_unmasked_blocks_of_large_runs_train_through_their_factors(method, d, n, K, r,
                                                                   factored):
    w0 = training.random_weight(d, d, np.random.default_rng(0))
    adapter = adapters.build_adapter(method, RunConfig(K=K, r=r, seed=0), w0)
    assert ([training._trains_factored(blk, n, adapter.shape) for blk in adapter.blocks]
            == [factored] * K)


def spy_factored(monkeypatch):
    """Record every verdict of training._trains_factored."""
    verdicts = []
    rule = training._trains_factored

    def spy(*args):
        verdicts.append(rule(*args))
        return verdicts[-1]
    monkeypatch.setattr(training, "_trains_factored", spy)
    return verdicts


def test_blockwise_step_matches_dense_reference_on_the_factored_path(monkeypatch):
    # the same property, shapes and rtol with every run above the
    # one-thread size: unmasked blocks whose factored step costs less take
    # it, and the others stay formed
    monkeypatch.setattr(training, "_ONE_THREAD_MAX_SIZE", 0)
    verdicts = spy_factored(monkeypatch)
    test_blockwise_step_matches_dense_reference()
    assert True in verdicts and False in verdicts


def dense_train(adapter, task, cfg):
    """cfg.steps AdamW updates of the adapter through the dense step, with
    one update per tensor; returns the loss trace."""
    m_a, v_a, m_b, v_b = per_tensor_moments(adapter)
    trace = []
    for step in range(1, cfg.steps + 2):
        pred = dense_forward(adapter, task.w0, task.inputs)
        trace.append(np.mean((pred - task.targets) ** 2))
        if step == cfg.steps + 1:
            return trace
        upstream = (2.0 / pred.size) * (pred - task.targets)
        grads_a, grads_b = dense_backward(adapter, task.inputs, upstream)
        for k, blk in enumerate(adapter.blocks):
            adamw_update(blk.A, grads_a[k], m_a[k], v_a[k], step, cfg)
            adamw_update(blk.B, grads_b[k], m_b[k], v_b[k], step, cfg)


@pytest.mark.parametrize("method", ["lora", "block_lora"])
def test_train_above_the_one_thread_size_matches_dense_reference_loop(method):
    task = training.make_task(64, 6, 2048, 0.0, seed=28, target_blocks=2)
    assert 2048 * 64 * 64 > training._ONE_THREAD_MAX_SIZE
    cfg, settings_ = small_cfg(K=2, r=4, seed=28), train_cfg(20)
    adapter = adapters.build_adapter(method, cfg, task.w0)
    assert all(training._trains_factored(blk, 2048, adapter.shape) for blk in adapter.blocks)
    trace = training.train(adapter, task, settings_)

    ref = adapters.build_adapter(method, cfg, task.w0)
    assert_allclose(trace, dense_train(ref, task, settings_), rtol=1e-9)
    for got, want in zip(factors(adapter), factors(ref), strict=True):
        assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("method", ["lora", "block_lora"])
def test_train_seeds_on_the_factored_path_equals_training_each_run_alone(method):
    cfg = TrainConfig(d=64, target_rank=8, n_samples=2048, seed=40, noise_std=0.1,
                      K=2, r=4, steps=10, learning_rate=1e-2, weight_decay=0.01)
    runs, traces = training.train_seeds(method, cfg, 2)
    for j, run in enumerate(runs):
        task = training.make_task(64, 8, 2048, 0.1, 40 + j)
        alone = adapters.build_adapter(method, dataclasses.replace(cfg, seed=40 + j), task.w0)
        assert all(training._trains_factored(blk, 2048, alone.shape) for blk in alone.blocks)
        assert traces[j].tobytes() == training.train(alone, task, cfg).tobytes()
        assert run.params.tobytes() == alone.params.tobytes()


_FRESH_CALLS = itertools.count()


def fresh_backward_error(method):
    """The largest difference between training.backward, called with no
    forward before it, and dense_backward on a d=12 adapter with random
    factors and n=30, relative to the largest entry of each reference
    gradient (at least 1).  NaN when backward returns a NaN.

    Each call draws inputs that no earlier call drew, so no buffer freed
    by an earlier call, and reused by this one, holds this call's
    x_k A_k^T.
    """
    rng = np.random.default_rng(41)
    w0 = training.random_weight(12, 12, rng)
    adapter = adapters.build_adapter(method, RunConfig(K=2, r=2, seed=41), w0)
    adapters.randomize_factors(adapter, rng, std=0.5)
    rng = np.random.default_rng([41, next(_FRESH_CALLS)])
    x, upstream = rng.standard_normal((30, 12)), rng.standard_normal((30, 12))
    grads = training.backward(adapter, w0, x, upstream)
    ref_a, ref_b = dense_backward(adapter, x, upstream)
    return np.max([np.abs(got - ref).max() / max(1.0, np.abs(ref).max())
                   for got, ref in zip(grads.A + grads.B, ref_a + ref_b)])


@pytest.mark.parametrize("method", ["lora", "block_lora"])
def test_backward_without_a_forward_matches_dense_reference(method, monkeypatch):
    # backward builds a fresh plan, and no forward has written its blocks' x_k A_k^T
    monkeypatch.setattr(training, "_ONE_THREAD_MAX_SIZE", 0)
    verdicts = spy_factored(monkeypatch)
    assert fresh_backward_error(method) <= 1e-11
    assert verdicts and all(verdicts)


# Compressed samples: above the one-thread size, a run whose blocks each
# have fewer columns than samples, and whose steps repay the QR, trains on
# each block's R_k and P_k (training._compress).  Against the same runs on
# the samples, at task seeds 0-4 of the d=512 benchmark configs, the loss
# traces differed by at most 3.7e-16 relative and the factors by 2.4e-11 of
# each run's largest entry.  On the cases below they differ by at most
# 1.2e-14 and 9.3e-13; the bounds leave room above both.

COMPRESSED_LOSS_RTOL = 1e-12
COMPRESSED_FACTOR_RTOL = 1e-9


def spy_compresses(monkeypatch):
    """Record every verdict of training._compresses."""
    verdicts = []
    rule = training._compresses

    def spy(*args):
        verdicts.append(rule(*args))
        return verdicts[-1]
    monkeypatch.setattr(training, "_compresses", spy)
    return verdicts


def in_one_process(monkeypatch):
    """Price a fork above any call's work, so that the calling process
    trains every group and the spies and tracemalloc, which see only that
    process, see the whole call."""
    monkeypatch.setattr(workers, "_FORK_MADDS", 2**62)


def spy_plans(monkeypatch):
    """Record the shape of every _StepPlan's out buffer; resid is shaped
    like it."""
    shapes = []

    class Plan(training._StepPlan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            shapes.append(self.out.shape)
    monkeypatch.setattr(training, "_StepPlan", Plan)
    return shapes


def compressed_differences(method, cfg, n_seeds):
    """Train method's n_seeds runs of cfg with train_seeds on compressed
    samples, then on the samples themselves; returns the largest relative
    difference of their loss traces and the largest difference of their
    factors relative to each run's largest factor entry."""
    with pytest.MonkeyPatch.context() as patch:
        verdicts = spy_compresses(patch)
        runs, traces = training.train_seeds(method, cfg, n_seeds)
        assert verdicts == [True]
        patch.setattr(training, "_compresses", lambda *args: False)
        refs, ref_traces = training.train_seeds(method, cfg, n_seeds)
    loss = np.max(np.abs(traces - ref_traces) / ref_traces)
    factor = max(np.abs(run.params - ref.params).max() / np.abs(ref.params).max()
                 for run, ref in zip(runs, refs, strict=True))
    return loss, factor


# noise puts part of each block's o_k off the span of x_k, so kappa > 0
COMPRESSED_CFG = TrainConfig(d=24, target_rank=6, n_samples=64, seed=42, noise_std=0.1,
                             target_blocks=2, K=2, r=4, steps=40, learning_rate=1e-2,
                             weight_decay=0.01)


@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("method", adapters.METHODS)
def test_compressed_samples_train_as_the_samples_do(method, S, monkeypatch):
    monkeypatch.setattr(training, "_ONE_THREAD_MAX_SIZE", 0)
    loss, factor = compressed_differences(method, COMPRESSED_CFG, S)
    assert loss <= COMPRESSED_LOSS_RTOL and factor <= COMPRESSED_FACTOR_RTOL


@pytest.mark.parametrize("method", adapters.METHODS)
def test_train_seeds_on_compressed_samples_equals_training_each_run_alone(method, monkeypatch):
    monkeypatch.setattr(training, "_ONE_THREAD_MAX_SIZE", 0)
    verdicts, cfg = spy_compresses(monkeypatch), COMPRESSED_CFG
    runs, traces = training.train_seeds(method, cfg, 3)
    for j, run in enumerate(runs):
        seed = cfg.seed + j
        task = training.make_task(cfg.d, cfg.target_rank, cfg.n_samples, cfg.noise_std, seed,
                                  target_blocks=cfg.target_blocks)
        alone = adapters.build_adapter(method, dataclasses.replace(cfg, seed=seed), task.w0)
        assert traces[j].tobytes() == training.train(alone, task, cfg).tobytes()
        assert run.params.tobytes() == alone.params.tobytes()
    assert verdicts == [True] * 4


def test_compressed_samples_train_as_the_samples_do_above_the_one_thread_size():
    cfg = TrainConfig(d=256, target_rank=192, n_samples=512, seed=43, noise_std=0.1,
                      target_blocks=2, K=2, r=16, steps=20, weight_decay=0.01)
    assert cfg.n_samples * cfg.d * cfg.d > training._ONE_THREAD_MAX_SIZE
    loss, factor = compressed_differences("smoa", cfg, 1)
    assert loss <= COMPRESSED_LOSS_RTOL and factor <= COMPRESSED_FACTOR_RTOL


@pytest.mark.parametrize("cfg", [
    dataclasses.replace(COMPRESSED_CFG, n_samples=24),  # lora's c_k = 24 is not below n
    dataclasses.replace(COMPRESSED_CFG, steps=1),  # one step does not repay the QR
], ids=["c_k-not-below-n", "one-step"])
def test_runs_that_compression_does_not_repay_train_on_the_samples(cfg, monkeypatch):
    monkeypatch.setattr(training, "_ONE_THREAD_MAX_SIZE", 0)
    in_one_process(monkeypatch)
    verdicts, shapes = spy_compresses(monkeypatch), spy_plans(monkeypatch)
    training.train_seeds("lora", cfg, 2)
    assert verdicts == [False]
    assert shapes == [(2, cfg.n_samples, cfg.d)]


def traced_peak(method, cfg, n_seeds):
    """The tracemalloc peak, in bytes, of one train_seeds call."""
    tracemalloc.start()
    try:
        training.train_seeds(method, cfg, n_seeds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", [
    "smoa", "block_lora",
    # a single block has c_k = d_in = d_out: np.linalg.qr holds its copy of
    # x_k, Q_k and R_k at once, 2 n c_k + c_k^2 entries, against the n-space
    # step's 2 n d_out, and P_k is held beside them
    *(pytest.param(method, marks=pytest.mark.xfail(
        strict=True, reason="the single block's QR holds c_k^2 + c_k m_k more than "
                            "the n-space step buffers")) for method in ("lora", "hadamard_w0")),
])
def test_compressed_samples_hold_no_step_buffer_of_the_samples(method, monkeypatch):
    cfg = TrainConfig(d=256, target_rank=192, n_samples=512, seed=44, noise_std=0.1,
                      target_blocks=2, K=2, r=16, steps=60)
    in_one_process(monkeypatch)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_compresses", lambda *args: False)
        on_the_samples = traced_peak(method, cfg, 2)
    verdicts, shapes = spy_compresses(monkeypatch), spy_plans(monkeypatch)
    compressed = traced_peak(method, cfg, 2)
    assert verdicts == [True]
    assert len(shapes) == 1 and cfg.n_samples not in shapes[0]
    assert compressed <= on_the_samples


# Per-tensor reference for the flat-buffer optimizer: the step as it was
# before the factors and moments lived in one buffer each, built from
# forward, backward and one AdamW update per tensor with its own moment
# arrays.  AdamW is elementwise, so train must match it bit for bit.

def adamw_update(param, grad, m, v, t, cfg):
    """training._adamw_update of one tensor, with its own temporaries."""
    training._adamw_update(param, grad, m, v, t, cfg, (np.empty_like(param),
                                                       np.empty_like(param)))


def per_tensor_moments(adapter):
    """Zeroed moments, one array per tensor: m_A, v_A, m_B, v_B."""
    return [[np.zeros_like(getattr(blk, role)) for blk in adapter.blocks]
            for role in ("A", "A", "B", "B")]


def per_tensor_train(adapter, task, cfg):
    m_a, v_a, m_b, v_b = per_tensor_moments(adapter)
    trace = []
    for i in range(cfg.steps + 1):
        resid = training.forward(adapter, task.w0, task.inputs) - task.targets
        trace.append(float(np.mean(resid ** 2)))
        if i == cfg.steps or not np.isfinite(trace[-1]):
            break
        grads = training.backward(adapter, task.w0, task.inputs, resid * (2.0 / resid.size))
        for k, blk in enumerate(adapter.blocks):
            adamw_update(blk.A, grads.A[k], m_a[k], v_a[k], i + 1, cfg)
            adamw_update(blk.B, grads.B[k], m_b[k], v_b[k], i + 1, cfg)
    return np.array(trace)


@pytest.mark.parametrize("method, weight_decay, d, n, K, r, steps", [
    # K=3 at d=16 gives blocks of 6, 5 and 5 rows and columns
    *(pytest.param(m, 0.0, 16, 40, 3, 6, 40, id=f"{m}-0.0") for m in adapters.METHODS),
    pytest.param("smoa", 0.05, 16, 40, 3, 6, 40, id="smoa-0.05"),
    # the capacity task's shapes, where OpenBLAS runs its small-matrix kernels
    pytest.param("smoa", 0.0, 64, 128, 2, 16, 20, id="smoa-capacity"),
    pytest.param("lora", 0.0, 64, 128, 1, 8, 20, id="lora-capacity"),
])
def test_train_equals_per_tensor_step_bit_for_bit(method, weight_decay, d, n, K, r, steps):
    task = training.make_task(d, 6, n, 0.01, seed=29, target_blocks=K)
    cfg = small_cfg(K=K, r=r, seed=29)
    settings_ = train_cfg(steps, learning_rate=1e-2, weight_decay=weight_decay)
    adapter = adapters.build_adapter(method, cfg, task.w0)
    objects = [adapter.blocks, *factors(adapter), adapter.params]
    trace = training.train(adapter, task, settings_)
    # train updates the adapter's own buffer, through the views it hands out
    assert all(a is b for a, b in zip([adapter.blocks, *factors(adapter), adapter.params],
                                      objects, strict=True))

    ref = adapters.build_adapter(method, cfg, task.w0)
    ref_trace = per_tensor_train(ref, task, settings_)
    assert np.array_equal(trace, ref_trace)
    assert adapter.params.tobytes() == ref.params.tobytes()


# Decoupled weight decay against AdamW as its paper writes it, not against
# the program's own update, which the reference loops above call.

def decoupled_adamw(param, grad, m, v, t, cfg):
    """AdamW step t from Loshchilov and Hutter (arXiv 1711.05101,
    Algorithm 2, with schedule multiplier 1): the decay lr * wd * param is
    taken beside the Adam step, not added to the gradient.  Returns the new
    param, m and v."""
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad ** 2
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    step = m_hat / (np.sqrt(v_hat) + cfg.epsilon) + cfg.weight_decay * param
    return param - cfg.learning_rate * step, m, v


@pytest.mark.parametrize("weight_decay", [0.0, 0.05, 0.5])
def test_adamw_update_equals_decoupled_adamw(weight_decay):
    rng = np.random.default_rng(31)
    cfg = train_cfg(1, learning_rate=1e-2, weight_decay=weight_decay)
    param, grad, m = rng.standard_normal((3, 50))
    v = rng.random(50)
    want = decoupled_adamw(param, grad, m, v, 3, cfg)
    got = param.copy(), m.copy(), v.copy()
    adamw_update(got[0], grad, got[1], got[2], 3, cfg)
    for name, a, b in zip(("param", "m", "v"), got, want):
        assert_allclose(a, b, rtol=1e-13, atol=0, err_msg=name)


@pytest.mark.parametrize("method", ["smoa", "lora"])
def test_train_with_weight_decay_follows_decoupled_adamw(method):
    task = training.make_task(16, 6, 40, 0.0, seed=32, target_blocks=2)
    cfg = small_cfg(K=2, r=4, seed=32)
    settings_ = train_cfg(10, learning_rate=1e-2, weight_decay=0.1)
    adapter = adapters.build_adapter(method, cfg, task.w0)
    trace = training.train(adapter, task, settings_)

    ref = adapters.build_adapter(method, cfg, task.w0)
    m_a, v_a, m_b, v_b = per_tensor_moments(ref)
    ref_trace = []
    for step in range(settings_.steps + 1):
        resid = training.forward(ref, task.w0, task.inputs) - task.targets
        ref_trace.append(np.mean(resid ** 2))
        if step == settings_.steps:
            break
        grads = training.backward(ref, task.w0, task.inputs, resid * (2.0 / resid.size))
        for k, blk in enumerate(ref.blocks):
            blk.A[...], m_a[k], v_a[k] = decoupled_adamw(blk.A, grads.A[k], m_a[k], v_a[k],
                                                         step + 1, settings_)
            blk.B[...], m_b[k], v_b[k] = decoupled_adamw(blk.B, grads.B[k], m_b[k], v_b[k],
                                                         step + 1, settings_)
    assert_allclose(trace, ref_trace, rtol=1e-9)
    assert_allclose(adapter.params, ref.params, rtol=1e-9, atol=1e-12)


def test_train_makes_one_adamw_update_per_step(monkeypatch):
    calls = []
    update = training._adamw_update
    monkeypatch.setattr(training, "_adamw_update",
                        lambda *args: calls.append(args[4]) or update(*args))
    task = training.make_task(16, 4, 32, 0.0, seed=30)
    adapter = adapters.build_adapter("smoa", small_cfg(K=4, r=8, seed=30), task.w0)
    training.train(adapter, task, train_cfg(5))
    assert calls == [1, 2, 3, 4, 5]


def test_train_divergence_writes_back_the_updates_made():
    task = training.make_task(8, 2, 10, 0.0, seed=20)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=20), task.w0)
    before = adapter.params.tobytes()
    settings_ = train_cfg(10, learning_rate=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(training.DivergenceError, match="step 1"):
            training.train(adapter, task, settings_)
        ref = adapters.build_adapter("smoa", small_cfg(seed=20), task.w0)
        ref_trace = per_tensor_train(ref, task, settings_)
    # the one update made before the loss left the finite range
    assert len(ref_trace) == 2 and not np.isfinite(ref_trace[1])
    assert adapter.params.tobytes() != before
    assert adapter.params.tobytes() == ref.params.tobytes()


@pytest.mark.parametrize("run", [
    lambda adapter, task: training.train(adapter, task, train_cfg(3)),
    lambda adapter, task: training.grad_check(adapter, task),
], ids=["train", "grad_check"])
def test_targets_of_the_wrong_shape_raise_validation_error(run):
    task = training.make_task(8, 2, 10, 0.0, seed=35)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=35), task.w0)
    before = adapter.params.tobytes()
    with pytest.raises(ValidationError, match=r"targets must have shape \(10, 8\)"):
        run(adapter, dataclasses.replace(task, targets=task.targets[:, :5]))
    assert adapter.params.tobytes() == before


# train_seeds: the seeds of one config in one stacked step.  Each run must
# equal building it with make_task and build_adapter and training it
# alone with train, bit for bit.

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(adapters.METHODS), K=st.integers(2, 4), q=st.integers(1, 3),
       rem=st.integers(0, 8), r_extra=st.integers(0, 3), n=st.integers(1, 9),
       S=st.integers(1, 3), noise_std=st.sampled_from([0.01, 0.1]),
       weight_decay=st.sampled_from([0.0, 0.01]), blocked=st.booleans(),
       seed=st.integers(0, 2**16))
def test_train_seeds_run_equals_building_and_training_it_alone(method, K, q, rem, r_extra, n,
                                                               S, noise_std, weight_decay,
                                                               blocked, seed):
    # K does not divide d: d = K q + a remainder in [1, K - 1]
    d = K * q + 1 + rem % (K - 1)
    cfg = TrainConfig(d=d, target_rank=max(1, d // 2), n_samples=n, seed=seed,
                      noise_std=noise_std, target_blocks=2 if blocked else 1, r=K + r_extra,
                      K=K, steps=12, learning_rate=1e-2, weight_decay=weight_decay)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        runs, traces = training.train_seeds(method, cfg, S)
    assert traces.shape == (S, 13)
    assert len(runs) == S
    for j, run in enumerate(runs):
        task = training.make_task(d, cfg.target_rank, n, noise_std, seed + j,
                                  target_blocks=cfg.target_blocks)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySubspaceWarning)
            alone = adapters.build_adapter(
                method, dataclasses.replace(cfg, seed=seed + j), task.w0)
        assert traces[j].tobytes() == training.train(alone, task, cfg).tobytes()
        assert run.params.tobytes() == alone.params.tobytes()
        assert ([None if blk.mask is None else blk.mask.tobytes() for blk in run.blocks]
                == [None if blk.mask is None else blk.mask.tobytes() for blk in alone.blocks])
        # the masks are frozen: no returned view of the stacked masks takes a write
        assert not any(blk.mask.flags.writeable for blk in run.blocks if blk.mask is not None)


def test_train_seeds_names_the_step_and_the_diverging_run(monkeypatch):
    make_task = training.make_task

    def make_task_diverging_at_seed_12(d, target_rank, n_samples, noise_std, seed, **kwargs):
        task = make_task(d, target_rank, n_samples, noise_std, seed, **kwargs)
        if seed == 12:
            task = dataclasses.replace(task, targets=np.full_like(task.targets, 1e200))
        return task

    monkeypatch.setattr(training, "make_task", make_task_diverging_at_seed_12)
    cfg = TrainConfig(d=8, target_rank=2, n_samples=10, seed=10, K=2, r=4, steps=10)
    with pytest.raises(training.DivergenceError, match="non-finite loss at step 0 in run 2$"):
        training.train_seeds("smoa", cfg, 3)
    with pytest.raises(training.DivergenceError, match="non-finite loss at step 0$"):
        training.train_seeds("smoa", dataclasses.replace(cfg, seed=12), 1)


def test_train_seeds_rejects_no_seeds():
    cfg = TrainConfig(d=8, target_rank=2, n_samples=10, seed=0)
    with pytest.raises(ValidationError, match="n_seeds must be ≥ 1, got 0"):
        training.train_seeds("smoa", cfg, 0)
    for n_seeds in (2.0, True, "2"):
        with pytest.raises(ValidationError, match="n_seeds must be of type int"):
            training.train_seeds("smoa", cfg, n_seeds)


# backward, grad_check and training share one gradient layout: that of
# adapter.params.

def rectangular_task(d_out, d_in, n, seed):
    """A hand-built planted task on a d_out x d_in weight."""
    rng = np.random.default_rng(seed)
    w0 = training.random_weight(d_out, d_in, rng)
    target = 0.1 * rng.standard_normal((d_out, d_in))
    x = rng.standard_normal((n, d_in))
    return training.LinearTask(w0=w0, target_delta=target, inputs=x,
                               targets=x @ (w0 + target).T)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(adapters.METHODS), K=st.integers(2, 4), q_out=st.integers(1, 3),
       q_in=st.integers(1, 3), rem=st.integers(0, 8), n=st.integers(1, 6),
       seed=st.integers(0, 2**16))
def test_gradients_use_the_params_layout(method, K, q_out, q_in, rem, n, seed):
    # K divides neither side: d = K q + a remainder in [1, K - 1]
    d_out, d_in = K * q_out + 1 + rem % (K - 1), K * q_in + 1 + (rem // 3) % (K - 1)
    task = rectangular_task(d_out, d_in, n, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        adapter = adapters.build_adapter(
            method, RunConfig(K=K, r=K + 1, seed=seed), task.w0)
    adapters.randomize_factors(adapter, np.random.default_rng([seed, 0]), std=0.3)
    factors = adapter.params.copy()

    # the entry the report names for flat index e is params[e]
    adapter.params[...] = np.arange(adapter.params.size)
    for e in range(adapter.params.size):
        role, k, i, j = training._factor_entry(adapter, e)
        assert getattr(adapter.blocks[k], role)[i, j] == e
    adapter.params[...] = factors

    # backward returns views of one buffer laid out like params
    rng = np.random.default_rng(seed)
    x, upstream = rng.standard_normal((n, d_in)), rng.standard_normal((n, d_out))
    grads = training.backward(adapter, task.w0, x, upstream)
    flat = grads.A[0].base
    assert flat.shape == adapter.params.shape
    assert all(g.base is flat for g in grads.A + grads.B)
    assert_array_equal(np.concatenate([g.ravel() for pair in zip(grads.A, grads.B)
                                       for g in pair]), flat)
    assert_matches_dense(adapter, task.w0, x, upstream)

    # a corrupted check names the flipped entry and reports its flipped value
    resid = training.forward(adapter, task.w0, task.inputs) - task.targets
    grads = training.backward(adapter, task.w0, task.inputs, (2.0 / resid.size) * resid)
    flat = grads.A[0].base
    with pytest.MonkeyPatch.context() as patch:
        flip_largest_gradient(patch)
        report = training.grad_check(adapter, task)
    flipped = int(np.argmax(np.abs(flat)))
    assert report.worst == training._factor_entry(adapter, flipped)
    assert report.worst_analytic == -flat[flipped]
    assert not report.passed
    assert adapter.params.tobytes() == factors.tobytes()


def _threads_in(monkeypatch, *targets):
    """Record the BLAS thread count at every call of each (module, name)
    in targets, under that name."""
    seen = {}
    for module, name in targets:
        seen[name] = calls = []

        def spy(*args, f=getattr(module, name), calls=calls, **kwargs):
            calls.append(blas._get_threads())
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return seen


@requires_pin
@pytest.mark.parametrize("method, r, K", [("smoa", 16, 2), ("lora", 8, 1)])
def test_capacity_steps_run_at_one_thread_with_the_bytes_of_the_caller_count(
        monkeypatch, method, r, K):
    # the tasks, the adapters' decompositions and the steps run pinned
    cfg = TrainConfig(d=64, target_rank=48, n_samples=128, seed=0, target_blocks=2,
                      r=r, K=K, steps=100)
    assert cfg.n_samples * cfg.d * cfg.d <= training._ONE_THREAD_MAX_SIZE
    seen = _threads_in(monkeypatch, (training, "make_task"), (adapters, "decompose"),
                       (training, "_factor_grads"))
    with blas_threads(2):
        pinned_runs, pinned = training.train_seeds(method, cfg, 2)
        pinned_seen = {name: set(calls) for name, calls in seen.items()}
        for calls in seen.values():
            calls.clear()
        monkeypatch.setattr(blas, "_set_threads", None)
        unpinned_runs, unpinned = training.train_seeds(method, cfg, 2)

    def expected(threads):  # lora builds no masks, so it decomposes nothing
        return {"make_task": {threads}, "decompose": {threads} if method == "smoa" else set(),
                "_factor_grads": {threads}}
    assert pinned_seen == expected(1)
    assert {name: set(calls) for name, calls in seen.items()} == expected(2)
    assert pinned.tobytes() == unpinned.tobytes()
    for a, b in zip(pinned_runs, unpinned_runs):
        assert a.params.tobytes() == b.params.tobytes()


@requires_pin
def test_larger_steps_run_at_one_thread_too(monkeypatch):
    cfg = TrainConfig(d=256, target_rank=8, n_samples=512, seed=0, r=8, K=2, steps=1)
    assert cfg.n_samples * cfg.d * cfg.d > training._ONE_THREAD_MAX_SIZE
    seen = _threads_in(monkeypatch, (training, "make_task"), (training, "_factor_grads"))
    with blas_threads(2):
        training.train_seeds("smoa", cfg, 1)
    # the calling process trains the first group of blocks, a worker the other
    assert seen == {"make_task": [1], "_factor_grads": [1]}


# A small train_seeds call at several BLAS threads splits its runs into
# contiguous groups where its steps cost more than a fork (workers'
# _FORK_MADDS, which tests patch to 1 to split any call): the calling
# process trains the first, forked workers the others, in place in shared
# params and traces.

CAPACITY_TASK = dict(d=64, target_rank=48, n_samples=128, target_blocks=2)
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _spy_forks(monkeypatch, fails=False):
    """The pids of the processes that called os.fork, which raises OSError
    when fails."""
    forks, fork = [], os.fork

    def spy():
        forks.append(os.getpid())
        if fails:
            raise OSError("no process to be had")
        return fork()
    monkeypatch.setattr(os, "fork", spy)
    return forks


@requires_pin
@pytest.mark.parametrize("S", [2, 3, 5])
@pytest.mark.parametrize("method, r, K", [("smoa", 16, 2), ("lora", 8, 1)])
def test_train_seeds_writes_the_same_bytes_split_over_processes(monkeypatch, method, r, K, S):
    cfg = TrainConfig(**CAPACITY_TASK, seed=S, r=r, K=K, steps=30)
    with blas_threads(1):
        one_runs, one = training.train_seeds(method, cfg, S)
    # 30 steps of 2 runs pay for a fork: the split follows the grant and the runs
    two_runs = cfg.steps * 2 * training._step_madds(one_runs[0], cfg.n_samples)
    assert two_runs >= 2 * workers._FORK_MADDS
    forks = _spy_forks(monkeypatch)
    with blas_threads(2):
        split_runs, split = training.train_seeds(method, cfg, S)
    assert forks == [os.getpid()] * (min(S, 2, CPUS) - 1)
    _spy_forks(monkeypatch, fails=True)
    with blas_threads(2):
        unforked_runs, unforked = training.train_seeds(method, cfg, S)
    assert split.tobytes() == one.tobytes() == unforked.tobytes()
    for runs in (split_runs, unforked_runs):
        assert [run.params.tobytes() for run in runs] == [run.params.tobytes() for run in one_runs]


@requires_pin
def test_train_seeds_forks_only_for_several_runs_or_blocks_at_several_threads(monkeypatch):
    small = TrainConfig(**CAPACITY_TASK, seed=0, steps=2)
    large = TrainConfig(d=256, target_rank=8, n_samples=512, seed=0, r=8, K=2, steps=1)
    assert large.n_samples * large.d * large.d > training._ONE_THREAD_MAX_SIZE
    forks = _spy_forks(monkeypatch)
    with blas_threads(1):
        training.train_seeds("smoa", small, 3)
    with blas_threads(2):
        training.train_seeds("smoa", small, 1)
        # three runs of two steps cost less than a fork
        runs, _ = training.train_seeds("smoa", small, 3)
        three_runs = small.steps * 3 * training._step_madds(runs[0], small.n_samples)
        assert three_runs < workers._FORK_MADDS
        training.train_seeds("smoa", large, 2)
        # another interpreter thread could hold a lock the child needs
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(workers, "_FORK_MADDS", 1)  # work enough for any split
                training.train_seeds("smoa", small, 3)
        finally:
            release.set()
            waiter.join(timeout=10)
    assert not waiter.is_alive()
    # the large call's two blocks alone split, over two processes
    assert forks == [os.getpid()] * (min(2, CPUS) - 1)


@requires_pin
@pytest.mark.skipif(CPUS < 2, reason="one CPU: train_seeds forks no worker")
def test_train_seeds_silences_the_fork_warning_of_python_3_12(monkeypatch):
    # Python 3.12 and later warn in the parent after every fork in a process
    # with another OS thread, such as an idle OpenBLAS worker
    fork, forks = os.fork, []

    def fork_that_warns():
        pid = fork()
        if pid:
            forks.append(pid)
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          f"may lead to deadlocks in the child.", DeprecationWarning)
        return pid
    monkeypatch.setattr(os, "fork", fork_that_warns)
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)  # two runs of two steps split too
    with blas_threads(2), warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        training.train_seeds("lora", TrainConfig(**CAPACITY_TASK, seed=0, steps=2), 2)
    assert len(forks) == 1
    assert [str(w.message) for w in shown] == []


def _poison_runs(monkeypatch, cfg, n_seeds, steps):
    """Make run j of train_seeds(cfg, n_seeds) diverge at step steps[j]: its
    params turn NaN at update steps[j], in whichever process trains it."""
    inputs = [training.make_task(cfg.d, cfg.target_rank, cfg.n_samples, cfg.noise_std,
                                 cfg.seed + j, target_blocks=cfg.target_blocks).inputs.tobytes()
              for j in range(n_seeds)]
    train_runs, update, poisoned = training._train_runs, training._adamw_update, {}

    def train_group(adapter, x, *args):
        runs = [inputs.index(xj.tobytes()) for xj in x]  # the group's runs, by their inputs
        poisoned.clear()
        poisoned.update({row: steps[j] for row, j in enumerate(runs) if j in steps})
        train_runs(adapter, x, *args)

    def poisoning_update(param, grad, m, v, t, cfg, tmp):
        update(param, grad, m, v, t, cfg, tmp)
        for row, step in poisoned.items():
            if t == step:
                param[row] = np.nan
    monkeypatch.setattr(training, "_train_runs", train_group)
    monkeypatch.setattr(training, "_adamw_update", poisoning_update)


@requires_pin
@pytest.mark.parametrize("steps, named", [
    ({1: 5, 3: 2}, "step 2 in run 3"),  # the calling process's group diverges later
    ({1: 4, 2: 4}, "step 4 in run 1"),  # both groups at one step: the lowest run
    ({3: 4, 2: 6}, "step 4 in run 3"),  # a later run of one group diverges first
], ids=["earlier-worker", "same-step", "within-group"])
def test_train_seeds_names_the_earliest_step_and_its_lowest_run_over_all_groups(
        monkeypatch, steps, named):
    cfg = TrainConfig(d=8, target_rank=2, n_samples=10, seed=10, K=2, r=4, steps=10)
    _poison_runs(monkeypatch, cfg, 4, steps)
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)  # four d=8 runs split too
    forks = _spy_forks(monkeypatch)
    with blas_threads(2):  # runs 0-1 in the calling process, 2-3 in a worker
        with pytest.raises(training.DivergenceError, match=f"non-finite loss at {named}$"):
            training.train_seeds("smoa", cfg, 4)
    assert len(forks) == min(2, CPUS) - 1


@requires_pin
@pytest.mark.skipif(CPUS < 2, reason="one CPU: train_seeds forks no worker")
def test_train_seeds_names_the_runs_of_a_worker_that_died(monkeypatch):
    cfg = TrainConfig(**CAPACITY_TASK, seed=0, steps=2)
    train_runs, caller = training._train_runs, os.getpid()

    def killed_in_a_worker(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        train_runs(*args)
    monkeypatch.setattr(training, "_train_runs", killed_in_a_worker)
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)  # four runs of two steps split too
    with blas_threads(2):
        with pytest.raises(NumericalError, match="^the worker training runs 2 to 3 was killed "
                                                 "by signal 9 before it finished$"):
            training.train_seeds("lora", cfg, 4)


@requires_pin
@pytest.mark.skipif(CPUS < 2, reason="one CPU: train_seeds forks no worker")
def test_train_seeds_kills_its_workers_when_the_calling_process_raises(monkeypatch):
    class Interrupted(Exception):
        pass

    caller = os.getpid()

    def raise_in_the_caller(*args):
        if os.getpid() == caller:
            raise Interrupted
        time.sleep(60)  # the worker is still training when the caller raises
    monkeypatch.setattr(training, "_train_runs", raise_in_the_caller)
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)  # two runs of two steps split too
    start = time.monotonic()
    with blas_threads(2):
        with pytest.raises(Interrupted):
            training.train_seeds("lora", TrainConfig(**CAPACITY_TASK, seed=0, steps=2), 2)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):  # the worker is reaped
        os.waitpid(-1, os.WNOHANG)


# A call of large runs with several blocks splits the blocks into groups
# (training._splits_blocks): each group trains its blocks' span of the
# params, in a forked worker for all groups but the first, and sums each
# block's loss apart, so a trace is its blocks' sums added in block order
# at any split.  grad_check splits its entries likewise.

SPLITS = ("one group", "two groups", "fork fails")


def split_outcomes(call):
    """call() at one BLAS thread, so that run_groups grants one process,
    and at two, so that a call runs two groups where two CPUs are granted,
    whatever its work: with a forked worker, and with an os.fork that
    raises OSError, so that the calling process runs both groups.  Returns
    call's result, or the message of the DivergenceError it raised, under
    each split, and how many forks each split tried."""
    outcomes, forks = {}, {}
    for how in SPLITS:
        with pytest.MonkeyPatch.context() as patch, blas_threads(1 if how == "one group" else 2):
            patch.setattr(workers, "_FORK_MADDS", 1)
            tried = _spy_forks(patch, fails=how == "fork fails")
            try:
                outcomes[how] = call()
            except training.DivergenceError as exc:
                outcomes[how] = str(exc)
        forks[how] = len(tried)
    return outcomes, forks


def train_seeds_outcome(method, cfg, n_seeds):
    """The bytes of train_seeds's traces and of each run's params."""
    runs, traces = training.train_seeds(method, cfg, n_seeds)
    return traces.tobytes(), tuple(run.params.tobytes() for run in runs)


SPLIT_FORKS = {"one group": 0, "two groups": min(2, CPUS) - 1, "fork fails": min(2, CPUS) - 1}


@requires_pin
@pytest.mark.parametrize("compressed", [True, False], ids=["compressed", "on-the-samples"])
@pytest.mark.parametrize("S", [1, 2])
@pytest.mark.parametrize("method", ["smoa", "block_lora"])
def test_block_groups_write_the_bytes_of_one_group(method, S, compressed, monkeypatch):
    monkeypatch.setattr(training, "_ONE_THREAD_MAX_SIZE", 0)
    if not compressed:
        monkeypatch.setattr(training, "_compresses", lambda *args: False)
    verdicts = spy_compresses(monkeypatch)
    outcomes, forks = split_outcomes(lambda: train_seeds_outcome(method, COMPRESSED_CFG, S))
    assert set(verdicts) == {compressed}
    assert forks == SPLIT_FORKS
    assert outcomes["two groups"] == outcomes["one group"] == outcomes["fork fails"]


@requires_pin
@pytest.mark.parametrize("method", ["smoa", "block_lora"])
def test_block_groups_above_the_one_thread_size_write_the_bytes_of_one_group(method):
    cfg = TrainConfig(d=256, target_rank=16, n_samples=128, seed=45, noise_std=0.1,
                      target_blocks=2, K=2, r=16, steps=5, learning_rate=1e-2)
    assert cfg.n_samples * cfg.d * cfg.d > training._ONE_THREAD_MAX_SIZE
    outcomes, forks = split_outcomes(lambda: train_seeds_outcome(method, cfg, 1))
    assert forks == SPLIT_FORKS
    assert outcomes["two groups"] == outcomes["one group"] == outcomes["fork fails"]


@requires_pin
@pytest.mark.parametrize("method", ["smoa", "block_lora"])
def test_train_equals_train_seeds_at_every_split(method, monkeypatch):
    monkeypatch.setattr(training, "_ONE_THREAD_MAX_SIZE", 0)
    cfg = COMPRESSED_CFG

    def both():
        runs, traces = training.train_seeds(method, cfg, 2)
        for j, run in enumerate(runs):
            task = training.make_task(cfg.d, cfg.target_rank, cfg.n_samples, cfg.noise_std,
                                      cfg.seed + j, target_blocks=cfg.target_blocks)
            alone = adapters.build_adapter(method, dataclasses.replace(cfg, seed=cfg.seed + j),
                                           task.w0)
            assert traces[j].tobytes() == training.train(alone, task, cfg).tobytes()
            assert run.params.tobytes() == alone.params.tobytes()
        return traces.tobytes()
    outcomes, forks = split_outcomes(both)
    assert forks == {how: 3 * n for how, n in SPLIT_FORKS.items()}
    assert outcomes["two groups"] == outcomes["one group"] == outcomes["fork fails"]


def _targets_of_block_1_of_seed_43_huge(monkeypatch):
    """make_task at seed 43 puts 1e200 in the targets of block 1's rows, so
    that block 1 of that run diverges at step 0 while block 0 trains on."""
    make_task = training.make_task

    def faulty(d, target_rank, n_samples, noise_std, seed, **kwargs):
        task = make_task(d, target_rank, n_samples, noise_std, seed, **kwargs)
        if seed == 43:
            targets = task.targets.copy()
            targets[:, d // 2:] = 1e200
            task = dataclasses.replace(task, targets=targets)
        return task
    monkeypatch.setattr(training, "make_task", faulty)


@requires_pin
@pytest.mark.parametrize("compressed", [True, False], ids=["compressed", "on-the-samples"])
@pytest.mark.parametrize("learning_rate, huge_targets, named", [
    (1e200, False, "step 1 in run 0"),
    (1e-2, True, "step 0 in run 1"),  # block 1 of run 1 alone
], ids=["learning-rate", "one-block"])
@pytest.mark.parametrize("method", ["smoa", "block_lora"])
def test_a_divergence_names_the_same_step_and_run_at_every_split(
        method, learning_rate, huge_targets, named, compressed, monkeypatch):
    monkeypatch.setattr(training, "_ONE_THREAD_MAX_SIZE", 0)
    if not compressed:
        monkeypatch.setattr(training, "_compresses", lambda *args: False)
    if huge_targets:
        _targets_of_block_1_of_seed_43_huge(monkeypatch)
    cfg = dataclasses.replace(COMPRESSED_CFG, learning_rate=learning_rate)
    outcomes, forks = split_outcomes(lambda: train_seeds_outcome(method, cfg, 2))
    assert forks == SPLIT_FORKS
    assert set(outcomes.values()) == {f"training diverged: non-finite loss at {named}"}


@requires_pin
@pytest.mark.parametrize("compressed", [True, False], ids=["compressed", "on-the-samples"])
@pytest.mark.parametrize("method", ["smoa", "block_lora"])
def test_a_split_train_that_diverges_keeps_the_updates_of_every_group(
        method, compressed, monkeypatch):
    # every block makes one update, then the loss leaves the finite range at
    # step 1; a forked group's update comes back as its run_groups result,
    # and must reach adapter.params before the divergence is raised
    monkeypatch.setattr(training, "_ONE_THREAD_MAX_SIZE", 0)
    if not compressed:
        monkeypatch.setattr(training, "_compresses", lambda *args: False)
    verdicts = spy_compresses(monkeypatch)
    cfg = dataclasses.replace(COMPRESSED_CFG, learning_rate=1e200)
    task = training.make_task(cfg.d, cfg.target_rank, cfg.n_samples, cfg.noise_std, cfg.seed,
                              target_blocks=cfg.target_blocks)
    built = adapters.build_adapter(method, cfg, task.w0)
    block_1 = training._param_span(built, range(1, 2))

    def diverging():
        adapter = adapters.build_adapter(method, cfg, task.w0)
        with pytest.raises(training.DivergenceError,
                           match="^training diverged: non-finite loss at step 1$"):
            training.train(adapter, task, cfg)
        return adapter.params.copy()
    outcomes, forks = split_outcomes(diverging)
    assert set(verdicts) == {compressed}
    assert forks == SPLIT_FORKS
    assert not np.array_equal(outcomes["one group"][block_1], built.params[block_1])
    assert (outcomes["two groups"].tobytes() == outcomes["one group"].tobytes()
            == outcomes["fork fails"].tobytes())


def grad_check_outcome(method):
    """grad_check's report, as a tuple, on the d=16 task and adapter that
    smoa gradcheck --d 16 --k 2 --r 4 builds."""
    task = training.make_task(16, 8, 32, 0.0, 46)
    adapter = adapters.build_adapter(method, RunConfig(K=2, r=4, seed=46), task.w0)
    adapters.randomize_factors(adapter, np.random.default_rng([46, 1]), std=0.5)
    return dataclasses.astuple(training.grad_check(adapter, task, seed=46))


@requires_pin
@pytest.mark.parametrize("flipped", [False, True], ids=["exact", "flipped"])
@pytest.mark.parametrize("method", adapters.METHODS)
def test_grad_check_reports_the_same_at_every_split(method, flipped, monkeypatch):
    if flipped:
        flip_largest_gradient(monkeypatch)
    outcomes, forks = split_outcomes(lambda: grad_check_outcome(method))
    assert forks == SPLIT_FORKS
    assert outcomes["two groups"] == outcomes["one group"] == outcomes["fork fails"]
    assert (outcomes["one group"][0] <= 1e-6) == (not flipped)
