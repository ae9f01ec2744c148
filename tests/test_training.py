import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from smoa import adapters, training
from smoa.errors import ValidationError
from smoa.matrix_io import RunConfig
from smoa.rank_analysis import numerical_rank
from smoa.spectral import EmptySubspaceWarning


def small_cfg(d=8, K=2, r=4, seed=0, **kwargs):
    return RunConfig(d_out=d, d_in=d, K=K, r=r, seed=seed, **kwargs)


def test_random_weight_norm_and_spectrum():
    w = training.random_weight(64, 64, np.random.default_rng(0))
    assert_allclose(np.linalg.norm(w), 64.0, rtol=1e-12)
    sigma = np.linalg.svd(w, compute_uv=False)
    expected = np.arange(1, 65, dtype=float) ** -0.5
    assert_allclose(sigma / sigma[0], expected, rtol=1e-10)


def test_random_weight_equal_spectrum():
    w = training.random_weight(16, 16, np.random.default_rng(1), spectrum="equal")
    sigma = np.linalg.svd(w, compute_uv=False)
    assert_allclose(sigma, sigma[0], rtol=1e-12)
    with pytest.raises(ValidationError, match="spectrum"):
        training.random_weight(4, 4, np.random.default_rng(0), spectrum="spiky")


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


def test_make_task_noise_changes_targets():
    clean = training.make_task(16, 4, 30, 0.0, seed=6)
    noisy = training.make_task(16, 4, 30, 0.5, seed=6)
    assert not np.array_equal(clean.targets, noisy.targets)


def test_make_task_deterministic():
    first = training.make_task(16, 4, 30, 0.1, seed=9)
    second = training.make_task(16, 4, 30, 0.1, seed=9)
    for name in ("w0", "target_delta", "inputs", "targets"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes()


def test_make_task_validation():
    with pytest.raises(ValidationError, match="target_rank"):
        training.make_task(8, 9, 10, 0.0, 0)
    with pytest.raises(ValidationError, match="noise_std"):
        training.make_task(8, 2, 10, -0.1, 0)
    with pytest.raises(ValidationError, match="n_samples"):
        training.make_task(8, 2, 0, 0.0, 0)


def test_forward_zero_init_is_host_output():
    task = training.make_task(16, 4, 20, 0.0, seed=1)
    adapter = adapters.build_adapter("smoa", small_cfg(d=16), task.w0)
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
    adapter = adapters.build_adapter(method, small_cfg(d=16), task.w0)
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
        adapter = adapters.build_adapter("smoa", RunConfig(d_out=3, d_in=3, K=3, r=3, seed=0), w0)
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
    adapter = adapters.build_adapter(method, small_cfg(d=16, K=2, r=4, seed=10), task.w0)
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


def test_grad_check_flags_corruption():
    task = training.make_task(8, 4, 16, 0.0, seed=13)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=13), task.w0)
    adapters.randomize_factors(adapter, np.random.default_rng(14), std=0.5)
    report = training.grad_check(adapter, task, corrupt_for_testing=True)
    assert not report.passed
    assert report.max_rel_error == pytest.approx(2.0, rel=1e-3)


def test_grad_check_subsamples_large_adapters():
    task = training.make_task(32, 8, 40, 0.0, seed=15)
    adapter = adapters.build_adapter("smoa", small_cfg(d=32, K=2, r=8, seed=15), task.w0)
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
    trace = training.train(adapter, task, 50)
    assert trace[0] == 0.0
    assert np.all(trace <= trace[0] + 1e-30)


def test_train_converges_on_realizable_task():
    # rank-4 planted update, adapter capacity 8: recorded trajectory
    # reaches ~7e-6 of the initial loss by step 2000 at lr 1e-3
    task = training.make_task(64, 4, 128, 0.0, seed=7)
    adapter = adapters.build_adapter("lora", RunConfig(d_out=64, d_in=64, K=1, r=8, seed=7),
                                     task.w0)
    trace = training.train(adapter, task, 2000)
    assert trace[-1] <= 1e-4 * trace[0]


def test_train_is_bitwise_deterministic():
    def run():
        task = training.make_task(16, 4, 32, 0.0, seed=19)
        adapter = adapters.build_adapter("smoa", small_cfg(d=16, seed=19), task.w0)
        return training.train(adapter, task, 100)

    assert run().tobytes() == run().tobytes()


def test_train_diverged_loss_raises_with_step():
    base = training.make_task(8, 2, 10, 0.0, seed=20)
    task = dataclasses.replace(base, targets=np.full_like(base.targets, 1e200))
    adapter = adapters.build_adapter("smoa", small_cfg(seed=20), base.w0)
    state = training.TrainState.for_adapter(adapter)
    before = [t.tobytes() for t in adapter.A + adapter.B]
    with pytest.raises(training.DivergenceError, match="step 0"):
        training.train(adapter, task, 10, state)
    assert [t.tobytes() for t in adapter.A + adapter.B] == before
    assert state.step == 0
    assert not state.m.any() and not state.v.any()


def test_train_preserves_frozen_tensors():
    task = training.make_task(16, 4, 32, 0.0, seed=21)
    adapter = adapters.build_adapter("smoa", small_cfg(d=16, seed=21), task.w0)
    w0_before = task.w0.tobytes()
    mods_before = [m.tobytes() for m in adapter.masks]
    training.train(adapter, task, 200)
    assert task.w0.tobytes() == w0_before
    assert [m.tobytes() for m in adapter.masks] == mods_before


def test_train_loss_drops_tenfold_on_realizable_task():
    task = training.make_task(32, 4, 64, 0.0, seed=22)
    adapter = adapters.build_adapter("lora", RunConfig(d_out=32, d_in=32, K=1, r=8, seed=22),
                                     task.w0)
    trace = training.train(adapter, task, 2000)
    assert trace[-1] <= trace[0] / 10.0


def test_train_rejects_zero_steps():
    task = training.make_task(8, 2, 10, 0.0, seed=23)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=23), task.w0)
    with pytest.raises(ValidationError, match="steps"):
        training.train(adapter, task, 0)


def test_train_state_moments_match_tensors():
    task = training.make_task(8, 2, 10, 0.0, seed=24)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=24), task.w0)
    state = training.TrainState.for_adapter(adapter, learning_rate=0.01)
    assert state.m.shape == state.v.shape == adapter.params.shape
    pairs = zip(adapter.A, adapter.B)
    assert state.factor_shapes == tuple(t.shape for a, b in pairs for t in (a, b))
    training.train(adapter, task, 5, state)
    assert state.step == 5


def test_write_loss_trace_format(tmp_path):
    path = tmp_path / "loss.csv"
    training.write_loss_trace(np.array([1.0, 0.5]), path)
    assert path.read_text() == "step,loss\n0,1\n1,0.5\n"


def test_train_rejects_bare_state():
    task = training.make_task(8, 2, 10, 0.0, seed=25)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=25), task.w0)
    with pytest.raises(ValidationError, match="TrainState was made for factor shapes"):
        training.train(adapter, task, 3, training.TrainState())


@pytest.mark.parametrize("convert", [np.ndarray.tolist, lambda m: m.astype(np.float32)])
def test_train_rejects_moments_it_cannot_write_back(convert):
    task = training.make_task(8, 2, 10, 0.0, seed=25)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=25), task.w0)
    state = training.TrainState.for_adapter(adapter)
    state.v = convert(state.v)
    before = [t.tobytes() for t in adapter.A + adapter.B]
    with pytest.raises(ValidationError, match="TrainState.v must be a float64 array"):
        training.train(adapter, task, 3, state)
    assert [t.tobytes() for t in adapter.A + adapter.B] == before
    assert state.step == 0


@pytest.mark.parametrize("other_cfg", [
    dict(K=1, r=4),  # one moment per factor where the adapter has two
    dict(K=2, r=6),  # the same K, other factor shapes
    dict(method="lora", K=1, r=2),  # other factor shapes, the same 32 entries
])
def test_train_rejects_state_of_another_adapter(other_cfg):
    task = training.make_task(8, 2, 10, 0.0, seed=25)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=25), task.w0)
    other_cfg = dict(other_cfg)
    other = adapters.build_adapter(other_cfg.pop("method", "smoa"),
                                   small_cfg(seed=25, **other_cfg), task.w0)
    state = training.TrainState.for_adapter(other)
    before = [t.tobytes() for t in adapter.A + adapter.B]
    with pytest.raises(ValidationError, match="TrainState"):
        training.train(adapter, task, 3, state)
    assert [t.tobytes() for t in adapter.A + adapter.B] == before
    assert state.step == 0


# Dense reference for the block-wise step: the full update matrix, the
# merged-weight forward, and the full upstream^T x gradient sliced to
# each block.

def dense_delta(adapter):
    out = np.zeros(adapter.shape)
    for blk in adapter.blocks():
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
    for blk in adapter.blocks():
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
    w0 = training.random_weight(d_out, d_in, rng, spectrum="equal" if spiked else "decaying")
    if spiked:
        w0[0] *= 100.0
    cfg = RunConfig(d_out=d_out, d_in=d_in, K=K, r=K + r_extra, seed=seed)
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
        adapter = adapters.build_adapter(method, RunConfig(d_out=3, d_in=3, K=3, r=3, seed=0),
                                         w0)
    if method == "smoa":
        assert adapter.partition.empty_sets()
    rng = np.random.default_rng(26)
    adapters.randomize_factors(adapter, rng)
    assert_matches_dense(adapter, w0, rng.standard_normal((5, 3)),
                         rng.standard_normal((5, 3)))


def test_forward_rejects_adapter_of_another_shape():
    task = training.make_task(8, 2, 10, 0.0, seed=27)
    adapter = adapters.build_adapter("smoa", small_cfg(d=6), training.random_weight(
        6, 6, np.random.default_rng(27)))
    with pytest.raises(ValidationError, match="adapter shape"):
        training.forward(adapter, task.w0, task.inputs)


@pytest.mark.parametrize("method", adapters.METHODS)
def test_train_trace_matches_dense_reference_loop(method):
    # 20 AdamW steps through the dense step agree with the block-wise
    # trace to rtol 1e-9 (bit-identical on OpenBLAS 0.3.31)
    task = training.make_task(16, 6, 40, 0.0, seed=28, target_blocks=2)
    cfg = small_cfg(d=16, K=2, r=4, seed=28)
    adapter = adapters.build_adapter(method, cfg, task.w0)
    trace = training.train(adapter, task, 20)

    ref = adapters.build_adapter(method, cfg, task.w0)
    state = training.TrainState()
    m_a, v_a, m_b, v_b = per_tensor_moments(ref)
    ref_trace = []
    for step in range(1, 22):
        pred = dense_forward(ref, task.w0, task.inputs)
        ref_trace.append(training.mse(pred, task.targets))
        if step == 21:
            break
        upstream = (2.0 / pred.size) * (pred - task.targets)
        grads_a, grads_b = dense_backward(ref, task.inputs, upstream)
        for k in range(len(ref.A)):
            training._adamw_update(ref.A[k], grads_a[k], m_a[k], v_a[k], step, state)
            training._adamw_update(ref.B[k], grads_b[k], m_b[k], v_b[k], step, state)
    assert_allclose(trace, ref_trace, rtol=1e-9)
    for got, want in zip(adapter.A + adapter.B, ref.A + ref.B):
        assert_allclose(got, want, rtol=1e-9, atol=1e-12)


# Per-tensor reference for the flat-buffer optimizer: the step as it was
# before the factors and moments lived in one buffer each, built from
# forward, backward and one AdamW update per tensor with its own moment
# arrays.  AdamW is elementwise, so train must match it bit for bit.

def per_tensor_moments(adapter):
    """Zeroed moments, one array per tensor: m_A, v_A, m_B, v_B."""
    return [[np.zeros_like(t) for t in tensors]
            for tensors in (adapter.A, adapter.A, adapter.B, adapter.B)]


def flat_moments(adapter, state):
    """A TrainState's flat moments as per-tensor views: m_A, v_A, m_B, v_B."""
    (m_a, m_b), (v_a, v_b) = adapter.factor_views(state.m), adapter.factor_views(state.v)
    return [m_a, v_a, m_b, v_b]


def per_tensor_train(adapter, task, steps, state, moments):
    m_a, v_a, m_b, v_b = moments
    trace = []
    for i in range(steps + 1):
        resid = training.forward(adapter, task.w0, task.inputs) - task.targets
        trace.append(float(np.mean(resid ** 2)))
        if i == steps or not np.isfinite(trace[-1]):
            break
        grads = training.backward(adapter, task.w0, task.inputs, resid * (2.0 / resid.size))
        state.step += 1
        for k in range(len(adapter.A)):
            training._adamw_update(adapter.A[k], grads.A[k], m_a[k], v_a[k], state.step, state)
            training._adamw_update(adapter.B[k], grads.B[k], m_b[k], v_b[k], state.step, state)
    return np.array(trace)


def assert_same_run(adapter, state, ref, ref_state, ref_moments):
    assert state.step == ref_state.step
    for name in ("A", "B"):
        for got, want in zip(getattr(adapter, name), getattr(ref, name)):
            assert np.array_equal(got, want)
    for have, want in zip(flat_moments(adapter, state), ref_moments, strict=True):
        assert len(have) == len(want)
        for got, expected in zip(have, want):
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("method, weight_decay", [
    *((m, 0.0) for m in adapters.METHODS),
    ("smoa", 0.05),
])
def test_train_equals_per_tensor_step_bit_for_bit(method, weight_decay):
    # K=3 at d=16 gives blocks of 6, 5 and 5 rows and columns
    task = training.make_task(16, 6, 40, 0.01, seed=29, target_blocks=3)
    cfg = small_cfg(d=16, K=3, r=6, seed=29)
    settings_ = dict(learning_rate=1e-2, weight_decay=weight_decay)
    adapter = adapters.build_adapter(method, cfg, task.w0)
    state = training.TrainState.for_adapter(adapter, **settings_)
    trace = training.train(adapter, task, 40, state)

    ref = adapters.build_adapter(method, cfg, task.w0)
    ref_state, ref_moments = training.TrainState(**settings_), per_tensor_moments(ref)
    ref_trace = per_tensor_train(ref, task, 40, ref_state, ref_moments)
    assert np.array_equal(trace, ref_trace)
    assert_same_run(adapter, state, ref, ref_state, ref_moments)


def test_train_makes_one_adamw_update_per_step(monkeypatch):
    calls = []
    update = training._adamw_update
    monkeypatch.setattr(training, "_adamw_update",
                        lambda *args: calls.append(args[4]) or update(*args))
    task = training.make_task(16, 4, 32, 0.0, seed=30)
    adapter = adapters.build_adapter("smoa", small_cfg(d=16, K=4, r=8, seed=30), task.w0)
    training.train(adapter, task, 5)
    assert calls == [1, 2, 3, 4, 5]


def test_train_resumes_in_place_bit_for_bit():
    task = training.make_task(16, 4, 32, 0.0, seed=31, target_blocks=2)
    cfg = small_cfg(d=16, K=2, r=4, seed=31)
    adapter = adapters.build_adapter("smoa", cfg, task.w0)
    state = training.TrainState.for_adapter(adapter, learning_rate=1e-2)
    objects = [id(t) for t in adapter.A + adapter.B + (adapter.params, state.m, state.v)]
    first = training.train(adapter, task, 7, state)
    second = training.train(adapter, task, 13, state)
    assert [id(t) for t in adapter.A + adapter.B + (adapter.params, state.m, state.v)] == objects

    ref = adapters.build_adapter("smoa", cfg, task.w0)
    ref_state = training.TrainState.for_adapter(ref, learning_rate=1e-2)
    single = training.train(ref, task, 20, ref_state)
    assert np.array_equal(first, single[:8])
    assert second[0] == single[7]
    assert np.array_equal(second, single[7:])
    assert_same_run(adapter, state, ref, ref_state, flat_moments(ref, ref_state))


def test_train_divergence_writes_back_the_updates_made():
    task = training.make_task(8, 2, 10, 0.0, seed=20)
    adapter = adapters.build_adapter("smoa", small_cfg(seed=20), task.w0)
    state = training.TrainState.for_adapter(adapter, learning_rate=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(training.DivergenceError, match="step 1"):
            training.train(adapter, task, 10, state)
        ref = adapters.build_adapter("smoa", small_cfg(seed=20), task.w0)
        ref_state, ref_moments = training.TrainState(learning_rate=1e200), per_tensor_moments(ref)
        per_tensor_train(ref, task, 10, ref_state, ref_moments)
    assert state.step == 1
    assert_same_run(adapter, state, ref, ref_state, ref_moments)



# train_many: S runs of one structure in one stacked step.  Each run must
# equal training it alone with train, bit for bit.

def rectangular_task(d_out, d_in, n, seed):
    """A hand-built planted task on a d_out x d_in weight."""
    rng = np.random.default_rng(seed)
    w0 = training.random_weight(d_out, d_in, rng)
    target = 0.1 * rng.standard_normal((d_out, d_in))
    x = rng.standard_normal((n, d_in))
    return training.LinearTask(w0=w0, target_delta=target, inputs=x,
                               targets=x @ (w0 + target).T)


def lockstep_runs(method, d_out, d_in, K, n, S, seed, **state_kwargs):
    """S fresh adapters with randomized factors, their tasks and states."""
    runs, tasks, states = [], [], []
    for j in range(S):
        task = rectangular_task(d_out, d_in, n, seed + j)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySubspaceWarning)
            adapter = adapters.build_adapter(
                method, RunConfig(d_out=d_out, d_in=d_in, K=K, r=K + 1, seed=seed + j), task.w0)
        adapters.randomize_factors(adapter, np.random.default_rng([seed, j]), std=0.3)
        runs.append(adapter)
        tasks.append(task)
        states.append(training.TrainState.for_adapter(adapter, **state_kwargs))
    return runs, tasks, states


def run_bytes(adapter, state):
    return adapter.params.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(adapters.METHODS), K=st.integers(2, 4), q_out=st.integers(1, 3),
       q_in=st.integers(1, 3), rem=st.integers(0, 8), n=st.integers(1, 9), S=st.integers(1, 3),
       weight_decay=st.sampled_from([0.0, 0.01]), seed=st.integers(0, 2**16))
def test_train_many_equals_train_per_run_bit_for_bit(method, K, q_out, q_in, rem, n, S,
                                                     weight_decay, seed):
    # K divides neither side: d = K q + a remainder in [1, K - 1]
    d_out, d_in = K * q_out + 1 + rem % (K - 1), K * q_in + 1 + (rem // 3) % (K - 1)
    kwargs = dict(learning_rate=1e-2, weight_decay=weight_decay)
    runs, tasks, states = lockstep_runs(method, d_out, d_in, K, n, S, seed, **kwargs)
    traces = training.train_many(runs, tasks, 12, states)
    assert traces.shape == (S, 13)
    refs, _, ref_states = lockstep_runs(method, d_out, d_in, K, n, S, seed, **kwargs)
    for j in range(S):
        ref_trace = training.train(refs[j], tasks[j], 12, ref_states[j])
        assert traces[j].tobytes() == ref_trace.tobytes()
        assert run_bytes(runs[j], states[j]) == run_bytes(refs[j], ref_states[j])


def test_train_many_resumes_in_place_bit_for_bit():
    runs, tasks, states = lockstep_runs("smoa", 13, 10, 3, 7, 3, 32, learning_rate=1e-2)
    objects = [id(t) for a, s in zip(runs, states) for t in (a.params, s.m, s.v) + a.A + a.B]
    first = training.train_many(runs, tasks, 7, states)
    second = training.train_many(runs, tasks, 13, states)
    assert [id(t) for a, s in zip(runs, states)
            for t in (a.params, s.m, s.v) + a.A + a.B] == objects

    refs, _, ref_states = lockstep_runs("smoa", 13, 10, 3, 7, 3, 32, learning_rate=1e-2)
    single = training.train_many(refs, tasks, 20, ref_states)
    assert np.array_equal(first, single[:, :8])
    assert np.array_equal(second, single[:, 7:])
    for run, state, ref, ref_state in zip(runs, states, refs, ref_states):
        assert run_bytes(run, state) == run_bytes(ref, ref_state)
        assert state.step == 20


def test_train_many_divergence_writes_back_every_run():
    runs, tasks, states = lockstep_runs("block_lora", 8, 8, 2, 10, 2, 33, learning_rate=1e200)
    refs, _, ref_states = lockstep_runs("block_lora", 8, 8, 2, 10, 2, 33, learning_rate=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(training.DivergenceError, match="step 1 in run 0"):
            training.train_many(runs, tasks, 10, states)
        for ref, task, ref_state in zip(refs, tasks, ref_states):
            with pytest.raises(training.DivergenceError, match="step 1"):
                training.train(ref, task, 10, ref_state)
    for run, state, ref, ref_state in zip(runs, states, refs, ref_states):
        assert state.step == 1
        assert run_bytes(run, state) == run_bytes(ref, ref_state)


def test_train_many_names_the_diverging_run():
    runs, tasks, states = lockstep_runs("smoa", 8, 8, 2, 10, 3, 34)
    tasks[2] = dataclasses.replace(tasks[2], targets=np.full_like(tasks[2].targets, 1e200))
    before = [run_bytes(a, s) for a, s in zip(runs, states)]
    with np.errstate(over="ignore"):
        with pytest.raises(training.DivergenceError, match="step 0 in run 2"):
            training.train_many(runs, tasks, 10, states)
    assert [run_bytes(a, s) for a, s in zip(runs, states)] == before


def _mismatch(case, runs, tasks, states):
    """Make run 1 of a 2-run lockstep call differ from run 0 in one way."""
    task = tasks[1]
    if case == "kind":  # block_lora has smoa's factor shapes and scales
        runs[1] = adapters.build_adapter("block_lora", small_cfg(seed=36), task.w0)
        states[1] = training.TrainState.for_adapter(runs[1])
    elif case == "factor shapes":
        runs[1] = adapters.build_adapter("smoa", small_cfg(r=6, seed=36), task.w0)
        states[1] = training.TrainState.for_adapter(runs[1])
    elif case == "scales":
        runs[1] = adapters.build_adapter("smoa", small_cfg(alpha=8.0, seed=36), task.w0)
        states[1] = training.TrainState.for_adapter(runs[1])
    elif case == "inputs shape":
        tasks[1] = dataclasses.replace(task, inputs=task.inputs[:5], targets=task.targets[:5])
    elif case == "targets":
        tasks[1] = dataclasses.replace(task, targets=task.targets[:, :4])
    elif case == "learning_rate":
        states[1].learning_rate = 1e-2
    elif case == "step":
        states[1].step = 3
    elif case == "moments":
        states[1].m = states[1].m[:-1].copy()
    elif case == "same adapter":
        runs[1], states[1] = runs[0], training.TrainState.for_adapter(runs[0])
    elif case == "same state":
        states[1] = states[0]
    elif case == "lengths":
        del tasks[1]


@pytest.mark.parametrize("case, message", [
    ("kind", "run 1 differs from run 0 in kind"),
    ("factor shapes", "run 1 differs from run 0 in factor shapes"),
    ("scales", "run 1 differs from run 0 in scales"),
    ("inputs shape", "run 1 differs from run 0 in inputs shape"),
    ("targets", "targets must have shape"),
    ("learning_rate", "run 1 differs from run 0 in learning_rate"),
    ("step", "run 1 differs from run 0 in step"),
    ("moments", "TrainState.m must be a float64 array"),
    ("same adapter", "given once"),
    ("same state", "given once"),
    ("lengths", "one task and one state per adapter"),
])
def test_train_many_rejects_mismatched_runs_before_any_update(case, message):
    runs, tasks, states = [], [], []
    for j in range(2):
        tasks.append(training.make_task(8, 2, 10, 0.0, seed=35 + j))
        runs.append(adapters.build_adapter("smoa", small_cfg(seed=35 + j), tasks[j].w0))
        adapters.randomize_factors(runs[j], np.random.default_rng(j))
        states.append(training.TrainState.for_adapter(runs[j]))
    _mismatch(case, runs, tasks, states)
    before = [(a.params.tobytes(), s.step) for a, s in zip(runs, states)]
    with pytest.raises(ValidationError, match=message):
        training.train_many(runs, tasks, 3, states)
    assert [(a.params.tobytes(), s.step) for a, s in zip(runs, states)] == before


def test_train_many_rejects_an_empty_call():
    with pytest.raises(ValidationError, match="one task and one state per adapter"):
        training.train_many([], [], 3)


# backward, grad_check and training share one gradient layout: that of
# adapter.params.

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(adapters.METHODS), K=st.integers(2, 4), q_out=st.integers(1, 3),
       q_in=st.integers(1, 3), rem=st.integers(0, 8), n=st.integers(1, 6),
       seed=st.integers(0, 2**16))
def test_gradients_use_the_params_layout(method, K, q_out, q_in, rem, n, seed):
    # K divides neither side: d = K q + a remainder in [1, K - 1]
    d_out, d_in = K * q_out + 1 + rem % (K - 1), K * q_in + 1 + (rem // 3) % (K - 1)
    (adapter,), (task,), _ = lockstep_runs(method, d_out, d_in, K, n, 1, seed)
    factors = adapter.params.copy()

    # the entry the report names for flat index e is params[e]
    adapter.params[...] = np.arange(adapter.params.size)
    for e in range(adapter.params.size):
        role, k, i, j = training._factor_entry(adapter, e)
        assert getattr(adapter, role)[k][i, j] == e
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
    report = training.grad_check(adapter, task, corrupt_for_testing=True)
    flipped = int(np.argmax(np.abs(flat)))
    assert report.worst == training._factor_entry(adapter, flipped)
    assert report.worst_analytic == -flat[flipped]
    assert not report.passed
    assert adapter.params.tobytes() == factors.tobytes()
