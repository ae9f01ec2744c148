import dataclasses
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from smoa import adapters
from smoa.errors import FormatError, ValidationError
from smoa.matrix_io import RunConfig, TrainConfig
from smoa.rank_analysis import numerical_rank
from smoa.spectral import EmptySubspaceWarning, decompose, modulation_tensor
from smoa.training import forward, random_weight

from conftest import flat_weight


def cfg64(**kwargs):
    base = dict(K=2, r=16, seed=0)
    base.update(kwargs)
    return RunConfig(**base)


def test_block_layout_even_split():
    layout = adapters.block_layout(64, 64, 2)
    assert [(r0, r1) for r0, r1, _, _ in layout] == [(0, 32), (32, 64)]
    assert [(c0, c1) for _, _, c0, c1 in layout] == [(0, 32), (32, 64)]


def test_block_layout_remainder_goes_first():
    layout = adapters.block_layout(7, 5, 3)
    assert [(r0, r1) for r0, r1, _, _ in layout] == [(0, 3), (3, 5), (5, 7)]
    assert [(c0, c1) for _, _, c0, c1 in layout] == [(0, 2), (2, 4), (4, 5)]
    assert (layout[-1][1], layout[-1][3]) == (7, 5)


def test_block_layout_rejects_bad_k():
    with pytest.raises(ValidationError):
        adapters.block_layout(4, 4, 5)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 50), K=st.integers(1, 13))
def test_split_parts_sum_to_n_and_differ_by_at_most_one(n, K):
    parts = adapters._split(n, K)
    assert len(parts) == K and sum(parts) == n
    assert list(parts) == sorted(parts, reverse=True) and parts[0] - parts[-1] <= 1
    if K <= n:
        layout = adapters.block_layout(n, n + K, K)
        rows = [0, *np.cumsum(parts)]
        cols = [0, *np.cumsum(adapters._split(n + K, K))]
        assert layout == tuple((rows[k], rows[k + 1], cols[k], cols[k + 1]) for k in range(K))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(adapters.METHODS), mode=st.sampled_from(["budget", "flexible"]),
       d_out=st.integers(2, 12), d_in=st.integers(2, 12), K=st.integers(1, 13),
       r=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_param_count_and_build_adapter_share_one_plan(method, mode, d_out, d_in, K, r, seed):
    # the count and the build agree, or both reject the plan with one
    # message; full-matrix methods ignore K, so only blocked methods reject
    cfg = RunConfig(K=K, r=r, seed=seed, mode=mode)
    w0 = random_weight(d_out, d_in, np.random.default_rng(seed))
    bad = method not in adapters.FULL_MATRIX and (K > min(d_out, d_in)
                                                  or mode == "budget" and r < K)
    if bad:
        with pytest.raises(ValidationError) as counted:
            adapters.param_count(method, cfg, w0.shape)
        with pytest.raises(ValidationError) as built:
            adapters.build_adapter(method, cfg, w0)
        assert str(built.value) == str(counted.value)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        adapter = adapters.build_adapter(method, cfg, w0)
    assert adapters.param_count(method, cfg, w0.shape) == adapter.params.size


def test_subspace_ranks():
    assert adapters.subspace_ranks(cfg64()) == (8, 8)
    assert adapters.subspace_ranks(cfg64(K=3, r=7)) == (3, 2, 2)
    assert adapters.subspace_ranks(cfg64(K=3, r=4, mode="flexible")) == (4, 4, 4)


def test_param_count_formulas():
    d64 = (64, 64)
    assert adapters.param_count("smoa", cfg64(), d64) == 1024  # 2*64*16/2
    assert adapters.param_count("smoa", cfg64(mode="flexible"), d64) == 2048  # 2*16*64
    assert adapters.param_count("lora", cfg64(K=1, r=8), d64) == 1024  # 2*64*8
    assert adapters.param_count("hadamard_w0", cfg64(K=1, r=8), d64) == 1024
    assert (adapters.param_count("block_lora", cfg64(), d64)
            == adapters.param_count("smoa", cfg64(), d64))
    # K=1 collapses the budget formula to the plain low-rank count
    assert (adapters.param_count("smoa", cfg64(K=1), d64)
            == adapters.param_count("lora", cfg64(K=1), d64))
    with pytest.raises(ValidationError, match="unknown method"):
        adapters.param_count("mystery", cfg64(), d64)


@pytest.mark.parametrize("method", adapters.METHODS)
@pytest.mark.parametrize("mode", ["budget", "flexible"])
def test_param_count_matches_built_adapter(method, mode):
    cfg = cfg64(K=4, r=8, mode=mode)
    w0 = random_weight(64, 64, np.random.default_rng(1))
    adapter = adapters.build_adapter(method, cfg, w0)
    assert adapters.param_count(method, cfg, w0.shape) == adapter.params.size


@pytest.mark.parametrize("method", adapters.METHODS)
def test_zero_init_delta_and_merge(method):
    cfg = cfg64(K=4, r=8, seed=5)
    w0 = random_weight(64, 64, np.random.default_rng(2))
    adapter = adapters.build_adapter(method, cfg, w0)
    update = adapters.delta(adapter)
    assert not np.any(update)
    merged = adapters.merge(adapter, w0)
    assert merged.tobytes() == w0.tobytes()


def test_build_smoa_shapes_and_scale():
    cfg = cfg64(K=2, r=16, seed=9)
    w0 = random_weight(64, 64, np.random.default_rng(3))
    adapter = adapters.build_adapter("smoa", cfg, w0)
    assert adapter.r_per_subspace == (8, 8)
    assert [blk.scale for blk in adapter.blocks] == [2.0, 2.0]  # alpha=r=16 over r_k=8
    assert len(adapter.blocks) == 2
    for blk in adapter.blocks:
        assert blk.A.shape == (8, 32)
        assert blk.B.shape == (32, 8)
        assert not np.any(blk.B)


@pytest.mark.parametrize("method", adapters.METHODS)
def test_a_replaced_rank_builds_the_scales_of_a_fresh_config(method):
    # an omitted alpha means r, also after dataclasses.replace changes r; a given alpha stays
    w0 = random_weight(16, 16, np.random.default_rng(4))
    task = dict(d=16, target_rank=4, n_samples=8, seed=0, K=2)
    fresh = TrainConfig(**task, r=8)
    replaced = dataclasses.replace(TrainConfig(**task, r=4), r=8)
    given = dataclasses.replace(TrainConfig(**task, r=4, alpha=2.0), r=8)
    ranks = adapters.build_adapter(method, fresh, w0).r_per_subspace
    for cfg, alpha in ((fresh, 8.0), (replaced, 8.0), (given, 2.0)):
        adapter = adapters.build_adapter(method, cfg, w0)
        assert [blk.scale for blk in adapter.blocks] == [alpha / rk for rk in ranks]


def test_build_smoa_deterministic():
    cfg = cfg64(seed=13)
    w0 = random_weight(64, 64, np.random.default_rng(4))
    first = adapters.build_adapter("smoa", cfg, w0)
    second = adapters.build_adapter("smoa", cfg, w0)
    for a, b in zip(first.blocks, second.blocks):
        assert a.A.tobytes() == b.A.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d_out=st.integers(2, 40), d_in=st.integers(2, 40), k_pick=st.integers(1, 6),
       seed=st.integers(0, 2**16), spiked=st.booleans())
def test_smoa_masks_equal_blocks_of_the_modulation_tensors(d_out, d_in, k_pick, seed, spiked):
    # build_adapter forms each mask from the block's singular triples alone;
    # a different GEMM split may round differently, so the reference slice
    # of the full tensor is matched to 1e-14 of the block's largest entry
    K = min(k_pick, d_out, d_in)
    rng = np.random.default_rng(seed)
    w0 = (flat_weight if spiked else random_weight)(d_out, d_in, rng)
    if spiked:
        w0[0] *= 100.0  # empties the leading subspaces
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        adapter = adapters.build_adapter("smoa", RunConfig(K=K, r=K, seed=seed), w0)
    dec = decompose(w0)
    for k, (r0, r1, c0, c1, mask, *_) in enumerate(adapter.blocks):
        ref = modulation_tensor(dec, adapter.partition, k)[r0:r1, c0:c1]
        assert mask.shape == ref.shape and mask.flags.c_contiguous
        assert_allclose(mask, ref, rtol=0, atol=1e-14 * np.abs(ref).max())


def test_mod_blocks_are_frozen():
    w0 = random_weight(64, 64, np.random.default_rng(0))
    adapter = adapters.build_adapter("smoa", cfg64(), w0)
    with pytest.raises(ValueError):
        adapter.blocks[0].mask[0, 0] = 1.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d_out=st.integers(2, 24), d_in=st.integers(2, 24), k_pick=st.integers(1, 6),
       extra_rank=st.integers(0, 5), seed=st.integers(0, 2**16), spiked=st.booleans())
def test_build_over_a_prebuilt_smoa_state_equals_a_fresh_build(d_out, d_in, k_pick, extra_rank,
                                                                seed, spiked):
    K = min(k_pick, d_out, d_in)
    w0 = random_weight(d_out, d_in, np.random.default_rng(seed))
    if spiked:
        w0[0] *= 100.0  # empties the leading subspaces
    cfg = RunConfig(K=K, r=K + extra_rank, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        fresh = adapters.build_adapter("smoa", cfg, w0)
        shared = adapters.build_adapter("smoa", cfg, w0, smoa_state=adapters.smoa_masks(w0, K))
    assert shared.params.tobytes() == fresh.params.tobytes()
    assert shared.partition.shares.tobytes() == fresh.partition.shares.tobytes()
    assert [s.tolist() for s in shared.partition.index_sets] == \
        [s.tolist() for s in fresh.partition.index_sets]
    for got, want in zip(shared.blocks, fresh.blocks, strict=True):
        assert got[:4] == want[:4] and got.scale == want.scale
        assert got.mask.tobytes() == want.mask.tobytes()
        assert not got.mask.flags.writeable


@pytest.mark.parametrize("method, state_dims, message", [
    ("smoa", (8, 8, 1), "the smoa state has 1 masks, the config has K=2"),
    ("smoa", (8, 8, 4), "the smoa state has 4 masks, the config has K=2"),
    ("smoa", (6, 8, 2), "mask shapes must be"),
    ("smoa", (8, 12, 2), "mask shapes must be"),
    ("lora", (8, 8, 2), "an smoa state was given for a lora adapter"),
], ids=["fewer-masks", "more-masks", "fewer-rows", "more-cols", "lora"])
def test_build_rejects_a_state_that_does_not_fit(method, state_dims, message):
    d_out, d_in, K = state_dims
    state = adapters.smoa_masks(random_weight(d_out, d_in, np.random.default_rng(5)), K)
    w0 = random_weight(8, 8, np.random.default_rng(6))
    cfg = RunConfig(K=2, r=4, seed=0)
    with pytest.raises(ValidationError, match=message):
        adapters.build_adapter(method, cfg, w0, smoa_state=state)


def test_delta_hand_case():
    # single subspace on diag(3, 2): the modulation block is the weight
    # itself, so the masked product keeps only the (0, 0) entry
    w0 = np.diag([3.0, 2.0])
    adapter = adapters.build_adapter("smoa", RunConfig(K=1, r=1, seed=0), w0)
    adapter.blocks[0].A[...] = [[1.0, 1.0]]
    adapter.blocks[0].B[...] = [[1.0], [0.0]]
    assert_allclose(adapters.delta(adapter), [[3.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_delta_rank_additivity():
    cfg = RunConfig(K=2, r=8, seed=1)
    w0 = random_weight(32, 32, np.random.default_rng(11))
    adapter = adapters.build_adapter("smoa", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(12))
    update = adapters.delta(adapter)
    block_ranks = []
    for blk in adapter.blocks:
        block = blk.scale * (blk.B @ blk.A) * blk.mask
        block_ranks.append(numerical_rank(block))
    assert numerical_rank(update) == sum(block_ranks)


def test_merge_minus_w0_recovers_delta():
    cfg = cfg64(K=2, r=8)
    w0 = random_weight(64, 64, np.random.default_rng(21))
    adapter = adapters.build_adapter("smoa", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(22), std=0.05)
    update = adapters.delta(adapter)
    recovered = adapters.merge(adapter, w0) - w0
    # one rounding of each entry against w0's scale is the best float sum can do
    assert_allclose(recovered, update, atol=np.abs(w0).max() * 2e-16)


def test_merge_rejects_shape_mismatch():
    w0 = random_weight(64, 64, np.random.default_rng(0))
    adapter = adapters.build_adapter("smoa", cfg64(), w0)
    with pytest.raises(ValidationError, match="shape"):
        adapters.merge(adapter, np.zeros((4, 4)))


@pytest.mark.parametrize("method", adapters.METHODS)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_build_rejects_a_non_finite_weight(method, value):
    w0 = random_weight(8, 8, np.random.default_rng(0))
    w0[3, 5] = value
    with pytest.raises(FormatError, match="^matrix contains non-finite entries$"):
        adapters.build_adapter(method, RunConfig(K=2, r=4, seed=0), w0)


def test_build_baseline_rejects_unknown_kind():
    with pytest.raises(ValidationError, match="unknown method"):
        adapters.build_adapter("dora", cfg64(), np.zeros((64, 64)))


def _unmasked_blocks(ranges):
    rng = np.random.default_rng(0)
    return [adapters.Block(r0, r1, c0, c1, None, rng.standard_normal((1, int(c1 - c0))),
                           rng.standard_normal((int(r1 - r0), 1)), 1.0)
            for r0, r1, c0, c1 in ranges]


@pytest.mark.parametrize("ranges, message", [
    ([(0, 3, 0, 3), (5, 8, 5, 8)], "not the 2-block layout of a 8x8"),  # gap at rows/cols 3-4
    ([(0, 5, 0, 5), (3, 8, 3, 8)], "not the 2-block layout of a 8x8"),  # overlap
    ([(0, 5, 0, 5), (5, 8, 5, 8)], "not the 2-block layout of a 8x8"),  # uneven split
    ([(1, 5, 1, 5), (5, 9, 5, 9)], "not the 2-block layout of a 9x9"),  # shifted by one
    ([(0, 8, 0, 8), (8, 8, 8, 8)], "not the 2-block layout of a 8x8"),  # empty last block
    ([(0, 0, 0, 0)], "not the 1-block layout of a 0x0"),
    ([], "not the 0-block layout"),
    ([(0, 4, 0, 4), (4, 8.0, 4, 8)], "every block bound must be of type int"),
], ids=["gap", "overlap", "uneven", "shifted", "empty-block", "empty-shape", "no-blocks",
        "float-bound"])
def test_adapter_rejects_blocks_that_do_not_tile(ranges, message):
    with pytest.raises(ValidationError, match=message):
        adapters.Adapter(kind="block_lora", blocks=_unmasked_blocks(ranges))


def test_adapter_on_the_layout_forwards_its_delta():
    # the d=8 layout that the gap and overlap cases above break
    adapter = adapters.Adapter(kind="block_lora",
                               blocks=_unmasked_blocks(adapters.block_layout(8, 8, 2)))
    x = np.random.default_rng(1).standard_normal((5, 8))
    assert_allclose(forward(adapter, np.zeros((8, 8)), x), x @ adapters.delta(adapter).T,
                    rtol=0, atol=1e-14)


@pytest.mark.parametrize("method", adapters.METHODS)
def test_adapter_rejects_rank_zero_block(method):
    # a rank-0 block has a 0-column B, which write_matrix cannot save
    adapter = adapters.build_adapter(method, cfg64(K=2, r=4),
                                     random_weight(64, 64, np.random.default_rng(3)))
    blocks = list(adapter.blocks)
    blocks[-1] = blocks[-1]._replace(A=blocks[-1].A[:0], B=blocks[-1].B[:, :0])
    with pytest.raises(ValidationError, match="has rank 0, must be ≥ 1"):
        dataclasses.replace(adapter, blocks=blocks)


def test_smoa_adapter_without_partition_is_rejected():
    adapter = adapters.build_adapter("smoa", cfg64(), random_weight(64, 64,
                                                                    np.random.default_rng(3)))
    with pytest.raises(ValidationError, match="partition if and only if it is smoa"):
        dataclasses.replace(adapter, partition=None)


def test_adapters_compare_by_identity():
    w0 = random_weight(64, 64, np.random.default_rng(3))
    first, second = (adapters.build_adapter("lora", cfg64(K=1, seed=seed), w0)
                     for seed in (0, 1))
    assert first != second
    assert first == first


def test_lora_achieves_exact_rank():
    cfg = RunConfig(K=1, r=8, seed=2)
    w0 = random_weight(128, 128, np.random.default_rng(31))
    adapter = adapters.build_adapter("lora", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(32))
    assert numerical_rank(adapters.delta(adapter)) == 8


def test_hadamard_exceeds_factor_rank():
    cfg = RunConfig(K=1, r=8, seed=3)
    w0 = random_weight(128, 128, np.random.default_rng(41))
    adapter = adapters.build_adapter("hadamard_w0", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(42))
    assert numerical_rank(adapters.delta(adapter)) > 8


def test_block_lora_is_block_diagonal():
    cfg = RunConfig(K=2, r=4, seed=4)
    w0 = random_weight(16, 16, np.random.default_rng(51))
    adapter = adapters.build_adapter("block_lora", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(52))
    update = adapters.delta(adapter)
    assert not np.any(update[:8, 8:])
    assert not np.any(update[8:, :8])
    assert numerical_rank(update) == 4


def test_hadamard_reference_is_frozen_copy():
    cfg = RunConfig(K=1, r=2, seed=5)
    w0 = random_weight(8, 8, np.random.default_rng(61))
    adapter = adapters.build_adapter("hadamard_w0", cfg, w0)
    w0[0, 0] += 1.0
    assert adapter.blocks[0].mask[0, 0] != w0[0, 0]
    with pytest.raises(ValueError):
        adapter.blocks[0].mask[0, 0] = 0.0


def test_hadamard_rank_bound_property():
    # rank(P o Q) <= rank(P) * rank(Q) on random low-rank pairs
    rng = np.random.default_rng(0)
    for _ in range(100):
        p_rank = int(rng.integers(1, 4))
        q_rank = int(rng.integers(1, 4))
        p = rng.standard_normal((16, p_rank)) @ rng.standard_normal((p_rank, 16))
        q = rng.standard_normal((16, q_rank)) @ rng.standard_normal((q_rank, 16))
        assert numerical_rank(p * q) <= numerical_rank(p) * numerical_rank(q)


def test_subspace_rank_bound():
    for seed in range(10):
        cfg = RunConfig(K=3, r=6, seed=seed)
        w0 = random_weight(24, 24, np.random.default_rng(seed))
        adapter = adapters.build_adapter("smoa", cfg, w0)
        adapters.randomize_factors(adapter, np.random.default_rng(seed + 100))
        for k, blk in enumerate(adapter.blocks):
            block = blk.scale * (blk.B @ blk.A) * blk.mask
            bound = adapter.partition.sizes[k] * adapter.r_per_subspace[k]
            assert numerical_rank(block) <= bound


def test_degenerate_equal_spectrum_collapses_to_plain_rank():
    # the blocks are 1x1 when K = p, so the measured rank cannot exceed r;
    # on an equal spectrum, rounding in the cumulative energy leaves I_1
    # empty, which warns
    for seed in range(5):
        w0 = flat_weight(16, 16, np.random.default_rng(seed))
        cfg = RunConfig(K=16, r=16, seed=seed)
        with pytest.warns(EmptySubspaceWarning, match="I_1"):
            adapter = adapters.build_adapter("smoa", cfg, w0)
        adapters.randomize_factors(adapter, np.random.default_rng(seed + 7))
        assert numerical_rank(adapters.delta(adapter)) <= 16


@pytest.mark.parametrize("method", adapters.METHODS)
def test_save_load_roundtrip(method, tmp_path):
    cfg = RunConfig(K=3, r=6, seed=8)
    w0 = random_weight(24, 24, np.random.default_rng(71))
    adapter = adapters.build_adapter(method, cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(72))
    written = adapters.save_adapter(adapter, tmp_path / "ckpt")
    assert all(p.exists() for p in written)
    loaded = adapters.load_adapter(tmp_path / "ckpt")
    assert loaded.kind == adapter.kind
    assert adapters.delta(loaded).tobytes() == adapters.delta(adapter).tobytes()
    assert loaded.r_per_subspace == tuple(adapter.r_per_subspace)
    assert [blk.scale for blk in loaded.blocks] == [blk.scale for blk in adapter.blocks]


def assert_factors_view_params(adapter):
    # params laid out A_0, B_0, A_1, B_1, ...: a write into params shows in
    # every factor, at its offset
    adapter.params[...] = np.arange(adapter.params.size)
    start = 0
    for blk in adapter.blocks:
        for t in (blk.A, blk.B):
            assert_array_equal(t.ravel(), np.arange(start, start + t.size))
            start += t.size
    assert start == adapter.params.size
    assert adapter.params.dtype == np.float64


@pytest.mark.parametrize("method", adapters.METHODS)
def test_factors_are_views_of_params(method, tmp_path):
    cfg = cfg64(K=3, r=7)
    adapter = adapters.build_adapter(method, cfg, random_weight(64, 40,
                                                                np.random.default_rng(5)))
    assert_factors_view_params(adapter)
    adapters.save_adapter(adapter, tmp_path / "ckpt")
    assert_factors_view_params(adapters.load_adapter(tmp_path / "ckpt"))
    A = [np.ones(blk.A.shape) for blk in adapter.blocks]
    replaced = dataclasses.replace(adapter, blocks=[blk._replace(A=a)
                                                    for blk, a in zip(adapter.blocks, A)])
    assert_factors_view_params(replaced)
    assert not np.shares_memory(replaced.params, adapter.params)
    assert all(np.all(a == 1.0) for a in A)  # the constructor copied them


def test_factors_cannot_be_rebound():
    adapter = adapters.build_adapter("smoa", cfg64(), random_weight(64, 64,
                                                                    np.random.default_rng(6)))
    with pytest.raises(TypeError):
        adapter.blocks[0] = adapter.blocks[0]._replace(A=np.zeros(adapter.blocks[0].A.shape))
    with pytest.raises(AttributeError):
        adapter.blocks[1].B = np.zeros(adapter.blocks[1].B.shape)


@pytest.mark.parametrize("method", adapters.METHODS)
def test_randomize_factors_equals_per_tensor_draws(method):
    # reference: one draw per tensor, in the order A_0, B_0, A_1, B_1, ...
    w0 = random_weight(64, 64, np.random.default_rng(7))
    adapter = adapters.build_adapter(method, cfg64(K=3, r=9), w0)
    adapters.randomize_factors(adapter, np.random.default_rng(8), std=0.3)
    rng = np.random.default_rng(8)
    for blk in adapter.blocks:
        assert_array_equal(blk.A, rng.normal(0.0, 0.3, size=blk.A.shape))
        assert_array_equal(blk.B, rng.normal(0.0, 0.3, size=blk.B.shape))


def test_randomize_factors_is_seed_deterministic():
    cfg = cfg64()
    w0 = random_weight(64, 64, np.random.default_rng(81))
    first = adapters.build_adapter("smoa", cfg, w0)
    second = adapters.build_adapter("smoa", cfg, w0)
    adapters.randomize_factors(first, np.random.default_rng(9))
    adapters.randomize_factors(second, np.random.default_rng(9))
    assert adapters.delta(first).tobytes() == adapters.delta(second).tobytes()
    assert np.any(first.blocks[0].B)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(adapters.METHODS), d_out=st.integers(2, 11),
       d_in=st.integers(2, 11), k_pick=st.integers(1, 11), r_extra=st.integers(0, 4),
       seed=st.integers(0, 2**16))
def test_save_load_save_is_byte_identical(method, d_out, d_in, k_pick, r_extra, seed):
    # rectangular shapes and K that need not divide d_out or d_in
    K = min(k_pick, d_out, d_in)
    rng = np.random.default_rng(seed)
    w0 = random_weight(d_out, d_in, rng)
    cfg = RunConfig(K=K, r=K + r_extra, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        adapter = adapters.build_adapter(method, cfg, w0)
    adapters.randomize_factors(adapter, rng)
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        written = adapters.save_adapter(adapter, Path(first) / "ckpt")
        loaded = adapters.load_adapter(Path(first) / "ckpt")
        rewritten = adapters.save_adapter(loaded, Path(second) / "ckpt")
        assert [p.name for p in rewritten] == [p.name for p in written]
        for a, b in zip(written, rewritten):
            assert a.read_bytes() == b.read_bytes(), a.name
    assert adapters.delta(loaded).tobytes() == adapters.delta(adapter).tobytes()


def _tensor(name, role, k, shape):
    return {"file": f"ckpt.{name}", "role": role, "shape": shape, "subspace": k}


@pytest.mark.parametrize("method, expected", [
    ("block_lora", {
        "K": 2, "d_in": 5, "d_out": 6, "kind": "block_lora",
        "row_ranges": [[0, 3], [3, 6]], "col_ranges": [[0, 3], [3, 5]],
        "r_per_subspace": [2, 1], "scale": [1.5, 3.0],
        "tensors": [_tensor("A0.smoa", "A", 0, [2, 3]), _tensor("B0.smoa", "B", 0, [3, 2]),
                    _tensor("A1.smoa", "A", 1, [1, 2]), _tensor("B1.smoa", "B", 1, [3, 1])],
    }),
    ("hadamard_w0", {
        "K": 1, "d_in": 5, "d_out": 6, "kind": "hadamard_w0",
        "row_ranges": [[0, 6]], "col_ranges": [[0, 5]],
        "r_per_subspace": [3], "scale": [1.0],
        "tensors": [_tensor("A0.smoa", "A", 0, [3, 5]), _tensor("B0.smoa", "B", 0, [6, 3]),
                    _tensor("reference0.smoa", "reference", 0, [6, 5])],
    }),
])
def test_saved_manifest_literal(tmp_path, method, expected):
    cfg = RunConfig(K=2, r=3, seed=0)
    adapter = adapters.build_adapter(method, cfg, random_weight(6, 5, np.random.default_rng(4)))
    written = adapters.save_adapter(adapter, tmp_path / "ckpt")
    files = [t["file"] for t in expected["tensors"]] + ["ckpt.manifest.json"]
    assert [p.name for p in written] == files
    assert json.loads((tmp_path / "ckpt.manifest.json").read_text()) == expected


def _saved_manifest(tmp_path, method="smoa"):
    cfg = RunConfig(K=2, r=4, seed=3)
    adapter = adapters.build_adapter(method, cfg, random_weight(8, 8, np.random.default_rng(3)))
    adapters.save_adapter(adapter, tmp_path / "ckpt")
    return tmp_path / "ckpt.manifest.json"


@pytest.mark.parametrize("key", ["tensors", "K", "kind", "row_ranges", "index_sets"])
def test_load_adapter_missing_manifest_key_is_format_error(tmp_path, key):
    path = _saved_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    del manifest[key]
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="missing manifest entry"):
        adapters.load_adapter(tmp_path / "ckpt")


def _drop_tensor(role):
    def corrupt(m):
        m["tensors"] = [t for t in m["tensors"] if t["role"] != role]
    return corrupt


@pytest.mark.parametrize("method, corrupt, message", [
    ("hadamard_w0", _drop_tensor("reference"), "mask shapes must be"),
    ("smoa", _drop_tensor("mod_block"), "mask shapes must be"),
    ("lora", lambda m: m.update(kind="smoa"), "mask shapes must be"),
    ("smoa", lambda m: m.update(row_ranges=[[0, 5], [5, 8]]), "not the 2-block layout"),
    ("smoa", lambda m: m.update(row_ranges=[[0, 4.0], [4, 8]]),
     "every block bound must be of type int, got 4.0"),
    ("smoa", lambda m: m.update(K=1), "row_ranges must have one entry per block, K=1"),
    ("smoa", lambda m: m.update(d_out=9), "the blocks give d_out, d_in and r_per_subspace"),
    ("smoa", lambda m: m.update(d_out=8.0), "d_out must be of type int, got 8.0"),
    ("smoa", lambda m: m.update(d_in=8.0), "d_in must be of type int, got 8.0"),
    ("smoa", lambda m: m.update(scale=[1.0]), "scale must have one entry per block, K=2"),
    ("smoa", lambda m: m.update(kind="dora"), "unknown method"),
    ("smoa", lambda m: m.update(K="2"), "K must be of type int, got '2'"),
    ("smoa", lambda m: m.update(K=2.0), "K must be of type int, got 2.0"),
    ("smoa", lambda m: m.update(scale=2.0), "float"),
    ("smoa", lambda m: m.update(scale=[float("nan"), 2.0]), "every scale must be finite"),
    ("smoa", lambda m: m.update(scale=[2.0, True]), "every scale must be of type float"),
    ("smoa", lambda m: m.update(scale=[2.0, -2.0]), "every scale must be finite and positive"),
    ("smoa", lambda m: m.update(r_per_subspace=[2.0, 2]),
     "every entry of r_per_subspace must be of type int"),
    ("smoa", lambda m: m["tensors"][0].update(shape=[2, 5]), "manifest says"),
    ("smoa", lambda m: m.update(r_per_subspace=[2, 3]), "r_per_subspace"),
    ("smoa", lambda m: m.update(index_sets=m["index_sets"][:1]), "partition"),
    ("smoa", lambda m: m.update(index_sets=[[0, 1, 2], [2, 3, 4, 5, 6, 7]]), "partition"),
    ("smoa", lambda m: m.update(shares=[1.0]), "partition"),
    ("smoa", lambda m: m.update(index_sets=[[0.0, 1.5], m["index_sets"][1]]),
     "every index of index_sets must be of type int, got 0.0"),
    ("smoa", lambda m: m.update(index_sets=[[0, True], m["index_sets"][1]]),
     "every index of index_sets must be of type int, got True"),
    ("smoa", lambda m: m.update(index_sets=[[-1, 1], m["index_sets"][1]]),
     "every index of index_sets must be ≥ 0"),
    ("smoa", lambda m: m.update(shares=["x", "y"]), "every share must be of type float"),
    ("smoa", lambda m: m.update(shares=[float("nan"), 1.0]), "every share must be finite"),
    ("smoa", lambda m: m.update(shares=[-3.0, 4.0]), "every share must be ≥ 0"),
    ("block_lora", lambda m: m.update(index_sets=[[0, 1, 2, 3], [4, 5, 6, 7]],
                                      shares=[0.5, 0.5]), "partition"),
    # tensors are listed A0, B0, A1, B1, mod_block0, mod_block1
    ("smoa", lambda m: m["tensors"].append(dict(m["tensors"][2], subspace=0)),
     "tensor entry A0 is listed twice"),
    ("smoa", lambda m: m["tensors"].append(dict(m["tensors"][0], subspace=5)),
     "unexpected tensor entry A5 for a 2-block smoa adapter"),
    ("lora", lambda m: m["tensors"].append(dict(m["tensors"][0], role="reference")),
     "unexpected tensor entry reference0 for a 1-block lora adapter"),
], ids=["hadamard-without-reference", "smoa-without-masks", "lora-as-smoa",
        "shifted-row-ranges", "float-row-range", "K-1-on-K-2", "d_out", "float-d_out",
        "float-d_in", "short-scale", "unknown-kind", "string-K", "float-K", "scalar-scale",
        "nan-scale", "bool-scale", "negative-scale", "float-rank",
        "tensor-shape", "r_per_subspace", "index-set-count", "index-sets-overlap",
        "short-shares", "float-index", "bool-index", "negative-index", "string-shares",
        "nan-share", "negative-share", "partition-on-block-lora", "duplicate-entry", "entry-beyond-K",
        "mask-role-of-another-kind"])
def test_load_adapter_inconsistent_manifest_is_format_error(tmp_path, method, corrupt,
                                                            message):
    path = _saved_manifest(tmp_path, method)
    manifest = json.loads(path.read_text())
    corrupt(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=message):
        adapters.load_adapter(tmp_path / "ckpt")


def test_load_adapter_missing_manifest_is_format_error(tmp_path):
    _saved_manifest(tmp_path).unlink()
    path = tmp_path / "ckpt.manifest.json"
    with pytest.raises(FormatError, match=f"^cannot read {re.escape(str(path))}: "):
        adapters.load_adapter(tmp_path / "ckpt")


@pytest.mark.parametrize("text", ['{"kind": "smoa", ', "[]", '{"kind": "\xe9"}'])
def test_load_adapter_malformed_manifest_is_format_error(tmp_path, text):
    path = _saved_manifest(tmp_path)
    path.write_text(text, encoding="latin-1")
    with pytest.raises(FormatError, match="manifest"):
        adapters.load_adapter(tmp_path / "ckpt")
