import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from smoa import adapters
from smoa.errors import FormatError, ValidationError
from smoa.matrix_io import RunConfig
from smoa.rank_analysis import numerical_rank
from smoa.training import random_weight


def cfg64(**kwargs):
    base = dict(d_out=64, d_in=64, K=2, r=16, seed=0)
    base.update(kwargs)
    return RunConfig(**base)


def test_block_layout_even_split():
    layout = adapters.block_layout(64, 64, 2)
    assert layout.row_ranges == ((0, 32), (32, 64))
    assert layout.col_ranges == ((0, 32), (32, 64))


def test_block_layout_remainder_goes_first():
    layout = adapters.block_layout(7, 5, 3)
    assert layout.row_ranges == ((0, 3), (3, 5), (5, 7))
    assert layout.col_ranges == ((0, 2), (2, 4), (4, 5))
    assert layout.shape == (7, 5)


def test_block_layout_rejects_bad_k():
    with pytest.raises(ValidationError):
        adapters.block_layout(4, 4, 5)


def test_subspace_ranks():
    assert adapters.subspace_ranks(cfg64()) == (8, 8)
    assert adapters.subspace_ranks(cfg64(K=3, r=7)) == (3, 2, 2)
    assert adapters.subspace_ranks(cfg64(K=3, r=4, mode="flexible")) == (4, 4, 4)


def test_param_count_formulas():
    assert adapters.param_count("smoa", cfg64()) == 1024  # 2*64*16/2
    assert adapters.param_count("smoa", cfg64(mode="flexible")) == 2048  # 2*16*64
    assert adapters.param_count("lora", cfg64(K=1, r=8)) == 1024  # 2*64*8
    assert adapters.param_count("hadamard_w0", cfg64(K=1, r=8)) == 1024
    assert adapters.param_count("block_lora", cfg64()) == adapters.param_count("smoa", cfg64())
    # K=1 collapses the budget formula to the plain low-rank count
    assert adapters.param_count("smoa", cfg64(K=1)) == adapters.param_count("lora", cfg64(K=1))
    with pytest.raises(ValidationError, match="unknown method"):
        adapters.param_count("mystery", cfg64())


@pytest.mark.parametrize("method", adapters.METHODS)
@pytest.mark.parametrize("mode", ["budget", "flexible"])
def test_param_count_matches_built_adapter(method, mode):
    cfg = cfg64(K=4, r=8, mode=mode)
    w0 = random_weight(64, 64, np.random.default_rng(1))
    adapter = adapters.build_adapter(method, cfg, w0)
    assert adapters.param_count(method, cfg) == adapters.trainable_parameter_count(adapter)


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
    adapter = adapters.build_smoa(cfg, w0)
    assert adapter.r_per_subspace == (8, 8)
    assert adapter.scale == (2.0, 2.0)  # alpha=r=16 over r_k=8
    for k in range(2):
        assert adapter.A[k].shape == (8, 32)
        assert adapter.B[k].shape == (32, 8)
        assert not np.any(adapter.B[k])


def test_build_smoa_deterministic():
    cfg = cfg64(seed=13)
    w0 = random_weight(64, 64, np.random.default_rng(4))
    first = adapters.build_smoa(cfg, w0)
    second = adapters.build_smoa(cfg, w0)
    for a, b in zip(first.A, second.A):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(first.mod_blocks, second.mod_blocks):
        assert a.tobytes() == b.tobytes()


def test_mod_blocks_are_frozen():
    adapter = adapters.build_smoa(cfg64(), random_weight(64, 64, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        adapter.mod_blocks[0][0, 0] = 1.0


def test_delta_hand_case():
    # single subspace on diag(3, 2): the modulation block is the weight
    # itself, so the masked product keeps only the (0, 0) entry
    w0 = np.diag([3.0, 2.0])
    adapter = adapters.build_smoa(RunConfig(d_out=2, d_in=2, K=1, r=1, seed=0), w0)
    adapter.A[0][...] = [[1.0, 1.0]]
    adapter.B[0][...] = [[1.0], [0.0]]
    assert_allclose(adapters.delta(adapter), [[3.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_delta_rank_additivity():
    cfg = RunConfig(d_out=32, d_in=32, K=2, r=8, seed=1)
    w0 = random_weight(32, 32, np.random.default_rng(11))
    adapter = adapters.build_smoa(cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(12))
    update = adapters.delta(adapter)
    block_ranks = []
    for blk in adapter.blocks():
        block = blk.scale * (blk.B @ blk.A) * blk.mask
        block_ranks.append(numerical_rank(block))
    assert numerical_rank(update) == sum(block_ranks)


def test_merge_minus_w0_recovers_delta():
    cfg = cfg64(K=2, r=8)
    w0 = random_weight(64, 64, np.random.default_rng(21))
    adapter = adapters.build_smoa(cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(22), std=0.05)
    update = adapters.delta(adapter)
    recovered = adapters.merge(adapter, w0) - w0
    # one rounding of each entry against w0's scale is the best float sum can do
    assert_allclose(recovered, update, atol=np.abs(w0).max() * 2e-16)


def test_merge_rejects_shape_mismatch():
    adapter = adapters.build_smoa(cfg64(), random_weight(64, 64, np.random.default_rng(0)))
    with pytest.raises(ValidationError, match="shape"):
        adapters.merge(adapter, np.zeros((4, 4)))


def test_build_rejects_config_weight_mismatch():
    with pytest.raises(ValidationError, match="do not match"):
        adapters.build_smoa(cfg64(), np.zeros((8, 8)))


def test_build_baseline_rejects_unknown_kind():
    with pytest.raises(ValidationError, match="unknown baseline kind"):
        adapters.build_baseline("dora", cfg64(), np.zeros((64, 64)))


def test_lora_achieves_exact_rank():
    cfg = RunConfig(d_out=128, d_in=128, K=1, r=8, seed=2)
    w0 = random_weight(128, 128, np.random.default_rng(31))
    adapter = adapters.build_baseline("lora", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(32))
    assert numerical_rank(adapters.delta(adapter)) == 8


def test_hadamard_exceeds_factor_rank():
    cfg = RunConfig(d_out=128, d_in=128, K=1, r=8, seed=3)
    w0 = random_weight(128, 128, np.random.default_rng(41))
    adapter = adapters.build_baseline("hadamard_w0", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(42))
    assert numerical_rank(adapters.delta(adapter)) > 8


def test_block_lora_is_block_diagonal():
    cfg = RunConfig(d_out=16, d_in=16, K=2, r=4, seed=4)
    w0 = random_weight(16, 16, np.random.default_rng(51))
    adapter = adapters.build_baseline("block_lora", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(52))
    update = adapters.delta(adapter)
    assert not np.any(update[:8, 8:])
    assert not np.any(update[8:, :8])
    assert numerical_rank(update) == 4


def test_hadamard_reference_is_frozen_copy():
    cfg = RunConfig(d_out=8, d_in=8, K=1, r=2, seed=5)
    w0 = random_weight(8, 8, np.random.default_rng(61))
    adapter = adapters.build_baseline("hadamard_w0", cfg, w0)
    w0[0, 0] += 1.0
    assert adapter.reference[0, 0] != w0[0, 0]
    with pytest.raises(ValueError):
        adapter.reference[0, 0] = 0.0


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
        cfg = RunConfig(d_out=24, d_in=24, K=3, r=6, seed=seed)
        w0 = random_weight(24, 24, np.random.default_rng(seed))
        adapter = adapters.build_smoa(cfg, w0)
        adapters.randomize_factors(adapter, np.random.default_rng(seed + 100))
        for k, blk in enumerate(adapter.blocks()):
            block = blk.scale * (blk.B @ blk.A) * blk.mask
            bound = adapter.partition.sizes[k] * adapter.r_per_subspace[k]
            assert numerical_rank(block) <= bound


def test_degenerate_equal_spectrum_collapses_to_plain_rank():
    # every index set is a singleton when K = p on an equal spectrum, so
    # the blocks are 1x1 and the measured rank cannot exceed r
    for seed in range(5):
        w0 = random_weight(16, 16, np.random.default_rng(seed), spectrum="equal")
        cfg = RunConfig(d_out=16, d_in=16, K=16, r=16, seed=seed)
        adapter = adapters.build_smoa(cfg, w0)
        adapters.randomize_factors(adapter, np.random.default_rng(seed + 7))
        assert numerical_rank(adapters.delta(adapter)) <= 16


@pytest.mark.parametrize("method", adapters.METHODS)
def test_save_load_roundtrip(method, tmp_path):
    cfg = RunConfig(d_out=24, d_in=24, K=3, r=6, seed=8)
    w0 = random_weight(24, 24, np.random.default_rng(71))
    adapter = adapters.build_adapter(method, cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(72))
    written = adapters.save_adapter(adapter, tmp_path / "ckpt")
    assert all(p.exists() for p in written)
    loaded = adapters.load_adapter(tmp_path / "ckpt")
    assert loaded.kind == adapter.kind
    assert adapters.delta(loaded).tobytes() == adapters.delta(adapter).tobytes()
    assert loaded.r_per_subspace == tuple(adapter.r_per_subspace)
    assert loaded.scale == tuple(adapter.scale)


def test_randomize_factors_is_seed_deterministic():
    cfg = cfg64()
    w0 = random_weight(64, 64, np.random.default_rng(81))
    first = adapters.build_smoa(cfg, w0)
    second = adapters.build_smoa(cfg, w0)
    adapters.randomize_factors(first, np.random.default_rng(9))
    adapters.randomize_factors(second, np.random.default_rng(9))
    assert adapters.delta(first).tobytes() == adapters.delta(second).tobytes()
    assert np.any(first.B[0])


def _saved_manifest(tmp_path):
    cfg = RunConfig(d_out=8, d_in=8, K=2, r=4, seed=3)
    adapter = adapters.build_smoa(cfg, random_weight(8, 8, np.random.default_rng(3)))
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


@pytest.mark.parametrize("text", ['{"kind": "smoa", ', "[]", '{"kind": "\xe9"}'])
def test_load_adapter_malformed_manifest_is_format_error(tmp_path, text):
    path = _saved_manifest(tmp_path)
    path.write_text(text, encoding="latin-1")
    with pytest.raises(FormatError, match="manifest"):
        adapters.load_adapter(tmp_path / "ckpt")
