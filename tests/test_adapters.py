import dataclasses
import json
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
from smoa.matrix_io import RunConfig
from smoa.rank_analysis import numerical_rank
from smoa.spectral import EmptySubspaceWarning, decompose, modulation_tensor
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
    assert adapters.param_count(method, cfg) == adapter.params.size


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
    assert adapter.scale == (2.0, 2.0)  # alpha=r=16 over r_k=8
    for k in range(2):
        assert adapter.A[k].shape == (8, 32)
        assert adapter.B[k].shape == (32, 8)
        assert not np.any(adapter.B[k])


def test_build_smoa_deterministic():
    cfg = cfg64(seed=13)
    w0 = random_weight(64, 64, np.random.default_rng(4))
    first = adapters.build_adapter("smoa", cfg, w0)
    second = adapters.build_adapter("smoa", cfg, w0)
    for a, b in zip(first.A, second.A):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(first.masks, second.masks):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d_out=st.integers(2, 40), d_in=st.integers(2, 40), k_pick=st.integers(1, 6),
       seed=st.integers(0, 2**16), spiked=st.booleans())
def test_smoa_masks_equal_blocks_of_the_modulation_tensors(d_out, d_in, k_pick, seed, spiked):
    # build_adapter forms each mask from the block's singular triples alone;
    # a different GEMM split may round differently, so the reference slice
    # of the full tensor is matched to 1e-14 of the block's largest entry
    K = min(k_pick, d_out, d_in)
    rng = np.random.default_rng(seed)
    w0 = random_weight(d_out, d_in, rng, spectrum="equal" if spiked else "decaying")
    if spiked:
        w0[0] *= 100.0  # empties the leading subspaces
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        adapter = adapters.build_adapter("smoa", RunConfig(d_out=d_out, d_in=d_in, K=K, r=K,
                                                           seed=seed), w0)
    dec = decompose(w0)
    for k, mask in enumerate(adapter.masks):
        (r0, r1), (c0, c1) = adapter.layout.row_ranges[k], adapter.layout.col_ranges[k]
        ref = modulation_tensor(dec, adapter.partition, k)[r0:r1, c0:c1]
        assert mask.shape == ref.shape and mask.flags.c_contiguous
        assert_allclose(mask, ref, rtol=0, atol=1e-14 * np.abs(ref).max())


def test_mod_blocks_are_frozen():
    w0 = random_weight(64, 64, np.random.default_rng(0))
    adapter = adapters.build_adapter("smoa", cfg64(), w0)
    with pytest.raises(ValueError):
        adapter.masks[0][0, 0] = 1.0


def test_delta_hand_case():
    # single subspace on diag(3, 2): the modulation block is the weight
    # itself, so the masked product keeps only the (0, 0) entry
    w0 = np.diag([3.0, 2.0])
    adapter = adapters.build_adapter("smoa", RunConfig(d_out=2, d_in=2, K=1, r=1, seed=0), w0)
    adapter.A[0][...] = [[1.0, 1.0]]
    adapter.B[0][...] = [[1.0], [0.0]]
    assert_allclose(adapters.delta(adapter), [[3.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_delta_rank_additivity():
    cfg = RunConfig(d_out=32, d_in=32, K=2, r=8, seed=1)
    w0 = random_weight(32, 32, np.random.default_rng(11))
    adapter = adapters.build_adapter("smoa", cfg, w0)
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


def test_build_rejects_config_weight_mismatch():
    with pytest.raises(ValidationError, match="do not match"):
        adapters.build_adapter("smoa", cfg64(), np.zeros((8, 8)))


def test_build_baseline_rejects_unknown_kind():
    with pytest.raises(ValidationError, match="unknown method"):
        adapters.build_adapter("dora", cfg64(), np.zeros((64, 64)))


@pytest.mark.parametrize("method", adapters.METHODS)
def test_adapter_rejects_rank_zero_block(method):
    # a rank-0 block has a 0-column B, which write_matrix cannot save
    adapter = adapters.build_adapter(method, cfg64(K=2, r=4),
                                     random_weight(64, 64, np.random.default_rng(3)))
    A, B = list(adapter.A), list(adapter.B)
    A[-1], B[-1] = A[-1][:0], B[-1][:, :0]
    with pytest.raises(ValidationError, match="has rank 0, must be ≥ 1"):
        dataclasses.replace(adapter, A=A, B=B)


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
    cfg = RunConfig(d_out=128, d_in=128, K=1, r=8, seed=2)
    w0 = random_weight(128, 128, np.random.default_rng(31))
    adapter = adapters.build_adapter("lora", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(32))
    assert numerical_rank(adapters.delta(adapter)) == 8


def test_hadamard_exceeds_factor_rank():
    cfg = RunConfig(d_out=128, d_in=128, K=1, r=8, seed=3)
    w0 = random_weight(128, 128, np.random.default_rng(41))
    adapter = adapters.build_adapter("hadamard_w0", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(42))
    assert numerical_rank(adapters.delta(adapter)) > 8


def test_block_lora_is_block_diagonal():
    cfg = RunConfig(d_out=16, d_in=16, K=2, r=4, seed=4)
    w0 = random_weight(16, 16, np.random.default_rng(51))
    adapter = adapters.build_adapter("block_lora", cfg, w0)
    adapters.randomize_factors(adapter, np.random.default_rng(52))
    update = adapters.delta(adapter)
    assert not np.any(update[:8, 8:])
    assert not np.any(update[8:, :8])
    assert numerical_rank(update) == 4


def test_hadamard_reference_is_frozen_copy():
    cfg = RunConfig(d_out=8, d_in=8, K=1, r=2, seed=5)
    w0 = random_weight(8, 8, np.random.default_rng(61))
    adapter = adapters.build_adapter("hadamard_w0", cfg, w0)
    w0[0, 0] += 1.0
    assert adapter.masks[0][0, 0] != w0[0, 0]
    with pytest.raises(ValueError):
        adapter.masks[0][0, 0] = 0.0


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
        adapter = adapters.build_adapter("smoa", cfg, w0)
        adapters.randomize_factors(adapter, np.random.default_rng(seed + 100))
        for k, blk in enumerate(adapter.blocks()):
            block = blk.scale * (blk.B @ blk.A) * blk.mask
            bound = adapter.partition.sizes[k] * adapter.r_per_subspace[k]
            assert numerical_rank(block) <= bound


def test_degenerate_equal_spectrum_collapses_to_plain_rank():
    # the blocks are 1x1 when K = p, so the measured rank cannot exceed r;
    # on an equal spectrum, rounding in the cumulative energy leaves I_1
    # empty, which warns
    for seed in range(5):
        w0 = random_weight(16, 16, np.random.default_rng(seed), spectrum="equal")
        cfg = RunConfig(d_out=16, d_in=16, K=16, r=16, seed=seed)
        with pytest.warns(EmptySubspaceWarning, match="I_1"):
            adapter = adapters.build_adapter("smoa", cfg, w0)
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


def assert_factors_view_params(adapter):
    # params laid out A_0, B_0, A_1, B_1, ...: a write into params shows in
    # every factor, at its offset
    adapter.params[...] = np.arange(adapter.params.size)
    start = 0
    for a, b in zip(adapter.A, adapter.B):
        for t in (a, b):
            assert_array_equal(t.ravel(), np.arange(start, start + t.size))
            start += t.size
    assert start == adapter.params.size
    assert adapter.params.dtype == np.float64


@pytest.mark.parametrize("method", adapters.METHODS)
def test_factors_are_views_of_params(method, tmp_path):
    cfg = cfg64(K=3, r=7, d_in=40)
    adapter = adapters.build_adapter(method, cfg, random_weight(64, 40,
                                                                np.random.default_rng(5)))
    assert_factors_view_params(adapter)
    adapters.save_adapter(adapter, tmp_path / "ckpt")
    assert_factors_view_params(adapters.load_adapter(tmp_path / "ckpt"))
    A = [np.ones(a.shape) for a in adapter.A]
    replaced = dataclasses.replace(adapter, A=A)
    assert_factors_view_params(replaced)
    assert not np.shares_memory(replaced.params, adapter.params)
    assert all(np.all(a == 1.0) for a in A)  # the constructor copied them


def test_factors_cannot_be_rebound():
    adapter = adapters.build_adapter("smoa", cfg64(), random_weight(64, 64,
                                                                    np.random.default_rng(6)))
    with pytest.raises(TypeError):
        adapter.A[0] = np.zeros(adapter.A[0].shape)
    with pytest.raises(TypeError):
        adapter.B[1] = np.zeros(adapter.B[1].shape)


@pytest.mark.parametrize("method", adapters.METHODS)
def test_randomize_factors_equals_per_tensor_draws(method):
    # reference: one draw per tensor, in the order A_0, B_0, A_1, B_1, ...
    w0 = random_weight(64, 64, np.random.default_rng(7))
    adapter = adapters.build_adapter(method, cfg64(K=3, r=9), w0)
    adapters.randomize_factors(adapter, np.random.default_rng(8), std=0.3)
    rng = np.random.default_rng(8)
    for a, b in zip(adapter.A, adapter.B):
        assert_array_equal(a, rng.normal(0.0, 0.3, size=a.shape))
        assert_array_equal(b, rng.normal(0.0, 0.3, size=b.shape))


def test_randomize_factors_is_seed_deterministic():
    cfg = cfg64()
    w0 = random_weight(64, 64, np.random.default_rng(81))
    first = adapters.build_adapter("smoa", cfg, w0)
    second = adapters.build_adapter("smoa", cfg, w0)
    adapters.randomize_factors(first, np.random.default_rng(9))
    adapters.randomize_factors(second, np.random.default_rng(9))
    assert adapters.delta(first).tobytes() == adapters.delta(second).tobytes()
    assert np.any(first.B[0])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(adapters.METHODS), d_out=st.integers(2, 11),
       d_in=st.integers(2, 11), k_pick=st.integers(1, 11), r_extra=st.integers(0, 4),
       seed=st.integers(0, 2**16))
def test_save_load_save_is_byte_identical(method, d_out, d_in, k_pick, r_extra, seed):
    # rectangular shapes and K that need not divide d_out or d_in
    K = min(k_pick, d_out, d_in)
    rng = np.random.default_rng(seed)
    w0 = random_weight(d_out, d_in, rng)
    cfg = RunConfig(d_out=d_out, d_in=d_in, K=K, r=K + r_extra, seed=seed)
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
    cfg = RunConfig(d_out=6, d_in=5, K=2, r=3, seed=0)
    adapter = adapters.build_adapter(method, cfg, random_weight(6, 5, np.random.default_rng(4)))
    written = adapters.save_adapter(adapter, tmp_path / "ckpt")
    files = [t["file"] for t in expected["tensors"]] + ["ckpt.manifest.json"]
    assert [p.name for p in written] == files
    assert json.loads((tmp_path / "ckpt.manifest.json").read_text()) == expected


def _saved_manifest(tmp_path, method="smoa"):
    cfg = RunConfig(d_out=8, d_in=8, K=2, r=4, seed=3)
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
    ("smoa", lambda m: m.update(K=1), "not the 1-block layout"),
    ("smoa", lambda m: m.update(d_out=9), "not the 2-block layout"),
    ("smoa", lambda m: m.update(scale=[1.0]), "needs 2 of each"),
    ("smoa", lambda m: m.update(kind="dora"), "unknown method"),
    ("smoa", lambda m: m.update(K="2"), "not supported"),
    ("smoa", lambda m: m.update(scale=2.0), "float"),
    ("smoa", lambda m: m.update(scale=[float("nan"), 2.0]), "finite and positive"),
    ("smoa", lambda m: m["tensors"][0].update(shape=[2, 5]), "manifest says"),
    ("smoa", lambda m: m.update(r_per_subspace=[2, 3]), "r_per_subspace"),
    ("smoa", lambda m: m.update(index_sets=m["index_sets"][:1]), "partition"),
    ("smoa", lambda m: m.update(index_sets=[[0, 1, 2], [2, 3, 4, 5, 6, 7]]), "partition"),
    ("smoa", lambda m: m.update(shares=[1.0]), "partition"),
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
        "shifted-row-ranges", "K-1-on-K-2", "d_out", "short-scale", "unknown-kind",
        "string-K", "scalar-scale", "nan-scale",
        "tensor-shape", "r_per_subspace", "index-set-count", "index-sets-overlap",
        "short-shares", "partition-on-block-lora", "duplicate-entry", "entry-beyond-K",
        "mask-role-of-another-kind"])
def test_load_adapter_inconsistent_manifest_is_format_error(tmp_path, method, corrupt,
                                                            message):
    path = _saved_manifest(tmp_path, method)
    manifest = json.loads(path.read_text())
    corrupt(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=message):
        adapters.load_adapter(tmp_path / "ckpt")


@pytest.mark.parametrize("text", ['{"kind": "smoa", ', "[]", '{"kind": "\xe9"}'])
def test_load_adapter_malformed_manifest_is_format_error(tmp_path, text):
    path = _saved_manifest(tmp_path)
    path.write_text(text, encoding="latin-1")
    with pytest.raises(FormatError, match="manifest"):
        adapters.load_adapter(tmp_path / "ckpt")
