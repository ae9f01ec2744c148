import dataclasses
import json
import os
import signal
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoa import adapters, blas, rank_analysis, workers
from smoa.cli import main
from smoa.errors import FormatError, NumericalError, ValidationError
from smoa.adapters import FULL_MATRIX
from smoa.matrix_io import METHODS, RunConfig, write_json, write_report
from smoa.spectral import EmptySubspaceWarning, EnergyPartition, decompose
from smoa.training import random_weight

from conftest import blas_threads, flat_weight, requires_pin


def test_numerical_rank_identity():
    assert rank_analysis.numerical_rank(np.eye(5)) == 5


def test_numerical_rank_outer_product():
    rng = np.random.default_rng(0)
    assert rank_analysis.numerical_rank(np.outer(rng.standard_normal(12),
                                                 rng.standard_normal(9))) == 1


def test_numerical_rank_factor_product():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((32, 4))
    a = rng.standard_normal((4, 32))
    assert rank_analysis.numerical_rank(b @ a) == 4


def test_numerical_rank_zero_matrix():
    assert rank_analysis.numerical_rank(np.zeros((6, 3))) == 0


@pytest.mark.parametrize("path", ["matrix", "adapter-core", "adapter-update"])
def test_numerical_rank_threshold_scales_with_the_larger_dimension(path):
    # a 4 x 64 update with sigma = 1, then 1% above and 1% below the
    # threshold 1e-3 * sigma_max * max(shape), then 0: its rank is 2, and a
    # threshold scaled by min(shape) or by 1 / max(shape) would count 3
    tol_factor, threshold = 1e-3, 1e-3 * 64
    sigma = np.array([1.0, 1.01 * threshold, 0.99 * threshold, 0.0])
    rng = np.random.default_rng(40)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((64, 4)))
    if path == "matrix":
        measured = (u * sigma) @ v.T
    else:
        # lora r=3 < 4 ranks its QR core; r=4 ranks its update
        r = 3 if path == "adapter-core" else 4
        measured = adapters.build_adapter("lora", RunConfig(K=1, r=r, seed=0), np.ones((4, 64)))
        block = measured.blocks[0]
        assert block.scale == 1.0
        block.B[...] = (u * sigma)[:, :r]
        block.A[...] = v.T[:r]
    assert rank_analysis.numerical_rank(measured, tol_factor) == 2


def test_numerical_rank_rejects_bad_tolerance():
    with pytest.raises(ValidationError, match="tol_factor"):
        rank_analysis.numerical_rank(np.eye(2), tol_factor=0.0)


@pytest.mark.parametrize("tol_factor", [float("nan"), float("inf"), float("-inf")])
def test_numerical_rank_rejects_non_finite_tolerance(tol_factor):
    with pytest.raises(ValidationError, match=f"^tol_factor must be finite, got {tol_factor}$"):
        rank_analysis.numerical_rank(np.eye(4), tol_factor)


@pytest.mark.parametrize("tol_factor", [True, "1e-10", None], ids=["bool", "str", "none"])
def test_numerical_rank_rejects_a_tolerance_that_is_no_float(tol_factor):
    # as SweepConfig does: a bool would otherwise pass as 1.0 and rank every matrix 0
    with pytest.raises(ValidationError,
                       match=f"^tol_factor must be of type float, got {tol_factor!r}$"):
        rank_analysis.numerical_rank(np.eye(4), tol_factor)


def test_numerical_rank_of_what_is_no_matrix_raises_validation_error():
    with pytest.raises(ValidationError, match="^matrix must hold numbers: could not convert"):
        rank_analysis.numerical_rank("abc")


def fake_partition(sizes):
    edges = np.cumsum([0] + list(sizes))
    sets = tuple(np.arange(edges[k], edges[k + 1]) for k in range(len(sizes)))
    shares = np.array([s / float(edges[-1]) for s in sizes])
    return EnergyPartition(index_sets=sets, shares=shares)


def reference_bound(method, cfg, shape, partition=None, w0_rank=None):
    """The per-method bound table, from the config and shape alone: r for lora,
    min(d_out, d_in, r * rank(W0)) for hadamard_w0, and the capped sum of
    min(rows_k, cols_k, r_k) or min(rows_k, cols_k, |I_k| * r_k) over the
    K-block layout for block_lora and smoa."""
    p = min(shape)
    if method == "lora":
        return cfg.r
    if method == "hadamard_w0":
        return min(p, cfg.r * (p if w0_rank is None else w0_rank))
    layout = adapters.block_layout(*shape, cfg.K)
    ranks = adapters.subspace_ranks(cfg)
    sizes = partition.sizes if method == "smoa" else (1,) * cfg.K
    return min(p, sum(min(r1 - r0, c1 - c0, sizes[k] * ranks[k])
                      for k, (r0, r1, c0, c1) in enumerate(layout)))


def built(method, d_out, d_in, **kwargs):
    cfg = RunConfig(seed=0, **kwargs)
    w0 = random_weight(d_out, d_in, np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        return adapters.build_adapter(method, cfg, w0)


def test_bound_lora_is_r():
    adapter = built("lora", d_out=64, d_in=64, K=1, r=8)
    assert rank_analysis.theoretical_bound(adapter) == 8


def test_bound_lora_is_capped_by_the_smaller_dimension():
    # the per-method table gives r = 10, but a product of 8x10 and 10x6
    # factors has rank at most 6
    adapter = built("lora", d_out=8, d_in=6, K=1, r=10)
    assert reference_bound("lora", RunConfig(K=1, r=10, seed=0), (8, 6)) == 10
    assert rank_analysis.theoretical_bound(adapter) == 6


def test_bound_hadamard_uses_reference_rank():
    adapter = built("hadamard_w0", d_out=128, d_in=128, K=1, r=8)
    assert rank_analysis.theoretical_bound(adapter) == 128
    assert rank_analysis.theoretical_bound(adapter, w0_rank=3) == 24


@pytest.mark.parametrize("w0_rank, message", [
    (-3, "w0_rank must be ≥ 0, got -3"),
    (3.0, "w0_rank must be of type int, got 3.0"),
    (True, "w0_rank must be of type int, got True"),
], ids=["negative", "float", "bool"])
def test_bound_rejects_a_reference_rank_that_is_no_count(w0_rank, message):
    adapter = built("hadamard_w0", d_out=16, d_in=16, K=1, r=2)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        rank_analysis.theoretical_bound(adapter, w0_rank=w0_rank)


def test_bound_block_lora_sums_block_ranks():
    adapter = built("block_lora", d_out=64, d_in=64, K=2, r=16)
    assert rank_analysis.theoretical_bound(adapter) == 16


def test_bound_smoa_tightened_by_block_dims():
    # per-block min(rows, cols, |I_k| * r_k): min(32, 40) + min(32, 472)
    adapter = built("smoa", d_out=64, d_in=64, K=2, r=16)
    adapter = dataclasses.replace(adapter, partition=fake_partition([5, 59]))
    assert rank_analysis.theoretical_bound(adapter) == 64


def test_bound_smoa_degenerates_to_plain_rank_with_singletons():
    # every index set a singleton and r_k = 1: the bound collapses to r
    adapter = built("smoa", d_out=16, d_in=16, K=16, r=16)
    adapter = dataclasses.replace(adapter, partition=fake_partition([1] * 16))
    assert rank_analysis.theoretical_bound(adapter) == 16


def test_sweep_lora_rows_have_exact_rank():
    report = rank_analysis.rank_sweep(["lora"], 64, [4], [1], 5)
    assert len(report.rows) == 5
    assert all(row.numerical_rank == 4 for row in report.rows)
    assert all(row.rank_upper_bound == 4 for row in report.rows)
    assert not report.violations()


def test_sweep_empty_methods_yields_metadata_only():
    report = rank_analysis.rank_sweep([], 32, [4], [1], 3)
    assert report.rows == []
    assert "config_hash" in report.metadata


def test_sweep_skips_invalid_budget_combinations():
    report = rank_analysis.rank_sweep(["smoa", "lora"], 32, [2], [4], 2)
    assert report.rows == []
    assert any("r must be ≥ K" in reason for reason in report.metadata["skipped"])


def test_sweep_budget_match_equalizes_param_counts():
    report = rank_analysis.rank_sweep(["smoa", "lora", "block_lora", "hadamard_w0"],
                                      64, [8], [2], 3)
    counts = {row.param_count for row in report.rows}
    assert counts == {512}  # 2*64*8/2


def test_sweep_smoa_beats_budget_matched_lora():
    report = rank_analysis.rank_sweep(["smoa", "lora"], 64, [8], [2], 20)
    medians = report.median_ranks()
    assert medians[("lora", 4, 2)] == 4.0
    assert medians[("smoa", 8, 2)] > 4.0
    assert not report.violations()


def test_sweep_rows_are_sorted_and_deterministic():
    kwargs = dict(methods=["lora", "smoa"], d=32, r_values=[4, 8], K_values=[1, 2],
                  n_seeds=3)
    first = rank_analysis.rank_sweep(**kwargs)
    second = rank_analysis.rank_sweep(**kwargs)
    assert first.rows == second.rows
    keys = [(row.method, row.d, row.r, row.K, row.seed) for row in first.rows]
    assert keys == sorted(keys)


def _reference_sweep_rows(methods, d, r_values, K_values, n_seeds):
    """rank_sweep's rows from a fresh build_adapter call per row, in the
    (r, K, method, seed) order, sorted as rank_sweep sorts them."""
    weights = [random_weight(d, d, np.random.default_rng([d, seed])) for seed in range(n_seeds)]
    rows = []
    for r in r_values:
        for K in K_values:
            if K > min(d, r):
                continue
            budget = adapters.param_count("smoa", RunConfig(K=K, r=r, seed=0), (d, d))
            for method in methods:
                r_m = r // K if method in FULL_MATRIX else r
                pc = adapters.param_count(method, RunConfig(K=K, r=r_m, seed=0), (d, d))
                if abs(pc - budget) > 0.01 * budget:
                    continue
                for seed, w0 in enumerate(weights):
                    run = RunConfig(K=K, r=r_m, seed=seed)
                    adapter = adapters.build_adapter(method, run, w0)
                    adapters.randomize_factors(
                        adapter, np.random.default_rng([seed, METHODS.index(method), r, K]))
                    rows.append(rank_analysis.RankRecord(
                        method=method, d=d, r=r_m, K=K, seed=seed, param_count=pc,
                        numerical_rank=rank_analysis.numerical_rank(adapter),
                        rank_upper_bound=rank_analysis.theoretical_bound(
                            adapter, w0_rank=rank_analysis.numerical_rank(w0)),
                        frobenius_norm=float(np.linalg.norm(adapters.delta(adapter)))))
    return sorted(rows, key=lambda row: (row.method, row.d, row.r, row.K, row.seed))


def test_sweep_decomposes_each_weight_once_per_k_and_matches_fresh_builds(monkeypatch):
    calls = []

    def counting_decompose(w0):
        calls.append(w0.shape)
        return decompose(w0)

    kwargs = dict(methods=list(METHODS), d=16, r_values=[2, 4], K_values=[1, 2], n_seeds=3)
    monkeypatch.setattr(adapters, "decompose", counting_decompose)
    report = rank_analysis.rank_sweep(**kwargs)
    monkeypatch.undo()
    # one smoa state per (seed, K): 3 seeds x 2 K, not one per smoa row (12)
    assert len(calls) == 6
    want = _reference_sweep_rows(**kwargs)
    assert len(report.rows) == len(want) == 48
    for got, row in zip(report.rows, want):
        assert dataclasses.astuple(got) == dataclasses.astuple(row)
        assert got.frobenius_norm.hex() == row.frobenius_norm.hex()


def test_sweep_same_weight_across_methods_per_seed():
    # hadamard bound depends on rank(W0), identical for both methods
    report = rank_analysis.rank_sweep(["smoa", "hadamard_w0"], 32, [4], [2], 2)
    by_method = {}
    for row in report.rows:
        by_method.setdefault(row.method, []).append(row)
    assert {row.seed for row in by_method["smoa"]} == {0, 1}


def test_report_csv_roundtrip_bytes(tmp_path):
    report = rank_analysis.rank_sweep(["lora"], 32, [4], [1], 3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(report.rows, a)
    write_report(rank_analysis.rank_sweep(["lora"], 32, [4], [1], 3).rows, b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "method,d,r,K,seed,param_count,numerical_rank,frobenius_error"


def test_report_sidecar_has_protocol_note(tmp_path):
    report = rank_analysis.rank_sweep(["lora"], 32, [4], [1], 1)
    path = tmp_path / "meta.json"
    write_json(report.metadata, path)
    body = path.read_text()
    assert "achievable rank" in body
    assert "config_hash" in body


def test_violations_detected():
    report = rank_analysis.RankReport(rows=[
        rank_analysis.RankRecord("lora", 8, 2, 1, 0, 32, 3, 2, 1.0),
        rank_analysis.RankRecord("lora", 8, 2, 1, 1, 32, 2, 2, 1.0),
    ])
    assert len(report.violations()) == 1


def test_sweep_without_budget_match_keeps_r():
    report = rank_analysis.rank_sweep(["lora"], 32, [8], [2], 2, budget_match=False)
    assert all(row.r == 8 for row in report.rows)
    assert all(row.numerical_rank == 8 for row in report.rows)


def test_median_rank_non_decreasing_in_r():
    report = rank_analysis.rank_sweep(["smoa", "lora", "block_lora", "hadamard_w0"],
                                      64, [2, 4, 8], [2], 5, budget_match=False)
    medians = report.median_ranks()
    for method in ("smoa", "lora", "block_lora", "hadamard_w0"):
        series = [medians[(method, r, 2)] for r in (2, 4, 8)]
        assert series == sorted(series), f"{method} medians not monotone in r: {series}"


@pytest.mark.parametrize("r", [8, 16])
def test_flexible_rank_non_decreasing_in_k(r):
    # fixed parameter budget 2rd in flexible mode; per-subspace rank r
    # saturates every block for r >= 8 at d=128 on the decaying spectrum
    # (at r=4, K=8 the 3-direction first subspace caps its block at 12)
    d = 128
    medians = []
    for K in (1, 2, 4, 8):
        ranks = []
        for seed in range(5):
            w0 = random_weight(d, d, np.random.default_rng([d, seed]))
            cfg = RunConfig(K=K, r=r, seed=seed, mode="flexible")
            assert adapters.param_count("smoa", cfg, w0.shape) == 2 * r * d
            adapter = adapters.build_adapter("smoa", cfg, w0)
            adapters.randomize_factors(adapter, np.random.default_rng([seed, K, r]))
            ranks.append(rank_analysis.numerical_rank(adapters.delta(adapter)))
        medians.append(float(np.median(ranks)))
    assert medians == sorted(medians), f"flexible-mode medians not monotone in K: {medians}"


# The adapter path of numerical_rank ranks an update from its blocks; the
# matrix path ranks the assembled delta.  Both must give the same integer.

def both_ranks(adapter, tol_factor=1e-10):
    return (rank_analysis.numerical_rank(adapter, tol_factor),
            rank_analysis.numerical_rank(adapters.delta(adapter), tol_factor))


def acceptance_sweep_adapters():
    """Every adapter of the d=128 acceptance sweep (4 methods, r in
    {2, 4, 8, 16}, K in {1, 2, 4}, 20 seeds), built and filled as
    rank_sweep builds and fills them: each (seed, K) smoa state is built
    once, with smoa_masks, and shared by that weight's smoa adapters."""
    d = 128
    for seed in range(20):
        w0 = random_weight(d, d, np.random.default_rng([d, seed]))
        states = {K: adapters.smoa_masks(w0, K) for K in (1, 2, 4)}
        for index, method in enumerate(METHODS):
            for r in (2, 4, 8, 16):
                for K in (1, 2, 4):
                    if K > r:
                        continue
                    cfg = RunConfig(K=K, r=r // K if method in FULL_MATRIX else r, seed=seed)
                    adapter = adapters.build_adapter(
                        method, cfg, w0, smoa_state=states[K] if method == "smoa" else None)
                    adapters.randomize_factors(adapter,
                                               np.random.default_rng([seed, index, r, K]))
                    yield (method, r, K, seed), cfg, adapter


@pytest.fixture(scope="module")
def acceptance_sweep():
    """The 880 acceptance-sweep adapters, built once for the tests below."""
    return list(acceptance_sweep_adapters())


def test_block_rank_equals_dense_rank_on_every_acceptance_sweep_row(acceptance_sweep):
    rows = [(key, *both_ranks(adapter)) for key, _, adapter in acceptance_sweep]
    assert len(rows) == 880
    assert [row for row in rows if row[1] != row[2]] == []


def test_bound_equals_reference_on_every_acceptance_sweep_row(acceptance_sweep):
    w0_ranks = [rank_analysis.numerical_rank(random_weight(128, 128,
                                                           np.random.default_rng([128, seed])))
                for seed in range(20)]
    rows = [(key, rank_analysis.theoretical_bound(adapter, w0_ranks[key[3]]),
             reference_bound(key[0], cfg, adapter.shape, adapter.partition, w0_ranks[key[3]]))
            for key, cfg, adapter in acceptance_sweep]
    assert len(rows) == 880
    assert [row for row in rows if row[1] != row[2]] == []


def test_block_rank_of_lora_is_r():
    cfg = RunConfig(K=1, r=6, seed=0)
    adapter = adapters.build_adapter("lora", cfg, random_weight(40, 24,
                                                                np.random.default_rng(2)))
    adapters.randomize_factors(adapter, np.random.default_rng(3))
    assert both_ranks(adapter) == (6, 6)


@pytest.mark.parametrize("tiny", [0, 1])
def test_block_ranks_share_one_threshold(tiny):
    # a block 1e-12 times smaller than the other falls below the global
    # threshold, wherever it sits in the layout
    cfg = RunConfig(K=2, r=8, seed=0)
    adapter = adapters.build_adapter("block_lora", cfg, random_weight(32, 32,
                                                                      np.random.default_rng(1)))
    adapters.randomize_factors(adapter, np.random.default_rng(2))
    adapter.blocks[tiny].B[...] *= 1e-12
    assert both_ranks(adapter) == (4, 4)


@pytest.mark.parametrize("method", METHODS)
def test_block_rank_of_zero_init_adapter_is_zero(method):
    cfg = RunConfig(K=2, r=4, seed=0)
    adapter = adapters.build_adapter(method, cfg, random_weight(16, 16,
                                                                np.random.default_rng(4)))
    assert both_ranks(adapter) == (0, 0)


def test_block_rank_rejects_bad_tolerance():
    cfg = RunConfig(K=2, r=4, seed=0)
    adapter = adapters.build_adapter("smoa", cfg, random_weight(16, 16,
                                                                np.random.default_rng(5)))
    with pytest.raises(ValidationError, match="tol_factor"):
        rank_analysis.numerical_rank(adapter, tol_factor=-1.0)


@pytest.mark.parametrize("method, tensor", [
    ("lora", "A"), ("lora", "B"), ("block_lora", "A"), ("block_lora", "B"),
    ("smoa", "A"), ("smoa", "B"), ("hadamard_w0", "B"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_block_rank_rejects_nonfinite_factors_like_dense_path(method, tensor, value):
    cfg = RunConfig(K=2, r=4, seed=0)
    adapter = adapters.build_adapter(method, cfg, random_weight(16, 16,
                                                                np.random.default_rng(6)))
    adapters.randomize_factors(adapter, np.random.default_rng(7))
    getattr(adapter.blocks[-1], tensor)[0, 0] = value
    for m in (adapter, adapters.delta(adapter)):
        with pytest.raises(FormatError, match="non-finite"):
            rank_analysis.numerical_rank(m)


@pytest.mark.parametrize("method", ["smoa", "hadamard_w0"])
def test_block_rank_rejects_nonfinite_mask(method):
    cfg = RunConfig(K=2, r=4, seed=0)
    adapter = adapters.build_adapter(method, cfg, random_weight(16, 16,
                                                                np.random.default_rng(8)))
    adapters.randomize_factors(adapter, np.random.default_rng(9))
    mask = adapter.blocks[-1].mask.copy()
    mask[0, 0] = np.nan
    adapter.blocks = adapter.blocks[:-1] + (adapter.blocks[-1]._replace(mask=mask),)
    with pytest.raises(FormatError, match="non-finite"):
        rank_analysis.numerical_rank(adapter)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d_out=st.integers(2, 32),
       d_in=st.integers(2, 32), k_pick=st.integers(1, 8),
       mode=st.sampled_from(["budget", "flexible"]), r_pick=st.integers(0, 8),
       seed=st.integers(0, 2**16), spiked=st.booleans(),
       zeroed=st.sampled_from(["none", "all", "one block"]))
def test_block_rank_equals_dense_rank_and_respects_bound(method, d_out, d_in, k_pick, mode,
                                                         r_pick, seed, spiked, zeroed):
    # rectangular shapes, K that need not divide d_out or d_in, both modes,
    # (spiked) one dominant singular value, which empties smoa subspaces,
    # and factors scaled to zero as a whole or in one block
    K = min(k_pick, d_out, d_in)
    r = K + r_pick if mode == "budget" else 1 + r_pick
    rng = np.random.default_rng(seed)
    w0 = (flat_weight if spiked else random_weight)(d_out, d_in, rng)
    if spiked:
        w0[0] *= 100.0
    cfg = RunConfig(K=K, r=r, seed=seed, mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubspaceWarning)
        adapter = adapters.build_adapter(method, cfg, w0)
    adapters.randomize_factors(adapter, rng)
    if zeroed == "all":
        for blk in adapter.blocks:
            blk.A[...] *= 0.0
            blk.B[...] *= 0.0
    elif zeroed == "one block":
        adapter.blocks[int(rng.integers(len(adapter.blocks)))].B[...] = 0.0
    block, dense = both_ranks(adapter)
    assert block == dense
    if zeroed == "all":
        assert block == 0
    w0_rank = rank_analysis.numerical_rank(w0)
    bound = rank_analysis.theoretical_bound(adapter, w0_rank)
    reference = reference_bound(method, cfg, w0.shape, adapter.partition, w0_rank)
    if method == "lora" and r > min(d_out, d_in):
        assert bound == min(d_out, d_in) < reference
    else:
        assert bound == reference
    assert block <= bound


@requires_pin
def test_rank_bench_writes_the_same_bytes_at_one_and_two_blas_threads(capsys, tmp_path,
                                                                     monkeypatch):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"methods": list(METHODS), "d": 128, "r_values": [2, 4, 8, 16],
                               "K_values": [1, 2, 4], "n_seeds": 1}))
    seen = []
    for module, name in ((rank_analysis, "_singular_values"), (adapters, "decompose")):
        spectrum = getattr(module, name)
        monkeypatch.setattr(module, name, lambda arr, spectrum=spectrum:
                            seen.append(blas._get_threads()) or spectrum(arr))
    outputs = []
    for threads in (1, 2):
        seen.clear()
        out_csv = tmp_path / f"threads{threads}.csv"
        with blas_threads(threads):
            code = main(["rank-bench", "--config", str(cfg), "--out", str(out_csv)])
        out = capsys.readouterr().out.replace(str(out_csv), "")
        outputs.append((code, out, out_csv.read_bytes(), set(seen)))
    (code_1, out_1, csv_1, seen_1), (code_2, out_2, csv_2, seen_2) = outputs
    assert (code_1, code_2) == (0, 0)
    # every spectrum of the sweep, the decompositions included, sees one thread
    assert (seen_1, seen_2) == ({1}, {1})
    assert csv_1.count(b"\n") == 1 + 44  # r=2 skips K=4
    assert csv_1 == csv_2
    assert out_1 == out_2


def test_weight_rank_equals_the_count_of_its_decomposition_sigma():
    # the 20 weights of the d=128 acceptance sweep
    d = 128
    for seed in range(20):
        w = random_weight(d, d, np.random.default_rng([d, seed]))
        sigma = decompose(w).sigma
        want = np.count_nonzero(sigma > 1e-10 * sigma.max() * d)
        assert rank_analysis.numerical_rank(w) == want


# A sweep at several BLAS threads splits its seeds into contiguous groups
# when its rows x 2**9 x d**2 multiply-adds pay for each group's fork
# (workers._FORK_MADDS): the calling process measures the
# first group, forked workers the others, and the caller merges their rows,
# warnings and errors in seed order.

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# 4 seeds x 16 rows at d=32: two forks' worth, so two processes where granted
SPLIT_SWEEP = dict(methods=list(METHODS), d=32, r_values=[2, 4], K_values=[1, 2], n_seeds=4,
                   base_seed=10)
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="one CPU: the sweep forks no worker")


def spy_forks(monkeypatch):
    """The pids of the processes that called os.fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def rank_bench(capsys, tmp_path, name, sweep=SPLIT_SWEEP):
    """smoa rank-bench on sweep: (exit code, stdout, stderr, CSV bytes,
    sidecar without its timestamp), with the output path taken out of stdout."""
    cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    cfg.write_text(json.dumps(sweep))
    code = main(["rank-bench", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    sidecar = None
    if code == 0:
        sidecar = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        sidecar.pop("timestamp")
    return (code, captured.out.replace(str(out), "OUT"), captured.err,
            out.read_bytes() if code == 0 else None, sidecar)


@requires_pin
def test_sweep_splits_only_above_its_work_floor(monkeypatch):
    small = dict(SPLIT_SWEEP, n_seeds=1)  # one seed: nothing to split
    below = dict(SPLIT_SWEEP, n_seeds=2)  # 32 rows at 2**9 x 32**2 each: one fork's worth
    assert 2 * 16 * 2**9 * 32**2 == workers._FORK_MADDS
    forks = spy_forks(monkeypatch)
    with blas_threads(2):
        rank_analysis.rank_sweep(**small)
        rank_analysis.rank_sweep(**below)
    assert forks == []
    with blas_threads(1):
        rank_analysis.rank_sweep(**SPLIT_SWEEP)
    assert forks == []
    with blas_threads(2):
        rank_analysis.rank_sweep(**SPLIT_SWEEP)
    assert forks == [os.getpid()] * (min(2, CPUS) - 1)


@requires_pin
def test_split_sweep_writes_the_bytes_of_the_one_process_sweep(capsys, tmp_path, monkeypatch):
    with blas_threads(1):
        one = rank_bench(capsys, tmp_path, "one")
    forks = spy_forks(monkeypatch)
    with blas_threads(2):
        split = rank_bench(capsys, tmp_path, "split")
    assert forks == [os.getpid()] * (min(2, CPUS) - 1)
    assert one[0] == 0 and one[3].count(b"\n") == 1 + 4 * 16
    assert split == one
    with blas_threads(2):
        rows = rank_analysis.rank_sweep(**SPLIT_SWEEP).rows
    with blas_threads(1):
        assert rank_analysis.rank_sweep(**SPLIT_SWEEP).rows == rows


def fail_at(monkeypatch, seeds):
    """Make _weight_rows raise seeds[seed], an exception, at those seeds, in
    whichever process measures them."""
    weight_rows = rank_analysis._weight_rows

    def failing(seed, *args):
        if seed in seeds:
            raise seeds[seed]
        return weight_rows(seed, *args)
    monkeypatch.setattr(rank_analysis, "_weight_rows", failing)


@requires_pin
@pytest.mark.parametrize("error, code", [
    (NumericalError("SVD did not converge at seed {}"), 2),
    (FormatError("matrix contains non-finite entries at seed {}"), 3),
], ids=["numerical", "format"])
@pytest.mark.parametrize("at", [(13,), (11, 13), (12, 13)],
                         ids=["in-the-worker", "in-both-groups", "twice-in-the-worker"])
def test_an_error_in_any_group_reaches_the_caller_as_the_one_process_sweep_raises_it(
        capsys, tmp_path, monkeypatch, error, code, at):
    # seeds 10-11 are measured in the calling process, 12-13 in the worker
    fail_at(monkeypatch, {seed: type(error)(str(error).format(seed)) for seed in at})
    first = str(error).format(at[0])
    forks = spy_forks(monkeypatch)
    results = []
    for threads in (1, 2):
        with blas_threads(threads):
            with pytest.raises(type(error), match=f"^{first}$"):
                rank_analysis.rank_sweep(**SPLIT_SWEEP)
            results.append(rank_bench(capsys, tmp_path, f"threads{threads}"))
    assert forks == [os.getpid()] * 2 * (min(2, CPUS) - 1)
    assert results[0] == results[1]
    label = {NumericalError: "numerical error", FormatError: "i/o error"}[type(error)]
    assert results[0][:3] == (code, "", f"smoa rank-bench: {label}: {first}\n")


@requires_pin
@needs_two_cpus
def test_a_worker_killed_by_a_signal_raises_numerical_error_naming_its_seeds(monkeypatch):
    weight_rows, caller = rank_analysis._weight_rows, os.getpid()

    def killed_in_a_worker(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return weight_rows(*args)
    monkeypatch.setattr(rank_analysis, "_weight_rows", killed_in_a_worker)
    with blas_threads(2):
        with pytest.raises(NumericalError, match="^the worker measuring seeds 12 to 13 was "
                                                 "killed by signal 9 before it finished$"):
            rank_analysis.rank_sweep(**SPLIT_SWEEP)


@requires_pin
def test_warnings_of_every_group_print_as_the_one_process_sweep_prints_them(capsys, tmp_path,
                                                                          monkeypatch):
    weight_rows = rank_analysis._weight_rows

    def warning(seed, *args):
        # one message per seed, in order, and one that every seed repeats
        warnings.warn(f"empty subspace index set(s): I_{seed}", EmptySubspaceWarning)
        warnings.warn("empty subspace index set(s): I_1", EmptySubspaceWarning)
        return weight_rows(seed, *args)
    monkeypatch.setattr(rank_analysis, "_weight_rows", warning)
    with blas_threads(1):
        one = rank_bench(capsys, tmp_path, "one")
    forks = spy_forks(monkeypatch)
    with blas_threads(2):
        split = rank_bench(capsys, tmp_path, "split")
    assert forks == [os.getpid()] * (min(2, CPUS) - 1)
    assert one[2] == "".join(f"smoa rank-bench: warning: empty subspace index set(s): I_{k}\n"
                             for k in (10, 1, 11, 12, 13))
    assert split == one
    with blas_threads(2), pytest.warns(EmptySubspaceWarning) as shown:
        rank_analysis.rank_sweep(**SPLIT_SWEEP)
    assert [str(w.message)[-4:] for w in shown] == [
        "I_10", " I_1", "I_11", " I_1", "I_12", " I_1", "I_13", " I_1"]


@requires_pin
def test_a_real_empty_subspace_in_a_split_sweep_prints_as_in_one_process(capsys, tmp_path,
                                                                          monkeypatch):
    # at d=16 the leading direction leaves I_1 empty for K=8, on every seed;
    # 64 seeds x 4 rows at 2**9 x 16**2 each: two forks' worth
    sweep = dict(methods=["smoa", "lora"], d=16, r_values=[8, 16], K_values=[8], n_seeds=64)
    with blas_threads(1):
        one = rank_bench(capsys, tmp_path, "one", sweep)
    forks = spy_forks(monkeypatch)
    with blas_threads(2):
        split = rank_bench(capsys, tmp_path, "split", sweep)
    assert forks == [os.getpid()] * (min(2, CPUS) - 1)
    assert one[2] == "smoa rank-bench: warning: empty subspace index set(s): I_1\n"
    assert split == one


@requires_pin
@needs_two_cpus
def test_a_split_sweep_kills_its_workers_when_the_calling_process_raises(monkeypatch):
    class Interrupted(Exception):
        pass

    caller = os.getpid()

    def raise_in_the_caller(*args):
        if os.getpid() == caller:
            raise Interrupted
        time.sleep(60)  # the worker is still measuring when the caller raises
    monkeypatch.setattr(rank_analysis, "_weight_rows", raise_in_the_caller)
    start = time.monotonic()
    with blas_threads(2):
        with pytest.raises(Interrupted):
            rank_analysis.rank_sweep(**SPLIT_SWEEP)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):  # the worker is reaped
        os.waitpid(-1, os.WNOHANG)
