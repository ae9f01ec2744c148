import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoa import adapters, blas, rank_analysis
from smoa.cli import main
from smoa.errors import FormatError, ValidationError
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


def test_numerical_rank_rejects_bad_tolerance():
    with pytest.raises(ValidationError, match="tol_factor"):
        rank_analysis.numerical_rank(np.eye(2), tol_factor=0.0)


@pytest.mark.parametrize("tol_factor", [float("nan"), float("inf"), float("-inf")])
def test_numerical_rank_rejects_non_finite_tolerance(tol_factor):
    with pytest.raises(ValidationError, match="finite and positive"):
        rank_analysis.numerical_rank(np.eye(4), tol_factor)


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
