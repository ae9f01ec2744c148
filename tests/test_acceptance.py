"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The expensive artifacts (the d=128 rank sweep
and the capacity-separation training runs) are computed once in
module-scope fixtures; the determinism criterion recomputes both from
scratch and compares output bytes.
"""

import time
import warnings

import numpy as np
import pytest

from smoa import (
    METHODS,
    EmptySubspaceWarning,
    RunConfig,
    TrainConfig,
    build_adapter,
    cumulative_energy,
    decompose,
    delta,
    grad_check,
    make_task,
    merge,
    modulation_tensor,
    numerical_rank,
    param_count,
    partition,
    randomize_factors,
    random_weight,
    rank_sweep,
    train_seeds,
    write_loss_trace,
    write_report,
)

from conftest import flat_weight

SWEEP_KWARGS = dict(methods=list(METHODS), d=128, r_values=[2, 4, 8, 16],
                    K_values=[1, 2, 4], n_seeds=20, tol_factor=1e-10,
                    budget_match=True, base_seed=0)

CAPACITY_SEEDS = (0, 1, 2, 3, 4)  # consecutive: train_seeds runs cfg.seed onwards
CAPACITY_STEPS = 2000

GRID_DIMS = (8, 16)
GRID_K = (1, 2, 4)
GRID_R = (2, 4)


def _report(criterion, ok, detail):
    print(f"criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def _grid_config(K, r, seed):
    # budget mode needs r >= K; the K > r corners of the grid run flexible
    mode = "budget" if r >= K else "flexible"
    return RunConfig(K=K, r=r, seed=seed, mode=mode)


@pytest.fixture(scope="module")
def sweep():
    start = time.monotonic()
    report = rank_sweep(**SWEEP_KWARGS)
    return report, time.monotonic() - start


def _run_capacity():
    # one train_seeds call per method builds and trains all five seeds
    finals, traces = {}, {}
    for method, K, r in (("smoa", 2, 16), ("lora", 1, 8)):
        cfg = TrainConfig(d=64, target_rank=48, n_samples=128, seed=CAPACITY_SEEDS[0],
                          target_blocks=2, r=r, K=K, steps=CAPACITY_STEPS)
        _, traces[method] = train_seeds(method, cfg, len(CAPACITY_SEEDS))
        finals[method] = traces[method][:, -1]
    return finals, traces


@pytest.fixture(scope="module")
def capacity():
    start = time.monotonic()
    finals, traces = _run_capacity()
    return finals, traces, time.monotonic() - start


def test_criterion_1_partition_suite():
    start = time.monotonic()
    checked = 0
    for d in (16, 64):
        for seed in range(50):
            dec = decompose(random_weight(d, d, np.random.default_rng(seed)))
            energy = cumulative_energy(dec.sigma)
            slack = dec.sigma[0] / dec.sigma.sum()
            for K in (1, 2, 4, 8):
                with warnings.catch_warnings(record=True):
                    # at d=16 the leading direction leaves I_1 empty for K=8
                    warnings.simplefilter("always", EmptySubspaceWarning)
                    part = partition(energy, K)
                covered = np.concatenate(list(part.index_sets))
                assert np.array_equal(np.sort(covered), np.arange(d)), "cover failed"
                for s in part.index_sets:
                    if len(s) > 1:
                        assert np.all(np.diff(s) == 1), "contiguity failed"
                for k, s in enumerate(part.index_sets):
                    if len(s):
                        assert abs(part.shares[k] - 1.0 / K) <= slack, "share balance failed"
                checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    _report(1, ok, f"partition suite over {checked} (W0, K) cases in {elapsed:.1f}s")
    assert ok, f"partition suite took {elapsed:.1f}s, budget is 10s"


def test_criterion_2_reconstruction_identity():
    start = time.monotonic()
    ks = (1, 2, 4, 8)
    for d in (16, 64):
        for seed in range(50):
            w0 = random_weight(d, d, np.random.default_rng(1000 + seed))
            dec = decompose(w0)
            with warnings.catch_warnings(record=True):
                # at d=16 the leading direction leaves I_1 empty for K=8
                warnings.simplefilter("always", EmptySubspaceWarning)
                part = partition(cumulative_energy(dec.sigma), ks[seed % 4])
            total = sum(modulation_tensor(dec, part, k) for k in range(part.K))
            err = np.linalg.norm(total - w0) / np.linalg.norm(w0)
            assert err <= 1e-9, f"reconstruction error {err:.2e} at d={d} seed={seed}"
    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    _report(2, ok, f"sum of modulation tensors rebuilds W0 within 1e-9 (100 seeds, {elapsed:.1f}s)")
    assert ok, f"reconstruction suite took {elapsed:.1f}s, budget is 10s"


def test_criterion_3_zero_init_identity():
    cases = 0
    for d in GRID_DIMS:
        w0 = random_weight(d, d, np.random.default_rng(d))
        for K in GRID_K:
            for r in GRID_R:
                cfg = _grid_config(K, r, seed=7)
                for method in METHODS:
                    adapter = build_adapter(method, cfg, w0)
                    update = delta(adapter)
                    assert not np.any(update), f"nonzero delta for {method} {cfg}"
                    assert merge(adapter, w0).tobytes() == w0.tobytes(), \
                        f"merge not bit-identical for {method}"
                    cases += 1
    _report(3, True, f"zero delta and bit-identical merge across {cases} configs")


def test_criterion_4_gradient_check():
    start = time.monotonic()
    worst = 0.0
    worst_case = None
    for d in GRID_DIMS:
        for K in GRID_K:
            for r in GRID_R:
                task = make_task(d, max(1, d // 2), 2 * d, 0.0, seed=d * 100 + K * 10 + r)
                cfg = _grid_config(K, r, seed=11)
                for method in METHODS:
                    adapter = build_adapter(method, cfg, task.w0)
                    randomize_factors(adapter, np.random.default_rng([d, K, r, 5]), std=0.5)
                    rep = grad_check(adapter, task)
                    if rep.max_rel_error > worst:
                        worst = rep.max_rel_error
                        worst_case = (method, d, K, r)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(4, ok, f"max analytic-vs-central-difference error {worst:.2e} "
                   f"(worst at {worst_case}, {elapsed:.1f}s)")
    assert worst <= 1e-6, f"gradient mismatch {worst:.2e} at {worst_case}"
    assert elapsed < 60.0, f"gradient grid took {elapsed:.1f}s, budget is 60s"


def test_criterion_5_bound_soundness(sweep):
    report, elapsed = sweep
    violations = report.violations()
    ok = not violations and elapsed < 300.0
    _report(5, ok, f"{len(report.rows)} sweep rows at d=128, "
                   f"{len(violations)} bound violations ({elapsed:.1f}s)")
    assert not violations, f"rank bound violated: {violations[:3]}"
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s, budget is 300s"


def test_criterion_6_rank_ordering(sweep):
    report, _ = sweep
    lora_rows = [row for row in report.rows if row.method == "lora"]
    assert lora_rows, "no lora rows in sweep"
    for row in lora_rows:
        assert row.numerical_rank == row.r, \
            f"lora rank {row.numerical_rank} != r {row.r} at K={row.K} seed={row.seed}"
    medians = report.median_ranks()
    comparisons = []
    for r in (4, 8, 16):
        for K in (1, 2, 4):
            budgets = (
                {row.param_count for row in report.rows
                 if row.method == "smoa" and row.K == K and row.r == r}
                | {row.param_count for row in report.rows
                   if row.method == "lora" and row.K == K and row.r == r // K}
            )
            assert max(budgets) - min(budgets) <= 0.01 * max(budgets), \
                f"budgets not matched within 1% at r={r} K={K}: {budgets}"
            lora_med = medians[("lora", r // K, K)]
            smoa_med = medians[("smoa", r, K)]
            assert lora_med < smoa_med, \
                f"ordering violated at r={r} K={K}: lora {lora_med} vs smoa {smoa_med}"
            comparisons.append((r, K, lora_med, smoa_med))
    _report(6, True, f"median rank lora < smoa in all {len(comparisons)} "
                     f"budget-matched cells; lora rank always exactly r")


def test_criterion_7_degeneracy():
    # equal singular values with K = p: blocks are 1x1, and the measured
    # rank cannot exceed r; rounding in the cumulative energy leaves I_1
    # empty, which warns
    d = 16
    ranks = []
    for seed in range(20):
        w0 = flat_weight(d, d, np.random.default_rng(2000 + seed))
        cfg = RunConfig(K=d, r=d, seed=seed)
        with pytest.warns(EmptySubspaceWarning, match="I_1"):
            adapter = build_adapter("smoa", cfg, w0)
        randomize_factors(adapter, np.random.default_rng(3000 + seed))
        measured = numerical_rank(delta(adapter))
        ranks.append(measured)
        assert measured <= cfg.r, f"rank {measured} exceeds r={cfg.r} at seed {seed}"
    _report(7, True, f"equal-spectrum K=p case: max measured rank {max(ranks)} <= r={d} "
                     f"in all 20 seeds")


def test_criterion_8_parameter_accounting():
    budget = param_count("smoa", RunConfig(K=2, r=16, seed=0), (64, 64))
    flexible = param_count("smoa", RunConfig(K=2, r=16, seed=0, mode="flexible"), (64, 64))
    ok = budget == 1024 and flexible == 2048
    _report(8, ok, f"budget count {budget} == 2dr/K, flexible count {flexible} == 2rd")
    assert budget == 1024
    assert flexible == 2048


def test_criterion_9_capacity_separation(capacity):
    finals, _, elapsed = capacity
    smoa_median = float(np.median(finals["smoa"]))
    lora_median = float(np.median(finals["lora"]))
    margin = 1.0 - smoa_median / lora_median
    ok = smoa_median < lora_median and margin >= 0.20 and elapsed < 300.0
    _report(9, ok, f"median final MSE smoa {smoa_median:.4f} vs lora {lora_median:.4f}, "
                   f"margin {margin * 100:.1f}% ({elapsed:.0f}s)")
    assert smoa_median < lora_median, "strict median ordering violated"
    assert margin >= 0.20, f"margin {margin * 100:.1f}% below the recorded 20% threshold"
    assert elapsed < 300.0, f"capacity runs took {elapsed:.0f}s, budget is 300s"


def test_criterion_10_determinism(sweep, capacity, tmp_path):
    report, _ = sweep
    _, traces, _ = capacity
    first_csv = tmp_path / "sweep_a.csv"
    second_csv = tmp_path / "sweep_b.csv"
    write_report(report.rows, first_csv)
    write_report(rank_sweep(**SWEEP_KWARGS).rows, second_csv)
    sweep_ok = first_csv.read_bytes() == second_csv.read_bytes()

    _, repeat_traces = _run_capacity()
    train_ok = True
    for method in ("smoa", "lora"):
        for i, seed in enumerate(CAPACITY_SEEDS):
            a = tmp_path / f"{method}_{seed}_a.csv"
            b = tmp_path / f"{method}_{seed}_b.csv"
            write_loss_trace(traces[method][i], a)
            write_loss_trace(repeat_traces[method][i], b)
            train_ok = train_ok and a.read_bytes() == b.read_bytes()

    ok = sweep_ok and train_ok
    _report(10, ok, "repeated sweep and capacity runs produced byte-identical CSV outputs")
    assert sweep_ok, "sweep CSV not byte-identical across reruns"
    assert train_ok, "loss trace CSVs not byte-identical across reruns"
