"""The benchmark's workloads: config files, CLI invocations and units of work.

Every workload is a list of ``smoa`` CLI invocations run from one output
directory, with their config files in a sibling ``cfg`` directory.  The
workload seed only picks the inputs; seed 0 reproduces the acceptance
suite (the d=128 sweep of criterion 5 and the capacity runs of criterion 9).
"""

from __future__ import annotations

from dataclasses import dataclass

SWEEP_SEEDS = 20
CAPACITY_SEEDS = 5


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    kind: str  # "sweep" or "train"
    d: int
    rtol: float  # stated relative tolerance for output floats (see check.py)
    train_seeds: int = 1
    steps: int = 0
    n_samples: int = 0
    target_rank: int = 0


# Sweep floats are norms of freshly built updates: 1 vs 2 BLAS threads moves
# them by at most 8.3e-16 relative (seed 0).  Trained floats pass through
# AdamW, which amplifies reordered rounding: 1 vs 2 threads moves them by up
# to 1.7e-11 of check.py's base at d=512 (seeds 0-9), so rtol 1e-6 leaves
# room for reordered arithmetic and still fails on a wrong gradient.
WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-d128", kind="sweep", d=128, rtol=1e-9),
        Workload("train-capacity-d64", kind="train", d=64, rtol=1e-6,
                 train_seeds=CAPACITY_SEEDS, steps=2000, n_samples=128, target_rank=48),
        Workload("train-d512", kind="train", d=512, rtol=1e-6,
                 steps=60, n_samples=1024, target_rank=384),
    )
}

# (method, r, K) of the adapters each train workload trains, in order.
TRAIN_METHODS = (("smoa", 16, 2), ("lora", 8, 1))


def sweep_config(seed: int) -> dict:
    """The acceptance sweep; seed n uses the weight seeds [20n, 20n + 20)."""
    return {"methods": ["smoa", "lora", "block_lora", "hadamard_w0"], "d": 128,
            "r_values": [2, 4, 8, 16], "K_values": [1, 2, 4],
            "n_seeds": SWEEP_SEEDS, "base_seed": SWEEP_SEEDS * seed}


def train_config(w: Workload, seed: int, r: int, K: int) -> dict:
    """Planted-task config; seed n trains task seeds [n*s, n*s + s) for s seeds."""
    return {"d": w.d, "target_rank": w.target_rank, "n_samples": w.n_samples,
            "seed": w.train_seeds * seed, "target_blocks": 2, "r": r, "K": K,
            "steps": w.steps}


def configs(w: Workload, seed: int) -> dict[str, dict]:
    """Config file name -> JSON content."""
    if w.kind == "sweep":
        return {"sweep.json": sweep_config(seed)}
    return {f"{method}.json": train_config(w, seed, r, K) for method, r, K in TRAIN_METHODS}


def invocations(w: Workload) -> list[list[str]]:
    """CLI argv lists, run with the output directory as working directory."""
    if w.kind == "sweep":
        return [["rank-bench", "--config", "../cfg/sweep.json", "--out", "sweep.csv"]]
    return [["train", "--config", f"../cfg/{method}.json", "--method", method,
             "--out-prefix", method, "--seeds", str(w.train_seeds)]
            for method, _, _ in TRAIN_METHODS]


def units_per_pass(w: Workload, rows_written: int) -> int:
    """Sweep: CSV rows written.  Train: optimizer steps over every method and seed."""
    if w.kind == "sweep":
        return rows_written
    return w.steps * w.train_seeds * len(TRAIN_METHODS)
