#!/usr/bin/env python3
"""Train budget-matched adapters on a planted-update task and compare
final losses.

The task plants a rank-48 update on the two diagonal blocks of a 64x64
weight (the support blocked adapters can reach), with noiseless targets.
At an equal budget of 1024 trainable entries, the subspace-modulated
adapter (r=16, K=2) fits the high-rank planted update substantially
better than the plain low-rank baseline (r=8), whose update rank is
capped at 8.
"""

import numpy as np

from smoa import TrainConfig, param_count, train_seeds

STEPS = 2000
SEEDS = (0, 1, 2)

configs = {
    method: TrainConfig(d=64, target_rank=48, n_samples=128, seed=SEEDS[0], target_blocks=2,
                        r=r, K=K, steps=STEPS)
    for method, r, K in (("smoa", 16, 2), ("lora", 8, 1))
}
# one call per method builds and trains every seed in lockstep (lr 1e-3,
# full batch); each seed's trace is the one it would reach trained alone
traces = {method: train_seeds(method, cfg, len(SEEDS))[1] for method, cfg in configs.items()}

for i, seed in enumerate(SEEDS):
    print(f"--- seed {seed} ---")
    for method, cfg in configs.items():
        trace = traces[method][i]
        print(f"{method:5s} ({param_count(method, cfg.run_config(method))} params): "
              f"loss {trace[0]:.4f} -> {trace[-1]:.4f} "
              f"(checkpoints: {trace[0]:.3f}, {trace[500]:.3f}, "
              f"{trace[1000]:.3f}, {trace[2000]:.3f})")

smoa_med = float(np.median(traces["smoa"][:, -1]))
lora_med = float(np.median(traces["lora"][:, -1]))
print(f"\nmedian final loss: subspace-modulated {smoa_med:.4f}, "
      f"plain low-rank {lora_med:.4f}")
print(f"the structured adapter ends {(1 - smoa_med / lora_med) * 100:.0f}% lower "
      f"at the same parameter budget")
