#!/usr/bin/env python3
"""Build the subspace-modulated adapter and its baselines, inspect their
updates, and check the parameter accounting that makes budget-matched
comparisons possible.
"""

import tempfile
from pathlib import Path

import numpy as np

from smoa import (
    RunConfig,
    build_adapter,
    delta,
    load_adapter,
    merge,
    numerical_rank,
    param_count,
    random_weight,
    randomize_factors,
    save_adapter,
)

rng = np.random.default_rng(1)
w0 = random_weight(64, 64, rng)

print("=== construction and the zero-init guarantee ===")
cfg = RunConfig(K=2, r=16, seed=42)
adapter = build_adapter("smoa", cfg, w0)
scales = tuple(blk.scale for blk in adapter.blocks)
print(f"subspace ranks: {adapter.r_per_subspace}, scales: {scales}")
print(f"update is exactly zero at init: {not np.any(delta(adapter))}")
print(f"merge returns the host weight bit-for-bit: "
      f"{merge(adapter, w0).tobytes() == w0.tobytes()}")

# the counts follow from the method, the config and the weight's shape;
# lora and hadamard_w0 are one full-matrix block and ignore K
print("\n=== parameter accounting at d=64, r=16, K=2 ===")
for method in ("smoa", "lora", "block_lora", "hadamard_w0"):
    c = RunConfig(K=2, r=16, seed=0)
    print(f"{method:12s} r=16: {param_count(method, c, w0.shape):5d} trainable entries")
flexible = RunConfig(K=2, r=16, seed=0, mode="flexible")
print(f"{'smoa':12s} r=16 flexible: {param_count('smoa', flexible, w0.shape):5d} "
      f"(per-subspace rank stays 16, budget doubles)")
lora_half = RunConfig(K=2, r=8, seed=0)
print(f"budget match: smoa (r=16, K=2) = {param_count('smoa', cfg, w0.shape)} entries, "
      f"plain low-rank at r=8 = {param_count('lora', lora_half, w0.shape)} entries")

print("\n=== achievable update ranks with random factors ===")
for method, r in (("lora", 8), ("block_lora", 16), ("smoa", 16), ("hadamard_w0", 8)):
    c = RunConfig(K=2, r=r, seed=3)
    a = build_adapter(method, c, w0)
    randomize_factors(a, np.random.default_rng(7))
    print(f"{method:12s} ({param_count(method, c, w0.shape)} params): "
          f"rank(update) = {numerical_rank(delta(a))}")

print("\n=== adapter state round-trips through tensors plus a manifest ===")
randomize_factors(adapter, np.random.default_rng(9))
with tempfile.TemporaryDirectory() as tmp:
    written = save_adapter(adapter, Path(tmp) / "ckpt")
    print(f"wrote {len(written)} files, e.g. {written[0].name}, {written[-1].name}")
    loaded = load_adapter(Path(tmp) / "ckpt")
    same = delta(loaded).tobytes() == delta(adapter).tobytes()
    print(f"reloaded update identical: {same}")
