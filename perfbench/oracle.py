"""Reference outputs for the benchmark's workloads, computed without ``smoa``.

This is an independent, straight-line numpy rendering of what the CLI
invocations of a workload must write: the rank-sweep CSV and sidecar,
the loss traces, the serialized adapters, and each invocation's stdout.
It follows the arithmetic of the package as of the benchmark's
definition, operation for operation, so at the same BLAS thread count
its bytes equal the CLI's.  A later change that reorders floating-point
work is then measured against it by tolerance instead of by hash.

The sweep caches one SVD and one set of modulation blocks per host
weight; the results are the same bytes as the CLI's per-row rebuilds.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from workloads import TRAIN_METHODS, Workload, sweep_config, train_config

METHODS = ("smoa", "lora", "block_lora", "hadamard_w0")
REPORT_HEADER = "method,d,r,K,seed,param_count,numerical_rank,frobenius_error"
FULL_MATRIX = ("lora", "hadamard_w0")


def axis_ranges(n, K):
    base, extra = divmod(n, K)
    edges = [0]
    for k in range(K):
        edges.append(edges[-1] + base + (1 if k < extra else 0))
    return [(edges[k], edges[k + 1]) for k in range(K)]


def subspace_ranks(r, K):
    base, extra = divmod(r, K)
    return [base + (1 if k < extra else 0) for k in range(K)]


def random_weight(d, rng):
    sigma = np.arange(1, d + 1, dtype=np.float64) ** -0.5
    qu, _ = np.linalg.qr(rng.standard_normal((d, d)))
    qv, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = (qu * sigma) @ qv.T
    w *= np.sqrt(d * d) / np.linalg.norm(w)
    return w


def decompose(w):
    U, sigma, Vt = np.linalg.svd(w, full_matrices=False)
    for j in range(U.shape[1]):
        nz = np.flatnonzero(U[:, j])
        if nz.size and U[nz[0], j] < 0:
            U[:, j] = -U[:, j]
            Vt[j, :] = -Vt[j, :]
    return U, sigma, Vt


def index_sets(sigma, K):
    partial = np.cumsum(sigma)
    energy = partial / partial[-1]
    bins = np.searchsorted(np.arange(1, K + 1, dtype=np.float64) / K, energy, side="left")
    sets = [np.flatnonzero(bins == k) for k in range(K)]
    per_index = np.diff(energy, prepend=0.0)
    shares = [float(per_index[s].sum()) for s in sets]
    return sets, shares


def smoa_masks(dec, K):
    """Index sets, energy shares and the K diagonal modulation blocks."""
    U, sigma, Vt = dec
    d = U.shape[0]
    sets, shares = index_sets(sigma, K)
    masks = []
    for k, ((r0, r1), (c0, c1)) in enumerate(zip(axis_ranges(d, K), axis_ranges(d, K))):
        full = (U[:, sets[k]] * sigma[sets[k]]) @ Vt[sets[k], :]
        masks.append(np.ascontiguousarray(full[r0:r1, c0:c1]))
    return sets, shares, masks


class Adapter:
    """kind, K diagonal blocks (rows, cols, mask or None, A, B, scale) and,
    for smoa, its index sets and shares."""

    def __init__(self, kind, d, K, r, seed, w0=None, smoa=None, init_std=0.02):
        self.kind, self.d = kind, d
        self.ranks = subspace_ranks(r, K)
        self.ranges = list(zip(axis_ranges(d, K), axis_ranges(d, K)))
        rng = np.random.default_rng(seed)
        self.A, self.B, self.scale = [], [], []
        for k, ((r0, r1), (c0, c1)) in enumerate(self.ranges):
            self.A.append(rng.normal(0.0, init_std, size=(self.ranks[k], c1 - c0)))
            self.B.append(np.zeros((r1 - r0, self.ranks[k])))
            self.scale.append(float(r) / self.ranks[k])
        self.sets = self.shares = None
        if kind == "smoa":
            self.sets, self.shares, self.masks = smoa
        elif kind == "hadamard_w0":
            self.masks = [w0.copy()]
        else:
            self.masks = [None] * K

    def delta(self):
        out = np.zeros((self.d, self.d))
        for ((r0, r1), (c0, c1)), mask, A, B, s in zip(self.ranges, self.masks, self.A,
                                                         self.B, self.scale):
            update = s * (B @ A)
            if mask is not None:
                update = update * mask
            out[r0:r1, c0:c1] += update
        return out


def numerical_rank(m, tol_factor=1e-10):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol_factor * s[0] * max(m.shape)))


def param_count(method, d, r, K):
    if method in FULL_MATRIX:
        return r * 2 * d
    return sum(rk * (r1 - r0 + c1 - c0)
               for rk, ((r0, r1), (c0, c1)) in zip(subspace_ranks(r, K),
                                                   zip(axis_ranges(d, K), axis_ranges(d, K))))


# ---------------------------------------------------------------------------
# writers, matching the CLI's file formats

def write_matrix(arr, path):
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBII", b"SMOA", 1, *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def write_json(obj, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_adapter(adapter, prefix, out):
    tensors = []

    def emit(role, k, arr):
        name = f"{prefix}.{role}{k}.smoa"
        write_matrix(arr, out / name)
        tensors.append({"role": role, "subspace": k, "shape": list(arr.shape), "file": name})

    for k in range(len(adapter.A)):
        emit("A", k, adapter.A[k])
        emit("B", k, adapter.B[k])
    if adapter.kind == "smoa":
        for k, mask in enumerate(adapter.masks):
            emit("mod_block", k, mask)
    elif adapter.kind == "hadamard_w0":
        emit("reference", 0, adapter.masks[0])
    manifest = {
        "kind": adapter.kind, "d_out": adapter.d, "d_in": adapter.d,
        "K": len(adapter.ranges),
        "row_ranges": [list(rr) for rr, _ in adapter.ranges],
        "col_ranges": [list(cr) for _, cr in adapter.ranges],
        "r_per_subspace": list(adapter.ranks), "scale": list(adapter.scale),
        "tensors": tensors,
    }
    if adapter.kind == "smoa":
        manifest["index_sets"] = [s.tolist() for s in adapter.sets]
        manifest["shares"] = list(adapter.shares)
    write_json(manifest, out / f"{prefix}.manifest.json")


# ---------------------------------------------------------------------------
# workloads

def sweep(cfg, out: Path) -> list[str]:
    """Write sweep.csv and its sidecar; return the rank-bench stdout lines."""
    d, tol = cfg["d"], 1e-10
    seeds = [cfg["base_seed"] + i for i in range(cfg["n_seeds"])]
    weights = {s: random_weight(d, np.random.default_rng([d, s])) for s in seeds}
    decs = {s: decompose(w) for s, w in weights.items()}
    masks = {}
    rows, skipped = [], []
    for r in cfg["r_values"]:
        for K in cfg["K_values"]:
            if K > r:  # every budget of the sweep's other cells matches exactly
                skipped.append(f"(d={d}, r={r}, K={K}): skipped, r must be ≥ K in budget mode")
                continue
            for method in cfg["methods"]:
                r_m, k_m = (r // K, 1) if method in FULL_MATRIX else (r, K)
                pc = param_count(method, d, r_m, k_m)
                for s in seeds:
                    smoa = None
                    if method == "smoa":
                        if (s, K) not in masks:
                            masks[s, K] = smoa_masks(decs[s], K)
                        smoa = masks[s, K]
                    adapter = Adapter(method, d, k_m, r_m, s, w0=weights[s], smoa=smoa)
                    fill = np.random.default_rng([s, METHODS.index(method), r, K])
                    for k in range(len(adapter.A)):
                        adapter.A[k][...] = fill.normal(0.0, 1.0, size=adapter.A[k].shape)
                        adapter.B[k][...] = fill.normal(0.0, 1.0, size=adapter.B[k].shape)
                    update = adapter.delta()
                    rows.append((method, d, r_m, K, s, pc, numerical_rank(update, tol),
                                 float(np.linalg.norm(update))))
    rows.sort(key=lambda row: row[:5])
    with open(out / "sweep.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write(REPORT_HEADER + "\n")
        for method, d_, r_, k_, s, pc, rank, fro in rows:
            fh.write(f"{method},{d_},{r_},{k_},{s},{pc},{rank},{fro:.17g}\n")
    full = {"methods": list(cfg["methods"]), "d": d, "r_values": list(cfg["r_values"]),
            "K_values": list(cfg["K_values"]), "n_seeds": cfg["n_seeds"],
            "base_seed": cfg["base_seed"], "tol_factor": tol, "budget_match": True}
    blob = json.dumps(full, sort_keys=True, separators=(",", ":"))
    write_json({
        "config": full, "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "tolerance_factor": tol,
        "factor_fill": ("factors filled with seeded standard-normal entries; "
                        "measures achievable rank, not the zero-init state"),
        "weight_generator": "seeded random weight with sigma_i ~ i^-1/2",
        "skipped": skipped,
    }, out / "sweep.csv.meta.json")

    lines = [f"skipped {reason}" for reason in skipped]
    cells = {}
    for row in rows:
        cells.setdefault((row[0], row[2], row[3]), []).append(row[6])
    lines.append("method,r,K,median_rank")
    lines += [f"{m},{r},{k},{float(np.median(v)):g}" for (m, r, k), v in sorted(cells.items())]
    lines += [f"wrote {len(rows)} rows to sweep.csv", "wrote sweep.csv.meta.json"]
    return lines


def make_task(d, target_rank, n_samples, seed, target_blocks):
    rng = np.random.default_rng(seed)
    w0 = random_weight(d, rng)
    target = np.zeros((d, d))
    base, extra = divmod(target_rank, target_blocks)
    for k, ((r0, r1), (c0, c1)) in enumerate(zip(axis_ranges(d, target_blocks),
                                                 axis_ranges(d, target_blocks))):
        for _ in range(base + (1 if k < extra else 0)):
            u = rng.standard_normal(r1 - r0)
            u = u / np.linalg.norm(u)
            v = rng.standard_normal(c1 - c0)
            v = v / np.linalg.norm(v)
            target[r0:r1, c0:c1] += np.outer(u, v)
    target *= 0.1 * np.linalg.norm(w0) / np.linalg.norm(target)
    x = rng.standard_normal((n_samples, d))
    return w0, x, x @ (w0 + target).T


def adamw(param, grad, m, v, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def train_run(adapter, w0, x, targets, steps):
    """Full-batch AdamW on the factors; returns the loss trace of steps+1 entries."""
    m_a, v_a = [np.zeros_like(a) for a in adapter.A], [np.zeros_like(a) for a in adapter.A]
    m_b, v_b = [np.zeros_like(b) for b in adapter.B], [np.zeros_like(b) for b in adapter.B]
    trace = np.empty(steps + 1)
    for i in range(steps + 1):
        pred = x @ w0.T + x @ adapter.delta().T
        trace[i] = float(np.mean((pred - targets) ** 2))
        if i == steps:
            break
        g = ((2.0 / pred.size) * (pred - targets)).T @ x
        grads_a, grads_b = [], []
        for ((r0, r1), (c0, c1)), mask, A, B, s in zip(adapter.ranges, adapter.masks,
                                                         adapter.A, adapter.B, adapter.scale):
            gk = g[r0:r1, c0:c1]
            if mask is not None:
                gk = gk * mask
            grads_b.append(s * (gk @ A.T))
            grads_a.append(s * (B.T @ gk))
        for k in range(len(adapter.A)):
            adamw(adapter.A[k], grads_a[k], m_a[k], v_a[k], i + 1)
            adamw(adapter.B[k], grads_b[k], m_b[k], v_b[k], i + 1)
    return trace


def train(w: Workload, cfg, method, out: Path) -> list[str]:
    """Write one train invocation's loss traces and adapters; return its stdout lines."""
    lines, initials, finals = [], [], []
    for seed in range(cfg["seed"], cfg["seed"] + w.train_seeds):
        w0, x, targets = make_task(cfg["d"], cfg["target_rank"], cfg["n_samples"], seed,
                                   cfg["target_blocks"])
        K = cfg["K"] if method == "smoa" else 1
        smoa = smoa_masks(decompose(w0), K) if method == "smoa" else None
        adapter = Adapter(method, cfg["d"], K, cfg["r"], seed, w0=w0, smoa=smoa)
        trace = train_run(adapter, w0, x, targets, cfg["steps"])
        with open(out / f"{method}.seed{seed}.loss.csv", "w", encoding="ascii",
                  newline="\n") as fh:
            fh.write("step,loss\n")
            for i, loss in enumerate(trace):
                fh.write(f"{i},{loss:.17g}\n")
        save_adapter(adapter, f"{method}.seed{seed}", out)
        initials.append(trace[0])
        finals.append(trace[-1])
        lines.append(f"seed {seed}: initial loss {trace[0]:.6e}, final loss {trace[-1]:.6e}")
    count = sum(a.size + b.size for a, b in zip(adapter.A, adapter.B))
    lines.append(f"trainable parameters: {count}")
    if w.train_seeds > 1:
        lines.append(f"median initial loss: {np.median(initials):.6e}")
        lines.append(f"median final loss: {np.median(finals):.6e}")
    lines.append(f"wrote loss traces and adapters under prefix {method}")
    return lines


def write_expected(w: Workload, seed: int, out: Path) -> None:
    """Write every output file of the workload, and stdout.<i>.txt per invocation."""
    out.mkdir(parents=True, exist_ok=True)
    if w.kind == "sweep":
        stdouts = [sweep(sweep_config(seed), out)]
    else:
        stdouts = [train(w, train_config(w, seed, r, K), method, out)
                   for method, r, K in TRAIN_METHODS]
    for i, lines in enumerate(stdouts):
        (out / f"stdout.{i}.txt").write_text("".join(line + "\n" for line in lines),
                                             encoding="utf-8")
