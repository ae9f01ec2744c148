"""Numerical rank measurement and the rank-comparison sweep across methods.

``numerical_rank`` ranks an adapter from its blocks, without assembling
the update.  The blocks sit on disjoint row and column ranges, so the
update's singular values are the union of the blocks' singular values,
and one threshold applies to the union.  An unmasked block s (B A) of
rank r below both block dimensions has the nonzero singular values of
the r x r core s (R_B R_A^T), where R_B and R_A are the triangular QR
factors of B and A^T; every other block gets a full SVD of its update.
It forms every spectrum at one BLAS thread (blas.one_thread): a 128 x 128
values-only SVD takes about half the time there that it takes at two
threads, and gives the same bits at any count.

rank_sweep measures its rows at one BLAS thread, from the weight build
to the last row: random_weight, decompose and the mask products,
build_adapter, delta, numerical_rank (whose own pin is then a no-op) and
the norm column.  At d=128 each of these calls is faster at one thread
than at two, and larger sweeps are no slower.  A sweep's bytes are therefore
those of one thread at any caller's count.  Left at the caller's count,
the norm column (np.linalg.norm sums through BLAS) would move in its
last bits, and from d=256 up so would decompose's singular vectors, and
with them the smoa masks; no rank or bound depends on the count.

The pin leaves the caller's other threads idle, so the sweep splits its
seeds into as many contiguous groups as workers.pinned grants processes,
at most one per seed, and measures every group but the first in a forked
worker (workers.run_groups), which sends its rows back.  It splits only
where each group's share of rows x d**2 is at least _MIN_SHARE = 2**15,
such as 128 rows at d=16: below that, a worker's fork, result and reap
cost about what it saves (measured on a 2-vCPU box; the table is in
CHANGES.md).  Each group records the warnings its rows issue and stops
at the first SmoaError; the caller issues the groups' warnings again in
seed order and raises the lowest group's error, so a split sweep
returns, warns and raises as the one-process sweep does.  Where the
caller runs at one BLAS thread, as under OPENBLAS_NUM_THREADS=1, the
sweep stays in one process.

``theoretical_bound`` reads the rank bound off the same blocks: each
block's factor rank times the rank of its mask, capped by the block's
dimensions, summed and capped by min(d_out, d_in).

A sweep works on one weight at a time: it builds each seed's weight,
ranks it and measures every row of that weight before it builds the
next seed's, so it keeps no table of weights or of their ranks.  It
builds the weight's smoa state, its energy partition and mask
blocks, once per (weight, K) with smoa_masks and hands it to every smoa
row of that weight and K; the state depends on the weight and K alone,
so the rows are bit-identical to fresh builds.  The sweep keeps one
state at a time.

Sweeps fill the adapter factors with seeded Gaussian entries before
measuring: the zero-init state has rank 0 by construction, and the point
of the sweep is the achievable rank of the update.  Rows record the
built adapter's own rank parameter; with budget matching on, full-matrix
baselines are re-derived to r/K so every method in a sweep cell spends
the same trainable-parameter budget (asserted within 1% before
comparison).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from .adapters import (FULL_MATRIX, Adapter, Block, build_adapter, delta, param_count,
                       randomize_factors, smoa_masks)
from .blas import one_thread
from .errors import NumericalError, SmoaError, ValidationError
from .matrix_io import METHODS, RunConfig, SweepConfig, validate_matrix
from .training import random_weight
from .workers import pinned, run_groups

_METHOD_INDEX = {m: i for i, m in enumerate(METHODS)}
_MIN_SHARE = 2**15  # fewest rows x d**2 a sweep measures in each process it splits into


def numerical_rank(m, tol_factor: float = 1e-10) -> int:
    """Count singular values above tol_factor * sigma_max * max(rows, cols).

    m is a matrix or an Adapter.  An adapter is ranked block by block,
    without assembling its update: its singular values are the union of
    its blocks' singular values, sigma_max is the largest of them, and
    rows and cols are the adapter's shape.  An unmasked block s (B A)
    whose rank r is below both block dimensions contributes the singular
    values of its r x r core s (R_B R_A^T), with R_B and R_A the
    triangular QR factors of B and A^T; every other block contributes
    the singular values of its update.  The tolerance is scale-aware,
    and tol_factor must be finite and positive; the zero matrix and the
    zero update have rank 0.
    """
    if not (math.isfinite(tol_factor) and tol_factor > 0):
        raise ValidationError(f"tol_factor must be finite and positive, got {tol_factor}")
    with one_thread():
        if isinstance(m, Adapter):
            shape = m.shape
            s = np.concatenate([_block_singular_values(blk) for blk in m.blocks])
        else:
            arr = validate_matrix(m)
            shape = arr.shape
            s = _singular_values(arr)
    threshold = tol_factor * s.max() * max(shape)
    return int(np.count_nonzero(s > threshold))


def _block_singular_values(blk: Block) -> np.ndarray:
    """Singular values of one block's update, from its QR core where the
    block is unmasked and of low rank: with B = Q_B R_B and A^T = Q_A R_A,
    s (B A) = Q_B (s R_B R_A^T) Q_A^T has the core's nonzero singular values.
    """
    rank = blk.A.shape[0]
    if blk.mask is None and rank < min(blk.row1 - blk.row0, blk.col1 - blk.col0):
        r_b = np.linalg.qr(validate_matrix(blk.B), mode="r")
        r_a = np.linalg.qr(validate_matrix(blk.A).T, mode="r")
        core = blk.scale * (r_b @ r_a.T)
    else:
        core = blk.update()
    return _singular_values(validate_matrix(core))


def _singular_values(arr: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def theoretical_bound(adapter: Adapter, w0_rank: int | None = None) -> int:
    """Rank upper bound for any update the adapter's blocks can produce.

    A Hadamard product has rank at most the product of its factors'
    ranks, so block k of rank r_k reaches at most r_k * q_k, capped by
    the block's dimensions: q_k is 1 for an unmasked block, |I_k| for a
    block masked by the k-th modulation tensor (the adapter has a
    partition), and rank(W0) for a block masked by W0, where w0_rank
    defaults to full rank.  The blocks are disjoint, so their bounds add,
    and the sum is capped by min(d_out, d_in).
    """
    p = min(adapter.shape)
    total = 0
    for k, blk in enumerate(adapter.blocks):
        if blk.mask is None:
            q = 1
        elif adapter.partition is not None:
            q = adapter.partition.sizes[k]
        else:
            q = p if w0_rank is None else w0_rank
        total += min(blk.row1 - blk.row0, blk.col1 - blk.col0, blk.A.shape[0] * q)
    return min(p, total)


@dataclass(frozen=True)
class RankRecord:
    method: str
    d: int
    r: int
    K: int
    seed: int
    param_count: int
    numerical_rank: int
    rank_upper_bound: int
    frobenius_norm: float


@dataclass
class RankReport:
    rows: list[RankRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def violations(self) -> list[RankRecord]:
        return [row for row in self.rows if row.numerical_rank > row.rank_upper_bound]

    def median_ranks(self) -> dict[tuple[str, int, int], float]:
        """Median measured rank per (method, r, K) cell."""
        cells: dict[tuple[str, int, int], list[int]] = {}
        for row in self.rows:
            cells.setdefault((row.method, row.r, row.K), []).append(row.numerical_rank)
        return {key: float(np.median(vals)) for key, vals in sorted(cells.items())}


def rank_sweep(methods, d: int, r_values, K_values, n_seeds: int,
               tol_factor: float = 1e-10, budget_match: bool = True,
               base_seed: int = 0) -> RankReport:
    """Measure update ranks over a (method, r, K, seed) grid at size d.

    Every method in a cell sees the same seeded decaying-spectrum weight.
    The cells are planned first, in (r, K, method) order: invalid
    combinations (r < K in budget mode, budgets that cannot be matched
    within 1%) skip the cell, with a reason in metadata["skipped"],
    instead of failing the sweep.  The rows are then measured one weight
    at a time: each seed's weight is built and ranked, and its rows are
    measured K by K before the next seed's weight is built.  Each
    weight's smoa state is built once per K, on its first smoa row, and
    dropped before the next (seed, K) builds its own.  Each row's factor
    fill is seeded by (seed, method, r, K) alone, and rows are sorted into
    (method, d, r, K, seed) order, so the loop order changes no output.
    The rows are measured at one BLAS thread, so they do not depend on the
    caller's thread count, and at several threads the seeds split over
    forked workers (see the module docstring), which changes no output,
    warning or error either.
    """
    cfg = SweepConfig(methods=tuple(methods), d=d, r_values=tuple(r_values),
                      K_values=tuple(K_values), n_seeds=n_seeds, base_seed=base_seed,
                      tol_factor=tol_factor, budget_match=budget_match)
    skipped: list[str] = []
    cells: dict[int, list[tuple[str, int, int, int]]] = {}
    for r in cfg.r_values:
        for K in cfg.K_values:
            if K > min(d, r):
                reason = (f"(d={d}, r={r}, K={K}): skipped, r must be ≥ K in budget mode"
                          if K <= d else f"(d={d}, r={r}, K={K}): skipped, K exceeds d")
                skipped.append(reason)
                continue
            reference = param_count("smoa", RunConfig(K=K, r=r, seed=0), (d, d))
            for method in cfg.methods:
                r_m = r // K if budget_match and method in FULL_MATRIX else r
                pc = param_count(method, RunConfig(K=K, r=r_m, seed=0), (d, d))
                if budget_match and abs(pc - reference) > 0.01 * reference:
                    reason = (f"(method={method}, d={d}, r={r}, K={K}): skipped, "
                              f"parameter count {pc} not within 1% of budget {reference}")
                    skipped.append(reason)
                    continue
                cells.setdefault(K, []).append((method, r, r_m, pc))

    seeds = range(cfg.base_seed, cfg.base_seed + cfg.n_seeds)
    work = len(seeds) * sum(len(planned) for planned in cells.values()) * d * d
    with pinned() as processes:
        n_groups = max(1, min(processes, len(seeds), work // _MIN_SHARE))
        groups = run_groups(lambda group: _measure(group, cells, d, tol_factor), seeds,
                            n_groups, "measuring seeds")
    rows: list[RankRecord] = []
    for group_rows, caught, error in groups:
        for warning in caught:
            _warn_again(*warning)
        if error is not None:
            raise error
        rows += group_rows
    rows.sort(key=lambda row: (row.method, row.d, row.r, row.K, row.seed))
    config = asdict(cfg)
    config_blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    metadata = {
        "config": config,
        "config_hash": hashlib.sha256(config_blob.encode()).hexdigest(),
        "tolerance_factor": tol_factor,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "factor_fill": ("factors filled with seeded standard-normal entries; "
                        "measures achievable rank, not the zero-init state"),
        "weight_generator": "seeded random weight with sigma_i ~ i^-1/2",
        "skipped": skipped,
    }
    return RankReport(rows=rows, metadata=metadata)


def _measure(seeds: range, cells, d: int, tol_factor: float):
    """The rows of the planned cells on the weights of seeds, in seed
    order; returns (rows, warnings, error).  warnings holds the
    (message, category, filename, lineno) of every warning issued on the
    way, whatever the filters; error is the SmoaError that stopped the
    rows, or None.
    """
    rows, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for seed in seeds:
                rows += _weight_rows(seed, cells, d, tol_factor)
        except SmoaError as exc:
            error = exc
    return rows, [(w.message, w.category, w.filename, w.lineno) for w in caught], error


def _weight_rows(seed: int, cells, d: int, tol_factor: float) -> list[RankRecord]:
    """The rows of the planned cells on seed's weight, K by K."""
    w0 = random_weight(d, d, np.random.default_rng([d, seed]))
    w0_rank = numerical_rank(w0, tol_factor)
    rows = []
    for K, planned in cells.items():
        state = None
        for method, r, r_m, pc in planned:
            if method == "smoa" and state is None:
                state = smoa_masks(w0, K)
            adapter = build_adapter(method, RunConfig(K=K, r=r_m, seed=seed), w0,
                                    smoa_state=state if method == "smoa" else None)
            fill = np.random.default_rng([seed, _METHOD_INDEX[method], r, K])
            randomize_factors(adapter, fill)
            update = delta(adapter)
            measured = numerical_rank(adapter, tol_factor)
            bound = theoretical_bound(adapter, w0_rank=w0_rank)
            rows.append(RankRecord(
                method=method, d=d, r=r_m, K=K, seed=seed, param_count=pc,
                numerical_rank=measured, rank_upper_bound=bound,
                frobenius_norm=float(np.linalg.norm(update)),
            ))
    return rows


def _warn_again(message, category, filename, lineno) -> None:
    """Issue a warning that _measure recorded as warnings.warn issued it in
    the module of filename: the caller's filters and that module's registry
    of the warnings it has shown decide whether it shows."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
    warnings.warn_explicit(message, category, filename, lineno,
                           getattr(module, "__name__", None), registry)
