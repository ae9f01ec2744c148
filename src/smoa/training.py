"""Forward/backward passes, gradient checking, and full-batch AdamW training
for adapter-augmented linear layers, plus synthetic planted-update tasks.

The loss is mean squared error over all output entries.  Gradients are
closed-form: with G the loss gradient w.r.t. the update matrix,
restricted to block k as G_k and Hadamard-masked where the block carries
a mask, dB_k = s_k (G_k o M_k) A_k^T and dA_k = s_k B_k^T (G_k o M_k).
Frozen tensors (the host weight, masks, references) receive no gradient.

The block structure does the linear algebra: neither the update matrix
nor the full d_out x d_in gradient G is formed.  With n samples, u the
block's columns of the output gradient and x_k its columns of the
inputs, a block of m_k rows, c_k columns and rank r_k takes one of two
step forms:

* formed: the block's update U_k = s (B_k A_k), masked where the block
  has a mask, the forward x_k U_k^T, G_k = u^T x_k, masked likewise,
  G_k A_k^T and B_k^T G_k, 2 n m_k c_k + 3 m_k c_k r_k multiply-adds.
  Each product is a block of the matching dense product, so the results
  equal a dense step's bit for bit wherever the BLAS computes a block of
  a product as it computes the whole.
* factored: h = s x_k A_k^T, the forward h B_k^T, dB_k = u^T h and
  dA_k = s (u B_k)^T x_k, n r_k (3 m_k + 2 c_k) multiply-adds; LoRA
  trains this way and merges B A only for inference (Hu et al., arXiv
  2106.09685).  It sums in another order than the dense step, so its
  results differ from that step's in the last bits.

A run is large when its host product is, n d_out d_in > 2**22
(_large), and small otherwise.  A block takes the factored
step when it has no mask, its run is large and the factored count is
the smaller (_trains_factored).  At d = 512 and n = 1024 a lora block of
rank 8 then costs 21M multiply-adds a step against 543M formed; a block
of rank r_k >= its sides stays formed.  Every small run stays formed,
and keeps its bytes: the capacity task's 2000-step lora
runs are chaotic in their factors, where a reordered last bit grows past
the relative tolerance of 1e-6 at which perfbench/check.py compares
them.  The size condition stays until that check judges the training
runs by their loss traces.

A large training run may also train on compressed samples.  Block k's
rows of the output are fed by its columns x_k alone.  With the reduced
Householder QR x_k = Q_k R_k (Golub & Van Loan, Matrix Computations,
5.3), o_k = base_k - targets_k for the host output base,
P_k = Q_k^T o_k and kappa_k = ||o_k - Q_k P_k||^2,

    ||x_k U_k^T + o_k||^2 = ||R_k U_k^T + P_k||^2 + kappa_k and
    (x_k U_k^T + o_k)^T x_k = (R_k U_k^T + P_k)^T R_k,

so the block's loss and gradient depend on the n samples only through
R_k (c_k x c_k), P_k (c_k x m_k) and kappa_k.  _train_runs takes them once
per run (_compress), then runs the same block step with R_k as the
block's inputs and R_k U_k^T + P_k as its residual: formed or factored
as _trains_factored decides with c_k rows in place of n, at
2 c_k^2 m_k + 3 m_k c_k r_k or c_k r_k (3 m_k + 2 c_k) multiply-adds.  The
loss is (sum of squares + kappa) / (n d_out), with kappa = 0.0 on the
samples, where adding it is exact, and the gradient scale stays
2 / (n d_out).  A run compresses when every c_k < n and steps times the
multiply-adds a step saves exceed the compression's
2 n c_k^2 - 2 c_k^3 / 3 + 3 n c_k m_k (_compresses).  At d = 512 and
n = 1024 that holds from 4 steps for smoa with K = 2 and r = 16, whose
masked blocks stay formed, and from 107 for lora with r = 8.  The
compressed step sums in another order: at task seeds 0-4 of those
configs, 60 steps each (lora compressed by force), its loss traces
differed from the step on the samples by at most 3.7e-16 relative and
its factors by 2.4e-11 of each run's largest entry.  forward, backward
and grad_check always read the samples.

One block step serves forward, backward, grad_check and training.  It
indexes the trailing two axes only, so the same calls run on one
adapter's 2-D arrays and on stacks of S runs, shaped (S, ...): one set
of numpy calls per step for all S runs.  numpy's stacked matmul and qr
make, for each member, the BLAS and LAPACK calls the 2-D call makes,
and every other operation is elementwise or reduces one member's
entries in the same order, so each run's results equal those of
training it alone, bit for bit.

The host output x @ w0^T (n d_out d_in) is computed once per run; a
step adds O(n d_out) elementwise work on the output, O(sum c_k m_k) on
compressed samples: each block's product writes its part of one output
buffer, and one add of the host output, or of the P_k, finishes the
forward.  A _StepPlan, built once per call of forward, backward and
grad_check, and once per group of train and train_seeds (see below),
for the group's blocks, holds every view the step reads (each
block's inputs, x_k or R_k, its part of the output and residual
buffers, A_k^T and B_k^T) and every buffer it writes: the output buffer
(which then takes the squared residual), the residual, each formed
block's update buffer or each factored block's two buffers of r_k
columns, the gradients and, in training, AdamW's moments and its two
temporaries.  A factored block's h, written by the forward, is
read by the backward of the same step; backward, which runs no forward,
writes it first.  A formed block's forward multiplies x_k by a
transposed view of U_k, OpenBLAS's NT kernel.  A contiguous
U_k^T = s (A_k^T B_k^T) o M_k^T would run its NN kernel, which is faster
at the capacity shapes, but it changes the forward's bits, so it would
change what training writes.

The adapter's factors live in one flat float64 buffer, adapter.params,
and each block's A and B are reshaped views of it; Adapter.over gives
the same blocks over a stack of params and masks.  Gradients are laid
out in one buffer of the same layout: backward returns views of it,
grad_check perturbs params[e] and reads entry e of it, and training keeps
both AdamW moments that way, so one AdamW update over the whole (S, p)
stack runs per step, whatever K and S are.  AdamW is elementwise, so every entry
goes through the same operations as in a per-tensor update.  The step
count and the optimizer constants come from a validated TrainConfig,
which is a RunConfig: train_seeds builds seed s's adapter from
dataclasses.replace(cfg, seed=s).  The moments start at zero in every
call.  train runs the step on a stack of one run: a copy of the
adapter's params, written back when it returns or raises, and [None]
views of the adapter's masks.  train_seeds builds its seeds' tasks and
adapters straight into stacked inputs, targets, host outputs, masks and
params, so it holds O(S n d) stacked arrays and no task; each adapter it
returns holds views of its rows of the stacked params and masks, so the
step trains the returned adapters in place.

train, train_seeds and grad_check run whole at one BLAS thread
(workers.pinned): the task builds, x @ w0^T, build_adapter with its
decompose, and the steps or the check; the gradcheck command pins its
builds too.  Pinned, a call writes the one-thread bytes at any caller's
count, so it writes the same bytes at 1 and at 2 threads at every size;
unpinned, make_task's norms (BLAS dots) would move with the count, and
from d = 256 so would decompose's singular vectors.  At two threads a
d = 512 step ran about as fast as at one and took twice the CPU time,
and a step at two threads stalls whenever another process holds the
second core.  The core the pin frees goes to forked processes instead.

A call splits its items over the processes workers.pinned grants,
through workers.run_groups, where its work, in multiply-adds
(_step_madds), pays for the forks: the calling process runs the first
group of items, and a forked worker each other.  The items of a training
call are its runs, or, where its runs are large and have several
blocks, their blocks (_splits_blocks); those of grad_check are its
perturbed entries.  Every stack of a
train_seeds call, the inputs, host outputs, targets, masks and params,
lives in an anonymous shared mapping (_stacks), as do train's copy of
its params and each call's loss sums.  The calling process builds every
task and adapter; a group then trains its runs, or its blocks' span of
the params (_param_span), in place, and reads the rest of the stacks,
which no group writes.  Block k's loss and gradient read only its
columns of the inputs and its rows of the output, so a group of blocks
computes what the whole call computes for them: a large run's trace is
its blocks' sums of squares, each plus its kappa_k, added in block
order over n d_out, and a small run's is its whole output's sum of
squares over n d_out.  So any split writes the same bytes.  grad_check
takes the analytic gradient once, checks each group of entries in its
own process and merges the groups' worst entries in entry order
(_largest_error).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import mmap
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import workers
from .adapters import Adapter, Block, _host_weight, _segments, _split, block_layout, build_adapter
from .errors import NumericalError, ValidationError
from .matrix_io import TrainConfig, _check_field, _check_type


_ONE_THREAD_MAX_SIZE = 2**22  # largest n * d_out * d_in of a small run (module docstring)


class DivergenceError(NumericalError):
    """Training loss became non-finite."""


def random_weight(d_out: int, d_in: int, rng: np.random.Generator) -> np.ndarray:
    """Random host weight with sigma_i proportional to i**-0.5.

    The decaying spectrum keeps energy partitions nontrivial (a flat
    spectrum makes every partition trivial, a single spike empties most
    subspaces).  The result is rescaled so its Frobenius norm is
    sqrt(d_out * d_in), i.e. d for square matrices.  Dimensions that are
    not positive ints, and an rng that is not an np.random.Generator,
    raise ValidationError.
    """
    _check_field("d_out", d_out, int, 1)
    _check_field("d_in", d_in, int, 1)
    _check_type("rng", rng, np.random.Generator, "an np.random.Generator")
    p = min(d_out, d_in)
    sigma = np.arange(1, p + 1, dtype=np.float64) ** -0.5
    qu, _ = np.linalg.qr(rng.standard_normal((d_out, p)))
    qv, _ = np.linalg.qr(rng.standard_normal((d_in, p)))
    w = (qu * sigma) @ qv.T
    w *= np.sqrt(d_out * d_in) / np.linalg.norm(w)
    return w


@dataclass(frozen=True)
class LinearTask:
    """Regression task whose optimal update is a known planted matrix.

    targets = inputs @ (w0 + target_delta)^T + Gaussian noise.  The
    planted target_delta is hidden from the learner.
    """

    w0: np.ndarray
    target_delta: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray


def make_task(d: int, target_rank: int, n_samples: int, noise_std: float,
              seed: int, target_blocks: int = 1) -> LinearTask:
    """Build a planted-update task on a d x d decaying-spectrum weight.

    The planted update is a sum of target_rank outer products of
    unit-norm Gaussian vectors, rescaled so its Frobenius norm is one
    tenth of the weight's.  The outer products are confined to the
    target_blocks diagonal blocks of the standard block layout (rank
    split evenly across blocks), so with several blocks the update lives
    on the support that blocked adapters can reach; the default, one
    block covering the whole matrix, plants a dense update.  An argument
    of the wrong type or out of range, None included, raises
    ValidationError.
    """
    _check_field("d", d, int, 1)
    _check_field("target_rank", target_rank, int, 1, d)
    _check_field("n_samples", n_samples, int, 1)
    _check_field("noise_std", noise_std, float, 0)
    _check_field("seed", seed, int, 0)
    _check_field("target_blocks", target_blocks, int, 1, d)
    rng = np.random.default_rng(seed)
    w0 = random_weight(d, d, rng)
    target = np.zeros((d, d))
    ranks = _split(target_rank, target_blocks)
    for (r0, r1, c0, c1), rk in zip(block_layout(d, d, target_blocks), ranks):
        for _ in range(rk):
            target[r0:r1, c0:c1] += np.outer(_unit(rng, r1 - r0), _unit(rng, c1 - c0))
    target *= 0.1 * np.linalg.norm(w0) / np.linalg.norm(target)
    inputs = rng.standard_normal((n_samples, d))
    targets = inputs @ (w0 + target).T
    if noise_std > 0:
        targets = targets + rng.normal(0.0, noise_std, size=targets.shape)
    w0.setflags(write=False)
    target.setflags(write=False)
    inputs.setflags(write=False)
    targets.setflags(write=False)
    return LinearTask(w0=w0, target_delta=target, inputs=inputs, targets=targets)


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _check_host(adapter, w0, x) -> tuple[np.ndarray, np.ndarray]:
    """Validate the frozen weight against the adapter (adapters._host_weight)
    and the inputs against the weight; returns both as float64 arrays."""
    w0 = _host_weight(adapter, w0)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w0.shape[1]:
        raise ValidationError(
            f"inputs must be 2-D with {w0.shape[1]} features, got shape {x.shape}"
        )
    return w0, x


def _check_task(adapter, task: LinearTask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """task checked to be a LinearTask, _check_host on its weight and
    inputs, and its targets checked against the output shape; returns all
    three as float64 arrays."""
    _check_type("task", task, LinearTask)
    w0, x = _check_host(adapter, task.w0, task.inputs)
    targets = np.asarray(task.targets, dtype=np.float64)
    if targets.shape != (x.shape[0], w0.shape[0]):
        raise ValidationError(f"targets must have shape {(x.shape[0], w0.shape[0])}, "
                              f"got {targets.shape}")
    return w0, x, targets


class _BlockStep(NamedTuple):
    """One block's views and buffers in a _StepPlan.  A block the step
    forms holds upd and upd_t, one it trains through its factors h and
    ub_t; the other two are None."""

    block: Block
    x: np.ndarray  # x_k, the block's columns of the inputs, or its R_k
    y: np.ndarray  # its rows of the update's output: its part of plan.out
    u_t: np.ndarray  # u_k^T: its part of the residual buffer, transposed
    a_t: np.ndarray  # A_k^T
    b_t: np.ndarray  # B_k^T
    upd: np.ndarray | None  # U_k in the forward, G_k in the backward
    upd_t: np.ndarray | None  # U_k^T
    grad_a: np.ndarray  # dA_k and dB_k: views of plan.grads
    grad_b: np.ndarray
    h: np.ndarray | None  # s x_k A_k^T, one row per row of x_k
    ub_t: np.ndarray | None  # s (u B_k)^T


def _large(n: int, shape: tuple[int, int]) -> bool:
    """Whether a run of an adapter of this shape on n samples is large:
    n d_out d_in > 2**22 (see the module docstring)."""
    return n * shape[0] * shape[1] > _ONE_THREAD_MAX_SIZE


def _step_counts(blk: Block, rows: int) -> tuple[int, int]:
    """The multiply-adds of blk's formed and factored step on rows rows of
    inputs: 2 rows m_k c_k + 3 m_k c_k r_k and rows r_k (3 m_k + 2 c_k)."""
    m, (r, c) = blk.B.shape[-2], blk.A.shape[-2:]
    return 2 * rows * m * c + 3 * m * c * r, rows * r * (3 * m + 2 * c)


def _trains_factored(blk: Block, n: int, shape: tuple[int, int], rows: int | None = None) -> bool:
    """Whether the step trains blk, a block of an adapter of this shape
    on n samples, through its factors rather than through U_k and G_k.
    rows is how many rows of inputs the block's step reads: n, or c_k on
    compressed samples (_compresses).

    It does when the block has no mask, the run is large, n d_out d_in >
    2**22, and the factored step's count is below the formed step's
    (_step_counts).
    """
    formed, factored = _step_counts(blk, n if rows is None else rows)
    return blk.mask is None and _large(n, shape) and factored < formed


def _step_madds(adapter, n: int, compressed: bool = False) -> int:
    """The multiply-adds of one step of every block of the adapter on n
    samples, or on their compressed samples (c_k rows for block k), each
    block counted in the form _trains_factored picks (_step_counts)."""
    total = 0
    for blk in adapter.blocks:
        rows = blk.A.shape[-1] if compressed else n
        formed, factored = _step_counts(blk, rows)
        total += factored if _trains_factored(blk, n, adapter.shape, rows) else formed
    return total


def _compresses(adapter, n: int, steps: int) -> bool:
    """Whether a run of steps AdamW steps of the adapter on n samples
    trains on its blocks' compressed samples (_compress) rather than on
    the samples themselves.

    It does when the run is large, n d_out d_in > 2**22, every block has
    fewer columns c_k than n, and steps times the multiply-adds a step
    saves exceed the compression's own.  A block's step on rows rows of
    inputs counts its products in the form _trains_factored picks and five
    elementwise passes over its rows x m_k residual; the compression
    counts 2 n c_k^2 - 2 c_k^3 / 3 for the reduced QR with its Q_k, then
    3 n c_k m_k for P_k and kappa.
    """
    if not _large(n, adapter.shape) or any(blk.A.shape[-1] >= n for blk in adapter.blocks):
        return False
    saved, cost = _step_madds(adapter, n) - _step_madds(adapter, n, compressed=True), 0
    for blk in adapter.blocks:
        m, c = blk.B.shape[-2], blk.A.shape[-1]
        saved += 5 * (n - c) * m
        cost += 2 * n * c * c - 2 * c**3 // 3 + 3 * n * c * m
    return steps * saved > cost


class _StepPlan:
    """The views and buffers of the block step on inputs x, over params and
    masks (see Adapter.over), with the leading run axes of params; built
    once per call, when each block's step form is chosen.

    group is the range of the blocks the step runs, all of them by default;
    the plan holds their views alone.  x is the inputs, (..., n, d_in), or,
    with n the runs' sample count, a list of the group's blocks' R_k,
    (..., c_k, c_k), for a run on compressed samples (_compress).  out
    takes the update's output x @ delta^T, resid the residual, which the
    backward reads as its upstream gradient, and grads the factor
    gradients, laid out like params.  On the samples, out and resid are the
    group's rows of (..., n, d_out) buffers, rows, and block k owns their
    columns of its rows; on compressed samples they are flat, and block k
    owns a c_k x m_k segment of each.  steps holds each block's _BlockStep.
    """

    def __init__(self, adapter, x, params, masks=None, n=None, group=None):
        cut = slice(None) if group is None else slice(group.start, group.stop)
        lead, blocks = params.shape[:-1], adapter.over(params, masks)[cut]
        if n is None:
            n = x.shape[-2]
            # the whole output's buffers: a block's views, and so the bits
            # of its loss sum, are the same in every group
            out = np.empty(lead + (n, adapter.shape[0]))
            resid = np.empty_like(out)
            self.rows = slice(blocks[0].row0, blocks[-1].row1)
            self.out, self.resid = out[..., self.rows], resid[..., self.rows]
            xs = [x[..., blk.col0:blk.col1] for blk in blocks]
            ys, us = ([buf[..., blk.row0:blk.row1] for blk in blocks] for buf in (out, resid))
        else:
            xs, shapes = x, [(r.shape[-2], blk.row1 - blk.row0) for r, blk in zip(x, blocks)]
            self.out = np.empty(lead + (sum(map(math.prod, shapes)),))
            self.resid = np.empty_like(self.out)
            ys, us = _segments(self.out, shapes), _segments(self.resid, shapes)
        self.grads = np.empty_like(params)
        grads_a, grads_b = (views[cut] for views in adapter.factor_views(self.grads))
        steps = []
        for blk, xk, y, u, grad_a, grad_b in zip(blocks, xs, ys, us, grads_a, grads_b):
            rows = xk.shape[-2]
            if _trains_factored(blk, n, adapter.shape, rows):
                r = blk.A.shape[-2]
                upd = upd_t = None
                h, ub_t = np.empty(lead + (rows, r)), np.empty(lead + (r, rows))
            else:
                upd = np.empty(lead + (blk.row1 - blk.row0, blk.col1 - blk.col0))
                upd_t, h, ub_t = upd.swapaxes(-1, -2), None, None
            steps.append(_BlockStep(blk, xk, y, u.swapaxes(-1, -2),
                                    blk.A.swapaxes(-1, -2), blk.B.swapaxes(-1, -2),
                                    upd, upd_t, grad_a, grad_b, h, ub_t))
        self.steps = tuple(steps)


def _project(step: _BlockStep) -> None:
    """Write s x_k A_k^T into the h of a block trained through its factors."""
    h = np.matmul(step.x, step.a_t, out=step.h)
    h *= step.block.scale


def _add_update(plan: _StepPlan, base, out=None) -> np.ndarray:
    """base + x @ delta^T, written into out when given.

    Block k writes x_k @ U_k^T, where U_k is the block's own update, into
    its rows of plan.out: formed, or as (s x_k A_k^T) B_k^T for a block
    trained through its factors, which leaves s x_k A_k^T in its h for
    the backward.  The blocks' row ranges cover the output, so one add
    then finishes every entry, and the full update matrix is never
    formed.
    """
    for step in plan.steps:
        if step.h is None:
            step.block.update(out=step.upd)
            np.matmul(step.x, step.upd_t, out=step.y)
        else:
            _project(step)
            np.matmul(step.h, step.b_t, out=step.y)
    return np.add(base, plan.out, out=out)


def forward(adapter, w0, x) -> np.ndarray:
    """x @ w0^T + x @ delta^T, without ever forming the merged weight."""
    w0, x = _check_host(adapter, w0, x)
    return _add_update(_StepPlan(adapter, x, adapter.params), x @ w0.T)


@dataclass
class Gradients:
    """The factor gradients dA_k and dB_k, as reshaped views of one flat
    buffer laid out like adapter.params."""

    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]


def _factor_grads(plan: _StepPlan) -> None:
    """Write the factor gradients into plan.grads, with plan.resid as the
    upstream gradient.

    With u its block-k rows, a formed block forms G_k = u^T x_k, masked
    where the block has a mask, and takes dB_k = s G_k A_k^T and
    dA_k = s B_k^T G_k.  A block trained through its factors takes
    dB_k = u^T h, from the h of the last forward (or _project), and
    dA_k = s (u B_k)^T x_k.
    """
    for step in plan.steps:
        blk, gk, grad_a, grad_b = step.block, step.upd, step.grad_a, step.grad_b
        if step.h is not None:
            np.matmul(step.u_t, step.h, out=grad_b)
            ub_t = np.matmul(step.b_t, step.u_t, out=step.ub_t)
            ub_t *= blk.scale
            np.matmul(ub_t, step.x, out=grad_a)
            continue
        np.matmul(step.u_t, step.x, out=gk)
        if blk.mask is not None:
            gk *= blk.mask
        np.matmul(gk, step.a_t, out=grad_b)
        grad_b *= blk.scale
        np.matmul(step.b_t, gk, out=grad_a)
        grad_a *= blk.scale


def backward(adapter, w0, x, upstream_grad) -> Gradients:
    """Gradients of the trainable factors given the loss gradient w.r.t.
    the forward output."""
    w0, x = _check_host(adapter, w0, x)
    upstream = np.asarray(upstream_grad, dtype=np.float64)
    if upstream.shape != (x.shape[0], w0.shape[0]):
        raise ValidationError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"output shape {(x.shape[0], w0.shape[0])}"
        )
    plan = _StepPlan(adapter, x, adapter.params)
    plan.resid[...] = upstream
    for step in plan.steps:
        if step.h is not None:  # no forward wrote it
            _project(step)
    _factor_grads(plan)
    return Gradients(*adapter.factor_views(plan.grads))


def mse(pred: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((pred - targets) ** 2))


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    worst: tuple[str, int, int, int]  # (role, subspace, row, col)
    worst_analytic: float
    worst_numeric: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


_H = 1e-5  # finite-difference step
_TOL = 1e-6  # largest relative error that passes
_CHECK_ALL_UP_TO = 512  # adapters with more entries are subsampled
_N_SAMPLED = 256


def _factor_entry(adapter, e: int) -> tuple[str, int, int, int]:
    """The (role, subspace, row, col) of entry e of adapter.params."""
    e = int(e)
    for k, blk in enumerate(adapter.blocks):
        for role, factor in (("A", blk.A), ("B", blk.B)):
            if e < factor.size:
                return role, k, *divmod(e, factor.shape[1])
            e -= factor.size


def grad_check(adapter, task: LinearTask, seed: int = 0) -> GradCheckReport:
    """Compare analytic factor gradients against central finite differences.

    Entries are positions in adapter.params.  Each is perturbed by
    +-h = 1e-5 when the adapter holds at most 512 entries; larger adapters
    use a seeded subsample of 256 positions.  With p+- the outputs at +-h
    and t the targets, the numeric derivative is
    mean((p+ - p-)(p+ + p- - 2t)) / 2h, which equals
    (mse(p+) - mse(p-)) / 2h without subtracting two nearly equal losses;
    p+ - p- is taken between the update outputs alone, so the frozen host
    output cancels exactly.  Relative error is |a - n| / max(|a|, |n|, 1e-8)
    and passes at most 1e-6.  The report names the worst entry as
    (role, subspace, row, col).  Failures are report entries, never
    exceptions.  seed, which picks the subsample, must be a non-negative
    int.  tests/test_mutations.py keeps the known faults this check catches.

    The call runs pinned (workers.pinned).  It takes the analytic gradient
    once, then splits the entries over the processes granted where their
    cost, each entry one step of every block (_step_madds), pays for a
    fork, the first group checked in the calling process and each other
    in a forked worker (workers.run_groups), and takes the worst entry of
    the groups' worst in entry order (_largest_error), so the report is
    the same at any split.
    """
    _check_field("seed", seed, int, 0)
    w0, x, targets = _check_task(adapter, task)
    params = adapter.params
    entries = np.arange(params.size)
    if params.size > _CHECK_ALL_UP_TO:
        picker = np.random.default_rng(seed)
        entries = np.sort(picker.choice(params.size, _N_SAMPLED, replace=False))
    with workers.pinned() as processes:
        plan = _StepPlan(adapter, x, params)
        base = x @ w0.T
        resid = _add_update(plan, base, out=plan.resid)
        resid -= targets
        resid *= 2.0 / resid.size
        _factor_grads(plan)
        offset = 2.0 * (base - targets)
        zero = np.zeros_like(offset)

        def check(group):
            """The group's worst entry: its first largest relative error,
            that error, the entry, and its analytic and numeric values."""
            max_rel, worst, worst_a, worst_n = 0.0, entries[group[0]], 0.0, 0.0
            for e in entries[group.start:group.stop]:
                orig = params[e]
                params[e] = orig + _H
                plus = _add_update(plan, zero)
                params[e] = orig - _H
                minus = _add_update(plan, zero)
                params[e] = orig
                numeric = float(np.mean((plus - minus) * (plus + minus + offset))) / (2.0 * _H)
                analytic = plan.grads[e]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                if rel > max_rel:
                    max_rel, worst, worst_a, worst_n = rel, e, analytic, numeric
            return max_rel, worst, worst_a, worst_n
        worsts = workers.run_groups(check, range(len(entries)), processes, "checking entries",
                                    len(entries) * _step_madds(adapter, len(x)))
    max_rel, worst, worst_a, worst_n = _largest_error(worsts)
    return GradCheckReport(max_rel_error=max_rel, n_checked=len(entries),
                           worst=_factor_entry(adapter, worst), worst_analytic=worst_a,
                           worst_numeric=worst_n, tol=_TOL)


def _largest_error(worsts: list[tuple]) -> tuple:
    """The first of the groups' worst entries, in entry order, whose
    relative error is the largest: the entry an unsplit check names."""
    return max(worsts, key=lambda worst: worst[0])


def _adamw_update(param, grad, m, v, t, cfg: TrainConfig, tmp) -> None:
    """AdamW update t of param, in place, with moments m and v.  tmp is two
    arrays shaped like param for the temporaries m_hat and v_hat."""
    m_hat, v_hat = tmp
    np.multiply(grad, 1.0 - cfg.beta1, out=m_hat)
    m *= cfg.beta1
    m += m_hat
    np.multiply(grad, 1.0 - cfg.beta2, out=m_hat)
    m_hat *= grad
    v *= cfg.beta2
    v += m_hat
    np.divide(m, 1.0 - cfg.beta1 ** t, out=m_hat)
    np.divide(v, 1.0 - cfg.beta2 ** t, out=v_hat)
    if cfg.weight_decay:
        param *= 1.0 - cfg.learning_rate * cfg.weight_decay
    m_hat *= cfg.learning_rate
    np.sqrt(v_hat, out=v_hat)
    v_hat += cfg.epsilon
    m_hat /= v_hat
    param -= m_hat


_KAPPA_ROWS = 256  # rows of o_k per pass of _compress's kappa


def _compress(blocks, x, base, targets) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The compressed samples of blocks, some of an adapter's blocks, for
    runs whose arrays carry the run axis first: x is (S, n, d_in), base and
    targets (S, n, d_out).

    Block k's rows of the output are fed by its columns x_k alone.  With
    the reduced Householder QR x_k = Q_k R_k, o_k = base_k - targets_k and
    P_k = Q_k^T base_k - Q_k^T targets_k, its rows of the loss are
    ||R_k U_k^T + P_k||^2 + ||o_k - Q_k P_k||^2, and (x_k U_k^T + o_k)^T x_k
    equals (R_k U_k^T + P_k)^T R_k (Golub & Van Loan, Matrix Computations,
    5.3).
    Returns the R_k, (S, c_k, c_k), the P_k as c_k x m_k segments of one
    (S, sum c_k m_k) buffer, and kappa, the (S, len(blocks)) sums
    ||o_k - Q_k P_k||^2, each taken directly in row chunks of o_k: neither
    ||o||^2 - ||P||^2 nor the Gram matrix x_k^T x_k, both of which cancel.
    Q_k is dropped before the next block's QR.
    """
    rs, kappa, n = [], np.zeros((len(x), len(blocks))), x.shape[-2]
    shapes = [(blk.A.shape[-1], blk.B.shape[-2]) for blk in blocks]
    p = np.empty((len(x), sum(map(math.prod, shapes))))
    for k, (blk, p_k) in enumerate(zip(blocks, _segments(p, shapes))):
        rows = slice(blk.row0, blk.row1)
        q, r = np.linalg.qr(x[..., blk.col0:blk.col1])
        rs.append(r)
        q_t = q.swapaxes(-1, -2)
        np.matmul(q_t, base[..., rows], out=p_k)
        p_k -= q_t @ targets[..., rows]
        for i in range(0, n, _KAPPA_ROWS):
            chunk = slice(i, i + _KAPPA_ROWS)
            off = np.subtract(base[..., chunk, rows], targets[..., chunk, rows])
            off -= q[..., chunk, :] @ p_k
            kappa[:, k] += np.einsum("sij,sij->s", off, off)
        del q, q_t
    return rs, p, kappa


def _param_span(adapter, group: range) -> slice:
    """The span of adapter.params that holds the factors of the blocks in
    group."""
    bounds = tuple(accumulate((blk.A.size + blk.B.size for blk in adapter.blocks), initial=0))
    return slice(bounds[group.start], bounds[group.stop])


@np.errstate(over="ignore", invalid="ignore")
def _train_runs(adapter, x, base, targets, masks, params, sums, cfg: TrainConfig,
                group: range, compressed: bool) -> None:
    """cfg.steps full-batch AdamW updates, in place, of the blocks in group
    on S runs of the adapter's structure whose arrays carry the run axis
    first, writing the (S, parts, cfg.steps + 1) sums of their squared
    residuals.

    x is (S, n, d_in), base (the host outputs) and targets (S, n, d_out),
    params (S, p), and masks[k] (S, rows_k, cols_k) or None.  sums has one
    part per block of group, block k's sum of squares plus its kappa_k,
    or one part, the sum over the whole output; with one block the two
    are the same.  The step trains the group's span of params
    (_param_span) and no other entry.  cfg gives the step count and the
    optimizer constants; the moments start at zero.  Where compressed, the
    caller's _compresses verdict, the step runs on the group's blocks'
    compressed samples (_compress): the residual is R_k U_k^T + P_k; on
    the samples kappa is 0.0, and adding it is exact.  The first step at
    which a part of a run is non-finite is the last the runs take, and
    their later columns are filled with NaN; numpy's overflow and
    invalid-value warnings on the way there are silenced, so
    _check_finite's report is the one report of a divergence.
    """
    n, d_out = x.shape[1], adapter.shape[0]
    if compressed:
        rs, base, kappa = _compress(adapter.blocks[group.start:group.stop], x, base, targets)
        plan, targets = _StepPlan(adapter, rs, params, masks, n, group), None
    else:
        plan, kappa = _StepPlan(adapter, x, params, masks, group=group), np.zeros(sums.shape[:2])
        base, targets = base[..., plan.rows], targets[..., plan.rows]
    resid = plan.resid
    sq = plan.out  # the update's output is spent once resid holds the forward
    # after the square, each block's part of the output holds its squares
    squares = [step.y for step in plan.steps] if sums.shape[1] == len(group) else [sq]
    span = _param_span(adapter, group)
    params, grads = params[..., span], plan.grads[..., span]
    m, v = np.zeros_like(params), np.zeros_like(params)
    tmp = np.empty_like(params), np.empty_like(params)
    for i in range(cfg.steps + 1):
        _add_update(plan, base, out=resid)
        if targets is not None:
            resid -= targets
        np.square(resid, out=sq)
        for k, part in enumerate(squares):
            np.add(np.add.reduce(part, axis=(1, 2)), kappa[:, k], out=sums[:, k, i])
        if i == cfg.steps or not np.isfinite(sums[..., i]).all():
            sums[..., i + 1:] = np.nan
            break
        resid *= 2.0 / (n * d_out)
        _factor_grads(plan)
        _adamw_update(params, grads, m, v, i + 1, cfg, tmp)


def _check_finite(traces: np.ndarray) -> None:
    """Raise DivergenceError if the (S, steps + 1) traces hold a non-finite
    loss, naming the earliest such step and, for S > 1, the lowest run
    whose loss is non-finite there.

    Groups trained apart stop apart, and a group that stops fills its
    later columns with NaN (_train_runs).  Up to the earliest stop every
    group computes what the whole call computes, so the earliest
    non-finite column, and its runs, are the same at any split.
    """
    finite = np.isfinite(traces)
    if finite.all():
        return
    step = np.flatnonzero(~finite.all(axis=0))[0]
    where = f" in run {np.flatnonzero(~finite[:, step])[0]}" if len(traces) > 1 else ""
    raise DivergenceError(f"training diverged: non-finite loss at step {step}{where}")


def _splits_blocks(adapter, n: int) -> bool:
    """Whether a training call of the adapter's runs on n samples splits
    their blocks into groups, rather than the runs themselves, and sums
    each block's loss apart.

    It does when the runs are large, n d_out d_in > 2**22, and have
    several blocks.  Block k's loss and gradient read only
    its own columns of the inputs and its own rows of the output, so the
    blocks are independent problems that share only the sum in the loss.
    Smaller runs split by runs and keep their bytes.
    """
    return _large(n, adapter.shape) and len(adapter.blocks) > 1


def _train_groups(adapter, x, base, targets, masks, params, cfg: TrainConfig,
                  processes: int) -> np.ndarray:
    """Train S runs with _train_runs's arrays, in place, on up to processes
    processes; returns their (S, cfg.steps + 1) loss traces, or raises
    DivergenceError as _check_finite does.

    The items are the runs' blocks where _splits_blocks says so, and the
    runs otherwise; they split over the processes where the call's
    cfg.steps steps of S runs (_step_madds, in the form _compresses
    picks) pay for a fork, the first group trained in the calling process
    and each other in a forked worker (workers.run_groups).  The call
    decides _compresses once for all groups.  params lives in a shared
    mapping (_stacks), as do the sums of squares _train_runs writes: one
    part per block where the blocks split, one for the whole output
    otherwise.  Run j's trace is the sum of its parts, added in block
    order, over n d_out, so each trace is the same at any split.
    """
    (n_runs, n), blocks = x.shape[:2], range(len(adapter.blocks))
    by_blocks, compressed = _splits_blocks(adapter, n), _compresses(adapter, n, cfg.steps)
    [sums] = _stacks(n_runs, [(len(blocks) if by_blocks else 1, cfg.steps + 1)])

    def train_group(group):
        cut = slice(group.start, group.stop)
        runs, parts, trained = (slice(None), cut, group) if by_blocks else (cut, slice(None), blocks)
        _train_runs(adapter, x[runs], base[runs], targets[runs],
                    [None if mask is None else mask[runs] for mask in masks],
                    params[runs], sums[runs, parts], cfg, trained, compressed)
    madds = cfg.steps * n_runs * _step_madds(adapter, n, compressed)
    workers.run_groups(train_group, blocks if by_blocks else range(n_runs), processes,
                       "training blocks" if by_blocks else "training runs", madds)
    traces = functools.reduce(np.add, sums.swapaxes(0, 1)) / (n * adapter.shape[0])
    _check_finite(traces)
    return traces


def train(adapter, task: LinearTask, cfg: TrainConfig) -> np.ndarray:
    """cfg.steps full-batch AdamW updates of the adapter factors, with
    cfg's optimizer settings; returns the loss trace.

    train reads cfg.steps, learning_rate, beta1, beta2, epsilon and
    weight_decay and nothing else, so the task and the adapter need not
    come from cfg.  The trace has cfg.steps + 1 entries: trace[i] is the
    MSE after i updates, so trace[0] is the initial loss.  Deterministic
    for fixed inputs.  The host output x @ w0^T is computed once; each step
    adds the block-wise update output to it, or, where the run trains on
    compressed samples (see the module docstring), the host output
    enters once, through each block's P_k.  A task that does not fit the
    adapter raises ValidationError before any parameter changes.  Raises
    DivergenceError (with the step index) if the loss leaves the finite
    range.

    The call runs pinned (workers.pinned), and a large run with several
    blocks splits them over the processes granted (_train_groups).
    The steps train a copy of adapter.params in a shared mapping, which is
    copied back when the call returns or raises, so the adapter then holds
    every update made.
    """
    _check_type("cfg", cfg, TrainConfig)
    w0, x, targets = _check_task(adapter, task)
    masks = [None if blk.mask is None else blk.mask[None] for blk in adapter.blocks]
    with workers.pinned() as processes:
        [params] = _stacks(1, [adapter.params.shape])
        params[0] = adapter.params
        try:
            traces = _train_groups(adapter, x[None], (x @ w0.T)[None], targets[None], masks,
                                   params, cfg, processes)
        finally:
            adapter.params[...] = params[0]
    return traces[0]


def train_seeds(method: str, cfg: TrainConfig, n_seeds: int) -> tuple[list[Adapter], np.ndarray]:
    """Train method's adapters on the planted tasks of seeds cfg.seed, ...,
    cfg.seed + n_seeds - 1 in one stacked step; returns the adapters and
    the (n_seeds, cfg.steps + 1) loss traces, in seed order.

    Run j is make_task and build_adapter at its seed, then train with cfg,
    and its trace and factors equal that bit for bit.  Each seed is written
    straight into stacked (S, ...) inputs, targets, host outputs x @ w0^T,
    masks and params, and its task is dropped before its adapter is
    built: the call holds O(S n d) stacked arrays and no task.  Each
    returned adapter's params is its row of the stacked params, which the
    step trains in place, and its blocks, rebound with Adapter.over, hold
    views of that row and read-only views of its rows of the stacked
    masks, so every factor and mask is held once.  The runs share kind,
    layout, ranks, scales and cfg by construction.

    Every stack comes from _stacks, so all of them live in anonymous
    shared mappings: the inputs, host outputs and targets from one call
    before the first build, the params and masks from one call after it,
    once the first adapter gives their shapes.  A stack too large to
    allocate raises ValidationError naming the seed count and the bytes.
    The call runs pinned (workers.pinned), and its runs, or the blocks of
    large runs, split over the processes granted, whose
    forked workers train in place (_train_groups); the returned params
    and masks are views of a shared mapping, which a process the caller
    forks later shares too.  A divergence raises DivergenceError as train
    does: the earliest step whose loss is non-finite in any run and, when
    there are several runs, the lowest run diverging at that step,
    wherever the runs trained.
    """
    _check_type("cfg", cfg, TrainConfig)
    _check_field("n_seeds", n_seeds, int, 1)
    with workers.pinned() as processes:
        x, base, targets = _stacks(n_seeds, [(cfg.n_samples, cfg.d)] * 3)
        runs = []
        for j in range(n_seeds):
            seed = cfg.seed + j
            task = make_task(cfg.d, cfg.target_rank, cfg.n_samples, cfg.noise_std, seed,
                             target_blocks=cfg.target_blocks)
            x[j], targets[j], w0 = task.inputs, task.targets, task.w0
            np.matmul(task.inputs, w0.T, out=base[j])
            del task  # the build below can reuse the memory of the task's arrays
            adapter = build_adapter(method, dataclasses.replace(cfg, seed=seed), w0)
            del w0
            if j == 0:
                masked = [blk.mask.shape for blk in adapter.blocks if blk.mask is not None]
                params, *stacked = _stacks(n_seeds, [(adapter.params.size,), *masked])
                masks = [None if blk.mask is None else stacked.pop(0) for blk in adapter.blocks]
            params[j] = adapter.params
            adapter.params = params[j]
            views = [None if stack is None else stack[j] for stack in masks]
            for view, blk in zip(views, adapter.blocks):
                if view is not None:
                    view[...] = blk.mask
                    view.setflags(write=False)
            adapter.blocks = adapter.over(adapter.params, views)  # frees the seed's own copies
            runs.append(adapter)

        traces = _train_groups(runs[0], x, base, targets, masks, params, cfg, processes)
    return runs, traces


def _stacks(n_runs: int, shapes) -> list[np.ndarray]:
    """An empty float64 (n_runs, *shape) stack for each shape, all in one
    anonymous shared mapping, which forked workers write in place.  Stacks
    too large to allocate raise ValidationError naming the run count and
    the bytes."""
    shapes = [(n_runs, *shape) for shape in shapes]
    size = 8 * sum(map(math.prod, shapes))
    try:
        flat = np.frombuffer(mmap.mmap(-1, size))
    except (MemoryError, OSError, OverflowError, ValueError):  # what numpy and mmap raise
        raise ValidationError(f"{n_runs} seeds need {size:,} bytes of stacked arrays, "
                              f"more than can be allocated") from None
    return _segments(flat, shapes)


def write_loss_trace(trace: np.ndarray, path) -> None:
    """Loss trace as CSV with header step,loss; step i is the state after
    i optimizer updates."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("step,loss\n")
        for i, loss in enumerate(trace):
            fh.write(f"{i},{loss:.17g}\n")
