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

A block takes the factored step when it has no mask, its run is above
the one-thread size, n d_out d_in > 2**22, and the factored count is the
smaller (_trains_factored).  At d = 512 and n = 1024 a lora block of
rank 8 then costs 21M multiply-adds a step against 543M formed; a block
of rank r_k >= its sides stays formed.  Every run at or below 2**22
stays formed, and keeps its bytes: the capacity task's 2000-step lora
runs are chaotic in their factors, where a reordered last bit grows past
the relative tolerance of 1e-6 at which perfbench/check.py compares
them.  The size condition stays until that check judges the training
runs by their loss traces.

One block step serves forward, backward, grad_check and training.  It
indexes the trailing two axes only, so the same calls run on one
adapter's 2-D arrays and on stacks of S runs, shaped (S, ...): one set
of numpy calls per step for all S runs.  numpy's stacked matmul makes,
for each member, the BLAS call the 2-D product makes, and every other
operation is elementwise or reduces one member's entries in the same
order, so each run's results equal those of training it alone, bit for
bit.

The host output x @ w0^T (n d_out d_in) is computed once per run; a
step adds O(n d_out) elementwise work on the output: each block's
product writes its rows of one output buffer, and one add of the host
output finishes the forward.  A _StepPlan, built once per call of
forward, backward, grad_check, train or train_seeds, holds every view
the step reads (each block's columns of the inputs, its rows of the
output and residual buffers, A_k^T and B_k^T) and every buffer it
writes: the output buffer (which then takes the squared residual), the
residual, each formed block's update buffer or each factored block's
two n x r_k buffers, the gradients and, in training, AdamW's moments and
its two temporaries.  A factored block's h, written by the forward, is
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
call.  train runs the step on a [None] view of one adapter's params, in
place, and on the adapter's own masks, which broadcast over the run
axis.  train_seeds builds its seeds' tasks and adapters straight into
stacked inputs, targets, host outputs, masks and params, so it holds
O(S n d) stacked arrays and no task; each adapter it returns holds views
of its rows of the stacked params and masks, so the step trains the
returned adapters in place.

train and train_seeds run whole at one BLAS thread (one_thread_if_small,
over workers.pinned) when each run's host product is small,
n d_out d_in <= 2**22, and at the caller's count above: the task builds,
x @ w0^T, build_adapter with its decompose, and the steps.  Pinned, a
call writes the one-thread bytes at any caller's count, so at d <= 128
with n = 2d it writes the same bytes at 1 and at 2 threads; unpinned,
make_task's norms (BLAS dots) would move with the count.  The step's
products split their output, not their sums, across threads, so the
step itself writes the same bits at either count.  Up to 2**22 one
thread is about as fast as two and takes half the CPU time, and a step
at two threads stalls whenever another process holds the second core;
above it, one thread is markedly slower (the per-step table is in
CHANGES.md).  The pin covers the builds too: an OpenBLAS thread left
busy by an unpinned build spins on while a pinned step loop runs, and
costs CPU time.

A pinned train_seeds call splits its S runs into as many contiguous
groups as workers.pinned grants processes, at most S; an unpinned one
trains them all in the calling process.  Every stack of the call, the
inputs, host outputs, targets, masks, params and traces, lives in an
anonymous shared mapping (_stacks).  The calling process builds every
task and adapter, then trains the first group; workers.run_groups forks
a worker for each other group, which trains its runs in place in the
shared params and traces and reads the rest of the stacks, which no run
writes.  A group's runs compute what the whole stack computes for them,
so any split writes the same bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import mmap
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import workers
from .adapters import Adapter, Block, _split, block_layout, build_adapter
from .errors import NumericalError, ValidationError
from .matrix_io import TrainConfig, _check_field, validate_matrix


_ONE_THREAD_MAX_SIZE = 2**22  # largest n * d_out * d_in trained at one BLAS thread


class DivergenceError(NumericalError):
    """Training loss became non-finite."""


@contextlib.contextmanager
def one_thread_if_small(n: int, d_out: int, d_in: int):
    """Run the block under blas.one_thread() when a run of n samples on a
    d_out x d_in weight is small, its host product x @ w0^T, n d_out d_in
    multiply-adds, at most 2**22, and at the caller's BLAS thread count
    above.

    Yields how many processes the block may use: what workers.pinned
    grants when it pins, and 1 when it does not.
    """
    if n * d_out * d_in > _ONE_THREAD_MAX_SIZE:
        yield 1
        return
    with workers.pinned() as processes:
        yield processes


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
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be an np.random.Generator, got {type(rng).__name__}")
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
    """Validate the frozen weight against the inputs and the adapter;
    returns both as float64 arrays."""
    w0 = validate_matrix(w0)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w0.shape[1]:
        raise ValidationError(
            f"inputs must be 2-D with {w0.shape[1]} features, got shape {x.shape}"
        )
    if adapter.shape != w0.shape:
        raise ValidationError(
            f"weight shape {w0.shape} does not match adapter shape {adapter.shape}"
        )
    return w0, x


def _check_task(adapter, task: LinearTask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_check_host on the task's weight and inputs, and the targets checked
    against the output shape; returns all three as float64 arrays."""
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
    x: np.ndarray  # x_k: the block's columns of the inputs
    y: np.ndarray  # its rows of the update's output, as columns of plan.out
    u_t: np.ndarray  # u_k^T: its rows of the residual buffer, transposed
    a_t: np.ndarray  # A_k^T
    b_t: np.ndarray  # B_k^T
    upd: np.ndarray | None  # U_k in the forward, G_k in the backward
    upd_t: np.ndarray | None  # U_k^T
    grad_a: np.ndarray  # dA_k and dB_k: views of plan.grads
    grad_b: np.ndarray
    h: np.ndarray | None  # s x_k A_k^T, n x r_k
    ub_t: np.ndarray | None  # s (u B_k)^T, r_k x n


def _trains_factored(blk: Block, n: int, shape: tuple[int, int]) -> bool:
    """Whether the step trains blk, a block of an adapter of this shape
    on n samples, through its factors rather than through U_k and G_k.

    It does when the block has no mask, the run is above the one-thread
    size, n d_out d_in > 2**22, and the factored step's
    n r_k (3 m_k + 2 c_k) multiply-adds are fewer than the formed step's
    2 n m_k c_k + 3 m_k c_k r_k.
    """
    m, (r, c) = blk.B.shape[-2], blk.A.shape[-2:]
    return (blk.mask is None and n * shape[0] * shape[1] > _ONE_THREAD_MAX_SIZE
            and n * r * (3 * m + 2 * c) < 2 * n * m * c + 3 * m * c * r)


class _StepPlan:
    """The views and buffers of the block step on inputs x, over params and
    masks (see Adapter.over), with the leading run axes of params; built
    once per call, when each block's step form is chosen.

    out takes the update's output x @ delta^T, resid the residual, which
    the backward reads as its upstream gradient, and grads the factor
    gradients, laid out like params.  steps holds each block's _BlockStep.
    """

    def __init__(self, adapter, x, params, masks=None):
        lead, n = params.shape[:-1], x.shape[-2]
        self.out = np.empty(lead + (n, adapter.shape[0]))
        self.resid = np.empty_like(self.out)
        self.grads = np.empty_like(params)
        steps = []
        for blk, grad_a, grad_b in zip(adapter.over(params, masks),
                                       *adapter.factor_views(self.grads)):
            rows, cols = slice(blk.row0, blk.row1), slice(blk.col0, blk.col1)
            if _trains_factored(blk, n, adapter.shape):
                r = blk.A.shape[-2]
                upd = upd_t = None
                h, ub_t = np.empty(lead + (n, r)), np.empty(lead + (r, n))
            else:
                upd = np.empty(lead + (blk.row1 - blk.row0, blk.col1 - blk.col0))
                upd_t, h, ub_t = upd.swapaxes(-1, -2), None, None
            steps.append(_BlockStep(blk, x[..., cols], self.out[..., rows],
                                    self.resid[..., rows].swapaxes(-1, -2),
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
    """
    _check_field("seed", seed, int, 0)
    w0, x, targets = _check_task(adapter, task)
    params = adapter.params
    plan = _StepPlan(adapter, x, params)
    base = x @ w0.T
    resid = _add_update(plan, base, out=plan.resid)
    resid -= targets
    resid *= 2.0 / resid.size
    _factor_grads(plan)
    offset = 2.0 * (base - targets)
    zero = np.zeros_like(offset)

    entries = np.arange(params.size)
    if params.size > _CHECK_ALL_UP_TO:
        picker = np.random.default_rng(seed)
        entries = np.sort(picker.choice(params.size, _N_SAMPLED, replace=False))

    max_rel = 0.0
    worst = entries[0]
    worst_a = worst_n = 0.0
    for e in entries:
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
            max_rel = rel
            worst = e
            worst_a, worst_n = analytic, numeric
    return GradCheckReport(max_rel_error=max_rel, n_checked=len(entries),
                           worst=_factor_entry(adapter, worst), worst_analytic=worst_a,
                           worst_numeric=worst_n, tol=_TOL)


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


@np.errstate(over="ignore", invalid="ignore")
def _train_runs(adapter, x, base, targets, masks, params, traces, cfg: TrainConfig) -> None:
    """cfg.steps full-batch AdamW updates, in place, on S runs of the
    adapter's structure whose arrays carry the run axis first, writing
    the (S, cfg.steps + 1) traces.

    x is (S, n, d_in), base (the host outputs) and targets (S, n, d_out),
    and params (S, p).  masks[k] is (S, rows_k, cols_k) or None; masks
    None means the adapter's own masks, which broadcast over the runs.
    cfg gives the step count and the optimizer constants; the moments
    start at zero.  A non-finite loss in any run stops all of them after
    its trace column is written, and _check_finite reports it; numpy's
    overflow and invalid-value warnings on the way there are silenced, so
    that report is the one report of a divergence.
    """
    n, d_out = base.shape[1:]
    plan = _StepPlan(adapter, x, params, masks)
    resid = plan.resid
    sq = plan.out  # the update's output is spent once resid holds the forward
    m, v = np.zeros_like(params), np.zeros_like(params)
    tmp = np.empty_like(params), np.empty_like(params)
    for i in range(cfg.steps + 1):
        _add_update(plan, base, out=resid)
        resid -= targets
        np.square(resid, out=sq)
        loss = np.add.reduce(sq, axis=(-2, -1)) / (n * d_out)
        traces[:, i] = loss
        if i == cfg.steps or not np.isfinite(loss).all():
            break
        resid *= 2.0 / (n * d_out)
        _factor_grads(plan)
        _adamw_update(params, plan.grads, m, v, i + 1, cfg, tmp)


def _check_finite(traces: np.ndarray) -> None:
    """Raise DivergenceError if the (S, steps + 1) traces that _train_runs
    wrote hold a non-finite loss, naming the earliest such step and, for
    S > 1, the lowest run whose loss is non-finite there.

    Runs trained apart stop apart, and a stopped run's columns after its
    stop are never written.  Every column before a run's stop is finite,
    so the earliest non-finite column is the earliest stop, which every
    run has written.
    """
    finite = np.isfinite(traces)
    if finite.all():
        return
    step = np.flatnonzero(~finite.all(axis=0))[0]
    where = f" in run {np.flatnonzero(~finite[:, step])[0]}" if len(traces) > 1 else ""
    raise DivergenceError(f"training diverged: non-finite loss at step {step}{where}")


def train(adapter, task: LinearTask, cfg: TrainConfig) -> np.ndarray:
    """cfg.steps full-batch AdamW updates of the adapter factors, with
    cfg's optimizer settings; returns the loss trace.

    train reads cfg.steps, learning_rate, beta1, beta2, epsilon and
    weight_decay and nothing else, so the task and the adapter need not
    come from cfg.  The trace has cfg.steps + 1 entries: trace[i] is the
    MSE after i updates, so trace[0] is the initial loss.  Deterministic
    for fixed inputs.  The host output x @ w0^T is computed once; each step
    adds the block-wise update output to it.  A task that does not fit the
    adapter raises ValidationError before any parameter changes.  Raises
    DivergenceError (with the step index) if the loss leaves the finite
    range.

    Each step is one AdamW update over adapter.params, in place, from
    zeroed moments, so when the call returns or raises the adapter holds
    every update made.
    """
    w0, x, targets = _check_task(adapter, task)
    traces = np.empty((1, cfg.steps + 1))
    with one_thread_if_small(*x.shape, w0.shape[0]):
        _train_runs(adapter, x[None], (x @ w0.T)[None], targets[None], None,
                    adapter.params[None], traces, cfg)
    _check_finite(traces)
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
    before the first build, the params, traces and masks from one call
    after it, once the first adapter gives their shapes.  A stack too
    large to allocate raises ValidationError naming the seed count and
    the bytes.  The runs split into as many contiguous groups as
    one_thread_if_small grants processes, at most n_seeds, and forked
    workers train all groups but the first in place (workers.run_groups);
    the returned params and masks are views of a shared mapping, which a
    process the caller forks later shares too.  A divergence raises
    DivergenceError as train does: the earliest step whose loss is
    non-finite in any run and, when there are several runs, the lowest
    run diverging at that step, wherever the runs trained.
    """
    _check_field("n_seeds", n_seeds, int, 1)
    with one_thread_if_small(cfg.n_samples, cfg.d, cfg.d) as processes:
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
                params, traces, *stacked = _stacks(
                    n_seeds, [(adapter.params.size,), (cfg.steps + 1,), *masked])
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

        def train_group(group):
            rows = slice(group.start, group.stop)
            _train_runs(runs[0], x[rows], base[rows], targets[rows],
                        [None if stack is None else stack[rows] for stack in masks],
                        params[rows], traces[rows], cfg)
        workers.run_groups(train_group, range(n_seeds), min(n_seeds, processes), "training runs")
    _check_finite(traces)
    return runs, traces


def _stacks(n_runs: int, shapes) -> list[np.ndarray]:
    """An empty float64 (n_runs, *shape) stack for each shape, all in one
    anonymous shared mapping, which forked workers write in place.  Stacks
    too large to allocate raise ValidationError naming the run count and
    the bytes."""
    sizes = [n_runs * math.prod(shape) for shape in shapes]
    try:
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)))
    except (MemoryError, OSError, OverflowError, ValueError):  # what numpy and mmap raise
        raise ValidationError(f"{n_runs} seeds need {8 * sum(sizes):,} bytes of stacked arrays, "
                              f"more than can be allocated") from None
    bounds = tuple(accumulate(sizes, initial=0))
    return [flat[a:b].reshape(n_runs, *shape)
            for a, b, shape in zip(bounds, bounds[1:], shapes)]


def write_loss_trace(trace: np.ndarray, path) -> None:
    """Loss trace as CSV with header step,loss; step i is the state after
    i optimizer updates."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("step,loss\n")
        for i, loss in enumerate(trace):
            fh.write(f"{i},{loss:.17g}\n")
