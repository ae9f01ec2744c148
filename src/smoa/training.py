"""Forward/backward passes, gradient checking, and full-batch AdamW training
for adapter-augmented linear layers, plus synthetic planted-update tasks.

The loss is mean squared error over all output entries.  Gradients are
closed-form: with G the loss gradient w.r.t. the update matrix,
restricted to block k as G_k and Hadamard-masked where the block carries
a mask, dB_k = s_k (G_k o M_k) A_k^T and dA_k = s_k B_k^T (G_k o M_k).
Frozen tensors (the host weight, masks, references) receive no gradient.

The block structure does the linear algebra: neither the update matrix
nor the full d_out x d_in gradient G is formed.  For n samples and a
block of m_k rows, c_k columns and rank r_k, one step costs
2 n m_k c_k + 3 m_k c_k r_k multiply-adds: the block's update
U_k = s (B_k A_k), masked where the block has a mask, the forward
x_k U_k^T, G_k = u^T x_k (u the block's columns of the output gradient,
x_k its columns of the inputs), G_k A_k^T and B_k^T G_k.  Each product
is a block of the matching dense product, so the results equal those of
a dense step bit for bit wherever the BLAS computes a block of a product
as it computes the whole.

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
output finishes the forward.  That buffer (which then takes the squared
residual), the residual and each block's update buffer are allocated
once per call.

The adapter's factors live in one flat float64 buffer, adapter.params,
and each block's A and B are reshaped views of it; Adapter.over gives
the same blocks over a stack of params and masks.  Gradients are laid
out in one buffer of the same layout: backward returns views of it,
grad_check perturbs params[e] and reads entry e of it, and training keeps
both AdamW moments that way, so one AdamW update over the whole (S, p)
stack runs per step, whatever K and S are.  AdamW is elementwise, so every entry
goes through the same operations as in a per-tensor update.  The step
count and the optimizer constants come from a validated TrainConfig;
the moments start at zero in every call.  train runs the step on [None]
views of one adapter's params, in place.  train_seeds builds its seeds'
tasks and adapters straight into stacked inputs, targets, host outputs,
masks and params, so it holds O(S n d) stacked arrays and no task, and
it copies each trained row into the adapter it returns.

The step loop runs at one BLAS thread (blas.one_thread) when each run's
host product is small, n d_out d_in <= 2**22, and at the caller's count
above.  The step's products split their output, not their sums, across
threads, and every output of all four methods was bit-identical either
way at d = 64, 96 and 128 (n = 2d, 200 steps).  Per step, one run, n = 2d,
median of 9 in ms, 2 threads / 1 thread, on a shared 2-vCPU box (numpy
2.4.6, OpenBLAS 0.3.31):

    d     n     n d^2     smoa K=2 r=16    lora r=8
    64    128   2^19      0.14 / 0.15      0.14 / 0.14
    128   256   2^22      0.50 / 0.50      0.55 / 0.58
    192   384   2^23.75   1.13 / 1.46      1.37 / 1.75
    256   512   2^25      2.24 / 2.73      3.43 / 4.99

Up to d=128 one thread is within 5% of two and takes half the CPU time;
from d=192 up one thread takes 22-45% longer.  A small step at two
threads also waits on its second thread whenever another process holds
that core, which slowed the d=64 step 10-50x.  The capacity task
(2^19) thus trains at one thread and d=512 (2^28) at the caller's count.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass

import numpy as np

from .adapters import Adapter, _split, block_layout, build_adapter
from .blas import one_thread
from .errors import NumericalError, ValidationError
from .matrix_io import TrainConfig, _check_field, validate_matrix


_ONE_THREAD_MAX_SIZE = 2**22  # largest n * d_out * d_in trained at one BLAS thread


class DivergenceError(NumericalError):
    """Training loss became non-finite."""


def random_weight(d_out: int, d_in: int, rng: np.random.Generator,
                  spectrum: str = "decaying") -> np.ndarray:
    """Random host weight with a controlled spectrum.

    "decaying" sets sigma_i proportional to i**-0.5, which keeps energy
    partitions nontrivial (a flat spectrum makes every partition trivial,
    a single spike empties most subspaces).  "equal" gives a flat
    spectrum, used by degeneracy tests.  The result is rescaled so its
    Frobenius norm is sqrt(d_out * d_in), i.e. d for square matrices.
    """
    p = min(d_out, d_in)
    if spectrum == "decaying":
        sigma = np.arange(1, p + 1, dtype=np.float64) ** -0.5
    elif spectrum == "equal":
        sigma = np.ones(p)
    else:
        raise ValidationError(f"spectrum must be 'decaying' or 'equal', got {spectrum!r}")
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
              seed: int, target_blocks: int | None = None) -> LinearTask:
    """Build a planted-update task on a d x d decaying-spectrum weight.

    The planted update is a sum of target_rank outer products of
    unit-norm Gaussian vectors, rescaled so its Frobenius norm is one
    tenth of the weight's.  With target_blocks=k the outer products are
    confined to the k diagonal blocks of the standard block layout (rank
    split evenly across blocks), so the update lives on the support that
    blocked adapters can reach; the default plants a dense update.  An
    argument of the wrong type or out of range raises ValidationError.
    """
    _check_field("d", d, int, 1)
    _check_field("target_rank", target_rank, int, 1, d)
    _check_field("n_samples", n_samples, int, 1)
    _check_field("noise_std", noise_std, float, 0)
    _check_field("seed", seed, int, 0)
    if target_blocks is not None:
        _check_field("target_blocks", target_blocks, int, 1, d)
    rng = np.random.default_rng(seed)
    w0 = random_weight(d, d, rng)
    target = np.zeros((d, d))
    if target_blocks is None:
        for _ in range(target_rank):
            target += np.outer(_unit(rng, d), _unit(rng, d))
    else:
        ranks = _split(target_rank, target_blocks)
        for k, ((r0, r1, c0, c1), rk) in enumerate(zip(block_layout(d, d, target_blocks), ranks)):
            if rk > min(r1 - r0, c1 - c0):
                raise ValidationError(
                    f"block {k} of size {(r1 - r0, c1 - c0)} cannot carry planted rank {rk}"
                )
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


def _step_buffers(blocks, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Buffers for a step on n samples, with the leading stack axes of the
    blocks' factors: one for the update's output x @ delta^T, and per
    block one for its update U_k, which the backward pass reuses for G_k."""
    out = np.empty(blocks[0].A.shape[:-2] + (n, blocks[-1].row1))
    return out, [np.empty(blk.B.shape[:-1] + blk.A.shape[-1:]) for blk in blocks]


def _add_update(blocks, x, base, bufs, out=None) -> np.ndarray:
    """base + x @ delta^T, written into out when given.

    Block k writes x[..., cols_k] @ U_k^T, where U_k is the block's own
    update, into its rows of the output buffer; the blocks' row ranges
    cover the output, so one add then finishes every entry, and the full
    update matrix is never formed.  bufs come from _step_buffers.
    """
    y, upds = bufs
    for blk, upd in zip(blocks, upds):
        blk.update(out=upd)
        np.matmul(x[..., blk.col0:blk.col1], upd.swapaxes(-1, -2),
                  out=y[..., blk.row0:blk.row1])
    return np.add(base, y, out=out)


def forward(adapter, w0, x) -> np.ndarray:
    """x @ w0^T + x @ delta^T, without ever forming the merged weight."""
    w0, x = _check_host(adapter, w0, x)
    blocks = adapter.blocks
    return _add_update(blocks, x, x @ w0.T, _step_buffers(blocks, x.shape[0]))


@dataclass
class Gradients:
    """The factor gradients dA_k and dB_k, as reshaped views of one flat
    buffer laid out like adapter.params."""

    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]


def _factor_grads(blocks, x, upstream, grads_a, grads_b, bufs) -> None:
    """Write the factor gradients from each block's own slice of the
    upstream gradient into grads_a and grads_b.

    With u = upstream[..., rows_k] and x_k = x[..., cols_k], block k forms
    G_k = u^T x_k, masked where the block has a mask, and takes
    dB_k = s G_k A_k^T and dA_k = s B_k^T G_k.
    """
    for blk, grad_a, grad_b, gk in zip(blocks, grads_a, grads_b, bufs[1]):
        np.matmul(upstream[..., blk.row0:blk.row1].swapaxes(-1, -2),
                  x[..., blk.col0:blk.col1], out=gk)
        if blk.mask is not None:
            gk *= blk.mask
        np.matmul(gk, blk.A.swapaxes(-1, -2), out=grad_b)
        grad_b *= blk.scale
        np.matmul(blk.B.swapaxes(-1, -2), gk, out=grad_a)
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
    blocks = adapter.blocks
    grads = Gradients(*adapter.factor_views(np.empty_like(adapter.params)))
    _factor_grads(blocks, x, upstream, grads.A, grads.B, _step_buffers(blocks, x.shape[0]))
    return grads


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


def grad_check(adapter, task: LinearTask, seed: int = 0,
               corrupt_for_testing: bool = False) -> GradCheckReport:
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
    exceptions.

    corrupt_for_testing flips the sign of the first checked entry of
    largest |analytic gradient| before comparing, to verify the checker
    itself catches bad gradients.
    """
    w0, x, targets = _check_task(adapter, task)
    params = adapter.params
    blocks = adapter.blocks
    bufs = _step_buffers(blocks, x.shape[0])
    base = x @ w0.T
    resid = _add_update(blocks, x, base, bufs) - targets
    grad = np.empty_like(params)
    _factor_grads(blocks, x, (2.0 / resid.size) * resid, *adapter.factor_views(grad), bufs)
    offset = 2.0 * (base - targets)
    zero = np.zeros_like(offset)

    entries = np.arange(params.size)
    if params.size > _CHECK_ALL_UP_TO:
        picker = np.random.default_rng(seed)
        entries = np.sort(picker.choice(params.size, _N_SAMPLED, replace=False))
    if corrupt_for_testing:
        grad[entries[np.argmax(np.abs(grad[entries]))]] *= -1.0

    max_rel = 0.0
    worst = entries[0]
    worst_a = worst_n = 0.0
    for e in entries:
        orig = params[e]
        params[e] = orig + _H
        plus = _add_update(blocks, x, zero, bufs)
        params[e] = orig - _H
        minus = _add_update(blocks, x, zero, bufs)
        params[e] = orig
        numeric = float(np.mean((plus - minus) * (plus + minus + offset))) / (2.0 * _H)
        analytic = grad[e]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if rel > max_rel:
            max_rel = rel
            worst = e
            worst_a, worst_n = analytic, numeric
    return GradCheckReport(max_rel_error=max_rel, n_checked=len(entries),
                           worst=_factor_entry(adapter, worst), worst_analytic=worst_a,
                           worst_numeric=worst_n, tol=_TOL)


def _adamw_update(param, grad, m, v, t, cfg: TrainConfig) -> None:
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grad * grad
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    if cfg.weight_decay:
        param *= 1.0 - cfg.learning_rate * cfg.weight_decay
    param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


@np.errstate(over="ignore", invalid="ignore")
def _train_runs(adapter, x, base, targets, masks, params, cfg: TrainConfig) -> np.ndarray:
    """cfg.steps full-batch AdamW updates, in place, on S runs of the
    adapter's structure whose arrays carry the run axis first; returns the
    (S, cfg.steps + 1) traces.

    x is (S, n, d_in), base (the host outputs) and targets (S, n, d_out),
    masks[k] (S, rows_k, cols_k) or None, and params (S, p).  cfg gives
    the step count and the optimizer constants; the moments start at zero.
    A non-finite loss in any run stops all of them with DivergenceError,
    which names the step, and for S > 1 the run; numpy's overflow and
    invalid-value warnings on the way there are silenced, so the error is
    the one report of a divergence.
    """
    S, n, d_out = base.shape
    blocks = adapter.over(params, masks)
    bufs = _step_buffers(blocks, n)
    grads, m, v = np.empty_like(params), np.zeros_like(params), np.zeros_like(params)
    grads_a, grads_b = adapter.factor_views(grads)
    resid = np.empty_like(base)
    sq = bufs[0]  # the update's output is spent once resid holds the forward
    traces = np.empty((S, cfg.steps + 1))
    small = n * d_out * x.shape[-1] <= _ONE_THREAD_MAX_SIZE
    with one_thread() if small else contextlib.nullcontext():
        for i in range(cfg.steps + 1):
            _add_update(blocks, x, base, bufs, out=resid)
            resid -= targets
            np.square(resid, out=sq)
            loss = np.add.reduce(sq, axis=(-2, -1)) / (n * d_out)
            traces[:, i] = loss
            if not np.isfinite(loss).all():
                where = f" in run {np.flatnonzero(~np.isfinite(loss))[0]}" if S > 1 else ""
                raise DivergenceError(f"training diverged: non-finite loss at step {i}{where}")
            if i == cfg.steps:
                break
            resid *= 2.0 / (n * d_out)
            _factor_grads(blocks, x, resid, grads_a, grads_b, bufs)
            _adamw_update(params, grads, m, v, i + 1, cfg)
    return traces


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
    masks = [None if blk.mask is None else blk.mask[None] for blk in adapter.blocks]
    return _train_runs(adapter, x[None], (x @ w0.T)[None], targets[None], masks,
                       adapter.params[None], cfg)[0]


def train_seeds(method: str, cfg: TrainConfig, n_seeds: int) -> tuple[list[Adapter], np.ndarray]:
    """Train method's adapters on the planted tasks of seeds cfg.seed, ...,
    cfg.seed + n_seeds - 1 in one stacked step; returns the adapters and
    the (n_seeds, cfg.steps + 1) loss traces, in seed order.

    Run j is make_task and build_adapter at its seed, then train with cfg,
    and its trace and factors equal that bit for bit.  Each seed is written
    straight into stacked (S, ...) inputs, targets, host outputs x @ w0^T,
    masks and params, and its task is dropped once its rows are written:
    the call holds O(S n d) stacked arrays and no task.  Each returned
    adapter's blocks hold read-only views of its rows of the stacked masks,
    rebound with Adapter.over, so every mask is held once.  The runs share
    kind, layout, ranks, scales and cfg by construction.  A divergence
    raises DivergenceError as train does, naming the run when there are
    several.
    """
    _check_field("n_seeds", n_seeds, int, 1)
    shape = (n_seeds, cfg.n_samples, cfg.d)
    x, base, targets = np.empty(shape), np.empty(shape), np.empty(shape)
    runs = []
    for j in range(n_seeds):
        seed = cfg.seed + j
        task = make_task(cfg.d, cfg.target_rank, cfg.n_samples, cfg.noise_std, seed,
                         target_blocks=cfg.target_blocks)
        x[j], targets[j], w0 = task.inputs, task.targets, task.w0
        np.matmul(task.inputs, w0.T, out=base[j])
        del task  # the build below can reuse the memory of the task's arrays
        adapter = build_adapter(method, dataclasses.replace(cfg.run_config(), seed=seed), w0)
        del w0
        if j == 0:
            params = np.empty((n_seeds, adapter.params.size))
            masks = [None if blk.mask is None else np.empty((n_seeds, *blk.mask.shape))
                     for blk in adapter.blocks]
        params[j] = adapter.params
        views = []
        for stack, blk in zip(masks, adapter.blocks):
            mask = blk.mask
            if stack is not None:
                stack[j] = mask
                mask = stack[j]
                mask.setflags(write=False)
            views.append(mask)
        adapter.blocks = adapter.over(adapter.params, views)  # frees the seed's own copies
        runs.append(adapter)
    traces = _train_runs(runs[0], x, base, targets, masks, params, cfg)
    for adapter, trained in zip(runs, params):
        adapter.params[...] = trained
    return runs, traces


def write_loss_trace(trace: np.ndarray, path) -> None:
    """Loss trace as CSV with header step,loss; step i is the state after
    i optimizer updates."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("step,loss\n")
        for i, loss in enumerate(trace):
            fh.write(f"{i},{loss:.17g}\n")
