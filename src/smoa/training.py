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

The host output x @ w0^T (n d_out d_in) is computed once per train or
grad_check call; a step adds O(n d_out) elementwise work on the output.

The adapter's factors live in one flat float64 buffer, adapter.params,
with A_k and B_k as reshaped views of it.  train lays the gradients out
in a buffer of the same layout, and the TrainState holds both AdamW
moments that way, so one AdamW update over the whole buffer runs per
step, whatever K is, and updates the factors in place.  AdamW is
elementwise, so every entry goes through the same operations as in a
per-tensor update and the results are the same bit for bit.  Nothing is
copied in or out: when train returns or raises, adapter.params and the
TrainState moments hold every update made, and state.step counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapters import block_layout
from .errors import NumericalError, ValidationError
from .matrix_io import validate_matrix


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
    planted target_delta is hidden from the learner; its numerical rank
    equals target_rank.
    """

    w0: np.ndarray
    target_delta: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray
    noise_std: float
    target_rank: int


def make_task(d: int, target_rank: int, n_samples: int, noise_std: float,
              seed: int, target_blocks: int | None = None) -> LinearTask:
    """Build a planted-update task on a d x d decaying-spectrum weight.

    The planted update is a sum of target_rank outer products of
    unit-norm Gaussian vectors, rescaled so its Frobenius norm is one
    tenth of the weight's.  With target_blocks=k the outer products are
    confined to the k diagonal blocks of the standard block layout (rank
    split evenly across blocks), so the update lives on the support that
    blocked adapters can reach; the default plants a dense update.
    """
    if target_rank < 1 or target_rank > d:
        raise ValidationError(f"target_rank must be in [1, {d}], got {target_rank}")
    if n_samples < 1:
        raise ValidationError(f"n_samples must be ≥ 1, got {n_samples}")
    if noise_std < 0:
        raise ValidationError(f"noise_std must be ≥ 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    w0 = random_weight(d, d, rng)
    target = np.zeros((d, d))
    if target_blocks is None:
        for _ in range(target_rank):
            target += np.outer(_unit(rng, d), _unit(rng, d))
    else:
        layout = block_layout(d, d, target_blocks)
        base, extra = divmod(target_rank, target_blocks)
        for k in range(target_blocks):
            (r0, r1), (c0, c1) = layout.row_ranges[k], layout.col_ranges[k]
            rk = base + (1 if k < extra else 0)
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
    return LinearTask(w0=w0, target_delta=target, inputs=inputs, targets=targets,
                      noise_std=noise_std, target_rank=target_rank)


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


def _add_update(blocks, x, out) -> np.ndarray:
    """Add x @ delta^T into out block by block and return out.

    Block k adds x[:, cols_k] @ U_k^T to out[:, rows_k], where U_k is the
    block's own update; the full update matrix is never formed.
    """
    for blk in blocks:
        out[:, blk.row0:blk.row1] += x[:, blk.col0:blk.col1] @ blk.update().T
    return out


def forward(adapter, w0, x) -> np.ndarray:
    """x @ w0^T + x @ delta^T, without ever forming the merged weight."""
    w0, x = _check_host(adapter, w0, x)
    return _add_update(adapter.blocks(), x, x @ w0.T)


@dataclass
class Gradients:
    A: list[np.ndarray]
    B: list[np.ndarray]


def _factor_grads(blocks, x, upstream, grads_a, grads_b) -> None:
    """Write the factor gradients from each block's own slice of the
    upstream gradient into grads_a and grads_b.

    With u = upstream[:, rows_k] and x_k = x[:, cols_k], block k forms
    G_k = u^T x_k, masked where the block has a mask, and takes
    dB_k = s G_k A_k^T and dA_k = s B_k^T G_k.
    """
    for blk, grad_a, grad_b in zip(blocks, grads_a, grads_b):
        gk = upstream[:, blk.row0:blk.row1].T @ x[:, blk.col0:blk.col1]
        if blk.mask is not None:
            gk *= blk.mask
        np.matmul(gk, blk.A.T, out=grad_b)
        grad_b *= blk.scale
        np.matmul(blk.B.T, gk, out=grad_a)
        grad_a *= blk.scale


def _gradients(blocks, x, upstream) -> Gradients:
    """The factor gradients of the blocks, in new arrays."""
    grads = Gradients(A=[np.empty(blk.A.shape) for blk in blocks],
                      B=[np.empty(blk.B.shape) for blk in blocks])
    _factor_grads(blocks, x, upstream, grads.A, grads.B)
    return grads


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
    return _gradients(adapter.blocks(), x, upstream)


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


def grad_check(adapter, task: LinearTask, h: float = 1e-5, tol: float = 1e-6,
               sample_limit: int = 512, n_samples: int = 256, seed: int = 0,
               corrupt_for_testing: bool = False) -> GradCheckReport:
    """Compare analytic factor gradients against central finite differences.

    Every trainable entry is perturbed by +-h when the adapter holds at
    most sample_limit entries; larger adapters use a seeded subsample of
    n_samples entries.  With p+- the outputs at +-h and t the targets,
    the numeric derivative is mean((p+ - p-)(p+ + p- - 2t)) / 2h, which
    equals (mse(p+) - mse(p-)) / 2h without subtracting two nearly equal
    losses; p+ - p- is taken between the update outputs alone, so the
    frozen host output cancels exactly.  Relative error is
    |a - n| / max(|a|, |n|, 1e-8).  Failures are report entries, never
    exceptions.

    corrupt_for_testing flips the sign of the largest analytic gradient
    before comparing, to verify the checker itself catches bad gradients.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValidationError(f"step h must be in [1e-7, 1e-3], got {h}")
    w0, x = _check_host(adapter, task.w0, task.inputs)
    blocks = adapter.blocks()
    base = x @ w0.T
    resid = _add_update(blocks, x, base.copy()) - task.targets
    grads = _gradients(blocks, x, (2.0 / resid.size) * resid)
    offset = 2.0 * (base - task.targets)

    entries = []
    for k in range(len(adapter.A)):
        for (role, tensor) in (("A", adapter.A[k]), ("B", adapter.B[k])):
            rows, cols = tensor.shape
            entries.extend((role, k, i, j) for i in range(rows) for j in range(cols))
    if len(entries) > sample_limit:
        picker = np.random.default_rng(seed)
        chosen = picker.choice(len(entries), size=n_samples, replace=False)
        entries = [entries[i] for i in sorted(chosen)]

    if corrupt_for_testing:
        flat = [(abs(getattr(grads, role)[k][i, j]), (role, k, i, j))
                for (role, k, i, j) in entries]
        _, (role, k, i, j) = max(flat)
        getattr(grads, role)[k][i, j] *= -1.0

    max_rel = 0.0
    worst = entries[0]
    worst_a = worst_n = 0.0
    for (role, k, i, j) in entries:
        tensor = adapter.A[k] if role == "A" else adapter.B[k]
        orig = tensor[i, j]
        tensor[i, j] = orig + h
        plus = _add_update(blocks, x, np.zeros_like(offset))
        tensor[i, j] = orig - h
        minus = _add_update(blocks, x, np.zeros_like(offset))
        tensor[i, j] = orig
        numeric = float(np.mean((plus - minus) * (plus + minus + offset))) / (2.0 * h)
        analytic = getattr(grads, role)[k][i, j]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if rel > max_rel:
            max_rel = rel
            worst = (role, k, i, j)
            worst_a, worst_n = analytic, numeric
    return GradCheckReport(max_rel_error=max_rel, n_checked=len(entries), worst=worst,
                           worst_analytic=worst_a, worst_numeric=worst_n, tol=tol)


@dataclass
class TrainState:
    """Optimizer constants plus the two AdamW moments of an adapter's factors.

    Defaults follow the usual decoupled-weight-decay setup: beta1=0.9,
    beta2=0.999, epsilon=1e-8, weight_decay=0, learning rate 1e-3.
    m and v are flat float64 buffers laid out like adapter.params, and
    factor_shapes holds the factor shapes they were made for.  for_adapter
    makes the zeroed moments; a bare TrainState() has none, and train
    rejects it.
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    factor_shapes: tuple[tuple[int, int], ...] = ()

    @classmethod
    def for_adapter(cls, adapter, **kwargs) -> "TrainState":
        return cls(**kwargs, m=np.zeros_like(adapter.params), v=np.zeros_like(adapter.params),
                   factor_shapes=adapter.factor_shapes)


def _check_moments(state: TrainState, adapter) -> None:
    """Raise ValidationError unless state was made for factors of the
    adapter's shapes and both moments are float64 arrays of params' shape,
    which train updates in place."""
    if state.factor_shapes != adapter.factor_shapes:
        raise ValidationError(f"TrainState was made for factor shapes {state.factor_shapes}, "
                              f"but the adapter factors have {adapter.factor_shapes}")
    for name in ("m", "v"):
        moment = getattr(state, name)
        if not (isinstance(moment, np.ndarray) and moment.dtype == np.float64
                and moment.shape == adapter.params.shape):
            raise ValidationError(f"TrainState.{name} must be a float64 array of "
                                  f"{adapter.params.size} entries")


def _adamw_update(param, grad, m, v, t, state: TrainState) -> None:
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    if state.weight_decay:
        param *= 1.0 - state.learning_rate * state.weight_decay
    param -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)


def train(adapter, task: LinearTask, steps: int, state: TrainState | None = None) -> np.ndarray:
    """Full-batch AdamW on the adapter factors; returns the loss trace.

    The trace has steps+1 entries: trace[i] is the MSE after i updates,
    so trace[0] is the initial loss.  Deterministic for fixed inputs.
    The host weight is validated and its output x @ w0^T computed once;
    each step adds the block-wise update output to a copy of it.  A
    state whose moments do not match the adapter's factors raises
    ValidationError before any parameter changes.  Raises
    DivergenceError (with the step index) if the loss leaves the finite
    range.

    A step is one AdamW update over adapter.params, a gradient buffer
    of the same layout and the state's moments, in place, so when the
    call returns or raises the adapter and the state hold every update
    made, and a later call resumes where this one stopped.
    """
    if steps < 1:
        raise ValidationError(f"steps must be ≥ 1, got {steps}")
    if state is None:
        state = TrainState.for_adapter(adapter)
    _check_moments(state, adapter)
    w0, x = _check_host(adapter, task.w0, task.inputs)
    base = x @ w0.T
    blocks = adapter.blocks()
    grads = np.empty_like(adapter.params)
    grads_a, grads_b = adapter.factor_views(grads)
    trace = np.empty(steps + 1)
    for i in range(steps + 1):
        resid = _add_update(blocks, x, base.copy())
        resid -= task.targets
        loss = float(np.mean(resid ** 2))
        trace[i] = loss
        if not math.isfinite(loss):
            raise DivergenceError(f"training diverged: non-finite loss at step {i}")
        if i == steps:
            break
        resid *= 2.0 / resid.size
        _factor_grads(blocks, x, resid, grads_a, grads_b)
        state.step += 1
        _adamw_update(adapter.params, grads, state.m, state.v, state.step, state)
    return trace


def write_loss_trace(trace: np.ndarray, path) -> None:
    """Loss trace as CSV with header step,loss; step i is the state after
    i optimizer updates."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("step,loss\n")
        for i, loss in enumerate(trace):
            fh.write(f"{i},{loss:.17g}\n")
