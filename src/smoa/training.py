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
adapter's 2-D arrays and on stacks of S runs, shaped (S, ...), that
train_many advances in lockstep: one set of numpy calls per step for all
S runs.  numpy's stacked matmul makes, for each member, the BLAS call the
2-D product makes, and every other operation is elementwise or reduces
one member's entries in the same order, so each run's results equal
those of training it alone, bit for bit.

The host output x @ w0^T (n d_out d_in) is computed once per train,
train_many or grad_check call; a step adds O(n d_out) elementwise work
on the output: each block's product writes its rows of one output
buffer, and one add of the host output finishes the forward.  train_many
allocates that buffer, which then takes the squared residual, the
residual and each block's update buffer once per call.

The adapter's factors live in one flat float64 buffer, adapter.params,
with A_k and B_k as reshaped views of it.  Gradients are laid out in one
buffer of the same layout: backward returns views of it, grad_check
perturbs params[e] and reads entry e of it, and the TrainState holds
both AdamW moments that way, so one AdamW update over the whole (S, p)
stack runs per step, whatever K and S are.  AdamW is elementwise, so
every entry goes through the same operations as in a per-tensor update.
A single run trains adapter.params and its moments in place; several
runs are copied into stacked buffers and written back when train_many
returns or raises, so either way every adapter and TrainState then holds
every update made, and state.step counts them.
"""

from __future__ import annotations

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
    blocks = adapter.blocks()
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
    blocks = adapter.blocks()
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
    for f, (rows, cols) in enumerate(adapter.factor_shapes):
        if e < rows * cols:
            return ("A", "B")[f % 2], f // 2, *divmod(e, cols)
        e -= rows * cols


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
    w0, x = _check_host(adapter, task.w0, task.inputs)
    params = adapter.params
    blocks = adapter.blocks()
    bufs = _step_buffers(blocks, x.shape[0])
    base = x @ w0.T
    resid = _add_update(blocks, x, base, bufs) - task.targets
    grad = np.empty_like(params)
    _factor_grads(blocks, x, (2.0 / resid.size) * resid, *adapter.factor_views(grad), bufs)
    offset = 2.0 * (base - task.targets)
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


_OPTIMIZER_FIELDS = ("learning_rate", "beta1", "beta2", "epsilon", "weight_decay", "step")


def _lockstep_key(adapter, x, state: TrainState) -> dict:
    """What the runs of one train_many call must share."""
    return {"kind": adapter.kind, "layout": adapter.layout,
            "factor shapes": adapter.factor_shapes, "scales": adapter.scale,
            "inputs shape": x.shape, **{name: getattr(state, name) for name in _OPTIMIZER_FIELDS}}


def _stack(arrays) -> np.ndarray:
    """The arrays stacked on a new leading axis: a view of the one array
    when there is one, a copy otherwise."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


@np.errstate(over="ignore", invalid="ignore")
def train_many(adapters, tasks, steps: int, states=None) -> np.ndarray:
    """Full-batch AdamW on S adapters, each on its own task, in lockstep;
    returns the (S, steps + 1) loss traces, row j for run j.

    The runs must share kind, layout, factor shapes and scales, input
    shape, and optimizer constants and step count; they differ only in
    their data, factors, masks and moments.  Every run's trace, factors
    and moments equal those of training it alone with train, bit for
    bit.  states defaults to fresh TrainState.for_adapter moments.  A
    mismatched member, a state whose moments do not fit its adapter, or
    an adapter or state given twice raises ValidationError before any
    parameter changes.

    A step makes one set of numpy calls on stacked (S, ...) arrays.  One
    run is trained in place, through views; several are copied into
    stacked parameter and moment buffers, and the inputs, targets, masks
    and host outputs are stacked too, so memory grows as O(S n d).  The
    copies are written back when the call returns or raises, so the
    adapters and states then hold every update made, state.step counts
    them, and a later call resumes where this one stopped.  A non-finite
    loss in any run stops all of them with DivergenceError, which names
    the step; numpy's overflow and invalid-value warnings on the way there
    are silenced, so the error is the one report of a divergence.
    """
    if steps < 1:
        raise ValidationError(f"steps must be ≥ 1, got {steps}")
    adapters, tasks = list(adapters), list(tasks)
    states = [TrainState.for_adapter(a) for a in adapters] if states is None else list(states)
    if not adapters or not len(adapters) == len(tasks) == len(states):
        raise ValidationError(f"train_many needs one task and one state per adapter, got "
                              f"{len(adapters)} adapters, {len(tasks)} tasks, {len(states)} states")
    if len({id(obj) for obj in adapters + states}) != 2 * len(adapters):
        raise ValidationError("every adapter and every TrainState must be given once")
    hosts, xs, targets = [], [], []
    for j, (adapter, task, state) in enumerate(zip(adapters, tasks, states)):
        _check_moments(state, adapter)
        w0, x = _check_host(adapter, task.w0, task.inputs)
        target = np.asarray(task.targets, dtype=np.float64)
        if target.shape != (x.shape[0], w0.shape[0]):
            raise ValidationError(f"targets must have shape {(x.shape[0], w0.shape[0])}, "
                                  f"got {target.shape}")
        key = _lockstep_key(adapter, x, state)
        if j == 0:
            first_key = key
        differ = [name for name in key if key[name] != first_key[name]]
        if differ:
            raise ValidationError(f"run {j} differs from run 0 in {', '.join(differ)}")
        hosts.append(w0)
        xs.append(x)
        targets.append(target)

    S, (n, d_out) = len(adapters), targets[0].shape
    first, state = adapters[0], states[0]
    base = np.empty((S, n, d_out))
    for j in range(S):
        np.matmul(xs[j], hosts[j].T, out=base[j])
    x, targets = _stack(xs), _stack(targets)
    masks = [None if first.masks[k] is None else _stack([a.masks[k] for a in adapters])
             for k in range(first.layout.K)]
    params = _stack([a.params for a in adapters])
    m, v = _stack([s.m for s in states]), _stack([s.v for s in states])
    blocks = first.blocks(params, masks)
    bufs = _step_buffers(blocks, n)
    grads = np.empty_like(params)
    grads_a, grads_b = first.factor_views(grads)
    resid = np.empty_like(base)
    sq = bufs[0]  # the update's output is spent once resid holds the forward
    traces = np.empty((S, steps + 1))
    t = state.step
    try:
        for i in range(steps + 1):
            _add_update(blocks, x, base, bufs, out=resid)
            resid -= targets
            np.square(resid, out=sq)
            loss = np.mean(sq, axis=(-2, -1))
            traces[:, i] = loss
            if not np.isfinite(loss).all():
                where = f" in run {np.flatnonzero(~np.isfinite(loss))[0]}" if S > 1 else ""
                raise DivergenceError(f"training diverged: non-finite loss at step {i}{where}")
            if i == steps:
                break
            resid *= 2.0 / (n * d_out)
            _factor_grads(blocks, x, resid, grads_a, grads_b, bufs)
            t += 1
            _adamw_update(params, grads, m, v, t, state)
    finally:
        for j, (adapter, run_state) in enumerate(zip(adapters, states)):
            if S > 1:
                adapter.params[...] = params[j]
                run_state.m[...] = m[j]
                run_state.v[...] = v[j]
            run_state.step = t
    return traces


def train(adapter, task: LinearTask, steps: int, state: TrainState | None = None) -> np.ndarray:
    """Full-batch AdamW on the adapter factors; returns the loss trace.

    The trace has steps+1 entries: trace[i] is the MSE after i updates,
    so trace[0] is the initial loss.  Deterministic for fixed inputs.
    The host weight is validated and its output x @ w0^T computed once;
    each step adds the block-wise update output to it.  A
    state whose moments do not match the adapter's factors raises
    ValidationError before any parameter changes.  Raises
    DivergenceError (with the step index) if the loss leaves the finite
    range.

    This is train_many on one run: each step is one AdamW update over
    adapter.params, a gradient buffer of the same layout and the state's
    moments, in place, so when the call returns or raises the adapter and
    the state hold every update made, and a later call resumes where this
    one stopped.
    """
    return train_many([adapter], [task], steps, None if state is None else [state])[0]


def write_loss_trace(trace: np.ndarray, path) -> None:
    """Loss trace as CSV with header step,loss; step i is the state after
    i optimizer updates."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("step,loss\n")
        for i, loss in enumerate(trace):
            fh.write(f"{i},{loss:.17g}\n")
