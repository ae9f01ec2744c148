"""Known faults, kept in tier-1: each case patches one private helper of
smoa with a fault and asserts that a named check fails on it (mutation
analysis; DeMillo, Lipton & Sayward, IEEE Computer 1978).

The checks:

* ``gradcheck``: ``smoa gradcheck --d 8 --k 2 --r 4`` for one method,
  which exits 2 when training.grad_check fails;
* ``rank-bench``: ``smoa rank-bench`` on the d=16 sweep of
  tests/test_oracle.py, which exits 2 when a row's rank exceeds its
  theoretical bound;
* the sweep and train oracles: the CLI on the d=16 sweep and training
  runs of tests/test_oracle.py, compared with perfbench/oracle.py's
  outputs through check.compare_dirs;
* the fresh backward: tests/test_training.py's fresh_backward_error, a
  backward call with no forward before it against the dense reference;
* the compressed equivalence: tests/test_training.py's
  compressed_differences, train_seeds on compressed samples against the
  same runs on the samples themselves;
* the split invariance: tests/test_training.py's split_outcomes, a
  train_seeds or grad_check call at one group against the same call at
  two, with a forked worker and with a fork that fails.

The factored and compressed twins of the faults run with the one-thread
size patched to 0, so that unmasked blocks of the d=8 and d=16 runs
train through their factors and training runs on compressed samples.

Each check also runs once without a fault, and must pass then.  Where a
fault cannot show, the case is left out, with the reason beside the list
of cases.  A fault that no check catches stays here as an xfail case,
with its reason, until a check is added.  Moving the AdamW bias
correction a step early, to t - 1, needs no case: it divides by zero at
step 1, and every train call then fails loudly.
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from smoa import adapters, cli, rank_analysis, training, workers

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import check  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from test_oracle import SWEEP, TRAIN, run_cli  # noqa: E402
from test_training import (COMPRESSED_CFG, COMPRESSED_FACTOR_RTOL,  # noqa: E402
                           COMPRESSED_LOSS_RTOL, CPUS, compressed_differences,
                           fresh_backward_error, grad_check_outcome, split_outcomes,
                           spy_compresses, spy_factored, train_seeds_outcome)
from conftest import requires_pin  # noqa: E402


def db_sign_flipped(monkeypatch):
    """Block 0's dB leaves _factor_grads with its sign flipped."""
    factor_grads = training._factor_grads

    def faulty(plan):
        factor_grads(plan)
        np.negative(plan.steps[0].grad_b, out=plan.steps[0].grad_b)
    monkeypatch.setattr(training, "_factor_grads", faulty)


def scale_dropped(monkeypatch):
    """_add_update takes each block's update without its scale s_k: a formed
    block forms B_k A_k, a factored one projects x_k A_k^T."""
    def faulty(plan, base, out=None):
        for step in plan.steps:
            if step.h is None:
                step.block._replace(scale=1.0).update(out=step.upd)  # the fault: scale 1
                np.matmul(step.x, step.upd_t, out=step.y)
            else:
                np.matmul(step.x, step.a_t, out=step.h)  # the fault: no h *= s
                np.matmul(step.h, step.b_t, out=step.y)
        return np.add(base, plan.out, out=out)
    monkeypatch.setattr(training, "_add_update", faulty)


def mask_skipped(monkeypatch):
    """_factor_grads leaves G_k unmasked.  Only a masked block has a mask to
    skip, and a masked block is always formed: the others keep their
    gradients."""
    factor_grads = training._factor_grads

    def faulty(plan):
        factor_grads(plan)
        for step in plan.steps:
            blk, gk, grad_a, grad_b = step.block, step.upd, step.grad_a, step.grad_b
            if blk.mask is None:
                continue
            np.matmul(step.u_t, step.x, out=gk)  # the fault: no gk *= blk.mask
            np.matmul(gk, step.a_t, out=grad_b)
            grad_b *= blk.scale
            np.matmul(step.b_t, gk, out=grad_a)
            grad_a *= blk.scale
    monkeypatch.setattr(training, "_factor_grads", faulty)


def bias_correction_late(monkeypatch):
    """AdamW corrects its moments' bias as at step t + 1."""
    update = training._adamw_update
    monkeypatch.setattr(training, "_adamw_update",
                        lambda param, grad, m, v, t, cfg, tmp:
                        update(param, grad, m, v, t + 1, cfg, tmp))


def rank_one_too_high(monkeypatch):
    """numerical_rank counts one singular value more than lie above its
    threshold."""
    rank = rank_analysis.numerical_rank
    monkeypatch.setattr(rank_analysis, "numerical_rank",
                        lambda m, tol_factor=1e-10: rank(m, tol_factor) + 1)


def boundary_shifted(monkeypatch):
    """The boundary between the first two sets of every smoa partition
    moves by one index: I_1 takes the first index of I_2, or, where I_2 is
    empty, gives its last index to I_2."""
    partition = adapters.partition

    def faulty(E, K):
        part = partition(E, K)
        if part.K == 1:
            return part
        sizes = list(part.sizes)
        move = 1 if sizes[1] else -1
        sizes[0], sizes[1] = sizes[0] + move, sizes[1] - move
        sets = np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1])
        return dataclasses.replace(part, index_sets=tuple(sets))
    monkeypatch.setattr(adapters, "partition", faulty)


FAULTS = {f.__name__: f for f in (db_sign_flipped, scale_dropped, mask_skipped,
                                  bias_correction_late, rank_one_too_high, boundary_shifted)}


def factored(monkeypatch):
    """Every run counts as above the one-thread size, so each unmasked block
    whose factored step costs less trains through its factors, and each
    training run that compression repays trains on compressed samples.
    Not a fault: each factored and compressed check also runs with this
    alone, and must pass."""
    monkeypatch.setattr(training, "_ONE_THREAD_MAX_SIZE", 0)


def factored_db_sign_flipped(monkeypatch):
    """On the factored path, block 0's dB leaves _factor_grads with its sign
    flipped where block 0 trains through its factors."""
    factored(monkeypatch)
    factor_grads = training._factor_grads

    def faulty(plan):
        factor_grads(plan)
        if plan.steps[0].h is not None:
            np.negative(plan.steps[0].grad_b, out=plan.steps[0].grad_b)
    monkeypatch.setattr(training, "_factor_grads", faulty)


def factored_scale_dropped(monkeypatch):
    """On the factored path, _add_update projects x_k A_k^T without the
    scale s_k."""
    factored(monkeypatch)

    def faulty(plan, base, out=None):
        for step in plan.steps:
            if step.h is None:
                step.block.update(out=step.upd)
                np.matmul(step.x, step.upd_t, out=step.y)
            else:
                np.matmul(step.x, step.a_t, out=step.h)  # the fault: no h *= s
                np.matmul(step.h, step.b_t, out=step.y)
        return np.add(base, plan.out, out=out)
    monkeypatch.setattr(training, "_add_update", faulty)


def stale_projection(monkeypatch):
    """On the factored path, backward reads the x_k A_k^T of its fresh plan
    without writing it."""
    factored(monkeypatch)

    def faulty(adapter, w0, x, upstream_grad):
        w0, x = training._check_host(adapter, w0, x)
        plan = training._StepPlan(adapter, x, adapter.params)
        plan.resid[...] = upstream_grad
        training._factor_grads(plan)  # the fault: no _project
        return training.Gradients(*adapter.factor_views(plan.grads))
    monkeypatch.setattr(training, "backward", faulty)


FACTORED_FAULTS = {f.__name__: f for f in (factored_db_sign_flipped, factored_scale_dropped,
                                           stale_projection)}


def kappa_dropped(monkeypatch):
    """On compressed samples, the loss leaves out kappa, the part of each
    block's o_k off the span of its inputs."""
    factored(monkeypatch)
    compress = training._compress

    def faulty(*args):
        rs, p, kappa = compress(*args)
        return rs, p, np.zeros_like(kappa)
    monkeypatch.setattr(training, "_compress", faulty)


def projection_of_base_alone(monkeypatch):
    """On compressed samples, P_k is Q_k^T base_k, without the targets."""
    factored(monkeypatch)
    compress = training._compress

    def faulty(adapter, x, base, targets):
        rs, _, kappa = compress(adapter, x, base, targets)
        return rs, compress(adapter, x, base, np.zeros_like(targets))[1], kappa
    monkeypatch.setattr(training, "_compress", faulty)


def gradient_against_the_samples(monkeypatch):
    """On compressed samples, _factor_grads takes each block's gradient
    against the first c_k samples of x_k in place of R_k, as if the
    compressed residual were theirs."""
    factored(monkeypatch)
    train_runs, factor_grads = training._train_runs, training._factor_grads

    def faulty(adapter, x, *args):
        def against_the_samples(plan):
            steps = plan.steps
            plan.steps = tuple(step._replace(x=x[..., :step.x.shape[-2],
                                                 step.block.col0:step.block.col1])
                               for step in steps)
            factor_grads(plan)
            plan.steps = steps
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "_factor_grads", against_the_samples)
            train_runs(adapter, x, *args)
    monkeypatch.setattr(training, "_train_runs", faulty)


COMPRESSED_FAULTS = {f.__name__: f for f in (kappa_dropped, projection_of_base_alone,
                                             gradient_against_the_samples)}

# kind: (configs, invocations, rtol) of the d=16 runs of tests/test_oracle.py
RUNS = {
    "sweep": ({"sweep.json": SWEEP},
              [["rank-bench", "--config", "../cfg/sweep.json", "--out", "sweep.csv"]],
              workloads.WORKLOADS["sweep-d128"].rtol),
    "train": (workloads.configs(TRAIN, 0), workloads.invocations(TRAIN), TRAIN.rtol),
}


@pytest.fixture(scope="module")
def expected(tmp_path_factory):
    """The oracle's outputs of the d=16 sweep and train runs, made once."""
    sweep, train = tmp_path_factory.mktemp("sweep"), tmp_path_factory.mktemp("train")
    lines = oracle.sweep(SWEEP, sweep)
    (sweep / "stdout.0.txt").write_text("".join(line + "\n" for line in lines),
                                        encoding="utf-8")
    oracle.write_expected(TRAIN, 0, train)
    return {"sweep": sweep, "train": train}


def run_against_the_oracle(kind, expected, tmp_path, monkeypatch):
    """The exit codes of the d=16 sweep or train runs through the CLI, and
    check.compare_dirs's problems with their outputs."""
    configs, invocations, rtol = RUNS[kind]
    cfg, out = tmp_path / "cfg", tmp_path / "out"
    cfg.mkdir()
    out.mkdir()
    for name, content in configs.items():
        (cfg / name).write_text(json.dumps(content), encoding="ascii")
    monkeypatch.chdir(out)
    codes = [code for code, _ in run_cli(out, invocations)]
    return codes, check.compare_dirs(out, expected[kind], rtol=rtol).problems


# s_k = alpha / r = 1 for lora and hadamard_w0, so a dropped scale cannot
# show there; lora and block_lora carry no mask to skip
GRADCHECK_CASES = [
    *(("db_sign_flipped", method) for method in adapters.METHODS),
    ("scale_dropped", "smoa"), ("scale_dropped", "block_lora"),
    ("mask_skipped", "smoa"), ("mask_skipped", "hadamard_w0"),
]
TRAIN_ORACLE_CASES = ["db_sign_flipped", "scale_dropped", "mask_skipped",
                      "bias_correction_late", "boundary_shifted"]
SWEEP_ORACLE_CASES = ["rank_one_too_high", "boundary_shifted"]


def test_every_fault_has_a_case():
    cases = {fault for fault, _ in GRADCHECK_CASES}
    assert cases | set(TRAIN_ORACLE_CASES) | set(SWEEP_ORACLE_CASES) == set(FAULTS)


@pytest.mark.parametrize("fault, method",
                         [(None, method) for method in adapters.METHODS] + GRADCHECK_CASES)
def test_gradcheck_fails_on_the_fault(fault, method, capsys, monkeypatch):
    if fault:
        FAULTS[fault](monkeypatch)
    code = cli.main(["gradcheck", "--d", "8", "--k", "2", "--r", "4", "--method", method])
    error = float(re.search(r"max relative error: (\S+)", capsys.readouterr().out).group(1))
    if fault is None:
        assert (code, error <= 1e-6) == (0, True)
    elif fault == "db_sign_flipped":  # the analytic entry is minus the numeric one
        assert (code, error) == (2, pytest.approx(2.0, rel=1e-3))
    else:
        assert (code, error > 1e-6) == (2, True)


@pytest.mark.parametrize("fault", [None] + TRAIN_ORACLE_CASES)
def test_the_train_oracle_fails_on_the_fault(fault, expected, tmp_path, monkeypatch):
    if fault:
        FAULTS[fault](monkeypatch)
    codes, problems = run_against_the_oracle("train", expected, tmp_path, monkeypatch)
    assert codes == [0, 0]
    assert (problems != []) == (fault is not None), problems


@pytest.mark.parametrize("fault", [None] + SWEEP_ORACLE_CASES)
def test_the_sweep_oracle_fails_on_the_fault(fault, expected, tmp_path, monkeypatch):
    if fault:
        FAULTS[fault](monkeypatch)
    codes, problems = run_against_the_oracle("sweep", expected, tmp_path, monkeypatch)
    # rank-bench itself exits 2 once a rank exceeds its bound
    assert codes == [2 if fault == "rank_one_too_high" else 0]
    assert (problems != []) == (fault is not None), problems


# The factored checks: gradcheck at r=2, where block_lora's r_k = 1 blocks
# take the factored step at d=8 (r=4 keeps them formed), and the train
# oracle, whose lora runs take it at d=16.  A dropped scale cannot show in
# the train oracle: lora's s = 1, and its smoa blocks are masked.
FACTORED_GRADCHECK_CASES = [("factored_db_sign_flipped", "lora"),
                            ("factored_db_sign_flipped", "block_lora"),
                            ("factored_scale_dropped", "block_lora")]
FACTORED_TRAIN_ORACLE_CASES = ["factored_db_sign_flipped"]
FRESH_BACKWARD_CASES = ["stale_projection"]


def test_every_factored_fault_has_a_case():
    cases = {fault for fault, _ in FACTORED_GRADCHECK_CASES}
    assert (cases | set(FACTORED_TRAIN_ORACLE_CASES) | set(FRESH_BACKWARD_CASES)
            == set(FACTORED_FAULTS))


@pytest.mark.parametrize("fault, method", [(None, "lora"), (None, "block_lora")]
                         + FACTORED_GRADCHECK_CASES)
def test_gradcheck_fails_on_the_factored_fault(fault, method, capsys, monkeypatch):
    (FACTORED_FAULTS[fault] if fault else factored)(monkeypatch)
    verdicts = spy_factored(monkeypatch)
    code = cli.main(["gradcheck", "--d", "8", "--k", "2", "--r", "2", "--method", method])
    error = float(re.search(r"max relative error: (\S+)", capsys.readouterr().out).group(1))
    assert verdicts and all(verdicts)
    if fault is None:
        assert (code, error <= 1e-6) == (0, True)
    elif fault == "factored_db_sign_flipped":
        assert (code, error) == (2, pytest.approx(2.0, rel=1e-3))
    else:
        assert (code, error > 1e-6) == (2, True)


@pytest.mark.parametrize("fault", [None] + FACTORED_TRAIN_ORACLE_CASES)
def test_the_train_oracle_fails_on_the_factored_fault(fault, expected, tmp_path, monkeypatch):
    (FACTORED_FAULTS[fault] if fault else factored)(monkeypatch)
    verdicts = spy_factored(monkeypatch)
    codes, problems = run_against_the_oracle("train", expected, tmp_path, monkeypatch)
    assert codes == [0, 0]
    assert True in verdicts
    assert (problems != []) == (fault is not None), problems


@pytest.mark.parametrize("fault", [None] + FRESH_BACKWARD_CASES)
@pytest.mark.parametrize("method", ["lora", "block_lora"])
def test_the_fresh_backward_fails_on_the_fault(fault, method, monkeypatch):
    (FACTORED_FAULTS[fault] if fault else factored)(monkeypatch)
    assert (fresh_backward_error(method) <= 1e-11) == (fault is None)


# The compressed checks: the train oracle, whose d=16 runs all train on
# compressed samples once every run counts as above the one-thread size,
# and tests/test_training.py's compressed_differences, on its noisy config.
# Its runs carry noise, so kappa > 0; the oracle's runs carry none, so each
# block's o_k lies in the span of its inputs, kappa is a rounding error,
# and a dropped kappa cannot show there.
COMPRESSED_TRAIN_ORACLE_CASES = ["projection_of_base_alone", "gradient_against_the_samples"]
COMPRESSED_EQUIVALENCE_CASES = ["kappa_dropped", "projection_of_base_alone",
                                "gradient_against_the_samples"]


def test_every_compressed_fault_has_a_case():
    assert (set(COMPRESSED_TRAIN_ORACLE_CASES) | set(COMPRESSED_EQUIVALENCE_CASES)
            == set(COMPRESSED_FAULTS))


@pytest.mark.parametrize("fault", [None] + COMPRESSED_TRAIN_ORACLE_CASES)
def test_the_train_oracle_fails_on_the_compressed_fault(fault, expected, tmp_path, monkeypatch):
    (COMPRESSED_FAULTS[fault] if fault else factored)(monkeypatch)
    verdicts = spy_compresses(monkeypatch)
    codes, problems = run_against_the_oracle("train", expected, tmp_path, monkeypatch)
    assert codes == [0, 0]
    assert verdicts == [True, True]
    assert (problems != []) == (fault is not None), problems


@pytest.mark.parametrize("fault", [None] + COMPRESSED_EQUIVALENCE_CASES)
@pytest.mark.parametrize("method", ["smoa", "lora"])
def test_the_compressed_equivalence_fails_on_the_fault(fault, method, monkeypatch):
    (COMPRESSED_FAULTS[fault] if fault else factored)(monkeypatch)
    loss, factor = compressed_differences(method, COMPRESSED_CFG, 1)
    assert (loss <= COMPRESSED_LOSS_RTOL and factor <= COMPRESSED_FACTOR_RTOL) == (fault is None)


def span_shifted(monkeypatch):
    """A group of blocks that does not start at block 0 trains the span of
    params one block before its own."""
    span = training._param_span

    def faulty(adapter, group):
        return span(adapter, range(group.start - 1, group.stop - 1) if group.start else group)
    monkeypatch.setattr(training, "_param_span", faulty)


def block_loss_dropped(monkeypatch):
    """The trace leaves out block 0's sum of squares: the part it writes
    for block 0, or for the whole output where a call sums it whole, is
    never added."""
    factored(monkeypatch)
    train_runs = training._train_runs

    def faulty(adapter, x, base, targets, masks, params, sums, cfg, group, compressed):
        train_runs(adapter, x, base, targets, masks, params, sums, cfg, group, compressed)
        if group.start == 0:
            sums[:, 0] = 0.0
    monkeypatch.setattr(training, "_train_runs", faulty)


def block_kappa_dropped(monkeypatch):
    """On compressed samples, block 0's part of the loss leaves out its
    kappa_0; the other blocks keep theirs."""
    factored(monkeypatch)
    compress = training._compress

    def faulty(blocks, x, base, targets):
        rs, p, kappa = compress(blocks, x, base, targets)
        if blocks[0].row0 == 0:
            kappa[:, 0] = 0.0
        return rs, p, kappa
    monkeypatch.setattr(training, "_compress", faulty)


def last_groups_worst(monkeypatch):
    """grad_check's merge takes the last group's worst entry in place of
    the one with the largest relative error."""
    monkeypatch.setattr(training, "_largest_error", lambda worsts: worsts[-1])


SPLIT_FAULTS = {f.__name__: f for f in (span_shifted, block_loss_dropped, block_kappa_dropped,
                                        last_groups_worst)}

# The split checks.  A shifted span and a wrong merge show only where a
# call splits, so their checks compare the splits of split_outcomes, which
# needs two CPUs; the trace's parts are summed at any split, so the train
# oracle, whose d=16 smoa runs split their blocks with the size patched to
# 0, and the compressed equivalence catch a dropped part or kappa_k.  These
# two patch the fork floor (workers._FORK_MADDS) to 1, so that their calls
# fork where two CPUs are granted, as split_outcomes's do.
SPLIT_INVARIANCE_CASES = ["span_shifted"]
SPLIT_GRADCHECK_CASES = ["last_groups_worst"]
SPLIT_TRAIN_ORACLE_CASES = ["block_loss_dropped"]
SPLIT_EQUIVALENCE_CASES = ["block_kappa_dropped"]


def test_every_split_fault_has_a_case():
    assert (set(SPLIT_INVARIANCE_CASES) | set(SPLIT_GRADCHECK_CASES)
            | set(SPLIT_TRAIN_ORACLE_CASES) | set(SPLIT_EQUIVALENCE_CASES) == set(SPLIT_FAULTS))


def differ(outcomes):
    """Whether split_outcomes's outcomes are not all equal."""
    return len(set(outcomes.values())) > 1


@requires_pin
@pytest.mark.skipif(CPUS < 2, reason="one CPU: no call splits")
@pytest.mark.parametrize("fault", [None] + SPLIT_INVARIANCE_CASES)
def test_the_block_split_invariance_fails_on_the_fault(fault, monkeypatch):
    factored(monkeypatch)
    if fault:
        SPLIT_FAULTS[fault](monkeypatch)
    outcomes, _ = split_outcomes(lambda: train_seeds_outcome("smoa", COMPRESSED_CFG, 2))
    assert differ(outcomes) == (fault is not None)


@requires_pin
@pytest.mark.skipif(CPUS < 2, reason="one CPU: no call splits")
@pytest.mark.parametrize("fault", [None] + SPLIT_GRADCHECK_CASES)
def test_the_grad_check_split_invariance_fails_on_the_fault(fault, monkeypatch):
    if fault:
        SPLIT_FAULTS[fault](monkeypatch)
    outcomes, _ = split_outcomes(lambda: grad_check_outcome("smoa"))
    assert differ(outcomes) == (fault is not None)


@pytest.mark.parametrize("fault", [None] + SPLIT_TRAIN_ORACLE_CASES)
def test_the_train_oracle_fails_on_the_split_fault(fault, expected, tmp_path, monkeypatch):
    (SPLIT_FAULTS[fault] if fault else factored)(monkeypatch)
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)
    codes, problems = run_against_the_oracle("train", expected, tmp_path, monkeypatch)
    assert codes == [0, 0]
    assert (problems != []) == (fault is not None), problems


@pytest.mark.parametrize("fault", [None] + SPLIT_EQUIVALENCE_CASES)
@pytest.mark.parametrize("method", ["smoa", "lora"])
def test_the_compressed_equivalence_fails_on_the_split_fault(fault, method, monkeypatch):
    (SPLIT_FAULTS[fault] if fault else factored)(monkeypatch)
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)
    loss, factor = compressed_differences(method, COMPRESSED_CFG, 1)
    assert (loss <= COMPRESSED_LOSS_RTOL and factor <= COMPRESSED_FACTOR_RTOL) == (fault is None)
