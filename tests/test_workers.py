import os
import signal
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from smoa import adapters, rank_analysis, training, workers
from smoa.errors import ValidationError
from smoa.matrix_io import RunConfig, TrainConfig

from conftest import blas_threads, requires_pin

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@requires_pin
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity to narrow")
def test_pinned_grants_no_more_processes_than_the_cpus_it_may_run_on(monkeypatch):
    with blas_threads(2), workers.pinned() as processes:
        assert processes == min(2, CPUS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with blas_threads(2), workers.pinned() as processes:
        assert processes == 1
    with blas_threads(1), workers.pinned() as processes:
        assert processes == 1


def test_run_groups_returns_results_larger_than_a_pipe_buffer_in_group_order(monkeypatch):
    # 1 MiB per group: a worker whose caller reaped before reading would
    # block on its full pipe forever, so the alarm ends the test instead
    def timed_out(signum, frame):
        raise TimeoutError("run_groups did not return within 60 s")
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        results = workers.run_groups(lambda group: [bytes(2**20), list(group)], range(10, 15), 3,
                                     "sending", 5)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [group for _, group in results] == [[10, 11], [12, 13], [14]]
    assert all(len(block) == 2**20 for block, _ in results)


# run_groups owns the fork protocol: a call split over several groups
# returns, warns and raises as the one-group call does, whether its groups
# run in forked workers or, where os.fork fails, in the calling process.
# The tests of the protocol patch _FORK_MADDS to 1 and count one
# multiply-add per item, so that the grant and the items alone decide the
# split.

def warn_each_item(stop=None):
    """work for run_groups: warn once per item, naming it, raise
    ValidationError at item stop, and return the group's items."""
    def work(group):
        for item in group:
            warnings.warn(f"item {item}", UserWarning)
            if item == stop:
                raise ValidationError(f"stopped at item {item}")
        return list(group)
    return work


def spy_forks(monkeypatch, fails):
    """The pids of the processes that called os.fork, which raises OSError
    when fails."""
    forks, fork = [], os.fork

    def spy():
        forks.append(os.getpid())
        if fails:
            raise OSError("no process to be had")
        return fork()
    monkeypatch.setattr(os, "fork", spy)
    return forks


def outcome(work, items, processes):
    """(result or error, messages of every warning shown) of run_groups."""
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        try:
            result = workers.run_groups(work, items, processes, "testing items", len(items))
        except ValidationError as exc:
            result = f"ValidationError: {exc}"
    return result, [str(w.message) for w in shown]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("fails", [False, True], ids=["forked", "fork-fails"])
@pytest.mark.parametrize("stop", [None, 11, 13, 15, 12], ids=[
    "no-error", "in-the-caller", "in-a-worker", "in-the-last-worker", "first-of-a-worker"])
def test_a_split_call_warns_and_raises_as_the_one_group_call(monkeypatch, fails, stop):
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)
    items = range(10, 16)  # three groups: 10-11 in the caller, 12-13 and 14-15 in workers
    one, one_shown = outcome(warn_each_item(stop), items, 1)
    forks = spy_forks(monkeypatch, fails)
    split, split_shown = outcome(warn_each_item(stop), items, 3)
    assert forks == [os.getpid()] * 2
    assert split_shown == one_shown == [f"item {item}" for item in items
                                        if stop is None or item <= stop]
    if stop is None:
        assert (one, split) == ([list(items)], [[10, 11], [12, 13], [14, 15]])
    else:
        assert split == one == f"ValidationError: stopped at item {stop}"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_split_call_raises_the_error_of_the_lowest_group_that_failed(monkeypatch):
    def work(group):
        for item in group:
            if item in (11, 13):  # one error in the caller's group, one in a worker's
                raise ValidationError(f"stopped at item {item}")
        return list(group)
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)
    forks = spy_forks(monkeypatch, fails=False)
    with pytest.raises(ValidationError, match="^stopped at item 11$"):
        workers.run_groups(work, range(10, 14), 2, "testing items", 4)
    assert forks == [os.getpid()]


@pytest.mark.parametrize("items, processes", [(range(0), 2), (range(5), 1), (range(1), 4)],
                         ids=["no-items", "one-process", "one-item"])
def test_one_group_runs_the_work_on_all_items_and_forks_nothing(monkeypatch, items, processes):
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)
    forks = spy_forks(monkeypatch, fails=False)
    assert workers.run_groups(lambda group: group, items, processes, "testing items",
                              len(items)) == [items]
    assert forks == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("floors, groups", [(0, 1), (1.5, 1), (2, 2), (3, 3), (9, 3)])
def test_a_call_splits_into_no_more_groups_than_its_work_pays_forks_for(monkeypatch, floors,
                                                                       groups):
    forks = spy_forks(monkeypatch, fails=False)
    results = workers.run_groups(lambda group: list(group), range(6), 3, "testing items",
                                 int(floors * workers._FORK_MADDS))
    assert len(results) == groups
    assert forks == [os.getpid()] * (groups - 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_worker_sends_a_warning_whose_category_cannot_pickle_as_its_text(monkeypatch):
    class LocalWarning(UserWarning):
        pass

    def work(group):
        for item in group:
            warnings.warn(f"item {item}", LocalWarning)
        return list(group)
    monkeypatch.setattr(workers, "_FORK_MADDS", 1)
    forks = spy_forks(monkeypatch, fails=False)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        results = workers.run_groups(work, range(10, 14), 2, "testing items", 4)
    assert forks == [os.getpid()]
    assert results == [[10, 11], [12, 13]]
    assert [(str(w.message), w.category) for w in shown] == [
        ("item 10", LocalWarning), ("item 11", LocalWarning),
        ("item 12", UserWarning), ("item 13", UserWarning)]


def skip_the_work(monkeypatch):
    """Make training's and rank_analysis's run_groups calls split as they
    would, each group's work returning [] at once; returns the group count
    of every call."""
    counts, run_groups = [], workers.run_groups

    def skipping(work, items, processes, doing, madds):
        groups = run_groups(lambda group: [], items, processes, doing, madds)
        counts.append(len(groups))
        return groups
    monkeypatch.setattr(workers, "run_groups", skipping)
    monkeypatch.setattr(rank_analysis, "run_groups", skipping)
    return counts


@requires_pin
def test_small_calls_fork_nothing_and_the_benchmark_calls_split(monkeypatch):
    # the task and adapter of smoa gradcheck --d 8 --k 2 --r 4, and two runs
    # of 50 steps at d=8: each costs less than a fork at two threads
    task = training.make_task(8, 4, 16, 0.0, 0)
    adapter = adapters.build_adapter("smoa", RunConfig(K=2, r=4, seed=0), task.w0)
    adapters.randomize_factors(adapter, np.random.default_rng([0, 1]), std=0.5)
    cfg = TrainConfig(d=8, target_rank=6, n_samples=16, target_blocks=2, r=8, steps=50, seed=0)
    forks = spy_forks(monkeypatch, fails=False)
    with blas_threads(2):
        assert training.grad_check(adapter, task).passed
        training.train_seeds("smoa", cfg, 2)
    assert forks == []
    # each call of the three benchmark workloads splits as it did with
    # rank_sweep's floor of 2**15 rows x d**2 and no floor for training
    counts = skip_the_work(monkeypatch)
    with blas_threads(2):
        rank_analysis.rank_sweep(**workloads.sweep_config(0))
        for name in ("train-capacity-d64", "train-d512"):
            w = workloads.WORKLOADS[name]
            for method, r, K in workloads.TRAIN_METHODS:
                training.train_seeds(method, TrainConfig(**workloads.train_config(w, 0, r, K)),
                                     w.train_seeds)
    granted = min(2, CPUS)
    # sweep-d128's seeds, train-capacity-d64's smoa and lora runs,
    # train-d512's two smoa blocks, and its lora run, one block
    assert counts == [granted, granted, granted, granted, 1]
