import os
import signal
import warnings

import pytest

from smoa import workers
from smoa.errors import ValidationError

from conftest import blas_threads, requires_pin

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


def test_run_groups_returns_results_larger_than_a_pipe_buffer_in_group_order():
    # 1 MiB per group: a worker whose caller reaped before reading would
    # block on its full pipe forever, so the alarm ends the test instead
    def timed_out(signum, frame):
        raise TimeoutError("run_groups did not return within 60 s")
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        results = workers.run_groups(lambda group: [bytes(2**20), list(group)], range(10, 15), 3,
                                     "sending")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [group for _, group in results] == [[10, 11], [12, 13], [14]]
    assert all(len(block) == 2**20 for block, _ in results)


# run_groups owns the fork protocol: a call split over several groups
# returns, warns and raises as the one-group call does, whether its groups
# run in forked workers or, where os.fork fails, in the calling process.

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
            result = workers.run_groups(work, items, processes, "testing items")
        except ValidationError as exc:
            result = f"ValidationError: {exc}"
    return result, [str(w.message) for w in shown]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("fails", [False, True], ids=["forked", "fork-fails"])
@pytest.mark.parametrize("stop", [None, 11, 13, 15, 12], ids=[
    "no-error", "in-the-caller", "in-a-worker", "in-the-last-worker", "first-of-a-worker"])
def test_a_split_call_warns_and_raises_as_the_one_group_call(monkeypatch, fails, stop):
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
    forks = spy_forks(monkeypatch, fails=False)
    with pytest.raises(ValidationError, match="^stopped at item 11$"):
        workers.run_groups(work, range(10, 14), 2, "testing items")
    assert forks == [os.getpid()]


@pytest.mark.parametrize("items, processes", [(range(0), 2), (range(5), 1), (range(1), 4)],
                         ids=["no-items", "one-process", "one-item"])
def test_one_group_runs_the_work_on_all_items_and_forks_nothing(monkeypatch, items, processes):
    forks = spy_forks(monkeypatch, fails=False)
    assert workers.run_groups(lambda group: group, items, processes, "testing items") == [items]
    assert forks == []
