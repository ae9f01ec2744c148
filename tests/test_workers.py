import os
import signal

import pytest

from smoa import workers

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
