"""Run work on contiguous groups of items: the first group in the calling
process, each other group in a forked worker.

A pinned call (``pinned``) runs at one BLAS thread and leaves the
caller's other threads idle, so ``pinned`` alone decides how many
processes such a call may use: the lesser of the caller's BLAS thread
count and the CPUs this process may run on.  It grants 1 where the caller
runs at one thread, where os.fork is missing, and while another
interpreter thread runs.  A fork copies only the calling thread, so a
lock another interpreter thread holds would stay held in the child; with
one interpreter thread the only other OS threads are OpenBLAS's idle
workers, and a pinned block makes no BLAS call while it forks.

``run_groups`` splits its items into contiguous groups, forks a worker
for every group but the first, and runs the first in the calling
process.  Each worker inherits the caller's memory, including the one
BLAS thread of the pin, computes its group, sends the group's result
back pickled through a pipe and leaves with os._exit, so it never returns
into the caller's code.  The caller reads every pipe to its end before it
reaps the worker: a result larger than the pipe's buffer (64 KiB on
Linux) blocks its worker until the caller reads it.  A group whose fork
fails runs in the calling process.  A worker that ends without sending
its result raises NumericalError naming its items, and when the calling
process raises, the workers still running are killed; either way every
worker is reaped before the call returns or raises.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
import traceback
import warnings
from itertools import accumulate

from . import blas
from .adapters import _split
from .errors import NumericalError


@contextlib.contextmanager
def pinned():
    """Run the block under blas.one_thread(); yields how many processes the
    block may use (see the module docstring)."""
    processes = blas.threads()
    if processes > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        processes = min(processes, cpus or 1)
    else:
        processes = 1
    with blas.one_thread():
        yield processes


def run_groups(work, items: range, n_groups: int, doing: str) -> list:
    """[work(group) for group in groups]: items split into n_groups
    contiguous ranges, of the sizes adapters._split gives.

    work(groups[0]) runs in the calling process and every other group in a
    forked worker, whose result must pickle.  A worker that dies names its
    group in words: "the worker {doing} {first} to {last} was killed by
    signal 9 before it finished".
    """
    bounds = tuple(accumulate(_split(len(items), n_groups), initial=0))
    groups = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    results = [None] * n_groups
    local, workers = [0], {}  # workers: pid -> (group index, read end of its pipe)
    try:
        for g in range(1, n_groups):
            read, write = os.pipe()
            try:
                pid = _fork()
            except OSError:
                os.close(read)
                os.close(write)
                local.append(g)
                continue
            if pid == 0:  # the worker: it must never return into the caller's code
                code = 1
                try:
                    with open(write, "wb") as pipe:
                        pickle.dump(work(groups[g]), pipe)
                    code = 0
                except Exception:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            os.close(write)  # so that a later worker holds no write end of this pipe
            workers[pid] = g, open(read, "rb")
        for g in local:
            results[g] = work(groups[g])
        for pid, (g, pipe) in list(workers.items()):
            with pipe:
                sent = pipe.read()
            exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if exit_code != 0:
                how = (f"was killed by signal {-exit_code}" if exit_code < 0
                       else f"exited with {exit_code}")
                raise NumericalError(f"the worker {doing} {groups[g][0]} to {groups[g][-1]} "
                                     f"{how} before it finished")
            results[g] = pickle.loads(sent)
    finally:
        for pid, (_, pipe) in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    return results


def _fork() -> int:
    """os.fork() for run_groups, which forks only where pinned grants
    several processes."""
    with warnings.catch_warnings():
        # Python 3.12 and later warn on every fork in a process with another
        # OS thread.  Here those are OpenBLAS's idle workers (see pinned),
        # and the child runs numpy on arrays that exist, at one BLAS thread.
        warnings.filterwarnings(
            "ignore", category=DeprecationWarning,
            message=r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) "
                    r"may lead to deadlocks in the child\.")
        return os.fork()
