"""Run work on contiguous groups of items: the first group in the calling
process, each other group in a forked worker.

``run_groups`` runs every group at one BLAS thread (blas.one_thread), the
one-group call included.  The pin leaves the caller's other threads
idle, so ``run_groups`` alone also decides how many processes a call may
use, its grant: the lesser of the caller's BLAS thread count and the CPUs
this process may run on.  It grants 1 where the caller runs at one
thread, as inside a blas.one_thread() block, where os.fork is missing,
and while another interpreter thread runs.  A fork copies only the
calling thread, so a lock another interpreter thread holds would stay
held in the child; with one interpreter thread the only other OS threads
are OpenBLAS's idle workers, and run_groups makes no BLAS call while it
forks.

``run_groups`` alone decides how many groups a call splits into.  Its
caller passes the call's work in multiply-adds, and a call granted p
processes for m multiply-adds splits its items into
max(1, min(items, p, m // _FORK_MADDS)) contiguous groups: a fork pays
only for work that takes longer than the fork.  _FORK_MADDS = 2**24 puts
each call below on the faster side of its break-even, or, near it, on a
side within the timing noise.  Each call was timed in one group and in
two, in ms, at 2 BLAS threads in one process on a shared 2-vCPU box
(numpy 2.4.6, OpenBLAS 0.3.31), median of 15; the multiply-adds are
those its caller passes, and two groups need 2**25.  The train_seeds
runs are the capacity task's shape at d (n = 2d, target rank 3d/4, two
target blocks, K=2, r = min(16, d)); grad_check's task and adapter are
those of smoa gradcheck --d d --k 2 --r 4.  A bare 2-group round trip
took 3.4 ms.

    call                                      multiply-adds  one group  two groups
    train_seeds, 2 smoa runs, d=8, 50 steps         2**17.1        8.0        11.4
    train_seeds, 2 smoa runs, d=16, 200 steps       2**22.1       21.5        22.8
    train_seeds, 2 smoa runs, d=32, 500 steps       2**26.2       65.2        56.4
    train_seeds, 2 smoa runs, d=64, 500 steps       2**29.1      106.1        86.4
    grad_check smoa, d=8                            2**15.2        2.2         5.5
    grad_check smoa, d=16                           2**19.1        3.8         6.1
    grad_check smoa, d=32                           2**23.1        9.6         8.7
    grad_check smoa, d=64                           2**27.0       34.1        22.7

A caller whose work is mostly per-call overhead, as a sweep's rows at
small d are, states it at more than its bare multiply-add count.

``run_groups`` owns the whole fork protocol, so a split call returns,
warns and raises as the one-process call does:

* With one group, empty items included, it returns [work(items)] and
  forks nothing.
* Otherwise it forks a worker for every group but the first, and runs
  the first in the calling process, as it runs a group whose fork fails.
  Each worker inherits the caller's memory, including the one BLAS
  thread of the pin, computes its group, sends the outcome back pickled
  through a pipe and leaves with os._exit, so it never returns into the
  caller's code.  The caller reads every pipe to its end before it reaps
  the worker: an outcome larger than the pipe's buffer (64 KiB on Linux)
  blocks its worker until the caller reads it.
* Every group, local or forked, records the warnings it issues, whatever
  the filters, and stops at its first SmoaError.  Once all groups are
  in, the caller issues the warnings again in group order, as issued in
  their own modules, so the caller's filters and each module's registry
  decide what shows, and raises the error of the lowest group that
  stopped.  Any other exception in the calling process propagates at
  once.  A worker's warning whose message or category cannot pickle,
  such as one of a class defined in a function, is sent and issued
  again as its text under UserWarning.
* A worker that ends without sending its outcome, killed or exiting on
  an exception that is no SmoaError, raises NumericalError naming its
  items.  When the calling process raises, the workers still running
  are killed; either way every worker is reaped before the call returns
  or raises.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import traceback
import warnings
from itertools import accumulate

from . import blas
from .adapters import _split
from .errors import NumericalError, SmoaError

_FORK_MADDS = 2**24  # multiply-adds of work that pay for each group of a split (module docstring)


def run_groups(work, items: range, doing: str, madds: int) -> list:
    """[work(group) for group in groups], each at one BLAS thread: items
    split into max(1, min(len(items), grant, madds // _FORK_MADDS))
    contiguous ranges, of the sizes adapters._split gives, where grant is
    the processes the call may use (see the module docstring) and madds
    the multiply-adds of work(items).

    work(groups[0]) runs in the calling process and every other group in a
    forked worker, whose result must pickle; the groups' warnings and
    SmoaErrors reach the caller in group order (see the module docstring).
    A worker that dies names its group in words: "the worker {doing}
    {first} to {last} was killed by signal 9 before it finished".
    """
    grant = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        grant = min(blas.threads(), cpus or 1)
    n_groups = max(1, min(len(items), grant, madds // _FORK_MADDS))
    with blas.one_thread():
        if n_groups == 1:
            return [work(items)]
        bounds = tuple(accumulate(_split(len(items), n_groups), initial=0))
        groups = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        outcomes, local = [None] * n_groups, [0]
        workers = {}  # pid -> (group index, read end of its pipe)
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
                            result, error, caught = _recorded(work, groups[g])
                            pickle.dump((result, error, [_sendable(*w) for w in caught]), pipe)
                        code = 0
                    except Exception:
                        traceback.print_exc()
                    finally:
                        os._exit(code)
                os.close(write)  # so that a later worker holds no write end of this pipe
                workers[pid] = g, open(read, "rb")
            for g in local:
                outcomes[g] = _recorded(work, groups[g])
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
                outcomes[g] = pickle.loads(sent)
        finally:
            for pid, (_, pipe) in workers.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pipe.close()
        for _, error, caught in outcomes:
            for warning in caught:
                _warn_again(*warning)
            if error is not None:
                raise error
        return [result for result, _, _ in outcomes]


def _recorded(work, group: range) -> tuple:
    """(work(group), error, warnings) for run_groups: error is the SmoaError
    that stopped the work, with None for its result, or None; warnings
    holds the (message, category, filename, lineno) of every warning
    issued on the way, whatever the filters."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = work(group), None
        except SmoaError as exc:
            outcome = None, exc
    return *outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _sendable(message, category, filename, lineno) -> tuple:
    """A warning _recorded recorded, as a worker sends it: as recorded where
    its message and category pickle, and as its text under UserWarning
    where they do not, such as a category defined in a function."""
    try:
        pickle.dumps((message, category))
    except (pickle.PicklingError, AttributeError, TypeError):
        return str(message), UserWarning, filename, lineno
    return message, category, filename, lineno


def _warn_again(message, category, filename, lineno) -> None:
    """Issue a warning that _recorded recorded as warnings.warn issued it in
    the module of filename: the caller's filters and that module's registry
    of the warnings it has shown decide whether it shows."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
    warnings.warn_explicit(message, category, filename, lineno,
                           getattr(module, "__name__", None), registry)


def _fork() -> int:
    """os.fork() for run_groups, which forks only where its grant is
    several processes."""
    with warnings.catch_warnings():
        # Python 3.12 and later warn on every fork in a process with another
        # OS thread.  Here those are OpenBLAS's idle workers (module docstring),
        # and the child runs numpy on arrays that exist, at one BLAS thread.
        warnings.filterwarnings(
            "ignore", category=DeprecationWarning,
            message=r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) "
                    r"may lead to deadlocks in the child\.")
        return os.fork()
