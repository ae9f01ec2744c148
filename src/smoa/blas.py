"""Run a block of code at one BLAS thread.

numpy's bundled OpenBLAS keeps one thread count for the whole process,
and numpy exports no call to set it, so ``one_thread`` sets it through
the library's own symbols, looked up through numpy's linalg extension,
which links the BLAS.  The count is process-global: every thread of the
process sees the pin while the block runs.  A pinned block computes what
it computes at one thread, whatever the caller's count.  For values-only
SVDs, QR and GEMMs those are the same bits at any count, so the pin
changes only their speed.  BLAS sums such as ``np.linalg.norm`` and the
singular vectors of a full SVD from d=256 up can change in their last
bits with the count, so a pinned block that computes them gives the
one-thread bits where an unpinned one would give the caller's.
``PINNABLE`` is False where numpy links another BLAS, and then
``one_thread`` does nothing.  ``one_thread()`` also decorates a function,
which then runs whole at one thread on every call.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy.linalg._umath_linalg as _linalg

_lib = ctypes.CDLL(_linalg.__file__)
_set_threads = getattr(_lib, "scipy_openblas_set_num_threads64_", None)
_get_threads = getattr(_lib, "scipy_openblas_get_num_threads64_", None)
if _set_threads is None or _get_threads is None:
    _set_threads = _get_threads = None
else:
    _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None
    _get_threads.argtypes, _get_threads.restype = [], ctypes.c_int

PINNABLE = _set_threads is not None


@contextlib.contextmanager
def one_thread():
    """Run the block at one BLAS thread and restore the previous count
    afterwards, also when the block raises.  Yields whether it pinned: it
    does nothing where the BLAS offers no thread setter or the count is
    already 1, so nested blocks pin once.
    """
    previous = _get_threads() if _set_threads is not None else 1
    if previous == 1:
        yield False
        return
    _set_threads(1)
    try:
        yield True
    finally:
        _set_threads(previous)
