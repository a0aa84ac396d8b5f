"""Independent tasks on the process's CPUs, one BLAS thread per task.

Small matrix products gain little from OpenBLAS's own thread split, while
Python threads running numpy kernels, which release the GIL, keep both
cores busy.  Every task computes exactly what it would in a serial loop,
so results do not depend on the worker count.
"""

from __future__ import annotations

import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["ahead", "openblas", "task_map", "workers"]


def _typed(lib, symbol, restype, argtypes):
    fn = getattr(lib, symbol, None)
    if fn is not None:
        fn.argtypes, fn.restype = list(argtypes), restype
    return fn


def openblas(symbol, restype=ctypes.c_int, argtypes=()):
    """Function `symbol` of numpy's bundled OpenBLAS, or None if absent."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        fn = _typed(ctypes.CDLL(path), symbol, restype, argtypes)
        if fn is not None:
            return fn
    return None


def workers() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _trim():
    # glibc keeps each pool thread's freed heap for that thread, out of
    # the caller's reach, and later peaks would stack on top of it
    trim = _typed(ctypes.CDLL(None), "malloc_trim", ctypes.c_int,
                  [ctypes.c_size_t])
    if trim is not None:
        trim(0)


def task_map(fn, items) -> list:
    """[fn(item) for item in items], run on a pool of workers() threads
    with OpenBLAS at one thread for the duration; serial in the caller
    when the process has one CPU or the thread count cannot be set.  The
    previous BLAS thread count is restored, also when a task raises, and
    no pool thread outlives the call."""
    items = list(items)
    n = min(workers(), len(items))
    get = put = None
    if n > 1:
        get = openblas("scipy_openblas_get_num_threads64_")
        put = openblas("scipy_openblas_set_num_threads64_", None,
                       [ctypes.c_int])
    if get is None or put is None:
        return [fn(item) for item in items]
    before = get()
    put(1)
    try:
        with ThreadPoolExecutor(n) as pool:
            return list(pool.map(fn, items))
    finally:
        put(before)
        _trim()


def ahead(fn, items):
    """Yield fn(item) for each item in order; every call runs on one extra
    thread, one item ahead of the caller, or serially on one CPU.  Closing
    the generator, also when the caller raises or stops early, joins it."""
    if workers() < 2:
        yield from map(fn, items)
        return
    pool, last = ThreadPoolExecutor(1), None
    try:
        for item in items:
            last, done = pool.submit(fn, item), last
            if done is not None:
                yield done.result()
        if last is not None:
            yield last.result()
    finally:
        pool.shutdown(cancel_futures=True)
        _trim()
