"""Thread-count pin for the OpenBLAS bundled with numpy, and the placement
of pooled workers.

The Monte Carlo harnesses and the command-line entry point run their BLAS
work on one thread: results then do not depend on the core count, pooled
workers do not oversubscribe the cores, and small solves avoid the slow
multithreaded mode of OpenBLAS.

A process pool is pinned once, by the process that starts it and runs
chunks beside it (``sim._replicate``): the pin covers those chunks, and
forked workers inherit the one-thread setting and must leave it alone.  In a
forked child any call to the OpenBLAS setter, even one that sets the count
it already has, restarts the BLAS thread server, so the worker then runs
with a second OS thread and pooled work takes about twice its CPU time in
wall time.  ``_start_worker`` is the first thing a pool worker runs, before
it claims a chunk (``sim._pool_worker``); for spawn and forkserver starts,
whose workers begin with OpenBLAS's default count, it pins one thread,
calling the setter only when the count is not already 1.

Before that pin, ``_start_worker`` moves the worker off the CPU the caller
ran on when it started the pool (``_current_cpu``): the worker's affinity
becomes its allowed CPUs minus that one.  A forked child starts on its
parent's CPU, and a host whose cpuset has ``sched_load_balance`` 0 never
moves a task to another CPU, so there the worker and the caller, which
runs chunks beside it, would share one CPU for the whole call while the
others sit idle.  The caller's own affinity never changes.  Placement is
skipped where it would leave the worker no CPU, where the platform has no
``os.sched_setaffinity``, and where the caller's CPU cannot be read.  It
touches no arithmetic, so no result changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

# thread-count symbols of the OpenBLAS that numpy wheels bundle: numpy >= 2
# ships scipy-openblas, numpy 1.x an ILP64 OpenBLAS without the prefix
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _thread_functions(lib):
    """(get, set) thread-count functions of a loaded OpenBLAS, or None."""
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        try:
            get, put = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS bundled with
    numpy, or None when numpy carries no such library."""
    root = os.path.dirname(np.__file__)
    for pattern in (os.path.join(root, os.pardir, "numpy.libs", "*openblas*"),
                    os.path.join(root, ".dylibs", "*openblas*")):
        for path in sorted(glob.glob(pattern)):
            try:
                fns = _thread_functions(ctypes.CDLL(path))
            except OSError:
                continue
            if fns is not None:
                return fns
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread, restoring the caller's count on
    exit: BLAS results then do not depend on the core count, and pooled
    workers do not oversubscribe the cores.  A no-op without OpenBLAS."""
    fns = _openblas_threads()
    if fns is None:
        yield
        return
    get, put = fns
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _current_cpu():
    """The CPU the calling thread runs on, from field 39 of
    ``/proc/thread-self/stat``; None where that cannot be read, or where
    the platform has no ``os.sched_setaffinity`` to use it with."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            # fields from 3 on follow the parenthesised command name
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except OSError:
        return None


def _start_worker(caller_cpu):
    """Start a pool worker: move it off ``caller_cpu``, the CPU the pool's
    caller ran on (None: stay), unless that would leave it no CPU; then pin
    numpy's OpenBLAS to one thread, never calling the setter when the count
    is already 1 (a forked worker that inherited the pin)."""
    if caller_cpu is not None:
        others = os.sched_getaffinity(0) - {caller_cpu}
        if others:
            with contextlib.suppress(OSError):  # placement only saves time
                os.sched_setaffinity(0, others)
    fns = _openblas_threads()
    if fns is not None and fns[0]() != 1:
        fns[1](1)
