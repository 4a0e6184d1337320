"""Forked worker processes, shared by sweeps, training and evaluation.

One rule decides how many processes a job uses, and one pool type runs
them. A job that shares ranges of work with helpers for its own length
(``helpers``) cuts every range by one rule too. The pool forks, so the
datasets a job hands it are inherited by every worker rather than
pickled; only task arguments and results cross a process boundary. A worker that dies (killed by the kernel's OOM
killer, say) makes every unfinished result raise ``BrokenProcessPool``
instead of leaving the caller waiting forever.

While a pool is open, the calling process and its workers run OpenBLAS
on one thread each. The processes already fill the cores, and OpenBLAS
threads spin while they wait for work: two processes with two BLAS
threads each train at half the speed of one process alone.

``multiprocessing`` and ``concurrent.futures`` are imported only when a
job asks for workers, because importing them is slow.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial

# The objects a worker process inherited from fork_pool; empty elsewhere.
_shared: tuple = ()


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # platforms without CPU affinity
        return os.cpu_count() or 1


def worker_count(tasks: int) -> int:
    """How many processes should share ``tasks`` parallel tasks:
    min(available cores, tasks), or 1, meaning the calling process alone,
    where the platform cannot fork or the caller is itself a worker
    process, whose parent already keeps the other cores busy."""
    workers = min(available_cores(), tasks)
    if workers <= 1:
        return 1
    import multiprocessing
    if (multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return workers


def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS loaded into this
    process, found among its mapped files; None where there is none."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:            # no /proc: not Linux
        return None
    import ctypes
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_", "_64"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    return get, set_
    return None


@contextmanager
def _one_blas_thread():
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def _inherit(*shared) -> None:
    global _shared
    _shared = shared


@contextmanager
def fork_pool(workers: int, *shared):
    """A ``concurrent.futures.ProcessPoolExecutor`` of ``workers`` forked
    processes, in each of which ``shared()`` returns ``shared``; shut down
    on leaving the ``with`` block. The processes start at the first
    submit, before the pool starts its own threads, and inherit this
    process's BLAS thread count, which is 1 until the block ends."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with _one_blas_thread(), ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_inherit, initargs=shared) as pool:
        yield pool


def shared() -> tuple:
    """In a worker of ``fork_pool``, the objects the pool was given."""
    return _shared


@contextmanager
def helpers(tasks: int, *shared):
    """Yield ``split`` for a job of ``tasks`` parallel tasks, run by
    ``processes = worker_count(tasks)`` processes: this one and the helpers
    of ``fork_pool(processes - 1, *shared)``, open until the block ends.

    ``split(n, fn, *args, step=1)`` cuts ``range(n)``, n >= 1, on
    multiples of ``step`` into one contiguous run per process, or fewer
    where there are fewer steps, and submits ``fn(*args, start, stop)`` to
    the helpers for every run after the first. It returns the first run's
    end, for this process to do ``range(end)`` itself, and the helpers'
    futures in run order. With one process it submits nothing and returns
    ``n``.
    """
    processes = worker_count(tasks)
    if processes == 1:
        yield partial(_split, None, 1)
        return
    with fork_pool(processes - 1, *shared) as pool:
        yield partial(_split, pool, processes)


def _split(pool, processes: int, n: int, fn, *args, step: int = 1):
    steps = -(-n // step)
    runs = min(processes, steps)
    # bounds, not index arrays, so that a helper can slice its run uncopied
    edges = [min(n, step * (steps * run // runs)) for run in range(runs + 1)]
    futures = [pool.submit(fn, *args, start, stop)
               for start, stop in zip(edges[1:-1], edges[2:])]
    return edges[1], futures
