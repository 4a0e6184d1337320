import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reconv
from reconv import pool
from reconv.model import BLOCK


def test_worker_count_rules(monkeypatch):
    monkeypatch.setattr(pool, "available_cores", lambda: 1)
    assert pool.worker_count(8) == 1
    monkeypatch.setattr(pool, "available_cores", lambda: 3)
    assert pool.worker_count(8) == 3
    assert pool.worker_count(2) == 2
    assert pool.worker_count(1) == 1
    # a worker process runs its own tasks alone
    with pool.fork_pool(1) as workers:
        assert workers.submit(pool.worker_count, 8).result(timeout=60) == 1


def call_shared():
    return pool.shared()[0]()


def test_fork_pool_workers_inherit_shared_objects_unpickled():
    # a lambda cannot be pickled, so it can only reach the worker by fork
    with pool.fork_pool(1, lambda: 42) as workers:
        assert workers.submit(call_shared).result(timeout=60) == 42


def test_importing_the_package_loads_no_process_modules():
    src = str(Path(reconv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, reconv, reconv.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


def blas_threads():
    return pool._openblas_threads()[0]()


def test_fork_pool_runs_blas_on_one_thread_and_restores_it():
    if pool._openblas_threads() is None:
        pytest.skip("numpy's BLAS here is not OpenBLAS")
    before = blas_threads()
    with pool.fork_pool(1) as workers:
        assert blas_threads() == 1
        assert workers.submit(blas_threads).result(timeout=60) == 1
    assert blas_threads() == before


class Recorder:
    """Stands in for a pool: records each submitted call and runs none."""

    def __init__(self):
        self.calls = []

    def submit(self, fn, *args):
        self.calls.append((fn, args))
        return args


def parent_runs(n, processes, step):
    """The runs that ``train``'s minibatch split (step ``BLOCK``, stops
    past ``n`` cut short by slicing) and ``error_rate``'s split (step 1)
    gave before both went through ``pool.helpers``."""
    if step == 1:
        parts = min(processes, n)
        edges = [n * part // parts for part in range(parts + 1)]
    else:
        blocks = -(-n // step)
        parts = min(processes, blocks)
        edges = [min(n, step * (blocks * part // parts)) for part in range(parts + 1)]
    return list(zip(edges, edges[1:]))


@pytest.mark.parametrize("step", [1, BLOCK])
@pytest.mark.parametrize("processes", [1, 2, 3, 4])
def test_split_runs_cover_the_range_one_per_process(monkeypatch, processes, step):
    monkeypatch.setattr(pool, "available_cores", lambda: processes)
    recorder, started = Recorder(), []

    @contextlib.contextmanager
    def fake_pool(workers, *shared):
        started.append((workers, shared))
        yield recorder

    monkeypatch.setattr(pool, "fork_pool", fake_pool)
    for n in range(1, 71):
        recorder.calls.clear()
        started.clear()
        with pool.helpers(n, "data") as split:
            count = started[0][0] + 1 if started else 1
            assert count == min(processes, n)
            assert started == ([(count - 1, ("data",))] if count > 1 else [])
            end, futures = split(n, len, "arg", step=step)
        runs = [(0, end)] + [(start, stop) for _, start, stop in futures]
        assert recorder.calls == [(len, ("arg", start, stop)) for start, stop in runs[1:]]
        assert runs == parent_runs(n, count, step)
        assert 1 <= len(runs) <= count
        assert runs[0][0] == 0 and runs[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
        assert all(start < stop for start, stop in runs)
        assert all(stop % step == 0 for _, stop in runs[:-1])
