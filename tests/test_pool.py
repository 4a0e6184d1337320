import os
import subprocess
import sys
from pathlib import Path

import pytest

import reconv
from reconv import pool


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
