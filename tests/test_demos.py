import os
import subprocess
import sys
from pathlib import Path

import pytest

import reconv

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_four_demos():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs_to_completion(tmp_path, demo):
    src = str(Path(reconv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    if demo.stem == "04_depth_experiment":
        assert (tmp_path / "out" / "depth_experiment.csv").exists()
