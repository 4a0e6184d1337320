"""Exact bytes of every CSV artifact, and the flag of every config key.

The golden strings pin the one CSV format the package writes: header
row, "\\n" line endings, floats as repr, bools as true/false, and quoting
only where a field needs it.
"""

import csv
import math

import numpy as np
import pytest

from reconv import (CellResult, EpochRecord, ExperimentResult, TrainResult,
                    contours_csv, emit_contours, make_synthetic, match_pairs,
                    metrics_csv, pairs_csv, results_csv, save_raw)
from reconv import cli
from reconv.table import csv_text

PAIRS = (
    'L,m_untied,m_tied,p_untied,p_tied,rel_diff\n'
    '3,16,20,20298,20290,0.0003941275002463297\n'
    '3,28,38,44586,44698,0.0025057049532417556\n'
    '3,26,35,39998,40225,0.005643256681168427\n'
    '3,18,23,23806,23953,0.006137018327558134\n'
    '3,24,32,35626,35914,0.008019156874756362\n'
    '3,20,26,27530,27778,0.008927928576571388\n'
    '3,22,29,31470,31765,0.009286951046749568\n'
)

CONTOURS = {
    "tied": (
        'M,L,param_count,level_id\n'
        '8.0,1,7258,-1\n'
        '8.0,2,7258,-1\n'
        '8.0,4,7258,-1\n'
        '16.0,1,15658,-1\n'
        '16.0,2,15658,-1\n'
        '16.0,4,15658,-1\n'
        '32.0,1,35914,-1\n'
        '32.0,2,35914,-1\n'
        '32.0,4,35914,-1\n'
        '8.0,1,7258,0\n'
        '8.0,2,7258,0\n'
        '8.0,4,7258,0\n'
        '32.0,1,35914,1\n'
        '32.0,2,35914,1\n'
        '32.0,4,35914,1\n'
    ),
    "untied": (
        'M,L,param_count,level_id\n'
        '8.0,1,7258,-1\n'
        '8.0,2,7842,-1\n'
        '8.0,4,9010,-1\n'
        '16.0,1,15658,-1\n'
        '16.0,2,17978,-1\n'
        '16.0,4,22618,-1\n'
        '32.0,1,35914,-1\n'
        '32.0,2,45162,-1\n'
        '32.0,4,63658,-1\n'
        '8.0,1,7258,0\n'
        '7.475555877581744,2,7258,0\n'
        '6.71822649735682,4,7258,0\n'
        '9.76281428642553,1,9010,1\n'
        '9.023287522384313,2,9010,1\n'
        '8.0,4,9010,1\n'
        '32.0,1,35914,2\n'
        '27.130985705263033,2,35914,2\n'
        '22.02725042004373,4,35914,2\n'
        '49.68113316926084,1,63658,3\n'
        '40.63331012272186,2,63658,3\n'
        '32.0,4,63658,3\n'
    ),
}

METRICS = {
    False: (
        'epoch,train_loss,train_error,test_error,seconds\n'
        '1,2.302585092994046,0.875,0.9,0.0\n'
        '2,1.25,nan,nan,0.0\n'
        '3,0.0,0.0,0.0,0.0\n'
    ),
    True: (
        'epoch,train_loss,train_error,test_error,seconds\n'
        '1,2.302585092994046,0.875,0.9,1.5\n'
        '2,1.25,nan,nan,2.25\n'
        '3,0.0,0.0,0.0,0.125\n'
    ),
}

RESULTS = {
    False: (
        'kind,tied,M,L,param_count,train_error,test_error,seed,epochs,seconds,error\n'
        'layers-tied,true,4,2,1234,0.0,0.5,0,2,0.0,\n'
        'layers-tied,false,4,2,1270,nan,nan,1,2,0.0,'
        '"non-finite loss in epoch 1, batch 0: ""nan"""\n'
    ),
    True: (
        'kind,tied,M,L,param_count,train_error,test_error,seed,epochs,seconds,error\n'
        'layers-tied,true,4,2,1234,0.0,0.5,0,2,3.5,\n'
        'layers-tied,false,4,2,1270,nan,nan,1,2,0.25,'
        '"non-finite loss in epoch 1, batch 0: ""nan"""\n'
    ),
}

CONVERT_CHECK = (
    'path,records,classes,status\n'
    'img.bin,5,10,ok\n'
    'lab.bin,5,10,ok\n'
)


def test_pairs_csv_bytes():
    assert pairs_csv(match_pairs(3, (16, 40), 0.01)) == PAIRS


@pytest.mark.parametrize("kind", ["tied", "untied"])
def test_contours_csv_bytes(kind):
    assert contours_csv(emit_contours([8, 16, 32], [1, 2, 4], kind)) == CONTOURS[kind]


@pytest.mark.parametrize("wall_time", [False, True])
def test_metrics_csv_bytes(wall_time):
    records = [EpochRecord(1, 2.302585092994046, 0.875, 0.9, seconds=1.5),
               EpochRecord(2, 1.25, math.nan, math.nan, seconds=2.25),
               EpochRecord(3, 0.0, 0.0, 0.0, seconds=0.125)]
    result = TrainResult(records=records, params=None, state=None)
    assert metrics_csv(result, wall_time=wall_time) == METRICS[wall_time]


@pytest.mark.parametrize("wall_time", [False, True])
def test_results_csv_bytes(wall_time):
    cells = [CellResult("layers-tied", True, 4, 2, 1234, 0.0, 0.5, 0, 2, seconds=3.5),
             CellResult("layers-tied", False, 4, 2, 1270, math.nan, math.nan, 1, 2,
                        seconds=0.25, error='non-finite loss in epoch 1, batch 0: "nan"')]
    result = ExperimentResult(spec=None, cells=cells)
    assert results_csv(result, wall_time=wall_time) == RESULTS[wall_time]


def test_convert_check_csv_bytes(tmp_path):
    save_raw(make_synthetic(5, seed=0), tmp_path / "img.bin", tmp_path / "lab.bin")
    assert cli.main(["convert-check", "--format", "raw", "--images", "img.bin",
                     "--labels", "lab.bin", "--n", "5", "--data-dir", str(tmp_path),
                     "--out", str(tmp_path / "cc")]) == 0
    assert (tmp_path / "cc" / "convert_check.csv").read_text() == CONVERT_CHECK


def test_numpy_scalars_are_written_as_plain_values():
    rows = [(np.float64(0.1), np.True_), (np.float32(0.5), False), (1e-300, True)]
    assert csv_text(["x", "ok"], rows) == "x,ok\n0.1,true\n0.5,false\n1e-300,true\n"


def test_gradcheck_csv_cells_are_numbers(tmp_path):
    out = tmp_path / "gc"
    assert cli.main(["gradcheck", "--m", "2", "--l", "2", "--tied", "--out", str(out)]) == 0
    with open(out / "gradcheck.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        assert float(row["max_rel_err"]) < 1e-4
        assert row["pass"] == "true"


def _flag_cases():
    for command, defaults in cli.DEFAULTS.items():
        for key in defaults:
            if key == "tied":
                yield command, key, ["--tied"], "true"
                yield command, key, ["--tied", "--untied"], "false"  # last flag wins
            elif key != "out":  # every case sets --out
                value = "wall" if key == "timing" else "7"
                yield command, key, ["--" + key.replace("_", "-"), value], value


FLAG_CASES = list(_flag_cases())


@pytest.mark.parametrize("command,key,argv,value", FLAG_CASES,
                         ids=[f"{c[0]} {' '.join(c[2])}" for c in FLAG_CASES])
def test_every_config_key_is_a_flag_that_reaches_the_manifest(
        command, key, argv, value, tmp_path, monkeypatch):
    def manifest_only(cfg):
        cli._prepare_out(cfg)
        return 0

    monkeypatch.setitem(cli._HANDLERS, command, manifest_only)
    out = tmp_path / "o"
    assert cli.main([command, *argv, "--out", str(out)]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert f"{key}={value}" in lines
    assert f"out={out}" in lines
    keys = {line.partition("=")[0] for line in lines if not line.startswith("#")}
    assert keys == set(cli.DEFAULTS[command]) | {"command"}


def test_experiment_has_no_seed_key(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("seed=5\n")
    assert cli.main(["experiment", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "unknown config key 'seed'" in capsys.readouterr().err
