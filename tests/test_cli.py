import csv
import re

import pytest

from reconv import ArchConfig, TrainConfig, metrics_csv, ops, train
from reconv.cli import DEFAULTS, build_parser, main
from reconv.data import PIXELS_PER_IMAGE, load_raw, make_synthetic, save_raw


def run(argv):
    return main(argv)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# pairs


def test_pairs_contains_reference_row(tmp_path):
    out = tmp_path / "run"
    assert run(["pairs", "--layers", "3", "--m-min", "16", "--m-max", "256",
                "--tol", "0.01", "--out", str(out)]) == 0
    rows = read_rows(out / "pairs.csv")
    assert rows[0] == ["L", "m_untied", "m_tied", "p_untied", "p_tied", "rel_diff"]
    hit = [r for r in rows if r[:5] == ["3", "71", "108", "195473", "195058"]]
    assert len(hit) == 1
    assert float(hit[0][5]) == pytest.approx(415 / 195473, rel=1e-9)
    assert (out / "manifest.txt").exists()


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "gc"
    assert run(["gradcheck", "--m", "4", "--l", "3", "--tied",
                "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "overall: pass" in captured
    rows = read_rows(out / "gradcheck.csv")
    assert rows[0] == ["tensor", "max_rel_err", "pass"]
    assert all(r[2] == "true" for r in rows[1:])


def test_a_failing_gradcheck_writes_its_report_and_exits_numeric(tmp_path, capsys,
                                                                 monkeypatch):
    relu_grad = ops.relu_grad
    monkeypatch.setattr(ops, "relu_grad", lambda g, x: -relu_grad(g, x))
    out = tmp_path / "gc"
    assert run(["gradcheck", "--m", "2", "--l", "1", "--out", str(out)]) == 5
    captured = capsys.readouterr()
    assert "overall: FAIL" in captured.out
    assert "numeric" in captured.err
    rows = read_rows(out / "gradcheck.csv")
    assert "false" in {r[2] for r in rows[1:]}


@pytest.mark.parametrize("eps", ["nan", "0", "-1e-5", "inf"])
def test_gradcheck_bad_eps_is_a_config_error_and_writes_no_report(tmp_path, eps):
    out = tmp_path / "gc"
    for value in ([f"--eps={eps}"], ["--eps", eps]):
        assert run(["gradcheck", "--m", "2", "--l", "1", *value,
                    "--out", str(out)]) == 3
    assert not (out / "gradcheck.csv").exists()


@pytest.mark.parametrize("lr", ["-1e-3", "nan", "inf"])
def test_train_bad_lr_is_a_config_error(tmp_path, lr):
    assert run(["train", "--m", "2", "--l", "1", "--lr", lr, "--epochs", "1",
                "--synth-train", "32", "--synth-test", "16",
                "--out", str(tmp_path / "t")]) == 3


# ---------------------------------------------------------------------------
# train


def test_train_zero_epochs_writes_manifest_and_empty_metrics(tmp_path):
    out = tmp_path / "t0"
    assert run(["train", "--epochs", "0", "--m", "2", "--l", "1", "--tied",
                "--synth-train", "8", "--synth-test", "4",
                "--out", str(out)]) == 0
    rows = read_rows(out / "metrics.csv")
    assert rows == [["epoch", "train_loss", "train_error", "test_error", "seconds"]]
    manifest = (out / "manifest.txt").read_text()
    assert "command=train" in manifest
    assert "epochs=0" in manifest


def test_train_runs_and_replays_from_manifest(tmp_path):
    out = tmp_path / "t1"
    args = ["train", "--epochs", "2", "--m", "2", "--l", "1", "--tied",
            "--synth-train", "12", "--synth-test", "6", "--batch-size", "4",
            "--out", str(out)]
    assert run(args) == 0
    first = (out / "metrics.csv").read_bytes()
    assert len(read_rows(out / "metrics.csv")) == 3

    # replay the manifest into the same directory: byte-identical artifact
    manifest = out / "manifest.txt"
    assert run(["train", "--config", str(manifest)]) == 0
    assert (out / "metrics.csv").read_bytes() == first


def test_raw_data_train_equals_training_on_the_loaded_files(tmp_path):
    files = []
    for n, seed, name in ((12, 0, "train"), (6, 1, "test")):
        images, labels = tmp_path / f"{name}_x.bin", tmp_path / f"{name}_y.bin"
        save_raw(make_synthetic(n, seed=seed), images, labels)
        files += [f"--{name}-images", images.name, f"--{name}-labels", labels.name,
                  f"--n-{name}", str(n)]
    out = tmp_path / "t"
    assert run(["train", "--dataset", "raw", "--data-dir", str(tmp_path), *files,
                "--epochs", "2", "--m", "2", "--l", "1", "--batch-size", "4",
                "--out", str(out)]) == 0
    result = train(ArchConfig(feature_maps=2, layers=1),
                   load_raw(tmp_path / "train_x.bin", tmp_path / "train_y.bin", 12),
                   load_raw(tmp_path / "test_x.bin", tmp_path / "test_y.bin", 6),
                   TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3), 0)
    assert (out / "metrics.csv").read_text() == metrics_csv(result)


@pytest.mark.parametrize("source", ["raw", "cifar10"])
@pytest.mark.parametrize("key,value", [("input_size", "8"), ("classes", "4")])
def test_data_files_that_do_not_fit_the_model_are_config_errors(tmp_path, capsys,
                                                                 source, key, value):
    data = make_synthetic(10, seed=0)          # labels 0..9, 32x32 images
    save_raw(data, tmp_path / "x.bin", tmp_path / "y.bin")
    planes = (tmp_path / "x.bin").read_bytes()
    (tmp_path / "batch.bin").write_bytes(b"".join(
        bytes([k]) + planes[k * PIXELS_PER_IMAGE:(k + 1) * PIXELS_PER_IMAGE]
        for k in range(10)))
    files = {"raw": ["--train-images", "x.bin", "--train-labels", "y.bin", "--n-train",
                     "10", "--test-images", "x.bin", "--test-labels", "y.bin",
                     "--n-test", "10"],
             "cifar10": ["--train-files", "batch.bin", "--test-files", "batch.bin"]}
    out = tmp_path / "t"
    assert run(["train", "--dataset", source, "--data-dir", str(tmp_path),
                *files[source], f"--{key.replace('_', '-')}", value, "--epochs", "1",
                "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "config" in err and re.search(rf"\b{key}\b", err)
    assert not (out / "manifest.txt").exists()


def test_cli_outputs_are_deterministic(tmp_path):
    for args, artifact in [
        (["pairs", "--layers", "2", "--m-min", "16", "--m-max", "64"], "pairs.csv"),
        (["contours", "--kind", "untied", "--m-list", "8,16", "--l-list", "1,2"],
         "contours.csv"),
        (["gradcheck", "--m", "2", "--l", "1"], "gradcheck.csv"),
        (["train", "--epochs", "1", "--m", "2", "--l", "1",
          "--synth-train", "8", "--synth-test", "4"], "metrics.csv"),
        # synthetic data is drawn at the model's input size and class count
        (["train", "--epochs", "1", "--m", "2", "--l", "1", "--input-size", "8",
          "--classes", "4", "--synth-train", "8", "--synth-test", "4"], "metrics.csv"),
        (["experiment", "--kind", "layers-tied", "--m-list", "2", "--l-list", "1",
          "--epochs", "1", "--synth-train", "8", "--synth-test", "4"], "results.csv"),
    ]:
        out = tmp_path / artifact.replace(".csv", "")
        argv = args + ["--out", str(out)]
        assert run(argv) == 0
        first = (out / artifact).read_bytes()
        assert run(argv) == 0
        assert (out / artifact).read_bytes() == first


# ---------------------------------------------------------------------------
# experiment


def test_experiment_writes_results(tmp_path):
    out = tmp_path / "exp"
    assert run(["experiment", "--kind", "pair-tied-vs-untied",
                "--m-list", "2", "--l-list", "1", "--epochs", "0",
                "--synth-train", "6", "--synth-test", "4",
                "--out", str(out)]) == 0
    rows = read_rows(out / "results.csv")
    assert rows[0][:5] == ["kind", "tied", "M", "L", "param_count"]
    assert len(rows) == 3  # tied + untied cells


# ---------------------------------------------------------------------------
# convert-check


def test_convert_check_raw_ok(tmp_path):
    data = make_synthetic(5, seed=0)
    img, lab = tmp_path / "img.bin", tmp_path / "lab.bin"
    save_raw(data, img, lab)
    out = tmp_path / "cc"
    assert run(["convert-check", "--format", "raw", "--images", str(img),
                "--labels", str(lab), "--n", "5", "--out", str(out)]) == 0
    rows = read_rows(out / "convert_check.csv")
    assert rows[0] == ["path", "records", "classes", "status"]
    assert rows[1][1] == "5" and rows[1][3] == "ok"


def test_convert_check_cifar_reports_per_file_counts(tmp_path):
    from reconv.data import PIXELS_PER_IMAGE as npix
    record = bytes([1]) + bytes(npix)
    (tmp_path / "a.bin").write_bytes(record * 3)
    (tmp_path / "b.bin").write_bytes(record)
    out = tmp_path / "cc"
    assert run(["convert-check", "--format", "cifar10", "--files", "a.bin,b.bin",
                "--data-dir", str(tmp_path), "--out", str(out)]) == 0
    rows = read_rows(out / "convert_check.csv")
    assert rows[1] == ["a.bin", "3", "10", "ok"]
    assert rows[2] == ["b.bin", "1", "10", "ok"]


def test_convert_check_rejects_malformed(tmp_path, capsys):
    img, lab = tmp_path / "img.bin", tmp_path / "lab.bin"
    img.write_bytes(bytes(PIXELS_PER_IMAGE + 1))  # one stray byte
    lab.write_bytes(bytes(1))
    code = run(["convert-check", "--format", "raw", "--images", str(img),
                "--labels", str(lab), "--n", "1", "--out", str(tmp_path / "cc")])
    assert code == 4
    assert "data-format" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration and error categories


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("layers=3\nbogus_key=1\n")
    code = run(["pairs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "config" in err and "bogus_key" in err and "m_min" in err


def test_config_file_with_comments_and_flag_override(tmp_path):
    cfg = tmp_path / "pairs.cfg"
    cfg.write_text("# matched pairs near the reference budget\n"
                   "layers=3\nm_min=64\nm_max=128\ntol=0.01\n")
    out = tmp_path / "o"
    assert run(["pairs", "--config", str(cfg), "--tol", "0.005",
                "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "tol=0.005" in manifest  # flag wins over file
    assert "m_min=64" in manifest


def test_manifest_from_other_command_rejected(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["pairs", "--out", str(out)]) == 0
    code = run(["train", "--config", str(out / "manifest.txt")])
    assert code == 3
    assert "pairs" in capsys.readouterr().err


def test_missing_dataset_file_is_data_format_error(tmp_path, capsys):
    code = run(["train", "--dataset", "cifar10",
                "--train-files", "nope.bin", "--test-files", "nope.bin",
                "--data-dir", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "not found" in capsys.readouterr().err


def test_data_dir_env_var_is_default_root(tmp_path, monkeypatch):
    data = make_synthetic(4, seed=0)
    save_raw(data, tmp_path / "imgs.bin", tmp_path / "labs.bin")
    monkeypatch.setenv("RECONV_DATA_DIR", str(tmp_path))
    assert run(["convert-check", "--format", "raw", "--images", "imgs.bin",
                "--labels", "labs.bin", "--n", "4",
                "--out", str(tmp_path / "o")]) == 0


def test_usage_error_exit_code():
    assert run(["pairs", "--no-such-flag"]) == 2
    assert run([]) == 2


@pytest.mark.parametrize("argv", [["experiment", "--seed", "5"],   # not --seeds
                                  ["train", "--epoch", "1"],       # not --epochs
                                  ["--vers"]])                     # not --version
def test_abbreviated_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_invalid_value_is_config_error(tmp_path, capsys):
    small = ["--synth-train", "8", "--synth-test", "4", "--epochs", "1"]
    no_equals, bad_bool = tmp_path / "no_equals.cfg", tmp_path / "bad_bool.cfg"
    no_equals.write_text("layers 3\n")
    bad_bool.write_text("tied=maybe\n")
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    raw = ["--dataset", "raw", "--train-images", str(empty), "--train-labels", str(empty),
           "--test-images", str(empty), "--test-labels", str(empty)]
    cases = [(None, argv) for argv in (
                 ["pairs", "--layers", "three"], ["pairs", "--tol", "nan"],
                 ["train", "--sigma-v", "nan", *small], ["train", "--sigma-v", "inf", *small],
                 ["train", "--synth-noise", "nan", *small],
                 ["experiment", "--max-pairs", "-1", "--m-list", "8", "--l-list", "1",
                  *small],
                 ["experiment", "--kind", "pair-matched-features", "--tol", "nan",
                  "--m-list", "8", "--l-list", "1", *small],
                 ["gradcheck", "--m", "2", "--l", "1", "--tol", "nan"],
                 ["gradcheck", "--m", "2", "--l", "1", "--tol", "-1"],
                 ["gradcheck", "--m", "2", "--l", "1", "--input-size", "0"],
                 ["train", "--classes", "0", *small],
                 ["experiment", "--m-list", "0,8", "--l-list", "1", *small],
                 ["experiment", "--m-list", "8", "--l-list", "0", *small],
                 ["experiment", "--seeds=-1", "--m-list", "8", "--l-list", "1", *small],
                 ["train", "--seed=-1", *small], ["train", "--shuffle-seed=-1", *small],
                 ["pairs", "--config", str(tmp_path / "missing.cfg")],
                 ["pairs", "--config", str(no_equals)],
                 ["gradcheck", "--config", str(bad_bool)],
                 ["pairs", "--tol", "small"], ["contours", "--m-list", "8,x"],
                 ["train", "--dataset", "raw", *small],
                 ["train", "--dataset", "cifar10", *small],
                 ["train", "--dataset", "mnist", *small],
                 ["convert-check", "--format", "png"],
                 ["train", *raw, "--n-train", "-1", *small],
                 ["train", *raw, "--n-test", "-1", *small],
                 ["convert-check", "--images", str(empty), "--labels", str(empty),
                  "--n", "-1"],
                 ["experiment", "--m-list", "", *small], ["experiment", "--l-list", "", *small],
                 ["experiment", "--seeds", "", *small])] + [
        # the key named in the message
        ("synth_train", ["train", *small, "--synth-train", "0"]),
        ("synth_test", ["train", *small, "--synth-test", "0"]),
        ("synth_train", ["experiment", "--m-list", "2", "--l-list", "1", *small,
                         "--synth-train", "0"]),
        ("n", ["train", *small, "--synth-train", "-1"]),
        ("n_train", ["train", *raw, "--n-train", "0", "--n-test", "0", *small]),
        ("train_files", ["train", "--dataset", "cifar10", "--train-files", str(empty),
                         "--test-files", str(empty), *small]),
        ("num_classes", ["convert-check", "--images", str(empty), "--labels", str(empty),
                         "--n", "0", "--classes", "0"]),
        ("num_classes", ["convert-check", "--images", str(empty), "--labels", str(empty),
                         "--n", "0", "--classes", "-3"])]
    for key, argv in cases:
        out = tmp_path / argv[0]
        assert run([*argv, "--out", str(out)]) == 3, argv
        err = capsys.readouterr().err
        assert "config" in err
        assert key is None or re.search(rf"\b{key}\b", err), (key, err)
        assert not (out / "manifest.txt").exists(), argv


@pytest.mark.parametrize("key,argv", [
    ("m_list", ["experiment", "--m-list", "0,8", "--l-list", "1"]),
    ("l_list", ["experiment", "--m-list", "8", "--l-list", "0"]),
    ("seeds", ["experiment", "--seeds=-1", "--m-list", "8", "--l-list", "1"]),
    ("seed", ["train", "--seed=-1"]), ("shuffle_seed", ["train", "--shuffle-seed=-1"]),
    ("synth_train_seed", ["train", "--synth-train-seed=-1"]),
    ("synth_test_seed", ["train", "--synth-test-seed=-1"]),
    ("seed", ["gradcheck", "--seed=-1", "--m", "2", "--l", "1"])])
def test_a_bad_seed_or_list_entry_names_its_key(tmp_path, capsys, key, argv):
    small = [] if argv[0] == "gradcheck" else ["--synth-train", "8", "--synth-test", "4"]
    assert run([*argv, *small, "--out", str(tmp_path)]) == 3
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)


def test_a_bad_timing_is_the_same_config_error_as_a_flag_or_in_a_file(tmp_path, capsys):
    cfg = tmp_path / "timing.cfg"
    cfg.write_text("timing=bogus\n")
    errors = []
    for argv in (["pairs", "--timing", "bogus"], ["pairs", "--config", str(cfg)]):
        assert run([*argv, "--out", str(tmp_path / "o")]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "config" in errors[0] and "timing" in errors[0]
    assert not (tmp_path / "o" / "manifest.txt").exists()


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_help_lists_every_key_as_a_flag(capsys, command):
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out
    for key in DEFAULTS[command]:
        flags = ["--tied", "--untied"] if key == "tied" else ["--" + key.replace("_", "-")]
        for flag in flags:
            assert re.search(rf"{flag}\b(?!-)", usage), flag


def test_documented_defaults():
    for command in ("train", "experiment"):
        assert DEFAULTS[command]["batch_size"] == "128"
        assert float(DEFAULTS[command]["lr"]) == 1e-3
        assert DEFAULTS[command]["momentum"] == "0.9"
    assert DEFAULTS["train"]["sigma_v"] == "0.1"
    assert DEFAULTS["train"]["timing"] == "none"
