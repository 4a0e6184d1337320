"""The workloads. Each is a small study with three timed phases:

    verify    check_model_grads on the workload's architectures
    train     reconv.train, or ``reconv experiment`` through reconv.cli.main
    evaluate  the benchmark's own reconv.error_rate calls on a held-out set

A workload first builds its inputs from the seed in ``setup``; the
phases then run on them. A phase returns the work it did; ``check``
tests the first round's outputs. Inputs depend on the seed, but their
sizes and the architectures do not, so every seed does the same work.
"""

from __future__ import annotations

import csv
import sys
import traceback
from pathlib import Path

import numpy as np

import checks as chk
import reconv
import reference

RECORD = 3073
# check_model_grads runs at the oracle's default point (seed 0) whatever the
# run's seed: its relative-error floor of 1e-8 makes it fail from rounding
# alone at some other points (README, "Kept out of the workloads"), and no
# operation may fail on some seeds only.
CHECK_SEED = 0


def _sub_seed(seed: int, stream: int) -> int:
    return 1000 * seed + stream


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; a failure is counted and reported, not raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def verify_archs(self, archs) -> tuple[int, dict]:
        """check_model_grads on each architecture; returns the finite-difference
        loss evaluations (2 per coordinate, checked or skipped)."""
        reports = {arch: self.attempt(reconv.check_model_grads, arch, CHECK_SEED)
                   for arch in archs}
        evals = sum(2 * reference.param_count(arch) for arch in archs)
        return evals, reports

    @staticmethod
    def skipped(reports) -> int:
        return sum(c.skipped for r in reports.values() if r for c in r.checks)


def _write_cifar(path: Path, data) -> tuple[np.ndarray, np.ndarray]:
    """Write a dataset as one CIFAR-10 binary batch, from bytes the
    benchmark quantizes itself; returns the pixel and label bytes."""
    pixels = np.round(data.images * 255.0).astype(np.uint8).transpose(0, 3, 1, 2)
    pixels = pixels.reshape(len(data), 3072)
    labels = data.labels.astype(np.uint8)
    records = np.empty((len(data), RECORD), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = pixels
    path.write_bytes(records.tobytes())
    return pixels, labels


class DeskTrain(Workload):
    """The README quickstart model at desk scale: tied M=16 L=2 on
    generated 32x32 images written as CIFAR-10 batches and read back."""

    name = "desk-train"
    ARCH = reconv.ArchConfig(feature_maps=16, layers=2, tied=True)
    VERIFY = reconv.ArchConfig(feature_maps=16, layers=2, tied=True, input_h=8, input_w=8)
    SPLITS = {"train": (1024, 2), "test": (256, 1), "heldout": (1280, 1)}  # images, files
    CONFIG = reconv.TrainConfig(epochs=2, batch_size=128, learning_rate=1e-4, eval_every=1)

    def setup(self) -> None:
        self.data, self.written = {}, {}
        for stream, (split, (n, files)) in enumerate(self.SPLITS.items()):
            images = reconv.make_synthetic(n, _sub_seed(self.seed, stream))
            paths, pixels, labels = [], [], []
            for f, part in enumerate(np.array_split(np.arange(n), files)):
                paths.append(self.workdir / f"{split}_batch_{f}.bin")
                p, l = _write_cifar(paths[-1], images.subset(part))
                pixels.append(p)
                labels.append(l)
            del images
            self.data[split] = reconv.load_cifar10(paths)
            self.written[split] = (np.concatenate(pixels), np.concatenate(labels))

    def verify(self):
        self.fd_evals, self.reports = self.verify_archs([self.VERIFY])
        return self.fd_evals

    def train(self):
        self.result = self.attempt(reconv.train, self.ARCH, self.data["train"],
                                   self.data["test"], self.CONFIG, self.seed)
        return self.CONFIG.epochs * len(self.data["train"])

    def evaluate(self):
        held = self.data["heldout"]
        self.heldout_error = self.attempt(reconv.error_rate, self.result.params, held)
        return len(held)

    def outputs(self):
        return ([(r.train_loss, r.train_error, r.test_error) for r in self.result.records],
                self.heldout_error, self.skipped(self.reports))

    def check(self, checks: chk.Checks) -> None:
        for split, data in self.data.items():
            chk.loaded_pixels(checks, data, *self.written[split], split)
        for arch, report in self.reports.items():
            chk.grad_report(checks, arch, report, "verify")
        chk.arch_count(checks, self.ARCH, "trained")
        records = self.result.records
        checks.expect(records[-1].test_error <= 0.70,
                      f"final test error {records[-1].test_error} above 0.70")
        checks.expect(records[-1].train_loss < records[0].train_loss,
                      f"mean loss rose from {records[0].train_loss} to {records[-1].train_loss}")
        checks.expect(0.0 <= self.heldout_error <= 1.0, f"held-out error {self.heldout_error}")
        held = self.data["heldout"]
        params = self.result.params
        chk.forward_and_classes(checks, params, held.images[:6], "trained")
        chk.gradient(checks, params, held.images[:2], held.labels[:2],
                     np.random.default_rng(self.seed), 4, "trained")


class DepthSweep(Workload):
    """The depth-at-fixed-budget comparison: ``reconv experiment --kind
    pair-matched-features`` over L = 2, 4, 8 through reconv.cli.main."""

    name = "depth-sweep"
    M_RANGE, L_LIST, TOL, MAX_PAIRS = (8, 64), (2, 4, 8), 0.01, 1
    EPOCHS, N_TRAIN, N_TEST, N_HELDOUT, VERIFY_M = 2, 64, 64, 192, 3

    def setup(self) -> None:
        self.cells = chk.expected_pair_cells(self.M_RANGE, self.L_LIST, self.TOL,
                                             self.MAX_PAIRS)
        self.heldout = reconv.make_synthetic(self.N_HELDOUT, _sub_seed(self.seed, 2))
        rng = np.random.default_rng([self.seed, 1])
        self.eval_params = []
        for tied, m, layers in self.cells:
            # a random classifier, so predictions depend on the whole network
            params = reconv.init_params(reconv.ArchConfig(m, layers, tied), self.seed)
            params.classifier = rng.normal(0.0, 0.1, size=params.classifier.shape)
            params.classifier_bias = rng.normal(0.0, 0.1, size=params.classifier_bias.shape)
            self.eval_params.append(params)
        self.out = self.workdir / "experiment"
        self.argv = [
            "experiment", "--kind", "pair-matched-features",
            "--m-list", f"{self.M_RANGE[0]},{self.M_RANGE[1]}",
            "--l-list", ",".join(map(str, self.L_LIST)), "--tol", str(self.TOL),
            "--max-pairs", str(self.MAX_PAIRS), "--epochs", str(self.EPOCHS),
            "--eval-every", str(self.EPOCHS), "--batch-size", "32", "--lr", "1e-4",
            "--synth-train", str(self.N_TRAIN), "--synth-test", str(self.N_TEST),
            "--synth-train-seed", str(_sub_seed(self.seed, 0)),
            "--synth-test-seed", str(_sub_seed(self.seed, 1)),
            "--seeds", str(self.seed), "--shuffle-seed", str(self.seed),
            "--out", str(self.out)]

    def verify_set(self):
        return sorted({reconv.ArchConfig(self.VERIFY_M, layers, tied, input_h=8, input_w=8)
                       for tied, _, layers in self.cells},
                      key=lambda a: (a.layers, a.tied))

    def verify(self):
        self.fd_evals, self.reports = self.verify_archs(self.verify_set())
        return self.fd_evals

    def train(self):
        # the sweep's operations are its cells; a failed cell has an error message
        self.attempted += len(self.cells)
        self.exit_code, self.csv = None, ""
        try:
            self.exit_code = reconv.cli.main(self.argv)
            self.csv = (self.out / "results.csv").read_text()
        except Exception:
            traceback.print_exc(file=sys.stderr)
        rows = list(csv.DictReader(self.csv.splitlines()))
        ok = sum(1 for r in rows if not r["error"]) if self.exit_code == 0 else 0
        self.failed += max(len(self.cells) - ok, 0)
        return self.EPOCHS * self.N_TRAIN * len(self.cells)

    def evaluate(self):
        self.errors = [self.attempt(reconv.error_rate, p, self.heldout)
                       for p in self.eval_params]
        return len(self.eval_params) * len(self.heldout)

    def outputs(self):
        return self.csv, self.errors, self.skipped(self.reports)

    def check(self, checks: chk.Checks) -> None:
        checks.expect(self.exit_code == 0, f"reconv experiment exited {self.exit_code}")
        chk.sweep_csv(checks, self.csv, "pair-matched-features", self.cells,
                      [self.seed], self.EPOCHS, self.TOL)
        for arch, report in self.reports.items():
            chk.grad_report(checks, arch, report, f"verify M={arch.feature_maps} "
                                                  f"L={arch.layers} tied={arch.tied}")
        rng = np.random.default_rng(self.seed)
        held = self.heldout
        for params in self.eval_params:
            cfg = params.config
            tag = f"swept M={cfg.feature_maps} L={cfg.layers} tied={cfg.tied}"
            chk.arch_count(checks, cfg, tag)
            chk.forward_and_classes(checks, params, held.images[:2], tag)
            chk.gradient(checks, params, held.images[:1], held.labels[:1], rng, 2, tag)


WORKLOADS = {w.name: w for w in (DeskTrain, DepthSweep)}
