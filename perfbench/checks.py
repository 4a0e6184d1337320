"""Output checks: the program against the reference pass and the
closed-form counts, and properties the method must have.

Every check records a failure message instead of raising, so one run
reports all of its failures at once.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import reconv
import reference

LOGIT_RTOL = 1e-9
FD_EPS = 1e-6
FD_RTOL = 1e-5
FD_ATOL = 1e-8
GRAD_TOL = 1e-4
TIED_SUM_TOL = 1e-10


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, condition: bool, message: str) -> bool:
        self.count += 1
        if not condition:
            self.failures.append(message)
        return bool(condition)

    @property
    def ok(self) -> bool:
        return not self.failures


def forward_and_classes(checks: Checks, params, images, tag: str) -> None:
    """``reconv.forward`` logits agree with the reference pass, and
    ``reconv.error_rate`` predicts the reference's class for each image."""
    for n, image in enumerate(images):
        ref, _ = reference.forward(params, image)
        got = reconv.forward(params, image).logits
        scale = max(float(np.abs(ref).max()), 1e-12)
        err = float(np.abs(got - ref).max()) / scale
        checks.expect(err <= LOGIT_RTOL,
                      f"{tag}: image {n} logits differ from reference by {err:.2e} relative")
        top2 = np.sort(ref)[-2:]
        if top2[1] - top2[0] > LOGIT_RTOL * scale:   # a near-tie may go either way
            single = reconv.Dataset(image[None], [int(np.argmax(ref))],
                                    num_classes=params.config.classes)
            checks.expect(reconv.error_rate(params, single) == 0.0,
                          f"{tag}: image {n} error_rate predicts another class "
                          f"than the reference ({int(np.argmax(ref))})")


def gradient(checks: Checks, params, images, labels, rng, coords: int, tag: str) -> None:
    """Central differences through the reference pass, at coordinates drawn
    from ``rng``, agree with ``reconv.loss_and_grads``. A coordinate whose
    +/-eps evaluations switch a ReLU sign or a pooling winner is redrawn."""
    loss, grads = reconv.loss_and_grads(params, images, labels)
    ref_loss, _ = reference.batch_loss(params, images, labels)
    checks.expect(abs(loss - ref_loss) <= 1e-9 * max(abs(ref_loss), 1.0),
                  f"{tag}: loss {loss!r} differs from reference {ref_loss!r}")
    tensors = [theta for _, theta in params.tensors()]
    analytic = [g for _, g in grads.tensors()]
    names = [name for name, _ in params.tensors()]
    done = attempts = 0
    while done < coords and attempts < 20 * coords:
        attempts += 1
        t = int(rng.integers(len(tensors)))
        flat, i = tensors[t].reshape(-1), int(rng.integers(tensors[t].size))
        orig = flat[i]
        flat[i] = orig + FD_EPS
        plus, state_p = reference.batch_loss(params, images, labels)
        flat[i] = orig - FD_EPS
        minus, state_m = reference.batch_loss(params, images, labels)
        flat[i] = orig
        if not all(np.array_equal(a, b) for a, b in zip(state_p, state_m)):
            continue
        estimate = (plus - minus) / (2 * FD_EPS)
        got = float(analytic[t].reshape(-1)[i])
        err = abs(estimate - got)
        checks.expect(err <= FD_RTOL * max(abs(estimate), abs(got)) + FD_ATOL,
                      f"{tag}: d loss / d {names[t]}[{i}] is {got!r}, "
                      f"reference central difference {estimate!r}")
        done += 1
    checks.expect(done == coords, f"{tag}: only {done} of {coords} coordinates "
                                  "were clear of kinks")


def arch_count(checks: Checks, arch, tag: str) -> None:
    """The program's parameter count equals the closed form."""
    expected = reference.param_count(arch)
    checks.expect(reconv.param_count(arch) == expected,
                  f"{tag}: param_count {reconv.param_count(arch)} != closed form {expected}")
    stored = reconv.init_params(arch, 0).scalar_count()
    checks.expect(stored == expected,
                  f"{tag}: init_params stores {stored} scalars, closed form {expected}")


def grad_report(checks: Checks, arch, report, tag: str) -> None:
    """A ``check_model_grads`` report passes at the oracle's tolerances and
    lists exactly the architecture's tensors. A report gives no count of
    the coordinates it checked; the traced run counts its forward passes."""
    arch_count(checks, arch, tag)
    sizes = reference.tensor_sizes(arch)
    names = [c.name for c in report.checks]
    checks.expect(names == [name for name, _ in sizes],
                  f"{tag}: report covers tensors {names}")
    for check, (_, size) in zip(report.checks, sizes):
        checks.expect(check.passed and check.max_rel_err < GRAD_TOL
                      and 0 <= check.skipped <= size,
                      f"{tag}: {check.name} max_rel_err {check.max_rel_err:.3e} "
                      f"skipped {check.skipped} of {size}")
    checks.expect(report.tolerance == GRAD_TOL, f"{tag}: tolerance {report.tolerance}")
    if arch.tied:
        err = report.tied_sum_rel_err
        checks.expect(err is not None and err <= TIED_SUM_TOL,
                      f"{tag}: tied gradient differs from the unrolled sum by {err}")
    checks.expect(report.passed, f"{tag}: report does not pass")


def loaded_pixels(checks: Checks, data, image_bytes: np.ndarray,
                  label_bytes: np.ndarray, tag: str) -> None:
    """``load_cifar10`` returns exactly the written bytes / 255 in
    (N, 32, 32, 3) order, and the written labels."""
    expected = image_bytes.reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1) / 255.0
    checks.expect(data.images.shape == expected.shape
                  and np.array_equal(data.images, expected),
                  f"{tag}: loaded pixels are not the written bytes / 255")
    checks.expect(np.array_equal(data.labels, label_bytes),
                  f"{tag}: loaded labels are not the written bytes")


def expected_pair_cells(m_range, l_list, tol, max_pairs) -> list[tuple]:
    """(tied, M, L) of every cell of a pair-matched-features sweep, found
    by enumerating the closed-form counts."""
    cells = []
    for layers in l_list:
        ms = range(m_range[0], m_range[1] + 1)
        count = {(tied, m): reference.param_count(
                     reconv.ArchConfig(m, layers, tied))
                 for m in ms for tied in (False, True)}
        pairs = []
        for mu in ms:
            for mt in ms:
                pu, pt = count[False, mu], count[True, mt]
                rel = abs(pu - pt) / max(pu, pt)
                if rel <= tol:
                    pairs.append((rel, mu, mt))
        pairs.sort()
        if max_pairs > 0:
            pairs = pairs[:max_pairs]
        for _, mu, mt in pairs:
            for cell in ((False, mu, layers), (True, mt, layers)):
                if cell not in cells:
                    cells.append(cell)
    return cells


def sweep_csv(checks: Checks, text: str, kind: str, cells, seeds, epochs, tol) -> None:
    """One row per expected cell and seed in canonical order, each with
    the closed-form count, no error, and errors that are rates; each pair
    within ``tol``; tied counts independent of depth."""
    rows = list(csv.DictReader(text.splitlines()))
    expected = sorted(((m, layers, tied, seed) for tied, m, layers in cells for seed in seeds))
    got = [(int(r["M"]), int(r["L"]), r["tied"] == "true", int(r["seed"])) for r in rows]
    checks.expect(got == expected, f"results.csv cells {got} != expected {expected}")
    for r in rows:
        arch = reconv.ArchConfig(int(r["M"]), int(r["L"]), r["tied"] == "true")
        tag = f"results.csv M={r['M']} L={r['L']} tied={r['tied']}"
        checks.expect(r["kind"] == kind and int(r["epochs"]) == epochs,
                      f"{tag}: kind {r['kind']} epochs {r['epochs']}")
        checks.expect(int(r["param_count"]) == reference.param_count(arch),
                      f"{tag}: param_count {r['param_count']}")
        checks.expect(r["error"] == "", f"{tag}: cell failed: {r['error']}")
        for key in ("train_error", "test_error"):
            value = float(r[key])
            checks.expect(math.isfinite(value) and 0.0 <= value <= 1.0,
                          f"{tag}: {key} {r[key]}")
        if arch.tied:
            counts = {reference.param_count(reconv.ArchConfig(arch.feature_maps, depth, True))
                      for depth in range(1, 9)}
            program = {reconv.param_count(reconv.ArchConfig(arch.feature_maps, depth, True))
                       for depth in range(1, 9)}
            checks.expect(len(counts) == 1 and program == counts,
                          f"{tag}: tied count changes with depth")
    by_layers: dict[int, list[int]] = {}
    for r in rows:
        by_layers.setdefault(int(r["L"]), []).append(int(r["param_count"]))
    for layers, counts in by_layers.items():
        checks.expect(len(counts) >= 2 and (max(counts) - min(counts)) / max(counts) <= tol,
                      f"results.csv L={layers}: counts {counts} not within {tol}")
