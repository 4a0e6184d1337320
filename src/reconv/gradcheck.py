"""Finite-difference oracle for every analytic gradient in the model.

The network is piecewise linear in its parameters (ReLU kinks, pooling
argmax switches), so central differences are only trustworthy at points
where no kink sits inside the perturbation interval. ``check_model_grads``
therefore (a) moves the evaluation point away from kinks (bias shift,
small kernel jitter, a random classifier so conv gradients are nonzero)
and (b) detects any coordinate whose +/-eps evaluations straddle a kink,
by their tapes' ``model.kink_signature``, skipping it and reporting the
skip count.

Each evaluation is one ``forward`` call. A tensor's first evaluation is a
full pass; every later one resumes, from that first tape, at the first
stage that reads the tensor (``model.first_stages``), because the stages
before it cannot change when the tensor does. A hidden coordinate thus
skips the stem and pooling, and a classifier coordinate recomputes only
the logits. Each evaluation computes the same values by the same
operations as a full pass, so the reports are those of full passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import NumericError
from .model import (ArchConfig, Params, Tape, first_stages, forward, init_params,
                    kink_signature, loss_and_grads, untie)
from .table import csv_text

REL_ERR_FLOOR = 1e-8
# Largest relative error between a tied model's shared-kernel gradients
# and the sum of the unrolled model's per-layer gradients.
TIED_SUM_TOL = 1e-10


def relative_error(a, b) -> np.ndarray:
    """|a - b| / max(|a|, |b|, REL_ERR_FLOOR), elementwise; NaN where
    either input is NaN."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_ERR_FLOOR)


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _central_differences(theta: np.ndarray, eps: float,
                         evaluate: Callable) -> Iterator[tuple]:
    """(i, evaluate() at theta_i + eps, evaluate() at theta_i - eps) for
    each coordinate i of ``theta``, which is perturbed in place and
    restored before each yield."""
    flat = theta.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = evaluate()
        flat[i] = orig - eps
        minus = evaluate()
        flat[i] = orig
        yield i, plus, minus


def finite_diff(f: Callable[[np.ndarray], float], theta: np.ndarray,
                eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time.

    ``theta`` is perturbed in place and restored; ``f`` is called with the
    same array object each time. ``eps`` must be finite and positive.
    """
    _check_positive("eps", eps)
    grad = np.zeros_like(theta, dtype=np.float64)
    gflat = grad.reshape(-1)
    for i, fp, fm in _central_differences(theta, eps, lambda: f(theta)):
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(
                f"non-finite evaluation at coordinate {i}: f+={fp}, f-={fm}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


@dataclass
class TensorCheck:
    name: str
    max_rel_err: float
    passed: bool
    skipped: int


@dataclass
class GradReport:
    """Per-tensor finite-difference comparison, plus the tied-gradient
    cross-check against the unrolled (untied) model when applicable."""

    checks: list[TensorCheck]
    tolerance: float
    tied_sum_rel_err: float | None = None

    def _tied_sum_passed(self) -> bool:
        """The cross-check's verdict, true when there is none; a NaN
        error fails it."""
        return self.tied_sum_rel_err is None or self.tied_sum_rel_err <= TIED_SUM_TOL

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and self._tied_sum_passed()

    def to_csv(self) -> str:
        return csv_text(["tensor", "max_rel_err", "pass"],
                        ([c.name, c.max_rel_err, c.passed] for c in self.checks))

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:22s} max_rel_err={c.max_rel_err:.3e} "
                         f"skipped={c.skipped:3d}  {status}")
        if self.tied_sum_rel_err is not None:
            status = "pass" if self._tied_sum_passed() else "FAIL"
            lines.append(f"{'tied-vs-unrolled sum':22s} max_rel_err="
                         f"{self.tied_sum_rel_err:.3e}  {status}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _evaluations(params: Params, image: np.ndarray, start: int) -> Callable[[], Tape]:
    """One ``forward`` call per call: the first a full pass, every later
    one resumed at ``start`` from the first one's tape."""
    first = None

    def evaluate() -> Tape:
        nonlocal first
        if first is None:
            first = forward(params, image)
            return first
        return forward(params, image, first, start)
    return evaluate


def _check_point(config: ArchConfig, seed: int) -> tuple[Params, np.ndarray, int]:
    """A generic, kink-cleared evaluation point.

    Starting from the standard initialization: the stem bias moves to 0.1
    so stem pre-activations clear zero, hidden kernels get a small jitter
    around the identity, and the classifier is drawn randomly. A zero
    classifier would make every convolution-parameter gradient vanish
    identically, which checks nothing.
    """
    params = init_params(config, seed)
    rng = np.random.default_rng([seed, 1])
    params.first_bias += 0.1
    for kernel in params.hidden_kernels:
        kernel += rng.normal(0.0, 0.05, size=kernel.shape)
    params.classifier = rng.normal(0.0, 0.1, size=params.classifier.shape)
    params.classifier_bias = rng.normal(0.0, 0.1, size=params.classifier_bias.shape)
    image = rng.uniform(0.0, 1.0,
                        size=(config.input_h, config.input_w, config.input_channels))
    label = int(rng.integers(config.classes))
    return params, image, label


def check_model_grads(config: ArchConfig, seed: int, tol: float = 1e-4,
                      eps: float = 1e-5) -> GradReport:
    """Compare every parameter tensor's analytic gradient against central
    differences at a kink-cleared point; deterministic given (config, seed).

    For tied models the report additionally verifies that the shared
    kernel/bias gradients equal the sum of the per-layer gradients of the
    weight-equal untied model. ``tol`` and ``eps`` must be finite and
    positive: a tensor passes when its largest error is below ``tol``, so
    a ``tol`` of zero or below fails every tensor and an infinite one
    passes any finite error.
    """
    _check_positive("tol", tol)
    _check_positive("eps", eps)
    params, image, label = _check_point(config, seed)
    _, analytic = loss_and_grads(params, image, label)

    checks = []
    for (name, theta), (_, grad), start in zip(params.tensors(), analytic.tensors(),
                                               first_stages(config)):
        kept, estimates = [], []
        for i, tape_p, tape_m in _central_differences(
                theta, eps, _evaluations(params, image, start)):
            if kink_signature(tape_p, start) == kink_signature(tape_m, start):
                kept.append(i)
                estimates.append((tape_p.nll[label] - tape_m.nll[label]) / (2.0 * eps))
        # np.max keeps a NaN, and a NaN error fails the tensor
        max_err = float(np.max(relative_error(np.array(estimates), grad.reshape(-1)[kept]),
                               initial=0.0))
        checks.append(TensorCheck(name=name, max_rel_err=max_err, passed=max_err < tol,
                                  skipped=theta.size - len(kept)))

    tied_sum_rel_err = None
    if config.tied:
        unrolled = untie(params)
        _, unrolled_grads = loss_and_grads(unrolled, image, label)
        kernel_sum = np.sum(unrolled_grads.hidden_kernels, axis=0)
        bias_sum = np.sum(unrolled_grads.hidden_biases, axis=0)
        tied_sum_rel_err = float(np.max([
            np.max(relative_error(analytic.hidden_kernels[0], kernel_sum)),
            np.max(relative_error(analytic.hidden_biases[0], bias_sum))]))
    return GradReport(checks=checks, tolerance=tol, tied_sum_rel_err=tied_sum_rel_err)
