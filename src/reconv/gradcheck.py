"""Finite-difference oracle for every analytic gradient in the model.

The network is piecewise linear in its parameters (ReLU kinks, pooling
argmax switches), so central differences are only trustworthy at points
where no kink sits inside the perturbation interval. ``check_model_grads``
therefore (a) moves the evaluation point away from kinks (bias shift,
small kernel jitter, a random classifier so conv gradients are nonzero)
and (b) detects any coordinate whose +/-eps evaluations straddle a kink,
skipping it and reporting the skip count.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .model import ArchConfig, Params, _nll, forward, init_params, loss_and_grads, untie

REL_ERR_FLOOR = 1e-8


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), REL_ERR_FLOOR)


def finite_diff(f: Callable[[np.ndarray], float], theta: np.ndarray,
                eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time.

    ``theta`` is perturbed in place and restored; ``f`` is called with the
    same array object each time.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    grad = np.zeros_like(theta, dtype=np.float64)
    flat = theta.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(theta)
        flat[i] = orig - eps
        fm = f(theta)
        flat[i] = orig
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
    tied_sum_tol: float = 1e-10

    @property
    def passed(self) -> bool:
        ok = all(c.passed for c in self.checks)
        if self.tied_sum_rel_err is not None:
            ok = ok and self.tied_sum_rel_err <= self.tied_sum_tol
        return ok

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["tensor", "max_rel_err", "pass"])
        for c in self.checks:
            writer.writerow([c.name, repr(c.max_rel_err), str(c.passed).lower()])
        return buf.getvalue()

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:22s} max_rel_err={c.max_rel_err:.3e} "
                         f"skipped={c.skipped:3d}  {status}")
        if self.tied_sum_rel_err is not None:
            status = "pass" if self.tied_sum_rel_err <= self.tied_sum_tol else "FAIL"
            lines.append(f"{'tied-vs-unrolled sum':22s} max_rel_err="
                         f"{self.tied_sum_rel_err:.3e}  {status}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _kink_signature(tape) -> list[np.ndarray]:
    """Discrete state of the piecewise-linear forward pass: ReLU sign
    masks and pooling winners. If it differs between the +eps and -eps
    evaluations, the secant crosses a kink."""
    parts = [tape.pre_pool > 0, tape.pool_argmax]
    parts.extend(h > 0 for h in tape.hidden[1:])
    return parts


def _same_signature(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


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
    weight-equal untied model.
    """
    params, image, label = _check_point(config, seed)
    _, analytic = loss_and_grads(params, image, label)

    checks = []
    for (name, theta), (_, grad) in zip(params.tensors(), analytic.tensors()):
        flat = theta.reshape(-1)
        gflat = grad.reshape(-1)
        max_err = 0.0
        skipped = 0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            tape_p = forward(params, image)
            flat[i] = orig - eps
            tape_m = forward(params, image)
            flat[i] = orig
            if not _same_signature(_kink_signature(tape_p), _kink_signature(tape_m)):
                skipped += 1
                continue
            fp = _nll(tape_p.logits, label)
            fm = _nll(tape_m.logits, label)
            estimate = (fp - fm) / (2.0 * eps)
            max_err = max(max_err, relative_error(estimate, gflat[i]))
        checks.append(TensorCheck(name=name, max_rel_err=max_err,
                                  passed=max_err < tol, skipped=skipped))

    tied_sum_rel_err = None
    if config.tied:
        unrolled = untie(params)
        _, unrolled_grads = loss_and_grads(unrolled, image, label)
        kernel_sum = np.sum(unrolled_grads.hidden_kernels, axis=0)
        bias_sum = np.sum(unrolled_grads.hidden_biases, axis=0)
        tied_sum_rel_err = max(
            _max_elementwise_rel_err(analytic.hidden_kernels[0], kernel_sum),
            _max_elementwise_rel_err(analytic.hidden_biases[0], bias_sum))
    return GradReport(checks=checks, tolerance=tol, tied_sum_rel_err=tied_sum_rel_err)


def _max_elementwise_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_ERR_FLOOR)
    return float(np.max(np.abs(a - b) / denom))
