import numpy as np
import numpy.testing as npt
import pytest

from reconv import ArchConfig, NumericError, check_model_grads, finite_diff, forward
from reconv import gradcheck, model, ops
from reconv.gradcheck import GradReport, TensorCheck, relative_error


def test_finite_diff_square():
    grad = finite_diff(lambda t: float(t[0] ** 2), np.array([3.0]))
    npt.assert_allclose(grad, [6.0], atol=1e-8)


def test_finite_diff_sum_of_squares():
    grad = finite_diff(lambda t: float(np.sum(t * t)), np.array([1.0, 2.0, 3.0]))
    npt.assert_allclose(grad, [2.0, 4.0, 6.0], atol=1e-8)


def test_finite_diff_restores_input():
    theta = np.array([1.0, -2.0, 0.5])
    finite_diff(lambda t: float(t.sum()), theta)
    npt.assert_array_equal(theta, [1.0, -2.0, 0.5])


def test_finite_diff_nonfinite_raises():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            finite_diff(lambda t: float(np.log(t[0])), np.array([0.0]))


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        finite_diff(lambda t: 0.0, np.zeros(1), eps=0.0)


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-12, 0.0) == pytest.approx(1e-4)
    assert relative_error(2.0, 1.0) == 0.5


@pytest.mark.parametrize("tied", [True, False])
def test_model_gradients_pass(tied):
    cfg = ArchConfig(feature_maps=4, layers=3, tied=tied, input_h=8, input_w=8)
    report = check_model_grads(cfg, seed=0)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "first_kernels" in names and "classifier" in names
    expected_tensors = 2 + 2 * (1 if tied else 3) + 2
    assert len(names) == expected_tensors
    if tied:
        assert report.tied_sum_rel_err is not None
        assert report.tied_sum_rel_err <= 1e-10
    else:
        assert report.tied_sum_rel_err is None


def test_model_gradients_pass_on_32x32_maps():
    # the stem convolution and its kernel gradient pair output columns here
    cfg = ArchConfig(feature_maps=2, layers=1, tied=True)
    assert ops._step(cfg.input_h, cfg.input_w, cfg.first_kernel, cfg.feature_maps) == 2
    report = check_model_grads(cfg, seed=0)
    assert report.passed
    assert report.tied_sum_rel_err <= gradcheck.TIED_SUM_TOL


def test_report_is_deterministic():
    cfg = ArchConfig(feature_maps=3, layers=2, tied=True, input_h=8, input_w=8)
    a = check_model_grads(cfg, seed=4)
    b = check_model_grads(cfg, seed=4)
    assert a == b


def test_corrupted_kernel_adjoint_is_detected(monkeypatch):
    # negate the convolution kernel gradient: both kernel tensors must fail,
    # while bias and classifier gradients stay clean
    true_grad = ops.conv2d_same_kernel_grad
    monkeypatch.setattr(ops, "conv2d_same_kernel_grad",
                        lambda x, g, extent: -true_grad(x, g, extent))
    cfg = ArchConfig(feature_maps=3, layers=2, tied=True, input_h=8, input_w=8)
    report = check_model_grads(cfg, seed=0)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["first_kernels"].passed
    assert not by_name["hidden_kernels[0]"].passed
    assert by_name["first_bias"].passed
    assert by_name["classifier"].passed
    assert not report.passed


def test_report_csv_layout():
    cfg = ArchConfig(feature_maps=2, layers=1, tied=True, input_h=8, input_w=8)
    report = check_model_grads(cfg, seed=1)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "tensor,max_rel_err,pass"
    assert len(lines) == len(report.checks) + 1
    assert all(line.endswith(",true") for line in lines[1:])


def test_check_model_grads_at_a_saturated_softmax(monkeypatch):
    # a logit gap of 800 underflows the true class's softmax to exactly 0
    check_point = gradcheck._check_point

    def saturated(config, seed):
        params, image, label = check_point(config, seed)
        params.classifier_bias[(label + 1) % config.classes] += 800.0
        return params, image, label

    monkeypatch.setattr(gradcheck, "_check_point", saturated)
    config = ArchConfig(feature_maps=2, layers=2, tied=True, input_h=8, input_w=8)
    params, image, label = saturated(config, 0)
    assert forward(params, image).probs[label] == 0.0
    assert check_model_grads(config, 0).passed


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -1e-5, float("inf")])
def test_a_bad_eps_is_rejected(eps):
    # a nan eps makes every difference nan, an inf one every difference 0
    config = ArchConfig(feature_maps=2, layers=1, tied=True, input_h=8, input_w=8)
    with pytest.raises(ValueError, match="eps"):
        check_model_grads(config, 0, eps=eps)
    with pytest.raises(ValueError, match="eps"):
        finite_diff(lambda t: 1.0, np.zeros(1), eps=eps)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_a_bad_tol_is_rejected(tol):
    # a nan or non-positive tol fails every tensor, an inf one passes any finite error
    config = ArchConfig(feature_maps=2, layers=1, tied=True, input_h=8, input_w=8)
    with pytest.raises(ValueError, match="tol"):
        check_model_grads(config, 0, tol=tol)


def test_a_nan_in_an_analytic_gradient_fails_the_check(monkeypatch):
    # one NaN per kernel gradient; untied, so no tied-sum check can catch it
    true_grad = ops.conv2d_same_kernel_grad

    def one_nan(x, g, extent):
        grad = true_grad(x, g, extent)
        grad.flat[grad.size // 2] = np.nan
        return grad

    monkeypatch.setattr(ops, "conv2d_same_kernel_grad", one_nan)
    config = ArchConfig(feature_maps=3, layers=2, tied=False, input_h=8, input_w=8)
    report = check_model_grads(config, 0)
    by_name = {c.name: c for c in report.checks}
    for name in ("first_kernels", "hidden_kernels[0]", "hidden_kernels[1]"):
        assert np.isnan(by_name[name].max_rel_err), name
        assert not by_name[name].passed, name
    assert by_name["first_bias"].passed and by_name["classifier"].passed
    assert not report.passed
    assert "overall: FAIL" in str(report)


@pytest.mark.parametrize("tensor", ["hidden_kernels", "hidden_biases"])
def test_a_nan_in_the_unrolled_sum_fails_the_tied_sum_check(monkeypatch, tensor):
    # the tied model's own gradients stay clean, so every per-tensor check passes
    true_loss_and_grads = gradcheck.loss_and_grads

    def nan_when_untied(params, image, label):
        loss, grads = true_loss_and_grads(params, image, label)
        if not params.config.tied:
            getattr(grads, tensor)[-1].flat[0] = np.nan
        return loss, grads

    monkeypatch.setattr(gradcheck, "loss_and_grads", nan_when_untied)
    config = ArchConfig(feature_maps=2, layers=2, tied=True, input_h=8, input_w=8)
    report = check_model_grads(config, 0)
    assert all(c.passed for c in report.checks)
    assert np.isnan(report.tied_sum_rel_err)
    assert not report.passed
    assert "overall: FAIL" in str(report)


@pytest.mark.parametrize("tied", [True, False])
def test_one_forward_call_per_evaluation(monkeypatch, tied):
    # the benchmark's traced run counts gradcheck.forward calls: 2 per coordinate
    config = ArchConfig(feature_maps=2, layers=3, tied=tied, input_h=8, input_w=8)
    calls = []

    def counted(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(gradcheck, "forward", counted)
    check_model_grads(config, 0)
    params, _, _ = gradcheck._check_point(config, 0)
    assert len(calls) == 2 * params.scalar_count()
    # the first evaluation of each tensor is a full pass, every other one resumes
    full = [i for i, args in enumerate(calls) if len(args) == 2]
    sizes = [theta.size for _, theta in params.tensors()]
    assert full == [2 * sum(sizes[:t]) for t in range(len(sizes))]


def _nll_reference(logits, label):
    """The loss as ``check_model_grads`` computed it before the tape kept
    it: logsumexp of the shifted logits, recomputed from the logits."""
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


def _full_forward_report(config, seed, tol=1e-4, eps=1e-5):
    """``check_model_grads`` as it was before resumed evaluations: every
    evaluation a full forward pass, the kink signature over every stage."""
    params, image, label = gradcheck._check_point(config, seed)
    _, analytic = model.loss_and_grads(params, image, label)

    def signature(tape):
        parts = [tape.pre_pool > 0, tape.pool_argmax]
        parts.extend(h > 0 for h in tape.hidden[1:])
        return b"".join(part.tobytes() for part in parts)

    checks = []
    for (name, theta), (_, grad) in zip(params.tensors(), analytic.tensors()):
        gflat = grad.reshape(-1)
        max_err = 0.0
        skipped = 0
        for i, tape_p, tape_m in gradcheck._central_differences(
                theta, eps, lambda: model.forward(params, image)):
            if signature(tape_p) != signature(tape_m):
                skipped += 1
                continue
            fp = _nll_reference(tape_p.logits, label)
            fm = _nll_reference(tape_m.logits, label)
            estimate = (fp - fm) / (2.0 * eps)
            max_err = max(max_err, relative_error(estimate, gflat[i]))
        checks.append(TensorCheck(name=name, max_rel_err=max_err,
                                  passed=max_err < tol, skipped=skipped))

    tied_sum_rel_err = None
    if config.tied:
        unrolled = model.untie(params)
        _, unrolled_grads = model.loss_and_grads(unrolled, image, label)
        kernel_sum = np.sum(unrolled_grads.hidden_kernels, axis=0)
        bias_sum = np.sum(unrolled_grads.hidden_biases, axis=0)
        tied_sum_rel_err = max(
            _max_elementwise_rel_err(analytic.hidden_kernels[0], kernel_sum),
            _max_elementwise_rel_err(analytic.hidden_biases[0], bias_sum))
    return GradReport(checks=checks, tolerance=tol, tied_sum_rel_err=tied_sum_rel_err)


def _max_elementwise_rel_err(a, b):
    """The tied-sum check's error as ``check_model_grads`` computed it
    before ``relative_error`` took arrays."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), gradcheck.REL_ERR_FLOOR)
    return float(np.max(np.abs(a - b) / denom))


@pytest.mark.parametrize("m,layers,tied,eps", [(2, 2, True, 1e-5), (3, 4, False, 1e-5),
                                               (16, 2, True, 1e-5), (3, 3, False, 0.1)])
def test_report_equals_the_full_forward_report(m, layers, tied, eps):
    # eps=0.1 straddles kinks, so the reports hold skips in stem and hidden tensors
    config = ArchConfig(feature_maps=m, layers=layers, tied=tied, input_h=8, input_w=8)
    report = check_model_grads(config, 0, eps=eps)
    assert report == _full_forward_report(config, 0, eps=eps)
    if eps == 0.1:
        assert all(c.skipped for c in report.checks[:4])


def test_report_at_a_saturated_softmax_equals_the_full_forward_report(monkeypatch):
    check_point = gradcheck._check_point

    def saturated(config, seed):
        params, image, label = check_point(config, seed)
        params.classifier_bias[(label + 1) % config.classes] += 800.0
        return params, image, label

    monkeypatch.setattr(gradcheck, "_check_point", saturated)
    config = ArchConfig(feature_maps=2, layers=2, tied=True, input_h=8, input_w=8)
    assert check_model_grads(config, 0) == _full_forward_report(config, 0)
