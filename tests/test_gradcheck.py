import numpy as np
import numpy.testing as npt
import pytest

from reconv import ArchConfig, NumericError, check_model_grads, finite_diff, forward
from reconv import gradcheck, ops
from reconv.gradcheck import relative_error


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
