import numpy as np
import numpy.testing as npt
import pytest

from reconv import (ArchConfig, Dataset, ShapeError, error_rate, forward,
                    init_params, loss_and_grads, make_synthetic, nll,
                    predict_class, untie, zeros_like_params)
from reconv import ops, pool
from reconv.model import count_errors


def tiny_cfg(m=4, l=3, tied=True, size=8):
    return ArchConfig(feature_maps=m, layers=l, tied=tied,
                      input_h=size, input_w=size)


def random_image(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (cfg.input_h, cfg.input_w, cfg.input_channels))


def generic_params(cfg, seed=0):
    """Init params nudged off the identity/zero special point."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    params.first_bias += 0.1
    for k in params.hidden_kernels:
        k += rng.normal(0, 0.05, k.shape)
    params.classifier = rng.normal(0, 0.1, params.classifier.shape)
    return params


# ---------------------------------------------------------------------------
# initialization


def test_init_hidden_kernels_act_as_identity():
    params = init_params(tiny_cfg(m=5, l=2, tied=False), seed=3)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 6, 5))
    for k in params.hidden_kernels:
        npt.assert_array_equal(ops.conv2d_same(z, k), z)


def test_init_is_deterministic():
    a = init_params(tiny_cfg(), seed=42)
    b = init_params(tiny_cfg(), seed=42)
    for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
        npt.assert_array_equal(ta, tb)
    c = init_params(tiny_cfg(), seed=43)
    assert not np.array_equal(a.first_kernels, c.first_kernels)


def test_init_first_kernel_statistics():
    cfg = ArchConfig(feature_maps=4, layers=1, tied=True)
    params = init_params(cfg, seed=0)
    n = params.first_kernels.size
    assert n == 8 * 8 * 3 * 4
    assert abs(params.first_kernels.mean()) < 3 * cfg.sigma_v / np.sqrt(n)


def test_init_biases_and_classifier_zero():
    params = init_params(tiny_cfg(), seed=1)
    assert not params.first_bias.any()
    assert not params.classifier.any()
    assert not params.classifier_bias.any()
    assert all(not b.any() for b in params.hidden_biases)


def test_tied_params_store_single_copy():
    tied = init_params(tiny_cfg(l=5, tied=True), seed=0)
    untied = init_params(tiny_cfg(l=5, tied=False), seed=0)
    assert len(tied.hidden_kernels) == 1
    assert len(untied.hidden_kernels) == 5


# ---------------------------------------------------------------------------
# forward


@pytest.mark.parametrize("m,l", [(1, 1), (4, 3), (16, 5), (32, 8)])
def test_fresh_model_copies_pooled_activations_upward(m, l):
    cfg = ArchConfig(feature_maps=m, layers=l, tied=(l % 2 == 0))
    params = init_params(cfg, seed=m + l)
    tape = forward(params, random_image(cfg, seed=1))
    npt.assert_array_equal(tape.hidden[-1], tape.hidden[0])


def test_zero_classifier_gives_uniform_prediction():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=2)
    tape = forward(params, random_image(cfg, seed=5))
    npt.assert_allclose(tape.probs, np.full(10, 0.1), rtol=0, atol=1e-15)


def test_tied_forward_bit_identical_to_unrolled():
    cfg = tiny_cfg(m=6, l=4, tied=True)
    params = generic_params(cfg, seed=9)
    x = random_image(cfg, seed=4)
    t_tied = forward(params, x)
    t_untied = forward(untie(params), x)
    npt.assert_array_equal(t_tied.logits, t_untied.logits)
    npt.assert_array_equal(t_tied.probs, t_untied.probs)
    for a, b in zip(t_tied.hidden, t_untied.hidden):
        npt.assert_array_equal(a, b)


def test_forward_tape_invariants():
    cfg = tiny_cfg(m=5, l=2)
    params = generic_params(cfg, seed=1)
    tape = forward(params, random_image(cfg, seed=2))
    assert all(np.all(h >= 0) for h in tape.hidden)
    assert abs(tape.probs.sum() - 1.0) < 1e-12
    assert tape.pre_pool.shape == (8, 8, 5)
    assert tape.hidden[0].shape == (2, 2, 5)


def test_forward_wrong_shape_raises():
    params = init_params(tiny_cfg(), seed=0)
    with pytest.raises(ShapeError):
        forward(params, np.zeros((4, 4, 3)))


# ---------------------------------------------------------------------------
# loss and gradients


def test_initial_loss_is_log_k():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    loss, _ = loss_and_grads(params, random_image(cfg), 7)
    assert loss == pytest.approx(np.log(10.0), abs=1e-12)


def test_loss_finite_when_softmax_saturates():
    # a logit gap of 800 underflows probs[label] to exactly 0
    params = init_params(ArchConfig(4, 1, True), 0)
    params.classifier_bias[0] = 800.0
    image = make_synthetic(1, seed=0).images[0]
    assert forward(params, image).probs[1] == 0.0
    assert nll(params, image, 1) == pytest.approx(800.0, rel=1e-12)
    loss, grads = loss_and_grads(params, image, 1)
    assert loss == nll(params, image, 1)
    assert all(np.isfinite(g).all() for _, g in grads.tensors())


def test_initial_classifier_bias_gradient_is_analytic():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    label = 4
    _, grads = loss_and_grads(params, random_image(cfg), label)
    expected = np.full(10, 0.1)
    expected[label] -= 1.0
    npt.assert_allclose(grads.classifier_bias, expected, atol=1e-15)


def test_tied_gradient_is_sum_of_unrolled_layer_gradients():
    cfg = tiny_cfg(m=4, l=3, tied=True)
    params = generic_params(cfg, seed=6)
    x, label = random_image(cfg, seed=7), 2
    _, tied_grads = loss_and_grads(params, x, label)
    _, untied_grads = loss_and_grads(untie(params), x, label)
    kernel_sum = np.sum(untied_grads.hidden_kernels, axis=0)
    bias_sum = np.sum(untied_grads.hidden_biases, axis=0)
    npt.assert_allclose(tied_grads.hidden_kernels[0], kernel_sum, rtol=1e-10)
    npt.assert_allclose(tied_grads.hidden_biases[0], bias_sum, rtol=1e-10)


def test_batch_loss_and_grads_sum_over_examples():
    cfg = tiny_cfg(m=3, l=2)
    params = generic_params(cfg, seed=8)
    rng = np.random.default_rng(0)
    images = rng.uniform(0, 1, (4, 8, 8, 3))
    labels = np.array([0, 3, 9, 3])
    batch_loss, batch_grads = loss_and_grads(params, images, labels)

    total = 0.0
    acc = zeros_like_params(params)
    for i in range(4):
        loss_i, g_i = loss_and_grads(params, images[i], int(labels[i]))
        total += loss_i
        for (_, a), (_, g) in zip(acc.tensors(), g_i.tensors()):
            a += g
    assert batch_loss == pytest.approx(total, rel=1e-15)
    for (_, a), (_, b) in zip(acc.tensors(), batch_grads.tensors()):
        npt.assert_allclose(a, b, rtol=1e-14, atol=1e-18)


def test_label_out_of_range_raises():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    with pytest.raises(ShapeError):
        loss_and_grads(params, random_image(cfg), 10)
    with pytest.raises(ShapeError):
        nll(params, random_image(cfg), -1)


def test_batch_count_mismatch_raises():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    with pytest.raises(ShapeError):
        loss_and_grads(params, np.zeros((2, 8, 8, 3)), np.array([1]))


# ---------------------------------------------------------------------------
# error rate


def _dataset(images, labels):
    return Dataset(np.asarray(images), np.asarray(labels))


def test_error_rate_zero_when_all_correct():
    cfg = tiny_cfg(m=2, l=1)
    params = generic_params(cfg, seed=3)
    rng = np.random.default_rng(1)
    images = rng.uniform(0, 1, (6, 8, 8, 3))
    labels = [predict_class(params, images[i]) for i in range(6)]
    assert error_rate(params, _dataset(images, labels)) == 0.0


def test_error_rate_uniform_model_ties_to_class_zero():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)  # zero classifier, uniform probs
    rng = np.random.default_rng(2)
    images = rng.uniform(0, 1, (5, 8, 8, 3))
    assert error_rate(params, _dataset(images, np.zeros(5, dtype=int))) == 0.0
    assert error_rate(params, _dataset(images, np.ones(5, dtype=int))) == 1.0


def test_error_rate_uniform_model_on_balanced_random_labels():
    # uniform predictions always answer class 0; balanced labels make the
    # expected error (K-1)/K, checked within Monte Carlo noise
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(3)
    n = 400
    images = rng.uniform(0, 1, (n, 8, 8, 3))
    labels = rng.integers(0, 10, n)
    observed = error_rate(params, _dataset(images, labels))
    expected = 1.0 - np.mean(labels == 0)
    assert observed == pytest.approx(expected, abs=1e-12)
    assert abs(observed - 0.9) < 4 * np.sqrt(0.9 * 0.1 / n)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 37])   # some smaller than the process count
def test_error_rate_on_any_core_count_equals_the_serial_count(monkeypatch, cores, n):
    cfg = tiny_cfg(m=2, l=1)
    params = generic_params(cfg, seed=3)
    images = np.random.default_rng(4).uniform(0, 1, (n, 8, 8, 3))
    # every odd-numbered example is misclassified, wherever the chunks end
    labels = [(predict_class(params, images[i]) + i % 2) % 10 for i in range(n)]
    wrong = count_errors(params, images, labels)
    assert wrong == n // 2
    monkeypatch.setattr(pool, "available_cores", lambda: cores)
    assert error_rate(params, _dataset(images, labels)) == wrong / n


def test_error_rate_empty_dataset_raises():
    params = init_params(tiny_cfg(), seed=0)
    with pytest.raises(ShapeError):
        error_rate(params, _dataset(np.zeros((0, 8, 8, 3)), np.zeros(0, dtype=int)))
