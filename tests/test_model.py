import numpy as np
import numpy.testing as npt
import pytest

from reconv import (ArchConfig, Dataset, ShapeError, error_rate, forward,
                    init_params, loss_and_grads, make_synthetic, nll,
                    predict_class, untie, zeros_like_params)
from reconv import model, ops, pool
from reconv.counting import param_count
from reconv.gradcheck import TIED_SUM_TOL, _check_point, check_model_grads
from reconv.model import count_errors
from test_ops import REFERENCE_OPS


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


@pytest.mark.parametrize("field", ["input_h", "input_w", "input_channels", "first_kernel",
                                   "pool", "hidden_kernel", "classes"])
def test_an_empty_extent_is_rejected(field):
    with pytest.raises(ValueError, match=field):
        ArchConfig(feature_maps=2, layers=1, **{field: 0})


@pytest.mark.parametrize("field", ["input_h", "input_w"])
def test_an_input_side_that_is_no_multiple_of_pool_is_rejected(field):
    with pytest.raises(ValueError, match="not divisible by pool 4"):
        ArchConfig(feature_maps=2, layers=1, **{field: 10})


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


def test_kernel_index_is_the_pair_each_layer_applies():
    tied = init_params(tiny_cfg(l=5, tied=True), seed=0)
    untied = init_params(tiny_cfg(l=5, tied=False), seed=0)
    assert [tied.kernel_index(l) for l in range(5)] == [0] * 5
    assert [untied.kernel_index(l) for l in range(5)] == list(range(5))


# The sweeps pair their cells on these: at one seed every cell starts from
# the same weights and the same initial function, whatever its depth or tying.


def assert_same_tensors(a, b):
    for (name_a, x), (name_b, y) in zip(a.tensors(), b.tensors(), strict=True):
        assert name_a == name_b
        npt.assert_array_equal(x, y, strict=True)


@pytest.mark.parametrize("m,l", [(8, 3), (16, 2), (3, 8)])
def test_untied_tied_init_is_the_untied_init(m, l):
    unrolled = untie(init_params(ArchConfig(feature_maps=m, layers=l, tied=True), seed=7))
    untied = init_params(ArchConfig(feature_maps=m, layers=l, tied=False), seed=7)
    assert unrolled.config == untied.config
    assert_same_tensors(unrolled, untied)


def test_untie_of_an_untied_model_is_an_unshared_copy():
    params = generic_params(tiny_cfg(l=3, tied=False), seed=4)
    unrolled = untie(params)
    assert unrolled.config == params.config
    assert_same_tensors(unrolled, params)
    for (_, x), (_, y) in zip(unrolled.tensors(), params.tensors()):
        assert not np.shares_memory(x, y)


def test_tied_init_does_not_depend_on_depth():
    shallow = init_params(ArchConfig(feature_maps=8, layers=1, tied=True), seed=7)
    for l in (2, 3, 8):
        assert_same_tensors(
            shallow, init_params(ArchConfig(feature_maps=8, layers=l, tied=True), seed=7))


def test_every_depth_and_tying_starts_with_the_same_logits():
    rng = np.random.default_rng(3)
    classifier = rng.normal(0, 0.1, (8, 8, 8, 10))
    classifier_bias = rng.normal(0, 0.1, 10)
    image = random_image(ArchConfig(feature_maps=8, layers=1), seed=4)
    logits = []
    for l in (1, 2, 4):
        for tied in (True, False):
            params = init_params(ArchConfig(feature_maps=8, layers=l, tied=tied), seed=7)
            params.classifier, params.classifier_bias = classifier.copy(), classifier_bias.copy()
            logits.append(forward(params, image).logits)
    assert np.unique(logits[0]).size == 10
    for other in logits[1:]:
        npt.assert_array_equal(other, logits[0], strict=True)


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


def test_predict_class_wrong_shape_raises():
    params = init_params(tiny_cfg(), seed=0)
    with pytest.raises(ShapeError):
        predict_class(params, np.zeros((8, 8, 1)))


def _stage_outputs(tape):
    """The tape's fields grouped by the forward stage that writes them."""
    last = len(tape.hidden) - 1
    return ([[tape.pre_pool, tape.pool_argmax, tape.hidden[0]]]
            + [[tape.hidden[layer]] for layer in range(1, last)]
            + [[tape.hidden[last], tape.normalized], [tape.logits, tape.probs]])


@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_resumed_forward_equals_the_full_pass(tied, layers):
    cfg = tiny_cfg(m=3, l=layers, tied=tied)
    params = generic_params(cfg, seed=5)
    image = random_image(cfg, seed=6)
    base = forward(params, image)
    tensors = list(params.tensors())
    stages = model.first_stages(cfg)
    assert len(stages) == len(tensors)
    for (name, theta), start in zip(tensors, stages):
        flat = theta.reshape(-1)
        first_changed = []
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-3
            full = forward(params, image)
            resumed = forward(params, image, base, start)
            flat[i] = orig
            assert np.array_equal(resumed.image, full.image)
            for a, b in zip(_stage_outputs(resumed), _stage_outputs(full)):
                assert all(np.array_equal(x, y) for x, y in zip(a, b)), (name, i)
            # brute force: the first stage whose outputs the perturbation changes
            changed = [not all(np.array_equal(x, y) for x, y in zip(old, new))
                       for old, new in zip(_stage_outputs(base), _stage_outputs(full))]
            first_changed.append(changed.index(True) if any(changed) else len(changed))
        assert min(first_changed) == start, name


def test_resumed_forward_rejects_a_bad_start():
    cfg = tiny_cfg(m=2, l=2)
    params = generic_params(cfg)
    image = random_image(cfg)
    tape = forward(params, image)
    for start in (-1, 4):
        with pytest.raises(ValueError):
            forward(params, image, tape, start)
    with pytest.raises(ValueError):
        forward(params, image, None, 1)
    assert np.array_equal(forward(params, image, tape, 3).logits, tape.logits)


# ---------------------------------------------------------------------------
# classification


def assert_same_bits(a, b):
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_classifies_as_forward(params, image):
    tape = forward(params, image)
    assert_same_bits(model._pooled_stem(params, image), tape.hidden[0])
    assert predict_class(params, image) == int(np.argmax(tape.probs))


@pytest.mark.parametrize("size", [8, 32])
@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_classification_pass_is_the_taped_pass(size, tied, layers):
    cfg = tiny_cfg(m=3, l=layers, tied=tied, size=size)
    params = generic_params(cfg, seed=layers)
    # some maps with a negative bias, so that ReLU zeroes pooled values
    params.first_bias = np.array([-0.3, 0.0, 0.1])
    for seed in range(4):
        assert_classifies_as_forward(params, random_image(cfg, seed))


@pytest.mark.parametrize("m", [4, 16, 57])
def test_classification_pass_is_the_taped_pass_at_32x32_widths(m):
    # the stem pairs output columns on 32x32 maps at these widths
    cfg = tiny_cfg(m=m, l=2, tied=True, size=32)
    params = generic_params(cfg, seed=m)
    params.classifier *= 50.0  # probabilities far from uniform
    for seed in range(3):
        assert_classifies_as_forward(params, random_image(cfg, seed))


def test_classification_pass_on_a_negative_zero_raw_maximum(monkeypatch):
    cfg = ArchConfig(feature_maps=4, layers=2, input_h=16, input_w=16)
    params = generic_params(cfg, seed=1)
    params.first_kernels = -np.abs(params.first_kernels)
    params.first_bias = np.array([0.0, -0.0, 0.1, -0.1])
    image = random_image(cfg, seed=2)
    # block (0, 0) sees only zeros; block (1, 1) has zero and negative sums
    image[:10, :10] = 0.0
    stem = ops.conv2d_same

    def signed_zeros(x, kernels):
        # products 0 * w < 0 are -0.0, but whether a BLAS sums them to
        # -0.0 or +0.0 varies; make it -0.0 on both passes
        y = stem(x, kernels)
        return np.where(y == 0.0, -0.0, y)

    monkeypatch.setattr(ops, "conv2d_same", signed_zeros)
    y = ops.conv2d_same(image, params.first_kernels)
    assert np.signbit(y[:4, :4]).all() and not y[:4, :4].any()
    block = y[4:8, 4:8]
    assert block.max() == 0.0 and (block < 0).any()
    assert_classifies_as_forward(params, image)


def test_classification_pass_on_a_nan():
    cfg = tiny_cfg(m=3, l=2)
    params = generic_params(cfg, seed=3)
    image = random_image(cfg, seed=3)
    # a NaN pixel reaches part of a pooling block: rows 0 to 4 of the stem
    image[1, 1, 2] = np.nan
    y = ops.conv2d_same(image, params.first_kernels)
    assert np.isnan(y[4]).any() and not np.isnan(y[5:]).any()
    assert_classifies_as_forward(params, image)
    # a NaN stem weight reaches every position of its map
    image[1, 1, 2] = 0.5
    params.first_kernels[2, 5, 1, 1] = np.nan
    assert np.isnan(forward(params, image).hidden[0][:, :, 1]).all()
    assert_classifies_as_forward(params, image)


def test_classification_pass_on_a_repeated_block_maximum():
    cfg = tiny_cfg(m=3, l=2)
    params = generic_params(cfg, seed=4)
    # one center tap per map: the raw stem output is a multiple of channel 0
    params.first_kernels[:] = 0.0
    params.first_kernels[3, 3, 0] = [1.0, 2.0, 0.5]
    image = random_image(cfg, seed=4) * 0.5
    image[0, 0, 0] = image[1, 2, 0] = 0.9
    y = ops.conv2d_same(image, params.first_kernels)
    assert np.count_nonzero(y[:4, :4, 0] == y[:4, :4, 0].max()) == 2
    assert_classifies_as_forward(params, image)


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


@pytest.mark.parametrize("n", [1, 16, 17, 40, 48, 64])
def test_batch_sum_is_the_left_fold_of_its_blocks(n):
    # The contract train's helpers rely on: a batch cut on BLOCK edges,
    # its parts summed apart and added in order, sums bit for bit as one,
    # both by a hand fold and by add_block_sums over block_slices, as
    # train adds its helpers' blocks.
    cfg = tiny_cfg(m=3, l=2)
    params = generic_params(cfg, seed=9)
    rng = np.random.default_rng(1)
    images = rng.uniform(0, 1, (n, 8, 8, 3))
    labels = rng.integers(10, size=n)
    batch_loss, batch_grads = loss_and_grads(params, images, labels)

    block = model.BLOCK
    total, acc = loss_and_grads(params, images[:block], labels[:block])
    for start in range(block, n, block):
        loss_b, g_b = loss_and_grads(params, images[start:start + block],
                                     labels[start:start + block])
        total += loss_b
        for (_, a), (_, g) in zip(acc.tensors(), g_b.tensors()):
            a += g
    assert batch_loss == total
    for (name, a), (_, b) in zip(acc.tensors(), batch_grads.tensors()):
        assert np.array_equal(a, b), name

    folded = zeros_like_params(params)
    folded_loss = model.add_block_sums(0.0, folded, (
        loss_and_grads(params, images[s], labels[s])
        for s in model.block_slices(0, n)))
    assert folded_loss == batch_loss
    for (name, a), (_, b) in zip(folded.tensors(), batch_grads.tensors()):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("start,stop", [(0, 0), (0, 1), (0, 16), (3, 40), (32, 48)])
def test_block_slices_cut_a_run_into_blocks_from_its_start(start, stop):
    slices = list(model.block_slices(start, stop))
    assert [i for s in slices for i in range(stop)[s]] == list(range(start, stop))
    assert all(s.stop - s.start == model.BLOCK for s in slices[:-1])
    assert all(0 < s.stop - s.start <= model.BLOCK for s in slices)


@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("channels,first,pool_size,hidden", [
    (1, 5, 2, 5), (2, 4, 2, 4), (3, 3, 1, 1)])
def test_every_architecture_extent_checks_and_counts(tied, channels, first, pool_size,
                                                     hidden):
    cfg = ArchConfig(feature_maps=3, layers=3, tied=tied, input_h=8, input_w=8,
                     input_channels=channels, first_kernel=first, pool=pool_size,
                     hidden_kernel=hidden, classes=4)
    report = check_model_grads(cfg, seed=0)
    assert report.passed, str(report)
    if tied:
        assert report.tied_sum_rel_err <= TIED_SUM_TOL
    assert param_count(cfg) == init_params(cfg, 0).scalar_count()
    params, image, _ = _check_point(cfg, 0)
    assert predict_class(params, image) == int(np.argmax(forward(params, image).probs))


def test_label_out_of_range_raises():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    with pytest.raises(ShapeError):
        loss_and_grads(params, random_image(cfg), 10)
    with pytest.raises(ShapeError):
        nll(params, random_image(cfg), -1)
    # a stack's error names its first label outside the classes
    with pytest.raises(ShapeError, match=r"label 10 outside \[0, 10\)"):
        loss_and_grads(params, np.zeros((3, 8, 8, 3)), np.array([1, 10, -1]))


def test_batch_count_mismatch_raises():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    with pytest.raises(ShapeError):
        loss_and_grads(params, np.zeros((2, 8, 8, 3)), np.array([1]))


@pytest.mark.parametrize("call,message", [
    (lambda p, image: loss_and_grads(p, image, 2.7), "label 2.7 is not an integer"),
    (lambda p, image: loss_and_grads(p, np.stack([image, image]), [0.9, 1.2]),
     "label 0.9 is not an integer"),
    (lambda p, image: loss_and_grads(p, np.stack([image, image]), 3),
     "2 images need as many labels, got 3"),
    (lambda p, image: loss_and_grads(p, image, [3]), r"one image needs one label, got \[3\]"),
    (lambda p, image: nll(p, image, 2.5), "label 2.5 is not an integer")],
    ids=["float", "float-batch", "scalar-for-a-stack", "list-for-an-image", "nll-float"])
def test_labels_that_are_not_one_integer_per_image_raise(call, message):
    cfg = tiny_cfg()
    with pytest.raises(ShapeError, match=message):
        call(init_params(cfg, seed=0), random_image(cfg))


@pytest.mark.parametrize("label", [2.0, np.uint8(2), np.float32(2.0), np.int16(2)])
def test_integral_labels_of_any_numeric_type_are_that_class(label):
    cfg = tiny_cfg()
    params, image = generic_params(cfg), random_image(cfg)
    loss, grads = loss_and_grads(params, image, label)
    ref_loss, ref_grads = loss_and_grads(params, image, 2)
    assert loss == ref_loss == nll(params, image, label)
    for (name, g), (_, ref) in zip(grads.tensors(), ref_grads.tensors()):
        assert np.array_equal(g, ref), name
    batch_loss, _ = loss_and_grads(params, np.stack([image, image]), np.array([label, label]))
    assert batch_loss == loss + loss


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
    data = _dataset(images, labels)
    wrong = count_errors(params, data, 0, n)
    assert wrong == n // 2
    monkeypatch.setattr(pool, "available_cores", lambda: cores)
    assert error_rate(params, data) == wrong / n


def test_error_rate_rejects_labels_the_model_cannot_predict():
    # a label at or above classes would otherwise count as a silent error
    params = init_params(ArchConfig(feature_maps=2, layers=1, input_h=8, input_w=8,
                                    classes=3), seed=0)
    data = _dataset(np.zeros((4, 8, 8, 3)), [0, 1, 5, 9])
    with pytest.raises(ShapeError, match=r"data: label 9 outside \[0, 3\)"):
        error_rate(params, data)


def test_error_rate_rejects_images_of_another_shape_before_any_work(monkeypatch):
    params = init_params(tiny_cfg(), seed=0)
    monkeypatch.setattr(model, "helpers", None)     # no split, no classification
    with pytest.raises(ShapeError, match=r"data: expected image shape \(8, 8, 3\)"):
        error_rate(params, _dataset(np.zeros((3, 16, 16, 3)), [0, 1, 2]))


def test_error_rate_empty_dataset_raises():
    params = init_params(tiny_cfg(), seed=0)
    with pytest.raises(ShapeError):
        error_rate(params, _dataset(np.zeros((0, 8, 8, 3)), np.zeros(0, dtype=int)))


# ---------------------------------------------------------------------------
# bit identity with numpy's generic constructions


def test_forward_logits_bit_identical_to_tensordot():
    rng = np.random.default_rng(13)
    for cfg in (tiny_cfg(m=2, l=2), tiny_cfg(m=3, l=4, tied=False), ArchConfig(4, 1)):
        params = generic_params(cfg, seed=5)
        params.classifier_bias = rng.normal(0, 0.1, params.classifier_bias.shape)
        tape = forward(params, random_image(cfg, seed=1))
        expected = params.classifier_bias + np.tensordot(
            tape.normalized, params.classifier, axes=3)
        assert np.array_equal(tape.logits, expected)


def test_classifier_cotangent_bit_identical_to_tensordot(monkeypatch):
    cotangents = []
    original = ops.l2norm_pixel_grad

    def recorded(grad_out, z, *args):
        cotangents.append(grad_out)
        return original(grad_out, z, *args)

    monkeypatch.setattr(ops, "l2norm_pixel_grad", recorded)
    for cfg in (tiny_cfg(m=2, l=2), tiny_cfg(m=3, l=4, tied=False), ArchConfig(4, 1)):
        params = generic_params(cfg, seed=6)
        image, label = random_image(cfg, seed=2), 3
        loss_and_grads(params, image, label)
        dlogits = forward(params, image).probs.copy()
        dlogits[label] -= 1.0
        expected = np.tensordot(params.classifier, dlogits, axes=([3], [0]))
        assert np.array_equal(cotangents.pop(), expected)


@pytest.mark.parametrize("cfg", [tiny_cfg(m=2, l=2, tied=True),
                                 tiny_cfg(m=3, l=4, tied=False)])
def test_loss_grads_and_gradcheck_bit_identical_with_generic_ops(monkeypatch, cfg):
    params = generic_params(cfg, seed=7)
    rng = np.random.default_rng(8)
    images = rng.uniform(0.0, 1.0, (3, cfg.input_h, cfg.input_w, cfg.input_channels))
    labels = [1, 4, 9]
    loss, grads = loss_and_grads(params, images, labels)
    report = check_model_grads(cfg, seed=0)

    calls = dict.fromkeys(REFERENCE_OPS, 0)
    with monkeypatch.context() as patch:
        for name, reference in REFERENCE_OPS.items():
            def counted(*args, name=name, reference=reference):
                calls[name] += 1
                return reference(*args)
            patch.setattr(ops, name, counted)
        ref_loss, ref_grads = loss_and_grads(params, images, labels)
        ref_report = check_model_grads(cfg, seed=0)

    assert all(calls.values()), calls
    assert loss == ref_loss
    for (name, g), (_, ref) in zip(grads.tensors(), ref_grads.tensors()):
        assert np.array_equal(g, ref), name
    assert report == ref_report


def test_hot_path_calls_no_generic_numpy_wrapper():
    # Tier-1 cannot see timing; these wrappers cost more than the
    # arithmetic of an 8x8 forward pass, so keep them off the hot path.
    wrappers = {"sliding_window_view", "tensordot", "take_along_axis", "put_along_axis"}
    for fn in (ops._im2col, ops.maxpool, ops.maxpool_grad,
               model.forward, model._backward_into, model._hidden_layer,
               model._logits, model._pooled_stem, model.predict_class):
        assert not wrappers & set(fn.__code__.co_names), fn.__name__
