import importlib
import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest

from reconv import (ArchConfig, Dataset, EpochRecord, NumericError, Params, ShapeError,
                    TrainConfig, TrainState, error_rate, init_params, load_raw,
                    loss_and_grads, make_synthetic, metrics_csv, minibatches,
                    model, ops, pool, save_raw, sgd_momentum_step, train,
                    zeros_like_params)


def small_arch(**kw):
    defaults = dict(feature_maps=2, layers=1, tied=True)
    defaults.update(kw)
    return ArchConfig(**defaults)


def constant_grads(params, value):
    grads = zeros_like_params(params)
    for _, g in grads.tensors():
        g += value
    return grads


def test_single_step_hand_values():
    params = init_params(small_arch(), seed=0)
    before = params.first_bias.copy()
    state = TrainState.fresh(params)
    cfg = TrainConfig(epochs=1, learning_rate=1e-3, momentum=0.9)

    sgd_momentum_step(params, constant_grads(params, 2.0), state, cfg)
    npt.assert_allclose(state.velocity.first_bias, 2.0)
    npt.assert_allclose(params.first_bias - before, -0.002)

    # second step with the same gradient: g = 0.9*2 + 2 = 3.8
    sgd_momentum_step(params, constant_grads(params, 2.0), state, cfg)
    npt.assert_allclose(state.velocity.first_bias, 3.8)
    npt.assert_allclose(params.first_bias - before, -0.002 - 0.0038, rtol=1e-12)


def test_zero_gradient_coasts_on_momentum():
    params = init_params(small_arch(), seed=0)
    state = TrainState.fresh(params)
    cfg = TrainConfig(epochs=1, learning_rate=1e-3, momentum=0.9)
    sgd_momentum_step(params, constant_grads(params, 1.0), state, cfg)
    before = params.first_bias.copy()
    sgd_momentum_step(params, constant_grads(params, 0.0), state, cfg)
    npt.assert_allclose(state.velocity.first_bias, 0.9)
    npt.assert_allclose(params.first_bias - before, -0.0009, rtol=1e-12)


def test_momentum_buffer_closed_form():
    # constant gradient gamma for n steps: v_n = gamma * (1 - 0.9^n) / 0.1
    gamma = 0.7
    params = init_params(small_arch(), seed=0)
    state = TrainState.fresh(params)
    cfg = TrainConfig(epochs=1, learning_rate=1e-3, momentum=0.9)
    for n in range(1, 6):
        sgd_momentum_step(params, constant_grads(params, gamma), state, cfg)
        expected = gamma * (1 - 0.9 ** n) / 0.1
        npt.assert_allclose(state.velocity.classifier_bias, expected, rtol=1e-12)


def test_step_shape_mismatch_raises():
    params = init_params(small_arch(), seed=0)
    other = init_params(small_arch(feature_maps=3), seed=0)
    state = TrainState.fresh(params)
    with pytest.raises(ShapeError):
        sgd_momentum_step(params, zeros_like_params(other), state,
                          TrainConfig(epochs=1))


def test_plain_gradient_step_descends():
    # momentum 0, tiny lr: one summed-gradient step reduces the batch loss
    arch = small_arch(feature_maps=4, layers=2)
    data = make_synthetic(8, seed=0)
    params = init_params(arch, seed=1)
    state = TrainState.fresh(params)
    cfg = TrainConfig(epochs=1, learning_rate=1e-6, momentum=0.0)
    loss0, grads = loss_and_grads(params, data.images, data.labels)
    sgd_momentum_step(params, grads, state, cfg)
    loss1, _ = loss_and_grads(params, data.images, data.labels)
    assert loss1 < loss0


def test_zero_epochs_returns_initialization():
    arch = small_arch()
    data = make_synthetic(6, seed=0)
    result = train(arch, data, data, TrainConfig(epochs=0), seed=5)
    assert result.records == []
    reference = init_params(arch, seed=5)
    for (_, a), (_, b) in zip(result.params.tensors(), reference.tensors()):
        npt.assert_array_equal(a, b)


def test_training_is_deterministic():
    arch = small_arch(feature_maps=3, layers=2)
    data = make_synthetic(12, seed=2)
    test = make_synthetic(6, seed=3)
    cfg = TrainConfig(epochs=3, batch_size=4)
    r1 = train(arch, data, test, cfg, seed=7)
    r2 = train(arch, data, test, cfg, seed=7)
    assert r1.records == r2.records  # seconds excluded from equality
    for (_, a), (_, b) in zip(r1.params.tensors(), r2.params.tensors()):
        npt.assert_array_equal(a, b)


def test_training_reduces_loss_on_easy_data():
    arch = small_arch(feature_maps=4, layers=1)
    data = make_synthetic(40, seed=4, noise=0.1)
    result = train(arch, data, data, TrainConfig(epochs=5, batch_size=8), seed=0)
    losses = [r.train_loss for r in result.records]
    assert losses[-1] < losses[0]


def test_eval_cadence_skips_with_nan():
    arch = small_arch()
    data = make_synthetic(6, seed=0)
    cfg = TrainConfig(epochs=3, batch_size=6, eval_every=2)
    result = train(arch, data, data, cfg, seed=0)
    assert math.isnan(result.records[0].train_error)   # epoch 1 skipped
    assert not math.isnan(result.records[1].train_error)
    assert not math.isnan(result.records[2].train_error)  # final always evaluated


def test_partial_final_minibatch_is_processed():
    arch = small_arch()
    data = make_synthetic(10, seed=1)
    # batch 8 -> batches of 8 and 2; training must consume all 10 examples,
    # which shows up as two optimizer steps' worth of loss accumulation
    result = train(arch, data, data, TrainConfig(epochs=1, batch_size=8), seed=0)
    assert result.state.epochs_completed == 1
    assert math.isfinite(result.records[0].train_loss)


def test_nonfinite_loss_aborts_with_batch_diagnostic():
    arch = small_arch(feature_maps=4, layers=2)
    data = make_synthetic(8, seed=0)
    # large enough that the weights overflow; a merely huge loss is finite
    cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e100)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
            train(arch, data, data, cfg, seed=0)


def test_empty_dataset_rejected():
    arch = small_arch()
    empty = make_synthetic(4, seed=0).subset(np.array([], dtype=int))
    with pytest.raises(ShapeError):
        train(arch, empty, empty, TrainConfig(epochs=1), seed=0)


@pytest.mark.parametrize("name", ["train_data", "test_data"])
def test_data_that_does_not_fit_the_model_is_rejected_before_training(monkeypatch, name):
    arch = small_arch(input_h=8, input_w=8, classes=3)
    fits = make_synthetic(6, seed=0, num_classes=3, size=8)
    monkeypatch.setattr(importlib.import_module("reconv.train"), "helpers", None)
    for bad, message in [(make_synthetic(6, seed=0, size=8), r"label 5 outside \[0, 3\)"),
                         (make_synthetic(6, seed=0, num_classes=3, size=16),
                          r"expected image shape \(8, 8, 3\), got \(16, 16, 3\)")]:
        data = {"train_data": fits, "test_data": fits, name: bad}
        with pytest.raises(ShapeError, match=f"{name}: {message}"):
            train(arch, data["train_data"], data["test_data"], TrainConfig(epochs=1), seed=0)


def test_metrics_csv_layout_and_timing_flag():
    arch = small_arch()
    data = make_synthetic(4, seed=0)
    result = train(arch, data, data, TrainConfig(epochs=2, batch_size=4), seed=0)
    text = metrics_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_error,test_error,seconds"
    assert len(lines) == 3
    assert all(line.endswith(",0.0") for line in lines[1:])
    walled = metrics_csv(result, wall_time=True)
    assert walled.splitlines()[1].rsplit(",", 1)[1] != "0.0"


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, momentum=1.0)
    with pytest.raises(ValueError, match="shuffle_seed"):
        TrainConfig(epochs=1, shuffle_seed=-1)
    with pytest.raises(ValueError, match="eval_every"):
        TrainConfig(epochs=1, eval_every=0)
    for lr in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, learning_rate=lr)


# ---------------------------------------------------------------------------
# one run on several cores


def serial_train(arch, data, test, cfg, seed):
    """The training loop in one process, as the reference for ``train``."""
    params = init_params(arch, seed)
    state = TrainState.fresh(params)
    records = []
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for idx in minibatches(data, cfg.batch_size, cfg.shuffle_seed, epoch):
            loss, grads = loss_and_grads(params, data.images[idx], data.labels[idx])
            sgd_momentum_step(params, grads, state, cfg)
            epoch_loss += loss
        records.append(EpochRecord(epoch, epoch_loss / len(data),
                                   error_rate(params, data), error_rate(params, test)))
    return records, params, state


def use_cores(monkeypatch, n):
    monkeypatch.setattr(pool, "available_cores", lambda: n)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("tied,layers,n,batch,n_test", [
    (True, 2, 37, 8, 11),     # short final batch of 5
    (False, 3, 37, 8, 11),
    (True, 1, 10, 4, 2),      # final batch and test set smaller than 3 workers
    (False, 2, 9, 2, 5),      # batch size below the core count; final batch of 1
    (True, 2, 90, 40, 11),    # blocks of 16, 16 and 8; final batch of 10
    (False, 1, 70, 64, 5),    # 4 full blocks
])
def test_train_on_any_core_count_equals_the_serial_loop(monkeypatch, workers, tied,
                                                        layers, n, batch, n_test):
    arch = small_arch(feature_maps=3, layers=layers, tied=tied)
    data, test = make_synthetic(n, seed=2), make_synthetic(n_test, seed=3)
    cfg = TrainConfig(epochs=2, batch_size=batch)
    records, params, state = serial_train(arch, data, test, cfg, seed=7)
    use_cores(monkeypatch, workers)
    result = train(arch, data, test, cfg, seed=7)
    assert result.records == records
    for (name, a), (_, b) in zip(result.params.tensors(), params.tensors()):
        assert np.array_equal(a, b), name
    for (name, a), (_, b) in zip(result.state.velocity.tensors(), state.velocity.tensors()):
        assert np.array_equal(a, b), name


def test_nonfinite_loss_names_its_batch_on_two_cores(monkeypatch):
    use_cores(monkeypatch, 2)
    arch = small_arch(feature_maps=4, layers=2)
    data = make_synthetic(8, seed=0)
    cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e100)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
            train(arch, data, data, cfg, seed=0)


def test_nonfinite_loss_names_the_first_nonfinite_gradient(monkeypatch):
    use_cores(monkeypatch, 2)
    # NaN logits make the loss and every gradient behind them NaN; with the
    # pooling adjoint zeroed, the stem's gradients stay finite
    softmax = ops.softmax
    monkeypatch.setattr(ops, "softmax", lambda logits: softmax(np.full_like(logits, np.nan)))
    monkeypatch.setattr(ops, "maxpool_grad", lambda grad, argmax, size: np.zeros(
        (grad.shape[0] * size, grad.shape[1] * size, grad.shape[2])))
    with pytest.raises(NumericError, match=r"epoch 0, batch 0; first non-finite "
                                           r"gradient: hidden_kernels\[0\]$"):
        train(small_arch(layers=2), make_synthetic(8, seed=0), make_synthetic(4, seed=1),
              TrainConfig(epochs=1, batch_size=8), seed=0)


def loaded(tmp_path, n, seed):
    """``make_synthetic(n, seed)`` written in the raw format and read back,
    so its pixels are stored as bytes."""
    images, labels = tmp_path / f"{n}_{seed}.img", tmp_path / f"{n}_{seed}.lab"
    save_raw(make_synthetic(n, seed=seed), images, labels)
    return load_raw(images, labels, n)


@pytest.mark.parametrize("cores", [1, 2])
def test_byte_backed_data_trains_and_evaluates_as_its_float_copy(monkeypatch, tmp_path,
                                                                 cores):
    use_cores(monkeypatch, cores)
    arch = small_arch(feature_maps=3, layers=2)
    data, test = loaded(tmp_path, 37, 0), loaded(tmp_path, 11, 1)
    copies = [Dataset(d.images, d.labels) for d in (data, test)]
    cfg = TrainConfig(epochs=2, batch_size=24, learning_rate=1e-4)  # blocks of 16 and 8
    result = train(arch, data, test, cfg, seed=3)
    reference = train(arch, *copies, cfg, seed=3)
    assert result.records == reference.records
    for (name, a), (_, b) in zip(result.params.tensors(), reference.params.tensors()):
        assert np.array_equal(a, b), name
    params = result.params
    params.classifier = np.random.default_rng(1).normal(0, 0.5, params.classifier.shape)
    for byte_backed, copy in zip((data, test), copies):
        assert error_rate(params, byte_backed) == error_rate(params, copy)


@pytest.mark.parametrize("cores", [1, 2])
def test_no_conversion_covers_more_than_a_process_share_or_a_block(monkeypatch, tmp_path,
                                                                   cores):
    use_cores(monkeypatch, cores)
    data, test = loaded(tmp_path, 70, 0), loaded(tmp_path, 40, 1)
    batch = 48
    blocks = math.ceil(batch / model.BLOCK)
    share = model.BLOCK * math.ceil(blocks / cores)     # 48 examples on 1 core, 32 on 2
    sizes, floats = [], Dataset.floats

    def counted(self, index):
        pixels = floats(self, index)
        examples = 1 if pixels.ndim == 3 else len(pixels)
        # raised in a helper too, and then here with its type
        if examples > max(share, model.BLOCK):
            raise AssertionError(f"one conversion of {examples} examples")
        sizes.append(examples)
        return pixels

    monkeypatch.setattr(Dataset, "floats", counted)
    result = train(small_arch(), data, test, TrainConfig(epochs=1, batch_size=batch), seed=0)
    error_rate(result.params, data)
    assert sizes and max(sizes) == (batch if cores == 1 else model.BLOCK)


def in_helpers_only(monkeypatch, action):
    """Make ``model.forward``, which training's helpers call, and
    ``model.predict_class``, which evaluating helpers call, call ``action``
    in forked helper processes."""
    for name in ("forward", "predict_class"):
        original = getattr(model, name)

        def wrapped(params, image, original=original):
            if multiprocessing.parent_process() is not None:
                action()
            return original(params, image)

        monkeypatch.setattr(model, name, wrapped)


def test_helper_exception_reaches_the_caller_with_its_type(monkeypatch):
    use_cores(monkeypatch, 2)

    def fail():
        raise LookupError("raised in a helper")

    in_helpers_only(monkeypatch, fail)
    with pytest.raises(LookupError, match="raised in a helper"):
        train(small_arch(), make_synthetic(8, seed=0), make_synthetic(4, seed=1),
              TrainConfig(epochs=1, batch_size=4), seed=0)


def test_dead_helper_raises_instead_of_hanging(monkeypatch, deadline):
    use_cores(monkeypatch, 2)
    in_helpers_only(monkeypatch, lambda: os._exit(1))
    with pytest.raises(BrokenProcessPool):
        train(small_arch(), make_synthetic(8, seed=0), make_synthetic(4, seed=1),
              TrainConfig(epochs=1, batch_size=4), seed=0)


def test_error_rate_helper_exception_reaches_the_caller_with_its_type(monkeypatch):
    use_cores(monkeypatch, 2)

    def fail():
        raise LookupError("raised in a helper")

    in_helpers_only(monkeypatch, fail)
    with pytest.raises(LookupError, match="raised in a helper"):
        error_rate(init_params(small_arch(), seed=0), make_synthetic(8, seed=0))


def test_error_rate_dead_helper_raises_instead_of_hanging(monkeypatch, deadline):
    use_cores(monkeypatch, 2)
    in_helpers_only(monkeypatch, lambda: os._exit(1))
    with pytest.raises(BrokenProcessPool):
        error_rate(init_params(small_arch(), seed=0), make_synthetic(8, seed=0))


@pytest.mark.parametrize("cores", [1, 2])
def test_error_rate_builds_no_tape(monkeypatch, cores):
    params = init_params(small_arch(), seed=0)
    rng = np.random.default_rng(0)
    params.classifier = rng.normal(0, 0.5, params.classifier.shape)
    images = rng.uniform(0, 1, (8, 32, 32, 3))
    # every odd-numbered example is misclassified
    labels = [(model.predict_class(params, x) + i % 2) % 10 for i, x in enumerate(images)]
    data = Dataset(images, np.asarray(labels))
    rate = error_rate(params, data)
    assert rate == 0.5

    def taped(*args):
        raise AssertionError("classification called forward")

    use_cores(monkeypatch, cores)
    monkeypatch.setattr(model, "forward", taped)
    assert error_rate(params, data) == rate


def count_pools(monkeypatch):
    """The worker counts of the pools that ``train`` and ``error_rate``
    fork, in order; forking one in a worker process raises instead."""
    started, fork_pool = [], pool.fork_pool

    def counted(workers, *shared):
        if multiprocessing.parent_process() is not None:
            raise AssertionError("a worker process forked a pool")
        started.append(workers)
        return fork_pool(workers, *shared)

    monkeypatch.setattr(pool, "fork_pool", counted)
    return started


def submitted_arguments(monkeypatch):
    """The arguments of every task submitted to the pools that ``train``
    and ``error_rate`` fork, in order."""
    seen, fork_pool = [], pool.fork_pool

    @contextmanager
    def recorded(workers, *shared):
        with fork_pool(workers, *shared) as helpers:
            submit = helpers.submit

            def record(fn, *args):
                seen.append(args)
                return submit(fn, *args)

            helpers.submit = record
            yield helpers

    monkeypatch.setattr(pool, "fork_pool", recorded)
    return seen


def test_error_rate_helpers_inherit_the_parameters_instead_of_unpickling_them(monkeypatch):
    params, data = init_params(small_arch(feature_maps=3), seed=0), make_synthetic(9, seed=2)
    # a random classifier, so that predictions depend on the parameters
    params.classifier = np.random.default_rng(1).normal(0, 0.5, params.classifier.shape)
    serial = error_rate(params, data)
    use_cores(monkeypatch, 3)
    seen = submitted_arguments(monkeypatch)
    assert error_rate(params, data) == serial
    assert len(seen) == 2
    assert not any(isinstance(arg, Params) for args in seen for arg in args)


def test_train_evaluates_on_its_own_helpers_without_a_second_pool(monkeypatch):
    use_cores(monkeypatch, 2)
    started = count_pools(monkeypatch)
    result = train(small_arch(), make_synthetic(8, seed=0), make_synthetic(4, seed=1),
                   TrainConfig(epochs=2, batch_size=4), seed=0)
    assert started == [1]
    assert all(not math.isnan(r.test_error) for r in result.records)


def test_batch_size_one_on_two_cores_evaluates_on_a_helper(monkeypatch):
    # a minibatch of one example is one task, but each evaluated set is many
    arch, data, test = small_arch(), make_synthetic(6, seed=0), make_synthetic(5, seed=1)
    cfg = TrainConfig(epochs=2, batch_size=1, learning_rate=1e-4)
    use_cores(monkeypatch, 1)
    serial = train(arch, data, test, cfg, seed=0)
    use_cores(monkeypatch, 2)
    started = count_pools(monkeypatch)
    assert train(arch, data, test, cfg, seed=0).records == serial.records
    assert started == [1]


def test_error_rate_in_a_pool_worker_forks_nothing(monkeypatch):
    use_cores(monkeypatch, 2)
    fork_pool = pool.fork_pool
    started = count_pools(monkeypatch)
    params, data = init_params(small_arch(), seed=0), make_synthetic(8, seed=0)
    with fork_pool(1) as workers:
        in_worker = workers.submit(error_rate, params, data).result(timeout=60)
    assert started == []
    # the same call outside a worker forks its one helper
    assert error_rate(params, data) == in_worker
    assert started == [1]
