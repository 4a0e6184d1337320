import importlib
import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import numpy.testing as npt
import pytest

from reconv import (ArchConfig, EpochRecord, NumericError, ShapeError,
                    TrainConfig, TrainState, error_rate, init_params,
                    loss_and_grads, make_synthetic, metrics_csv, minibatches,
                    model, pool, sgd_momentum_step, train, zeros_like_params)

train_module = importlib.import_module("reconv.train")


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
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, learning_rate=0.0)


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


def in_helpers_only(monkeypatch, action):
    """Make ``model.forward`` call ``action`` in forked helper processes."""
    original = model.forward

    def forward(params, image):
        if multiprocessing.parent_process() is not None:
            action()
        return original(params, image)

    monkeypatch.setattr(model, "forward", forward)


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


def count_pools(monkeypatch):
    """The worker counts of the pools that ``train`` and ``error_rate``
    fork, in order; forking one in a worker process raises instead."""
    started = []
    for module in (train_module, model):
        def counted(workers, *shared, fork_pool=module.fork_pool):
            if multiprocessing.parent_process() is not None:
                raise AssertionError("a worker process forked a pool")
            started.append(workers)
            return fork_pool(workers, *shared)

        monkeypatch.setattr(module, "fork_pool", counted)
    return started


def test_train_evaluates_on_its_own_helpers_without_a_second_pool(monkeypatch):
    use_cores(monkeypatch, 2)
    started = count_pools(monkeypatch)
    result = train(small_arch(), make_synthetic(8, seed=0), make_synthetic(4, seed=1),
                   TrainConfig(epochs=2, batch_size=4), seed=0)
    assert started == [1]
    assert all(not math.isnan(r.test_error) for r in result.records)


def test_error_rate_in_a_pool_worker_forks_nothing(monkeypatch):
    use_cores(monkeypatch, 2)
    started = count_pools(monkeypatch)
    params, data = init_params(small_arch(), seed=0), make_synthetic(8, seed=0)
    with pool.fork_pool(1) as workers:
        in_worker = workers.submit(error_rate, params, data).result(timeout=60)
    assert started == []
    # the same call outside a worker forks its one helper
    assert error_rate(params, data) == in_worker
    assert started == [1]
