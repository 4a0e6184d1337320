"""Momentum SGD over summed minibatch gradients, and the epoch loop.

The update is exactly

    g <- momentum * g + sum over minibatch of dLoss/dtheta
    theta <- theta - lr * g

note the gradient is the minibatch SUM, not the mean, so the effective
step size scales with batch size. Runs are fully deterministic given
(arch, data, config, seed): initialization is seeded, shuffling is keyed
by (shuffle_seed, epoch), and gradients reduce in a fixed order.

One ``train`` call uses every available core through ``pool.helpers``,
whose helpers inherit (train_data, test_data). ``loss_and_grads``
defines a minibatch's sum by fixed blocks of ``model.BLOCK`` examples:
each block summed in example order, the block sums added in block
order. So each minibatch is split on block edges, and the helpers return
``model.block_sums``. Block edges do not depend on the number of
processes, so records and parameters are bit for bit the same whatever
the number of cores. Evaluations are split too, with ``params`` in every
task, as they change every step, and add integer error counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, minibatches
from .errors import NumericError, ShapeError
from .model import (BLOCK, ArchConfig, Params, add_block_sums, block_sums,
                    check_dataset, count_errors, init_params, loss_and_grads,
                    zeros_like_params)
from .pool import helpers, shared
from .table import csv_text


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 128
    learning_rate: float = 1e-3
    momentum: float = 0.9
    shuffle_seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.shuffle_seed < 0:
            raise ValueError(f"shuffle_seed must be >= 0, got {self.shuffle_seed}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")


@dataclass
class TrainState:
    """Momentum buffers plus the completed-epoch counter. Shuffling is
    keyed statelessly by (shuffle_seed, epoch), so no generator state
    needs to persist here."""

    velocity: Params
    epochs_completed: int = 0

    @classmethod
    def fresh(cls, params: Params) -> "TrainState":
        return cls(velocity=zeros_like_params(params))


@dataclass
class EpochRecord:
    """Metrics for one completed epoch. ``train_loss`` is the mean
    per-example NLL over the epoch's minibatches; error fields are NaN on
    epochs the evaluation cadence skipped. Wall time is excluded from
    equality so determinism checks compare only the computed payload."""

    epoch: int
    train_loss: float
    train_error: float
    test_error: float
    seconds: float = field(compare=False, default=0.0)


@dataclass
class TrainResult:
    records: list[EpochRecord]
    params: Params
    state: TrainState


def sgd_momentum_step(params: Params, grads: Params, state: TrainState,
                      cfg: TrainConfig) -> tuple[Params, TrainState]:
    """One in-place momentum update; ``grads`` must be the minibatch sum."""
    for (name, p), (_, g), (_, v) in zip(
            params.tensors(), grads.tensors(), state.velocity.tensors()):
        if p.shape != g.shape or p.shape != v.shape:
            raise ShapeError(
                f"{name}: params {p.shape}, grads {g.shape}, velocity {v.shape}")
        v *= cfg.momentum
        v += g
        p -= cfg.learning_rate * v
    return params, state


def _first_nonfinite(grads: Params) -> str:
    """The name of the first tensor, in ``Params.tensors()`` order, that
    holds a non-finite value, or "none"."""
    return next((name for name, g in grads.tensors() if not np.isfinite(g).all()),
                "none")


def _helper_blocks(params: Params, idx: np.ndarray, start: int,
                   stop: int) -> list[tuple[float, Params]]:
    """``block_sums`` of training examples ``idx[start:stop]``, in a helper."""
    data = shared()[0]
    own = idx[start:stop]
    return list(block_sums(params, data.floats(own), data.labels[own]))


def _helper_errors(params: Params, which: int, start: int, stop: int) -> int:
    """``count_errors`` of examples ``start:stop`` of the training (0) or
    test (1) set, in a helper."""
    return count_errors(params, shared()[which], start, stop)


def _error_rate(split, params: Params, data: Dataset, which: int) -> float:
    end, futures = split(len(data), _helper_errors, params, which)
    wrong = count_errors(params, data, 0, end)
    return (wrong + sum(future.result() for future in futures)) / len(data)


def train(arch: ArchConfig, train_data: Dataset, test_data: Dataset,
          cfg: TrainConfig, seed: int) -> TrainResult:
    """Run the full training loop and collect per-epoch metrics.

    Evaluations (train and test error) happen every ``eval_every`` epochs
    and always on the final epoch; skipped epochs record NaN. A non-finite
    minibatch loss aborts with a diagnostic naming the epoch, the batch and
    the first gradient tensor holding a non-finite value. An exception
    in a helper process is raised here with its own type, and a helper
    that dies raises ``BrokenProcessPool``. A dataset that does not fit
    ``arch`` (``model.check_dataset``) raises a ShapeError before any
    training.
    """
    check_dataset(arch, train_data, "train_data")
    check_dataset(arch, test_data, "test_data")
    params = init_params(arch, seed)
    state = TrainState.fresh(params)
    records: list[EpochRecord] = []
    n = len(train_data)
    tasks = min(cfg.batch_size, n) if cfg.epochs else 1

    with helpers(tasks, train_data, test_data) as split:
        for epoch in range(cfg.epochs):
            start = time.perf_counter()
            epoch_loss = 0.0
            for batch_index, idx in enumerate(
                    minibatches(train_data, cfg.batch_size, cfg.shuffle_seed, epoch)):
                end, futures = split(len(idx), _helper_blocks, params, idx, step=BLOCK)
                own = idx[:end]
                loss, grads = loss_and_grads(
                    params, train_data.floats(own), train_data.labels[own])
                for future in futures:
                    loss = add_block_sums(loss, grads, future.result())
                if not math.isfinite(loss):
                    raise NumericError(
                        f"non-finite loss {loss} at epoch {epoch}, batch {batch_index}; "
                        f"first non-finite gradient: {_first_nonfinite(grads)}")
                sgd_momentum_step(params, grads, state, cfg)
                epoch_loss += loss
            state.epochs_completed = epoch + 1

            evaluate = (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1
            train_err = _error_rate(split, params, train_data, 0) if evaluate else math.nan
            test_err = _error_rate(split, params, test_data, 1) if evaluate else math.nan
            records.append(EpochRecord(
                epoch=epoch,
                train_loss=epoch_loss / n,
                train_error=train_err,
                test_error=test_err,
                seconds=time.perf_counter() - start,
            ))
    return TrainResult(records=records, params=params, state=state)


def metrics_csv(result: TrainResult, wall_time: bool = False) -> str:
    """CSV with columns epoch, train_loss, train_error, test_error,
    seconds. Wall timings are only written on request because they break
    byte-identical replays; the default writes 0.0."""
    return csv_text(["epoch", "train_loss", "train_error", "test_error", "seconds"],
                    ([r.epoch, r.train_loss, r.train_error, r.test_error,
                      r.seconds if wall_time else 0.0] for r in result.records))
