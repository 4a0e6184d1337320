"""Momentum SGD over summed minibatch gradients, and the epoch loop.

The update is exactly

    g <- momentum * g + sum over minibatch of dLoss/dtheta
    theta <- theta - lr * g

note the gradient is the minibatch SUM, not the mean, so the effective
step size scales with batch size. Runs are fully deterministic given
(arch, data, config, seed): initialization is seeded, shuffling is keyed
by (shuffle_seed, epoch), and gradients reduce in a fixed order.

One ``train`` call uses every available core (``pool.worker_count``):
it forks one helper process per core beyond the first for the length of
the call. ``loss_and_grads`` defines a minibatch's sum by fixed blocks
of ``model.BLOCK`` examples: each block summed in example order, the
block sums added in block order. Each minibatch is cut on block edges
into one contiguous run of blocks per process, or fewer if there are
fewer blocks. This process takes the first run, through one
``loss_and_grads`` call; every later run comes back from its helper as
``model.block_sums``, which this process adds on in block order. Block
edges do not depend on the number of processes, so records and
parameters are bit for bit the same whatever the number of cores.
Evaluations go through ``model.split_errors``, the split that
``error_rate`` uses, on this call's helpers rather than a pool of their
own, and add integer error counts. A minibatch of one block runs here
alone.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, minibatches
from .errors import NumericError, ShapeError
from .model import (BLOCK, ArchConfig, Params, add_block_sums, block_sums, init_params,
                    loss_and_grads, split_errors, zeros_like_params)
from .pool import fork_pool, shared, worker_count
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
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
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


def _helper_blocks(params: Params, idx: np.ndarray) -> list[tuple[float, Params]]:
    data = shared()[0]
    return list(block_sums(params, data.images[idx], data.labels[idx]))


class _Workers:
    """The ``count`` processes one ``train`` call spreads its work over:
    this one and ``pool``'s forked helpers, which inherited (train_data,
    test_data). Without a pool everything runs here."""

    def __init__(self, count: int, pool, train_data: Dataset, test_data: Dataset):
        self.count = count
        self.pool = pool
        self.datasets = (train_data, test_data)

    def loss_and_grads(self, params: Params, idx: np.ndarray) -> tuple[float, Params]:
        """``loss_and_grads`` of the training examples ``idx``."""
        data = self.datasets[0]
        blocks = -(-len(idx) // BLOCK)
        parts = min(self.count, blocks)
        if self.pool is None or parts < 2:
            return loss_and_grads(params, data.images[idx], data.labels[idx])
        edges = [BLOCK * (blocks * part // parts) for part in range(parts + 1)]
        futures = [self.pool.submit(_helper_blocks, params, idx[start:stop])
                   for start, stop in zip(edges[1:-1], edges[2:])]
        own = idx[:edges[1]]
        total, grads = loss_and_grads(params, data.images[own], data.labels[own])
        for future in futures:
            total = add_block_sums(total, grads, future.result())
        return total, grads

    def error_rate(self, params: Params, which: int) -> float:
        """``error_rate`` on the training (0) or test (1) set, split over
        this call's processes rather than a pool of its own. Each task
        carries ``params``, which change every step, after the helpers
        forked."""
        data = self.datasets[which]
        return split_errors(params, data, self.count, self.pool, which) / len(data)


def train(arch: ArchConfig, train_data: Dataset, test_data: Dataset,
          cfg: TrainConfig, seed: int) -> TrainResult:
    """Run the full training loop and collect per-epoch metrics.

    Evaluations (train and test error) happen every ``eval_every`` epochs
    and always on the final epoch; skipped epochs record NaN. A non-finite
    minibatch loss aborts with a diagnostic naming the batch. An exception
    in a helper process is raised here with its own type, and a helper
    that dies raises ``BrokenProcessPool``.
    """
    if len(train_data) == 0 or len(test_data) == 0:
        raise ShapeError("train and test datasets must be nonempty")
    params = init_params(arch, seed)
    state = TrainState.fresh(params)
    records: list[EpochRecord] = []
    n = len(train_data)
    count = worker_count(min(cfg.batch_size, n)) if cfg.epochs else 1
    helpers = fork_pool(count - 1, train_data, test_data) if count > 1 else nullcontext()

    with helpers as pool:
        workers = _Workers(count, pool, train_data, test_data)
        for epoch in range(cfg.epochs):
            start = time.perf_counter()
            epoch_loss = 0.0
            for batch_index, idx in enumerate(
                    minibatches(train_data, cfg.batch_size, cfg.shuffle_seed, epoch)):
                loss, grads = workers.loss_and_grads(params, idx)
                if not math.isfinite(loss):
                    raise NumericError(
                        f"non-finite loss {loss} at epoch {epoch}, batch {batch_index}")
                sgd_momentum_step(params, grads, state, cfg)
                epoch_loss += loss
            state.epochs_completed = epoch + 1

            evaluate = (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1
            train_err = workers.error_rate(params, 0) if evaluate else math.nan
            test_err = workers.error_rate(params, 1) if evaluate else math.nan
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
