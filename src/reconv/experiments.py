"""The sweep runner: declarative grid and pair experiments over
(feature maps, layers, tying).

Four experiment kinds cover the controlled comparisons the architecture
enables:

    layers-tied            tied models over the L x M grid: parameter
                           count fixed per M, depth varies.
    params-layers-untied   untied models over the grid; records group by
                           (param count, L) downstream.
    pair-tied-vs-untied    tied/untied pairs at equal (M, L): same maps
                           and depth, budgets differ.
    pair-matched-features  tied/untied pairs with matched budgets at
                           equal L: only the map count differs.

Each cell is an independent, seeded training run, so cells run in
parallel worker processes; failures on bad input or numerics are recorded
per cell and do not stop the sweep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .counting import match_pairs, param_count
from .data import Dataset
from .errors import ReconvError
from .model import ArchConfig, error_rate
from .pool import fork_pool, shared, worker_count
from .table import csv_text
from .train import TrainConfig, train

# The grid kinds, each with the tyings of its cells at every (M, L).
_GRID_TYINGS = {"layers-tied": (True,), "params-layers-untied": (False,),
                "pair-tied-vs-untied": (False, True)}
KINDS = (*_GRID_TYINGS, "pair-matched-features")


@dataclass
class ExperimentSpec:
    kind: str
    m_list: list[int]
    l_list: list[int]
    train: TrainConfig
    tolerance: float = 0.01        # matched-pair budget tolerance
    seeds: tuple[int, ...] = (0,)
    max_pairs: int = 0             # 0 trains every matched pair; >0 keeps the
                                   # best-matched max_pairs per L

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; one of {KINDS}")
        if not self.m_list or not self.l_list or not self.seeds:
            raise ValueError("m_list, l_list and seeds must be nonempty")
        for key, values, least in (("m_list", self.m_list, 1), ("l_list", self.l_list, 1),
                                   ("seeds", self.seeds, 0)):
            if min(values) < least:
                raise ValueError(f"every entry of {key} must be >= {least}, got {list(values)}")
        if self.max_pairs < 0:
            raise ValueError(f"max_pairs must be >= 0, got {self.max_pairs}")
        if not self.tolerance >= 0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tolerance}")


@dataclass
class CellResult:
    """One trained cell. ``seconds`` is wall time and excluded from
    equality; ``error`` is empty unless the cell's training run failed."""

    kind: str
    tied: bool
    feature_maps: int
    layers: int
    param_count: int
    train_error: float
    test_error: float
    seed: int
    epochs: int
    seconds: float = field(compare=False, default=0.0)
    error: str = ""


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    cells: list[CellResult]


def _cell_descriptors(spec: ExperimentSpec) -> list[tuple[bool, int, int]]:
    """(tied, feature_maps, layers) descriptors for a spec, deduplicated
    in a deterministic order."""
    if spec.kind in _GRID_TYINGS:
        cells = [(tied, m, l) for m in spec.m_list for l in spec.l_list
                 for tied in _GRID_TYINGS[spec.kind]]
    else:  # pair-matched-features
        cells = []
        m_range = (min(spec.m_list), max(spec.m_list))
        for l in spec.l_list:
            pairs = match_pairs(l, m_range, spec.tolerance)
            if spec.max_pairs > 0:
                pairs = pairs[:spec.max_pairs]
            for pair in pairs:
                cells.extend([(False, pair.m_untied, l), (True, pair.m_tied, l)])
    return list(dict.fromkeys(cells))


def _conv_macs(m: int, l: int) -> int:
    """Multiply-adds of the convolutions of one forward pass, the bulk of
    a cell's training work, tied or not."""
    a = ArchConfig(feature_maps=m, layers=l)
    stem = a.input_h * a.input_w * a.first_kernel ** 2 * a.input_channels * m
    hidden = a.pooled_h * a.pooled_w * a.hidden_kernel ** 2 * m * m * l
    return stem + hidden


def _run_cell(task: tuple[bool, int, int, int], spec: ExperimentSpec,
              train_data: Dataset, test_data: Dataset) -> CellResult:
    """Train one (tied, M, L, seed) cell. Bad input or numerics are
    recorded as a failed cell; any other exception is a bug and raises."""
    tied, m, l, seed = task
    arch = ArchConfig(feature_maps=m, layers=l, tied=tied)
    cell = CellResult(kind=spec.kind, tied=tied, feature_maps=m, layers=l,
                      param_count=param_count(arch), train_error=math.nan,
                      test_error=math.nan, seed=seed, epochs=spec.train.epochs)
    start = time.perf_counter()
    try:
        result = train(arch, train_data, test_data, spec.train, seed)
    except (ReconvError, ArithmeticError) as exc:
        cell.error = str(exc)
    else:
        if result.records:
            cell.train_error = result.records[-1].train_error
            cell.test_error = result.records[-1].test_error
        else:
            # 0-epoch cells report the untrained model's error
            cell.train_error = error_rate(result.params, train_data)
            cell.test_error = error_rate(result.params, test_data)
    cell.seconds = time.perf_counter() - start
    return cell


def _run_worker_cell(task: tuple[bool, int, int, int]) -> CellResult:
    """_run_cell in a pool worker, which inherited (spec, train_data,
    test_data); only task tuples and CellResults cross processes."""
    return _run_cell(task, *shared())


def run_experiment(spec: ExperimentSpec, train_data: Dataset,
                   test_data: Dataset) -> ExperimentResult:
    """Train every cell of ``spec`` with every seed.

    Each (cell, seed) pair is one task, a repeated seed counting once,
    as a repeated M or L does. The tasks run on
    ``pool.worker_count(tasks)`` forked worker processes, or in this
    process when that is one; every cell is seeded, so the results are
    the same either way. A cell that fails on its input or numerics
    (shape mismatch, numeric blowup) is recorded with its message and NaN
    errors and the sweep continues; any other exception propagates, and a
    worker process that dies raises ``BrokenProcessPool``. Records come
    back canonically sorted by (kind, M, L, tied, seed) regardless of
    execution order.
    """
    tasks = [(tied, m, l, seed) for tied, m, l in _cell_descriptors(spec)
             for seed in dict.fromkeys(spec.seeds)]
    # Largest cells first, so that no long cell starts last while the
    # other workers sit idle.
    tasks.sort(key=lambda task: _conv_macs(task[1], task[2]), reverse=True)
    workers = worker_count(len(tasks))
    if workers == 1:
        cells = [_run_cell(task, spec, train_data, test_data) for task in tasks]
    else:
        with fork_pool(workers, spec, train_data, test_data) as pool:
            cells = list(pool.map(_run_worker_cell, tasks))
    cells.sort(key=lambda c: (c.kind, c.feature_maps, c.layers, c.tied, c.seed))
    return ExperimentResult(spec=spec, cells=cells)


def results_csv(result: ExperimentResult, wall_time: bool = False) -> str:
    """CSV with columns kind, tied, M, L, param_count, train_error,
    test_error, seed, epochs, seconds (zeroed unless wall_time), error."""
    return csv_text(
        ["kind", "tied", "M", "L", "param_count", "train_error", "test_error",
         "seed", "epochs", "seconds", "error"],
        ([c.kind, c.tied, c.feature_maps, c.layers, c.param_count, c.train_error,
          c.test_error, c.seed, c.epochs, c.seconds if wall_time else 0.0, c.error]
         for c in result.cells))
