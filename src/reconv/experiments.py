"""Declarative grid and pair experiments over (feature maps, layers, tying).

Five experiment kinds cover the controlled comparisons the architecture
enables:

    layers-tied            tied models over the L x M grid: parameter
                           count fixed per M, depth varies.
    params-layers-untied   untied models over the grid; records group by
                           (param count, L) downstream.
    pair-tied-vs-untied    tied/untied pairs at equal (M, L): same maps
                           and depth, budgets differ.
    pair-matched-features  tied/untied pairs with matched budgets at
                           equal L: only the map count differs.
    overview-grid          both variants over the full grid.

Each cell is an independent, seeded training run, so cells run in
parallel worker processes; failures on bad input or numerics are recorded
per cell and do not stop the sweep.
"""

from __future__ import annotations

import io
import csv
import math
import time
from dataclasses import dataclass, field

from .counting import match_pairs, param_count
from .data import Dataset
from .errors import ReconvError
from .model import ArchConfig, error_rate
from .pool import fork_pool, shared, worker_count
from .train import TrainConfig, train

KINDS = ("overview-grid", "layers-tied", "params-layers-untied",
         "pair-tied-vs-untied", "pair-matched-features")


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
    dataset: str = ""              # provenance label only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; one of {KINDS}")
        if not self.m_list or not self.l_list or not self.seeds:
            raise ValueError("m_list, l_list and seeds must be nonempty")


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
    cells: list[tuple[bool, int, int]] = []
    if spec.kind == "layers-tied":
        cells = [(True, m, l) for m in spec.m_list for l in spec.l_list]
    elif spec.kind == "params-layers-untied":
        cells = [(False, m, l) for m in spec.m_list for l in spec.l_list]
    elif spec.kind == "pair-tied-vs-untied":
        for m in spec.m_list:
            for l in spec.l_list:
                cells.extend([(False, m, l), (True, m, l)])
    elif spec.kind == "pair-matched-features":
        m_range = (min(spec.m_list), max(spec.m_list))
        for l in spec.l_list:
            pairs = match_pairs(l, m_range, spec.tolerance)
            if spec.max_pairs > 0:
                pairs = pairs[:spec.max_pairs]
            for pair in pairs:
                cells.extend([(False, pair.m_untied, l), (True, pair.m_tied, l)])
    elif spec.kind == "overview-grid":
        for m in spec.m_list:
            for l in spec.l_list:
                cells.extend([(False, m, l), (True, m, l)])
    seen = set()
    unique = []
    for c in cells:
        if c not in seen:
            seen.add(c)
            unique.append(c)
    return unique


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
    count = param_count(arch)
    start = time.perf_counter()
    try:
        result = train(arch, train_data, test_data, spec.train, seed)
    except (ReconvError, ArithmeticError) as exc:
        return CellResult(
            kind=spec.kind, tied=tied, feature_maps=m, layers=l,
            param_count=count, train_error=math.nan, test_error=math.nan,
            seed=seed, epochs=spec.train.epochs,
            seconds=time.perf_counter() - start, error=str(exc))
    if result.records:
        train_err = result.records[-1].train_error
        test_err = result.records[-1].test_error
    else:
        # 0-epoch cells report the untrained model's error
        train_err = error_rate(result.params, train_data)
        test_err = error_rate(result.params, test_data)
    return CellResult(
        kind=spec.kind, tied=tied, feature_maps=m, layers=l,
        param_count=count, train_error=train_err, test_error=test_err,
        seed=seed, epochs=spec.train.epochs,
        seconds=time.perf_counter() - start)


def _run_worker_cell(task: tuple[bool, int, int, int]) -> CellResult:
    """_run_cell in a pool worker, which inherited (spec, train_data,
    test_data); only task tuples and CellResults cross processes."""
    return _run_cell(task, *shared())


def run_experiment(spec: ExperimentSpec, train_data: Dataset,
                   test_data: Dataset) -> ExperimentResult:
    """Train every cell of ``spec`` with every seed.

    Each (cell, seed) pair is one task. The tasks run on
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
             for seed in spec.seeds]
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "tied", "M", "L", "param_count", "train_error",
                     "test_error", "seed", "epochs", "seconds", "error"])
    for c in result.cells:
        writer.writerow([
            c.kind, str(c.tied).lower(), c.feature_maps, c.layers, c.param_count,
            repr(c.train_error), repr(c.test_error), c.seed, c.epochs,
            repr(c.seconds if wall_time else 0.0), c.error])
    return buf.getvalue()


@dataclass(frozen=True)
class ContourRow:
    """One point of the iso-parameter contour table. Grid cells carry
    level_id -1 and their own (integer) M; polyline points carry the real
    M solving count(M, L) = level for their level's value."""

    m: float
    layers: int
    param_count: int
    level_id: int


def _solve_m(level: int, layers: int, tied: bool) -> float:
    """Positive real M with param_count(M, layers, tied) == level, using
    the default extents. The count is quadratic in M."""
    cfg = ArchConfig(feature_maps=1, layers=layers, tied=tied)
    l_eff = 1 if tied else layers
    a = cfg.hidden_kernel ** 2 * l_eff
    b = (cfg.first_kernel ** 2 * cfg.input_channels + (l_eff + 1)
         + (cfg.input_h // cfg.pool) * (cfg.input_w // cfg.pool) * cfg.classes)
    c = cfg.classes - level
    return (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def emit_contours(m_list: list[int], l_list: list[int], kind: str) -> list[ContourRow]:
    """Parameter counts over the (M, L) grid plus iso-parameter polylines.

    Levels are the counts of the grid's corner cells (deduplicated,
    ascending). Tied counts do not depend on L, so tied polylines are
    horizontal. ``kind`` is "tied" or "untied".
    """
    if kind not in ("tied", "untied"):
        raise ValueError(f"kind must be 'tied' or 'untied', got {kind!r}")
    if not m_list or not l_list:
        raise ValueError("m_list and l_list must be nonempty")
    tied = kind == "tied"

    def count(m: int, l: int) -> int:
        return param_count(ArchConfig(feature_maps=m, layers=l, tied=tied))

    rows = [ContourRow(m=float(m), layers=l, param_count=count(m, l), level_id=-1)
            for m in m_list for l in l_list]
    corners = {count(m, l) for m in (min(m_list), max(m_list))
               for l in (min(l_list), max(l_list))}
    for level_id, level in enumerate(sorted(corners)):
        for l in l_list:
            rows.append(ContourRow(m=_solve_m(level, l, tied), layers=l,
                                   param_count=level, level_id=level_id))
    return rows


def contours_csv(rows: list[ContourRow]) -> str:
    """CSV with columns M, L, param_count, level_id."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["M", "L", "param_count", "level_id"])
    for r in rows:
        writer.writerow([repr(r.m), r.layers, r.param_count, r.level_id])
    return buf.getvalue()
