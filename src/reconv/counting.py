"""Parameter accounting: the count formula, matched pairs and
iso-parameter contours.

A model's parameter count is a quadratic in its feature-map count M. A
tied model reuses one kernel/bias pair for every hidden layer, so its
count is independent of depth; an untied model pays for each layer.
``param_count`` evaluates the quadratic. ``match_pairs`` exhaustively
enumerates (untied M, tied M) pairs whose totals agree within a
tolerance, which is what lets depth- and width-controlled comparisons
hold the budget fixed. ``emit_contours`` inverts the quadratic for the
real M that reaches a given count at each depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ArchConfig
from .table import csv_text


def _count_coefficients(config: ArchConfig) -> tuple[int, int, int]:
    """(a, b, c) with param_count = a*M^2 + b*M + c for the architecture's
    depth, tying and extents; ``config.feature_maps`` does not enter."""
    l_eff = config.hidden_copies
    a = config.hidden_kernel * config.hidden_kernel * l_eff
    b = (config.first_kernel * config.first_kernel * config.input_channels
         + (l_eff + 1) + config.pooled_h * config.pooled_w * config.classes)
    return a, b, config.classes


def param_count(config: ArchConfig) -> int:
    """Total independent weights and biases of a model.

    first kernels + hidden kernels (one layer's worth when tied) +
    per-map biases + classifier weights and biases. With the default
    extents this is
        8*8*3*M + 3*3*M^2*L_eff + M*(L_eff+1) + 64*M*K + K
    where L_eff is the layer count for untied models and 1 for tied.
    """
    a, b, c = _count_coefficients(config)
    m = config.feature_maps
    return a * m * m + b * m + c


@dataclass(frozen=True)
class ModelPair:
    """A tied and an untied architecture with equal depth and nearly equal
    parameter totals."""

    layers: int
    m_untied: int
    m_tied: int
    p_untied: int
    p_tied: int
    rel_diff: float


def match_pairs(layers: int, m_range: tuple[int, int],
                tolerance: float) -> list[ModelPair]:
    """All (untied M, tied M) pairs over the inclusive feature-map range
    whose parameter counts differ by at most ``tolerance``.

    The relative difference uses the larger count as denominator
    (symmetric and conservative). Pairs come back sorted by rel_diff,
    then untied M; an empty range yields an empty list.
    """
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    lo, hi = m_range
    if lo > hi:
        return []
    ms = np.arange(lo, hi + 1, dtype=np.int64)

    def counts(tied: bool) -> np.ndarray:
        a, b, c = _count_coefficients(ArchConfig(lo, layers, tied))
        return a * ms * ms + b * ms + c

    p_untied, p_tied = counts(False), counts(True)
    diff = np.abs(p_untied[:, None] - p_tied[None, :])
    denom = np.maximum(p_untied[:, None], p_tied[None, :])
    rel = diff / denom
    iu, it = np.nonzero(rel <= tolerance)
    pairs = [
        ModelPair(
            layers=layers,
            m_untied=int(ms[i]),
            m_tied=int(ms[j]),
            p_untied=int(p_untied[i]),
            p_tied=int(p_tied[j]),
            rel_diff=float(rel[i, j]),
        )
        for i, j in zip(iu, it)
    ]
    pairs.sort(key=lambda p: (p.rel_diff, p.m_untied, p.m_tied))
    return pairs


def pairs_csv(pairs: list[ModelPair]) -> str:
    """Render pairs as CSV with columns
    L, m_untied, m_tied, p_untied, p_tied, rel_diff."""
    return csv_text(["L", "m_untied", "m_tied", "p_untied", "p_tied", "rel_diff"],
                    ([p.layers, p.m_untied, p.m_tied, p.p_untied, p.p_tied, p.rel_diff]
                     for p in pairs))


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
    a, b, c = _count_coefficients(ArchConfig(feature_maps=1, layers=layers, tied=tied))
    c -= level
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
    return csv_text(["M", "L", "param_count", "level_id"],
                    ([r.m, r.layers, r.param_count, r.level_id] for r in rows))
