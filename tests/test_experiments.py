import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from reconv import (ArchConfig, CellResult, ExperimentResult, ExperimentSpec,
                    TrainConfig, contours_csv, emit_contours, error_rate,
                    experiments, init_params, make_synthetic, param_count,
                    pool, results_csv, run_experiment, train)
from reconv.experiments import _cell_descriptors


def spec(kind, m_list, l_list, epochs=0, **kw):
    return ExperimentSpec(kind=kind, m_list=m_list, l_list=l_list,
                          train=TrainConfig(epochs=epochs, batch_size=8), **kw)


def tiny_data(n=4, seed=0):
    return make_synthetic(n, seed=seed)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        spec("mystery", [4], [1])


@pytest.mark.parametrize("tolerance", [float("nan"), -0.01])
def test_bad_tolerance_rejected_before_any_pairs_are_matched(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        spec("pair-matched-features", [4], [1], tolerance=tolerance)


def test_degenerate_zero_epoch_cell_reports_untrained_error():
    s = spec("layers-tied", [4], [1], epochs=0)
    train_data, test_data = tiny_data(6, 0), tiny_data(4, 1)
    result = run_experiment(s, train_data, test_data)
    assert len(result.cells) == 1
    cell = result.cells[0]
    arch = ArchConfig(feature_maps=4, layers=1, tied=True)
    assert cell.train_error == error_rate(init_params(arch, 0), train_data)
    assert cell.param_count == param_count(arch)


def test_pair_matched_features_includes_reference_pair():
    s = spec("pair-matched-features", [16, 256], [3], tolerance=0.01)
    cells = _cell_descriptors(s)
    assert (False, 71, 3) in cells
    assert (True, 108, 3) in cells
    # the budgets recorded for those cells
    assert param_count(ArchConfig(feature_maps=71, layers=3, tied=False)) == 195473
    assert param_count(ArchConfig(feature_maps=108, layers=3, tied=True)) == 195058


def test_pair_matched_features_runs_matched_cells():
    # L=1 pairs are exact (tying one layer is free), so a zero-tolerance
    # matched-pair sweep trains tied/untied twins
    s = spec("pair-matched-features", [2, 4], [1], tolerance=0.0)
    result = run_experiment(s, tiny_data(4), tiny_data(2, 1))
    key = {(c.tied, c.feature_maps, c.layers) for c in result.cells}
    assert key == {(False, 2, 1), (True, 2, 1), (False, 3, 1), (True, 3, 1),
                   (False, 4, 1), (True, 4, 1)}
    for c in result.cells:
        assert c.param_count == param_count(
            ArchConfig(feature_maps=c.feature_maps, layers=c.layers, tied=c.tied))


def test_max_pairs_caps_best_matches_first():
    full = spec("pair-matched-features", [64, 128], [3], tolerance=0.01)
    capped = spec("pair-matched-features", [64, 128], [3], tolerance=0.01,
                  max_pairs=6)
    assert len(_cell_descriptors(capped)) <= len(_cell_descriptors(full))
    assert (False, 71, 3) in _cell_descriptors(capped)  # rank 6 by rel_diff


def test_pair_tied_vs_untied_grid():
    s = spec("pair-tied-vs-untied", [2, 3], [1, 2])
    cells = _cell_descriptors(s)
    assert len(cells) == 8
    for m in (2, 3):
        for l in (1, 2):
            assert (True, m, l) in cells and (False, m, l) in cells


def test_each_grid_kind_builds_its_tyings_over_the_grid():
    for kind, tyings in (("layers-tied", (True,)), ("params-layers-untied", (False,)),
                         ("pair-tied-vs-untied", (False, True))):
        assert _cell_descriptors(spec(kind, [2, 3], [1, 2])) == \
            [(tied, m, l) for m in (2, 3) for l in (1, 2) for tied in tyings]
    assert _cell_descriptors(spec("params-layers-untied", [2], [1, 2])) == \
        [(False, 2, 1), (False, 2, 2)]


def test_results_sorted_canonically_and_deterministic():
    s = spec("pair-tied-vs-untied", [3, 2], [2, 1], seeds=(1, 0))
    train_data, test_data = tiny_data(4), tiny_data(2, 1)
    r1 = run_experiment(s, train_data, test_data)
    r2 = run_experiment(s, train_data, test_data)
    assert r1 == r2  # wall time excluded from cell equality
    keys = [(c.kind, c.feature_maps, c.layers, c.tied, c.seed) for c in r1.cells]
    assert keys == sorted(keys)
    assert len(r1.cells) == 16  # 8 cells x 2 seeds


def test_repeated_seeds_train_once():
    train_data, test_data = tiny_data(4), tiny_data(2, 1)
    once = run_experiment(spec("layers-tied", [2], [1], seeds=(0,)), train_data, test_data)
    twice = run_experiment(spec("layers-tied", [2], [1], seeds=(0, 0)), train_data, test_data)
    assert twice.cells == once.cells


def test_failed_cells_recorded_and_run_continues():
    s = spec("layers-tied", [2], [1, 2], epochs=1)
    # 8x8 images cannot feed the default 32x32 architecture
    bad = make_synthetic(4, seed=0, size=8)
    result = run_experiment(s, bad, bad)
    assert len(result.cells) == 2
    assert all(c.error for c in result.cells)
    assert all(math.isnan(c.train_error) for c in result.cells)


def test_parallel_cells_equal_serial_training():
    s = spec("pair-tied-vs-untied", [3, 2], [2, 1], epochs=1, seeds=(1, 0))
    train_data, test_data = tiny_data(4), tiny_data(2, 1)
    expected = []
    for tied, m, l in _cell_descriptors(s):
        arch = ArchConfig(feature_maps=m, layers=l, tied=tied)
        for seed in s.seeds:
            last = train(arch, train_data, test_data, s.train, seed).records[-1]
            expected.append(CellResult(
                kind=s.kind, tied=tied, feature_maps=m, layers=l,
                param_count=param_count(arch), train_error=last.train_error,
                test_error=last.test_error, seed=seed, epochs=1))
    expected.sort(key=lambda c: (c.kind, c.feature_maps, c.layers, c.tied, c.seed))
    result = run_experiment(s, train_data, test_data)
    assert result.cells == expected
    assert results_csv(result) == results_csv(ExperimentResult(s, expected))


def test_programming_error_raises_instead_of_failing_the_cell():
    s = spec("layers-tied", [2], [1, 2], epochs=1)
    s.train.learning_rate = "0.001"   # a bug, not bad input or numerics
    with pytest.raises(TypeError):
        run_experiment(s, tiny_data(4), tiny_data(2, 1))


def test_dead_worker_raises_instead_of_hanging(monkeypatch, deadline):
    monkeypatch.setattr(pool, "available_cores", lambda: 2)
    monkeypatch.setattr(experiments, "train", lambda *args: os._exit(1))
    with pytest.raises(BrokenProcessPool):
        run_experiment(spec("layers-tied", [2], [1, 2], epochs=1),
                       tiny_data(4), tiny_data(2, 1))


def test_cells_in_workers_start_no_training_helpers(monkeypatch):
    monkeypatch.setattr(pool, "available_cores", lambda: 2)
    fork_pool, started = pool.fork_pool, []

    def parent_only(workers, *shared):
        if multiprocessing.parent_process() is not None:
            raise AssertionError("a worker process started helpers")
        started.append(workers)
        return fork_pool(workers, *shared)

    monkeypatch.setattr(pool, "fork_pool", parent_only)
    s = spec("layers-tied", [2], [1, 2], epochs=1)
    result = run_experiment(s, tiny_data(4), tiny_data(2, 1))
    assert not any(c.error for c in result.cells)
    assert started == []
    # the same training run outside a worker starts its one helper
    train(ArchConfig(feature_maps=2, layers=1, tied=True), tiny_data(4),
          tiny_data(2, 1), s.train, seed=0)
    assert started == [1]


def test_results_csv_layout():
    s = spec("layers-tied", [2], [1])
    result = run_experiment(s, tiny_data(4), tiny_data(2, 1))
    lines = results_csv(result).strip().split("\n")
    assert lines[0] == ("kind,tied,M,L,param_count,train_error,test_error,"
                        "seed,epochs,seconds,error")
    fields = lines[1].split(",")
    assert fields[0] == "layers-tied" and fields[1] == "true"
    assert fields[9] == "0.0"  # timing suppressed by default


# ---------------------------------------------------------------------------
# contours


def test_contours_tied_are_horizontal():
    rows = emit_contours([8, 16, 32], [1, 2, 4, 8], "tied")
    for m in (8, 16, 32):
        grid = {r.param_count for r in rows
                if r.level_id == -1 and r.m == float(m)}
        assert len(grid) == 1
    for level_id in {r.level_id for r in rows if r.level_id >= 0}:
        ms = {r.m for r in rows if r.level_id == level_id}
        assert len(ms) == 1  # constant M across L


def test_contours_untied_grid_values_and_monotonicity():
    rows = emit_contours([71], [3], "untied")
    cell = [r for r in rows if r.level_id == -1][0]
    assert cell.param_count == 195473

    grid = {(r.m, r.layers): r.param_count
            for r in emit_contours([8, 16, 32], [1, 2, 4], "untied")
            if r.level_id == -1}
    for l in (1, 2, 4):
        assert grid[(8.0, l)] < grid[(16.0, l)] < grid[(32.0, l)]
    for m in (8.0, 16.0, 32.0):
        assert grid[(m, 1)] < grid[(m, 2)] < grid[(m, 4)]


def test_contour_polylines_solve_the_count():
    rows = emit_contours([8, 64], [1, 2, 4], "untied")
    for r in rows:
        if r.level_id < 0:
            continue
        # plug the fractional M back into the quadratic count
        l_eff = r.layers
        value = (192 * r.m + 9 * r.m ** 2 * l_eff + r.m * (l_eff + 1)
                 + 640 * r.m + 10)
        assert value == pytest.approx(r.param_count, rel=1e-12)


def test_contours_csv_layout_and_validation():
    text = contours_csv(emit_contours([8], [1], "tied"))
    assert text.splitlines()[0] == "M,L,param_count,level_id"
    with pytest.raises(ValueError):
        emit_contours([8], [1], "sideways")
    with pytest.raises(ValueError):
        emit_contours([], [1], "tied")
