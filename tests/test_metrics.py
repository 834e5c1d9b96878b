import csv
import math

import numpy as np
import pytest

from tricklefair import (
    Topology,
    class_means,
    compare,
    export_surface,
    fairness,
    generate_grid,
)
from tricklefair.metrics import save_comparison_csv


def two_pass_variance(values):
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def test_degenerate_inputs():
    rep = fairness([0.5, 0.5])
    assert (rep.max_p, rep.min_p, rep.variance) == (0.5, 0.5, 0.0)
    rep = fairness([0.0, 1.0])
    assert rep.variance == pytest.approx(0.25)
    assert rep.message_count == pytest.approx(1.0)


def test_report_invariants_random(seeded=11):
    rng = np.random.default_rng(seeded)
    for _ in range(30):
        p = rng.uniform(0, 1, int(rng.integers(1, 60)))
        rep = fairness(p)
        assert rep.min_p <= rep.mean_p <= rep.max_p
        assert rep.variance >= 0.0
        assert rep.message_count == pytest.approx(rep.mean_p * p.size)
        assert rep.variance == pytest.approx(two_pass_variance(p.tolist()), abs=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    p = rng.uniform(0, 1, 25)
    a = fairness(p)
    b = fairness(rng.permutation(p))
    assert (a.max_p, a.min_p, a.mean_p, a.variance) == (b.max_p, b.min_p, b.mean_p, b.variance)


def test_fairness_validation():
    with pytest.raises(ValueError):
        fairness([])
    with pytest.raises(ValueError):
        fairness([0.5, 1.2])
    with pytest.raises(ValueError, match="lie in"):
        fairness([math.nan, 0.5])


def test_compare_identity_and_mismatch():
    p = [0.2, 0.6, 0.9]
    cmp_ = compare(p, p)
    assert cmp_.max_abs_diff == 0.0
    assert np.all(cmp_.abs_diff == 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        compare([0.5], [0.5, 0.5])


def test_compare_reports_both_sources():
    cmp_ = compare([0.2, 0.4], [0.3, 0.3])
    assert cmp_.model_report.source == "model"
    assert cmp_.sim_report.source == "simulation"
    assert cmp_.max_abs_diff == pytest.approx(0.1)


def test_class_means_by_degree(grid):
    p = np.where(grid.degrees == 3, 0.7, np.where(grid.degrees == 5, 0.5, 0.2))
    cm = class_means(grid, p)
    assert cm == {3: pytest.approx(0.7), 5: pytest.approx(0.5), 8: pytest.approx(0.2)}


def test_export_surface_single_node(tmp_path):
    t = generate_grid(1, 1, 1.0, 1.0)
    path = tmp_path / "s.csv"
    export_surface(t, [0.42], path)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["x", "y", "p"]
    assert len(rows) == 2
    assert float(rows[1][2]) == 0.42


def test_export_surface_grid_round_trip(tmp_path, grid):
    rng = np.random.default_rng(1)
    p = rng.uniform(0, 1, grid.n)
    path = tmp_path / "grid.csv"
    export_surface(grid, p, path)
    rows = list(csv.reader(path.read_text().splitlines()))[1:]
    assert len(rows) == 49
    parsed = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(parsed[:, 2], p)
    assert np.array_equal(parsed[:, :2], grid.positions)


def test_export_surface_needs_positions(tmp_path):
    t = Topology.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match="positions"):
        export_surface(t, [0.5, 0.5], tmp_path / "x.csv")


def test_comparison_csv(tmp_path):
    cmp_ = compare([0.1, 0.9], [0.2, 0.8])
    path = tmp_path / "cmp.csv"
    save_comparison_csv(path, [3, 5], [1, 1], cmp_)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["id", "degree", "k", "p_model", "p_sim", "abs_diff"]
    assert len(rows) == 3
    assert rows[1][:3] == ["0", "3", "1"]
