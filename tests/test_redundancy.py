from collections import Counter

import pytest

from tricklefair import KAssignment, assign_k, calculate_k, fixed_policy, heuristic_policy


def test_grid_degree_examples():
    # step=3, offset=2 maps degrees {3,5,8} to K in {1,2}
    assert [calculate_k(y, 3, 2) for y in (3, 5, 8)] == [1, 1, 2]
    # step=3, offset=0 maps them to {1,2,3}
    assert [calculate_k(y, 3, 0) for y in (3, 5, 8)] == [1, 2, 3]
    assert [calculate_k(y, 2, 0) for y in (3, 5, 8)] == [2, 3, 4]


def test_zero_neighbors_gives_one():
    for step in (1, 2, 5):
        for offset in (0, 1, 4):
            assert calculate_k(0, step, offset) == 1


def test_step_one_offset_zero_is_identity():
    for y in range(1, 30):
        assert calculate_k(y, 1, 0) == y


def test_monotonicity_properties():
    for offset in range(0, 8):
        for step in range(1, 7):
            ks = [calculate_k(y, step, offset) for y in range(0, 40)]
            assert all(a <= b for a, b in zip(ks, ks[1:]))  # non-decreasing in y
            assert min(ks) >= 1
    for y in range(0, 40):
        for offset in range(0, 8):
            by_step = [calculate_k(y, step, offset) for step in range(1, 10)]
            assert all(a >= b for a, b in zip(by_step, by_step[1:]))
        for step in range(1, 7):
            if y == 0:
                continue
            by_offset = [calculate_k(y, step, offset) for offset in range(0, y)]
            assert all(a >= b for a, b in zip(by_offset, by_offset[1:]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        calculate_k(5, 0)
    with pytest.raises(ValueError):
        calculate_k(5, 1, -1)
    with pytest.raises(ValueError):
        calculate_k(-1, 1)
    for step in (2.5, True):
        with pytest.raises(ValueError, match="step"):
            calculate_k(5, step)
    with pytest.raises(ValueError, match="offset"):
        calculate_k(5, 1, 0.5)
    with pytest.raises(ValueError, match="num_neighbors"):
        calculate_k(2.5, 1)
    # a K that is not an integer >= 1 is rejected before any solver or simulator sees it
    for k in (0, 1.5, True):
        with pytest.raises(ValueError, match="redundancy constant"):
            KAssignment((1, k), {"mode": "drawn"})


def test_assign_fixed(grid):
    ka = assign_k(grid, fixed_policy(2))
    assert isinstance(ka, KAssignment)
    assert len(ka.k) == grid.n
    assert set(ka.k) == {2}
    assert ka.policy == {"mode": "fixed", "k": 2}


def test_assign_heuristic_on_grid(grid):
    ka = assign_k(grid, heuristic_policy(step=2, offset=0))
    assert set(ka.k) == {2, 3, 4}
    ka = assign_k(grid, heuristic_policy(step=3, offset=2))
    census = Counter(ka.k)
    assert census == {1: 24, 2: 25}  # 4 corners + 20 border nodes, 25 interior


def test_assign_rejects_bad_policy(grid):
    with pytest.raises(ValueError, match="unknown policy mode"):
        assign_k(grid, {"mode": "adaptive"})
    for policy in (fixed_policy(0), fixed_policy(2.7), fixed_policy(True), heuristic_policy(step=2.5)):
        with pytest.raises(ValueError):
            assign_k(grid, policy)
    with pytest.raises(ValueError, match="redundancy constant None must be an integer >= 1"):
        assign_k(grid, {"mode": "fixed"})
    for policy in (None, "fixed", ["mode", "fixed"]):
        with pytest.raises(ValueError, match="is not a dict"):
            assign_k(grid, policy)
