import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricklefair import (
    KAssignment,
    Topology,
    assign_k,
    fairness,
    fixed_policy,
    generate_grid,
    generate_random_udg,
    heuristic_policy,
    solve_fixed_point,
)
from tricklefair import model
from tricklefair.cli import bundled_random_topology
from tricklefair.model import SolverConfig, _SweepPlan, save_solution, update_map

from oracles import (
    MAX_DEGREE,
    clique_root,
    damped_fixed_point,
    degree_table,
    gamma_exact,
    integral_pmf,
    p_first,
    p_last_opportunity,
    star_hub_k1,
    subset_cdf_average,
)
from strategies import small_networks
from test_acceptance import grid_symmetries

def brute_subset_average(probs, n, k):
    """Independent oracle: explicit enumeration over all n-subsets."""
    total = 0.0
    for chosen in itertools.combinations(range(len(probs)), n):
        sub = [probs[i] for i in chosen]
        total += sum(gamma_exact(j, sub) for j in range(k))
    return total / math.comb(len(probs), n)


def scalar_update_map(topology, k_assignment, p):
    """Oracle: the update map evaluated one node at a time with the scalar formulas."""
    out = np.ones(topology.n)
    for i, neigh in enumerate(topology.neighbor_lists):
        y, k = len(neigh), k_assignment.k[i]
        if y >= k:
            out[i] = p_first(y, k) + p_last_opportunity(y, k, p[list(neigh)])
    return out


def drawn_k_case():
    """K drawn apart from degree, which puts many degrees, and K > y, in every K batch."""
    dense = Topology.from_edges(203, generate_random_udg(200, 8, 1.6, 1).edges)  # 3 isolated nodes
    drawn = tuple(int(k) for k in np.random.default_rng(5).integers(1, 13, dense.n))
    return dense, KAssignment(drawn, {"mode": "drawn"})


def complete_graph(n):
    return Topology.from_edges(n, list(itertools.combinations(range(n), 2)))


def named_topology(name, grid):
    if name == "grid":
        return grid
    if name == "random49":
        return bundled_random_topology()
    if name == "udg200":
        return generate_random_udg(200, 8.0, 1.6, 1)
    return generate_random_udg(2000, 44.7, 1.22, 7)


@st.composite
def small_networks_with_iterate(draw):
    """A small_networks case plus an iterate p."""
    topo, ka = draw(small_networks())
    p = draw(st.lists(st.floats(0.0, 1.0), min_size=topo.n, max_size=topo.n))
    return topo, ka, np.array(p)


class TestDegreeTable:
    def test_pmf_no_neighbors(self):
        assert degree_table(0)[0].tolist() == [1.0]

    def test_pmf_one_neighbor_analytic(self):
        # 2 * integral_{1/2}^{1} (1-u) du = 1/4
        assert degree_table(1)[0].tolist() == [0.25, 0.75]

    def test_pmf_two_neighbors(self):
        assert degree_table(2)[0] == pytest.approx([1 / 12, 1 / 3, 7 / 12], abs=1e-15)

    def test_pmf_matches_quadrature(self):
        # the closed form rounds the integral of the binomial over t once
        for y in range(0, 21):
            assert degree_table(y)[0].tolist() == [float(integral_pmf(y, n)) for n in range(y + 1)]

    def test_pmf_sums_to_one_up_to_max_degree(self):
        for y in range(0, MAX_DEGREE + 1):
            assert abs(degree_table(y)[0].sum() - 1.0) <= 1e-12

    def test_degree_cap(self):
        with pytest.raises(ValueError, match=f"outside the supported range 0..{MAX_DEGREE}"):
            degree_table(MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            degree_table(-1)

    @pytest.mark.parametrize("y", [*range(71), 127, 128, 255, 256, 511, MAX_DEGREE])
    def test_equals_exact_rationals(self, y):
        # the closed form of degree_table's docstring, evaluated in exact arithmetic
        partial_sums = itertools.accumulate(math.comb(y + 1, m) for m in range(y + 1))
        pmf = [Fraction(2 * s, (y + 1) * 2 ** (y + 1)) for s in partial_sums]
        cdf = list(itertools.accumulate(pmf))
        weights = [pmf[n] / math.comb(y, n) for n in range(y + 1)]
        table = degree_table(y)
        for got, exact in zip(table, (pmf, cdf, weights)):
            assert got.tolist() == [float(v) for v in exact]
        assert cdf[-1] == 1
        # every weight is a normal float, so no digit is lost to underflow
        assert min(weights) >= Fraction(np.finfo(float).tiny)

    def test_every_table_is_bit_identical_to_math_comb(self):
        # sha256 of all 3 x 513 arrays as built with math.comb for every entry,
        # before the Pascal rows came from the multiplicative recurrence
        digest = hashlib.sha256()
        for y in range(MAX_DEGREE + 1):
            for arr in degree_table(y):
                digest.update(arr.astype("<f8").tobytes())
        assert digest.hexdigest() == "1169c11250770c3504f83607be9959ae28589cd7d4f3f6a228ed87544c079153"

    def test_cdf_is_the_scalar_p_first(self):
        for y in (0, 1, 3, 8, 20, 64, 200):
            cdf = degree_table(y)[1]
            assert [cdf[k - 1] for k in range(1, y + 1)] == [p_first(y, k) for k in range(1, y + 1)]

    def test_arrays_are_read_only(self):
        for arr in degree_table(5):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5


class TestPFirst:
    def test_full_sum_is_exactly_one(self):
        assert p_first(1, 2) == 1.0
        assert p_first(0, 1) == 1.0
        assert p_first(7, 30) == 1.0

    def test_examples(self):
        assert p_first(1, 1) == pytest.approx(0.25, abs=1e-15)
        assert p_first(2, 2) == pytest.approx(5 / 12, abs=1e-15)

    def test_matches_pmf_partial_sums(self):
        for y in (0, 1, 3, 8, 20):
            pmf = degree_table(y)[0]
            for k in range(1, y + 1):
                assert p_first(y, k) == pytest.approx(pmf[:k].sum(), abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            p_first(3, 0)
        with pytest.raises(ValueError):
            p_first(-1, 1)


class TestGammaExact:
    def test_examples(self):
        assert gamma_exact(0, [0.5, 0.5]) == pytest.approx(0.25)
        assert gamma_exact(1, [0.5, 0.5]) == pytest.approx(0.5)
        # 0.2*0.7*0.6 + 0.8*0.3*0.6 + 0.8*0.7*0.4
        assert gamma_exact(1, [0.2, 0.3, 0.4]) == pytest.approx(0.452, abs=1e-15)

    def test_distribution_sums_to_one(self):
        probs = [0.1, 0.6, 0.35, 0.9]
        assert sum(gamma_exact(j, probs) for j in range(5)) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_exact(0, [1.2])
        with pytest.raises(ValueError):
            gamma_exact(3, [0.5, 0.5])


class TestSubsetCdfAverage:
    def test_symmetric_probs_collapse_to_binomial(self):
        p, y, n, k = 0.3, 6, 4, 2
        expected = sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k))
        assert subset_cdf_average([p] * y, n, k) == pytest.approx(expected, abs=1e-13)

    def test_full_subset_is_plain_cdf(self):
        probs = [0.15, 0.5, 0.7, 0.25]
        got = subset_cdf_average(probs, 4, 2)
        expected = gamma_exact(0, probs) + gamma_exact(1, probs)
        assert got == pytest.approx(expected, abs=1e-13)

    def test_hand_enumeration_example(self):
        # pair products of complements: 0.56, 0.48, 0.42; mean = 1.46/3
        assert subset_cdf_average([0.2, 0.3, 0.4], 2, 1) == pytest.approx(1.46 / 3, abs=1e-13)

    def test_matches_enumeration_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            y = int(rng.integers(1, 9))
            probs = rng.uniform(0.0, 1.0, size=y)
            n = int(rng.integers(1, y + 1))
            k = int(rng.integers(1, n + 1))
            assert subset_cdf_average(probs, n, k) == pytest.approx(
                brute_subset_average(list(probs), n, k), abs=1e-12
            )

    def test_parameter_order_violations(self):
        with pytest.raises(ValueError):
            subset_cdf_average([0.5, 0.5], 3, 1)  # n > y
        with pytest.raises(ValueError):
            subset_cdf_average([0.5, 0.5], 1, 2)  # k > n
        with pytest.raises(ValueError):
            subset_cdf_average([0.5, 0.5], 2, 0)  # k < 1


class TestPLastOpportunity:
    def test_single_neighbor_closed_form(self):
        for q in (0.0, 0.2, 0.9, 1.0):
            assert p_last_opportunity(1, 1, [q]) == pytest.approx(0.75 * (1 - q), abs=1e-15)

    def test_silent_neighbors_complement_p_first(self):
        for y, k in ((3, 1), (5, 2), (8, 4)):
            got = p_last_opportunity(y, k, [0.0] * y)
            assert got == pytest.approx(1.0 - p_first(y, k), abs=1e-13)

    def test_k_equal_y_single_term(self):
        probs = [0.3, 0.6, 0.8]
        got = p_last_opportunity(3, 3, probs)
        expected = degree_table(3)[0][3] * sum(gamma_exact(j, probs) for j in range(3))
        assert got == pytest.approx(expected, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            p_last_opportunity(2, 1, [0.5])  # length mismatch
        with pytest.raises(ValueError):
            p_last_opportunity(1, 2, [0.5])  # y < k


def test_gauss_legendre_rules_are_cached_read_only_and_bit_identical():
    for n in (1, 2, 7, 16, 101):
        cached = model._gauss_legendre(n)
        assert model._gauss_legendre(n) is cached
        for built, fresh in zip(cached, model._gauss_legendre.__wrapped__(n)):
            assert built.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                built[0] = 0.0


class TestUpdateMap:
    def test_isolated_node_is_certain(self):
        t = Topology.from_edges(1, [])
        ka = assign_k(t, fixed_policy(1))
        for p0 in (0.0, 0.3, 1.0):
            assert update_map(t, ka, [p0]).tolist() == [1.0]

    def test_two_node_evaluations(self, two_node):
        ka = assign_k(two_node, fixed_policy(1))
        assert update_map(two_node, ka, [0.0, 0.0]) == pytest.approx([1.0, 1.0])
        assert update_map(two_node, ka, [1.0, 1.0]) == pytest.approx([0.25, 0.25])

    def test_output_stays_in_unit_interval(self, grid):
        ka = assign_k(grid, fixed_policy(2))
        rng = np.random.default_rng(5)
        for _ in range(20):
            out = update_map(grid, ka, rng.uniform(0, 1, grid.n))
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_monotone_in_own_k(self, grid):
        # at fixed neighbor probabilities, a larger K never lowers the update
        rng = np.random.default_rng(8)
        p = rng.uniform(0, 1, grid.n)
        prev = None
        for k in range(1, 10):
            out = update_map(grid, assign_k(grid, fixed_policy(k)), p)
            if prev is not None:
                assert np.all(out >= prev - 1e-12)
            prev = out

    def test_monotone_in_neighbor_probability(self, two_node):
        ka = assign_k(two_node, fixed_policy(1))
        for lo, hi in ((0.1, 0.2), (0.5, 0.9)):
            up_lo = update_map(two_node, ka, [0.5, lo])[0]
            up_hi = update_map(two_node, ka, [0.5, hi])[0]
            assert up_lo >= up_hi

    def test_rejects_out_of_range_input(self, two_node):
        ka = assign_k(two_node, fixed_policy(1))
        with pytest.raises(ValueError):
            update_map(two_node, ka, [0.5, 1.5])
        with pytest.raises(ValueError, match="lie in"):
            update_map(two_node, ka, [math.nan, 0.5])

    @pytest.mark.parametrize("p", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
    def test_rejects_wrong_shape(self, two_node, p):
        with pytest.raises(ValueError, match=r"current_p must have shape \(2,\)"):
            update_map(two_node, assign_k(two_node, fixed_policy(1)), p)

    def test_batched_map_matches_scalar_oracle(self, grid):
        udg = generate_random_udg(60, 10, 1.8, 2)
        random49 = bundled_random_topology()
        cases = [(grid, assign_k(grid, fixed_policy(k))) for k in range(1, 7)]
        heuristic = assign_k(udg, heuristic_policy(3, 0))
        cases += [(random49, assign_k(random49, fixed_policy(2))), (udg, heuristic)]
        dense, drawn_ka = drawn_k_case()
        cases.append((dense, drawn_ka))
        drawn = drawn_ka.k
        rng = np.random.default_rng(11)
        low_degree = isolated = 0
        for topo, ka in cases:
            low_degree += int(np.sum(topo.degrees < np.array(ka.k)))
            isolated += int(np.sum(topo.degrees == 0))
            for _ in range(3):
                p = rng.uniform(0.0, 1.0, topo.n)
                p[rng.random(topo.n) < 0.2] = 0.0
                p[rng.random(topo.n) < 0.2] = 1.0
                assert np.max(np.abs(update_map(topo, ka, p) - scalar_update_map(topo, ka, p))) <= 1e-13
        # the cases must keep exercising forced nodes, including isolated ones
        assert low_degree > 0 and isolated > 0
        assert len(set(heuristic.k)) > 1 and len(set(drawn)) == 12
        assert np.any((dense.degrees < np.array(drawn)) & (dense.degrees > 0))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(small_networks_with_iterate())
    def test_random_networks_match_scalar_oracle(self, case):
        topo, ka, p = case
        out = update_map(topo, ka, p)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(out[topo.degrees < np.array(ka.k)] == 1.0)
        assert np.max(np.abs(out - scalar_update_map(topo, ka, p))) <= 1e-13

    @pytest.mark.parametrize("y", [512, 1000])
    def test_star_hub_matches_closed_form(self, y):
        # the integral has no degree cap: its rule of y // 2 + 1 points stays
        # exact past the 512 neighbors the exact table can represent
        star = Topology.from_edges(y + 1, [(0, i) for i in range(1, y + 1)])
        ka = assign_k(star, fixed_policy(1))
        for q in (0.05, 0.3, 0.9):
            hub = update_map(star, ka, np.full(y + 1, q))[0]
            assert hub == pytest.approx(star_hub_k1(y, q), rel=1e-10, abs=0.0)

    def test_k_assignment_length_mismatch(self, two_node):
        ka = assign_k(Topology.from_edges(3, [(0, 1)]), fixed_policy(1))
        with pytest.raises(ValueError, match="length"):
            update_map(two_node, ka, [0.5, 0.5])


class TestSolveFixedPoint:
    def test_two_node_closed_form(self, two_node):
        # p = 1/4 + (3/4)(1 - p)  =>  p = 4/7
        sol = solve_fixed_point(two_node, assign_k(two_node, fixed_policy(1)))
        assert sol.converged
        assert sol.p_tx == pytest.approx([4 / 7, 4 / 7], abs=1e-9)
        assert sol.residual <= 1e-10

    def test_complete_graph_symmetry(self):
        t = complete_graph(5)
        sol = solve_fixed_point(t, assign_k(t, fixed_policy(2)))
        assert sol.converged
        assert np.ptp(sol.p_tx) <= 1e-9

    @pytest.mark.parametrize("k", range(1, 7))
    def test_grid_automorphisms_give_equal_p(self, grid, k):
        # nodes that a symmetry of the grid maps onto each other solve the
        # same equations; they differ only by summation-order rounding
        sol = solve_fixed_point(grid, assign_k(grid, fixed_policy(k)))
        assert sol.converged
        assert np.max(np.abs(sol.p_tx[grid_symmetries(grid)] - sol.p_tx)) <= 1e-12

    def test_certain_transmission_iff_low_degree(self, grid):
        sol = solve_fixed_point(grid, assign_k(grid, fixed_policy(4)))
        assert sol.converged
        forced = grid.degrees < 4
        assert np.all(sol.p_tx[forced] == 1.0)
        assert np.all(sol.p_tx[~forced] < 1.0)

    def test_decomposition_consistency(self, grid):
        sol = solve_fixed_point(grid, assign_k(grid, fixed_policy(2)))
        assert sol.p_tx == pytest.approx(sol.p_f + sol.p_lo, abs=1e-8)

    def test_newton_solutions_are_pinned_bit_for_bit(self, grid):
        # sha256 of (iterations, p_tx, p_lo) of every case as solved by Newton's
        # method on the exact edge Jacobian, with every K batch, K = 1 included,
        # run through the same DP step; any change to the DP, the Jacobian,
        # GMRES or the line search moves it
        udg = generate_random_udg(200, 8.0, 1.6, 1)
        cases = [(grid, assign_k(grid, fixed_policy(k))) for k in range(1, 7)]
        cases += [(grid, assign_k(grid, heuristic_policy(step=3, offset=o))) for o in (2, 0)]  # reproduce table 3
        cases += [(udg, assign_k(udg, fixed_policy(1))), (udg, assign_k(udg, heuristic_policy(3, 0))), drawn_k_case()]
        digest = hashlib.sha256()
        for topo, ka in cases:
            sol = solve_fixed_point(topo, ka)
            digest.update(str(sol.iterations).encode())
            digest.update(sol.p_tx.astype("<f8").tobytes())
            digest.update(sol.p_lo.astype("<f8").tobytes())
        assert digest.hexdigest() == "f5cd41982cb6af806ac93e7c10fa36926f1f504d337f23f8d5b805ca6c325f61"

    def test_update_map_is_called_once_per_f_evaluation(self, grid, monkeypatch):
        # the benchmark's tracer counts evaluations of F by replacing
        # model.update_map, so the solver must look it up in the module and call
        # it once at the start and once per trial step of every line search
        calls = []
        original = model.update_map

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "update_map", counted)
        ka = assign_k(grid, fixed_policy(3))
        sol = solve_fixed_point(grid, ka)
        assert sol.converged and sol.iterations == 5
        assert len(calls) == sol.iterations + sum(sol.halvings)
        calls.clear()
        clique = complete_graph(40)
        sol = solve_fixed_point(clique, assign_k(clique, fixed_policy(1)), SolverConfig(max_iterations=4))
        assert not sol.converged and sol.iterations == 4 and sum(sol.halvings) > 0
        assert len(calls) == sol.iterations + sum(sol.halvings)

    def test_k_past_int64_solves_as_degree_plus_one(self, grid):
        # every K > y gives p_first = 1 and a forced node, so K = y + 1 stands
        # for any of them, past numpy's fixed-width integers too
        huge = [2**63, 2**64 + 1, 10**30]
        ks = tuple(huge[i % 3] if i % 2 else 2 for i in range(grid.n))
        capped = tuple(grid.degree(i) + 1 if i % 2 else 2 for i in range(grid.n))
        sol = solve_fixed_point(grid, KAssignment(ks, {"mode": "drawn"}))
        ref = solve_fixed_point(grid, KAssignment(capped, {"mode": "drawn"}))
        assert sol.converged and sol.iterations == ref.iterations
        assert sol.p_tx.tobytes() == ref.p_tx.tobytes() and sol.p_lo.tobytes() == ref.p_lo.tobytes()
        assert np.all(sol.p_tx[1::2] == 1.0)

    def test_non_convergence_is_flagged_not_raised(self, grid):
        cfg = SolverConfig(max_iterations=3)
        sol = solve_fixed_point(grid, assign_k(grid, fixed_policy(1)), cfg)
        assert not sol.converged
        assert sol.iterations == 3

    def test_message_count(self, two_node):
        sol = solve_fixed_point(two_node, assign_k(two_node, fixed_policy(1)))
        assert sol.converged
        assert fairness(sol.p_tx).message_count == pytest.approx(8 / 7, abs=1e-9)

    def test_iteration_counts_are_pinned(self, grid):
        random49 = bundled_random_topology()
        counts = {
            name: [solve_fixed_point(topo, assign_k(topo, fixed_policy(k))).iterations for k in range(1, 7)]
            for name, topo in (("grid", grid), ("random49", random49))
        }
        # Newton iterates, the start included; the damped rule took
        # 174/132/112/100/86/71 and 283/152/106/79/60/51 sweeps
        assert counts == {
            "grid": [8, 6, 5, 5, 5, 5],
            "random49": [7, 5, 5, 5, 5, 5],
        }

    def test_triangle_converges_in_few_sweeps(self):
        # On the symmetric triangle at K=1, F(p) = 1/12 + (1 - p)/3 + (7/12)(1 - p)^2
        # has slope -0.979 at its fixed point 0.4465: an undamped sweep barely
        # contracts the error, and Newton's method converges quadratically.
        t = Topology.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        sol = solve_fixed_point(t, assign_k(t, fixed_policy(1)))
        assert sol.converged
        assert sol.iterations <= 10

    def test_solution_parts_at_final_iterate(self, grid):
        ka = assign_k(grid, fixed_policy(3))
        for cfg in (SolverConfig(), SolverConfig(max_iterations=4)):
            sol = solve_fixed_point(grid, ka, cfg)
            assert np.all(sol.p_f == [p_first(grid.degree(i), 3) for i in range(grid.n)])
            assert sol.p_f + sol.p_lo == pytest.approx(scalar_update_map(grid, ka, sol.p_tx), abs=1e-13)

    @pytest.mark.parametrize(
        "topology, k",
        [*(("grid", k) for k in range(1, 6)), *(("random49", k) for k in range(1, 4))],
    )
    def test_fixed_point_is_unique_across_initializations(self, grid, topology, k):
        topo = grid if topology == "grid" else bundled_random_topology()
        ka = assign_k(topo, fixed_policy(k))
        expected = solve_fixed_point(topo, ka).p_tx
        rng = np.random.default_rng(k)
        for start in range(6):
            p, _ = damped_fixed_point(topo, ka, 1e-12, 5000, start=rng.uniform(0.0, 1.0, topo.n))
            assert np.max(np.abs(p - expected)) <= 1e-9, f"start {start}"

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(small_networks(), small_networks())
    def test_random_networks_solve(self, first, second):
        (t1, ka1), (t2, ka2) = first, second
        sols = []
        for topo, ka in (first, second):
            sol = solve_fixed_point(topo, ka)
            assert sol.converged
            assert np.all((sol.p_tx >= 0.0) & (sol.p_tx <= 1.0))
            assert np.all(sol.p_tx[topo.degrees < np.array(ka.k)] == 1.0)
            assert np.max(np.abs(update_map(topo, ka, sol.p_tx) - sol.p_tx)) < SolverConfig().tolerance
            sols.append(sol)
        # the disjoint union decouples into the two systems
        shifted = [(a + t1.n, b + t1.n) for a, b in t2.edges]
        union = Topology.from_edges(t1.n + t2.n, t1.edges + shifted)
        joint = solve_fixed_point(union, KAssignment(ka1.k + ka2.k, {"mode": "drawn"}))
        assert joint.converged
        assert np.max(np.abs(joint.p_tx - np.concatenate([s.p_tx for s in sols]))) <= 1e-9

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_relabeling_permutes_the_solution(self, data):
        # K batches order tied degrees by node id, and so do the plan's gather
        # indices and step views; relabeling the nodes must move the solution
        # with them and change nothing else
        topo, ka = data.draw(small_networks())
        perm = data.draw(st.permutations(range(topo.n)))
        relabeled = Topology.from_edges(topo.n, [(perm[a], perm[b]) for a, b in topo.edges])
        ks = [0] * topo.n
        for i, k in enumerate(ka.k):
            ks[perm[i]] = k
        sol = solve_fixed_point(topo, ka)
        moved = solve_fixed_point(relabeled, KAssignment(tuple(ks), ka.policy))
        assert moved.iterations == sol.iterations
        assert np.max(np.abs(moved.p_tx[list(perm)] - sol.p_tx)) <= 1e-12


class TestNewton:
    @pytest.mark.parametrize(
        "name, policy",
        [
            *(("grid", fixed_policy(k)) for k in range(1, 7)),
            ("grid", heuristic_policy(3, 2)),
            ("grid", heuristic_policy(3, 0)),
            *(("random49", fixed_policy(k)) for k in range(1, 7)),
            ("udg200", fixed_policy(1)),
            ("udg200", heuristic_policy(3, 0)),
            ("udg2000", fixed_policy(1)),
        ],
    )
    def test_matches_the_damped_rule(self, grid, name, policy):
        # the damped rule runs to 1e-13: at the default tolerance its own
        # udg2000 K=1 answer lies 1.7e-9 from the root
        topo = named_topology(name, grid)
        ka = assign_k(topo, policy)
        sol = solve_fixed_point(topo, ka)
        reference, _ = damped_fixed_point(topo, ka, 1e-13)
        assert sol.converged
        assert np.max(np.abs(sol.p_tx - reference)) <= 1e-9

    def test_edge_jacobian_matches_central_differences(self):
        # F is affine in each p_j, so central differences of the scalar oracle
        # are exact up to rounding; the cases must cover isolated nodes, forced
        # nodes that are some free node's neighbor, K = 1, whose one prefix
        # row meets one suffix row, K > 2, whose first steps trim rows and
        # keep fewer than K prefix rows, and two free K batches, which
        # evaluate runs one after the other through the same buffers. jacobian
        # reads the last evaluate, so F runs at another iterate first.
        h = 1e-6
        seen = set()

        @settings(max_examples=50, deadline=None, derandomize=True, database=None)
        @given(small_networks_with_iterate())
        def check(case):
            topo, ka, p = case
            ks = np.array(ka.k)
            forced = topo.degrees < ks
            plan = _SweepPlan(topo, ka)
            plan.evaluate(1.0 - p)
            plan.evaluate(p)
            jac = np.zeros((topo.n, topo.n))
            jac[plan.edge_rows, plan.edge_cols] = plan.jacobian()
            fresh = _SweepPlan(topo, ka)
            fresh.evaluate(p)
            assert np.array_equal(fresh.jacobian(), jac[plan.edge_rows, plan.edge_cols])
            for j in range(topo.n):
                up, down = p.copy(), p.copy()
                up[j] = min(max(p[j], h), 1 - h) + h
                down[j] = up[j] - 2 * h
                column = (scalar_update_map(topo, ka, up) - scalar_update_map(topo, ka, down)) / (2 * h)
                assert np.max(np.abs(jac[:, j] - column)) <= 1e-7, f"column {j}"
            assert np.all(jac[forced] == 0.0) and np.all(np.diag(jac) == 0.0)
            seen.update(("isolated",) if np.any(topo.degrees == 0) else ())
            if any(forced[j] and not forced[i] for i, j in topo.edges + [(b, a) for a, b in topo.edges]):
                seen.add("forced neighbor")
            if np.any(~forced & (ks == 1)):
                seen.add("K = 1")
            if np.any(~forced & (ks > 2)):
                seen.add("trimmed")
            if len(set(ks[~forced].tolist())) >= 2:
                seen.add("two K batches")

        check()
        assert seen == {"isolated", "forced neighbor", "K = 1", "trimmed", "two K batches"}

    @pytest.mark.parametrize("n", [40, 60, 100])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cliques_converge_to_the_symmetric_root(self, n, k):
        # the damped rule diverges on most of these: at the symmetric root the
        # Jacobian has an eigenvalue near or below -3 (-3.03 at n=60, K=2)
        clique = complete_graph(n)
        sol = solve_fixed_point(clique, assign_k(clique, fixed_policy(k)), SolverConfig(tolerance=1e-13))
        assert sol.converged and sol.iterations <= 10
        assert np.max(np.abs(sol.p_tx - clique_root(n, k))) <= 1e-12

    def test_clique_solve_holds_no_per_pair_times(self):
        # each step scales x by a view of its batch's times, so a (step,
        # column) pair costs the gather index and x: the 100-clique's 495,000
        # pairs peak at about 12.2 MiB, and a per-pair copy of t adds 3.8 MiB
        clique = complete_graph(100)
        ka = assign_k(clique, fixed_policy(1))
        tracemalloc.start()
        try:
            solve_fixed_point(clique, ka)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20, peak

    def test_heuristic_solve_keeps_one_batch_of_dp_state(self, grid):
        # evaluate runs each K batch's backward pass right after its forward
        # DP, so x and the prefix serve one batch at a time: this 10-batch
        # solve peaks at about 2.2 MiB, and 4.1 MiB with every batch's prefix
        topo = named_topology("udg200", grid)
        ka = assign_k(topo, heuristic_policy(3, 0))
        tracemalloc.start()
        try:
            solve_fixed_point(topo, ka)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak

    def test_plan_buffers_hold_the_largest_batch(self, grid):
        topo = named_topology("udg200", grid)
        ka = assign_k(topo, heuristic_policy(3, 0))
        cells, prefix = {}, {}  # by K, over the free nodes
        for y, k in zip(topo.degrees.tolist(), ka.k):
            if y >= k:
                cells[k] = cells.get(k, 0) + y * (y // 2 + 1)
                prefix[k] = prefix.get(k, 0) + (y // 2 + 1) * sum(min(k, c + 1) for c in range(y))
        assert len(cells) >= 3
        plan = _SweepPlan(topo, ka)
        assert plan.gather.size == sum(cells.values())
        assert plan.x.size == max(cells.values()) and plan.prefix.size == max(prefix.values())

    def test_plan_larger_than_memory_raises_before_allocating(self, monkeypatch):
        # the 100-clique at K = 1: 495,000 (step, column) pairs, each with
        # its neighbor id, x and one prefix row, and 2 x 2 x 5,000 DP cells
        clique = complete_graph(100)
        ka = assign_k(clique, fixed_policy(1))
        needed = 8 * (3 * 495_000 + 2 * 2 * 5_000)
        monkeypatch.setattr(model, "_physical_memory", lambda: needed)
        assert _SweepPlan(clique, ka).prefix.size == 495_000
        monkeypatch.setattr(model, "_physical_memory", lambda: needed - 1)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match=f"needs {needed} bytes"):
                _SweepPlan(clique, ka)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < needed / 10, peak

    @pytest.mark.parametrize(
        "topology, ks",
        [
            (generate_grid(3, 4, 1.0, 1.5), (9,) * 12),  # the golden sol.json
            (Topology.from_edges(4, []), (1,) * 4),  # isolated nodes
            (Topology.from_edges(3, [(0, 1), (1, 2)]), (2**63, 3, 2**64)),
        ],
    )
    def test_all_forced_returns_at_the_start_without_a_jacobian(self, monkeypatch, topology, ks):
        def refuse(self):
            raise AssertionError("jacobian built")

        monkeypatch.setattr(_SweepPlan, "jacobian", refuse)
        sol = solve_fixed_point(topology, KAssignment(ks, {"mode": "drawn"}))
        assert sol.converged and sol.iterations == 1
        assert sol.defects == (0.0,) and sol.halvings == () and sol.gmres_iterations == ()
        assert np.all(sol.p_tx == 1.0) and np.all(sol.p_lo == 0.0)

    def test_diagnostics_describe_every_step(self, grid):
        clique = complete_graph(60)
        for topo, ka, cfg in (
            (grid, assign_k(grid, fixed_policy(1)), SolverConfig()),
            (clique, assign_k(clique, fixed_policy(2)), SolverConfig()),
            (clique, assign_k(clique, fixed_policy(2)), SolverConfig(max_iterations=3)),
        ):
            sol = solve_fixed_point(topo, ka, cfg)
            assert len(sol.defects) == sol.iterations and sol.residual == sol.defects[-1]
            assert len(sol.halvings) == len(sol.gmres_iterations) == sol.iterations - 1
            assert all(b < a for a, b in zip(sol.defects, sol.defects[1:]))
            assert all(g >= 1 for g in sol.gmres_iterations)
            assert sol.converged == (sol.residual < cfg.tolerance)
        # starting at 0.5, the 60-clique's first full Newton step overshoots
        assert sol.halvings[0] >= 1

    def test_line_search_failure_ends_the_solve(self, grid):
        # no trial step can cut a defect that already sits at the rounding floor
        ka = assign_k(grid, fixed_policy(2))
        floor = solve_fixed_point(grid, ka, SolverConfig(tolerance=1e-300))
        assert not floor.converged and floor.iterations < SolverConfig().max_iterations
        assert len(floor.halvings) == floor.iterations and floor.halvings[-1] == 21


def test_solution_round_trip(tmp_path, grid):
    ka = assign_k(grid, fixed_policy(2))
    sol = solve_fixed_point(grid, ka)
    path = tmp_path / "sol.json"
    save_solution(path, grid, ka, sol)
    doc = json.loads(path.read_text())
    assert doc["converged"] is True
    assert len(doc["per_node"]) == grid.n
    assert doc["per_node"][0]["p_tx"] == sol.p_tx[0]
    assert doc["policy"] == {"mode": "fixed", "k": 2}
    assert doc["solver"] == {
        "defects": list(sol.defects),
        "halvings": list(sol.halvings),
        "gmres_iterations": list(sol.gmres_iterations),
    }


def test_solver_config_validation():
    for tolerance in (0.0, -1e-3, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(tolerance=tolerance)
    for max_iterations in (0, True, 2.5):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=max_iterations)
