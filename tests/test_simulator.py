import itertools
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricklefair import (
    Topology,
    TrickleParams,
    assign_k,
    fixed_policy,
    generate_random_udg,
    heuristic_policy,
    run_steady_state,
)
from tricklefair import simulator
from tricklefair._rng import _BLOCK, substreams
from tricklefair.cli import _table_configs, bundled_random_topology
from tricklefair.simulator import _decider, _simulate_block, run_steady_states, save_result, save_result_csv

from oracles import decision_loop, estimate_probabilities, single_run
from strategies import small_networks


def test_isolated_node_always_transmits():
    t = Topology.from_edges(1, [])
    ka = assign_k(t, fixed_policy(1))
    res = run_steady_state(t, ka, TrickleParams(measured_intervals=10, runs=3, base_seed=2))
    assert np.all(res.counts == 10)
    assert res.mean_p.tolist() == [1.0]
    assert res.ci95.tolist() == [0.0]


def test_degree_below_half_k_never_suppressed(two_node):
    # A neighbor fires at most twice inside one local interval (its own
    # intervals are unsynchronized with ours), so receptions per interval are
    # capped by 2y. With 2y < K the counter can never reach K.
    ka = assign_k(two_node, fixed_policy(3))
    res = run_steady_state(two_node, ka, TrickleParams(measured_intervals=20, runs=4, base_seed=7))
    assert np.all(res.counts == 20)
    assert np.all(res.mean_p == 1.0)


def test_degree_below_k_rarely_suppressed(two_node):
    # y = 1 < K = 2: the analytic model says certain transmission, but the
    # event process occasionally bunches two neighbor firings into one local
    # interval and reaches the threshold. The effect is real but small.
    ka = assign_k(two_node, fixed_policy(2))
    res = run_steady_state(two_node, ka, TrickleParams(measured_intervals=100, runs=10, base_seed=7))
    assert np.all(res.mean_p > 0.95)
    assert np.all(res.counts <= 100)


def test_generous_k_means_everyone_transmits(grid):
    # exact guarantee needs K > 2 * max degree (double receptions, see above)
    ka = assign_k(grid, fixed_policy(2 * int(grid.degrees.max()) + 1))
    res = run_steady_state(grid, ka, TrickleParams(measured_intervals=5, runs=2, base_seed=1))
    assert np.all(res.counts == 5)


def test_at_most_one_transmission_per_interval(grid):
    ka = assign_k(grid, fixed_policy(2))
    params = TrickleParams(measured_intervals=12, runs=3, base_seed=5)
    res = run_steady_state(grid, ka, params)
    assert np.all(res.counts <= params.measured_intervals)
    assert np.all(res.counts >= 0)


def test_determinism_bit_identical(grid):
    ka = assign_k(grid, fixed_policy(1))
    params = TrickleParams(measured_intervals=10, runs=5, base_seed=123)
    a = run_steady_state(grid, ka, params)
    b = run_steady_state(grid, ka, params)
    assert np.array_equal(a.counts, b.counts)
    c = run_steady_state(grid, ka, TrickleParams(measured_intervals=10, runs=5, base_seed=124))
    assert not np.array_equal(a.counts, c.counts)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(small_networks(), st.integers(1, 3), st.integers(1, 5), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_random_networks_count_bounds(case, runs, intervals, warmup, seed):
    topo, ka = case
    params = TrickleParams(measured_intervals=intervals, warmup_intervals=warmup, runs=runs, base_seed=seed)
    res = run_steady_state(topo, ka, params)
    assert res.counts.shape == (runs, topo.n)
    assert np.all((res.counts >= 0) & (res.counts <= intervals))
    # A node hears at most 2y messages per interval (see
    # test_degree_below_half_k_never_suppressed), so 2y < K
    # guarantees a transmission every interval; y < K alone does not.
    forced = 2 * topo.degrees < np.array(ka.k)
    assert np.all(res.counts[:, forced] == intervals)


def drawn(base_seed, runs, n, count, chunks=()):
    """The (n, count) doubles of each run of ``runs``, taken from substreams in ``chunks`` and then the rest."""
    result = []
    for block, draw in substreams(base_seed, runs, n):
        doubles = np.empty((len(block), n, count))
        for start, stop in itertools.pairwise([0, *itertools.accumulate(chunks), count]):
            draw(doubles[:, :, start:stop])
        result += list(doubles)
        assert len(result) == block.stop - runs.start
    return result


def test_substreams_match_default_rng():
    n, count = 300, 14
    # zero words, one full word, word boundaries and multi-word seeds
    for seed in (0, 1, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**70 + 3):
        got = drawn(seed, range(30), n, count)
        assert len(got) == 30
        for run in (0, 1, 29):
            want = [np.random.default_rng((seed, run, i)).random(count) for i in range(n)]
            assert np.array_equal(got[run], want), f"base_seed {seed}, run {run}"
    # one draw per node; a row cap that falls inside the third run (blocks of
    # two runs, the last one short); a run larger than the cap on its own.
    # The last two are also drawn in chunks of 1, 2 and the rest, as time
    # windows take them.
    for n, runs, count in ((49, 45, 1), (_BLOCK // 3 + 17, 5, 3), (_BLOCK + 5, 2, 4)):
        for chunks in ((), (1, 2)) if count >= 3 else ((),):
            got = drawn(5, range(runs), n, count, chunks)
            assert len(got) == runs
            for run in range(runs):
                want = [np.random.default_rng((5, run, i)).random(count) for i in range(n)]
                assert np.array_equal(got[run], want), f"n {n}, run {run}, chunks {chunks}"


@pytest.mark.parametrize("n, count", [(49, 3), (_BLOCK // 3 + 17, 2), (_BLOCK + 5, 1)])
def test_substreams_of_a_run_range_equal_the_rows_from_run_zero(n, count):
    # a worker draws only its own runs; blocks then start at its first run
    whole = drawn(9, range(12), n, count)
    for first, stop in ((0, 1), (3, 4), (2, 9), (5, 12), (11, 12)):
        got = drawn(9, range(first, stop), n, count)
        assert len(got) == stop - first
        for run, rows in zip(range(first, stop), got):
            assert np.array_equal(rows, whole[run]), (first, stop, run)
            for node in (0, n // 2, n - 1):
                assert np.array_equal(rows[node], np.random.default_rng((9, run, node)).random(count))


def windowed(neighbor_lists, ks_list, params, draws):
    """Counts [run][K list] of runs whose draws are ``draws[run]``, one (n, count) table each.

    The tables are handed to ``_simulate_block`` a few columns at a time, as
    its windows ask for them, like one block of ``substreams``.
    """
    taken = 0

    def draw(out):
        nonlocal taken
        count = out.shape[2]
        taken += count
        assert taken <= draws.shape[2]  # a run never reads past its last interval
        out[...] = draws[:, :, taken - count : taken]

    return _simulate_block(neighbor_lists, _decider(neighbor_lists, ks_list, params), params, len(draws), draw)


def test_tied_event_times_break_by_node_then_interval():
    # Nodes that share a row of draws fire at equal times in every interval.
    # The order of ties decides who suppresses whom, so the counts must equal
    # those of the (t, node, interval) tuple sort.
    topo = generate_random_udg(90, 3.0, 1.0, 2)
    params = TrickleParams(measured_intervals=12, warmup_intervals=2, runs=1)
    rows = np.random.default_rng(4).random((3, params.warmup_intervals + params.measured_intervals + 2))
    draws = rows[np.arange(topo.n) % 3]
    ks_list = [[k] * topo.n for k in (1, 2, 3)]
    for events in (1, simulator._WINDOW_EVENTS):  # windows of one interval, and one window
        with mock.patch.object(simulator, "_WINDOW_EVENTS", events):
            [got] = windowed(topo.neighbor_lists, ks_list, params, draws[None])
            for ks, counts in zip(ks_list, got):
                want = decision_loop(topo.neighbor_lists, ks, params, draws[:, 0], 0.5 + 0.5 * draws[:, 1:])
                assert counts == want.tolist()
                # one K list alone reads the same schedule, so no state leaks between lists
                assert windowed(topo.neighbor_lists, [ks], params, draws[None]) == [[counts]]


# The largest draw below 1: its offset 0.5 + 0.5 d rounds to exactly 1.0.
_TOP_DRAW = (2**53 - 1) / 2**53


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    small_networks(),
    st.integers(1, 3),
    st.sampled_from([0.25, 0.5, 1.0]),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
)
def test_offsets_that_round_to_one_match_the_decision_loop(case, rows, top, intervals, warmup, seed):
    # An offset of exactly 1.0 rounds a node's own event onto the start of
    # its next interval; the event moves to the double just below it and
    # stays in its own interval. Nodes that share a row of draws fire at the
    # same times, so a lower id delivers at that moved instant, before the
    # own event, and the reception counts in the own event's interval.
    # K = 1, 2, 3 share one schedule, and each alone reads the same counts.
    topo, _ = case
    params = TrickleParams(measured_intervals=intervals, warmup_intervals=warmup, runs=1)
    rng = np.random.default_rng(seed)
    table = rng.random((rows, warmup + intervals + 2))
    table[:, 1:][rng.random((rows, warmup + intervals + 1)) < top] = _TOP_DRAW
    draws = table[np.arange(topo.n) % rows]
    ks_list = [[k] * topo.n for k in (1, 2, 3)]
    [got] = windowed(topo.neighbor_lists, ks_list, params, draws[None])
    for ks, counts in zip(ks_list, got):
        want = decision_loop(topo.neighbor_lists, ks, params, draws[:, 0], 0.5 + 0.5 * draws[:, 1:])
        assert counts == want.tolist(), ks[0]
        assert windowed(topo.neighbor_lists, [ks], params, draws[None]) == [[counts]], ks[0]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    small_networks(),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.25, 1.0]),
    st.integers(1, 8),
    st.integers(0, 2),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_windows_match_the_whole_run_decision_loop(case, runs, rows, share, intervals, warmup, lists, seed):
    # Time windows of 1 interval, 3 intervals and a whole run (1, 3n and the
    # default events), so a run spans one, two or many windows. Several runs
    # of one substreams block advance through the windows together, and each
    # stops after its own last measured decision. Nodes that share a row of
    # draws fire at equal times. Draws of 0.0, 0.5 and _TOP_DRAW put events
    # on window boundaries (phase 0.5 and offset 0.5 fire at an integer
    # time) and move others to the double below their next interval's start.
    topo, ka = case
    params = TrickleParams(measured_intervals=intervals, warmup_intervals=warmup, runs=runs)
    rng = np.random.default_rng(seed)
    table = rng.random((runs, rows, warmup + intervals + 2))
    edge = rng.random(table.shape) < share
    table[edge] = rng.choice([0.0, 0.5, _TOP_DRAW], size=np.count_nonzero(edge))
    draws = table[:, np.arange(topo.n) % rows]
    ks_list = [list(ka.k), [1] * topo.n, [2] * topo.n][:lists]
    want = [
        [decision_loop(topo.neighbor_lists, ks, params, d[:, 0], 0.5 + 0.5 * d[:, 1:]).tolist() for ks in ks_list]
        for d in draws
    ]
    for events in (1, 3 * topo.n, simulator._WINDOW_EVENTS):
        with mock.patch.object(simulator, "_WINDOW_EVENTS", events):
            assert windowed(topo.neighbor_lists, ks_list, params, draws) == want, events


@st.composite
def lane_cases(draw):
    """(topology, K lists, measured intervals): 2-12 lists whose K per node is 1, y, 2y, 2y + 1 or 2**70.

    A node hears at most 2y receptions per interval, so 2y is the largest K
    that can suppress and 2y + 1 the smallest that never does. A clique of
    up to 20 nodes gives the counters their largest degrees (the star test
    below drives a counter to 2y itself); a pair at up to 300 measured
    intervals makes the count, not the counter, set the field's width.
    """
    kind = draw(st.sampled_from(["network", "clique", "pair"]))
    if kind == "network":
        topo, _ = draw(small_networks())
        intervals = draw(st.integers(1, 6))
    elif kind == "clique":
        n = draw(st.integers(2, 20))
        topo = Topology.from_edges(n, itertools.combinations(range(n), 2))
        intervals = draw(st.integers(1, 4))
    else:
        topo = Topology.from_edges(2, [(0, 1)])
        intervals = draw(st.integers(1, 300))
    rules = [lambda y: 1, lambda y: y, lambda y: 2 * y, lambda y: 2 * y + 1, lambda y: 2**70]
    lists, seed = draw(st.integers(2, 12)), draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(len(rules), size=(lists, topo.n))
    ks_list = [[max(1, rules[rule](len(nb))) for rule, nb in zip(row, topo.neighbor_lists)] for row in picks]
    return topo, ks_list, intervals


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lane_cases(), st.integers(1, 2), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_packed_lanes_match_each_list_alone(case, runs, warmup, seed):
    # Two or more K lists are decided in one pass, one bit field per list in
    # each node's counter and count. Every list must read what the whole-run
    # oracle reads for it alone, and what a one-list call reads, in windows
    # of 1 event, 3n events and the default.
    topo, ks_list, intervals = case
    params = TrickleParams(measured_intervals=intervals, warmup_intervals=warmup, runs=runs)
    draws = np.random.default_rng(seed).random((runs, topo.n, warmup + intervals + 2))
    want = [
        [decision_loop(topo.neighbor_lists, ks, params, d[:, 0], 0.5 + 0.5 * d[:, 1:]).tolist() for ks in ks_list]
        for d in draws
    ]
    for events in (1, 3 * topo.n, simulator._WINDOW_EVENTS):
        with mock.patch.object(simulator, "_WINDOW_EVENTS", events):
            assert windowed(topo.neighbor_lists, ks_list, params, draws) == want, events
    for a, ks in enumerate(ks_list):
        assert windowed(topo.neighbor_lists, [ks], params, draws) == [[counts[a]] for counts in want]


@pytest.mark.parametrize("leaves", [1, 2, 4, 8, 19])
def test_packed_counter_reaches_twice_the_degree(leaves):
    # The hub of a star listens through all of [m, m + 1); each leaf (phase
    # 0.495) fires at m + 0.245 in interval m - 1 and at m + 0.995 in
    # interval m for every odd m, so the hub's counter reaches 2 x degree,
    # the largest value its field must hold. At K = 2 x degree the hub is
    # then suppressed, and at 2 x degree + 1 it is not.
    topo = Topology.from_edges(leaves + 1, [(0, leaf) for leaf in range(1, leaves + 1)])
    params = TrickleParams(measured_intervals=6, warmup_intervals=1, runs=1)
    total = params.warmup_intervals + params.measured_intervals + 1
    draws = np.empty((topo.n, total + 1))
    draws[0] = [0.0] + [_TOP_DRAW] * total
    draws[1:] = [0.495] + [0.5, 0.0] * (total // 2) + [0.5] * (total % 2)
    ks_list = [[k, *[2**70] * leaves] for k in (1, 2 * leaves, 2 * leaves + 1, 2**70)]
    [got] = windowed(topo.neighbor_lists, ks_list, params, draws[None])
    for ks, counts in zip(ks_list, got):
        assert counts == decision_loop(topo.neighbor_lists, ks, params, draws[:, 0], 0.5 + 0.5 * draws[:, 1:]).tolist()
    assert got[1][0] < got[2][0] == params.measured_intervals


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    small_networks(),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(0, 3),
    st.sampled_from([0, 2**32, 2**64 + 1]) | st.integers(0, 2**70),
)
def test_random_networks_match_reference_simulator(case, runs, intervals, warmup, seed):
    topo, ka = case
    params = TrickleParams(measured_intervals=intervals, warmup_intervals=warmup, runs=runs, base_seed=seed)
    res = run_steady_state(topo, ka, params)
    want = [single_run(topo, ka.k, params, r) for r in range(runs)]
    assert np.array_equal(res.counts, want)


@pytest.mark.parametrize("name", ["grid", "random49"])
def test_shared_schedule_counts_equal_separate_runs(name, grid):
    topo = grid if name == "grid" else bundled_random_topology()
    policies = [fixed_policy(k) for k in range(1, 7)] + [heuristic_policy(3, 2), heuristic_policy(3, 0)]
    kas = [assign_k(topo, policy) for policy in policies]
    params = TrickleParams(measured_intervals=6, warmup_intervals=3, runs=8, base_seed=3)
    results = run_steady_states(topo, kas, params)
    assert len(results) == len(kas)
    for ka, res in zip(kas, results):
        alone = run_steady_state(topo, ka, params)
        assert np.array_equal(res.counts, alone.counts), ka.policy
        assert np.array_equal(res.mean_p, alone.mean_p)
        assert np.array_equal(res.ci95, alone.ci95)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("runs", [1, 7, 30])
def test_counts_are_identical_for_any_number_of_workers(runs, grid, monkeypatch):
    # one worker per CPU the process may use, capped at runs; tables 1 and 3
    # of reproduce simulated in one call, with every call forking however
    # few decisions it makes
    monkeypatch.setattr(simulator, "_FORK_EVENTS", 1)
    kas = [assign_k(grid, policy) for _, policy in _table_configs(1) + _table_configs(3)]
    params = TrickleParams(measured_intervals=4, warmup_intervals=2, runs=runs, base_seed=6)
    got = {}
    for workers in (1, 2, 3, runs + 5):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, workers=workers: set(range(workers)))
        got[workers] = run_steady_states(grid, kas, params)
        assert_no_child_left()
    for workers, results in got.items():
        for res, want in zip(results, got[1]):
            assert res.counts.flags.c_contiguous and res.counts.flags.writeable
            assert res.counts.tobytes() == want.counts.tobytes(), workers
            assert res.mean_p.tobytes() == want.mean_p.tobytes(), workers


def test_one_cpu_or_one_run_forks_nothing(grid, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    ka = assign_k(grid, fixed_policy(1))
    # 3 CPUs and 30 runs, but 30 x 49 x (2 + 10 + 1) = 19,110 decisions, too
    # few to pay for a fork: one table of reproduce on the 7x7 grid
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    params = TrickleParams(runs=30)
    assert params.runs * grid.n * (params.warmup_intervals + params.measured_intervals + 1) < simulator._FORK_EVENTS
    assert run_steady_state(grid, ka, params).counts.shape == (30, grid.n)
    # every other call would fork for any number of decisions, so only the
    # CPU count or the run count keeps it in one process
    monkeypatch.setattr(simulator, "_FORK_EVENTS", 1)
    for cpus, runs in (({0}, 3), ({0, 1, 2}, 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert run_steady_state(grid, ka, TrickleParams(runs=runs, measured_intervals=2)).counts.shape == (runs, grid.n)
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
    assert run_steady_state(grid, ka, TrickleParams(runs=3, measured_intervals=2)).counts.shape == (3, grid.n)


def test_no_assignment_gives_no_result(grid, monkeypatch):
    # nothing to decide, so nothing is drawn and nothing forks
    def fail(*args):
        raise AssertionError("simulated")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(simulator, "_FORK_EVENTS", 1)
    monkeypatch.setattr(os, "fork", fail)
    monkeypatch.setattr(simulator, "substreams", fail)
    assert run_steady_states(grid, [], TrickleParams(runs=3, measured_intervals=2)) == []


class SpanFailure(Exception):
    pass


@pytest.mark.parametrize("failing_first", [2, 0])  # a forked child's span, the caller's own span
def test_a_failed_span_raises_its_exception_and_leaves_no_child(failing_first, grid, monkeypatch):
    # runs 0-1 are simulated by the caller, runs 2-3 and 4-5 in forked children
    def draw(base_seed, runs, n):
        if runs.start == failing_first:
            raise SpanFailure(runs)
        return substreams(base_seed, runs, n)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(simulator, "_FORK_EVENTS", 1)
    monkeypatch.setattr(simulator, "substreams", draw)
    with pytest.raises(SpanFailure):
        run_steady_states(grid, [assign_k(grid, fixed_policy(1))], TrickleParams(runs=6, measured_intervals=3))
    assert_no_child_left()


def test_large_network_matches_reference_simulator():
    # about 8,500 events per run from 700 nodes, in time windows of 11
    # intervals and of the rest; two K assignments share each run's
    # schedule (runs split across hash-and-step blocks are covered by
    # test_substreams_match_default_rng)
    topo = generate_random_udg(700, 26.5, 1.6, 3)
    kas = [assign_k(topo, fixed_policy(k)) for k in (1, 2)]
    params = TrickleParams(runs=2, base_seed=11)
    for ka, res in zip(kas, run_steady_states(topo, kas, params)):
        assert np.array_equal(res.counts, [single_run(topo, ka.k, params, r) for r in range(2)])


def traced_peak_of_one_run(topo, ka, params):
    tracemalloc.start()
    try:
        run_steady_state(topo, ka, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_large_run_stays_within_a_few_mib():
    # The decision loop reads memoryviews, so no per-event Python object
    # outlives its event, and a run holds one time window of draws and
    # schedule: about 1.2 MiB at 2000 nodes, where lists of a whole run's
    # events would take the peak past 7 MiB.
    topo = generate_random_udg(2000, 44.7, 1.22, 7)
    peak = traced_peak_of_one_run(topo, assign_k(topo, fixed_policy(2)), TrickleParams(runs=1, measured_intervals=20))
    assert peak < 2 * 2**20, peak


def child_peak_rss_kib(simulate) -> int:
    """The peak RSS in KiB of a forked child that calls ``simulate()`` and leaves."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            simulate()
            code = 0
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    assert status == 0
    return usage.ru_maxrss


def test_memory_of_a_run_does_not_grow_with_its_intervals():
    # 2M events against 40,000, each run in a child forked from the same
    # state: a whole-run schedule and its draws would add about 95 MiB at
    # 1,000 intervals. tracemalloc would slow every event of the loop.
    topo = generate_random_udg(2000, 44.7, 1.22, 7)
    ka = assign_k(topo, fixed_policy(2))
    short, long = (
        child_peak_rss_kib(lambda: run_steady_state(topo, ka, TrickleParams(runs=1, measured_intervals=intervals)))
        for intervals in (20, 1000)
    )
    assert long - short < 4 * 1024, (short, long)


def test_two_node_pair_mean_near_model_value(two_node):
    # The analytic fixed point is 4/7; the event process polarizes the pair
    # (one node locks into suppressing the other for a whole run), which the
    # independence assumption cannot express. The measured pair mean sits
    # near 0.50, i.e. about 0.07 below 4/7.
    ka = assign_k(two_node, fixed_policy(1))
    res = run_steady_state(two_node, ka, TrickleParams(measured_intervals=200, runs=100, base_seed=5))
    pair_mean = float(res.mean_p.mean())
    assert abs(pair_mean - 4 / 7) <= 0.1
    assert abs(pair_mean - 0.5) <= 0.03


def test_two_node_pair_total_within_one_of_intervals(two_node):
    # At K=1 one reception suppresses, so the pair carries exactly one
    # transmission per interval; the two nodes' measured windows are offset
    # by their phases, which moves at most one transmission in or out.
    ka = assign_k(two_node, fixed_policy(1))
    for seed in (1, 2, 3):
        for warmup, measured in ((0, 1), (2, 10), (3, 50), (0, 200)):
            params = TrickleParams(measured_intervals=measured, warmup_intervals=warmup, runs=500, base_seed=seed)
            totals = run_steady_state(two_node, ka, params).counts.sum(axis=1)
            assert np.all(np.abs(totals - measured) <= 1), (seed, warmup, measured)


def test_grid_population_variance_magnitude(grid):
    # same order of magnitude as the published emulation value (~0.025)
    ka = assign_k(grid, fixed_policy(1))
    res = run_steady_state(grid, ka, TrickleParams())
    var = float(np.var(res.mean_p))
    assert 0.01 < var < 0.06


def test_estimates_match_counts(grid):
    ka = assign_k(grid, fixed_policy(3))
    params = TrickleParams(measured_intervals=15, runs=4, base_seed=9)
    res = run_steady_state(grid, ka, params)
    mean, ci = estimate_probabilities(res)
    assert np.allclose(mean, res.counts.mean(axis=0) / 15)
    assert np.allclose(mean, res.mean_p)
    assert np.allclose(ci, res.ci95)


def test_single_run_has_no_ci(two_node):
    ka = assign_k(two_node, fixed_policy(1))
    res = run_steady_state(two_node, ka, TrickleParams(measured_intervals=10, runs=1))
    assert res.ci95 is None
    mean, ci = estimate_probabilities(res)
    assert ci is None
    assert mean.shape == (2,)


def test_identical_runs_give_zero_ci():
    t = Topology.from_edges(1, [])
    ka = assign_k(t, fixed_policy(1))
    res = run_steady_state(t, ka, TrickleParams(measured_intervals=7, runs=6))
    assert res.ci95.tolist() == [0.0]


def test_params_validation(two_node):
    with pytest.raises(ValueError):
        TrickleParams(measured_intervals=0)
    with pytest.raises(ValueError):
        TrickleParams(runs=0)
    with pytest.raises(ValueError):
        TrickleParams(warmup_intervals=-1)
    for seed in (-1, True, 1.5):
        with pytest.raises(ValueError, match="base_seed"):
            TrickleParams(base_seed=seed)
    for name in ("measured_intervals", "warmup_intervals", "runs"):
        for value in (True, 2.5):
            with pytest.raises(ValueError, match=name):
                TrickleParams(**{name: value})
    # the simulator relies on KAssignment to reject a K that is not an integer >= 1
    for k in (0, 1.5):
        with pytest.raises(ValueError, match="redundancy constant"):
            run_steady_state(two_node, assign_k(two_node, fixed_policy(k)), TrickleParams(runs=1))


def test_k_assignment_length_must_match(two_node):
    ka = assign_k(Topology.from_edges(3, [(0, 1)]), fixed_policy(1))
    with pytest.raises(ValueError, match="k_assignment length"):
        run_steady_state(two_node, ka, TrickleParams(runs=1))
    with pytest.raises(ValueError, match="k_assignment length"):
        run_steady_states(two_node, [assign_k(two_node, fixed_policy(1)), ka], TrickleParams(runs=1))


def test_result_round_trip(tmp_path, two_node):
    ka = assign_k(two_node, fixed_policy(1))
    res = run_steady_state(two_node, ka, TrickleParams(measured_intervals=5, runs=3, base_seed=8))
    path = tmp_path / "sim.json"
    save_result(path, res)
    doc = json.loads(path.read_text())
    assert doc["params"]["runs"] == 3
    assert len(doc["per_node"]) == 2
    assert doc["per_node"][0]["counts_per_run"] == res.counts[:, 0].tolist()
    csv_path = tmp_path / "sim.csv"
    save_result_csv(csv_path, res)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "id,mean_p,ci95"
    assert len(lines) == 3
