import math
from collections import defaultdict
from fractions import Fraction
from itertools import compress, permutations, product

import numpy as np
import pytest

from taskdag import harness, processes
from taskdag.analysis import ExtremalKind, extremal_value, is_minimal_xy, retention_probability_bound
from taskdag.errors import CapacityError, ConfigError
from taskdag.graph import OrderedDag, ordered_pairs
from taskdag.harness import run_trials
from taskdag.oracle import exact_process_distribution
from taskdag.processes import (
    _BATCH_MAX_ORDER,
    HaltReason,
    ProcessConfig,
    ProcessKind,
    ProcessOutcome,
    _addition_stack,
    _Batch,
    _fill_or_trim,
    _lockstep_runs,
    _lone_runs,
    _removal_stack,
    _rows_per_run,
    _thresholds,
    combined_process,
    edge_addition_process,
    edge_removal_process,
    random_directed_tree,
    run_process,
)

from .reference import STATE_FIELDS, State, fields, loop_run, record_of, states


def _profile_counts(n, pairs, mask):
    indeg = [0] * (n + 1)
    outdeg = [0] * (n + 1)
    m = mask
    while m:
        bit = m & -m
        a, b = pairs[bit.bit_length() - 1]
        indeg[b] += 1
        outdeg[a] += 1
        m ^= bit
    sources = sum(1 for v in range(1, n + 1) if indeg[v] == 0)
    sinks = sum(1 for v in range(1, n + 1) if outdeg[v] == 0)
    return sources, sinks, indeg, outdeg


def jump_chain_distribution(kind, x, y, n):
    """Exact halt-state law of the rejection dynamics: each accepted move is
    uniform over the currently legal moves, and cancelled proposals leave the
    state unchanged.  Computed by exact probability flow over all states."""
    pairs = ordered_pairs(n)
    n_pairs = len(pairs)
    removal = kind is ProcessKind.REMOVAL
    start = (1 << n_pairs) - 1 if removal else 0
    levels = defaultdict(dict)
    levels[bin(start).count("1")][start] = Fraction(1)
    final = {}
    sweep = range(n_pairs, -1, -1) if removal else range(0, n_pairs + 1)
    for pc in sweep:
        for mask, prob in levels[pc].items():
            sources, sinks, indeg, outdeg = _profile_counts(n, pairs, mask)
            if not removal and (sources, sinks) == (x, y):
                key = (sources, sinks, pc)
                final[key] = final.get(key, Fraction(0)) + prob
                continue
            children = []
            for i in range(n_pairs):
                bit = 1 << i
                a, b = pairs[i]
                if removal:
                    if not mask & bit:
                        continue
                    if (indeg[b] == 1 and sources >= x) or (outdeg[a] == 1 and sinks >= y):
                        continue
                    children.append(mask ^ bit)
                else:
                    if mask & bit:
                        continue
                    if (indeg[b] == 0 and sources <= x) or (outdeg[a] == 0 and sinks <= y):
                        continue
                    children.append(mask | bit)
            if not children:
                key = (sources, sinks, pc)
                final[key] = final.get(key, Fraction(0)) + prob
                continue
            share = prob / len(children)
            nxt = pc - 1 if removal else pc + 1
            for child in children:
                levels[nxt][child] = levels[nxt].get(child, Fraction(0)) + share
    return final


def permutation_enumeration_distribution(kind, x, y, n):
    """Exact halt-state law of the permutation-order process: one reference
    loop pass over every one of the binom(n, 2)! edge orders."""
    complete = kind is ProcessKind.REMOVAL
    run = State.removal_pass if complete else State.addition_pass
    tally = defaultdict(int)
    for order in permutations(range(len(ordered_pairs(n)))):
        state = State(n, complete)
        run(state, order, x, y)
        tally[(state.sources, state.sinks, state.edge_total)] += 1
    total = sum(tally.values())
    return {key: Fraction(count, total) for key, count in tally.items()}


class TestConfigValidation:
    def test_kind_mismatch(self):
        cfg = ProcessConfig(1, 1, 4, ProcessKind.ADDITION, seed=0)
        with pytest.raises(ConfigError, match="expected 'removal'"):
            edge_removal_process(cfg)

    def test_m_only_for_combined(self):
        cfg = ProcessConfig(1, 1, 4, ProcessKind.REMOVAL, seed=0, m=3)
        with pytest.raises(ConfigError, match="only meaningful"):
            edge_removal_process(cfg)

    def test_tree_rejects_m(self):
        cfg = ProcessConfig(1, 1, 8, ProcessKind.RANDOM_TREE, seed=1, m=3)
        with pytest.raises(ConfigError, match="only meaningful"):
            run_process(cfg)

    def test_combined_requires_m(self):
        cfg = ProcessConfig(1, 1, 6, ProcessKind.COMBINED, seed=0)
        with pytest.raises(ConfigError, match="requires a target edge count"):
            combined_process(cfg)

    def test_combined_m_below_floor(self):
        cfg = ProcessConfig(1, 1, 6, ProcessKind.COMBINED, seed=0, m=7)
        with pytest.raises(ConfigError, match=r"m must lie in \[8, 15\]"):
            combined_process(cfg)

    def test_combined_m_above_ceiling(self):
        cfg = ProcessConfig(1, 1, 6, ProcessKind.COMBINED, seed=0, m=16)
        with pytest.raises(ConfigError):
            combined_process(cfg)

    def test_order_too_small(self):
        cfg = ProcessConfig(3, 1, 2, ProcessKind.REMOVAL, seed=0)
        with pytest.raises(ConfigError, match="n >= max"):
            edge_removal_process(cfg)

    def test_bad_seed(self):
        cfg = ProcessConfig(1, 1, 4, ProcessKind.REMOVAL, seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            edge_removal_process(cfg)

    def test_combined_m_range_when_profiles_overlap(self):
        # x + y > n: the ceiling subtracts the k = x + y - n forced isolated vertices
        cfg = ProcessConfig(3, 3, 5, ProcessKind.COMBINED, seed=0, m=5)
        with pytest.raises(ConfigError, match=r"m must lie in \[2, 4\]"):
            combined_process(cfg)

    @pytest.mark.parametrize("field", ["x", "y", "n", "m", "seed"])
    def test_bool_fields_rejected(self, field):
        values = {"x": 1, "y": 1, "n": 6, "kind": ProcessKind.COMBINED, "seed": 1, "m": 8}
        values[field] = True
        with pytest.raises(ConfigError):
            combined_process(ProcessConfig(**values))

    def test_bool_tree_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            run_process(ProcessConfig(1, 1, 5, ProcessKind.RANDOM_TREE, seed=True))


class TestRemovalProcess:
    def test_1_1_3_always_the_path(self):
        for seed in range(25):
            out = edge_removal_process(ProcessConfig(1, 1, 3, ProcessKind.REMOVAL, seed))
            assert out.graph.edges() == [(1, 2), (2, 3)]
            assert out.is_target_xy
            assert out.halt_reason is HaltReason.NO_MOVE_AVAILABLE
            assert out.rounds == 1

    def test_2_1_3_hits_target_half_the_time(self):
        dist = exact_process_distribution(ProcessKind.REMOVAL, 2, 1, 3)
        hit = sum(p for (r, s, m), p in dist.outcomes.items() if (r, s) == (2, 1))
        assert hit == Fraction(1, 2)

    @pytest.mark.parametrize("x", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_x_x_always_exact(self, x, n):
        if n < x:
            pytest.skip("n below max(x, y)")
        for seed in range(40):
            out = edge_removal_process(ProcessConfig(x, x, n, ProcessKind.REMOVAL, seed))
            assert out.is_target_xy

    def test_result_is_minimal_and_capped(self):
        for seed in range(40):
            out = edge_removal_process(ProcessConfig(2, 3, 7, ProcessKind.REMOVAL, seed))
            assert is_minimal_xy(out.graph)
            r, s = out.graph.profile().counts
            assert r <= 2 and s <= 3

    def test_final_edges_within_proven_bounds(self):
        for x, y, n in [(1, 1, 8), (1, 2, 7), (2, 2, 9), (3, 2, 10)]:
            lo = n - min(x, y)
            hi = 2 * n - x - y - 2
            for seed in range(30):
                out = edge_removal_process(ProcessConfig(x, y, n, ProcessKind.REMOVAL, seed))
                assert lo <= out.graph.edge_count <= hi

    def test_counts_monotone_and_capped(self):
        events = []
        cfg = ProcessConfig(2, 3, 7, ProcessKind.REMOVAL, 11)
        edge_removal_process(cfg, trace=lambda *ev: events.append(ev))
        sources = [ev[4] for ev in events]
        sinks = [ev[5] for ev in events]
        assert sources == sorted(sources) and max(sources) <= 2
        assert sinks == sorted(sinks) and max(sinks) <= 3


class TestAdditionProcess:
    def test_1_1_3_expected_edges(self):
        dist = exact_process_distribution(ProcessKind.ADDITION, 1, 1, 3)
        assert dist.expected_edges == Fraction(8, 3)
        assert all((r, s) == (1, 1) for r, s, _ in dist.outcomes)

    @pytest.mark.parametrize("x", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_x_x_always_exact(self, x, n):
        if n < x:
            pytest.skip("n below max(x, y)")
        for seed in range(40):
            out = edge_addition_process(ProcessConfig(x, x, n, ProcessKind.ADDITION, seed))
            assert out.is_target_xy

    def test_degenerate_start_halts_immediately(self):
        out = edge_addition_process(ProcessConfig(4, 4, 4, ProcessKind.ADDITION, 0))
        assert out.rounds == 0
        assert out.halt_reason is HaltReason.EXACT_TARGET_REACHED
        assert out.graph.edge_count == 0

    def test_target_halt_reason(self):
        out = edge_addition_process(ProcessConfig(1, 1, 6, ProcessKind.ADDITION, 5))
        assert out.halt_reason is HaltReason.EXACT_TARGET_REACHED
        assert out.is_target_xy

    def test_edge_count_upper_bound(self):
        for x, y, n in [(1, 1, 7), (2, 1, 7), (1, 3, 8), (2, 2, 8)]:
            cap = extremal_value(ExtremalKind.MAX_ADDITION_RESULT_EDGES, x, y, n)
            for seed in range(30):
                out = edge_addition_process(ProcessConfig(x, y, n, ProcessKind.ADDITION, seed))
                if out.is_target_xy:
                    assert out.graph.edge_count <= cap

    def test_counts_monotone_and_floored(self):
        events = []
        cfg = ProcessConfig(2, 3, 7, ProcessKind.ADDITION, 11)
        edge_addition_process(cfg, trace=lambda *ev: events.append(ev))
        sources = [ev[4] for ev in events]
        sinks = [ev[5] for ev in events]
        assert sources == sorted(sources, reverse=True) and min(sources) >= 2
        assert sinks == sorted(sinks, reverse=True) and min(sinks) >= 3


class TestSemanticsEquivalence:
    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION])
    @pytest.mark.parametrize("x,y", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("n", [3, 4])
    def test_permutation_enumeration_equals_jump_chain(self, kind, x, y, n):
        if n < max(x, y):
            pytest.skip("n below max(x, y)")
        assert permutation_enumeration_distribution(kind, x, y, n) == jump_chain_distribution(
            kind, x, y, n
        )

    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION])
    @pytest.mark.parametrize("x,y", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_flow_equals_jump_chain(self, kind, x, y, n):
        if n < max(x, y):
            pytest.skip("n below max(x, y)")
        assert exact_process_distribution(kind, x, y, n).outcomes == jump_chain_distribution(
            kind, x, y, n
        )

    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION])
    def test_monte_carlo_matches_exact_law(self, kind):
        x, y, n, trials = 2, 1, 4, 20_000
        exact = exact_process_distribution(kind, x, y, n).outcomes
        runner = edge_removal_process if kind is ProcessKind.REMOVAL else edge_addition_process
        seen = defaultdict(int)
        for seed in range(trials):
            out = runner(ProcessConfig(x, y, n, kind, seed))
            prof = out.graph.profile().counts
            seen[(prof[0], prof[1], out.graph.edge_count)] += 1
        assert set(seen) <= set(exact)
        for key, p in exact.items():
            sigma = math.sqrt(float(p) * (1 - float(p)) / trials)
            assert abs(seen[key] / trials - float(p)) <= 4 * sigma + 1e-12


class TestCancelRule:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_thresholds_equal_one_edge_passes(self, n):
        # the rule the kernel, the fill and the exact flow read, against the
        # reference loop's one-edge pass from every graph: a candidate moves
        # exactly when it can (present for a removal, absent for an addition)
        # and both its ends are free, and an addition never moves at the
        # exact (x, y) profile, where the process halts
        pairs = ordered_pairs(n)
        for mask in range(1 << len(pairs)):
            start = State(n, False)
            for i, (a, b) in enumerate(pairs):
                if mask >> i & 1:
                    start.present[i], start.edge_total = 1, start.edge_total + 1
                    start.indeg[b] += 1
                    start.outdeg[a] += 1
            start.sources, start.sinks = start.indeg.count(0) - 1, start.outdeg.count(0) - 1
            for (x, y), removal in product(product(range(1, n + 1), repeat=2), (True, False)):
                counts = np.array([start.sources, start.sinks])
                above_in, above_out = _thresholds(counts, np.array([x, y]), removal).tolist()
                halted = not removal and (start.sources, start.sinks) == (x, y)
                for i, (a, b) in enumerate(pairs):
                    state = start.copy()
                    (state.removal_pass if removal else state.addition_pass)((i,), x, y)
                    free = start.indeg[b] > above_in and start.outdeg[a] > above_out
                    expected = (mask >> i & 1) == removal and free and not halted
                    assert (state.present != start.present) == expected, (mask, x, y, removal, i)


class TestDeterminism:
    @pytest.mark.parametrize(
        "cfg",
        [
            ProcessConfig(1, 2, 9, ProcessKind.REMOVAL, 424242),
            ProcessConfig(2, 1, 9, ProcessKind.ADDITION, 424242),
            ProcessConfig(1, 1, 8, ProcessKind.COMBINED, 99, m=14),
        ],
    )
    def test_identical_config_identical_outcome(self, cfg):
        a = run_process(cfg)
        b = run_process(cfg)
        assert a.graph.to_json() == b.graph.to_json()
        assert (a.rounds, a.halt_reason, a.is_target_xy) == (
            b.rounds,
            b.halt_reason,
            b.is_target_xy,
        )

    def test_different_seeds_differ_somewhere(self):
        outs = {
            run_process(ProcessConfig(1, 1, 9, ProcessKind.REMOVAL, seed)).graph.to_json()
            for seed in range(20)
        }
        assert len(outs) > 1


class TestOutcomeInvariants:
    @pytest.mark.parametrize(
        "kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION, ProcessKind.RANDOM_TREE]
    )
    def test_rounds_capped_and_target_consistent(self, kind):
        from math import comb

        for x, y, n, seed in product((1, 2), (1, 3), (4, 7), range(6)):
            if n < max(x, y):
                continue
            out = run_process(ProcessConfig(x, y, n, kind, seed))
            assert out.rounds <= comb(n, 2)
            if out.halt_reason is HaltReason.EXACT_TARGET_REACHED:
                assert out.is_target_xy

    @pytest.mark.parametrize(
        "cfg",
        [
            ProcessConfig(2, 3, 8, ProcessKind.REMOVAL, 0),
            ProcessConfig(2, 1, 8, ProcessKind.ADDITION, 0),
            ProcessConfig(1, 1, 8, ProcessKind.COMBINED, 0, m=20),
            ProcessConfig(1, 1, 8, ProcessKind.COMBINED, 0, m=12),
            ProcessConfig(1, 1, 8, ProcessKind.RANDOM_TREE, 0),
        ],
    )
    def test_outcome_degrees_match_rebuilt_graph(self, cfg):
        for seed in range(10):
            g = run_process(ProcessConfig(cfg.x, cfg.y, cfg.n, cfg.kind, seed, m=cfg.m)).graph
            ref = OrderedDag.from_edges(g.n, g.edges())
            vertices = range(1, g.n + 1)
            assert [g.in_degree(v) for v in vertices] == [ref.in_degree(v) for v in vertices]
            assert [g.out_degree(v) for v in vertices] == [ref.out_degree(v) for v in vertices]


class TestCombinedProcess:
    def test_exact_budget_and_profile(self):
        for seed in range(50):
            out = combined_process(ProcessConfig(1, 1, 6, ProcessKind.COMBINED, seed, m=8))
            assert out.graph.edge_count == 8
            assert out.is_target_xy
            assert out.halt_reason is HaltReason.EDGE_BUDGET_REACHED

    def test_x_equal_y_case(self):
        for seed in range(200):
            out = combined_process(ProcessConfig(2, 2, 10, ProcessKind.COMBINED, seed, m=20))
            assert out.is_target_xy

    def test_low_budget_uses_removal_phase(self):
        # m at the floor forces the trim phase for most seeds
        for seed in range(20):
            out = combined_process(ProcessConfig(1, 1, 7, ProcessKind.COMBINED, seed, m=10))
            assert out.graph.edge_count == 10
            assert out.graph.profile().counts == (1, 1)

    def test_high_budget_uses_fill_phase(self):
        for seed in range(20):
            out = combined_process(ProcessConfig(1, 1, 7, ProcessKind.COMBINED, seed, m=19))
            assert out.graph.edge_count == 19
            assert out.graph.profile().counts == (1, 1)

    def test_miss_reported_honestly(self):
        # x != y additions can stall off-target; when they do the outcome says so
        misses = [
            out
            for seed in range(300)
            for out in [combined_process(ProcessConfig(4, 1, 7, ProcessKind.COMBINED, seed, m=9))]
            if not out.is_target_xy
        ]
        for out in misses:
            assert out.halt_reason is HaltReason.NO_MOVE_AVAILABLE
        assert misses, "expected at least one miss at this size"

    def test_fill_short_of_m_on_target_is_no_move(self):
        # (2, 2) hits its profile, but neutral additions can run out before m:
        # the run then ends short, on target, with no move left
        outs = [
            combined_process(ProcessConfig(2, 2, 6, ProcessKind.COMBINED, seed, m=13))
            for seed in range(300)
        ]
        short = [out for out in outs if out.graph.edge_count != 13]
        assert len(short) == 212
        assert {out.graph.edge_count for out in short} == {8, 9, 10, 11, 12}
        for out in short:
            assert out.is_target_xy and out.halt_reason is HaltReason.NO_MOVE_AVAILABLE
        for out in outs:
            at_budget = out.halt_reason is HaltReason.EDGE_BUDGET_REACHED
            assert at_budget == (out.graph.edge_count == 13)


class TestRandomTree:
    def test_smallest(self):
        assert random_directed_tree(1, 0).edge_count == 0

    def test_two_vertices_forced(self):
        assert random_directed_tree(2, 0).edges() == [(1, 2)]

    @pytest.mark.parametrize("n,seed", list(product([2, 5, 16], [0, 1, 7])))
    def test_tree_shape(self, n, seed):
        g = random_directed_tree(n, seed)
        assert g.edge_count == n - 1
        assert g.is_underlying_forest()
        assert len(g.underlying_components()) == 1
        assert g.profile().initial == {1}

    def test_harmonic_mean_path_length(self):
        # mean 1 -> k distance over many trees tracks H_{k-1}
        n, trials = 8, 4000
        totals = [0] * (n + 1)
        for seed in range(trials):
            g = random_directed_tree(n, seed)
            parent = {b: a for a, b in g.edges()}
            for k in range(2, n + 1):
                depth, v = 0, k
                while v != 1:
                    v = parent[v]
                    depth += 1
                totals[k] += depth
        for k in range(2, n + 1):
            expected = float(sum(Fraction(1, i) for i in range(1, k)))
            assert abs(totals[k] / trials - expected) < 0.12

    def test_run_process_dispatch(self):
        out = run_process(ProcessConfig(1, 2, 5, ProcessKind.RANDOM_TREE, 3))
        assert isinstance(out, ProcessOutcome)
        assert out.rounds == 4

    def test_run_process_outcome_reads_its_tree(self):
        # one source, vertex 1; the target is hit where the tree has y sinks
        hits = set()
        for n, y, seed in product((1, 2, 5, 16), (1, 2, 4), range(8)):
            out = run_process(ProcessConfig(1, y, n, ProcessKind.RANDOM_TREE, seed))
            assert (out.rounds, out.halt_reason) == (n - 1, HaltReason.NO_MOVE_AVAILABLE)
            assert out.is_target_xy == out.graph.profile().matches(1, y)
            hits.add(out.is_target_xy)
        assert hits == {True, False}


class TestRetentionBoundMonteCarlo:
    def test_survival_frequencies_below_bound(self):
        n, trials = 6, 20_000
        pairs = ordered_pairs(n)
        survivals = [0] * len(pairs)
        for seed in range(trials):
            out = edge_removal_process(ProcessConfig(1, 1, n, ProcessKind.REMOVAL, seed))
            for i, pair in enumerate(pairs):
                if out.graph.has_edge(*pair):
                    survivals[i] += 1
        for i, (r, s) in enumerate(pairs):
            bound = float(retention_probability_bound(r, s, n))
            sigma = math.sqrt(bound * (1 - bound) / trials)
            assert survivals[i] / trials <= bound + 3 * sigma + 1e-12


def _lone_equals_loops(cfg, orders):
    """Run the trials of ``orders`` as one ``_lone_runs`` stack, and each one
    alone, traced, as a one-row stack and by the loops; require equal fields
    and trace events, and return the loops' final states."""
    per_trial, loops = _rows_per_run(cfg.kind), []
    for t, state in enumerate(states(_lone_runs(cfg, orders))):
        rows, events, expected = orders[t * per_trial : (t + 1) * per_trial], [], []
        (lone,) = states(_lone_runs(cfg, rows, lambda *event: events.append(event)))
        loop = loop_run(cfg, rows, lambda *event: expected.append(event))
        loop.trace = None
        assert fields(state) == fields(lone) == fields(loop), t
        assert events == expected, t
        loops.append(loop)
    return loops


def _batch_phases(cfg, rows):
    """Run ``_lockstep_runs`` and ``_lone_runs`` on the same ``rows``; require
    equal fields for every trial and return how the combined trials' second
    phases went."""
    per_trial = _rows_per_run(cfg.kind)
    batch = _lockstep_runs(cfg, rows)
    lone = _lone_runs(cfg, rows)
    assert batch.present.shape == lone.present.shape == (len(rows) // per_trial, math.comb(cfg.n, 2))
    for name in STATE_FIELDS:
        assert np.array_equal(getattr(batch, name), getattr(lone, name)), name
    if cfg.m is None:
        return set()
    first = _addition_stack(cfg.n, rows[::2], cfg.x, cfg.y)  # each trial after its addition phase
    hit = (first.sources == cfg.x) & (first.sinks == cfg.y)
    went = {"miss": ~hit, "fill": hit & (first.edge_total < cfg.m), "trim": hit & (first.edge_total > cfg.m)}
    return {phase for phase, trials in went.items() if trials.any()}


def _rows(count, width, seed):
    rng = np.random.default_rng(seed)
    return rng.permuted(np.broadcast_to(np.arange(width), (count, width)), axis=1)


class TestBatchKernel:
    """The lockstep kernel against the lone runs (``_lone_runs``) on the same
    rows, which ``TestLastEdgeRemoval``, ``TestPhaseAddition`` and
    ``TestStackedPasses`` check against the reference loops."""

    @pytest.mark.parametrize("trials", [1, 2, 7, 512])
    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION])
    @pytest.mark.parametrize("x,y", list(product(range(1, 5), repeat=2)))
    def test_single_pass_rows_equal_state_passes(self, x, y, kind, trials):
        # n = 1 has no candidate edges
        for n in sorted({max(x, y), 1, 2, 14}):
            if n >= max(x, y):
                cfg = ProcessConfig(x, y, n, kind, seed=0)
                _batch_phases(cfg, _rows(trials, math.comb(n, 2), seed=100 * x + 10 * y + n))

    @pytest.mark.parametrize("trials", [1, 2, 7, 512])
    @pytest.mark.parametrize(
        "x,y,m,phases",
        [
            (1, 1, 20, {"trim"}),
            (1, 1, 30, {"fill", "trim"}),
            (2, 2, 25, {"fill", "trim"}),
            (1, 3, 30, {"miss", "fill", "trim"}),
            (3, 1, 45, {"miss", "fill", "trim"}),
            (1, 4, 17, {"miss", "fill", "trim"}),
        ],
    )
    def test_combined_rows_equal_state_passes(self, x, y, m, phases, trials):
        # the second phase fills to m, trims to m, or never runs (x != y misses)
        cfg = ProcessConfig(x, y, 12, ProcessKind.COMBINED, seed=0, m=m)
        cfg.validate()
        seen = _batch_phases(cfg, _rows(2 * trials, math.comb(12, 2), seed=m))
        assert seen <= phases
        if trials == 512:
            assert seen == phases

    @pytest.mark.parametrize(
        "cfg",
        [
            ProcessConfig(1, 1, 45, ProcessKind.REMOVAL, seed=0),
            ProcessConfig(3, 2, 45, ProcessKind.REMOVAL, seed=0),
            ProcessConfig(1, 1, 45, ProcessKind.ADDITION, seed=0),
            ProcessConfig(3, 2, 45, ProcessKind.ADDITION, seed=0),
            ProcessConfig(1, 2, 32, ProcessKind.COMBINED, seed=0, m=325),
        ],
        ids=lambda cfg: f"{cfg.kind.value}-{cfg.x}-{cfg.y}-{cfg.n}",
    )
    def test_largest_orders_the_kernel_takes(self, cfg):
        # the harness's draw cap holds _KERNEL_MIN trials' draws at this n but
        # not at n + 1; a sub-batch there holds as many trials as fit the cap
        per_trial = 2 if cfg.kind is ProcessKind.COMBINED else 1
        draws, low = per_trial * math.comb(cfg.n, 2), harness._KERNEL_MIN
        assert draws * low <= harness._DRAW_CAP < per_trial * math.comb(cfg.n + 1, 2) * low
        rows = _rows(harness._DRAW_CAP // draws * per_trial, math.comb(cfg.n, 2), seed=cfg.n + cfg.x)
        phases = _batch_phases(cfg, rows)
        if cfg.kind is ProcessKind.COMBINED:
            assert phases >= {"fill", "trim"}

    @pytest.mark.parametrize(
        "cfg,trials,seed",
        [
            (ProcessConfig(1, 1, 12, ProcessKind.COMBINED, seed=0, m=30), 2, 11),
            (ProcessConfig(2, 2, 32, ProcessKind.COMBINED, seed=0, m=226), 40, 3),
        ],
    )
    def test_fill_and_trim_run_on_their_own_rows(self, cfg, trials, seed, monkeypatch):
        # the budgeted passes take the compacted sub-batch of their rows, each
        # a strict subset of the batch, and still give every row its own run
        sizes = []
        real = _Batch._sub_batch

        def spy(self, orders, live, start):
            sizes.append((int(live.sum()), len(live)))
            return real(self, orders, live, start)

        monkeypatch.setattr(_Batch, "_sub_batch", spy)
        assert _batch_phases(cfg, _rows(2 * trials, math.comb(cfg.n, 2), seed=seed)) == {"fill", "trim"}
        first, fill, trim = sizes
        assert first == (trials, trials)
        assert 0 < fill[0] < trials and 0 < trim[0] < trials and fill[0] + trim[0] <= trials

    @pytest.mark.parametrize("removal", [True, False], ids=["removal", "addition"])
    @pytest.mark.parametrize("x,y", [(1, 1), (2, 1), (2, 3), (1, 4), (4, 1), (4, 4)])
    def test_halted_rows_equal_loop_returns(self, x, y, removal):
        # without a budget no removal halts, and an addition halts where it
        # reaches the exact (x, y) profile: row by row what the loops return
        n, trials = 9, 64
        rows = _rows(trials, math.comb(n, 2), seed=10 * x + y)
        batch = _Batch(n, removal, trials)
        halted = batch.run_pass(rows, x, y, removal)
        loops = [State(n, removal) for _ in rows]
        runs = [loop.removal_pass if removal else loop.addition_pass for loop in loops]
        assert halted.tolist() == [run(order.tolist(), x, y) for run, order in zip(runs, rows)]
        assert [fields(row) for row in states(batch)] == [fields(loop) for loop in loops]
        if x != y and 4 in (x, y):  # some additions miss, each with one count at its cap
            assert len(set(halted.tolist())) == 2 - removal

    @pytest.mark.parametrize("x,y,n,m", [(1, 3, 12, 30), (2, 2, 12, 25), (1, 2, 6, 12)])
    def test_budgeted_halts_equal_loop_returns(self, x, y, n, m):
        # on the rows that hit (x, y), a fill halts where it reaches m edges
        # (not always: neutral additions may run out) and a trim always does,
        # row by row as the loops with budget m return
        trials = 256
        rows = _rows(2 * trials, math.comb(n, 2), seed=m)
        batch = _Batch(n, False, trials)
        hit = batch.run_pass(rows[::2], x, y, False)
        loops = list(states(batch))
        returned = {}
        for removal, active in ((False, hit & (batch.edge_total < m)), (True, hit & (batch.edge_total > m))):
            assert active.any()
            halted = batch.run_pass(rows[1::2], x, y, removal, budget=m, active=active)
            for i in np.flatnonzero(active).tolist():
                loop, order = loops[i], rows[2 * i + 1].tolist()
                expected = (loop.removal_pass if removal else loop.addition_pass)(order, x, y, m)
                assert halted[i] == expected, (removal, i)
                returned.setdefault(removal, set()).add(expected)
        assert [fields(row) for row in states(batch)] == [fields(loop) for loop in loops]
        assert returned[True] == {True}
        assert returned[False] == ({False, True} if n == 6 else {True})

    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION])
    def test_largest_order_int8_holds(self, kind):
        # degrees up to n - 1 = 126 and counts up to n = 127 fit the int8 arrays
        cfg = ProcessConfig(1, 1, _BATCH_MAX_ORDER, kind, seed=0)
        _batch_phases(cfg, _rows(2, math.comb(cfg.n, 2), seed=127))

    def test_order_above_int8_is_refused(self):
        assert _BATCH_MAX_ORDER == np.iinfo(np.int8).max
        with pytest.raises(CapacityError, match=rf"^n must lie in \[1, {_BATCH_MAX_ORDER}\], got 128$"):
            _Batch(_BATCH_MAX_ORDER + 1, True, 1)

    @pytest.mark.parametrize("complete", [True, False])
    def test_pass_with_no_active_row_moves_nothing(self, complete, monkeypatch):
        # a pass with no active row returns before building its step indices
        def no_steps(self, steps, rows):
            raise AssertionError("_step_index was called")

        monkeypatch.setattr(_Batch, "_step_index", no_steps)
        n, trials = 6, 5
        batch = _Batch(n, complete, trials)
        before = [getattr(batch, name).copy() for name in STATE_FIELDS]
        rows, idle = _rows(trials, math.comb(n, 2), seed=1), np.zeros(trials, bool)
        for removal in (True, False):
            batch.run_pass(rows, 1, 1, removal, active=idle)
            batch.run_pass(rows, 1, 1, removal, budget=9, active=idle)
        for name, old in zip(STATE_FIELDS, before):
            assert np.array_equal(getattr(batch, name), old), name


INTEGER_DTYPES = (np.int16, np.int32, np.int64, np.uint16)


def _second_phase(state, order, x, y, m):
    """Run the loop with budget m on a copy of ``state``, an exact (x, y)
    profile off m edges, and ``_fill_or_trim`` on a one-row record of it, on
    the same order; require equal fields, and the candidates the fill or
    trim reports to be the loop's moves, and return the loop's final state."""
    events = []
    loop = state.copy()
    loop.trace = lambda *event: events.append(event)
    (loop.addition_pass if state.edge_total < m else loop.removal_pass)(order.tolist(), x, y, m)
    record = record_of(state.n, [state])
    moved = _fill_or_trim(record, 0, order, x, y, m)
    (row,) = states(record)
    loop.trace = None
    assert fields(row) == fields(loop)
    assert [ordered_pairs(state.n)[i] for i in moved.tolist()] == [(a, b) for _, _, a, b, _, _ in events]
    return loop


def _scanned_last_edges(state, order):
    """Candidate indices of each vertex's last present in- and out-edge in
    ``order``, by a plain scan."""
    last_in, last_out = {}, {}
    for idx in order.tolist():
        if state.present[idx]:
            a, b = ordered_pairs(state.n)[idx]
            last_in[b] = last_out[a] = idx
    return set(last_in.values()) | set(last_out.values())


def _trim_start(n, x, y, seed):
    """A state where the (x, y) addition pass halted on (x, y)."""
    rng = np.random.default_rng(seed)
    while True:
        state = State(n, False)
        if state.addition_pass(rng.permutation(math.comb(n, 2)).tolist(), x, y):
            return state


class TestLastEdgeRemoval:
    """The last-edge lemma's removal runs (``_lone_runs``) and trims
    (``_fill_or_trim``) against the ``removal_pass`` loop."""

    @pytest.mark.parametrize("n,orders", [(22, 12), (40, 6), (100, 2)])
    @pytest.mark.parametrize("x,y", list(product(range(1, 5), repeat=2)))
    def test_complete_start_equals_loop(self, x, y, n, orders):
        rows = _rows(orders, math.comb(n, 2), seed=1000 * n + 10 * x + y)
        for loop in _lone_equals_loops(ProcessConfig(x, y, n, ProcessKind.REMOVAL, seed=0), rows):
            assert loop.rounds == math.comb(n, 2) - loop.edge_total

    @pytest.mark.parametrize("x,y", [(1, 1), (2, 2), (1, 3)])
    @pytest.mark.parametrize("n", [25, 40])
    def test_budgeted_trim_equals_loop(self, n, x, y):
        # the budget runs out once on a decided edge, and once on an undecided
        # edge whose next visit is decided, where the cut must stop short of it
        state = _trim_start(n, x, y, seed=n + x + y)
        order = _rows(1, math.comb(n, 2), seed=n)[0]
        events = []
        traced = state.copy()
        traced.trace = lambda *event: events.append(event)
        traced.removal_pass(order.tolist(), x, y)
        index = {pair: i for i, pair in enumerate(ordered_pairs(n))}
        removed = [index[(a, b)] for _, _, a, b, _, _ in events]  # the k-th stops a budget of edges - k - 1
        visits = [i for i in order.tolist() if state.present[i]]
        next_visit, decided = dict(zip(visits, visits[1:])), _scanned_last_edges(state, order)
        on_decided = next(k for k, i in enumerate(removed) if i in decided)
        before_decided = next(
            k for k, i in enumerate(removed) if i not in decided and next_visit.get(i) in decided
        )
        for k in (on_decided, before_decided):
            m = state.edge_total - k - 1
            assert _second_phase(state, order, x, y, m).edge_total == m

    @pytest.mark.parametrize("complete", [True, False])
    @pytest.mark.parametrize("n", [22, 40, 100])
    def test_at_most_2n_minus_2_positions_decided(self, n, complete, monkeypatch):
        # from the complete graph a removal run, from an exact (1, 1) profile
        # a trim by one edge: both decide each vertex's last present edges
        decided = []

        def spy(n, orders):
            last_in, last_out, last = real(n, orders)
            decided.append(len(set(last[0].tolist()) - {-1}))
            return last_in, last_out, last

        real = processes._last_edges
        monkeypatch.setattr(processes, "_last_edges", spy)
        cfg = ProcessConfig(1, 1, n, ProcessKind.REMOVAL, seed=0)
        for order in _rows(4, math.comb(n, 2), seed=n):
            if complete:
                state = State(n, True)
                (row,) = states(_lone_runs(cfg, order[None]))
                assert fields(row) == fields(loop_run(cfg, order[None]))
            else:
                state = _trim_start(n, 1, 1, seed=n)
                _second_phase(state, order, 1, 1, state.edge_total - 1)
            assert decided.pop() == len(_scanned_last_edges(state, order)) <= 2 * n - 2

    @pytest.mark.parametrize("n", [1, 5])
    def test_any_integer_order(self, n):
        # no candidates at n = 1, and orders of any integer dtype
        for dtype, (x, y) in product(INTEGER_DTYPES, product(range(1, n + 1), repeat=2)):
            cfg = ProcessConfig(x, y, n, ProcessKind.REMOVAL, seed=0)
            _lone_equals_loops(cfg, _rows(3, math.comb(n, 2), seed=n).astype(dtype))

    def test_exact_laws_never_enter(self, monkeypatch):
        # the exact flow lists each state's moves by the cancel rule
        def refuse(*args, **kwargs):
            raise AssertionError("_decide_removals was called")

        monkeypatch.setattr(processes, "_decide_removals", refuse)
        for n in range(1, 6):
            for x, y in product(range(1, n + 1), repeat=2):
                exact_process_distribution(ProcessKind.REMOVAL, x, y, n)


class TestPhaseAddition:
    """The phase lemma's addition runs (``_lone_runs``) and fills
    (``_fill_or_trim``) against the ``addition_pass`` loop."""

    @pytest.mark.parametrize("n,orders", [(22, 12), (40, 6), (100, 2)])
    @pytest.mark.parametrize("x,y", list(product(range(1, 5), repeat=2)))
    def test_empty_start_equals_loop(self, x, y, n, orders):
        rows = _rows(orders, math.comb(n, 2), seed=2000 * n + 10 * x + y)
        for loop in _lone_equals_loops(ProcessConfig(x, y, n, ProcessKind.ADDITION, seed=0), rows):
            assert loop.rounds == loop.edge_total

    @pytest.mark.parametrize("x,y", [(1, 1), (2, 2), (1, 3), (4, 3)])
    @pytest.mark.parametrize("n", [22, 40])
    def test_fill_equals_loop(self, n, x, y):
        # from an exact (x, y) state the rule admits only the neutral additions;
        # budgets below, at and above the count they can reach
        state = _trim_start(n, x, y, seed=n + x + y)
        order = _rows(1, math.comb(n, 2), seed=n + 1)[0]
        reach = _second_phase(state, order, x, y, math.comb(n, 2) + 1).edge_total
        budgets = {state.edge_total + 1, (state.edge_total + reach) // 2, reach - 1, reach, reach + 1}
        short = []
        for m in sorted(b for b in budgets if b > state.edge_total):
            loop = _second_phase(state, order, x, y, m)
            assert (loop.sources, loop.sinks) == (x, y)
            if loop.edge_total < m:
                short.append(m)
        assert short == [reach + 1]  # the fill runs out one edge short of it

    @pytest.mark.parametrize("n", [22, 40, 100])
    def test_at_most_two_phases(self, n, monkeypatch):
        # a pass from the empty graph ends at the second cap to bind, and a
        # fill from an exact profile is one array step, with no phase
        phases = []

        def spy(*args):
            phases[-1] += 1
            return real(*args)

        real = processes._addition_phase
        monkeypatch.setattr(processes, "_addition_phase", spy)
        counts = {}
        for order, (x, y) in zip(_rows(6, math.comb(n, 2), seed=n), [(1, 1), (2, 3), (4, 1)] * 2):
            phases.append(0)
            cfg = ProcessConfig(x, y, n, ProcessKind.ADDITION, seed=0)
            (row,) = states(_addition_stack(n, order[None], x, y))
            assert fields(row) == fields(loop_run(cfg, order[None]))
            counts.setdefault((x, y), []).append(phases[-1])
        assert max(max(runs) for runs in counts.values()) == 2
        assert counts[1, 1] == [1, 1]  # a count that reaches a cap of 1 bars nothing
        phases.append(0)
        state = _trim_start(n, 2, 3, seed=n)
        _second_phase(state, _rows(1, math.comb(n, 2), seed=n + 1)[0], 2, 3, math.comb(n, 2))
        assert phases[-1] == 0

    @pytest.mark.parametrize("n", [1, 5])
    def test_any_integer_order(self, n):
        # no candidates at n = 1, and orders of any integer dtype
        for dtype, (x, y) in product(INTEGER_DTYPES, product(range(1, n + 1), repeat=2)):
            cfg = ProcessConfig(x, y, n, ProcessKind.ADDITION, seed=0)
            _lone_equals_loops(cfg, _rows(3, math.comb(n, 2), seed=n).astype(dtype))

    def test_exact_laws_and_trees_never_enter(self, monkeypatch):
        # the exact flow lists each state's moves by the cancel rule; a tree
        # adds its edges directly
        def refuse(*args, **kwargs):
            raise AssertionError("_addition_phases was called")

        monkeypatch.setattr(processes, "_addition_phases", refuse)
        for n in range(1, 6):
            for x, y in product(range(1, n + 1), repeat=2):
                exact_process_distribution(ProcessKind.ADDITION, x, y, n)
        assert random_directed_tree(40, 7).edge_count == 39
        run_trials(ProcessConfig(1, 1, 40, ProcessKind.RANDOM_TREE, 0), 3, master_seed=7)


class TestStackedPasses:
    """The stacks of lone removal and addition runs against the reference
    loops, row by row."""

    @pytest.mark.parametrize("rows", [1, 2, 12])
    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION])
    @pytest.mark.parametrize("x,y", list(product(range(1, 5), repeat=2)))
    def test_stack_rows_equal_loops(self, x, y, kind, rows):
        # n = 1 has no candidate edges; at n = max(x, y) an addition adds none
        complete = kind is ProcessKind.REMOVAL
        stack = _removal_stack if complete else _addition_stack
        for n in sorted({1, 2, max(x, y), 5, 22, 40, 100}):
            if n < max(x, y):
                continue
            orders = _rows(rows, math.comb(n, 2), seed=1000 * n + 100 * x + 10 * y + rows)
            finals = list(states(stack(n, orders, x, y)))
            assert len(finals) == rows
            for t, (order, state) in enumerate(zip(orders, finals)):
                loop = State(n, complete)
                (loop.removal_pass if complete else loop.addition_pass)(order.tolist(), x, y)
                assert fields(state) == fields(loop), (n, t)

    def test_one_stack_bars_heads_bars_tails_or_ties(self):
        # with both caps above 1, the rows of one stack differ in which count
        # reaches its cap first, with nothing barred: the sources (the second
        # phase bars heads), the sinks (it bars tails), or both at one edge
        # (no second phase); each row must still equal its loop
        n, x, y = 12, 3, 3
        orders = _rows(200, math.comb(n, 2), seed=5)
        first = set()
        for order, state in zip(orders, states(_addition_stack(n, orders, x, y))):
            heads, tails, reach = set(), set(), {}
            for i, (a, b) in enumerate(ordered_pairs(n)[idx] for idx in order.tolist()):
                heads.add(b)
                tails.add(a)
                if len(heads) == n - x:
                    reach.setdefault("in", i)
                if len(tails) == n - y:
                    reach.setdefault("out", i)
            first.add("tie" if reach["in"] == reach["out"] else min(reach, key=reach.get))
            loop = State(n, False)
            loop.addition_pass(order.tolist(), x, y)
            assert fields(state) == fields(loop)
        assert first == {"in", "out", "tie"}

    @pytest.mark.parametrize("n", [12, 30])
    def test_phases_from_any_state_equal_loops(self, n, monkeypatch):
        # the phase pass on a stack of many rows from the empty graph: rows
        # end their phases in different places, some after one phase and
        # some after two, and a row that is done must not move in the
        # others' later phases
        starts = []

        def spy(n, visit, start, *args):
            starts.append(start)
            return real(n, visit, start, *args)

        real = processes._addition_phase
        monkeypatch.setattr(processes, "_addition_phase", spy)
        width, mixed = math.comb(n, 2), []
        orders = _rows(40, width, seed=n)
        for x, y in product((1, 2, 4), repeat=2):
            starts.clear()
            added, sources, sinks = processes._addition_phases(n, orders, x, y)
            for row, order in enumerate(orders):
                loop = State(n, False)
                loop.addition_pass(order.tolist(), x, y)
                assert bytearray(added[row]) == loop.present
                assert (sources[row], sinks[row]) == (loop.sources, loop.sinks)
            if len(starts) > 1:  # rows done after one phase, and rows going on from different places
                done = starts[1] == width
                if done.any() and len(set(starts[1][~done].tolist())) > 1:
                    mixed.append((x, y))
        assert len(mixed) >= 3, mixed

    @pytest.mark.parametrize("kind", list(ProcessKind), ids=lambda kind: kind.value)
    def test_traced_runs_equal_loop_events(self, kind):
        # run_process reports each move the loops make, in order, with the
        # counts after it: the combined process's fills and trims with budget
        # m included; a tree's edges are additions in child order, which caps
        # of 1 never bar before its last edge
        for n, (x, y), seed in product((1, 2, 5, 22, 40), [(1, 1), (2, 3), (4, 1)], range(3)):
            if n < max(x, y) or (kind is ProcessKind.COMBINED and n <= max(x, y) + 1):
                continue
            budgets = [None]
            if kind is ProcessKind.COMBINED:
                lo = extremal_value(ExtremalKind.MAX_MINIMAL_EDGES, x, y, n)
                hi = extremal_value(ExtremalKind.MAX_EDGES, x, y, n)
                budgets = sorted({lo, lo + (hi - lo) // 4, (lo + hi) // 2, hi})
            for m in budgets:
                cfg = ProcessConfig(x, y, n, kind, seed=seed, m=m)
                events, expected = [], []
                out = run_process(cfg, lambda *event: events.append(event))
                if kind is ProcessKind.RANDOM_TREE:
                    edges = [(out.graph.predecessors(v)[0], v) for v in range(2, n + 1)]
                    loop = State(n, False, lambda *event: expected.append(event))
                    loop.addition_pass([ordered_pairs(n).index(edge) for edge in edges], 1, 1)
                else:
                    rng = processes._rng(seed)
                    orders = np.array([rng.permutation(math.comb(n, 2)) for _ in range(_rows_per_run(kind))])
                    loop = loop_run(cfg, orders, lambda *event: expected.append(event))
                assert events == expected, (n, x, y, seed, m)
                assert (out.rounds, out.graph.edge_count) == (loop.rounds, loop.edge_total)
                assert out.graph == OrderedDag.from_edges(n, compress(ordered_pairs(n), loop.present))


class TestCandidatePairs:
    def test_untraced_array_runs_never_build_ordered_pairs(self):
        # removal takes the last-edge pass, addition the phase pass, and the
        # tree its edges' indices, traced or not; the outcome reads the kept
        # edges off the pair ends.  The loops read ordered_pairs(n)
        for n in (5, 57):
            kinds = (ProcessKind.REMOVAL, ProcessKind.ADDITION)
            cfgs = [ProcessConfig(x, 2, n, kind, seed=2) for kind in kinds for x in (1, 3)]
            ordered_pairs.cache_clear()
            outs = [run_process(cfg) for cfg in cfgs]
            assert [run_process(cfg, lambda *event: None) for cfg in cfgs] == outs
            random_directed_tree(n, 3)
            assert ordered_pairs.cache_info().misses == 0
            for cfg, out in zip(cfgs, outs):
                loop = loop_run(cfg, processes._rng(cfg.seed).permutation(math.comb(n, 2))[None])
                graph = OrderedDag.from_edges(n, compress(ordered_pairs(n), loop.present))
                assert (out.graph.to_json(), out.rounds) == (graph.to_json(), loop.rounds)
            assert ordered_pairs.cache_info().misses == 1

    def test_graph_from_pair_ends_equals_graph_from_pairs(self):
        n = 30
        cfg = ProcessConfig(2, 3, n, ProcessKind.ADDITION, seed=4)
        graph = run_process(cfg).graph
        loop = loop_run(cfg, processes._rng(cfg.seed).permutation(math.comb(n, 2))[None])
        expected = OrderedDag.from_edges(n, compress(ordered_pairs(n), loop.present))
        assert graph == expected and graph.to_json() == expected.to_json()
        assert (graph._indeg, graph._outdeg) == (loop.indeg, loop.outdeg)
        assert {type(degree) for degree in graph._indeg + graph._outdeg} == {int}


class TestConfigArgument:
    @pytest.mark.parametrize("value", ["x", None, 3, (1, 1, 4)])
    @pytest.mark.parametrize(
        "run",
        [
            processes.run_process,
            processes.edge_removal_process,
            processes.edge_addition_process,
            processes.combined_process,
        ],
        ids=["run_process", "edge_removal_process", "edge_addition_process", "combined_process"],
    )
    def test_non_config_is_named(self, run, value):
        with pytest.raises(ConfigError) as info:
            run(value)
        assert str(info.value) == f"cfg must be a ProcessConfig, got {value!r}"
