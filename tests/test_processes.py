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
    _finish,
    _removal_stack,
    _State,
    combined_process,
    edge_addition_process,
    edge_removal_process,
    random_directed_tree,
    run_process,
)


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
    """Exact halt-state law of the permutation-order process: one `_State`
    pass over every one of the binom(n, 2)! edge orders."""
    complete = kind is ProcessKind.REMOVAL
    run = _State.removal_pass if complete else _State.addition_pass
    tally = defaultdict(int)
    for order in permutations(range(len(ordered_pairs(n)))):
        state = _State(n, complete)
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
    @pytest.mark.parametrize("x,y", [(1, 1), (2, 1), (1, 2), (2, 2)])
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


def _batch_phases(cfg, rows):
    """Run ``_finish`` on ``rows`` once with a ``_Batch`` and, row by row, with
    ``_State`` passes; require equal fields for every trial and return how
    each combined trial's second phase went."""
    per_trial = 2 if cfg.kind is ProcessKind.COMBINED else 1
    batch = _Batch(cfg.n, cfg.kind is ProcessKind.REMOVAL, len(rows) // per_trial)
    _finish(cfg, batch, iter([rows[i::per_trial] for i in range(per_trial)]).__next__)
    assert batch.present.shape == (len(rows) // per_trial, math.comb(cfg.n, 2))
    phases = set()
    for t in range(len(rows) // per_trial):
        state = _State(cfg.n, cfg.kind is ProcessKind.REMOVAL)
        orders = iter(rows[t * per_trial : (t + 1) * per_trial].tolist())

        def draw():
            if cfg.m is not None and state.edge_total:  # the second draw: below m fills
                phases.add("fill" if state.edge_total < cfg.m else "trim")
            return next(orders)

        _finish(cfg, state, draw)
        if cfg.m is not None and (state.sources, state.sinks) != (cfg.x, cfg.y):
            phases.add("miss")
        assert batch.present[t].tobytes() == state.present, t
        assert batch.indeg[t].tolist() == state.indeg, t
        assert batch.outdeg[t].tolist() == state.outdeg, t
        got = (batch.sources[t], batch.sinks[t], batch.edge_total[t], batch.rounds[t])
        assert got == (state.sources, state.sinks, state.edge_total, state.rounds), t
    return phases


def _rows(count, width, seed):
    rng = np.random.default_rng(seed)
    return rng.permuted(np.broadcast_to(np.arange(width), (count, width)), axis=1)


class TestBatchKernel:
    """The lockstep kernel against ``_State`` passes on the same rows."""

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
        fields = ("present", "indeg", "outdeg", "sources", "sinks", "edge_total", "rounds")
        before = [getattr(batch, name).copy() for name in fields]
        rows, idle = _rows(trials, math.comb(n, 2), seed=1), np.zeros(trials, bool)
        batch.removal_pass(rows, 1, 1, active=idle)
        batch.removal_pass(rows, 1, 1, budget=9, active=idle)
        batch.addition_pass(rows, 1, 1, active=idle)
        batch.addition_pass(rows, 1, 1, budget=9, active=idle)
        for name, old in zip(fields, before):
            assert np.array_equal(getattr(batch, name), old), name


STATE_FIELDS = ("present", "indeg", "outdeg", "sources", "sinks", "edge_total", "rounds")


def _fields(state):
    return tuple(getattr(state, name) for name in STATE_FIELDS)


def _traced(state):
    """A copy of ``state`` whose trace records its events, and that record."""
    events = []
    state = state.copy()
    state.trace = lambda *event: events.append(event)
    return state, events


def _both_removals(state, order, x, y, budget=None, active=True):
    """Run the removal loop and the last-edge pass, untraced and traced, from
    copies of ``state`` on the same order; require equal fields, return values
    and trace events, and return the loop's final state."""
    (loop, expected_events), (traced, events) = _traced(state), _traced(state)
    expected = loop.removal_pass(np.asarray(order).tolist(), x, y, budget, active)
    decided = state.copy()
    assert decided.last_edge_removal_pass(order, x, y, budget, active) == expected
    assert traced.last_edge_removal_pass(order, x, y, budget, active) == expected
    assert _fields(decided) == _fields(traced) == _fields(loop)
    assert events == expected_events
    loop.trace = None
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
        state = _State(n, False)
        if state.addition_pass(rng.permutation(math.comb(n, 2)).tolist(), x, y):
            return state


class TestLastEdgeRemoval:
    """``_State.last_edge_removal_pass`` against the ``removal_pass`` loop."""

    @pytest.mark.parametrize("n,orders", [(22, 12), (40, 6), (100, 2)])
    @pytest.mark.parametrize("x,y", list(product(range(1, 5), repeat=2)))
    def test_complete_start_equals_loop(self, x, y, n, orders):
        rows = _rows(orders, math.comb(n, 2), seed=1000 * n + 10 * x + y)
        for order in rows:
            loop = _both_removals(_State(n, True), order, x, y)
            assert loop.rounds == math.comb(n, 2) - loop.edge_total

    @pytest.mark.parametrize("x,y", [(1, 1), (2, 2), (1, 3)])
    @pytest.mark.parametrize("n", [25, 40])
    def test_budgeted_trim_equals_loop(self, n, x, y):
        # the stop falls once on a decided edge, and once on an undecided edge
        # whose next visit is decided, which the walk must then not decide
        state = _trim_start(n, x, y, seed=n + x + y)
        order = _rows(1, math.comb(n, 2), seed=n)[0]
        traced, events = _traced(state)
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
            budget = state.edge_total - k - 1
            assert _both_removals(state, order, x, y, budget=budget).edge_total == budget

    @pytest.mark.parametrize("x,y", [(2, 2), (4, 3)])
    def test_every_budget_from_complete_equals_loop(self, x, y):
        # below its caps a decided removal can change the sources or sinks, so
        # the walk must stop where the budget is reached, not only the cut;
        # budgets below the final count and above the start are never reached
        n = 22
        for order in _rows(2, math.comb(n, 2), seed=x + y):
            final = _both_removals(_State(n, True), order, x, y).edge_total
            for budget in range(final - 1, math.comb(n, 2) + 2):
                _both_removals(_State(n, True), order, x, y, budget=budget)

    def test_idle_calls_move_nothing(self):
        n, x, y = 30, 1, 1
        state = _trim_start(n, x, y, seed=3)
        order = _rows(1, math.comb(n, 2), seed=3)[0]
        before = _fields(state.copy())
        for budget, active in ((None, False), (60, False), (state.edge_total, True)):
            _both_removals(state, order, x, y, budget, active)
            assert state.last_edge_removal_pass(order, x, y, budget, active) == (budget == state.edge_total)
            assert _fields(state) == before

    @pytest.mark.parametrize("complete", [True, False])
    @pytest.mark.parametrize("n", [22, 40, 100])
    def test_at_most_2n_minus_2_positions_decided(self, n, complete, monkeypatch):
        decided = []

        def spy(n, orders):
            last_in, last_out, last = real(n, orders)
            decided.append(len(set(last[0].tolist()) - {-1}))
            return last_in, last_out, last

        real = processes._last_edges
        monkeypatch.setattr(processes, "_last_edges", spy)
        for order in _rows(4, math.comb(n, 2), seed=n):
            state = _State(n, True) if complete else _trim_start(n, 1, 1, seed=n)
            expected = len(_scanned_last_edges(state, order))
            _both_removals(state, order, 1, 1)
            assert decided.pop() == expected <= 2 * n - 2

    @pytest.mark.parametrize("n", [1, 5])
    def test_any_integer_order(self, n):
        # an empty list (no candidates at n = 1) and a list order
        for x, y in product(range(1, n + 1), repeat=2):
            _both_removals(_State(n, True), _rows(1, math.comb(n, 2), seed=n)[0].tolist(), x, y)

    def test_exact_laws_never_enter(self, monkeypatch):
        # the exact flow's one-edge passes take the loop
        def refuse(*args, **kwargs):
            raise AssertionError("last_edge_removal_pass was called")

        monkeypatch.setattr(_State, "last_edge_removal_pass", refuse)
        for n in range(1, 6):
            for x, y in product(range(1, n + 1), repeat=2):
                exact_process_distribution(ProcessKind.REMOVAL, x, y, n)


def _both_additions(state, order, x, y, budget=None, active=True):
    """Run the addition loop and the phase pass, untraced and traced, from
    copies of ``state`` on the same order; require equal fields, return values
    and trace events, and return the loop's final state."""
    (loop, expected_events), (traced, events) = _traced(state), _traced(state)
    expected = loop.addition_pass(np.asarray(order).tolist(), x, y, budget, active)
    phased = state.copy()
    assert phased.phase_addition_pass(order, x, y, budget, active) is expected
    assert traced.phase_addition_pass(order, x, y, budget, active) is expected
    assert _fields(phased) == _fields(traced) == _fields(loop)
    assert events == expected_events
    loop.trace = None
    return loop


class TestPhaseAddition:
    """``_State.phase_addition_pass`` against the ``addition_pass`` loop."""

    @pytest.mark.parametrize("n,orders", [(22, 12), (40, 6), (100, 2)])
    @pytest.mark.parametrize("x,y", list(product(range(1, 5), repeat=2)))
    def test_empty_start_equals_loop(self, x, y, n, orders):
        rows = _rows(orders, math.comb(n, 2), seed=2000 * n + 10 * x + y)
        for order in rows:
            loop = _both_additions(_State(n, False), order, x, y)
            assert loop.rounds == loop.edge_total

    @pytest.mark.parametrize("x,y", [(1, 1), (2, 2), (1, 3), (4, 3)])
    @pytest.mark.parametrize("n", [22, 40])
    def test_fill_equals_loop(self, n, x, y):
        # from an exact (x, y) state the rule admits only the neutral additions;
        # budgets below, at and above the count they can reach
        state = _trim_start(n, x, y, seed=n + x + y)
        order = _rows(1, math.comb(n, 2), seed=n + 1)[0]
        reach = _both_additions(state, order, x, y, budget=math.comb(n, 2) + 1).edge_total
        budgets = {state.edge_total + 1, (state.edge_total + reach) // 2, reach - 1, reach, reach + 1}
        short = []
        for budget in sorted(b for b in budgets if b > state.edge_total):
            loop = _both_additions(state, order, x, y, budget=budget)
            assert (loop.sources, loop.sinks) == (x, y)
            if loop.edge_total < budget:
                short.append(budget)
        assert short == [reach + 1]  # the fill runs out one edge short of it

    @pytest.mark.parametrize("n", [22, 40])
    def test_partial_start_equals_loop(self, n):
        # starts with edges present: a (1, 1) pass cut at a budget, which may
        # leave the sources or sinks above or below the next pass's caps
        first, second = _rows(2, math.comb(n, 2), seed=n)
        for budget in (3, math.comb(n, 2) // 10, math.comb(n, 2) // 3):
            start = _State(n, False)
            start.addition_pass(first.tolist(), 1, 1, budget=budget)
            for x, y in product((1, 2, 4), repeat=2):
                _both_additions(start, second, x, y)
                _both_additions(start, second, x, y, budget=start.edge_total + math.comb(n, 2) // 5)

    def test_idle_calls_move_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a phase ran")

        monkeypatch.setattr(processes, "_addition_phase", refuse)
        n, x, y = 30, 2, 2
        state = _trim_start(n, x, y, seed=3)
        order = _rows(1, math.comb(n, 2), seed=3)[0]
        before = _fields(state.copy())
        calls = [(None, False, True), (state.edge_total + 40, False, False), (state.edge_total, True, True)]
        calls.append((None, True, True))  # already at the exact profile
        for budget, active, halted in calls:
            assert _both_additions(state, order, x, y, budget, active).edge_total == state.edge_total
            assert state.phase_addition_pass(order, x, y, budget, active) is halted
            assert _fields(state) == before
        empty = _State(n, False)
        assert empty.phase_addition_pass(order, x, y, active=False) is False
        assert _fields(empty) == _fields(_State(n, False))

    @pytest.mark.parametrize("n", [22, 40, 100])
    def test_at_most_two_phases_or_three_with_a_budget(self, n, monkeypatch):
        phases = []

        def spy(*args):
            phases[-1] += 1
            return real(*args)

        real = processes._addition_phase
        monkeypatch.setattr(processes, "_addition_phase", spy)
        unbudgeted, budgeted, capped_at_1 = [], [], []
        for order, (x, y) in zip(_rows(6, math.comb(n, 2), seed=n), [(1, 1), (2, 3), (4, 1)] * 2):
            for budget, counts in ((None, unbudgeted), (math.comb(n, 2), budgeted)):
                phases.append(0)
                _both_additions(_State(n, False), order, x, y, budget)
                counts.append(phases[-1] / 2)  # the untraced and the traced pass
            if (x, y) == (1, 1):
                capped_at_1.append(unbudgeted[-1])
        assert max(unbudgeted) == 2
        assert max(budgeted) == 3
        assert capped_at_1 == [1, 1]  # a count that reaches a cap of 1 bars nothing

    @pytest.mark.parametrize("n", [1, 5])
    def test_any_integer_order(self, n):
        # an empty list (no candidates at n = 1) and a list order
        for x, y in product(range(1, n + 1), repeat=2):
            _both_additions(_State(n, False), _rows(1, math.comb(n, 2), seed=n)[0].tolist(), x, y)

    def test_exact_laws_and_trees_never_enter(self, monkeypatch):
        # the exact flow's one-edge passes take the loop; a tree adds its
        # edges directly
        def refuse(*args, **kwargs):
            raise AssertionError("phase_addition_pass was called")

        monkeypatch.setattr(_State, "phase_addition_pass", refuse)
        for n in range(1, 6):
            for x, y in product(range(1, n + 1), repeat=2):
                exact_process_distribution(ProcessKind.ADDITION, x, y, n)
        assert random_directed_tree(40, 7).edge_count == 39
        run_trials(ProcessConfig(1, 1, 40, ProcessKind.RANDOM_TREE, 0), 3, master_seed=7)


class TestStackedPasses:
    """The stacks of lone removal and addition runs against the ``_State``
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
            states = list(stack(n, orders, x, y).states())
            assert len(states) == rows
            for t, (order, state) in enumerate(zip(orders, states)):
                loop = _State(n, complete)
                (loop.removal_pass if complete else loop.addition_pass)(order.tolist(), x, y)
                assert _fields(state) == _fields(loop), (n, t)

    def test_one_stack_bars_heads_bars_tails_or_ties(self):
        # with both caps above 1, the rows of one stack differ in which count
        # reaches its cap first, with nothing barred: the sources (the second
        # phase bars heads), the sinks (it bars tails), or both at one edge
        # (no second phase); each row must still equal its loop
        n, x, y = 12, 3, 3
        orders = _rows(200, math.comb(n, 2), seed=5)
        first = set()
        for order, state in zip(orders, _addition_stack(n, orders, x, y).states()):
            heads, tails, reach = set(), set(), {}
            for i, (a, b) in enumerate(ordered_pairs(n)[idx] for idx in order.tolist()):
                heads.add(b)
                tails.add(a)
                if len(heads) == n - x:
                    reach.setdefault("in", i)
                if len(tails) == n - y:
                    reach.setdefault("out", i)
            first.add("tie" if reach["in"] == reach["out"] else min(reach, key=reach.get))
            loop = _State(n, False)
            loop.addition_pass(order.tolist(), x, y)
            assert _fields(state) == _fields(loop)
        assert first == {"in", "out", "tie"}

    @pytest.mark.parametrize("n", [12, 30])
    def test_phases_from_any_state_equal_loops(self, n):
        # the phase pass on a stack of rows from one state: the empty graph, a
        # (1, 1) pass cut at a budget, and an exact (x, y) profile; with and
        # without a budget, so rows end their phases in different places and
        # a row that is done must not move in the others' later phases
        width = math.comb(n, 2)
        first, *orders = _rows(9, width, seed=n)
        for x, y in product((1, 2, 4), repeat=2):
            starts = [_State(n, False), _trim_start(n, x, y, seed=n + x + y)]
            for budget in (3, width // 5):
                starts.append(_State(n, False))
                starts[-1].addition_pass(first.tolist(), 1, 1, budget=budget)
            for start, room in product(starts, (None, 1, width // 4, width)):
                mask = np.frombuffer(start.present, bool)
                stack = np.array([order[~mask[order]] for order in orders])
                added, sources, sinks = processes._addition_phases(
                    n, stack, start.indeg, start.outdeg, start.sources, start.sinks, x, y, room
                )
                for row, order in enumerate(orders):
                    loop = start.copy()
                    loop.addition_pass(order.tolist(), x, y, None if room is None else start.edge_total + room)
                    assert bytearray(added[row] | mask) == loop.present
                    assert (sources[row], sinks[row]) == (loop.sources, loop.sinks)


class TestCandidatePairs:
    def test_untraced_array_runs_never_build_ordered_pairs(self):
        # removal takes the last-edge pass, addition the phase pass, and the
        # tree its edges' indices, traced or not; graph() reads the kept edges
        # off the pair ends.  The loops read ordered_pairs(n)
        for n in (5, 57):
            kinds = (ProcessKind.REMOVAL, ProcessKind.ADDITION)
            cfgs = [ProcessConfig(x, 2, n, kind, seed=2) for kind in kinds for x in (1, 3)]
            ordered_pairs.cache_clear()
            outs = [run_process(cfg) for cfg in cfgs]
            assert [run_process(cfg, lambda *event: None) for cfg in cfgs] == outs
            random_directed_tree(n, 3)
            assert ordered_pairs.cache_info().misses == 0
            for cfg, out in zip(cfgs, outs):
                loop = _State(n, cfg.kind is ProcessKind.REMOVAL)
                run = _State.removal_pass if cfg.kind is ProcessKind.REMOVAL else _State.addition_pass
                run(loop, processes._rng(cfg.seed).permutation(math.comb(n, 2)).tolist(), cfg.x, cfg.y)
                assert (out.graph.to_json(), out.rounds) == (loop.graph().to_json(), loop.rounds)
            assert ordered_pairs.cache_info().misses == 1

    def test_graph_from_pair_ends_equals_graph_from_pairs(self):
        n = 30
        state = _State(n, False)
        state.phase_addition_pass(_rows(1, math.comb(n, 2), seed=4)[0], 2, 3)
        graph, expected = state.graph(), OrderedDag.from_edges(n, compress(ordered_pairs(n), state.present))
        assert graph == expected and graph.to_json() == expected.to_json()
        assert (graph._indeg, graph._outdeg) == (state.indeg, state.outdeg)
