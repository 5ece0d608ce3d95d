import re
from fractions import Fraction
from itertools import product

import pytest

from taskdag.analysis import ExtremalKind, is_minimal_xy
from taskdag.errors import CapacityError, DomainError, GraphError
from taskdag.graph import OrderedDag, complete_graph, empty_graph, ordered_pairs
from taskdag.oracle import (
    EnumerationScope,
    enumerate_graphs,
    exact_process_distribution,
    oracle_extremal,
    oracle_is_minimal,
    oracle_linear_extensions,
)
from taskdag.processes import ProcessKind

from .reference import filtered_graphs, linear_extensions, trial_states

K = ExtremalKind


class TestEnumeration:
    def test_n2(self):
        assert sum(1 for _ in enumerate_graphs(EnumerationScope(n=2))) == 2

    def test_n3(self):
        assert sum(1 for _ in enumerate_graphs(EnumerationScope(n=3))) == 8

    def test_no_duplicates(self):
        seen = {g.to_json() for g in enumerate_graphs(EnumerationScope(n=4))}
        assert len(seen) == 2**6

    def test_profile_filter_matches_direct_count(self):
        # direct recount over raw subsets, bypassing the OrderedDag machinery
        pairs = ordered_pairs(4)
        direct = 0
        for mask in range(1 << len(pairs)):
            indeg = [0] * 5
            outdeg = [0] * 5
            for i, (a, b) in enumerate(pairs):
                if mask >> i & 1:
                    indeg[b] += 1
                    outdeg[a] += 1
            sources = sum(1 for v in range(1, 5) if indeg[v] == 0)
            sinks = sum(1 for v in range(1, 5) if outdeg[v] == 0)
            direct += (sources, sinks) == (1, 1)
        scope = EnumerationScope(n=4, profile=(1, 1))
        assert sum(1 for _ in enumerate_graphs(scope)) == direct == 10

    def test_minimal_filter(self):
        scope = EnumerationScope(n=3, minimal_only=True)
        for g in enumerate_graphs(scope):
            assert is_minimal_xy(g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_filtered_scopes_equal_the_per_graph_filter(self, n):
        # every profile in [1, n]^2 and none, with and without minimal_only
        for profile, minimal_only in product([None, *product(range(1, n + 1), repeat=2)], (False, True)):
            scope = EnumerationScope(n=n, profile=profile, minimal_only=minimal_only)
            expected = [g.to_json() for g in filtered_graphs(scope)]
            assert [g.to_json() for g in enumerate_graphs(scope)] == expected, scope

    @pytest.mark.parametrize("profile", [(1, 1), (2, 3)])
    def test_minimal_scopes_at_n6_equal_the_per_graph_filter(self, profile):
        scope = EnumerationScope(n=6, profile=profile, minimal_only=True)
        expected = [g.to_json() for g in filtered_graphs(scope)]
        assert expected and [g.to_json() for g in enumerate_graphs(scope)] == expected

    def test_filtered_scopes_build_only_the_graphs_they_yield(self, monkeypatch):
        # with the facts table built, a filtered scope builds no graph it drops
        import taskdag.oracle

        taskdag.oracle._facts_by_mask(5)
        built, build = [], taskdag.oracle._graph_from_mask

        def spy(n, pairs, mask):
            built.append(mask)
            return build(n, pairs, mask)

        monkeypatch.setattr(taskdag.oracle, "_graph_from_mask", spy)
        for profile, minimal_only in [((2, 3), False), (None, True), ((1, 1), True)]:
            built.clear()
            yielded = list(enumerate_graphs(EnumerationScope(n=5, profile=profile, minimal_only=minimal_only)))
            assert len(built) == len(yielded) > 0

    @pytest.mark.parametrize("value", ["no", 0, 1, None, 1.0])
    def test_minimal_only_must_be_a_bool(self, value):
        # a truthy string such as "no" would otherwise filter to the minimal graphs
        with pytest.raises(DomainError, match=f"minimal_only must be a bool, got {value!r}"):
            next(enumerate_graphs(EnumerationScope(n=3, minimal_only=value)))

    def test_cap_default(self):
        with pytest.raises(CapacityError, match="capped at n <= 6"):
            next(enumerate_graphs(EnumerationScope(n=7)))


class TestFactsTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_equal_the_per_graph_facts(self, n):
        # each row against the graph itself: the minimal column against the
        # definition, the result column against re-profiled one-edge deletions
        from taskdag.oracle import _facts_by_mask, _graph_from_mask

        pairs = ordered_pairs(n)
        table = _facts_by_mask(n)
        assert len(table) == 1 << len(pairs)
        for mask, row in enumerate(table):
            g = _graph_from_mask(n, pairs, mask)
            counts, edges = g.profile().counts, g.edges()
            expected = (
                g.edge_count,
                *counts,
                oracle_is_minimal(g, *counts),
                len(g.underlying_components()),
                not edges or any(
                    OrderedDag.from_edges(n, edges[:j] + edges[j + 1:]).profile().counts != counts
                    for j in range(len(edges))
                ),
            )
            assert row == expected, mask
            assert all(type(v) is type(e) for v, e in zip(row, expected)), mask


class TestDefinitionalMinimality:
    def test_path(self):
        assert oracle_is_minimal(OrderedDag.from_edges(3, [(1, 2), (2, 3)]), 1, 1)

    def test_tournament(self):
        assert not oracle_is_minimal(complete_graph(3), 1, 1)

    def test_family(self):
        from taskdag.families import densest_minimal_graph

        assert oracle_is_minimal(densest_minimal_graph(2, 1, 5), 2, 1)

    def test_profile_mismatch_is_not_minimal(self):
        assert not oracle_is_minimal(empty_graph(3), 1, 1)

    def test_agrees_with_criterion_at_n4(self):
        for g in enumerate_graphs(EnumerationScope(n=4)):
            r, s = g.profile().counts
            assert oracle_is_minimal(g, r, s) == is_minimal_xy(g)


class TestPermutationFilter:
    def test_empty(self):
        assert oracle_linear_extensions(empty_graph(3)) == 6

    def test_tournament(self):
        assert oracle_linear_extensions(complete_graph(4)) == 1

    def test_cap(self):
        with pytest.raises(CapacityError, match="n <= 8"):
            oracle_linear_extensions(empty_graph(9))

    def test_agrees_with_subset_dp_on_random_graphs(self):
        import random

        rng = random.Random(20260809)
        for _ in range(1000):
            n = rng.randint(1, 7)
            pairs = ordered_pairs(n)
            chosen = [p for p in pairs if rng.random() < 0.4]
            g = OrderedDag.from_edges(n, chosen)
            assert oracle_linear_extensions(g) == g.count_linear_extensions()


class TestBruteForceExtremal:
    @pytest.mark.parametrize(
        "kind,x,y,n,expected",
        [
            (K.MAX_MINIMAL_EDGES, 1, 1, 4, 4),
            (K.MIN_EDGES, 2, 2, 5, 3),
            (K.MAX_EDGES, 1, 1, 4, 6),
            (K.MAX_ADDITION_RESULT_EDGES, 2, 1, 4, 5),
            (K.MAX_CONNECTED_MINIMAL_EDGES, 2, 1, 3, 2),
            (K.MAX_ORDERINGS, 1, 1, 5, 6),
        ],
    )
    def test_spot_values(self, kind, x, y, n, expected):
        assert oracle_extremal(kind, x, y, n) == expected

    def test_nonexistent_family(self):
        with pytest.raises(DomainError, match="no"):
            oracle_extremal(K.MAX_MINIMAL_EDGES, 3, 2, 3)

    def test_cap(self):
        with pytest.raises(CapacityError):
            oracle_extremal(K.MIN_EDGES, 1, 1, 8)

    def test_unknown_kind_is_named_even_where_no_graph_qualifies(self):
        # no (3, 1) graph of order 3 exists, so only a kind check made first names the kind
        with pytest.raises(DomainError, match="unknown extremal kind 'bogus'"):
            oracle_extremal("bogus", 3, 1, 3)

    def test_unknown_kind_is_rejected_before_the_facts_table(self, monkeypatch):
        import taskdag.oracle

        def unread(n):
            raise AssertionError("the facts table was read")

        monkeypatch.setattr(taskdag.oracle, "_facts_by_mask", unread)
        with pytest.raises(DomainError, match="unknown extremal kind"):
            oracle_extremal("bogus", 1, 1, 6)


class TestAdditionResults:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_largest_result_is_the_densest_halt_of_the_exact_flow(self, n):
        # the flow simulates the process; the verdict searches edge sets for halting graphs
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                outcomes = exact_process_distribution(ProcessKind.ADDITION, x, y, n).outcomes
                halts = [e for (r, s, e) in outcomes if (r, s) == (x, y)]
                if halts:
                    assert oracle_extremal(K.MAX_ADDITION_RESULT_EDGES, x, y, n) == max(halts)
                else:
                    with pytest.raises(DomainError, match="never halts"):
                        oracle_extremal(K.MAX_ADDITION_RESULT_EDGES, x, y, n)


class TestExactDistributions:
    def test_removal_1_1_3_point_mass(self):
        dist = exact_process_distribution(ProcessKind.REMOVAL, 1, 1, 3)
        assert dist.outcomes == {(1, 1, 2): Fraction(1)}
        assert dist.expected_edges == 2

    def test_removal_2_1_3_split(self):
        dist = exact_process_distribution(ProcessKind.REMOVAL, 2, 1, 3)
        assert dist.outcomes[(2, 1, 2)] == Fraction(1, 2)
        assert dist.outcomes[(1, 1, 2)] == Fraction(1, 2)

    def test_addition_1_1_3_expectation(self):
        dist = exact_process_distribution(ProcessKind.ADDITION, 1, 1, 3)
        assert dist.expected_edges == Fraction(8, 3)

    def test_probabilities_sum_to_one(self):
        for kind in (ProcessKind.REMOVAL, ProcessKind.ADDITION):
            for x, y in [(1, 1), (1, 2), (2, 2)]:
                dist = exact_process_distribution(kind, x, y, 4)
                assert sum(dist.outcomes.values()) == 1

    def test_cap(self):
        with pytest.raises(CapacityError, match="n <= 6"):
            exact_process_distribution(ProcessKind.REMOVAL, 1, 1, 7)

    def test_n6_law(self):
        dist = exact_process_distribution(ProcessKind.REMOVAL, 1, 1, 6)
        assert sum(dist.outcomes.values()) == 1
        assert all(key[:2] == (1, 1) for key in dist.outcomes)

    def test_unsupported_kind(self):
        with pytest.raises(DomainError, match="removal and addition"):
            exact_process_distribution(ProcessKind.COMBINED, 1, 1, 4)

    def test_tree_kind_keeps_its_message(self):
        with pytest.raises(DomainError, match=r"removal and addition only, got <ProcessKind"):
            exact_process_distribution(ProcessKind.RANDOM_TREE, 1, 1, 4)

    def test_unknown_kind_is_named_before_the_cap(self):
        # n = 7 is past the cap, so only a kind check made first names the kind
        with pytest.raises(DomainError, match=r"^unknown process kind 'bogus'$"):
            exact_process_distribution("bogus", 1, 1, 7)

    def test_kind_name_is_not_a_kind(self):
        with pytest.raises(DomainError, match=r"^unknown process kind 'removal'$"):
            exact_process_distribution("removal", 1, 1, 3)

    def test_laws_build_no_graph(self, monkeypatch):
        # a state is its edge mask, and degrees are bit counts of it
        import taskdag.oracle

        def refuse(*args):
            raise AssertionError("the flow built a graph")

        monkeypatch.setattr(taskdag.oracle, "_graph_from_mask", refuse)
        for kind, n in product((ProcessKind.REMOVAL, ProcessKind.ADDITION), range(1, 6)):
            for x, y in product(range(1, n + 1), repeat=2):
                assert sum(exact_process_distribution(kind, x, y, n).outcomes.values()) == 1


class TestMonteCarloAgainstExactLaw:
    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION])
    @pytest.mark.parametrize("x,y", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("n", [3, 4])
    def test_marginals_within_four_sigma(self, kind, x, y, n):
        import math
        from collections import Counter

        from taskdag.harness import derive_seed
        from taskdag.processes import ProcessConfig

        # final states of the harness's own per-block trial streams
        trials = 100_000
        exact = exact_process_distribution(kind, x, y, n).outcomes
        master = derive_seed(404, int(kind is ProcessKind.REMOVAL), x, y, n)
        states = trial_states(ProcessConfig(x, y, n, kind, seed=0), master, trials)
        seen = Counter((st.sources, st.sinks, st.edge_total) for st in states)
        assert set(seen) <= set(exact)
        for key, p in exact.items():
            sigma = math.sqrt(float(p) * (1 - float(p)) / trials)
            assert abs(seen[key] / trials - float(p)) <= 4 * sigma + 1e-12, (key, seen[key])


class TestClosedFormAgreementSpots:
    # the full sweep lives in the acceptance suite; these are quick anchors
    @pytest.mark.parametrize("x,y", [(1, 1), (2, 1), (2, 2)])
    def test_max_minimal_at_n5(self, x, y):
        from taskdag.analysis import extremal_value

        assert oracle_extremal(K.MAX_MINIMAL_EDGES, x, y, 5) == extremal_value(
            K.MAX_MINIMAL_EDGES, x, y, 5
        )

    def test_addition_reachability_matches_closed_form(self):
        from taskdag.analysis import extremal_value

        for x, y, n in [(1, 1, 4), (1, 2, 4), (2, 1, 5), (1, 1, 5)]:
            assert oracle_extremal(K.MAX_ADDITION_RESULT_EDGES, x, y, n) == extremal_value(
                K.MAX_ADDITION_RESULT_EDGES, x, y, n
            )


class TestOrderingsTable:
    # the table's counts against the permutation-by-permutation reference
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_graph_counts_as_the_reference(self, n):
        for g in enumerate_graphs(EnumerationScope(n=n)):
            assert oracle_linear_extensions(g) == linear_extensions(g), g.to_json()

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_random_graphs_count_as_the_reference(self, n):
        import random

        rng = random.Random(n)
        pairs = ordered_pairs(n)
        for _ in range(200):
            density = rng.random()
            g = OrderedDag.from_edges(n, [p for p in pairs if rng.random() < density])
            assert oracle_linear_extensions(g) == linear_extensions(g), g.to_json()

    @pytest.mark.parametrize("chunk", [None, 1, 241])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_max_orderings_is_the_reference_maximum(self, n, chunk, monkeypatch):
        # a chunk of 1 entry holds one mask, one of 241 two masks at n = 5
        import taskdag.oracle

        if chunk is not None:
            monkeypatch.setattr(taskdag.oracle, "_FILTER_CHUNK", chunk)
        for x, y in product(range(1, n + 1), repeat=2):
            counts = [linear_extensions(g) for g in filtered_graphs(EnumerationScope(n, (x, y)))]
            if counts:
                assert oracle_extremal(K.MAX_ORDERINGS, x, y, n) == max(counts), (x, y)
            else:
                with pytest.raises(DomainError, match="no qualifying"):
                    oracle_extremal(K.MAX_ORDERINGS, x, y, n)

    def test_max_orderings_memory_stays_bounded(self):
        # each verdict filters its masks a bounded chunk at a time; all of
        # (1, 1)'s graphs in one broadcast peaked at 21.8 MB
        import tracemalloc

        from taskdag.oracle import _facts_by_mask

        _facts_by_mask(6)
        tracemalloc.start()
        try:
            for x, y in product((1, 2, 3), repeat=2):
                tracemalloc.reset_peak()
                oracle_extremal(K.MAX_ORDERINGS, x, y, 6)
                assert tracemalloc.get_traced_memory()[1] < 2 << 20, (x, y)
        finally:
            tracemalloc.stop()


class TestGraphArguments:
    @pytest.mark.parametrize("value", ["x", None, 3, [(1, 2)]])
    def test_linear_extensions_names_a_non_graph(self, value):
        with pytest.raises(GraphError, match=rf"^g must be an OrderedDag, got {re.escape(repr(value))}$"):
            oracle_linear_extensions(value)

    @pytest.mark.parametrize("value", ["x", None, 3, [(1, 2)]])
    def test_is_minimal_names_a_non_graph(self, value):
        with pytest.raises(GraphError, match=rf"^g must be an OrderedDag, got {re.escape(repr(value))}$"):
            oracle_is_minimal(value, 1, 1)
