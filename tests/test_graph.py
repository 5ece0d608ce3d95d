import json

import pytest
from hypothesis import given

from taskdag.errors import CapacityError, GraphError
from taskdag.graph import MAX_ORDER, OrderedDag, complete_graph, empty_graph, ordered_pairs

from .conftest import ordered_dags


class TestConstructors:
    def test_empty_smallest(self):
        g = empty_graph(1)
        assert g.n == 1 and g.edge_count == 0
        assert g.profile().isolated == {1}

    def test_empty_profile_all_isolated(self):
        prof = empty_graph(5).profile()
        assert prof.initial == set(range(1, 6))
        assert prof.terminal == set(range(1, 6))
        assert prof.isolated == set(range(1, 6))

    def test_empty_longest_path(self):
        assert empty_graph(3).longest_path_length() == 0

    def test_bad_order_rejected(self):
        with pytest.raises(GraphError, match=rf"^n must lie in \[1, {MAX_ORDER}\], got 0$"):
            empty_graph(0)

    def test_complete_edge_counts(self):
        assert complete_graph(4).edge_count == 6
        assert complete_graph(2).edges() == [(1, 2)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_degrees_match_edge_by_edge_build(self, n):
        g = complete_graph(n)
        ref = OrderedDag.from_edges(n, ordered_pairs(n))
        for h in (g, g.copy()):
            assert h == ref
            assert [h.in_degree(v) for v in range(1, n + 1)] == [ref.in_degree(v) for v in range(1, n + 1)]
            assert [h.out_degree(v) for v in range(1, n + 1)] == [ref.out_degree(v) for v in range(1, n + 1)]

    def test_ordered_pairs_cache_is_bounded(self):
        assert ordered_pairs.cache_info().maxsize == 2
        assert ordered_pairs(40)[:2] == ((1, 2), (1, 3)) and len(ordered_pairs(40)) == 780

    def test_complete_bad_order_rejected(self):
        with pytest.raises(GraphError):
            complete_graph(True)

    def test_copy_is_independent(self):
        g = complete_graph(3)
        h = g.copy()
        h.remove_edge(1, 3)
        assert g.has_edge(1, 3) and g.out_degree(1) == 2 and h.out_degree(1) == 1

    def test_complete_profile(self):
        prof = complete_graph(5).profile()
        assert prof.initial == {1}
        assert prof.terminal == {5}
        assert prof.interior == {2, 3, 4}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_hamiltonian_path(self, n):
        assert complete_graph(n).longest_path_length() == n - 1


class TestEdgeOps:
    def test_add_updates_degrees(self):
        g = empty_graph(3)
        g.add_edge(1, 2)
        assert g.in_degree(2) == 1 and g.out_degree(1) == 1

    def test_add_wrong_order(self):
        g = empty_graph(3)
        with pytest.raises(GraphError, match="order violation"):
            g.add_edge(2, 1)

    def test_add_duplicate(self):
        g = empty_graph(3)
        g.add_edge(1, 2)
        with pytest.raises(GraphError, match="duplicate"):
            g.add_edge(1, 2)

    def test_add_out_of_range(self):
        g = empty_graph(3)
        with pytest.raises(GraphError, match="out of range"):
            g.add_edge(1, 4)

    @pytest.mark.parametrize("v", [2.0, "2", None, True])
    def test_non_integer_vertex_is_named_as_such(self, v):
        with pytest.raises(GraphError, match=rf"^vertex {v!r} is not an integer$"):
            OrderedDag.from_json(json.dumps({"n": 3, "edges": [[1, v]]}))

    def test_remove_missing(self):
        with pytest.raises(GraphError, match="absent"):
            empty_graph(3).remove_edge(1, 3)

    def test_remove_updates_profile(self):
        g = complete_graph(3)
        g.remove_edge(1, 2)
        assert g.profile().initial == {1, 2}

    def test_remove_leaves_path(self):
        g = complete_graph(3)
        g.remove_edge(1, 3)
        assert g.edges() == [(1, 2), (2, 3)]

    @given(ordered_dags())
    def test_add_remove_round_trip(self, g):
        absent = [pair for pair in ordered_pairs(g.n) if not g.has_edge(*pair)]
        before = g.edges()
        for a, b in absent[:3]:
            g.add_edge(a, b)
            g.remove_edge(a, b)
        assert g.edges() == before

    @given(ordered_dags())
    def test_profile_count_identity(self, g):
        prof = g.profile()
        assert len(prof.initial) + len(prof.terminal) - len(prof.isolated) + len(
            prof.interior
        ) == g.n

    @given(ordered_dags())
    def test_profile_never_empty(self, g):
        prof = g.profile()
        assert len(prof.initial) >= 1 and len(prof.terminal) >= 1


class TestAnalysisOps:
    def test_path_profile(self):
        g = OrderedDag.from_edges(3, [(1, 2), (2, 3)])
        prof = g.profile()
        assert (prof.initial, prof.terminal, prof.interior) == ({1}, {3}, {2})

    def test_linear_extensions_empty(self):
        assert empty_graph(4).count_linear_extensions() == 24

    def test_linear_extensions_total_order(self):
        g = OrderedDag.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        assert g.count_linear_extensions() == 1

    def test_linear_extensions_cap(self):
        with pytest.raises(CapacityError, match="n <= 20"):
            empty_graph(21).count_linear_extensions()

    def test_components_empty(self):
        assert empty_graph(3).underlying_components() == [[1], [2], [3]]

    def test_components_complete(self):
        assert complete_graph(4).underlying_components() == [[1, 2, 3, 4]]

    def test_forest_path(self):
        assert OrderedDag.from_edges(3, [(1, 2), (2, 3)]).is_underlying_forest()

    def test_forest_triangle(self):
        assert not complete_graph(3).is_underlying_forest()

    @given(ordered_dags())
    def test_forest_matches_component_count(self, g):
        expected = g.edge_count == g.n - len(g.underlying_components())
        assert g.is_underlying_forest() == expected

    @given(ordered_dags())
    def test_singleton_components_are_isolated(self, g):
        singles = {c[0] for c in g.underlying_components() if len(c) == 1}
        assert singles == g.profile().isolated


class TestSerialization:
    def test_json_bytes(self):
        g = OrderedDag.from_edges(3, [(2, 3), (1, 2)])
        assert g.to_json() == '{"n":3,"edges":[[1,2],[2,3]]}'

    def test_json_empty(self):
        assert empty_graph(2).to_json() == '{"n":2,"edges":[]}'

    def test_json_deterministic(self):
        g = complete_graph(4)
        assert g.to_json() == g.to_json()

    @given(ordered_dags())
    def test_json_round_trip(self, g):
        assert OrderedDag.from_json(g.to_json()) == g

    def test_json_rejects_garbage(self):
        with pytest.raises(GraphError, match="invalid graph JSON"):
            OrderedDag.from_json("{")

    def test_json_rejects_non_ascii_bytes(self):
        with pytest.raises(GraphError, match="ASCII"):
            OrderedDag.from_json('{"n":2,"edges":[]}\u00e9'.encode("utf-8"))

    def test_json_rejects_extra_fields(self):
        with pytest.raises(GraphError, match="exactly the fields"):
            OrderedDag.from_json('{"n":2,"edges":[],"weights":[]}')

    def test_json_rejects_bad_edge(self):
        with pytest.raises(GraphError, match="2-element integer array"):
            OrderedDag.from_json('{"n":3,"edges":[[1,2,3]]}')

    def test_json_rejects_unordered_edge(self):
        with pytest.raises(GraphError, match="order violation"):
            OrderedDag.from_json('{"n":3,"edges":[[2,1]]}')

    def test_dot_layout(self):
        g = OrderedDag.from_edges(3, [(1, 2), (2, 3)])
        assert g.to_dot() == "digraph {\n  1;\n  2;\n  3;\n  1 -> 2;\n  2 -> 3;\n}\n"

    def test_dot_deterministic(self):
        g = complete_graph(5)
        assert g.to_dot() == g.to_dot()


class TestLinearExtensionsAgainstFilter:
    @given(ordered_dags(max_n=6))
    def test_matches_permutation_filter(self, g):
        from taskdag.oracle import oracle_linear_extensions

        assert g.count_linear_extensions() == oracle_linear_extensions(g)

    def test_identity_topological_order_always_exists(self):
        # every representable edge respects the index order by construction
        g = complete_graph(6)
        order = {v: v for v in range(1, 7)}
        assert all(order[a] < order[b] for a, b in g.edges())
