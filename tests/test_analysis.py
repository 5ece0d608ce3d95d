import math
from fractions import Fraction

import pytest
from hypothesis import given

from taskdag.analysis import (
    ExtremalKind,
    StructureLabel,
    classify_extremal,
    expected_tree_path_length,
    extremal_value,
    find_removable_path,
    is_minimal_xy,
    removal_density_limit,
    remove_removable_path,
    retention_probability_bound,
)
from taskdag.errors import CapacityError, DomainError
from taskdag.families import densest_connected_minimal_graph, densest_minimal_graph
from taskdag.graph import OrderedDag, complete_graph, empty_graph

from .conftest import ordered_dags

K = ExtremalKind


class TestExtremalValue:
    @pytest.mark.parametrize(
        "kind,x,y,n,expected",
        [
            (K.MAX_MINIMAL_EDGES, 1, 1, 10, 16),
            (K.MAX_MINIMAL_EDGES, 3, 2, 4, 2),
            (K.MAX_MINIMAL_EDGES, 2, 2, 2, 0),
            (K.MIN_EDGES, 2, 3, 7, 5),
            (K.MAX_EDGES, 2, 3, 4, 2),
            (K.MAX_EDGES, 1, 1, 4, 6),
            (K.MAX_ADDITION_RESULT_EDGES, 2, 1, 5, 9),
            (K.MAX_ADDITION_RESULT_EDGES, 1, 1, 3, 3),
            (K.MAX_CONNECTED_MINIMAL_EDGES, 3, 1, 4, 3),
            (K.MAX_CONNECTED_MINIMAL_EDGES, 2, 2, 6, 6),
            (K.MAX_ORDERINGS, 1, 1, 5, 6),
            (K.MAX_ORDERINGS, 3, 2, 4, 8),
            (K.MAX_ORDERINGS, 2, 2, 2, 2),
            (K.MAX_ORDERINGS, 3, 1, 5, math.factorial(5) // (2 * 5)),
        ],
    )
    def test_values(self, kind, x, y, n, expected):
        assert extremal_value(kind, x, y, n) == expected

    def test_max_minimal_shrinks_near_boundary(self):
        # one vertex above the minimum order allows one extra edge
        assert extremal_value(K.MAX_MINIMAL_EDGES, 2, 2, 3) == 2 * 3 - 2 - 2 - 1
        assert extremal_value(K.MAX_MINIMAL_EDGES, 2, 2, 4) == 2 * 4 - 2 - 2 - 2

    @pytest.mark.parametrize(
        "kind,x,y,n",
        [
            (K.MAX_MINIMAL_EDGES, 3, 2, 3),
            (K.MAX_MINIMAL_EDGES, 2, 2, 1),
            (K.MIN_EDGES, 2, 2, 2),
            (K.MAX_EDGES, 3, 2, 3),
            (K.MAX_ADDITION_RESULT_EDGES, 2, 1, 3),
            (K.MAX_CONNECTED_MINIMAL_EDGES, 2, 2, 4),
            (K.MAX_CONNECTED_MINIMAL_EDGES, 2, 1, 2),
            (K.MAX_ORDERINGS, 2, 2, 6),
            (K.MAX_ORDERINGS, 3, 2, 3),
        ],
    )
    def test_out_of_domain(self, kind, x, y, n):
        with pytest.raises(DomainError):
            extremal_value(kind, x, y, n)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            extremal_value(K.MIN_EDGES, 0, 1, 5)

    def test_symmetry_in_x_and_y(self):
        for kind in K:
            for x in range(1, 4):
                for y in range(1, 4):
                    for n in range(1, 8):
                        try:
                            a = extremal_value(kind, x, y, n)
                        except DomainError:
                            with pytest.raises(DomainError):
                                extremal_value(kind, y, x, n)
                            continue
                        assert a == extremal_value(kind, y, x, n)


class TestMinimality:
    def test_path_minimal(self):
        assert is_minimal_xy(OrderedDag.from_edges(3, [(1, 2), (2, 3)]))

    def test_tournament_not_minimal(self):
        assert not is_minimal_xy(complete_graph(3))

    def test_family_minimal(self):
        assert is_minimal_xy(densest_minimal_graph(1, 1, 5))

    def test_empty_minimal(self):
        assert is_minimal_xy(empty_graph(4))


class TestRemovablePath:
    def test_first_chain_in_fan(self):
        assert find_removable_path(densest_minimal_graph(1, 1, 5)) == (1, 2, 5)

    def test_plain_path_has_none(self):
        assert find_removable_path(OrderedDag.from_edges(3, [(1, 2), (2, 3)])) is None

    def test_tournament_has_none(self):
        assert find_removable_path(complete_graph(4)) is None

    def test_long_chain(self):
        # 1 -> 2 -> 3 -> 5 and 1 -> 4 -> 5: chain through 2, 3 is removable
        g = OrderedDag.from_edges(5, [(1, 2), (2, 3), (3, 5), (1, 4), (4, 5)])
        assert find_removable_path(g) == (1, 2, 3, 5)

    def test_removal_keeps_minimality(self):
        g = densest_minimal_graph(1, 1, 5)
        path = find_removable_path(g)
        h = remove_removable_path(g, path)
        assert h.n == 4
        assert h.profile().counts == (1, 1)
        assert is_minimal_xy(h)

    def test_removal_result_is_smaller_fan(self):
        g = densest_minimal_graph(1, 1, 5)
        h = remove_removable_path(g, (1, 2, 5))
        assert h == densest_minimal_graph(1, 1, 4)

    def test_short_sequence_rejected(self):
        g = densest_minimal_graph(1, 1, 5)
        with pytest.raises(ValueError, match="at least 3"):
            remove_removable_path(g, (1, 5))

    def test_non_removable_rejected(self):
        g = OrderedDag.from_edges(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError, match="out-degree > 1"):
            remove_removable_path(g, (1, 2, 3))

    @given(ordered_dags(max_n=6))
    def test_minimal_graphs_follow_the_path_dichotomy(self, g):
        # a minimal graph either has a removable path or is an underlying forest
        if is_minimal_xy(g) and find_removable_path(g) is None:
            assert g.is_underlying_forest()


class TestClassifier:
    def test_all_isolated(self):
        case = classify_extremal(empty_graph(3), 3, 3)
        assert case.label is StructureLabel.ALL_ISOLATED

    def test_one_interior_path(self):
        case = classify_extremal(OrderedDag.from_edges(3, [(1, 2), (2, 3)]), 1, 1)
        assert case.label is StructureLabel.ONE_INTERIOR
        assert case.witness["p"] == 1 and case.witness["q"] == 1

    def test_many_interior_fan(self):
        case = classify_extremal(densest_connected_minimal_graph(1, 1, 6), 1, 1)
        assert case.label is StructureLabel.MANY_INTERIOR
        assert len(case.witness["interior"]) == 4

    def test_two_components(self):
        g = OrderedDag.from_edges(4, [(1, 3), (2, 4)])
        case = classify_extremal(g, 2, 2)
        assert case.label is StructureLabel.TWO_COMPONENTS_NO_INTERIOR

    def test_one_component_no_interior(self):
        g = OrderedDag.from_edges(3, [(1, 3), (2, 3)])
        case = classify_extremal(g, 2, 1)
        assert case.label is StructureLabel.ONE_COMPONENT_NO_INTERIOR

    def test_one_interior_with_side_edges(self):
        g = OrderedDag.from_edges(5, [(1, 3), (3, 5), (1, 4), (2, 5)])
        case = classify_extremal(g, 2, 2)
        assert case.label is StructureLabel.ONE_INTERIOR
        assert case.witness["side_terminals"] == (4,)
        assert case.witness["side_initials"] == (2,)

    def test_one_interior_star_hub(self):
        # two sources and two sinks all hanging off one interior vertex
        g = OrderedDag.from_edges(5, [(1, 3), (2, 3), (3, 4), (3, 5)])
        case = classify_extremal(g, 2, 2)
        assert case.label is StructureLabel.ONE_INTERIOR
        assert case.witness["p"] == 2 and case.witness["q"] == 2

    def test_sparse_graph_not_extremal(self):
        g = OrderedDag.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        assert classify_extremal(g, 1, 1).label is StructureLabel.NOT_EXTREMAL

    def test_non_minimal_not_extremal(self):
        assert classify_extremal(complete_graph(3), 1, 1).label is StructureLabel.NOT_EXTREMAL

    def test_profile_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            classify_extremal(empty_graph(3), 1, 1)

    def test_extremal_families_have_short_paths(self):
        for x, y, n in [(1, 1, 6), (2, 1, 6), (3, 2, 7), (2, 2, 8)]:
            g = densest_minimal_graph(x, y, n)
            assert classify_extremal(g, x, y).label is not StructureLabel.NOT_EXTREMAL
            assert g.longest_path_length() <= 2


class TestRationals:
    def test_retention_examples(self):
        assert retention_probability_bound(1, 2, 3) == 1
        assert retention_probability_bound(2, 3, 4) == Fraction(2, 3)

    def test_retention_top_row(self):
        for n in range(3, 12):
            expected = Fraction(2, n - 1) - Fraction(1, 2 * n - 3)
            assert retention_probability_bound(1, n, n) == expected

    def test_retention_within_unit_interval(self):
        for n in range(3, 10):
            for r in range(1, n):
                for s in range(r + 1, n + 1):
                    assert 0 <= retention_probability_bound(r, s, n) <= 1

    def test_retention_rejects_bad_ranges(self):
        with pytest.raises(DomainError):
            retention_probability_bound(2, 2, 4)
        with pytest.raises(DomainError):
            retention_probability_bound(1, 2, 2)

    def test_harmonic_values(self):
        assert expected_tree_path_length(1) == 0
        assert expected_tree_path_length(4) == Fraction(11, 6)

    def test_harmonic_recurrence(self):
        for k in range(1, 101):
            delta = expected_tree_path_length(k + 1) - expected_tree_path_length(k)
            assert delta == Fraction(1, k)

    def test_density_limit(self):
        value = removal_density_limit()
        assert abs(value - 1.6137) < 1e-3
        assert 1.349 < value < 2


class TestMaxOrderingsCap:
    def test_order_past_the_cap_is_refused_before_any_factorial(self, monkeypatch):
        import taskdag.analysis

        def refuse(k):
            raise AssertionError(f"factorial({k}) was computed")

        monkeypatch.setattr(taskdag.analysis, "factorial", refuse)
        for x, y, n in [(1, 1, 10**7), (10**7, 10**7, 10**7), (2, 1, 1001)]:
            with pytest.raises(CapacityError, match=r"max-orderings is capped at n <= 1000, got n = "):
                extremal_value(K.MAX_ORDERINGS, x, y, n)

    def test_order_at_the_cap_still_has_its_value(self):
        assert extremal_value(K.MAX_ORDERINGS, 1, 1, 1000) == math.factorial(998)
