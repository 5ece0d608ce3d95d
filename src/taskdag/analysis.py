"""Closed-form extremal values, minimality tools, and the structure classifier.

Every closed form refuses parameters outside its proven domain rather than
extrapolating; rational-valued quantities are computed exactly and only
converted to float by callers that present them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb, factorial

from .errors import CapacityError, DomainError, GraphError, check_int
from .graph import MAX_ORDER, OrderedDag, VertexProfile, _check_graph

__all__ = [
    "ExtremalKind",
    "StructureLabel",
    "StructureCase",
    "extremal_value",
    "is_minimal_xy",
    "find_removable_path",
    "remove_removable_path",
    "classify_extremal",
    "retention_probability_bound",
    "expected_tree_path_length",
    "removal_density_limit",
]


class ExtremalKind(str, Enum):
    """Closed-form extremal quantities, each with its own (x, y, n) domain."""

    MAX_MINIMAL_EDGES = "max-minimal-edges"
    MIN_EDGES = "min-edges"
    MAX_EDGES = "max-edges"
    MAX_ADDITION_RESULT_EDGES = "max-addition-result-edges"
    MAX_CONNECTED_MINIMAL_EDGES = "max-connected-minimal-edges"
    MAX_ORDERINGS = "max-orderings"


def extremal_value(kind: ExtremalKind, x: int, y: int, n: int) -> int:
    """Evaluate the closed form for ``kind`` at (x, y, n).

    All forms are symmetric under swapping x and y; parameters outside the
    stated domain raise DomainError naming the missing case.
    """
    check_int(DomainError, x=x, y=y, n=n)
    hi, lo = max(x, y), min(x, y)

    if kind is ExtremalKind.MAX_MINIMAL_EDGES:
        if n < hi:
            raise DomainError(f"max-minimal-edges needs n >= max(x, y) = {hi}, got n = {n}")
        if n == hi:
            if x != y:
                raise DomainError(f"no ({x}, {y}) graph of order {n} exists")
            return 0
        if n == hi + 1:
            return 2 * n - x - y - 1
        return 2 * n - x - y - 2

    if kind is ExtremalKind.MIN_EDGES:
        if n <= hi:
            raise DomainError(f"min-edges needs n > max(x, y) = {hi}, got n = {n}")
        return n - lo

    if kind is ExtremalKind.MAX_EDGES:
        if n < hi:
            raise DomainError(f"max-edges needs n >= max(x, y) = {hi}, got n = {n}")
        if n == hi and x != y:
            raise DomainError(f"no ({x}, {y}) graph of order {n} exists")
        k = max(0, x + y - n)
        return comb(n - k, 2) - comb(x - k, 2) - comb(y - k, 2)

    if kind is ExtremalKind.MAX_ADDITION_RESULT_EDGES:
        if n <= x + y:
            raise DomainError(f"max-addition-result-edges needs n > x + y = {x + y}, got n = {n}")
        return comb(n, 2) + 1 - comb(hi, 2) - comb(lo + 1, 2)

    if kind is ExtremalKind.MAX_CONNECTED_MINIMAL_EDGES:
        if n == x + y and lo == 1:
            return hi
        if n > x + y:
            return 2 * n - x - y - 2
        raise DomainError(
            f"max-connected-minimal-edges needs n > x + y, or n = x + y with min(x, y) = 1; "
            f"got ({x}, {y}, {n})"
        )

    if kind is ExtremalKind.MAX_ORDERINGS:
        if n > MAX_ORDER:  # every form is a factorial in n
            raise CapacityError(f"max-orderings is capped at n <= {MAX_ORDER}, got n = {n}")
        if x == 1 and y == 1:
            return 1 if n == 1 else factorial(n - 2)
        if n == hi:
            if x != y:
                raise DomainError(f"no ({x}, {y}) graph of order {n} exists")
            return factorial(n)
        if n == hi + 1:
            return _exact_div(factorial(hi + 1), hi - lo + 2)
        if n == hi + 2:
            if lo > 1:
                return _exact_div(factorial(hi + 2), 2 * (hi - lo + 2))
            return _exact_div(factorial(hi + 2), 2 * (hi - lo + 3))
        raise DomainError(
            f"max-orderings is only known for x = y = 1, or max(x, y) <= n <= max(x, y) + 2; "
            f"got ({x}, {y}, {n})"
        )

    raise DomainError(f"unknown extremal kind {kind!r}")


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


def is_minimal_xy(g: OrderedDag) -> bool:
    """Per-edge minimality criterion: every edge (u, v) has out-degree(u) = 1 or in-degree(v) = 1.

    For a graph whose profile is exactly (x, y) this is equivalent to the
    definitional property that removing any single edge changes the profile.
    """
    _check_graph(g)
    return all(g.out_degree(u) == 1 or g.in_degree(v) == 1 for u, v in g._edges)


def find_removable_path(g: OrderedDag) -> tuple[int, ...] | None:
    """Smallest removable path, or None.

    A removable path v1..vk (k >= 3) has interior vertices of in- and
    out-degree exactly 1, out-degree(v1) > 1 and in-degree(vk) > 1.  The
    tie-break is the lexicographically smallest start, then the smallest
    second vertex; later vertices are forced because interiors have a unique
    successor.
    """
    _check_graph(g)
    succ: list[list[int]] = [[] for _ in range(g.n + 1)]
    indeg = [0] * (g.n + 1)
    for a, b in g._edges:
        succ[a].append(b)
        indeg[b] += 1
    for row in succ:
        row.sort()
    for start in range(1, g.n + 1):
        if len(succ[start]) <= 1:
            continue
        for second in succ[start]:
            if indeg[second] != 1 or len(succ[second]) != 1:
                continue
            chain = [start, second]
            cur = second
            while True:
                nxt = succ[cur][0]
                if indeg[nxt] > 1:
                    return tuple(chain + [nxt])
                if len(succ[nxt]) == 1:
                    chain.append(nxt)
                    cur = nxt
                else:
                    break
    return None


def remove_removable_path(g: OrderedDag, path: Sequence[int]) -> OrderedDag:
    """Delete a removable path's edges and interior vertices, relabeling 1..n'.

    Remaining vertices keep their relative order, so edges still satisfy
    a < b.  Raises GraphError if ``path`` is not removable in ``g``.
    """
    _check_graph(g)
    if not isinstance(path, Sequence):
        raise GraphError(f"path must be a sequence of vertices, got {path!r}")
    path = tuple(path)
    if len(path) < 3:
        raise GraphError(f"a removable path needs at least 3 vertices, got {len(path)}")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise GraphError(f"path edge ({a}, {b}) is not in the graph")
    for v in path[1:-1]:
        if g.in_degree(v) != 1 or g.out_degree(v) != 1:
            raise GraphError(f"interior path vertex {v} must have in- and out-degree 1")
    if g.out_degree(path[0]) <= 1:
        raise GraphError(f"path start {path[0]} must have out-degree > 1")
    if g.in_degree(path[-1]) <= 1:
        raise GraphError(f"path end {path[-1]} must have in-degree > 1")

    dropped = set(path[1:-1])
    path_edges = set(zip(path, path[1:]))
    keep = [v for v in range(1, g.n + 1) if v not in dropped]
    rank = {v: i + 1 for i, v in enumerate(keep)}
    out = OrderedDag(len(keep))
    for a, b in g.edges():
        if (a, b) in path_edges:
            continue
        out.add_edge(rank[a], rank[b])
    return out


class StructureLabel(str, Enum):
    """Shapes taken by the minimal (x, y) graphs with the maximum edge count."""

    ALL_ISOLATED = "all-isolated"
    TWO_COMPONENTS_NO_INTERIOR = "two-components-no-interior"
    ONE_COMPONENT_NO_INTERIOR = "one-component-no-interior"
    MANY_INTERIOR = "many-interior"
    ONE_INTERIOR = "one-interior"
    NOT_EXTREMAL = "not-extremal"


@dataclass(frozen=True)
class StructureCase:
    label: StructureLabel
    witness: dict = field(default_factory=dict)


def classify_extremal(g: OrderedDag, x: int, y: int) -> StructureCase:
    """Match ``g`` against the shapes of edge-maximal minimal (x, y) graphs.

    Requires the profile of ``g`` to be exactly (x, y).  Returns a labeled
    case with the witnessing vertex roles, or NOT_EXTREMAL when the graph is
    not minimal with the maximum edge count for its parameters.
    """
    _check_graph(g)
    check_int(DomainError, x=x, y=y)
    prof = g.profile()
    if not prof.matches(x, y):
        raise DomainError(f"graph profile {prof.counts} does not match the requested ({x}, {y})")
    target = extremal_value(ExtremalKind.MAX_MINIMAL_EDGES, x, y, g.n)
    not_extremal = StructureCase(StructureLabel.NOT_EXTREMAL)
    if g.edge_count != target or not is_minimal_xy(g):
        return not_extremal

    components = g.underlying_components()
    big = [c for c in components if len(c) > 1]
    interior = sorted(prof.interior)

    if not big:
        return StructureCase(StructureLabel.ALL_ISOLATED, {"order": g.n})

    if len(big) == 2:
        if interior:
            return not_extremal
        return StructureCase(
            StructureLabel.TWO_COMPONENTS_NO_INTERIOR,
            {"components": (tuple(big[0]), tuple(big[1]))},
        )

    if len(big) != 1:
        return not_extremal
    component = tuple(big[0])

    if not interior:
        return StructureCase(StructureLabel.ONE_COMPONENT_NO_INTERIOR, {"component": component})

    if len(interior) == 1:
        return _classify_one_interior(g, prof, interior[0], component, not_extremal)
    return _classify_many_interior(g, prof, interior, component, not_extremal)


def _classify_one_interior(
    g: OrderedDag,
    prof: VertexProfile,
    w: int,
    component: tuple[int, ...],
    not_extremal: StructureCase,
) -> StructureCase:
    feeders = g.predecessors(w)
    drains = g.successors(w)
    p, q = len(feeders), len(drains)
    if not all(v in prof.initial for v in feeders):
        return not_extremal
    if not all(v in prof.terminal for v in drains):
        return not_extremal
    # p > 1: the feeding sources touch nothing but the interior vertex (dually for q)
    if p > 1 and any(g.out_degree(u) != 1 for u in feeders):
        return not_extremal
    if q > 1 and any(g.in_degree(v) != 1 for v in drains):
        return not_extremal
    side_sinks = []
    side_sources = []
    for a, b in g.edges():
        if a == w or b == w:
            continue
        if p == 1 and a == feeders[0] and b in prof.terminal:
            side_sinks.append(b)
        elif q == 1 and b == drains[0] and a in prof.initial:
            side_sources.append(a)
        else:
            return not_extremal
    return StructureCase(
        StructureLabel.ONE_INTERIOR,
        {
            "interior": w,
            "p": p,
            "q": q,
            "feeding_initials": feeders,
            "fed_terminals": drains,
            "side_terminals": tuple(side_sinks),
            "side_initials": tuple(side_sources),
            "component": component,
        },
    )


def _classify_many_interior(
    g: OrderedDag,
    prof: VertexProfile,
    interior: list[int],
    component: tuple[int, ...],
    not_extremal: StructureCase,
) -> StructureCase:
    first = interior[0]
    feeders = g.predecessors(first)
    drains = g.successors(first)
    if len(feeders) != 1 or len(drains) != 1:
        return not_extremal
    hub_src, hub_snk = feeders[0], drains[0]
    for w in interior:
        if g.predecessors(w) != (hub_src,) or g.successors(w) != (hub_snk,):
            return not_extremal
    if hub_src not in prof.initial or hub_snk not in prof.terminal:
        return not_extremal
    side_sinks = []
    side_sources = []
    interior_set = set(interior)
    for a, b in g.edges():
        if b in interior_set or a in interior_set:
            continue
        if a == hub_src and b in prof.terminal:
            side_sinks.append(b)
        elif b == hub_snk and a in prof.initial:
            side_sources.append(a)
        else:
            return not_extremal
    return StructureCase(
        StructureLabel.MANY_INTERIOR,
        {
            "hub_initial": hub_src,
            "hub_terminal": hub_snk,
            "interior": tuple(interior),
            "side_terminals": tuple(side_sinks),
            "side_initials": tuple(side_sources),
            "component": component,
        },
    )


def retention_probability_bound(r: int, s: int, n: int) -> Fraction:
    """Upper bound on the chance that edge (r, s) survives the (1, 1) removal process.

    Exact rational 1/(s-1) + 1/(n-r) - 1/(n-2+s-r); always within [0, 1] on
    the valid range 1 <= r < s <= n with n >= 3.
    """
    check_int(DomainError, r=r, s=s, n=n)
    if not (n >= 3 and 1 <= r < s <= n):
        raise DomainError(f"requires 1 <= r < s <= n and n >= 3, got ({r}, {s}, {n})")
    return Fraction(1, s - 1) + Fraction(1, n - r) - Fraction(1, n - 2 + s - r)


def expected_tree_path_length(k: int) -> Fraction:
    """Expected 1 -> k path length in a random recursive attachment tree.

    Equals the harmonic number 1 + 1/2 + ... + 1/(k-1); zero for k = 1.
    """
    check_int(DomainError, k=k)
    return sum((Fraction(1, i) for i in range(1, k)), Fraction(0))


def removal_density_limit() -> float:
    """Limiting upper bound for (mean final edges)/n of the (1, 1) removal process."""
    return 3.0 - 2.0 * math.log(2.0)
