"""Brute-force ground truth at desk scale.

Everything here recomputes results from first principles (exhaustive subset
enumeration, per-edge removal by definition, permutation filtering, full
permutation enumeration of process runs) so the closed forms and the fast
routines have an independent check.  Caps keep the exponential searches
bounded: n <= 6 by default, n = 7 behind an explicit flag, and permutation
enumeration only while binom(n, 2) <= 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Iterator

from .analysis import ExtremalKind
from .errors import CapacityError, DomainError, check_int
from .graph import OrderedDag, ordered_pairs
from .processes import ProcessKind, _State

DEFAULT_ENUMERATION_CAP = 6
GATED_ENUMERATION_CAP = 7
PERMUTATION_EDGE_CAP = 10
EXTENSION_FILTER_CAP = 8


@dataclass(frozen=True)
class EnumerationScope:
    """What to enumerate: order n, optional (x, y) profile filter, minimality filter."""

    n: int
    profile: tuple[int, int] | None = None
    minimal_only: bool = False
    allow_gated: bool = False

    def validate(self) -> None:
        cap = GATED_ENUMERATION_CAP if self.allow_gated else DEFAULT_ENUMERATION_CAP
        check_int(DomainError, n=self.n)
        if self.n > cap:
            raise CapacityError(
                f"enumeration is capped at n <= {DEFAULT_ENUMERATION_CAP} "
                f"(n = {GATED_ENUMERATION_CAP} with allow_gated), got n = {self.n}"
            )


def enumerate_graphs(scope: EnumerationScope) -> Iterator[OrderedDag]:
    """Yield every order-respecting labeled graph on scope.n vertices once."""
    scope.validate()
    pairs = ordered_pairs(scope.n)
    for mask in range(1 << len(pairs)):
        g = _graph_from_mask(scope.n, pairs, mask)
        if scope.profile is not None and g.profile().counts != scope.profile:
            continue
        if scope.minimal_only:
            x, y = g.profile().counts
            if not oracle_is_minimal(g, x, y):
                continue
        yield g


def _graph_from_mask(n: int, pairs: tuple[tuple[int, int], ...], mask: int) -> OrderedDag:
    edges = set()
    indeg = [0] * (n + 1)
    outdeg = [0] * (n + 1)
    m = mask
    while m:
        bit = m & -m
        a, b = pairs[bit.bit_length() - 1]
        edges.add((a, b))
        indeg[b] += 1
        outdeg[a] += 1
        m ^= bit
    return OrderedDag._adopt(n, edges, indeg, outdeg)


def oracle_is_minimal(g: OrderedDag, x: int, y: int) -> bool:
    """Definition-level minimality: profile is (x, y) and deleting any single
    edge changes it.  Each deletion is re-profiled from scratch."""
    if g.profile().counts != (x, y):
        return False
    edges = g.edges()
    for skipped in range(len(edges)):
        indeg = [0] * (g.n + 1)
        outdeg = [0] * (g.n + 1)
        for j, (a, b) in enumerate(edges):
            if j == skipped:
                continue
            indeg[b] += 1
            outdeg[a] += 1
        sources = sum(1 for v in range(1, g.n + 1) if indeg[v] == 0)
        sinks = sum(1 for v in range(1, g.n + 1) if outdeg[v] == 0)
        if (sources, sinks) == (x, y):
            return False
    return True


@lru_cache(maxsize=4)
def _all_orderings(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(1, n + 1)))


def oracle_linear_extensions(g: OrderedDag) -> int:
    """Count task orderings by filtering all n! vertex permutations."""
    if g.n > EXTENSION_FILTER_CAP:
        raise CapacityError(
            f"permutation filtering is capped at n <= {EXTENSION_FILTER_CAP}, got n = {g.n}"
        )
    pred_mask = [0] * (g.n + 1)
    for a, b in g._edges:
        pred_mask[b] |= 1 << a
    count = 0
    for perm in _all_orderings(g.n):
        seen = 0
        for v in perm:
            if pred_mask[v] & ~seen:
                break
            seen |= 1 << v
        else:
            count += 1
    return count


# per-graph facts: (edge_count, sources, sinks, minimal, component_count)
_Facts = tuple[int, int, int, bool, int]


def _graph_facts(g: OrderedDag) -> _Facts:
    sources, sinks = g.profile().counts
    return (
        g.edge_count,
        sources,
        sinks,
        oracle_is_minimal(g, sources, sinks),
        len(g.underlying_components()),
    )


@lru_cache(maxsize=8)
def _facts_by_mask(n: int) -> list[_Facts]:
    # cached for the default cap only; gated n = 7 streams instead
    pairs = ordered_pairs(n)
    return [
        _graph_facts(_graph_from_mask(n, pairs, mask)) for mask in range(1 << len(pairs))
    ]


def oracle_extremal(
    kind: ExtremalKind, x: int, y: int, n: int, allow_gated: bool = False
) -> int:
    """Recompute an extremal value by exhaustive search over all graphs."""
    EnumerationScope(n=n, allow_gated=allow_gated).validate()
    check_int(DomainError, x=x, y=y)
    if kind is ExtremalKind.MAX_ADDITION_RESULT_EDGES:
        return _max_addition_result_edges(x, y, n)
    if kind is ExtremalKind.MAX_ORDERINGS:
        best = -1
        scope = EnumerationScope(n=n, profile=(x, y), allow_gated=allow_gated)
        for g in enumerate_graphs(scope):
            best = max(best, oracle_linear_extensions(g))
        if best < 0:
            raise DomainError(f"no ({x}, {y}) graphs of order {n} exist")
        return best

    if n <= DEFAULT_ENUMERATION_CAP:
        facts = _facts_by_mask(n)
    else:
        scope = EnumerationScope(n=n, allow_gated=allow_gated)
        facts = (_graph_facts(g) for g in enumerate_graphs(scope))
    values: list[int] = []
    for edge_count, sources, sinks, minimal, component_count in facts:
        if (sources, sinks) != (x, y):
            continue
        if kind is ExtremalKind.MAX_MINIMAL_EDGES:
            if minimal:
                values.append(edge_count)
        elif kind is ExtremalKind.MIN_EDGES or kind is ExtremalKind.MAX_EDGES:
            values.append(edge_count)
        elif kind is ExtremalKind.MAX_CONNECTED_MINIMAL_EDGES:
            if minimal and component_count == 1:
                values.append(edge_count)
        else:
            raise DomainError(f"unknown extremal kind {kind!r}")
    if not values:
        raise DomainError(f"no qualifying ({x}, {y}) graphs of order {n} exist")
    return min(values) if kind is ExtremalKind.MIN_EDGES else max(values)


@lru_cache(maxsize=64)
def _max_addition_result_edges(x: int, y: int, n: int) -> int:
    """Largest halt-state edge count of the (x, y) addition process, by
    depth-first search over every reachable state.  An edge is a move from a
    state when a one-edge addition pass from that state accepts it."""
    n_pairs = len(ordered_pairs(n))
    seen = bytearray(1 << n_pairs)
    seen[0] = 1
    stack = [(0, _State(n, complete=False))]
    best = -1
    while stack:
        mask, state = stack.pop()
        if (state.sources, state.sinks) == (x, y):  # the process halts here
            best = max(best, state.edge_total)
            continue
        child = None
        for i in range(n_pairs):
            child_mask = mask | 1 << i
            if seen[child_mask]:  # also skips the edges already present
                continue
            if child is None:
                child = state.copy()
            child.addition_pass((i,), x, y)
            if child.edge_total > state.edge_total:
                seen[child_mask] = 1
                stack.append((child_mask, child))
                child = None  # a cancelled addition leaves the copy unchanged
    if best < 0:
        raise DomainError(
            f"the ({x}, {y}) addition process on {n} vertices never halts on an ({x}, {y}) graph"
        )
    return best


@dataclass(frozen=True)
class ExactDistribution:
    """Exact halt-state law of a process, keyed by (sources, sinks, edges)."""

    outcomes: dict[tuple[int, int, int], Fraction]
    expected_edges: Fraction


def exact_process_distribution(
    kind: ProcessKind, x: int, y: int, n: int
) -> ExactDistribution:
    """Run the permutation-order process on every one of binom(n, 2)! edge
    permutations and tally the exact outcome probabilities."""
    check_int(DomainError, x=x, y=y, n=n)
    if n < max(x, y):
        raise DomainError(f"requires n >= max(x, y), got n = {n}")
    pairs = ordered_pairs(n)
    if len(pairs) > PERMUTATION_EDGE_CAP:
        raise CapacityError(
            f"exact distributions are capped at binom(n, 2) <= {PERMUTATION_EDGE_CAP}, "
            f"got binom({n}, 2) = {len(pairs)}"
        )
    if kind is ProcessKind.REMOVAL:
        complete, run = True, _State.removal_pass
    elif kind is ProcessKind.ADDITION:
        complete, run = False, _State.addition_pass
    else:
        raise DomainError(f"exact distributions cover removal and addition only, got {kind!r}")
    tally: dict[tuple[int, int, int], int] = {}
    for order in permutations(range(len(pairs))):
        state = _State(n, complete)
        run(state, order, x, y)
        key = (state.sources, state.sinks, state.edge_total)
        tally[key] = tally.get(key, 0) + 1
    total = factorial(len(pairs))
    outcomes = {key: Fraction(count, total) for key, count in sorted(tally.items())}
    expected = sum(
        (Fraction(key[2] * count, total) for key, count in tally.items()), Fraction(0)
    )
    return ExactDistribution(outcomes=outcomes, expected_edges=expected)
