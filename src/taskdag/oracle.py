"""Brute-force ground truth at desk scale.

Everything here recomputes results from first principles (exhaustive subset
enumeration, per-edge removal by definition, permutation filtering, exact
probability flow of process runs over edge sets) so the closed forms and the
fast routines have an independent check.  The flow shares one piece with the
processes, their cancel rule (``processes._thresholds``): it checks the
dynamics built on that rule, and the tests hold the rule itself to reference
loops, one edge at a time.  Every enumerated extremal verdict but one, and
every enumeration filtered by profile or minimality, reads one cached table
of per-graph facts per order (``_facts_by_mask``); the largest addition
result comes from a densest-first search over edge sets for a graph the
process halts on.  The table is built once per process in numpy columns over
all masks of the order, about 0.4 ms at n = 5 and 10 ms at n = 6, so the
first filtered enumeration at n = 6 pays for the whole table.  Its minimal
column is the definition, read off the table's own profile column: no
one-edge deletion leaves a graph's profile unchanged.  The tests hold that
column to ``oracle_is_minimal``, the per-graph definition.  Caps keep the
exponential searches bounded: enumeration and exact process distributions
stop at n <= 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import lcm
from typing import Iterator

import numpy as np

from .analysis import ExtremalKind
from .errors import CapacityError, DomainError, check_int
from .graph import OrderedDag, ordered_pairs
from .processes import ProcessKind, _thresholds

ENUMERATION_CAP = 6
EXTENSION_FILTER_CAP = 8


@dataclass(frozen=True)
class EnumerationScope:
    """What to enumerate: order n, optional (x, y) profile filter, minimality filter."""

    n: int
    profile: tuple[int, int] | None = None
    minimal_only: bool = False

    def validate(self) -> None:
        check_int(DomainError, n=self.n)
        if type(self.minimal_only) is not bool:
            raise DomainError(f"minimal_only must be a bool, got {self.minimal_only!r}")
        if self.profile is not None:
            if type(self.profile) is not tuple or len(self.profile) != 2:
                raise DomainError(f"profile must be None or a pair (x, y), got {self.profile!r}")
            check_int(DomainError, x=self.profile[0], y=self.profile[1])
        if self.n > ENUMERATION_CAP:
            raise CapacityError(
                f"enumeration is capped at n <= {ENUMERATION_CAP}, got n = {self.n}"
            )


def enumerate_graphs(scope: EnumerationScope) -> Iterator[OrderedDag]:
    """Yield every order-respecting labeled graph on scope.n vertices once,
    in mask order.  A filtered scope reads each graph's profile and
    minimality off the per-order facts table (``_facts_by_mask``) and builds
    only the graphs it yields."""
    scope.validate()
    n, pairs = scope.n, ordered_pairs(scope.n)
    if scope.profile is None and not scope.minimal_only:
        for mask in range(1 << len(pairs)):
            yield _graph_from_mask(n, pairs, mask)
        return
    for mask, (_, sources, sinks, minimal, _) in enumerate(_facts_by_mask(n)):
        if scope.profile in (None, (sources, sinks)) and (minimal or not scope.minimal_only):
            yield _graph_from_mask(n, pairs, mask)


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
    check_int(DomainError, x=x, y=y)
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


@lru_cache(maxsize=8)
def _facts_by_mask(n: int) -> list[_Facts]:
    """Every graph's facts, in mask order, computed a column at a time over
    all masks: row i of ``present`` marks the masks that hold pair i.  A
    graph is minimal when deleting any of its edges changes its profile,
    read off the same masks' profile column."""
    pairs = ordered_pairs(n)
    masks = np.arange(1 << len(pairs))
    present = (masks >> np.arange(len(pairs))[:, None] & 1).astype(bool)
    indeg = np.zeros((n, masks.size), np.int8)  # row v - 1 is vertex v
    outdeg = np.zeros_like(indeg)
    for (a, b), bit in zip(pairs, present):
        indeg[b - 1] += bit
        outdeg[a - 1] += bit
    sources = (indeg == 0).sum(0, dtype=np.int8)
    sinks = (outdeg == 0).sum(0, dtype=np.int8)
    del indeg, outdeg
    profile = sources * np.int8(n + 1) + sinks
    minimal = np.ones(masks.size, bool)
    for i, bit in enumerate(present):
        minimal &= ~bit | (profile[masks ^ 1 << i] != profile)
    # each vertex takes the least label across its edges; an absent edge adds
    # n, past every label, and n - 1 sweeps carry a component's least vertex
    # along any path of it
    label = np.arange(n, dtype=np.int8)[:, None].repeat(masks.size, 1)
    far = np.where(present, np.int8(0), np.int8(n))
    for _ in range(n - 1):
        for (a, b), gap in zip(pairs, far):
            np.minimum(label[b - 1], label[a - 1] + gap, out=label[b - 1])
            np.minimum(label[a - 1], label[b - 1] + gap, out=label[a - 1])
    components = (label == np.arange(n, dtype=np.int8)[:, None]).sum(0, dtype=np.int8)
    edge_count = present.sum(0, dtype=np.int8)
    del masks, present, profile, label, far
    return list(zip(
        edge_count.tolist(), sources.tolist(), sinks.tolist(), minimal.tolist(), components.tolist()
    ))


def oracle_extremal(kind: ExtremalKind, x: int, y: int, n: int) -> int:
    """Recompute an extremal value by exhaustive search over all graphs."""
    EnumerationScope(n=n).validate()
    check_int(DomainError, x=x, y=y)
    if not isinstance(kind, ExtremalKind):
        raise DomainError(f"unknown extremal kind {kind!r}")
    if kind is ExtremalKind.MAX_ADDITION_RESULT_EDGES:
        return _max_addition_result_edges(x, y, n)
    pairs = ordered_pairs(n)
    values: list[int] = []
    for mask, (edge_count, sources, sinks, minimal, component_count) in enumerate(
        _facts_by_mask(n)
    ):
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
        elif kind is ExtremalKind.MAX_ORDERINGS:
            values.append(oracle_linear_extensions(_graph_from_mask(n, pairs, mask)))
    if not values:
        raise DomainError(f"no qualifying ({x}, {y}) graphs of order {n} exist")
    return min(values) if kind is ExtremalKind.MIN_EDGES else max(values)


def _max_addition_result_edges(x: int, y: int, n: int) -> int:
    """Largest halt-state edge count of the (x, y) addition process: the
    first edge count, densest first, at which some edge set is a result.

    A graph G of profile (x, y) is a possible result exactly when it is empty
    with (x, y) = (n, n), where the run halts at once, or it has an edge e
    whose deletion changes its profile (e's head has in-degree 1 or its tail
    out-degree 1).  Sources and sinks only fall as edges are added, so every
    subgraph of G has at least x sources and y sinks, and the cancel rule
    never fires on an edge of G.  Every subgraph of G - e has at least the
    sources and sinks of G - e, whose profile is not (x, y), so adding G - e
    edge by edge, each a legal move of positive probability, never halts, and
    adding e last halts at G.  Conversely, the last edge added to a non-empty
    result took the profile to (x, y), so deleting it changes the profile."""
    pairs = ordered_pairs(n)
    for k in range(len(pairs), -1, -1):
        for edges in combinations(pairs, k):
            indeg, outdeg = [0] * (n + 1), [0] * (n + 1)
            for a, b in edges:
                indeg[b] += 1
                outdeg[a] += 1
            # index 0 of the degree lists is no vertex, but counts as a zero
            if (indeg.count(0) - 1, outdeg.count(0) - 1) == (x, y) and (
                not edges or any(indeg[b] == 1 or outdeg[a] == 1 for a, b in edges)
            ):
                return k
    raise DomainError(
        f"the ({x}, {y}) addition process on {n} vertices never halts on an ({x}, {y}) graph"
    )


@dataclass(frozen=True)
class ExactDistribution:
    """Exact halt-state law of a process, keyed by (sources, sinks, edges)."""

    outcomes: dict[tuple[int, int, int], Fraction]
    expected_edges: Fraction


def exact_process_distribution(
    kind: ProcessKind, x: int, y: int, n: int
) -> ExactDistribution:
    """Exact outcome law by probability flow over edge sets.  A proposal
    blocked once stays blocked, so each accepted move is uniform over the
    moves legal at that state: the edges to remove (add) whose ends both
    pass the processes' cancel rule (``processes._thresholds``), and for
    addition none at the exact (x, y) profile, where the process halts.  Mass
    flows one edge count at a time, an integer per edge set, and settles
    where no move is left."""
    if not isinstance(kind, ProcessKind):
        raise DomainError(f"unknown process kind {kind!r}")
    if kind is not ProcessKind.REMOVAL and kind is not ProcessKind.ADDITION:
        raise DomainError(f"exact distributions cover removal and addition only, got {kind!r}")
    check_int(DomainError, x=x, y=y, n=n)
    if n < max(x, y):
        raise DomainError(f"requires n >= max(x, y), got n = {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"exact distributions are capped at n <= {ENUMERATION_CAP}, got n = {n}"
        )
    removal = kind is ProcessKind.REMOVAL
    pairs = ordered_pairs(n)
    n_pairs = len(pairs)
    scale = lcm(*range(1, n_pairs + 1))  # every move count divides it
    # the rule's threshold for each count of sources (sinks), 0..n
    by_sources, by_sinks = _thresholds(np.arange(n + 1), np.array([[x], [y]]), removal).tolist()
    level, denom = {(1 << n_pairs) - 1 if removal else 0: 1}, 1  # integer weights over denom
    outcomes: dict[tuple[int, int, int], Fraction] = {}
    while level:
        nxt: dict[int, int] = {}
        for mask, weight in level.items():
            g = _graph_from_mask(n, pairs, mask)
            indeg, outdeg = g._indeg, g._outdeg
            sources, sinks = indeg.count(0) - 1, outdeg.count(0) - 1  # vertex 0 is no vertex
            moves = []
            if removal or (sources, sinks) != (x, y):  # an addition at exactly (x, y) halts
                above_in, above_out = by_sources[sources], by_sinks[sinks]
                moves = [
                    mask ^ 1 << i
                    for i, (a, b) in enumerate(pairs)
                    if (mask >> i & 1) == removal and indeg[b] > above_in and outdeg[a] > above_out
                ]
            if not moves:
                key = (sources, sinks, g.edge_count)
                outcomes[key] = outcomes.get(key, 0) + Fraction(weight, denom)
                continue
            share = weight * (scale // len(moves))
            for child in moves:
                nxt[child] = nxt.get(child, 0) + share
        level, denom = nxt, denom * scale
    expected = sum((key[2] * p for key, p in outcomes.items()), Fraction(0))
    return ExactDistribution(outcomes=dict(sorted(outcomes.items())), expected_edges=expected)
