"""Brute-force ground truth at desk scale.

Everything here recomputes results from first principles (exhaustive subset
enumeration, per-edge removal by definition, permutation filtering, exact
probability flow of process runs over edge sets) so the closed forms and the
fast routines have an independent check.  The flow shares one piece with the
processes, their cancel rule (``processes._thresholds``): it checks the
dynamics built on that rule, and the tests hold the rule itself to reference
loops, one edge at a time.  Its states are edge masks, whose degrees it reads
off per-vertex head and tail bit masks; it builds no graph.  Every enumerated
extremal verdict, and every enumeration filtered by profile or minimality,
reads one cached table of per-graph facts per order (``_facts_by_mask``).
The table is built once per process in numpy columns over all masks of the
order, about 0.4 ms at n = 5 and 10 ms at n = 6, so the first filtered
enumeration at n = 6 pays for the whole table.  Its minimal and result
columns are definitions, read off the table's own profile column: no
one-edge deletion leaves a minimal graph's profile unchanged, and some
one-edge deletion changes a non-empty result's.  The tests hold both columns
to per-graph re-profiling.  Caps keep the exponential searches bounded:
enumeration and exact process distributions stop at n <= 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
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
    any_profile, (x, y) = scope.profile is None, scope.profile or (0, 0)
    for mask, (_, sources, sinks, minimal, _, _) in enumerate(_facts_by_mask(n)):
        # two int compares, not a (sources, sinks) tuple per row
        if (any_profile or (sources == x and sinks == y)) and (minimal or not scope.minimal_only):
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


@lru_cache(maxsize=8)
def _facts_by_mask(n: int) -> list[tuple[int, int, int, bool, int, bool]]:
    """Every graph's facts (edge_count, sources, sinks, minimal,
    component_count, result), in mask order, computed a column at a time over
    all masks: row i of ``present`` marks the masks that hold pair i.  A
    graph is minimal when deleting any of its edges changes its profile, and
    a result, a halt state of the addition process for its own profile, when
    it is empty or deleting some edge changes its profile: both columns are
    read off the same masks' profile column.

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
    minimal, result = np.ones(masks.size, bool), masks == 0
    for i, bit in enumerate(present):
        changes = profile[masks ^ 1 << i] != profile
        minimal &= ~bit | changes
        result |= bit & changes
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
    columns = edge_count, sources, sinks, minimal, components, result
    return list(zip(*(column.tolist() for column in columns)))


def oracle_extremal(kind: ExtremalKind, x: int, y: int, n: int) -> int:
    """Recompute an extremal value by exhaustive search over all graphs."""
    EnumerationScope(n=n).validate()
    check_int(DomainError, x=x, y=y)
    if not isinstance(kind, ExtremalKind):
        raise DomainError(f"unknown extremal kind {kind!r}")
    pairs = ordered_pairs(n)
    values: list[int] = []
    for mask, (edge_count, sources, sinks, minimal, component_count, result) in enumerate(
        _facts_by_mask(n)
    ):
        if sources != x or sinks != y:  # no (sources, sinks) tuple per row: it doubled the scan
            continue
        if kind is ExtremalKind.MAX_MINIMAL_EDGES:
            if minimal:
                values.append(edge_count)
        elif kind is ExtremalKind.MIN_EDGES or kind is ExtremalKind.MAX_EDGES:
            values.append(edge_count)
        elif kind is ExtremalKind.MAX_CONNECTED_MINIMAL_EDGES:
            if minimal and component_count == 1:
                values.append(edge_count)
        elif kind is ExtremalKind.MAX_ADDITION_RESULT_EDGES:
            if result:
                values.append(edge_count)
        elif kind is ExtremalKind.MAX_ORDERINGS:
            values.append(oracle_linear_extensions(_graph_from_mask(n, pairs, mask)))
    if not values and kind is ExtremalKind.MAX_ADDITION_RESULT_EDGES:
        raise DomainError(f"the ({x}, {y}) addition process on {n} vertices never halts on an ({x}, {y}) graph")
    if not values:
        raise DomainError(f"no qualifying ({x}, {y}) graphs of order {n} exist")
    return min(values) if kind is ExtremalKind.MIN_EDGES else max(values)


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
    scale = lcm(*range(1, len(pairs) + 1))  # every move count divides it
    # the rule's threshold for each count of sources (sinks), 0..n
    by_sources, by_sinks = _thresholds(np.arange(n + 1), np.array([[x], [y]]), removal).tolist()
    # per vertex, the bits of the pairs it heads (tails); vertex 0 is no vertex
    head_bits, tail_bits = [0] * (n + 1), [0] * (n + 1)
    for i, (a, b) in enumerate(pairs):
        head_bits[b] |= 1 << i
        tail_bits[a] |= 1 << i
    level, denom = {(1 << len(pairs)) - 1 if removal else 0: 1}, 1  # integer weights over denom
    outcomes: dict[tuple[int, int, int], Fraction] = {}
    while level:
        nxt: dict[int, int] = {}
        for mask, weight in level.items():
            indeg = [(mask & bits).bit_count() for bits in head_bits]
            outdeg = [(mask & bits).bit_count() for bits in tail_bits]
            sources, sinks = indeg.count(0) - 1, outdeg.count(0) - 1
            moves = []
            if removal or (sources, sinks) != (x, y):  # an addition at exactly (x, y) halts
                above_in, above_out = by_sources[sources], by_sinks[sinks]
                moves = [
                    mask ^ 1 << i
                    for i, (a, b) in enumerate(pairs)
                    if (mask >> i & 1) == removal and indeg[b] > above_in and outdeg[a] > above_out
                ]
            if not moves:
                key = (sources, sinks, mask.bit_count())
                outcomes[key] = outcomes.get(key, 0) + Fraction(weight, denom)
                continue
            share = weight * (scale // len(moves))
            for child in moves:
                nxt[child] = nxt.get(child, 0) + share
        level, denom = nxt, denom * scale
    expected = sum((key[2] * p for key, p in outcomes.items()), Fraction(0))
    return ExactDistribution(outcomes=dict(sorted(outcomes.items())), expected_edges=expected)
