"""Brute-force ground truth at desk scale.

Everything here recomputes results from first principles (exhaustive subset
enumeration, per-edge removal by definition, permutation filtering, exact
probability flow of process runs over edge sets) so the closed forms and the
fast routines have an independent check.  The flow shares one piece with the
processes, their cancel rule (``processes._thresholds``): it checks the
dynamics built on that rule, and the tests hold the rule itself to reference
loops, one edge at a time.  Its states are edge masks, whose degrees it reads
off per-vertex head and tail bit masks; it builds no graph.  Every
enumeration and every enumerated extremal verdict reads one cached table of
per-graph facts per order (``_facts_by_mask``): read-only numpy columns over
all masks of the order, built once per process, about 0.4 ms at n = 5 and
10 ms at n = 6.  A verdict or a scope is one boolean row mask over those
columns; no Python loop visits the rows.  The minimal and result columns
are definitions, read off the table's own profile column: no one-edge
deletion leaves a minimal graph's profile unchanged, and some one-edge
deletion changes a non-empty result's.  The tests hold every column to
per-graph re-profiling.  Task orderings are counted by filtering all n!
vertex permutations against one cached table per order
(``_reversed_pairs``): one int64 per permutation holding the bits of the
pairs it puts in reverse order, so the permutations that keep a graph's
edges in order are the rows that miss its edge mask.  The table is read off
raw permutation positions, independent of the subset DP in
``OrderedDag.count_linear_extensions`` and of the closed forms.  The largest
count of an (x, y) profile filters all of its masks at once, a bounded chunk
at a time.  Caps keep the exponential searches bounded: enumeration and
exact process distributions stop at n <= 6, permutation filtering at
n <= 8, where the table has 40320 rows.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations
from math import lcm
from typing import Iterator

import numpy as np

from .analysis import ExtremalKind
from .errors import CapacityError, DomainError, check_int
from .graph import OrderedDag, _check_graph, ordered_pairs
from .processes import ProcessKind, _thresholds

ENUMERATION_CAP = 6
EXTENSION_FILTER_CAP = 8
# (mask, permutation) entries per ordering-count broadcast: all of n = 6's
# (1, 1) graphs in one broadcast peaked at 21.8 MB, in chunks at 0.8 MB
_FILTER_CHUNK = 1 << 16


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
    in mask order.  Every scope reads its graphs' profiles and minimality
    off the per-order facts table (``_facts_by_mask``) and builds only the
    graphs it yields."""
    scope.validate()
    n, minimal = scope.n, _facts_by_mask(scope.n).minimal
    keep = np.ones_like(minimal) if scope.profile is None else _profile_rows(n, *scope.profile)
    if scope.minimal_only:
        keep &= minimal
    pairs = ordered_pairs(n)
    for mask in np.flatnonzero(keep).tolist():
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
    _check_graph(g)
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
def _reversed_pairs(n: int) -> np.ndarray:
    """One int64 per permutation of 1..n: the bits of the ``ordered_pairs(n)``
    entries (a, b) it puts in reverse order, b before a.  A row is the
    positions of vertices 1..n, and the rows run over every permutation, so
    a graph with edge mask M is in order under exactly the rows with
    ``row & M == 0``."""
    positions = np.fromiter(chain.from_iterable(permutations(range(n))), np.int8).reshape(-1, n)
    reversed_bits = np.zeros(len(positions), np.int64)
    for i, (a, b) in enumerate(ordered_pairs(n)):
        reversed_bits |= (positions[:, a - 1] > positions[:, b - 1]).astype(np.int64) << i
    return reversed_bits


def _max_orderings(n: int, masks: np.ndarray) -> int:
    """The most permutations of 1..n that keep every edge of one of
    ``masks`` in order, filtered a chunk of masks at a time so that no
    broadcast holds more than ``_FILTER_CHUNK`` (mask, permutation) entries."""
    table = _reversed_pairs(n)
    column = np.array(masks, np.int64)[:, None]
    step = max(1, _FILTER_CHUNK // table.size)
    return max(
        int(np.count_nonzero((table & column[i:i + step]) == 0, axis=1).max())
        for i in range(0, len(column), step)
    )


def oracle_linear_extensions(g: OrderedDag) -> int:
    """Count task orderings by filtering all n! vertex permutations."""
    _check_graph(g)
    if g.n > EXTENSION_FILTER_CAP:
        raise CapacityError(
            f"permutation filtering is capped at n <= {EXTENSION_FILTER_CAP}, got n = {g.n}"
        )
    mask = sum(1 << i for i, pair in enumerate(ordered_pairs(g.n)) if pair in g._edges)
    return int(np.count_nonzero((_reversed_pairs(g.n) & mask) == 0))


_Facts = namedtuple("_Facts", "edge_count sources sinks minimal components result")


@lru_cache(maxsize=8)
def _facts_by_mask(n: int) -> _Facts:
    """Every graph's facts in mask order, one read-only numpy column each
    (int8 counts, bool flags), computed a column at a time over all masks:
    row i of ``present`` marks the masks that hold pair i.  A graph is
    minimal when deleting any of its edges changes its profile, and a
    result, a halt state of the addition process for its own profile, when
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
    facts = _Facts(edge_count, sources, sinks, minimal, components, result)
    for column in facts:
        column.flags.writeable = False
    return facts


def _profile_rows(n: int, x: int, y: int) -> np.ndarray:
    """The facts table's rows of profile (x, y), a fresh boolean mask.  No
    graph of order n has n + 1 sources or sinks, so a larger x or y reads
    as n + 1, and no int past int8's range meets the columns."""
    facts = _facts_by_mask(n)
    return (facts.sources == min(x, n + 1)) & (facts.sinks == min(y, n + 1))


def oracle_extremal(kind: ExtremalKind, x: int, y: int, n: int) -> int:
    """Recompute an extremal value by exhaustive search over all graphs: the
    facts table's rows of profile (x, y) that the kind admits."""
    EnumerationScope(n=n).validate()
    check_int(DomainError, x=x, y=y)
    if not isinstance(kind, ExtremalKind):
        raise DomainError(f"unknown extremal kind {kind!r}")
    facts, keep = _facts_by_mask(n), _profile_rows(n, x, y)
    if kind is ExtremalKind.MAX_MINIMAL_EDGES or kind is ExtremalKind.MAX_CONNECTED_MINIMAL_EDGES:
        keep &= facts.minimal
    if kind is ExtremalKind.MAX_CONNECTED_MINIMAL_EDGES:
        keep &= facts.components == 1
    if kind is ExtremalKind.MAX_ADDITION_RESULT_EDGES:
        keep &= facts.result
    if not keep.any() and kind is ExtremalKind.MAX_ADDITION_RESULT_EDGES:
        raise DomainError(f"the ({x}, {y}) addition process on {n} vertices never halts on an ({x}, {y}) graph")
    if not keep.any():
        raise DomainError(f"no qualifying ({x}, {y}) graphs of order {n} exist")
    if kind is ExtremalKind.MAX_ORDERINGS:
        return _max_orderings(n, np.flatnonzero(keep))
    edge_counts = facts.edge_count[keep]
    return int(edge_counts.min() if kind is ExtremalKind.MIN_EDGES else edge_counts.max())


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
