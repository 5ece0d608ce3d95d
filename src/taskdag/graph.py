"""Ordered task-dependency graphs: vertices 1..n, every edge (a, b) has a < b.

Because edges always point from a lower to a higher index, each graph is a
sub-digraph of the transitive tournament and is acyclic by construction; the
identity order 1, 2, ..., n is always a topological order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import CapacityError, GraphError, check_int

LINEAR_EXTENSION_CAP = 20
# The largest order of any graph or process.  Costs grow as n^2: at n = 1000 one
# `generate` run with x = y = 1 takes 0.44 s and peaks at 62 MB for removal, and
# 1.4 s and 112 MB for addition, most of it serializing the 275k edges it keeps;
# at n = 2000 0.65 s and 134 MB, and 8.3 s and 411 MB (2-vCPU VM).  Every order
# the tests, demos and benchmark use is below 300.
MAX_ORDER = 1000


@dataclass(frozen=True)
class VertexProfile:
    """Vertices partitioned by degree role.

    ``initial`` vertices have in-degree 0 (sources), ``terminal`` vertices have
    out-degree 0 (sinks), ``isolated`` vertices are both, and ``interior``
    vertices are neither.
    """

    initial: frozenset[int]
    terminal: frozenset[int]
    isolated: frozenset[int]
    interior: frozenset[int]

    @property
    def counts(self) -> tuple[int, int]:
        """(number of initial vertices, number of terminal vertices)."""
        return (len(self.initial), len(self.terminal))

    def matches(self, x: int, y: int) -> bool:
        return len(self.initial) == x and len(self.terminal) == y


@lru_cache(maxsize=2)
def ordered_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All candidate edges (a, b) with 1 <= a < b <= n, in lexicographic order.
    The 2 most recent orders stay cached: one entry at n = 1000 holds 45 MB,
    and a miss at n <= 14 costs under 15 us."""
    return tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1))


class OrderedDag:
    """Labeled DAG on vertices 1..n whose edges all respect the index order.

    Degree tallies are stored alongside the edge set, so degrees and profiles
    are read without a pass over the edges.  The generation processes keep
    their own tallies, a row of degree arrays in a ``processes._Batch``
    record, and hand them over through ``_adopt`` when a run ends.
    A graph value is single-owner: share by copying, not by aliasing.
    """

    __slots__ = ("n", "_edges", "_indeg", "_outdeg")

    def __init__(self, n: int) -> None:
        check_int(GraphError, 1, MAX_ORDER, n=n)
        self.n = n
        self._edges: set[tuple[int, int]] = set()
        self._indeg = [0] * (n + 1)
        self._outdeg = [0] * (n + 1)

    @classmethod
    def _adopt(
        cls, n: int, edges: set[tuple[int, int]], indeg: list[int], outdeg: list[int]
    ) -> OrderedDag:
        """Trusted constructor: take ownership of an edge set and the degree
        arrays that match it, without checking either."""
        g = cls.__new__(cls)
        g.n = n
        g._edges = edges
        g._indeg = indeg
        g._outdeg = outdeg
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> OrderedDag:
        g = cls(n)
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError):
                raise GraphError(f"edge entry {edge!r} is not a pair (a, b)") from None
            g.add_edge(a, b)
        return g

    def copy(self) -> OrderedDag:
        return OrderedDag._adopt(self.n, set(self._edges), list(self._indeg), list(self._outdeg))

    # -- edge bookkeeping ---------------------------------------------------

    def _check_range(self, v: int) -> None:
        if not isinstance(v, int) or isinstance(v, bool):
            raise GraphError(f"vertex {v!r} is not an integer")
        if not 1 <= v <= self.n:
            raise GraphError(f"vertex {v!r} out of range 1..{self.n}")

    def add_edge(self, a: int, b: int) -> None:
        """Insert edge (a, b); requires 1 <= a < b <= n and the edge absent."""
        self._check_range(a)
        self._check_range(b)
        if a >= b:
            raise GraphError(f"order violation: edge ({a}, {b}) must satisfy a < b")
        if (a, b) in self._edges:
            raise GraphError(f"duplicate edge ({a}, {b})")
        self._edges.add((a, b))
        self._outdeg[a] += 1
        self._indeg[b] += 1

    def remove_edge(self, a: int, b: int) -> None:
        """Delete edge (a, b); the edge must be present."""
        if (a, b) not in self._edges:
            raise GraphError(f"absent edge ({a}, {b}) cannot be removed")
        self._edges.remove((a, b))
        self._outdeg[a] -= 1
        self._indeg[b] -= 1

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> list[tuple[int, int]]:
        """Edges in lexicographic order."""
        return sorted(self._edges)

    def in_degree(self, v: int) -> int:
        self._check_range(v)
        return self._indeg[v]

    def out_degree(self, v: int) -> int:
        self._check_range(v)
        return self._outdeg[v]

    # -- vertex classification ----------------------------------------------

    def profile(self) -> VertexProfile:
        """Classify every vertex as initial, terminal, isolated and/or interior."""
        initial = []
        terminal = []
        isolated = []
        interior = []
        for v in range(1, self.n + 1):
            src = self._indeg[v] == 0
            snk = self._outdeg[v] == 0
            if src:
                initial.append(v)
            if snk:
                terminal.append(v)
            if src and snk:
                isolated.append(v)
            elif not src and not snk:
                interior.append(v)
        return VertexProfile(
            frozenset(initial), frozenset(terminal), frozenset(isolated), frozenset(interior)
        )

    def successors(self, v: int) -> tuple[int, ...]:
        self._check_range(v)
        return tuple(sorted(b for a, b in self._edges if a == v))

    def predecessors(self, v: int) -> tuple[int, ...]:
        self._check_range(v)
        return tuple(sorted(a for a, b in self._edges if b == v))

    # -- path and component analysis ------------------------------------------

    def longest_path_length(self) -> int:
        """Edge count of a longest directed path (0 for an empty graph)."""
        preds: list[list[int]] = [[] for _ in range(self.n + 1)]
        for a, b in self._edges:
            preds[b].append(a)
        dist = [0] * (self.n + 1)
        best = 0
        # index order is topological, so dist[a] is final before b is visited
        for b in range(1, self.n + 1):
            for a in preds[b]:
                if dist[a] + 1 > dist[b]:
                    dist[b] = dist[a] + 1
            if dist[b] > best:
                best = dist[b]
        return best

    def count_linear_extensions(self) -> int:
        """Exact number of total orders extending the edge relation.

        Subset dynamic program over 2^n states; refuses n above
        ``LINEAR_EXTENSION_CAP`` (20) because the state space is exponential.
        """
        if self.n > LINEAR_EXTENSION_CAP:
            raise CapacityError(
                f"linear-extension counting is capped at n <= {LINEAR_EXTENSION_CAP}, "
                f"got n = {self.n}"
            )
        n = self.n
        pred_mask = [0] * n
        for a, b in self._edges:
            pred_mask[b - 1] |= 1 << (a - 1)
        full = (1 << n) - 1
        dp = [0] * (full + 1)
        dp[0] = 1
        for mask in range(full):
            ways = dp[mask]
            if not ways:
                continue
            free = ~mask & full
            while free:
                bit = free & -free
                v = bit.bit_length() - 1
                if pred_mask[v] & mask == pred_mask[v]:
                    dp[mask | bit] += ways
                free ^= bit
        return dp[full]

    def underlying_components(self) -> list[list[int]]:
        """Connected components of the underlying undirected graph.

        Components are returned as ascending vertex lists, ordered by their
        smallest member; singleton components are exactly the isolated vertices.
        """
        parent = list(range(self.n + 1))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in self._edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
        groups: dict[int, list[int]] = {}
        for v in range(1, self.n + 1):
            groups.setdefault(find(v), []).append(v)
        return list(groups.values())

    def is_underlying_forest(self) -> bool:
        """True iff the underlying undirected graph has no cycle."""
        return self.edge_count == self.n - len(self.underlying_components())

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        """Byte-stable JSON: {"n":3,"edges":[[1,2],[2,3]]} with edges sorted."""
        payload = {"n": self.n, "edges": [[a, b] for a, b in self.edges()]}
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str | bytes) -> OrderedDag:
        """Parse the ``to_json`` format; bytes must be ASCII."""
        try:
            if isinstance(text, bytes):
                text = text.decode("ascii")
            payload = json.loads(text)
        except UnicodeDecodeError as exc:
            raise GraphError(f"graph JSON must be ASCII: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid graph JSON: {exc}") from exc
        if not isinstance(payload, dict) or set(payload) != {"n", "edges"}:
            raise GraphError("graph JSON must be an object with exactly the fields 'n' and 'edges'")
        n = payload["n"]
        edges = payload["edges"]
        if not isinstance(edges, list):
            raise GraphError("field 'edges' must be an array of [a, b] pairs")
        pairs: list[tuple[int, int]] = []
        for item in edges:
            if not isinstance(item, list) or len(item) != 2:
                raise GraphError(f"edge entry {item!r} is not a 2-element integer array")
            pairs.append((item[0], item[1]))
        return cls.from_edges(n, pairs)

    def to_dot(self) -> str:
        """Byte-stable DOT export with vertices labeled by index."""
        lines = ["digraph {"]
        lines.extend(f"  {v};" for v in range(1, self.n + 1))
        lines.extend(f"  {a} -> {b};" for a, b in self.edges())
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- dunder helpers --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedDag):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __repr__(self) -> str:
        return f"OrderedDag(n={self.n}, edges={self.edge_count})"


def empty_graph(n: int) -> OrderedDag:
    """Graph on n vertices with no edges; every vertex is isolated."""
    return OrderedDag(n)


def complete_graph(n: int) -> OrderedDag:
    """The transitive tournament: all binom(n, 2) edges (a, b) with a < b."""
    check_int(GraphError, 1, MAX_ORDER, n=n)
    # vertex v has v - 1 predecessors and n - v successors
    return OrderedDag._adopt(n, set(ordered_pairs(n)), [0, *range(n)], [0, *range(n - 1, -1, -1)])
