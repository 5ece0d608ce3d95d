"""Deterministic constructors for the extremal graph families and process traps.

Vertex indices are assigned canonically so that serialized output is
byte-stable: non-isolated initial vertices get the smallest indices, interior
vertices the middle block, non-isolated terminal vertices follow, and isolated
vertices take the largest indices (the addition trap keeps its dense block in
the middle for the same reason).
"""

from __future__ import annotations

from .errors import DomainError, check_int
from .graph import OrderedDag


def densest_minimal_graph(x: int, y: int, n: int) -> OrderedDag:
    """Minimal (x, y) graph of order n with the maximum 2n - x - y - 2 edges.

    One hub source fans out to every interior vertex, all interior vertices
    feed one shared sink, the remaining sources attach directly to that sink,
    and y - 1 vertices stay isolated.  Requires x >= y >= 1 and n >= x + 2.
    """
    check_int(DomainError, x=x, y=y, n=n)
    if x < y:
        raise DomainError(f"requires x >= y >= 1, got ({x}, {y})")
    if n < x + 2:
        raise DomainError(f"requires n >= x + 2 = {x + 2}, got n = {n}")
    g = OrderedDag(n)
    hub = 1
    n_sources = x - y + 1
    sink = n - y + 1
    for t in range(n_sources + 1, sink):  # interior block
        g.add_edge(hub, t)
        g.add_edge(t, sink)
    for u in range(2, n_sources + 1):
        g.add_edge(u, sink)
    return g


def densest_connected_minimal_graph(x: int, y: int, n: int) -> OrderedDag:
    """Connected minimal (x, y) graph of order n with the maximum edge count.

    For n >= x + y + 1 this is the double fan with 2n - x - y - 2 edges: a hub
    source and a hub sink sandwich every interior vertex, the other sources
    attach to the hub sink and the other sinks hang off the hub source.  The
    boundary case n = x + y is admitted only when min(x, y) = 1, where the
    graph degenerates to a star with max(x, y) edges.
    """
    check_int(DomainError, x=x, y=y, n=n)
    if n == x + y and min(x, y) == 1:
        g = OrderedDag(n)
        if y == 1:
            for u in range(1, n):
                g.add_edge(u, n)
        else:
            for v in range(2, n + 1):
                g.add_edge(1, v)
        return g
    if n < x + y + 1:
        raise DomainError(
            f"requires n >= x + y + 1 (or n = x + y with min(x, y) = 1), got n = {n}"
        )
    g = OrderedDag(n)
    hub_src = 1
    hub_snk = n - y + 1
    for t in range(x + 1, n - y + 1):  # interior block
        g.add_edge(hub_src, t)
        g.add_edge(t, hub_snk)
    for u in range(2, x + 1):
        g.add_edge(u, hub_snk)
    for v in range(n - y + 2, n + 1):
        g.add_edge(hub_src, v)
    return g


def densest_graph(x: int, y: int, n: int) -> OrderedDag:
    """(x, y) graph of order n with the maximum possible number of edges.

    With k = max(0, x + y - n) isolated vertices, the other n - k vertices
    carry every order-respecting edge except those inside the source block or
    inside the sink block.  Requires n >= max(x, y), and x = y when equality
    holds (no (x, y) graph of order max(x, y) exists otherwise).
    """
    check_int(DomainError, x=x, y=y, n=n)
    if n < max(x, y):
        raise DomainError(f"requires n >= max(x, y) = {max(x, y)}, got n = {n}")
    if n == max(x, y) and x != y:
        raise DomainError(f"no ({x}, {y}) graph of order {n} exists")
    k = max(0, x + y - n)
    m = n - k
    src_end = x - k  # vertices 1..src_end have no in-edges
    snk_start = m - (y - k) + 1  # vertices snk_start..m have no out-edges
    g = OrderedDag(n)
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            if b <= src_end or a >= snk_start:
                continue
            g.add_edge(a, b)
    return g


def removal_trap(y: int, n: int) -> OrderedDag:
    """(y, y) graph from which the removal process cannot make progress.

    A directed path on 1..n-y+1 plus y - 1 isolated vertices: removing any
    edge splits the path and yields y + 1 sinks.  Requires n >= y + 1.
    """
    check_int(DomainError, y=y, n=n)
    if n < y + 1:
        raise DomainError(f"requires n >= y + 1 = {y + 1}, got n = {n}")
    g = OrderedDag(n)
    for v in range(1, n - y + 1):
        g.add_edge(v, v + 1)
    return g


def addition_trap(x: int, y: int, n: int) -> OrderedDag:
    """Stalled state of the (x, y) addition process with x sources, y + 1 sinks.

    The middle block x-y+1..n-y is fully connected, every vertex below it feeds
    the whole block, and y vertices stay isolated; any further edge addition
    would drop the source count below x.  Requires x > y >= 1 and n > x.
    """
    check_int(DomainError, x=x, y=y, n=n)
    if x <= y:
        raise DomainError(f"requires x > y >= 1, got ({x}, {y})")
    if n <= x:
        raise DomainError(f"requires n > x = {x}, got n = {n}")
    g = OrderedDag(n)
    block = range(x - y + 1, n - y + 1)
    for a in block:
        for b in range(a + 1, n - y + 1):
            g.add_edge(a, b)
    for a in range(1, x - y + 1):
        for b in block:
            g.add_edge(a, b)
    return g


FAMILY_KINDS = ("S", "T", "Q", "removal-trap", "addition-trap")


def build_family(kind: str, n: int, x: int | None = None, y: int | None = None) -> OrderedDag:
    """Dispatch on the family kind tokens used by the command-line interface."""
    key = kind.strip().lower() if isinstance(kind, str) else None
    if key == "s":
        _require(kind, x=x, y=y)
        return densest_minimal_graph(x, y, n)
    if key == "t":
        _require(kind, x=x, y=y)
        return densest_connected_minimal_graph(x, y, n)
    if key == "q":
        _require(kind, x=x, y=y)
        return densest_graph(x, y, n)
    if key == "removal-trap":
        _require(kind, y=y)
        return removal_trap(y, n)
    if key == "addition-trap":
        _require(kind, x=x, y=y)
        return addition_trap(x, y, n)
    raise DomainError(f"unknown family kind {kind!r}; expected one of {', '.join(FAMILY_KINDS)}")


def _require(kind: str, **params: int | None) -> None:
    missing = [name for name, value in params.items() if value is None]
    if missing:
        raise DomainError(f"family {kind!r} requires parameter(s): {', '.join(missing)}")
