"""The reference model the engines are tested against: one run's state as
Python lists, and the visit-every-position loops that move it one candidate
at a time under the cancel rule.

``State.removal_pass`` and ``addition_pass`` visit every position of their
order.  The lockstep kernel, the lemma stacks, the combined process's fills
and trims and the exact flow must each give what these loops give, row by
row.  The jump chain in ``test_processes.py`` checks the loops in turn.
Candidate edges are indexed by their position in ``ordered_pairs(n)``, a
topological order: each edge comes after every edge into its tail.

``filtered_graphs`` is the reference for filtered enumeration: each graph
of the order profiled afresh and, for the minimal ones, checked by
definition, where ``enumerate_graphs`` reads the per-order facts table.
``linear_extensions`` is the reference for the oracle's ordering counts:
each permutation walked vertex by vertex, where the oracle filters one
per-order table of reversed pairs.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator

import numpy as np

from taskdag import harness
from taskdag.graph import OrderedDag, ordered_pairs
from taskdag.oracle import EnumerationScope, enumerate_graphs, oracle_is_minimal
from taskdag.processes import ProcessConfig, ProcessKind, TraceFn, _Batch

STATE_FIELDS = ("present", "indeg", "outdeg", "sources", "sinks", "edge_total", "rounds")


class State:
    """Edge/degree bookkeeping of one run, started from the complete or the
    empty graph.  ``present`` is a ``bytearray``, one 0/1 byte per
    candidate."""

    __slots__ = ("n", "present", "indeg", "outdeg", "sources", "sinks", "edge_total", "rounds", "trace")

    def __init__(self, n: int, complete: bool, trace: TraceFn | None = None) -> None:
        self.n, self.rounds, self.trace = n, 0, trace
        self.present = bytearray([complete]) * (n * (n - 1) // 2)
        if complete:  # vertex v has v - 1 predecessors and n - v successors
            self.indeg, self.outdeg = [0, *range(n)], [0, *range(n - 1, -1, -1)]
            self.sources = self.sinks = 1
            self.edge_total = len(self.present)
        else:
            self.indeg, self.outdeg = [0] * (n + 1), [0] * (n + 1)
            self.sources = self.sinks = n
            self.edge_total = 0

    def copy(self) -> State:
        state = State.__new__(State)
        state.n, state.trace, state.rounds = self.n, self.trace, self.rounds
        state.present, state.indeg, state.outdeg = self.present[:], self.indeg[:], self.outdeg[:]
        state.sources, state.sinks, state.edge_total = self.sources, self.sinks, self.edge_total
        return state

    def removal_pass(self, order: Iterable[int], x: int, y: int, budget: int | None = None) -> bool:
        """Remove each present edge of ``order`` unless that would raise the
        sources above x or the sinks above y.  With a budget, halt at
        ``budget`` edges; return whether the budget was reached."""
        pairs, present, indeg, outdeg = ordered_pairs(self.n), self.present, self.indeg, self.outdeg
        sources, sinks, edges, rounds, trace = self.sources, self.sinks, self.edge_total, self.rounds, self.trace
        if edges != budget:
            for idx in order:
                if not present[idx]:
                    continue
                a, b = pairs[idx]
                if (indeg[b] == 1 and sources >= x) or (outdeg[a] == 1 and sinks >= y):
                    continue
                present[idx] = False
                indeg[b] -= 1
                outdeg[a] -= 1
                sources += indeg[b] == 0
                sinks += outdeg[a] == 0
                edges -= 1
                rounds += 1
                if trace is not None:
                    trace(rounds, "remove", a, b, sources, sinks)
                if edges == budget:
                    break
        self.sources, self.sinks, self.edge_total, self.rounds = sources, sinks, edges, rounds
        return edges == budget

    def addition_pass(self, order: Iterable[int], x: int, y: int, budget: int | None = None) -> bool:
        """Add each absent edge of ``order`` unless that would drop the
        sources below x or the sinks below y.  Halt at the exact (x, y)
        profile, or with a budget at ``budget`` edges; return whether the
        pass halted.  From an exact (x, y) profile this rule admits exactly
        the neutral additions, which keep every vertex's source/sink status."""
        pairs, present, indeg, outdeg = ordered_pairs(self.n), self.present, self.indeg, self.outdeg
        sources, sinks, edges, rounds, trace = self.sources, self.sinks, self.edge_total, self.rounds, self.trace
        if budget is None:  # halt at the exact profile, never at an edge count
            tx, ty, budget = x, y, -1
        else:  # halt at the edge count only
            tx = ty = -1
        if not ((sources == tx and sinks == ty) or edges == budget):
            for idx in order:
                if present[idx]:
                    continue
                a, b = pairs[idx]
                if (indeg[b] == 0 and sources <= x) or (outdeg[a] == 0 and sinks <= y):
                    continue
                present[idx] = True
                sources -= indeg[b] == 0
                sinks -= outdeg[a] == 0
                indeg[b] += 1
                outdeg[a] += 1
                edges += 1
                rounds += 1
                if trace is not None:
                    trace(rounds, "add", a, b, sources, sinks)
                if (sources == tx and sinks == ty) or edges == budget:
                    break
        self.sources, self.sinks, self.edge_total, self.rounds = sources, sinks, edges, rounds
        return (sources == tx and sinks == ty) or edges == budget


def fields(state):
    """A state's or a record's fields, for comparison."""
    return tuple(getattr(state, name) for name in STATE_FIELDS)


def loop_run(cfg: ProcessConfig, orders: np.ndarray, trace: TraceFn | None = None) -> State:
    """One trial of ``cfg`` on its rows of ``orders``: the loops from the
    complete or the empty graph, and for a combined run that hit (x, y) off
    m edges the loops with budget m on its second row."""
    x, y, m = cfg.x, cfg.y, cfg.m
    state = State(cfg.n, cfg.kind is ProcessKind.REMOVAL, trace)
    (state.removal_pass if cfg.kind is ProcessKind.REMOVAL else state.addition_pass)(orders[0].tolist(), x, y)
    if cfg.kind is ProcessKind.COMBINED and (state.sources, state.sinks) == (x, y) and state.edge_total != m:
        (state.addition_pass if state.edge_total < m else state.removal_pass)(orders[1].tolist(), x, y, m)
    return state


def states(record: _Batch) -> Iterator[State]:
    """Each row of a record as an untraced ``State``, in row order."""
    columns = (record.indeg, record.outdeg, record.sources, record.sinks, record.edge_total, record.rounds)
    for present, indeg, outdeg, sources, sinks, edges, rounds in zip(
        record.present, *(column.tolist() for column in columns)
    ):
        state = State.__new__(State)
        state.n, state.trace, state.rounds = record.n, None, rounds
        state.present, state.indeg, state.outdeg = bytearray(present), indeg, outdeg
        state.sources, state.sinks, state.edge_total = sources, sinks, edges
        yield state


def record_of(n: int, rows: list[State]) -> _Batch:
    """The record whose rows are copies of the fields of ``rows``."""
    counts = [[getattr(state, name) for state in rows] for name in ("sources", "sinks", "edge_total", "rounds")]
    present = np.array([np.frombuffer(state.present, bool) for state in rows]).reshape(len(rows), -1)
    degrees = np.array([(state.indeg, state.outdeg) for state in rows]).reshape(len(rows), 2, n + 1)
    return _Batch._adopt(n, present, degrees, np.array(counts[:2]), *map(np.array, counts[2:]))


def trial_states(cfg: ProcessConfig, master_seed: int, trials: int) -> Iterator[State]:
    """Final states of trials ``0..trials-1`` of one harness cell, block after
    block, as the harness's own engines leave them."""
    for start in range(0, trials, harness._CHUNK):
        for record in harness._block_states(cfg, master_seed, start, min(start + harness._CHUNK, trials)):
            yield from states(record)


def filtered_graphs(scope: EnumerationScope) -> Iterator[OrderedDag]:
    """The graphs of ``scope`` by a filter on every graph of the order, in
    mask order: each re-profiled, and for ``minimal_only`` checked by
    ``oracle_is_minimal``."""
    for g in enumerate_graphs(EnumerationScope(n=scope.n)):
        counts = g.profile().counts
        if scope.profile is not None and counts != scope.profile:
            continue
        if scope.minimal_only and not oracle_is_minimal(g, *counts):
            continue
        yield g


def linear_extensions(g: OrderedDag) -> int:
    """Count task orderings by filtering all n! vertex permutations, one
    permutation at a time: a permutation counts when every vertex comes
    after all of its predecessors."""
    pred_mask = [0] * (g.n + 1)
    for a, b in g._edges:
        pred_mask[b] |= 1 << a
    count = 0
    for perm in permutations(range(1, g.n + 1)):
        seen = 0
        for v in perm:
            if pred_mask[v] & ~seen:
                break
            seen |= 1 << v
        else:
            count += 1
    return count
