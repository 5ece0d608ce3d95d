"""Seeded randomized processes for generating ordered task-dependency graphs.

A run is fully determined by its ProcessConfig.  Each phase makes one pass over
a uniform permutation (numpy PCG64) of the candidate edges.  A proposal blocked
once stays blocked, since blocking needs a source/sink count already at its
absorbing cap, so the outcome law equals that of rejection sampling.

Last-edge lemma.  A removal is cancelled only when the head's in-degree or the
tail's out-degree is 1, and in one removal pass every edge later in the order
is still present.  So an edge that is neither its head's last present in-edge
nor its tail's last present out-edge in the order is always removed, and only
those last edges, at most 2n - 2 positions, are ever decided.  At b's last
in-edge, b's in-degree is 1 plus the in-edges of b kept so far (likewise for
out-edges), and sources and sinks change only there.

Phase lemma.  An addition is cancelled only when its head has in-degree 0 and
the sources are at most x, or its tail has out-degree 0 and the sinks are at
most y.  Sources and sinks only fall, so in one addition pass each cap starts
to bind at most once, when its count reaches it, and in between the rule is
fixed: a vertex barred from its first in-edge (out-edge) stays barred.  So a
pass falls into phases, and each phase adds every absent edge its rule allows
up to the first edge at which a count reaches its cap, the profile is exactly
(x, y), or the edge count reaches the budget.  Below its cap a count falls at
each first visit to a head of in-degree 0 (tail of out-degree 0).  Without a
budget the second cap to bind ends the pass at (x, y): at most 2 phases; with
one, a third phase runs to the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import compress
from typing import Callable, Iterable, Iterator

import numpy as np

from .analysis import ExtremalKind, extremal_value
from .errors import ConfigError, GraphError, TaskDagError, check_int
from .graph import MAX_ORDER, OrderedDag, ordered_pairs

TraceFn = Callable[[int, str, int, int, int, int], None]
# trace arguments: round index, "add"/"remove", a, b, source count, sink count

class ProcessKind(str, Enum):
    REMOVAL = "removal"
    ADDITION = "addition"
    COMBINED = "combined"
    RANDOM_TREE = "tree"


class HaltReason(str, Enum):
    EXACT_TARGET_REACHED = "exact-target-reached"
    NO_MOVE_AVAILABLE = "no-move-available"
    EDGE_BUDGET_REACHED = "edge-budget-reached"


SEED_MAX = 2**64 - 1  # seeds are integers in [0, SEED_MAX]


@dataclass(frozen=True)
class ProcessConfig:
    """Parameters of one process run.  ``m`` is only meaningful for the
    combined process; the random tree ignores x and y."""

    x: int
    y: int
    n: int
    kind: ProcessKind
    seed: int
    m: int | None = None

    def validate(self) -> None:
        if not isinstance(self.kind, ProcessKind):
            raise ConfigError(f"unknown process kind {self.kind!r}")
        check_int(ConfigError, 0, SEED_MAX, seed=self.seed)
        check_int(ConfigError, 1, MAX_ORDER, n=self.n)
        if self.m is not None and self.kind is not ProcessKind.COMBINED:
            raise ConfigError("m is only meaningful for the combined process")
        if self.kind is ProcessKind.RANDOM_TREE:
            return
        check_int(ConfigError, x=self.x, y=self.y)
        if self.n < max(self.x, self.y):
            raise ConfigError(f"requires n >= max(x, y) = {max(self.x, self.y)}, got n = {self.n}")
        if self.kind is ProcessKind.COMBINED:
            if self.m is None:
                raise ConfigError("combined process requires a target edge count m")
            if self.n <= max(self.x, self.y) + 1:
                raise ConfigError(f"combined process requires n > max(x, y) + 1, got n = {self.n}")
            lo = extremal_value(ExtremalKind.MAX_MINIMAL_EDGES, self.x, self.y, self.n)
            hi = extremal_value(ExtremalKind.MAX_EDGES, self.x, self.y, self.n)
            check_int(ConfigError, lo, hi, m=self.m)


@dataclass(frozen=True)
class ProcessOutcome:
    """Final graph plus bookkeeping."""

    graph: OrderedDag
    rounds: int
    halt_reason: HaltReason
    is_target_xy: bool


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


@lru_cache(maxsize=2)
def _pair_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of ``ordered_pairs(n)``, as read-only int32 arrays."""
    tails, heads = (ends.astype(np.int32) + 1 for ends in np.triu_indices(n, 1))
    tails.flags.writeable = heads.flags.writeable = False
    return tails, heads


def _last_edges(n: int, tail: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For edges visited in the order of ``tail`` and ``head``: each vertex's
    last visit as a head and as a tail (-1 if none), and, in order, the visits
    that are one of these, at most 2n - 2 of them."""
    visit = np.arange(len(head))
    last_in, last_out = np.full(n + 1, -1), np.full(n + 1, -1)
    np.maximum.at(last_in, head, visit)
    np.maximum.at(last_out, tail, visit)
    return last_in, last_out, np.flatnonzero((last_in[head] == visit) | (last_out[tail] == visit))


def _first_visits(n: int, ends: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """For each vertex that ``fresh`` (a mask over 0..n) marks, the index of its
    first visit in ``ends``, or len(ends) if there is none; ascending."""
    first = np.full(n + 1, len(ends))
    np.minimum.at(first, ends, np.arange(len(ends)))
    first = first[fresh]
    first.sort()
    return first


def _addition_phase(
    n: int,
    tail: np.ndarray,
    head: np.ndarray,
    indeg: np.ndarray,
    outdeg: np.ndarray,
    sources: int,
    sinks: int,
    x: int,
    y: int,
    room: int,
) -> tuple[np.ndarray, int, int]:
    """One phase of ``_State.phase_addition_pass`` on the absent edges left in
    its order (``tail``, ``head``), under the rule that holds at its start:
    add each edge the rule allows, up to the first where a cap starts to bind
    or, if ``room`` is positive, the room-th one.  Add to ``indeg`` and
    ``outdeg`` in place; return the positions added and the new source and
    sink counts."""
    # at its cap, a vertex without in-edges (out-edges) stays so all phase;
    # vertex 1 is such a vertex but no head, vertex n no tail
    bar_in, bar_out = 1 < sources <= x, 1 < sinks <= y
    steps = np.arange(len(head))
    if bar_in or bar_out:
        allowed = np.ones(len(head), bool)
        if bar_in:
            allowed &= indeg[head] > 0
        if bar_out:
            allowed &= outdeg[tail] > 0
        (steps,) = allowed.nonzero()
        tail, head = tail[steps], head[steps]
    end = min(len(head), room) if room > 0 else len(head)  # the phase adds steps[:end]
    # below its cap, each first visit to a vertex without in-edges (out-edges)
    # loses a source (sink); the cap binds at the visit that reaches it
    lost_in = _first_visits(n, head, indeg == 0) if sources > x else None
    lost_out = _first_visits(n, tail, outdeg == 0) if sinks > y else None
    if lost_in is not None:
        end = min(end, int(lost_in[sources - x - 1]) + 1)
    if lost_out is not None:
        end = min(end, int(lost_out[sinks - y - 1]) + 1)
    if lost_in is not None:
        sources -= int(lost_in.searchsorted(end))
    if lost_out is not None:
        sinks -= int(lost_out.searchsorted(end))
    indeg += np.bincount(head[:end], minlength=n + 1)
    outdeg += np.bincount(tail[:end], minlength=n + 1)
    return steps[:end], sources, sinks


class _State:
    """Edge/degree bookkeeping of one run, started from the complete or the
    empty graph, and the passes that move it.  Candidate edges are indexed by
    their position in ``pairs``: ``ordered_pairs(n)``, or for an empty start
    any given edge list.  Either order is topological: each edge comes after
    every edge into its tail.  ``removal_pass`` and ``addition_pass`` visit
    every position of their order and are the reference.  By the last-edge
    lemma (module docstring), ``last_edge_removal_pass`` makes the same
    removals while deciding only each vertex's last present in- and out-edge;
    by the phase lemma, ``phase_addition_pass`` makes the same additions in
    one array step per phase.  These two passes and ``graph()`` read the
    candidates' ends from ``_pair_ends(n)``, so a run that takes only them
    never builds ``ordered_pairs(n)``.  ``present`` is a ``bytearray``, one
    0/1 byte per candidate: the loops index it as fast as a list, ``copy()``
    slices it, and numpy reads and writes it in place as a bool array."""

    __slots__ = ("n", "_pairs", "present", "indeg", "outdeg", "sources", "sinks", "edge_total", "rounds", "trace")

    def __init__(
        self, n: int, complete: bool, trace: TraceFn | None = None, pairs: list | None = None
    ) -> None:
        self.n, self._pairs, self.rounds, self.trace = n, pairs, 0, trace
        self.present = bytearray([complete]) * (n * (n - 1) // 2 if pairs is None else len(pairs))
        if complete:  # vertex v has v - 1 predecessors and n - v successors
            self.indeg, self.outdeg = [0, *range(n)], [0, *range(n - 1, -1, -1)]
            self.sources = self.sinks = 1
            self.edge_total = len(self.present)
        else:
            self.indeg, self.outdeg = [0] * (n + 1), [0] * (n + 1)
            self.sources = self.sinks = n
            self.edge_total = 0

    @property
    def pairs(self) -> list | tuple[tuple[int, int], ...]:
        """The candidate edges, ``ordered_pairs(n)`` unless given, kept once
        read."""
        if self._pairs is None:
            self._pairs = ordered_pairs(self.n)
        return self._pairs

    def _present_mask(self) -> np.ndarray:
        """``present`` as a read-only numpy bool array over its bytes."""
        return np.frombuffer(memoryview(self.present).toreadonly(), np.bool_)

    def copy(self) -> _State:
        state = _State.__new__(_State)
        state.n, state._pairs, state.trace, state.rounds = self.n, self._pairs, self.trace, self.rounds
        state.present, state.indeg, state.outdeg = self.present[:], self.indeg[:], self.outdeg[:]
        state.sources, state.sinks, state.edge_total = self.sources, self.sinks, self.edge_total
        return state

    def removal_pass(
        self, order: Iterable[int], x: int, y: int, budget: int | None = None, active: bool = True
    ) -> bool:
        """Remove each present edge of ``order`` unless that would raise the
        sources above x or the sinks above y.  With a budget, halt at
        ``budget`` edges; return whether the budget was reached.  An inactive
        run does not move."""
        pairs = self._pairs or self.pairs  # no call once built: the exact laws run many one-edge passes
        present, indeg, outdeg, trace = self.present, self.indeg, self.outdeg, self.trace
        sources, sinks, edges, rounds = self.sources, self.sinks, self.edge_total, self.rounds
        if active and edges != budget:
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

    def last_edge_removal_pass(
        self, order: np.ndarray, x: int, y: int, budget: int | None = None, active: bool = True
    ) -> bool:
        """``removal_pass`` for candidates ``ordered_pairs(n)`` and an int array
        ``order``, without a trace.  Numpy finds each vertex's last present in-
        and out-edge in the order; a loop decides only those positions, and
        every other present edge is removed in one step.  With a budget, the
        removals stop where their running count reaches it."""
        edges = self.edge_total
        if not active or edges == budget:
            return edges == budget
        n, order = self.n, np.asarray(order)
        if edges < len(order):  # visit the present edges only
            order = order[self._present_mask()[order]]
        tails, heads = _pair_ends(n)
        tail, head = tails[order], heads[order]
        last_in, last_out, steps = _last_edges(n, tail, head)
        # removals that reach the budget; edges + 1 (never reached) when there is none
        need = edges + 1 if budget is None or edges < budget else edges - budget
        sources, sinks, removed = self.sources, self.sinks, []
        last_in, last_out = last_in.tolist(), last_out.tolist()
        kept_in, kept_out = [0] * (n + 1), [0] * (n + 1)
        for d, (i, a, b) in enumerate(zip(steps.tolist(), tail[steps].tolist(), head[steps].tolist())):
            # the i - d undecided edges before visit i are all gone
            if i - d + len(removed) >= need:  # the budget was reached before i
                break
            lone_in = last_in[b] == i and not kept_in[b]
            lone_out = last_out[a] == i and not kept_out[a]
            if (lone_in and sources >= x) or (lone_out and sinks >= y):
                kept_in[b] += 1
                kept_out[a] += 1
                continue
            sources += lone_in
            sinks += lone_out
            removed.append(i)
        gone = np.ones(len(order), bool)  # every undecided edge goes
        gone[steps] = False
        gone[removed] = True
        if budget is not None:  # keep the edges after the removal that reaches the budget
            gone[np.flatnonzero(gone)[need:]] = False
        kept = ~gone
        np.frombuffer(self.present, np.bool_)[order[gone]] = False  # in place; the order visits every present edge
        self.indeg = np.bincount(head[kept], minlength=n + 1).tolist()
        self.outdeg = np.bincount(tail[kept], minlength=n + 1).tolist()
        count = int(np.count_nonzero(gone))
        self.sources, self.sinks, self.rounds = sources, sinks, self.rounds + count
        self.edge_total = edges - count
        return self.edge_total == budget

    def addition_pass(
        self, order: Iterable[int], x: int, y: int, budget: int | None = None, active: bool = True
    ) -> bool:
        """Add each absent edge of ``order`` unless that would drop the
        sources below x or the sinks below y.  Halt at the exact (x, y)
        profile, or with a budget at ``budget`` edges; return whether the
        pass halted.  An inactive run does not move.  From an exact (x, y)
        profile this rule admits exactly the neutral additions, which keep
        every vertex's source/sink status."""
        pairs = self._pairs or self.pairs  # no call once built: the exact laws run many one-edge passes
        present, indeg, outdeg, trace = self.present, self.indeg, self.outdeg, self.trace
        sources, sinks, edges, rounds = self.sources, self.sinks, self.edge_total, self.rounds
        if budget is None:  # halt at the exact profile, never at an edge count
            tx, ty, budget = x, y, -1
        else:  # halt at the edge count only
            tx = ty = -1
        if active and not ((sources == tx and sinks == ty) or edges == budget):
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

    def phase_addition_pass(
        self, order: np.ndarray, x: int, y: int, budget: int | None = None, active: bool = True
    ) -> bool:
        """``addition_pass`` for candidates ``ordered_pairs(n)`` and an int array
        ``order``, without a trace.  Keep the absent edges of the order; then,
        by the phase lemma, each ``_addition_phase`` adds what its fixed rule
        allows in one array step, and the next phase goes on after its last
        addition.  At most 2 phases run without a budget, 3 with one."""
        sources, sinks, edges = self.sources, self.sinks, self.edge_total
        if budget is None:  # halt at the exact profile, never at an edge count
            tx, ty, stop = x, y, -1
        else:  # halt at the edge count only
            tx, ty, stop = -1, -1, budget
        if not active or (sources == tx and sinks == ty) or edges == stop:
            return (sources == tx and sinks == ty) or edges == stop
        n, order = self.n, np.asarray(order)
        present = np.frombuffer(self.present, np.bool_)  # written in place
        if edges:  # visit the absent edges only
            order = order[~present[order]]
        tails, heads = _pair_ends(n)
        order_tail, order_head = tails[order], heads[order]
        indeg, outdeg = np.array(self.indeg), np.array(self.outdeg)
        added, start = np.zeros(len(order), bool), 0
        while True:
            rule = (sources <= x, sinks <= y)
            done, sources, sinks = _addition_phase(
                n, order_tail[start:], order_head[start:], indeg, outdeg, sources, sinks, x, y, stop - edges
            )
            added[start + done] = True
            edges += len(done)
            # a phase the rule did not end added every edge it will ever allow
            if rule == (sources <= x, sinks <= y) or (sources == tx and sinks == ty) or edges == stop:
                break
            start += int(done[-1]) + 1
        count = edges - self.edge_total
        if count:
            present[order[added]] = True
            self.indeg, self.outdeg = indeg.tolist(), outdeg.tolist()
        self.sources, self.sinks, self.edge_total, self.rounds = sources, sinks, edges, self.rounds + count
        return (sources == tx and sinks == ty) or edges == stop

    def graph(self) -> OrderedDag:
        if self._pairs is None:  # the kept pair ends, in the order of ordered_pairs(n)
            tails, heads = _pair_ends(self.n)
            kept = np.flatnonzero(self._present_mask())
            edges = set(zip(tails[kept].tolist(), heads[kept].tolist()))
        else:
            edges = set(compress(self._pairs, self.present))
        return OrderedDag._adopt(self.n, edges, self.indeg[:], self.outdeg[:])

    def outcome(self, cfg: ProcessConfig) -> ProcessOutcome:
        """The run's final graph and why it halted: at (x, y) for addition, at
        (x, y) with m edges for the combined process, else with no move left."""
        hit = (self.sources, self.sinks) == (cfg.x, cfg.y)
        halt = HaltReason.NO_MOVE_AVAILABLE
        if hit and cfg.kind is ProcessKind.ADDITION:
            halt = HaltReason.EXACT_TARGET_REACHED
        elif hit and cfg.kind is ProcessKind.COMBINED and self.edge_total == cfg.m:
            halt = HaltReason.EDGE_BUDGET_REACHED
        return ProcessOutcome(self.graph(), self.rounds, halt, hit)


class _Batch:
    """Runs of ``_State`` from the same start, one per row, moved in lockstep:
    the same fields as arrays (``present`` is ``(B, C(n, 2))``, the degrees
    ``(B, n + 1)``, the counts ``(B,)``), and the same two passes, which move
    every row by one position of its own permutation per step.  The rows are
    independent, so a step touches each row's own slots only.
    ``_State.removal_pass`` and ``addition_pass`` are the reference: each
    pass here applies the same cancel rule and halts where it does, row by
    row, and the tests require equal fields for every row."""

    __slots__ = ("n", "tails", "heads", "present", "indeg", "outdeg", "sources", "sinks", "edge_total", "rounds")

    def __init__(self, n: int, complete: bool, count: int) -> None:
        start = _State(n, complete)
        self.n, (self.tails, self.heads) = n, _pair_ends(n)
        self.present = np.full((count, len(self.tails)), complete)
        self.indeg = np.tile(np.array(start.indeg, np.int64), (count, 1))
        self.outdeg = np.tile(np.array(start.outdeg, np.int64), (count, 1))
        self.sources = np.full(count, start.sources, np.int64)
        self.sinks = np.full(count, start.sinks, np.int64)
        self.edge_total = np.full(count, start.edge_total, np.int64)
        self.rounds = np.zeros(count, np.int64)

    def _steps(self, orders: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
        """Per permutation position, each row's flat index of its candidate
        edge in ``present`` and of that edge's head and tail in the degrees."""
        count, width = self.present.shape
        rows = np.arange(count)[:, None]
        base = rows * (self.n + 1)
        edge, head, tail = rows * width + orders, base + self.heads[orders], base + self.tails[orders]
        return zip(*(np.ascontiguousarray(index.T) for index in (edge, head, tail)))

    def removal_pass(
        self, orders: np.ndarray, x: int, y: int, budget: int | None = None, active: np.ndarray | None = None
    ) -> np.ndarray:
        """``_State.removal_pass`` on every row in ``active`` (all rows by
        default), row i taking ``orders[i]``.  Return which rows are at the
        budget."""
        present, indeg, outdeg = self.present.reshape(-1), self.indeg.reshape(-1), self.outdeg.reshape(-1)
        sources, sinks, edges = self.sources, self.sinks, self.edge_total
        stop, before = -1 if budget is None else budget, edges.copy()
        active = edges != stop if active is None else active & (edges != stop)
        if not active.any():
            return edges == stop
        for edge, b, a in self._steps(orders):
            held, inb, outa = present[edge], indeg[b], outdeg[a]
            lone_in, lone_out = inb == 1, outa == 1
            move = active & held & ~(lone_in & (sources >= x) | lone_out & (sinks >= y))
            present[edge] = held ^ move
            indeg[b] = inb - move
            outdeg[a] = outa - move
            sources += move & lone_in
            sinks += move & lone_out
            edges -= move
            if budget is not None:
                active &= edges != stop
                if not active.any():
                    break
        self.rounds += before - edges
        return edges == stop

    def addition_pass(
        self, orders: np.ndarray, x: int, y: int, budget: int | None = None, active: np.ndarray | None = None
    ) -> np.ndarray:
        """``_State.addition_pass`` on every row in ``active`` (all rows by
        default), row i taking ``orders[i]``.  Return which rows halted."""
        present, indeg, outdeg = self.present.reshape(-1), self.indeg.reshape(-1), self.outdeg.reshape(-1)
        sources, sinks, edges = self.sources, self.sinks, self.edge_total
        before = edges.copy()

        def halted() -> np.ndarray:  # at the exact profile, or with a budget at the edge count
            return (sources == x) & (sinks == y) if budget is None else edges == budget

        active = ~halted() if active is None else active & ~halted()
        if not active.any():
            return halted()
        for edge, b, a in self._steps(orders):
            held, inb, outa = present[edge], indeg[b], outdeg[a]
            lone_in, lone_out = inb == 0, outa == 0
            move = active & ~held & ~(lone_in & (sources <= x) | lone_out & (sinks <= y))
            present[edge] = held | move
            indeg[b] = inb + move
            outdeg[a] = outa + move
            sources -= move & lone_in
            sinks -= move & lone_out
            edges += move
            active &= ~halted()
            if not active.any():
                break
        self.rounds += edges - before
        return halted()

    def states(self) -> Iterator[_State]:
        """Each row as a ``_State``, in row order."""
        fields = (self.indeg, self.outdeg, self.sources, self.sinks, self.edge_total, self.rounds)
        for present, (indeg, outdeg, sources, sinks, edges, rounds) in zip(
            self.present, zip(*(f.tolist() for f in fields))
        ):
            state = _State.__new__(_State)
            state.n, state._pairs, state.trace, state.rounds = self.n, None, None, rounds
            state.present, state.indeg, state.outdeg = bytearray(present), indeg, outdeg
            state.sources, state.sinks, state.edge_total = sources, sinks, edges
            yield state


# Fewest positions the removal loop of one untraced run must visit for
# _run_passes to call last_edge_removal_pass instead.  Per run, (1, 1) and
# (3, 2) from the complete graph, the pass breaks even with the loop near
# C(n, 2) = 153-190 and is 1.3x faster at 231 (n = 22), 2x at 435 and 3x at
# 780; budgeted trims from (1, 1) addition results break even at 220-260
# estimated visits (2-vCPU VM).
_DECIDE_MIN = 231

# Fewest positions in the order of one untraced run's addition pass for
# _run_passes to call phase_addition_pass instead of the loop.  Per run, the
# pass breaks even with the loop near C(n, 2) = 300 for (1, 1) from the empty
# graph, 250 for fills that neutral additions cannot finish, and 500-561 for
# (3, 2) from empty and (1, 1) fills to midway, whose loops stop early; at
# 630 (n = 36) every case is 1.1-1.9x faster, at 780 1.2-2.3x (2-vCPU VM).
_PHASE_MIN = 561


def _finish(cfg: ProcessConfig, state: _State | _Batch, draw: Callable[[], list | np.ndarray]) -> None:
    """Run the phases of ``cfg`` on a fresh ``state``, one run or a batch of
    runs in lockstep.  Each phase takes its edge orders from ``draw()``: a
    permutation of the candidate-edge indices, or one per row of a batch.
    The combined process draws its second order only if some run hit (x, y).
    One run takes its passes from ``_run_passes``."""
    x, y, m = cfg.x, cfg.y, cfg.m
    if isinstance(state, _State):
        add, remove = _run_passes(state)
    else:
        add, remove = state.addition_pass, state.removal_pass
    if cfg.kind is ProcessKind.REMOVAL:
        remove(draw(), x, y)
        return
    hit = add(draw(), x, y)
    if cfg.kind is ProcessKind.ADDITION or not np.any(hit):
        return
    # masks with &, not ~: on a single run's bools ~ gives -1 or -2
    fill, trim = hit & (state.edge_total < m), hit & (state.edge_total > m)
    order = draw()
    if np.any(fill):
        add(order, x, y, budget=m, active=fill)
    if np.any(trim):
        remove(order, x, y, budget=m, active=trim)
    stuck = trim & (state.edge_total > m)
    if np.any(stuck):
        # never: capped removals from an exact (x, y) graph keep the profile
        # exact, and a minimal graph has at most 2n - x - y - 2 <= m edges
        edges = np.max(stuck * state.edge_total)
        raise TaskDagError(f"removal adjustment stopped at {edges} edges, above m = {m}")


def _run_passes(state: _State) -> tuple[Callable[..., bool], Callable[..., bool]]:
    """The addition and removal pass of one run, for ``_finish``.  The loops
    take an array order as a list, which they index fastest.  An addition goes
    through ``phase_addition_pass`` when the run is untraced and its order has
    at least ``_PHASE_MIN`` positions.  A removal goes through
    ``last_edge_removal_pass`` when the run is untraced and the loop would
    visit at least ``_DECIDE_MIN`` positions: all C(n, 2) without a budget,
    and with one about C(n, 2) * (edges - budget) / edges, since nearly every
    present edge it visits is removed."""

    def listed(order: list | np.ndarray) -> list:
        return order.tolist() if isinstance(order, np.ndarray) else order

    def add(order, x, y, budget=None, active=True):
        if state.trace is None and len(order) >= _PHASE_MIN:
            return state.phase_addition_pass(order, x, y, budget, active)
        return state.addition_pass(listed(order), x, y, budget, active)

    def remove(order, x, y, budget=None, active=True):
        edges = state.edge_total
        visits = len(order) if budget is None else len(order) * (edges - budget) // edges
        if state.trace is None and visits >= _DECIDE_MIN:
            return state.last_edge_removal_pass(order, x, y, budget, active)
        return state.removal_pass(listed(order), x, y, budget, active)

    return add, remove


def _rows_per_run(kind: ProcessKind) -> int:
    """Rows of draws one run takes: two edge orders for the combined process,
    whether or not its second phase runs, else one row."""
    return 2 if kind is ProcessKind.COMBINED else 1


def _run(cfg: ProcessConfig, kind: ProcessKind, trace: TraceFn | None) -> ProcessOutcome:
    cfg.validate()
    if cfg.kind is not kind:
        raise ConfigError(f"config kind is {cfg.kind.value!r}, expected {kind.value!r}")
    rng = _rng(cfg.seed)
    if kind is ProcessKind.RANDOM_TREE:
        state = _tree_state(cfg.n, rng.random(cfg.n - 1).tolist(), trace)
    else:
        state = _State(cfg.n, kind is ProcessKind.REMOVAL, trace)
        _finish(cfg, state, lambda: rng.permutation(len(state.present)))
    return state.outcome(cfg)


def edge_removal_process(cfg: ProcessConfig, trace: TraceFn | None = None) -> ProcessOutcome:
    """Strip the complete graph down, never letting the source count exceed x
    or the sink count exceed y; halts when no edge can be removed."""
    return _run(cfg, ProcessKind.REMOVAL, trace)


def edge_addition_process(cfg: ProcessConfig, trace: TraceFn | None = None) -> ProcessOutcome:
    """Grow the empty graph, never letting the source count drop below x or
    the sink count below y; halts the moment the profile is exactly (x, y) or
    when no edge can be added."""
    return _run(cfg, ProcessKind.ADDITION, trace)


def combined_process(cfg: ProcessConfig, trace: TraceFn | None = None) -> ProcessOutcome:
    """Addition to termination, then random neutral additions or capped
    removals until exactly m edges remain.  The adjustment keeps the profile
    at (x, y); if the addition phase misses it (possible when x != y) the run
    stops there with is_target_xy False.  Neutral additions can run out below
    m even on (x, y), e.g. for (2, 2, 6, m = 13): the run then ends short of m
    with no move left and is_target_xy True.  Capped removals always reach m."""
    return _run(cfg, ProcessKind.COMBINED, trace)


def _tree_state(n: int, draws: list[float], trace: TraceFn | None = None) -> _State:
    """The tree in which vertex s + 1 attaches to vertex int(u * s) + 1, uniform
    on 1..s, for the s-th draw u.  Its n - 1 edges, in child order, are the
    candidates of an empty state; caps of zero never bind, so one addition
    pass adds them all, each traced as one move."""
    state = _State(n, False, trace, [(int(u * s) + 1, s + 1) for s, u in enumerate(draws, 1)])
    state.addition_pass(range(n - 1), 0, 0)
    return state


def random_directed_tree(n: int, seed: int) -> OrderedDag:
    """Attach vertex s+1 to a uniformly random earlier vertex, for s = 1..n-1.

    The result has exactly n - 1 edges, its underlying graph is a tree, and
    vertex 1 is the unique source.
    """
    check_int(ConfigError, 0, SEED_MAX, seed=seed)
    check_int(GraphError, 1, MAX_ORDER, n=n)
    return _tree_state(n, _rng(seed).random(n - 1).tolist()).graph()


def run_process(cfg: ProcessConfig, trace: TraceFn | None = None) -> ProcessOutcome:
    """Run a configuration's process, of any kind."""
    return _run(cfg, cfg.kind, trace)
