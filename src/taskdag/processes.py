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

Every single run, traced or not, takes these two passes; a batch of runs moves
in lockstep (``_Batch``).  The visit-every-position loops
``_State.removal_pass`` and ``addition_pass`` are the reference for both, and
the exact flow's one-edge step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .analysis import ExtremalKind, extremal_value
from .errors import CapacityError, ConfigError, GraphError, TaskDagError, check_int
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


@lru_cache(maxsize=2)
def _end_runs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For ``reduceat`` over ``ordered_pairs(n)``: where each tail's run of
    candidates starts (tails 1..n-1), the candidates in head order, and
    where each head's run starts in that order (heads 2..n)."""
    tail_starts = np.array([(a - 1) * (2 * n - a) // 2 for a in range(1, n)], np.intp)
    head_starts = np.array([(b - 1) * (b - 2) // 2 for b in range(2, n + 1)], np.intp)
    by_head = np.argsort(_pair_ends(n)[1], kind="stable")
    for runs in (tail_starts, by_head, head_starts):
        runs.flags.writeable = False
    return tail_starts, by_head, head_starts


def _last_edges(n: int, order: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For candidates of ``ordered_pairs(n)`` visited in ``order``, each at
    most once: each vertex's last visit as a head and as a tail (-1 if none),
    read off the inverse permutation, and the visits that are one of these,
    ascending: at most 2n - 2."""
    tail_starts, by_head, head_starts = _end_runs(n)
    visit = np.full(n * (n - 1) // 2, -1)
    visit[order] = np.arange(len(order))
    last_in, last_out = np.full(n + 1, -1), np.full(n + 1, -1)
    last_out[1:n] = np.maximum.reduceat(visit, tail_starts)
    last_in[2:] = np.maximum.reduceat(visit[by_head], head_starts)
    # distinct and without -1 (vertex 0 has no visit); np.unique would cost
    # a lone run ~1.5 MB of resident memory on its first call
    last = np.sort(np.concatenate((last_in, last_out)))
    return last_in, last_out, last[1:][last[1:] != last[:-1]]


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
    their position in ``ordered_pairs(n)``, a topological order: each edge
    comes after every edge into its tail.  ``_finish`` moves a run with the
    lemma passes (module docstring): ``last_edge_removal_pass`` decides only
    each vertex's last present in- and out-edge, and ``phase_addition_pass``
    adds in one array step per phase; a traced run then reports its moves in
    order.  ``removal_pass`` and ``addition_pass`` visit every position of
    their order; they are the reference for the lemma passes and the lockstep
    kernel, and the exact flow's one-edge step.  The lemma passes and
    ``graph()`` read the candidates' ends from ``_pair_ends(n)``, so only the
    loops build ``ordered_pairs(n)``.  ``present`` is a ``bytearray``, one
    0/1 byte per candidate: the loops index it as fast as a list, ``copy()``
    slices it, and numpy reads and writes it in place as a bool array."""

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

    def _present_mask(self) -> np.ndarray:
        """``present`` as a read-only numpy bool array over its bytes."""
        return np.frombuffer(memoryview(self.present).toreadonly(), np.bool_)

    def copy(self) -> _State:
        state = _State.__new__(_State)
        state.n, state.trace, state.rounds = self.n, self.trace, self.rounds
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
        pairs, present, indeg, outdeg = ordered_pairs(self.n), self.present, self.indeg, self.outdeg
        sources, sinks, edges, rounds, trace = self.sources, self.sinks, self.edge_total, self.rounds, self.trace
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
        self, order: np.ndarray | list[int], x: int, y: int, budget: int | None = None, active: bool = True
    ) -> bool:
        """``removal_pass`` for candidates ``ordered_pairs(n)`` and any integer
        ``order``.  Numpy finds each vertex's last present in- and out-edge in
        the order; a loop decides only those positions, and every other
        present edge is removed in one step.  With a budget, the removals stop
        where their running count reaches it."""
        edges = self.edge_total
        if not active or edges == budget:
            return edges == budget
        n, order = self.n, np.asarray(order, dtype=np.intp)
        present = np.frombuffer(self.present, np.bool_)  # written in place
        if edges < len(order):  # visit the present edges only
            order = order[present[order]]
        tails, heads = _pair_ends(n)
        last_in, last_out, steps = _last_edges(n, order)
        # removals that reach the budget; edges + 1 (never reached) when there is none
        need = edges + 1 if budget is None or edges < budget else edges - budget
        sources, sinks, kept = self.sources, self.sinks, []
        last_in, last_out = last_in.tolist(), last_out.tolist()
        kept_in, kept_out = [0] * (n + 1), [0] * (n + 1)
        decided = order[steps]
        for i, a, b in zip(steps.tolist(), tails[decided].tolist(), heads[decided].tolist()):
            if i - len(kept) >= need:  # the removals before visit i reached the budget
                break
            lone_in = last_in[b] == i and not kept_in[b]
            lone_out = last_out[a] == i and not kept_out[a]
            if (lone_in and sources >= x) or (lone_out and sinks >= y):
                kept_in[b] += 1
                kept_out[a] += 1
                kept.append(i)
                continue
            sources += lone_in
            sinks += lone_out
        if self.trace is not None:  # every visit not kept is a removal, up to the budget
            self._trace_moves("remove", np.delete(order, kept)[:need])
        if budget is None:  # every undecided edge goes: the kept ones are all there is
            present[:] = False  # the order visits every present edge
            present[order[kept]] = True
            self.indeg, self.outdeg, count = kept_in, kept_out, len(order) - len(kept)
        else:  # keep the edges after the removal that reaches the budget
            gone = np.ones(len(order), bool)
            gone[kept] = False
            gone[np.flatnonzero(gone)[need:]] = False
            present[order[gone]] = False
            left = order[~gone]
            self.indeg = np.bincount(heads[left], minlength=n + 1).tolist()
            self.outdeg = np.bincount(tails[left], minlength=n + 1).tolist()
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
        pairs, present, indeg, outdeg = ordered_pairs(self.n), self.present, self.indeg, self.outdeg
        sources, sinks, edges, rounds, trace = self.sources, self.sinks, self.edge_total, self.rounds, self.trace
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
        self, order: np.ndarray | list[int], x: int, y: int, budget: int | None = None, active: bool = True
    ) -> bool:
        """``addition_pass`` for candidates ``ordered_pairs(n)`` and any integer
        ``order``.  Keep the absent edges of the order; then, by the phase
        lemma, each ``_addition_phase`` adds what its fixed rule allows in one
        array step, and the next phase goes on after its last addition.  At
        most 2 phases run without a budget, 3 with one."""
        sources, sinks, edges = self.sources, self.sinks, self.edge_total
        if budget is None:  # halt at the exact profile, never at an edge count
            tx, ty, stop = x, y, -1
        else:  # halt at the edge count only
            tx, ty, stop = -1, -1, budget
        if not active or (sources == tx and sinks == ty) or edges == stop:
            return (sources == tx and sinks == ty) or edges == stop
        n, order = self.n, np.asarray(order, dtype=np.intp)
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
        if self.trace is not None:
            self._trace_moves("add", order[added])
        if count:
            present[order[added]] = True
            self.indeg, self.outdeg = indeg.tolist(), outdeg.tolist()
        self.sources, self.sinks, self.edge_total, self.rounds = sources, sinks, edges, self.rounds + count
        return (sources == tx and sinks == ty) or edges == stop

    def _trace_moves(self, op: str, moved: np.ndarray) -> None:
        """Call the trace once per move of a pass, at the candidates ``moved``
        in order, with the running counts and rounds from the fields at the
        pass start.  A count changes where a move takes a degree from 1 to 0
        (removal) or from 0 to 1 (addition)."""
        tails, heads = _pair_ends(self.n)
        indeg, outdeg, sources, sinks = self.indeg[:], self.outdeg[:], self.sources, self.sinks
        # per move: the degree change, and the degree before it that moves a count
        step, edge = (-1, 1) if op == "remove" else (1, 0)
        for rounds, (a, b) in enumerate(zip(tails[moved].tolist(), heads[moved].tolist()), self.rounds + 1):
            sources -= step * (indeg[b] == edge)
            sinks -= step * (outdeg[a] == edge)
            indeg[b] += step
            outdeg[a] += step
            self.trace(rounds, op, a, b, sources, sinks)

    def graph(self) -> OrderedDag:
        tails, heads = _pair_ends(self.n)  # the kept pair ends, in the order of ordered_pairs(n)
        kept = np.flatnonzero(self._present_mask())
        edges = set(zip(tails[kept].tolist(), heads[kept].tolist()))
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


# Largest order a _Batch takes: its degrees, counts and thresholds are int8.
_BATCH_MAX_ORDER = np.iinfo(np.int8).max


class _Batch:
    """Runs of ``_State`` from the same start, one per row, moved in lockstep:
    the same fields as arrays, and the same two passes, which move every row
    by one position of its own permutation per step.  ``present`` is
    ``(B, C(n, 2))``.  A row's two degree lists share one ``(B, 2, n + 1)``
    int8 array, ``degrees``; the source and sink counts share one ``(2, B)``
    int8 array, ``counts``.  ``indeg``, ``outdeg``, ``sources`` and ``sinks``
    are views of them.  So a step reads both ends' degrees of every row's
    candidate in one gather and writes them back in one scatter.  Degrees,
    counts and thresholds all lie in [-n, n], so an order above
    ``_BATCH_MAX_ORDER`` is refused.

    Each step tests both ends against a per-row threshold of their side.  The
    cancel rule blocks a move at an end whose degree would leave or enter 0
    (1 before a removal, 0 before an addition) while that side's count is at
    its cap.  So a side is free when its end's degree is above its threshold:
    for a removal 1 at the cap and count - cap + 1 <= 0 below it, for an
    addition 0 at the cap and cap - count < 0 above it.  A move that changes
    the count raises the threshold by 1, until it reaches the cap value.
    The step's bool results are read as int8 through zero-copy views, so
    every update runs on operands of one dtype.

    A pass visits each candidate once, and only the visited candidate moves
    at a step, so a candidate's presence at its visit is its presence at the
    pass start.  A pass therefore reads presence once, as a ``(C, B)`` array
    in step order, or not at all from the complete (removal) or empty
    (addition) start; records its moves in another; and writes ``present``
    once after its last step.  A pass on some rows (``active``) runs on the
    compacted sub-batch of those rows.  ``_State.removal_pass`` and
    ``addition_pass`` are the reference: each pass here applies the same
    cancel rule and halts where it does, row by row, and the tests require
    equal fields for every row."""

    __slots__ = ("n", "tails", "heads", "present", "degrees", "counts", "edge_total", "rounds")

    def __init__(self, n: int, complete: bool, count: int) -> None:
        check_int(CapacityError, 1, _BATCH_MAX_ORDER, n=n)
        start = _State(n, complete)
        self.n, (self.tails, self.heads) = n, (ends.astype(np.intp) for ends in _pair_ends(n))
        self.present = np.full((count, len(self.tails)), complete)
        self.degrees = np.empty((count, 2, n + 1), np.int8)
        self.degrees[:] = np.array((start.indeg, start.outdeg), np.int8)
        self.counts = np.empty((2, count), np.int8)
        self.counts[:] = [[start.sources], [start.sinks]]
        self.edge_total = np.full(count, start.edge_total, np.int64)
        self.rounds = np.zeros(count, np.int64)

    indeg = property(lambda self: self.degrees[:, 0])
    outdeg = property(lambda self: self.degrees[:, 1])
    sources = property(lambda self: self.counts[0])
    sinks = property(lambda self: self.counts[1])

    def _sub_batch(self, orders: np.ndarray, live: np.ndarray, start: int) -> tuple[np.ndarray, ...]:
        """The sub-batch of the rows ``live`` marks: their indices; per step,
        their candidates and those candidates' flat indices in ``present``,
        as ``(C, B)`` arrays; their presence at each step, or None if every
        row has ``start`` edges (the complete or the empty graph); and a copy
        of their counts."""
        rows = np.flatnonzero(live)
        # step-major and contiguous: a combined cell's orders are every other row
        steps = np.ascontiguousarray((orders if len(rows) == len(orders) else orders[rows]).T)
        cells = steps + rows * len(self.tails)
        held = None
        if np.any(self.edge_total[rows] != start):
            held = self.present.reshape(-1)[cells]
        return rows, steps, cells, held, self.counts[:, rows].copy()

    def _step_index(self, steps: np.ndarray, rows: np.ndarray) -> Iterator[np.ndarray]:
        """Per step, a ``(2, B)`` array: the flat indices in ``degrees`` of
        each row's candidate's head in-degree and tail out-degree.  They are
        built 16 steps at a time into one buffer, which a whole pass's worth
        would make large enough to be faulted in afresh for every pass."""
        base = rows * (2 * (self.n + 1))
        buffer = np.empty((16, 2, len(rows)), np.intp)
        for first in range(0, len(steps), len(buffer)):
            part = steps[first : first + len(buffer)]
            index = buffer[: len(part)]
            np.add(self.heads[part], base, out=index[:, 0])
            np.add(self.tails[part], base + self.n + 1, out=index[:, 1])
            yield from index

    def _store(self, rows: np.ndarray, cells: np.ndarray, held, counts, moved: np.ndarray, sign: int) -> None:
        """Write back a pass on the sub-batch ``rows``: each moved candidate's
        flipped presence, the counts, and ``sign`` edges per move."""
        self.present.reshape(-1)[cells] = moved ^ (sign < 0 if held is None else held)
        self.counts[:, rows] = counts
        count = np.count_nonzero(moved, axis=0)
        self.edge_total[rows] += sign * count
        self.rounds[rows] += count

    def removal_pass(
        self, orders: np.ndarray, x: int, y: int, budget: int | None = None, active: np.ndarray | None = None
    ) -> np.ndarray:
        """``_State.removal_pass`` on every row in ``active`` (all rows by
        default), row i taking ``orders[i]``.  Return which rows are at the
        budget."""
        stop = -1 if budget is None else budget
        live = self.edge_total != stop
        if active is not None:
            live &= active
        if not live.any():
            return self.edge_total == stop
        rows, steps, cells, held, counts = self._sub_batch(orders, live, len(self.tails))
        threshold = np.minimum(counts - np.array([[x], [y]], np.int8) + 1, 1)
        counts -= threshold  # the counts, less the threshold's rise
        flat, free = self.degrees.reshape(-1), np.empty(counts.shape, bool)
        moved, live = np.zeros(steps.shape, bool), np.ones(len(rows), bool)
        (free_in, free_out), rise, units = free, free.view(np.int8), moved.view(np.int8)  # zero-copy int8 views
        left = self.edge_total[rows] - stop  # removals to the budget
        for step, (index, move, unit) in enumerate(zip(self._step_index(steps, rows), moved, units)):
            ends = flat[index]
            np.greater(ends, threshold, out=free)
            np.logical_and(free_in, free_out, out=move)
            if held is not None:
                move &= held[step]
            if budget is not None:
                move &= live
            ends -= unit
            flat[index] = ends
            np.less(ends, unit, out=free)  # the removal left a degree 0
            threshold += rise
            if budget is not None:
                left -= move
                if not np.not_equal(left, 0, out=live).any():
                    break
        self._store(rows, cells, held, counts + threshold, moved, -1)
        return self.edge_total == stop

    def addition_pass(
        self, orders: np.ndarray, x: int, y: int, budget: int | None = None, active: np.ndarray | None = None
    ) -> np.ndarray:
        """``_State.addition_pass`` on every row in ``active`` (all rows by
        default), row i taking ``orders[i]``.  Return which rows halted.
        Without a budget a row halts once both thresholds reach ``goal``,
        where the counts equal the caps (never, if a count starts below)."""

        def halted() -> np.ndarray:  # at the exact profile, or with a budget at the edge count
            return (self.sources == x) & (self.sinks == y) if budget is None else self.edge_total == budget

        live = ~halted() if active is None else active & ~halted()
        if not live.any():
            return halted()
        rows, steps, cells, held, counts = self._sub_batch(orders, live, 0)
        caps = np.array([[x], [y]], np.int8)
        threshold, goal = np.minimum(caps - counts, 0), np.minimum(counts - caps, 0)
        counts += threshold  # the counts, plus the threshold's rise
        flat, free = self.degrees.reshape(-1), np.empty(counts.shape, bool)
        moved, live = np.zeros(steps.shape, bool), np.ones(len(rows), bool)
        (free_in, free_out), rise, units = free, free.view(np.int8), moved.view(np.int8)
        left = None if budget is None else budget - self.edge_total[rows]  # additions to the budget
        for step, (index, move, unit) in enumerate(zip(self._step_index(steps, rows), moved, units)):
            ends = flat[index]
            np.greater(ends, threshold, out=free)
            np.logical_and(free_in, free_out, out=move)
            if held is not None:
                np.greater(move, held[step], out=move)
            move &= live
            np.less(ends, unit, out=free)  # the addition gave a degree 0 an edge
            threshold += rise
            ends += unit
            flat[index] = ends
            if left is None:
                np.not_equal(threshold, goal, out=free)
                np.logical_or(free_in, free_out, out=live)
            else:
                left -= move
                np.not_equal(left, 0, out=live)
            if not live.any():
                break
        self._store(rows, cells, held, counts - threshold, moved, 1)
        return halted()

    def states(self) -> Iterator[_State]:
        """Each row as a ``_State``, in row order."""
        fields = (self.indeg, self.outdeg, self.sources, self.sinks, self.edge_total, self.rounds)
        for present, (indeg, outdeg, sources, sinks, edges, rounds) in zip(
            self.present, zip(*(f.tolist() for f in fields))
        ):
            state = _State.__new__(_State)
            state.n, state.trace, state.rounds = self.n, None, rounds
            state.present, state.indeg, state.outdeg = bytearray(present), indeg, outdeg
            state.sources, state.sinks, state.edge_total = sources, sinks, edges
            yield state


def _finish(cfg: ProcessConfig, state: _State | _Batch, draw: Callable[[], list | np.ndarray]) -> None:
    """Run the phases of ``cfg`` on a fresh ``state``, one run or a batch of
    runs in lockstep.  Each phase takes its edge orders from ``draw()``: a
    permutation of the candidate-edge indices, or one per row of a batch.
    The combined process draws its second order only if some run hit (x, y).
    One run takes the lemma passes, a batch the lockstep kernel."""
    x, y, m = cfg.x, cfg.y, cfg.m
    if isinstance(state, _State):
        add, remove = state.phase_addition_pass, state.last_edge_removal_pass
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
    on 1..s, for the s-th draw u.  Its n - 1 edges are added to an empty state
    in child order, each traced as one move: each takes away a source, its
    head, and a sink if its tail had no out-edge yet."""
    state = _State(n, False)
    present, indeg, outdeg, sinks = state.present, state.indeg, state.outdeg, n
    for s, u in enumerate(draws, 1):
        a = int(u * s) + 1
        present[(a - 1) * (2 * n - a) // 2 + s - a] = True  # (a, s + 1) in ordered_pairs(n)
        sinks -= outdeg[a] == 0
        indeg[s + 1], outdeg[a] = 1, outdeg[a] + 1
        if trace is not None:
            trace(s, "add", a, s + 1, n - s, sinks)
    state.sources, state.sinks, state.edge_total = n - len(draws), sinks, len(draws)
    state.rounds = len(draws)
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
