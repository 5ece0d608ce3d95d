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
fixed: a vertex barred from its first in-edge (out-edge) stays barred.  A
count at a cap of 1 bars nothing: the one source left is vertex 1, never a
head (the one sink is vertex n, never a tail).  So a pass falls into phases,
and each phase adds every absent edge its rule allows up to the first edge
at which a count reaches a cap above 1, the profile is exactly (x, y), or
the edge count reaches the budget.  Below its cap a count falls at each
first visit to a head of in-degree 0 (tail of out-degree 0).  Without a
budget the second cap to bind ends the pass at (x, y): at most 2 phases, and
one for (1, 1); with one, a third phase runs to the budget.

Both passes run on a stack of runs from one state, a row each: one inverse
permutation per row and one pair of ``reduceat`` calls give every row's last
visits (``_decide_removals``) or, per phase, first visits
(``_addition_phases``), so the numpy calls are paid once per stack.  A single
run, traced or not, is a stack of one (``_State.last_edge_removal_pass``,
``phase_addition_pass``), but for a fill, whose one phase needs no first
visits (``_neutral_additions``); lone runs from one draw of rows are stacked
(``_removal_stack``, ``_addition_stack``).  A batch of runs moves in
lockstep (``_Batch``), the one record of final runs that stacks and random
trees (``_tree_batch``) also give.  The visit-every-position loops
``_State.removal_pass`` and ``addition_pass`` are the reference for the
passes and the batch, and the exact flow's one-edge step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from bisect import bisect_left
from itertools import chain
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


def _inverse(n: int, orders: np.ndarray, none: int) -> np.ndarray:
    """``(B, C(n, 2))``: where each row of ``orders`` (a ``(B, L)`` array of
    candidates of ``ordered_pairs(n)``, each visited at most once per row)
    visits each candidate, or ``none`` where it does not."""
    shape, steps = (len(orders), n * (n - 1) // 2), np.arange(orders.shape[1])
    visit = np.empty(shape, int) if len(steps) == shape[1] else np.full(shape, none)  # all visited, or not
    for row, order in zip(visit, orders):  # a 2-D scatter took 5x as long on 2 rows at n = 100
        row[order] = steps
    return visit


def _end_reduce(
    n: int, ufunc: np.ufunc, values: np.ndarray, none: int, sides: tuple[bool, bool] = (True, True)
) -> np.ndarray:
    """``ufunc.reduceat`` of each row of ``values`` (``(B, C(n, 2))``, one
    value per candidate) over each vertex's candidates as a head and as a
    tail, for the ``sides`` asked for: a ``(2, B, n + 1)`` int array, heads
    first, ``none`` on a side not asked for and at the vertices that are no
    such end (0, 1 as a head, n as a tail).  Over visits, ``np.maximum``
    gives each vertex's last visits and ``np.minimum`` its first; over a
    present mask, ``np.add`` gives its degrees."""
    tail_starts, by_head, head_starts = _end_runs(n)
    ends = np.full((2, len(values), n + 1), none)
    if n > 1 and sides[0]:
        ufunc.reduceat(values.take(by_head, axis=1), head_starts, axis=1, out=ends[0, :, 2:])
    if n > 1 and sides[1]:
        ufunc.reduceat(values, tail_starts, axis=1, out=ends[1, :, 1:n])
    return ends


def _last_edges(n: int, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For rows of candidates of ``ordered_pairs(n)`` (``(B, L)``, each
    visiting a candidate at most once): each vertex's last visit as a head
    and as a tail (``(B, n + 1)``, -1 if none), read off the inverse
    permutations, and each row's last visits of both kinds together,
    ascending: at most 2n - 2 distinct ones after the -1s."""
    last_in, last_out = _end_reduce(n, np.maximum, _inverse(n, orders, -1), -1)
    last = np.concatenate((last_in, last_out), axis=1)
    last.sort(axis=1)
    return last_in, last_out, last


def _decide_removals(
    n: int, orders: np.ndarray, x: int, y: int, sources: int, sinks: int, need: int
) -> list[tuple[int, int, list[int], list[int], list[int]]]:
    """The last-edge lemma's decisions for removal passes from one state with
    ``sources`` and ``sinks``, one per row of ``orders``: rows of that state's
    present candidates, all of them, in visit order.  A loop decides each
    row's last visits (``_last_edges``) in order, up to the first before which
    ``need`` removals were made.  Per row: the sources and sinks after them,
    the visits kept (ascending), and the kept edges' in- and out-degrees.
    Every visit not kept is a removal, up to the ``need``-th."""
    if not orders.shape[1]:  # no edge to decide
        return [(sources, sinks, [], [0] * (n + 1), [0] * (n + 1)) for _ in orders]
    tails, heads = _pair_ends(n)
    last_in, last_out, last = _last_edges(n, orders)
    decided = orders[np.arange(len(orders))[:, None], last]  # -1 reads the row's end, and is skipped
    decisions = []
    for row_in, row_out, steps, row_tails, row_heads in zip(
        last_in.tolist(), last_out.tolist(), last.tolist(), tails[decided].tolist(), heads[decided].tolist()
    ):
        kept_in, kept_out, kept, row_sources, row_sinks = [0] * (n + 1), [0] * (n + 1), [], sources, sinks
        done, stop = -1, need  # the last visit decided; the first whose removals before it reach need
        for i, a, b in zip(steps, row_tails, row_heads):
            if i <= done:  # -1, or a visit that is both a head's and a tail's last
                continue
            if i >= stop:  # the removals before visit i reached the budget
                break
            done = i
            lone_in = row_in[b] == i and not kept_in[b]
            lone_out = row_out[a] == i and not kept_out[a]
            if (lone_in and row_sources >= x) or (lone_out and row_sinks >= y):
                kept_in[b] += 1
                kept_out[a] += 1
                kept.append(i)
                stop += 1
                continue
            row_sources += lone_in
            row_sinks += lone_out
        decisions.append((row_sources, row_sinks, kept, kept_in, kept_out))
    return decisions


def _addition_phase(
    n: int,
    visit: np.ndarray,
    start: np.ndarray | None,
    bars: list[tuple[bool, bool]],
    has: np.ndarray | None,
    counts: list[list[int]],
    x: int,
    y: int,
    left: list[int] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One phase of ``_addition_phases`` on each row of a stack, under the
    rule that holds at its start.  A row's phase adds the visits (``visit``,
    ``(B, C(n, 2))``) from its ``start`` on (0 if None) that the rule
    allows, up to the first at which a count reaches a cap above 1, the
    profile is exactly (x, y) (if ``left`` is None) or the row's additions
    reach its ``left``.  ``bars`` tells per row whether the sources and the
    sinks are at a cap above 1, ``has`` (``(2, B, n + 1)``, or None for no
    edges) marks the vertices with in- and out-edges, and ``counts`` holds
    each row's sources and sinks, updated in place.  Return the additions,
    as a ``(B, C(n, 2))`` mask, the new ``has``, and where each row's phase
    ended."""
    width = visit.shape[1]
    # at its cap, a vertex without in-edges (out-edges) stays so all phase;
    # vertex 1 is such a vertex but no head, vertex n no tail, so a cap of 1
    # bars nothing
    if start is not None:
        allowed = visit >= start[:, None]
        for barred, has_end, ends in zip(zip(*bars), has, _pair_ends(n)[::-1]):
            if any(barred):  # a barred row's vertices stay open if they have an edge
                allowed &= np.take(has_end | ~np.array(barred)[:, None], ends, axis=1)
        visit = np.where(allowed, visit, width)
    # below its cap, each first visit to a vertex without in-edges (out-edges)
    # loses a source (sink); a count reaches its cap at the visit that loses
    # its last vertex above the cap, or at -1 if it is there.  A side at or
    # below its cap in every row loses nothing, and no vertex gains its first
    # edge of that side, so its first visits are not needed
    above = [any(row_counts[side] > cap for row_counts in counts) for side, cap in enumerate((x, y))]
    first = _end_reduce(n, np.minimum, visit, width, above)
    lost = np.sort(first if has is None else np.where(has, width, first), axis=2)
    ends = []
    for row, (row_counts, lost_in, lost_out) in enumerate(zip(counts, *lost.tolist())):
        sources, sinks = row_counts
        reach_in = lost_in[sources - x - 1] if sources > x else -1
        reach_out = lost_out[sinks - y - 1] if sinks > y else -1
        end = width
        if sources > x > 1:
            end = min(end, reach_in + 1)
        if sinks > y > 1:
            end = min(end, reach_out + 1)
        if left is None:
            if sources >= x and sinks >= y:
                end = min(end, max(reach_in, reach_out) + 1)
        elif 0 < left[row] <= np.count_nonzero(visit[row] < end):
            end = int(np.partition(visit[row], left[row] - 1)[left[row] - 1]) + 1
        end = min(end, width)  # a count that never reaches its cap reads width
        row_counts[:] = sources - bisect_left(lost_in, end), sinks - bisect_left(lost_out, end)
        ends.append(end)
    end = np.array(ends)[:, None]
    reached = first < end
    return visit < end, reached if has is None else reached | has, end[:, 0]


def _addition_phases(
    n: int,
    orders: np.ndarray,
    indeg: list[int],
    outdeg: list[int],
    sources: int,
    sinks: int,
    x: int,
    y: int,
    room: int | None,
) -> tuple[np.ndarray, list[int], list[int]]:
    """The phase pass of addition runs from one state, one per row of
    ``orders`` (``(B, L)``, rows of that state's absent candidates in visit
    order): each ``_addition_phase`` adds every edge its fixed rule allows,
    and a row's next phase goes on after its last addition.  A phase ends
    only where a cap above 1 starts to bind, at the (x, y) halt if ``room``
    is None, or else at the room-th addition of the pass: at most 2 phases
    run without a budget (one for (1, 1)), 3 with one.  Per row: the edges
    added, as a ``(B, C(n, 2))`` mask, and the sources and sinks after them."""
    rows, width = len(orders), n * (n - 1) // 2
    visit = _inverse(n, orders, width)
    start = np.zeros(rows, int) if 1 < sources <= x or 1 < sinks <= y else None
    has = None
    if start is not None or any(indeg) or any(outdeg):
        has = np.repeat((np.array([indeg, outdeg]) > 0)[:, None], rows, axis=1)
    counts = [[sources, sinks] for _ in range(rows)]
    left = None if room is None else [room] * rows
    added = None
    while True:
        bars = [(1 < row_sources <= x, 1 < row_sinks <= y) for row_sources, row_sinks in counts]
        taken, has, end = _addition_phase(n, visit, start, bars, has, counts, x, y, left)
        added = taken if added is None else added | taken
        if left is not None:
            left = [k - count for k, count in zip(left, np.count_nonzero(taken, axis=1).tolist())]
        # a phase whose end bars nothing new added every edge it will ever allow
        go = [
            bar != (1 < row_sources <= x, 1 < row_sinks <= y)
            and ((row_sources, row_sinks) != (x, y) if left is None else left[row] > 0)
            for row, (bar, (row_sources, row_sinks)) in enumerate(zip(bars, counts))
        ]
        if not any(go):
            break
        start = np.where(go, end, width)  # a row that is done visits nothing more
    sources_after, sinks_after = (list(side) for side in zip(*counts))
    return added, sources_after, sinks_after


def _neutral_additions(
    n: int, order: np.ndarray, indeg: list[int], outdeg: list[int], x: int, y: int
) -> np.ndarray:
    """The absent candidates of ``order`` that the addition rule allows from
    an exact (x, y) profile, in order.  A count at a cap above 1 bars every
    edge into (out of) a vertex without in-edges (out-edges), and a cap of 1
    bars nothing; no edge allowed changes a count, so the rule holds all
    pass."""
    tails, heads = _pair_ends(n)
    if x > 1:
        order = order[np.asarray(indeg)[heads[order]] > 0]
    if y > 1:
        order = order[np.asarray(outdeg)[tails[order]] > 0]
    return order


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
        # removals that reach the budget; edges + 1 (never reached) when there is none
        need = edges + 1 if budget is None or edges < budget else edges - budget
        ((sources, sinks, kept, kept_in, kept_out),) = _decide_removals(
            n, order[None], x, y, self.sources, self.sinks, need
        )
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
            tails, heads = _pair_ends(n)
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
        ``order``: the phase pass of ``_addition_phases`` on the absent edges
        of the order, as a stack of one.  A fill, a pass with a budget from an
        exact (x, y) profile, is one phase that ``_neutral_additions`` gives
        whole."""
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
        room = None if budget is None else budget - edges
        if room is not None and (sources, sinks) == (x, y):  # a fill: one phase, cut at the budget
            moved = _neutral_additions(n, order, self.indeg, self.outdeg, x, y)[:room]
        else:
            (added,), (sources,), (sinks,) = _addition_phases(
                n, order[None], self.indeg, self.outdeg, sources, sinks, x, y, room
            )
            moved = order[added[order]]  # in visit order
        if self.trace is not None:
            self._trace_moves("add", moved)
        present[moved] = True
        tails, heads = _pair_ends(n)
        self.indeg = (np.bincount(heads[moved], minlength=n + 1) + self.indeg).tolist()
        self.outdeg = (np.bincount(tails[moved], minlength=n + 1) + self.outdeg).tolist()
        self.sources, self.sinks, self.edge_total = sources, sinks, edges + len(moved)
        self.rounds += len(moved)
        return (sources == tx and sinks == ty) or self.edge_total == stop

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
    by one position of its own permutation per step.  It is also every
    engine's record of final runs, adopted from the stacks' and the trees'
    arrays (``_adopt``); ``states()`` gives each row as a ``_State``.
    ``present`` is ``(B, C(n, 2))``.  A row's two degree lists share one
    ``(B, 2, n + 1)`` int8 array, ``degrees`` (any integer dtype if adopted);
    the source and sink counts share one ``(2, B)`` int8 array, ``counts``.
    ``indeg``, ``outdeg``, ``sources`` and ``sinks`` are views of them.  So a
    step reads both ends' degrees of every row's candidate in one gather and
    writes them back in one scatter.  Degrees, counts and thresholds all lie
    in [-n, n], so an order above ``_BATCH_MAX_ORDER`` is refused.

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

    __slots__ = ("n", "present", "degrees", "counts", "edge_total", "rounds")

    def __init__(self, n: int, complete: bool, count: int) -> None:
        check_int(CapacityError, 1, _BATCH_MAX_ORDER, n=n)
        start = _State(n, complete)
        self.n, self.present = n, np.full((count, n * (n - 1) // 2), complete)
        self.degrees = np.tile(np.array((start.indeg, start.outdeg), np.int8), (count, 1, 1))
        self.counts = np.tile(np.array([[start.sources], [start.sinks]], np.int8), count)
        self.edge_total, self.rounds = np.full(count, start.edge_total, np.int64), np.zeros(count, np.int64)

    @classmethod
    def _adopt(cls, n: int, present, degrees, counts, edge_total, rounds) -> _Batch:
        """A record of final runs, one per row, from arrays trusted as they are,
        in the shapes of the fields; ``degrees`` may have any integer dtype."""
        record = cls.__new__(cls)
        record.n, record.present, record.degrees, record.counts = n, present, degrees, counts
        record.edge_total, record.rounds = edge_total, rounds
        return record

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
        cells = steps + rows * self.present.shape[1]
        held = None
        if np.any(self.edge_total[rows] != start):
            held = self.present.reshape(-1)[cells]
        return rows, steps, cells, held, self.counts[:, rows].copy()

    def _step_index(self, steps: np.ndarray, rows: np.ndarray) -> Iterator[np.ndarray]:
        """Per step, a ``(2, B)`` array: the flat indices in ``degrees`` of
        each row's candidate's head in-degree and tail out-degree.  They are
        built 16 steps at a time into one buffer, which a whole pass's worth
        would make large enough to be faulted in afresh for every pass."""
        tails, heads = (ends.astype(np.intp) for ends in _pair_ends(self.n))
        base = rows * (2 * (self.n + 1))
        buffer = np.empty((16, 2, len(rows)), np.intp)
        for first in range(0, len(steps), len(buffer)):
            part = steps[first : first + len(buffer)]
            index = buffer[: len(part)]
            np.add(heads[part], base, out=index[:, 0])
            np.add(tails[part], base + self.n + 1, out=index[:, 1])
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
        rows, steps, cells, held, counts = self._sub_batch(orders, live, self.present.shape[1])
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
        """Each row as an untraced ``_State``, in row order."""
        fields = (self.indeg, self.outdeg, self.sources, self.sinks, self.edge_total, self.rounds)
        for present, indeg, outdeg, sources, sinks, edges, rounds in zip(self.present, *(f.tolist() for f in fields)):
            state = _State.__new__(_State)
            state.n, state.trace, state.rounds = self.n, None, rounds
            state.present, state.indeg, state.outdeg = bytearray(present), indeg, outdeg
            state.sources, state.sinks, state.edge_total = sources, sinks, edges
            yield state


def _removal_stack(n: int, orders: np.ndarray, x: int, y: int) -> _Batch:
    """The record of removal runs from the complete graph without a budget,
    one per row of ``orders`` (each a permutation of the candidates): the
    last-edge pass of every row at once.  Every undecided edge goes, so a
    row's kept edges are its graph and their counts its degrees."""
    sources, sinks, kept, _, _ = zip(*_decide_removals(n, orders, x, y, 1, 1, orders.shape[1] + 1))
    rows = np.repeat(np.arange(len(orders)), [len(visits) for visits in kept])
    edges = orders[rows, np.fromiter(chain.from_iterable(kept), np.intp, len(rows))]
    present = np.zeros(orders.shape, bool)
    present[rows, edges] = True
    tails, heads = _pair_ends(n)
    base, size = rows * (2 * (n + 1)), len(orders) * 2 * (n + 1)  # flat indices of degrees' rows
    ends = np.concatenate((heads[edges] + base, tails[edges] + base + n + 1))
    degrees = np.bincount(ends, minlength=size).reshape(len(orders), 2, n + 1)
    count = np.bincount(rows, minlength=len(orders))
    return _Batch._adopt(n, present, degrees, np.array([sources, sinks]), count, orders.shape[1] - count)


def _addition_stack(n: int, orders: np.ndarray, x: int, y: int) -> _Batch:
    """The record of addition runs from the empty graph without a budget, one
    per row of ``orders`` (each a permutation of the candidates): the phase
    pass of every row at once."""
    start = _State(n, False)
    present, sources, sinks = _addition_phases(
        n, orders, start.indeg, start.outdeg, start.sources, start.sinks, x, y, None
    )
    degrees = _end_reduce(n, np.add, present, 0).transpose(1, 0, 2)
    edges = np.count_nonzero(present, axis=1)
    return _Batch._adopt(n, present, degrees, np.array([sources, sinks]), edges, edges.copy())


def _passes(state: _State | _Batch) -> tuple[Callable, Callable]:
    """The addition and removal passes of one run or of a batch."""
    if isinstance(state, _State):
        return state.phase_addition_pass, state.last_edge_removal_pass
    return state.addition_pass, state.removal_pass


def _finish(cfg: ProcessConfig, state: _State | _Batch, draw: Callable[[], list | np.ndarray]) -> None:
    """Run the phases of ``cfg`` on a fresh ``state``, one run or a batch of
    runs in lockstep.  Each phase takes its edge orders from ``draw()``: a
    permutation of the candidate-edge indices, or one per row of a batch.
    The combined process draws its second order only if some run hit (x, y).
    One run takes the lemma passes, a batch the lockstep kernel."""
    x, y = cfg.x, cfg.y
    add, remove = _passes(state)
    if cfg.kind is ProcessKind.REMOVAL:
        remove(draw(), x, y)
        return
    hit = add(draw(), x, y)
    if cfg.kind is ProcessKind.COMBINED:
        _adjust(cfg, state, hit, draw)


def _adjust(cfg: ProcessConfig, state: _State | _Batch, hit, draw: Callable[[], list | np.ndarray]) -> None:
    """The combined process's second phase on ``state`` after its addition
    phase, on the runs that ``hit`` (a bool, or one per row of a batch) marks
    as at (x, y): neutral additions or capped removals to m edges, in an
    order from ``draw()``, drawn only if some run hit."""
    if not np.any(hit):
        return
    x, y, m = cfg.x, cfg.y, cfg.m
    add, remove = _passes(state)
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
        record = _tree_batch(cfg.n, rng.random((1, cfg.n - 1)))
        if trace is not None:  # its edges in child order: one into each vertex but 1
            edges = np.flatnonzero(record.present[0])
            _State(cfg.n, False, trace)._trace_moves("add", edges[np.argsort(_pair_ends(cfg.n)[1][edges])])
        (state,) = record.states()
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


def _tree_batch(n: int, draws: np.ndarray) -> _Batch:
    """The record of one tree per row of ``draws`` (``(B, n - 1)`` uniforms):
    vertex s + 1 attaches to vertex int(u * s) + 1, uniform on 1..s, for the
    s-th draw u of the row.  A tree's n - 1 edges leave one source, vertex 1,
    and a sink at each vertex that no draw picks."""
    rows, s = len(draws), np.arange(1, n)
    tails = (draws * s).astype(np.intp) + 1  # the float product that int(u * s) truncates
    width, first = n * (n - 1) // 2, np.arange(rows)[:, None]
    present = np.zeros((rows, width), bool)
    present[first, (tails - 1) * (2 * n - tails) // 2 + s - tails] = True  # (a, s + 1) in ordered_pairs(n)
    degrees = np.zeros((rows, 2, n + 1), np.intp)
    degrees[:, 0, 2:] = 1
    degrees[:, 1] = np.bincount((tails + first * (n + 1)).ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)
    counts = np.array([np.ones(rows, np.intp), np.count_nonzero(degrees[:, 1, 1:] == 0, axis=1)])
    return _Batch._adopt(n, present, degrees, counts, np.full(rows, n - 1), np.full(rows, n - 1))


def random_directed_tree(n: int, seed: int) -> OrderedDag:
    """Attach vertex s+1 to a uniformly random earlier vertex, for s = 1..n-1.

    The result has exactly n - 1 edges, its underlying graph is a tree, and
    vertex 1 is the unique source.
    """
    check_int(ConfigError, 0, SEED_MAX, seed=seed)
    check_int(GraphError, 1, MAX_ORDER, n=n)
    return next(_tree_batch(n, _rng(seed).random((1, n - 1))).states()).graph()


def run_process(cfg: ProcessConfig, trace: TraceFn | None = None) -> ProcessOutcome:
    """Run a configuration's process, of any kind."""
    return _run(cfg, cfg.kind, trace)
