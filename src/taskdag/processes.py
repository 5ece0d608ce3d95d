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
at which a count reaches a cap above 1 or the profile is exactly (x, y).
Below its cap a count falls at each first visit to a head of in-degree 0
(tail of out-degree 0).  The second cap to bind ends the pass at (x, y): at
most 2 phases, and one for (1, 1).  From an exact (x, y) profile the rule
holds all pass and no edge it allows changes a count, so the combined
process's fill, a pass from that profile with an edge budget, is one phase
cut at m.

Both passes run on a stack of runs from the complete or the empty graph, a
row each: one inverse permutation per row and one pair of ``reduceat`` calls
give every row's last visits (``_decide_removals``) or, per phase, first
visits (``_addition_phases``), so the numpy calls are paid once per stack.
Every lone run, a single one or one of a draw of rows, takes one route
(``_lone_runs``): removals run as one ``_removal_stack``, additions and the
combined process's addition phase as one ``_addition_stack``, and a combined
run that hit (x, y) then fills or trims its row of the record in place
(``_fill_or_trim``).  A batch of runs moves in lockstep (``_lockstep_runs``,
one ``_Batch.run_pass`` per phase), in the one record of final runs that
stacks and random trees (``_tree_batch``) also give; a single tree goes from
its parents straight to its graph (``_lone_tree``).  So a ``_Batch`` record
is the one run state.

The cancel rule itself, per side the degree a move's end must exceed, is one
function (``_thresholds``): the lockstep pass, the fill and the exact flow
(``oracle.exact_process_distribution``) read it, and the lemmas above are its
consequences.  The tests hold every engine to the visit-every-position loops
in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from bisect import bisect_left
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .analysis import ExtremalKind, extremal_value
from .errors import CapacityError, ConfigError, GraphError, TaskDagError, check_int
from .graph import MAX_ORDER, OrderedDag

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


def _check_config(cfg: object) -> None:
    """The one config-argument rule: ``cfg`` is a ``ProcessConfig``, or a
    ConfigError names it."""
    if not isinstance(cfg, ProcessConfig):
        raise ConfigError(f"cfg must be a ProcessConfig, got {cfg!r}")


@dataclass(frozen=True)
class ProcessOutcome:
    """Final graph plus bookkeeping."""

    graph: OrderedDag
    rounds: int
    halt_reason: HaltReason
    is_target_xy: bool


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


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
    n: int, orders: np.ndarray, x: int, y: int, sources: int, sinks: int
) -> list[tuple[int, int, list[int], list[int], list[int]]]:
    """The last-edge lemma's decisions for removal passes from one state with
    ``sources`` and ``sinks``, one per row of ``orders``: rows of that state's
    present candidates, all of them, in visit order.  A loop decides each
    row's last visits (``_last_edges``) in order.  Per row: the sources and
    sinks after them, the visits kept (ascending), and the kept edges' in-
    and out-degrees.  Every visit not kept is a removal.  A decision reads
    only earlier visits, so a pass with a removal budget keeps the same
    visits up to the one that spends it."""
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
        done = -1  # the last visit decided
        for i, a, b in zip(steps, row_tails, row_heads):
            if i <= done:  # -1, or a visit that is both a head's and a tail's last
                continue
            done = i
            lone_in = row_in[b] == i and not kept_in[b]
            lone_out = row_out[a] == i and not kept_out[a]
            if (lone_in and row_sources >= x) or (lone_out and row_sinks >= y):
                kept_in[b] += 1
                kept_out[a] += 1
                kept.append(i)
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One phase of ``_addition_phases`` on each row of a stack, under the
    rule that holds at its start.  A row's phase adds the visits (``visit``,
    ``(B, C(n, 2))``) from its ``start`` on (0 if None) that the rule
    allows, up to the first at which a count reaches a cap above 1 or the
    profile is exactly (x, y).  ``bars`` tells per row whether the sources
    and the sinks are at a cap above 1, ``has`` (``(2, B, n + 1)``, or None
    for no edges) marks the vertices with in- and out-edges, and ``counts``
    holds each row's sources and sinks, updated in place.  Return the
    additions, as a ``(B, C(n, 2))`` mask, the new ``has``, and where each
    row's phase ended."""
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
    for row_counts, lost_in, lost_out in zip(counts, *lost.tolist()):
        sources, sinks = row_counts
        reach_in = lost_in[sources - x - 1] if sources > x else -1
        reach_out = lost_out[sinks - y - 1] if sinks > y else -1
        end = max(reach_in, reach_out) + 1  # the exact profile
        if sources > x > 1:
            end = min(end, reach_in + 1)
        if sinks > y > 1:
            end = min(end, reach_out + 1)
        end = min(end, width)  # a count that never reaches its cap reads width
        row_counts[:] = sources - bisect_left(lost_in, end), sinks - bisect_left(lost_out, end)
        ends.append(end)
    end = np.array(ends)[:, None]
    reached = first < end
    return visit < end, reached if has is None else reached | has, end[:, 0]


def _addition_phases(n: int, orders: np.ndarray, x: int, y: int) -> tuple[np.ndarray, list[int], list[int]]:
    """The phase pass of addition runs from the empty graph, one per row of
    ``orders`` (``(B, C(n, 2))`` candidate permutations): each
    ``_addition_phase`` adds every edge its fixed rule allows, and a row's
    next phase goes on after its last addition.  A phase ends only where a
    cap above 1 starts to bind or at the (x, y) halt: at most 2 phases run,
    one for (1, 1).  Per row: the edges added, as a ``(B, C(n, 2))`` mask,
    and the sources and sinks after them."""
    rows, width = len(orders), n * (n - 1) // 2
    if 1 < n <= max(x, y):  # a count at its cap above 1 bars every first edge, and all edges are first
        return np.zeros((rows, width), bool), [n] * rows, [n] * rows
    visit = _inverse(n, orders, width)
    counts = [[n, n] for _ in range(rows)]
    start = has = added = None
    while True:
        bars = [(1 < row_sources <= x, 1 < row_sinks <= y) for row_sources, row_sinks in counts]
        taken, has, end = _addition_phase(n, visit, start, bars, has, counts, x, y)
        added = taken if added is None else added | taken
        # a phase whose end bars nothing new added every edge it will ever allow
        go = [
            bar != (1 < row_sources <= x, 1 < row_sinks <= y) and (row_sources, row_sinks) != (x, y)
            for bar, (row_sources, row_sinks) in zip(bars, counts)
        ]
        if not any(go):
            break
        start = np.where(go, end, width)  # a row that is done visits nothing more
    sources, sinks = (list(side) for side in zip(*counts))
    return added, sources, sinks


def _thresholds(counts, caps, removal: bool):
    """The cancel rule, per side: the degree a move's end must exceed to be
    free, for ``counts`` of sources and sinks (first axis) under ``caps``
    (any broadcastable shapes, such as ``(2, B)`` and ``(2, 1)``).  A move is
    blocked at an end whose degree would leave or enter 0 (1 before a
    removal, 0 before an addition) while that side's count is at its cap:
    for a removal the threshold is 1 at or above the cap and count - cap + 1
    <= 0 below it, for an addition 0 at or below the cap and cap - count < 0
    above it.  A move passes when both its ends are free."""
    return np.minimum(counts - caps + 1, 1) if removal else np.minimum(caps - counts, 0)


# Largest order a _Batch takes: its degrees, counts and thresholds are int8.
_BATCH_MAX_ORDER = np.iinfo(np.int8).max


class _Batch:
    """Runs from the same start, the complete or the empty graph, one per
    row, moved in lockstep: each pass (``run_pass``) moves every row by one
    position of its own permutation per step.  It is also every engine's
    record of final runs, adopted from the stacks' and the trees' arrays
    (``_adopt``).
    ``present`` is ``(B, C(n, 2))``.  A row's two degree lists share one
    ``(B, 2, n + 1)`` int8 array, ``degrees`` (any integer dtype if adopted);
    the source and sink counts share one ``(2, B)`` int8 array, ``counts``.
    ``indeg``, ``outdeg``, ``sources`` and ``sinks`` are views of them.  So a
    step reads both ends' degrees of every row's candidate in one gather and
    writes them back in one scatter.  Degrees, counts and thresholds all lie
    in [-n, n], so an order above ``_BATCH_MAX_ORDER`` is refused.

    Each step tests both ends against a per-row threshold of their side
    (``_thresholds``).  A move that changes the count raises the threshold
    by 1, until it reaches the cap value.  Within a step, removals and
    additions differ only where they read the degree that changes a count:
    after a removal, before an addition.  The step's bool results are read
    as int8 through zero-copy views, so every update runs on operands of one
    dtype.

    A pass visits each candidate once, and only the visited candidate moves
    at a step, so a candidate's presence at its visit is its presence at the
    pass start.  A pass therefore reads presence once, as a ``(C, B)`` array
    in step order, or not at all from the complete (removal) or empty
    (addition) start; records its moves in another; and writes ``present``
    once after its last step.  A pass on some rows (``active``) runs on the
    compacted sub-batch of those rows.  The tests hold every row of a pass
    to the visit-every-position loops of ``tests/reference.py``: the same
    cancel rule, the same halt and equal fields."""

    __slots__ = ("n", "present", "degrees", "counts", "edge_total", "rounds")

    def __init__(self, n: int, complete: bool, count: int) -> None:
        check_int(CapacityError, 1, _BATCH_MAX_ORDER, n=n)
        self.n, self.present = n, np.full((count, n * (n - 1) // 2), complete)
        self.degrees = np.zeros((count, 2, n + 1), np.int8)
        if complete:  # vertex v has v - 1 predecessors and n - v successors
            self.degrees[:, 0, 1:], self.degrees[:, 1, 1:] = np.arange(n), np.arange(n - 1, -1, -1)
        self.counts = np.full((2, count), 1 if complete else n, np.int8)
        self.edge_total = np.full(count, self.present.shape[1] if complete else 0, np.int64)
        self.rounds = np.zeros(count, np.int64)

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

    def run_pass(
        self, orders: np.ndarray, x: int, y: int, removal: bool, budget: int | None = None,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        """Remove each present edge (``removal``) or add each absent edge of
        row i's order ``orders[i]`` that the cancel rule lets through, on
        every row in ``active`` (all rows by default).  Return which rows
        halted: with a budget at ``budget`` edges, else an addition at the
        exact (x, y) profile, once both thresholds reach ``goal``, where the
        counts equal the caps (never, if a count starts below); a removal
        without a budget never halts."""

        def halted() -> np.ndarray:  # a removal without a budget halts at no edge count, -1
            if budget is None and not removal:
                return (self.sources == x) & (self.sinks == y)
            return self.edge_total == (-1 if budget is None else budget)

        live = ~halted() if active is None else active & ~halted()
        if not live.any():
            return halted()
        sign = -1 if removal else 1  # the change in edges per move
        rows, steps, cells, held, counts = self._sub_batch(orders, live, self.present.shape[1] if removal else 0)
        need = held if held is None or removal else ~held  # the presence a move needs
        caps = np.array([[x], [y]], np.int8)
        threshold = _thresholds(counts, caps, removal)
        if budget is None and not removal:  # the thresholds where the counts equal the caps
            goal = np.minimum(counts - caps, 0)
        counts = counts - threshold if removal else counts + threshold  # less or plus the threshold's rise
        flat, free = self.degrees.reshape(-1), np.empty(counts.shape, bool)
        moved, live = np.zeros(steps.shape, bool), np.ones(len(rows), bool)
        (free_in, free_out), rise, units = free, free.view(np.int8), moved.view(np.int8)  # zero-copy int8 views
        left = None if budget is None else sign * (budget - self.edge_total[rows])  # moves to the budget
        stops = budget is not None or not removal  # whether a row can halt before the pass ends
        for step, (index, move, unit) in enumerate(zip(self._step_index(steps, rows), moved, units)):
            ends = flat[index]
            np.greater(ends, threshold, out=free)
            np.logical_and(free_in, free_out, out=move)
            if need is not None:
                move &= need[step]
            if stops:
                move &= live
            if removal:  # a count rises where the removal leaves a degree 0
                ends -= unit
                np.less(ends, unit, out=free)
            else:  # and falls where the addition gives a degree 0 an edge
                np.less(ends, unit, out=free)
                ends += unit
            flat[index] = ends
            threshold += rise
            if not stops:
                continue
            if left is None:
                np.not_equal(threshold, goal, out=free)
                np.logical_or(free_in, free_out, out=live)
            else:
                left -= move
                np.not_equal(left, 0, out=live)
            if not live.any():
                break
        self.present.reshape(-1)[cells] = moved ^ (removal if held is None else held)
        self.counts[:, rows] = counts + threshold if removal else counts - threshold
        count = np.count_nonzero(moved, axis=0)
        self.edge_total[rows] += sign * count
        self.rounds[rows] += count
        return halted()


def _removal_stack(n: int, orders: np.ndarray, x: int, y: int) -> _Batch:
    """The record of removal runs from the complete graph without a budget,
    one per row of ``orders`` (each a permutation of the candidates): the
    last-edge pass of every row at once.  Every undecided edge goes, so a
    row's kept edges are its graph and their counts its degrees."""
    sources, sinks, kept, kept_in, kept_out = zip(*_decide_removals(n, orders, x, y, 1, 1))
    count, present = np.array([len(visits) for visits in kept]), np.zeros(orders.shape, bool)
    if len(orders) == 1:  # a lone row's kept visits index its order, and its degree lists convert at once
        present[0].put(orders[0].take(kept[0]), True)
        degrees = np.fromiter(chain(*kept_in, *kept_out), np.int64, 2 * n + 2).reshape(1, 2, n + 1)
    else:  # each row's heads and tails counted in its own run of 2n + 2 bins
        rows = np.arange(len(orders)).repeat(count)
        edges = orders[rows, np.fromiter(chain.from_iterable(kept), np.intp, len(rows))]
        present[rows, edges] = True
        (tails, heads), base = _pair_ends(n), rows * (2 * n + 2)
        ends = np.concatenate((heads[edges] + base, tails[edges] + base + n + 1))
        degrees = np.bincount(ends, minlength=len(orders) * (2 * n + 2)).reshape(len(orders), 2, n + 1)
    return _Batch._adopt(n, present, degrees, np.array((sources, sinks)), count, orders.shape[1] - count)


def _addition_stack(n: int, orders: np.ndarray, x: int, y: int) -> _Batch:
    """The record of addition runs from the empty graph without a budget, one
    per row of ``orders`` (each a permutation of the candidates): the phase
    pass of every row at once."""
    present, sources, sinks = _addition_phases(n, orders, x, y)
    degrees = _end_reduce(n, np.add, present, 0).transpose(1, 0, 2)
    edges = degrees[:, 0].sum(axis=1)  # one in-degree per edge
    return _Batch._adopt(n, present, degrees, np.array([sources, sinks]), edges, edges.copy())


def _rows_per_run(kind: ProcessKind) -> int:
    """Rows of draws one run takes: two edge orders for the combined process,
    whether or not its second phase runs, else one row."""
    return 2 if kind is ProcessKind.COMBINED else 1


def _fill_or_trim(record: _Batch, row: int, order: np.ndarray, x: int, y: int, m: int) -> np.ndarray:
    """The combined process's second phase on row ``row`` of a record of lone
    runs, in place: from its exact (x, y) profile off m edges, the pass over
    ``order`` (any integer array of candidates) with budget m.  Return the
    candidates it moved, in order.  Below m it fills: the absent edges of
    ``order`` that the cancel rule lets through, cut at m; no edge the rule
    allows changes a count, so the rule holds all pass (phase lemma), and a
    cap of 1 bars nothing, since the one source is vertex 1, never a head
    (the one sink vertex n, never a tail).  Above m it trims: the last-edge
    lemma's decisions on the present edges of ``order``, and every edge not
    kept goes, up to the one that reaches m.  A capped removal keeps the
    profile exact, and a minimal graph has at most 2n - x - y - 2 <= m edges,
    so a trim always reaches m."""
    n, (tails, heads) = record.n, _pair_ends(record.n)
    present, degrees, edges = record.present[row], record.degrees[row], int(record.edge_total[row])
    if edges < m:
        order = order[~present[order]]
        above_in, above_out = _thresholds(record.counts[:, row], np.array([x, y]), False).tolist()
        order = order[(degrees[0, heads[order]] > above_in) & (degrees[1, tails[order]] > above_out)]
        moved, sign = order[: m - edges], 1
    else:
        order, need = order[present[order]], edges - m
        ((_, _, kept, _, _),) = _decide_removals(n, order[None], x, y, *record.counts[:, row].tolist())
        gone = np.ones(len(order), bool)
        gone[kept] = False
        moved, sign = order[gone][:need], -1
        if len(moved) < need:  # never, by the argument above
            raise TaskDagError(f"removal adjustment stopped at {edges - len(moved)} edges, above m = {m}")
    present[moved] = sign > 0
    degrees[0] += sign * np.bincount(heads[moved], minlength=n + 1)
    degrees[1] += sign * np.bincount(tails[moved], minlength=n + 1)
    record.edge_total[row] += sign * len(moved)
    record.rounds[row] += len(moved)
    return moved


def _trace_moves(trace: TraceFn, op: str, n: int, start: np.ndarray, moved: np.ndarray, rounds: int) -> None:
    """Call the trace once per move of a pass from the graph that ``start``
    marks among ``ordered_pairs(n)``, at the candidates ``moved`` in order,
    with the running counts, and rounds counted on from ``rounds``.  A count
    changes where a move takes a degree from 1 to 0 (removal) or from 0 to 1
    (addition)."""
    tails, heads = _pair_ends(n)
    indeg, outdeg = (np.bincount(ends[start], minlength=n + 1).tolist() for ends in (heads, tails))
    sources, sinks = indeg.count(0) - 1, outdeg.count(0) - 1  # vertex 0 is no vertex
    # per move: the degree change, and the degree before it that moves a count
    step, edge = (-1, 1) if op == "remove" else (1, 0)
    for rounds, (a, b) in enumerate(zip(tails[moved].tolist(), heads[moved].tolist()), rounds + 1):
        sources -= step * (indeg[b] == edge)
        sinks -= step * (outdeg[a] == edge)
        indeg[b] += step
        outdeg[a] += step
        trace(rounds, op, a, b, sources, sinks)


def _lone_runs(cfg: ProcessConfig, orders: np.ndarray, trace: TraceFn | None = None) -> _Batch:
    """The record of lone runs of ``cfg``, one per trial of ``orders`` (rows of
    candidate permutations, ``_rows_per_run`` per trial): removals run as one
    ``_removal_stack``, additions and the combined process's addition phase
    as one ``_addition_stack``, and then each combined run that hit (x, y)
    off m edges fills or trims its row in place (``_fill_or_trim``).  A
    traced run, a single trial, reports each phase's moves: a pass visits
    each candidate once, so they are the candidates of its order whose
    presence the phase changed, in order."""
    n, x, y, m = cfg.n, cfg.x, cfg.y, cfg.m
    complete = cfg.kind is ProcessKind.REMOVAL
    if complete:
        record = _removal_stack(n, orders, x, y)
    else:
        record = _addition_stack(n, orders[:: _rows_per_run(cfg.kind)], x, y)
    if trace is not None:  # from the complete or the empty graph
        moved = orders[0][record.present[0][orders[0]] != complete]
        _trace_moves(trace, "remove" if complete else "add", n, np.full(record.present.shape[1], complete), moved, 0)
    if cfg.kind is ProcessKind.COMBINED:  # a miss, or a hit at m, stops after its addition phase
        hit = (record.sources == x) & (record.sinks == y) & (record.edge_total != m)
        for row in np.flatnonzero(hit).tolist():
            start, rounds, fill = record.present[row].copy(), int(record.rounds[row]), record.edge_total[row] < m
            moved = _fill_or_trim(record, row, orders[2 * row + 1], x, y, m)
            if trace is not None:
                _trace_moves(trace, "add" if fill else "remove", n, start, moved, rounds)
    return record


def _lockstep_runs(cfg: ProcessConfig, orders: np.ndarray) -> _Batch:
    """The record of runs of ``cfg`` moved in lockstep (``_Batch``), trial i
    taking its rows of ``orders`` in turn, ``_rows_per_run`` per trial: the
    combined process fills or trims the runs that hit (x, y) to m edges on
    their second rows."""
    x, y, m = cfg.x, cfg.y, cfg.m
    removal, per_trial = cfg.kind is ProcessKind.REMOVAL, _rows_per_run(cfg.kind)
    batch = _Batch(cfg.n, removal, len(orders) // per_trial)
    hit = batch.run_pass(orders[::per_trial], x, y, removal)
    if cfg.kind is ProcessKind.COMBINED:
        fill, trim = hit & (batch.edge_total < m), hit & (batch.edge_total > m)
        batch.run_pass(orders[1::2], x, y, False, budget=m, active=fill)
        if not batch.run_pass(orders[1::2], x, y, True, budget=m, active=trim)[trim].all():
            # never: capped removals from an exact (x, y) graph keep the profile
            # exact, and a minimal graph has at most 2n - x - y - 2 <= m edges
            raise TaskDagError(f"removal adjustment stopped at {np.max(trim * batch.edge_total)} edges, above m = {m}")
    return batch


def _run(cfg: ProcessConfig, kind: ProcessKind | None, trace: TraceFn | None) -> ProcessOutcome:
    """One seeded run of ``cfg``, of ``kind`` or, for None, of any kind: a
    one-trial ``_lone_runs`` record for every kind but the tree, and its
    outcome read off that record's row: halted at (x, y) for addition, at
    (x, y) with m edges for the combined process, else with no move left."""
    _check_config(cfg)
    cfg.validate()
    if kind is None:
        kind = cfg.kind
    elif cfg.kind is not kind:
        raise ConfigError(f"config kind is {cfg.kind.value!r}, expected {kind.value!r}")
    n, rng = cfg.n, _rng(cfg.seed)
    if kind is ProcessKind.RANDOM_TREE:  # a tree has one source, vertex 1, and no move left
        graph, sinks = _lone_tree(n, rng.random(n - 1), trace)
        return ProcessOutcome(graph, n - 1, HaltReason.NO_MOVE_AVAILABLE, (1, sinks) == (cfg.x, cfg.y))
    orders = rng.permutation(n * (n - 1) // 2)[None]
    if kind is ProcessKind.COMBINED:  # its second order, drawn whether or not it hits (x, y)
        orders = np.concatenate((orders, rng.permutation(orders.shape[1])[None]))
    record = _lone_runs(cfg, orders, trace)
    hit = record.counts[:, 0].tolist() == [cfg.x, cfg.y]
    halt = HaltReason.NO_MOVE_AVAILABLE
    if hit and kind is ProcessKind.ADDITION:
        halt = HaltReason.EXACT_TARGET_REACHED
    elif hit and kind is ProcessKind.COMBINED and record.edge_total[0] == cfg.m:
        halt = HaltReason.EDGE_BUDGET_REACHED
    (tails, heads), kept = _pair_ends(n), np.flatnonzero(record.present[0])
    edges = set(zip(tails[kept].tolist(), heads[kept].tolist()))
    graph = OrderedDag._adopt(n, edges, *record.degrees[0].tolist())
    return ProcessOutcome(graph, int(record.rounds[0]), halt, hit)


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


def _tree_edges(n: int, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of ``draws`` (``(B, n - 1)`` uniforms, or one row of
    them): vertex s + 1's parent, int(u * s) + 1 for the row's s-th draw u,
    uniform on 1..s, and the index of the edge (parent, s + 1) in
    ``ordered_pairs(n)``, in child order."""
    s = np.arange(1, n)
    tails = (draws * s).astype(np.intp) + 1  # the float product that int(u * s) truncates
    return tails, (tails - 1) * (2 * n - tails) // 2 + s - tails


def _tree_batch(n: int, draws: np.ndarray) -> _Batch:
    """The record of one tree per row of ``draws`` (``(B, n - 1)`` uniforms,
    ``_tree_edges``).  A tree's n - 1 edges leave one source, vertex 1, and a
    sink at each vertex that no draw picks."""
    rows, (tails, edges) = len(draws), _tree_edges(n, draws)
    first = np.arange(rows)[:, None]
    present = np.zeros((rows, n * (n - 1) // 2), bool)
    present[first, edges] = True
    degrees = np.zeros((rows, 2, n + 1), np.intp)
    degrees[:, 0, 2:] = 1
    degrees[:, 1] = np.bincount((tails + first * (n + 1)).ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)
    counts = np.array([np.ones(rows, np.intp), np.count_nonzero(degrees[:, 1, 1:] == 0, axis=1)])
    return _Batch._adopt(n, present, degrees, counts, np.full(rows, n - 1), np.full(rows, n - 1))


def _lone_tree(n: int, draws: np.ndarray, trace: TraceFn | None = None) -> tuple[OrderedDag, int]:
    """The graph of the tree on one row of ``draws`` (``_tree_edges``), and
    its sinks.  A trace sees its edges added to the empty graph in child
    order, one move each."""
    tails, edges = _tree_edges(n, draws)
    if trace is not None:
        _trace_moves(trace, "add", n, np.zeros(n * (n - 1) // 2, bool), edges, 0)
    outdeg = np.bincount(tails, minlength=n + 1).tolist()
    graph = OrderedDag._adopt(n, set(zip(tails.tolist(), range(2, n + 1))), [0, 0, *[1] * (n - 1)], outdeg)
    return graph, outdeg.count(0) - 1  # vertex 0 is no vertex


def random_directed_tree(n: int, seed: int) -> OrderedDag:
    """Attach vertex s+1 to a uniformly random earlier vertex, for s = 1..n-1.

    The result has exactly n - 1 edges, its underlying graph is a tree, and
    vertex 1 is the unique source.
    """
    check_int(ConfigError, 0, SEED_MAX, seed=seed)
    check_int(GraphError, 1, MAX_ORDER, n=n)
    return _lone_tree(n, _rng(seed).random(n - 1))[0]


def run_process(cfg: ProcessConfig, trace: TraceFn | None = None) -> ProcessOutcome:
    """Run a configuration's process, of any kind."""
    return _run(cfg, None, trace)
