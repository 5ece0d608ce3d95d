"""Seeded, parallel Monte-Carlo experiment runner and export helpers.

Every cell is cut into fixed blocks of ``_CHUNK`` trials.  Block k of a cell
has one generator, keyed by (master seed, k), and the trials of the block take
their draws from it in trial order; grid experiments give each cell the master
seed derive_seed(master_seed, x, y, n).  The draws come in sub-batches of
whole trials, and every engine returns a sub-batch's final states as records
of arrays, ``_Batch``es.  A sub-batch of at least ``_KERNEL_MIN`` removal,
addition or combined trials moves in lockstep (``processes._finish``): under
``_DRAW_CAP`` a whole block is one sub-batch up to n = 23, or n = 16 for the
combined process, and the kernel takes sub-batches up to n = 45, or n = 32.
A smaller removal or addition sub-batch runs as stacks of at most
``_STACK_CAP`` entries, the lemma passes of all a stack's rows at once
(``processes._removal_stack``, ``_addition_stack``).  A smaller combined
sub-batch stacks its addition phase, and then runs each trial's fill or trim
on its own ``_State`` (``processes._adjust``).  Random trees are built in
array form (``processes._tree_batch``).  All give equal final states on equal
draws.  One function reads the statistics of any record (``_record_sums``):
success, edges and isolated vertices over all rows at once, and the longest
paths by a column DP over the rows, or row by row (``_longest_path``) on a
record of fewer than ``_DP_ROWS_PER_VERTEX * n`` rows.  Every aggregate is
reduced from integer sums, so results are identical bytes for any parallelism
level and any block execution order.

At parallelism p > 1 the caller is one of p workers: it keeps p - 1 lane
processes, each behind one duplex pipe, sends each lane a block, runs the next
block itself, and refills the lanes as their sums come back.  The lanes live
as long as the process, or until an experiment asks for another p.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing
import os
import signal
import threading
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, GraphError, check_int
from .graph import OrderedDag
from .processes import (
    SEED_MAX,
    ProcessConfig,
    ProcessKind,
    _addition_stack,
    _adjust,
    _Batch,
    _finish,
    _pair_ends,
    _removal_stack,
    _rows_per_run,
    _State,
    _tree_batch,
)

_CHUNK = 512  # trials per work item; fixed so partitioning ignores the worker count
# Most trials per cell.  A cell's block list is built before any trial runs
# and its sums list as they come: about 6 MB together at the cap (19532 blocks;
# 2.7 MB for the blocks, by tracemalloc).
MAX_TRIALS = 10**7
_DRAW_CAP = 2**17  # entries per sub-batch of drawn rows, to bound a block's memory
# Fewest trials in a sub-batch that run in lockstep; smaller removal and
# addition sub-batches run as stacks of lone trials.  Per (1, 1) trial with its
# statistics (best of 21, 2-vCPU VM), the kernel against the stacks at 64 /
# 128 / 256 trials: removal 1.0x / 1.7x / 2.5x faster at n = 22, 0.8x / 1.3x
# / 1.9x at n = 32 and 0.6x / 1.1x / 1.6x at n = 40; addition 0.7x / 1.2x /
# 1.8x at n = 22, 0.5x / 0.8x / 1.3x at n = 32 and 0.4x / 0.7x / 1.1x at
# n = 40.  Sub-batches of 128 trials need C(n, 2) <= _DRAW_CAP / 128:
# n <= 45, or n <= 32 for combined.
_KERNEL_MIN = 128
# Most entries in a stack's (rows, C(n, 2)) arrays: 128 KB of int64, glibc's
# mmap threshold.  Larger temporaries are mapped afresh for every stack and
# faulted in page by page: with whole 26-row sub-batches at n = 100 a
# 104-trial removal cell took 2132 minor faults against the per-run passes'
# 471, and ran up to 1.4x slower per trial; with stacks of 3 rows it takes 471.
_STACK_CAP = 2**14

# The process's one lane set, as (parallelism, [(lane, caller's end), ...]),
# and the lock a parallel experiment holds while it uses it.  A forked child
# starts with neither: the lanes belong to the parent, and the lock may be held
# there.  The child closes its copies of the caller's ends, so that a lane
# still sees EOF when the parent goes, and takes the lanes out of
# multiprocessing's child set, whose exit hook would try to join them; a lane
# forked from the caller is such a child.
_pool: tuple[int, list[tuple[BaseProcess, Connection]]] | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    for lane, conn in _pool[1] if _pool else ():
        conn.close()
        multiprocessing.process._children.discard(lane)
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


def derive_seed(*parts: int) -> int:
    """Collapse nonnegative integer key parts into one 64-bit stream seed."""
    for part in parts:
        check_int(ConfigError, 0, key_part=part)
    seq = np.random.SeedSequence(entropy=list(parts))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate of N independent seeded runs of one process configuration."""

    kind: ProcessKind
    x: int
    y: int
    n: int
    m: int | None
    trials: int
    master_seed: int
    success_ratio: float
    mean_edges: float
    mean_longest_path: float
    mean_isolated: float

    def to_json(self) -> str:
        payload = {**asdict(self), "kind": self.kind.value}
        return json.dumps(payload, separators=(",", ":"))


def _draw_rows(rng: np.random.Generator, kind: ProcessKind, n: int, trials: int) -> Iterator[np.ndarray]:
    """Yield the draws of ``trials`` trials as arrays of rows: rows of n - 1
    uniforms for the tree, else permutations of the C(n, 2) candidate-edge
    indices, one row per trial or two for the combined process.  Row i
    equals the i-th ``random(n - 1)`` / ``permutation(C(n, 2))`` call on
    ``rng``.  Each array holds whole trials and at most ``_DRAW_CAP`` entries
    (one trial if its rows are longer), which changes no row."""
    width = n - 1 if kind is ProcessKind.RANDOM_TREE else n * (n - 1) // 2
    per_trial = _rows_per_run(kind)
    step = max(1, _DRAW_CAP // max(width * per_trial, 1))
    for done in range(0, trials, step):
        shape = (min(step, trials - done) * per_trial, width)
        if kind is ProcessKind.RANDOM_TREE:
            yield rng.random(shape)
        else:
            yield rng.permuted(np.broadcast_to(np.arange(width), shape), axis=1)


def _block_states(cfg: ProcessConfig, master_seed: int, start: int, stop: int) -> Iterator[_Batch]:
    """Records of the final states of trials ``start..stop-1`` of one cell, in
    trial order, where ``start`` opens block ``start // _CHUNK``.  The block
    has one generator, keyed (master_seed, block index), and each trial takes
    its next rows in order: two for the combined process, whether or not its
    second phase runs.  A sub-batch of ``_draw_rows`` with at least
    ``_KERNEL_MIN`` removal, addition or combined trials runs in lockstep.  A
    smaller one runs as stacks of at most ``_STACK_CAP`` candidate entries;
    the combined process stacks its addition phase, and runs each hit trial's
    fill or trim on its row's ``_State``.  Random trees come in records of at
    most ``_DRAW_CAP`` candidate entries."""
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, start // _CHUNK]))
    complete, per_trial = cfg.kind is ProcessKind.REMOVAL, _rows_per_run(cfg.kind)
    tree, width = cfg.kind is ProcessKind.RANDOM_TREE, cfg.n * (cfg.n - 1) // 2
    for rows in _draw_rows(rng, cfg.kind, cfg.n, stop - start):
        if not tree and len(rows) >= _KERNEL_MIN * per_trial:
            batch = _Batch(cfg.n, complete, len(rows) // per_trial)
            _finish(cfg, batch, iter([rows[i::per_trial] for i in range(per_trial)]).__next__)
            yield batch
            continue
        cap = _DRAW_CAP if tree else _STACK_CAP
        size = max(1, cap // max(1, width)) * per_trial  # n = 1 has no candidates
        for part in (rows[i : i + size] for i in range(0, len(rows), size)):
            if tree:
                yield _tree_batch(cfg.n, part)
            elif cfg.kind is not ProcessKind.COMBINED:
                yield (_removal_stack if complete else _addition_stack)(cfg.n, part, cfg.x, cfg.y)
            else:  # the addition phases as one stack, then each hit trial's fill or trim
                record = _addition_stack(cfg.n, part[::2], cfg.x, cfg.y)
                for row, (state, order) in enumerate(zip(record.states(), part[1::2])):
                    if (state.sources, state.sinks) == (cfg.x, cfg.y):  # a fill or trim keeps the counts
                        _adjust(cfg, state, True, iter((order,)).__next__)
                        record.present[row], record.degrees[row] = state._present_mask(), (state.indeg, state.outdeg)
                        record.edge_total[row], record.rounds[row] = state.edge_total, state.rounds
                yield record


def _trial_states(cfg: ProcessConfig, master_seed: int, trials: int) -> Iterator[_State]:
    """Final states of trials ``0..trials-1`` of one cell, block after block."""
    for start in range(0, trials, _CHUNK):
        for record in _block_states(cfg, master_seed, start, min(start + _CHUNK, trials)):
            yield from record.states()


# Fewest edges per vertex at which _longest_path reads depths off bitsets
# instead of walking the edges.  The walk costs about 0.08 us per edge, the
# bitsets 0.5-0.6 us per vertex.  On final combined states of E = k * n edges
# (30 per k, best of 9, 2-vCPU VM) they break even near E/n = 5 at n = 22, 6
# at n = 40 and 7 at n = 100.  (1, 1) additions (E/n = 7.6, 14.8 and 37 at
# n = 22, 40 and 100) take the bitsets, 1.5x, 2.4x and 4.7x faster than the
# walk; (1, 1) removals (E/n < 1.5) walk, 2.3-3.8x faster than the bitsets.
_BITSET_MIN = 6
# Fewest rows per vertex at which a record's longest paths come from the
# column DP instead of row by row.  On (1, 1) stack records (best of 31, 2-vCPU
# VM) the DP took, against the rows, 0.33-0.78x as little time per row at n/2
# rows for n = 7-40 (1.8x and 2.7x at n = 100); at n rows 0.75x (removals at
# n = 7) to 7.2x (additions at n = 100); and at 2n rows 1.35-9.0x, for both
# kinds at n = 7, 22, 40 and 100.  Stacks of 12 rows at n = 40 stay per row.
_DP_ROWS_PER_VERTEX = 2


def _walk_longest_path(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Edges on a longest path of a graph on 1..n, walking its edges in
    topological order."""
    dist = [0] * (n + 1)
    for a, b in edges:
        if dist[a] >= dist[b]:
            dist[b] = dist[a] + 1
    return max(dist)


def _longest_path(n: int, mask: np.ndarray) -> int:
    """Edges on a longest path of the graph whose edges ``mask`` marks among
    ``ordered_pairs(n)``.  Below ``_BITSET_MIN`` edges per vertex, walk the
    kept edges, in lexicographic and so topological order.  Else go through
    the vertices in order, keeping per depth k the bits of the heads of edges
    out of vertices at depth k: a vertex's depth is one more than the highest
    k whose bits hold it, or 0."""
    if np.count_nonzero(mask) < _BITSET_MIN * n:
        tails, heads = _pair_ends(n)
        kept = mask.nonzero()[0]
        return _walk_longest_path(n, zip(tails[kept].tolist(), heads[kept].tolist()))
    bits = int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")
    levels: list[int] = []  # bit v of levels[k]: an edge into v leaves a vertex at depth k
    for a in range(1, n):
        run = bits & ((1 << (n - a)) - 1)  # a's out-edges, to heads a + 1..n
        bits >>= n - a
        if run:
            depth, bit = len(levels), 1 << a
            while depth and not levels[depth - 1] & bit:
                depth -= 1
            if depth == len(levels):
                levels.append(0)
            levels[depth] |= run << (a + 1)
    return len(levels)  # each level holds an edge into a vertex one deeper


def _record_sums(cfg: ProcessConfig, record: _Batch) -> tuple[int, ...]:
    """The four statistics summed over the rows of a record, from its arrays.
    From ``_DP_ROWS_PER_VERTEX * n`` rows on, the longest paths come from a
    column DP over vertices in order, on one contiguous ``(C, B)`` uint8 copy
    of the present mask: ``depth[v]`` is each row's longest path into v, at
    most n - 1, so the narrowest unsigned dtype that holds n (uint8 up to
    n = 255) holds every depth and its rise.  Else they come row by row
    (``_longest_path``)."""
    n, rows = record.n, len(record.present)
    success = (record.sources == cfg.x) & (record.sinks == cfg.y)
    if cfg.m is not None:
        success &= record.edge_total == cfg.m
    if rows >= _DP_ROWS_PER_VERTEX * n:
        dtype, present = np.min_scalar_type(n), np.ascontiguousarray(record.present.T).view(np.uint8)
        depth, rise, reach = np.zeros((n + 1, rows), dtype), np.empty(rows, dtype), np.empty((n - 1, rows), dtype)
        for a in range(1, n):  # vertex order is topological; a's out-edges are n - a rows from c
            c = (a - 1) * (2 * n - a) // 2
            np.add(depth[a], 1, out=rise)
            np.multiply(present[c : c + n - a], rise, out=reach[: n - a])
            np.maximum(depth[a + 1 :], reach[: n - a], out=depth[a + 1 :])
        longest = int(depth.max(axis=0).sum())
    else:
        longest = sum(_longest_path(n, mask) for mask in record.present)
    isolated = np.count_nonzero((record.indeg[:, 1:] | record.outdeg[:, 1:]) == 0)
    return int(np.count_nonzero(success)), int(record.edge_total.sum()), longest, int(isolated)


def _block_sums(args: tuple[ProcessConfig, int, int, int]) -> tuple[int, ...]:
    """Column sums of trials ``start..stop-1`` of one cell: the unit of work.
    Per trial: success, edges, longest path, isolated vertices."""
    parts = (_record_sums(args[0], record) for record in _block_states(*args))
    return tuple(sum(col) for col in zip(*parts))


def _lane(conn: Connection, caller_end: Connection) -> None:
    """A lane process: answer each block with (True, its sums), or (False, the
    exception it raised), until the caller's end closes."""
    caller_end.close()  # a forked lane's copy; the caller keeps its own
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles an interrupt
    try:
        while True:
            block = conn.recv()
            try:
                reply = True, _block_sums(block)
            except Exception as exc:
                reply = False, exc
            conn.send(reply)
    except (EOFError, OSError):  # the caller dropped the lanes or exited
        pass


def _shared_pool(parallelism: int) -> list[tuple[BaseProcess, Connection]]:
    """The process's ``parallelism - 1`` lanes, started on first use and kept
    for every later experiment with the same parallelism; a set of another
    size is stopped first.  Call with ``_pool_lock`` held."""
    global _pool
    if _pool is None or _pool[0] != parallelism:
        _drop_pool()
        _pool = (parallelism, [])
        try:
            for _ in range(parallelism - 1):
                caller_end, lane_end = multiprocessing.Pipe()
                lane = multiprocessing.Process(target=_lane, args=(lane_end, caller_end))
                lane.start()
                lane_end.close()
                _pool[1].append((lane, caller_end))
        except BaseException:
            _drop_pool()
            raise
    return _pool[1]


def _drop_pool() -> None:
    """Stop the lanes and forget them.  Call with ``_pool_lock`` held, or at exit."""
    global _pool
    lanes, _pool = _pool[1] if _pool else [], None
    for lane, conn in lanes:
        conn.close()
        lane.terminate()
        lane.join()


# The lanes are not daemons, which a forked child's exit would terminate.  So
# they are stopped here at exit, before multiprocessing's own exit hook (first
# registered when multiprocessing.connection was imported) joins its children.
atexit.register(_drop_pool)


def _lane_sums(
    blocks: list[tuple[ProcessConfig, int, int, int]], parallelism: int
) -> list[tuple[int, ...]]:
    """The sums of every block, in block order, with the caller as one of
    ``parallelism`` workers and each of the shared lanes as another.  A lane
    holds at most two blocks, and one once no more than a block per worker is
    left, so that the caller keeps its share.  Any exception drops the lanes,
    whose unanswered blocks must not reach the next call; a lane found dead
    raises ``BrokenProcessPool``.  Call with ``_pool_lock`` held."""
    held = {conn: deque() for _, conn in _shared_pool(parallelism)}  # blocks sent, not answered
    sums: list[tuple[int, ...]] = [()] * len(blocks)
    sent = 0
    try:
        while sent < len(blocks) or any(held.values()):
            for conn, queue in held.items():
                while sent < len(blocks) and len(queue) < (2 if len(blocks) - sent > parallelism else 1):
                    conn.send(blocks[sent])
                    queue.append(sent)
                    sent += 1
            busy = [conn for conn, queue in held.items() if queue]
            if sent < len(blocks):
                sums[sent] = _block_sums(blocks[sent])
                sent += 1
                ready = wait(busy, 0)
            else:
                ready = wait(busy)
            for conn in ready:
                ok, value = conn.recv()
                if not ok:
                    raise value
                sums[held[conn].popleft()] = value
    except BaseException as exc:
        _drop_pool()
        if isinstance(exc, (EOFError, OSError)):
            raise BrokenProcessPool("a lane process died") from exc
        raise
    return sums


def _run_cells(
    cells: Sequence[tuple[ProcessConfig, int]], trials: int, parallelism: int
) -> list[tuple[int, ...]]:
    """Run ``trials`` seeded trials of each (config, master seed) cell and return
    its column totals.  All input is validated before any trial runs; every cell
    is cut into fixed blocks, and all blocks run serially or on the caller and
    the process's lanes.  A call that leaves the lanes with an exception drops
    them, so the next call starts a fresh set.
    """
    check_int(ConfigError, 1, MAX_TRIALS, trials=trials)
    check_int(ConfigError, 1, 64, parallelism=parallelism)
    if not cells:
        raise ConfigError("an experiment needs at least one cell, got none")
    for cfg, master_seed in cells:
        check_int(ConfigError, 0, SEED_MAX, master_seed=master_seed)
        replace(cfg, seed=0).validate()
    blocks = [
        (cfg, master_seed, start, min(start + _CHUNK, trials))
        for cfg, master_seed in cells
        for start in range(0, trials, _CHUNK)
    ]
    if parallelism > 1 and len(blocks) > 1:
        with _pool_lock:
            sums = _lane_sums(blocks, parallelism)
    else:
        sums = [_block_sums(block) for block in blocks]
    per_cell = len(blocks) // len(cells)
    by_cell = (sums[i : i + per_cell] for i in range(0, len(sums), per_cell))
    return [tuple(sum(col) for col in zip(*cell_sums)) for cell_sums in by_cell]


def run_trials(
    cfg: ProcessConfig, trials: int, master_seed: int, parallelism: int = 1
) -> TrialSummary:
    """Run ``trials`` independent seeded instances of ``cfg`` and aggregate.

    ``cfg.seed`` is ignored: trial i takes its draws from the stream of block
    ``i // _CHUNK``, keyed (master_seed, block index), after those of the
    trials before it in the block.  The result does not depend on
    ``parallelism``.
    """
    (totals,) = _run_cells([(cfg, master_seed)], trials, parallelism)
    means = (total / trials for total in totals)  # in field order, success_ratio first
    return TrialSummary(cfg.kind, cfg.x, cfg.y, cfg.n, cfg.m, trials, master_seed, *means)


def _grid_cells(
    kind: ProcessKind, master_seed: int, keys: Iterable[tuple[int, int, int]]
) -> list[tuple[ProcessConfig, int]]:
    """One cell per (x, y, n) key, seeded by derive_seed(master_seed, x, y, n).
    Each config is validated before its key is hashed, so a bad n is named."""
    check_int(ConfigError, 0, SEED_MAX, master_seed=master_seed)
    cells = []
    for x, y, n in keys:
        cfg = ProcessConfig(x=x, y=y, n=n, kind=kind, seed=0)
        cfg.validate()
        cells.append((cfg, derive_seed(master_seed, x, y, n)))
    return cells


def table_experiment(
    kind: ProcessKind,
    pairs: Sequence[tuple[int, int]],
    n_values: Iterable[int],
    trials: int,
    master_seed: int,
    parallelism: int = 1,
) -> str:
    """Success-ratio grid as CSV with header ``pair,n,ratio``.

    One row per (x, y) pair and vertex count, ratios in fixed-point with four
    fractional digits.  Each cell gets its own seed stream derived from
    (master_seed, x, y, n).
    """
    n_values = list(n_values)  # read once: it may be a one-shot iterator
    cells = _grid_cells(kind, master_seed, ((x, y, n) for x, y in pairs for n in n_values))
    totals = _run_cells(cells, trials, parallelism)
    lines = ["pair,n,ratio"]
    for (cfg, _), (success, *_) in zip(cells, totals):
        lines.append(f"{cfg.x}-{cfg.y},{cfg.n},{success / trials:.4f}")
    return "\n".join(lines) + "\n"


def growth_experiment(
    kind: ProcessKind,
    x: int,
    y: int,
    n_values: Iterable[int],
    trials: int,
    master_seed: int,
    parallelism: int = 1,
) -> str:
    """Raw per-n averages as CSV ``n,mean_edges,mean_longest_path,mean_isolated``.

    No curve fitting happens here; downstream tools consume the series.
    """
    cells = _grid_cells(kind, master_seed, ((x, y, n) for n in n_values))
    totals = _run_cells(cells, trials, parallelism)
    lines = ["n,mean_edges,mean_longest_path,mean_isolated"]
    for (cfg, _), (_, *sums) in zip(cells, totals):
        lines.append(",".join([str(cfg.n), *(f"{total / trials:.4f}" for total in sums)]))
    return "\n".join(lines) + "\n"


def export(g: OrderedDag, format: str) -> bytes:
    """Serialize a graph to bytes in the named format ("json" or "dot")."""
    if format == "json":
        return g.to_json().encode("ascii")
    if format == "dot":
        return g.to_dot().encode("ascii")
    raise GraphError(f"unknown export format {format!r}; expected 'json' or 'dot'")
