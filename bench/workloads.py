"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next call starts only
after the previous one returned.  A workload is run in passes; every pass
repeats the same list of operations, ``ops``, built once from the workload
seed.  Every operation is one call into the package's public API, timed from
outside and checked against a reference.

* ``grid-small-n`` -- one ``run_trials`` call (two pool workers) per cell of
  the criterion 6/7 success-ratio grids and the criterion 13 combined-budget
  sweep.  Few candidate edges, so fixed per-trial costs and per-cell pool
  start-up dominate.
* ``growth-large-n`` -- serial ``growth_experiment`` points for the (1, 1)
  removal and addition processes at n = 40 and 100.  The process pass
  dominates; no pool runs.
* ``oracle-exact`` -- closed form against brute force, every verdict
  independent and every pass started with cold caches.  No RNG, no pool.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from time import perf_counter

import numpy as np

import reference as ref
from layers import UNTRACED
from taskdag import harness
from taskdag.analysis import (
    ExtremalKind,
    StructureLabel,
    classify_extremal,
    extremal_value,
    is_minimal_xy,
)
from taskdag.errors import DomainError
from taskdag.harness import derive_seed, growth_experiment, run_trials
from taskdag.oracle import (
    EnumerationScope,
    enumerate_graphs,
    exact_process_distribution,
    oracle_extremal,
    oracle_is_minimal,
)
from taskdag.processes import ProcessConfig, ProcessKind, run_process

HALT_REASONS = ("exact-target-reached", "no-move-available", "edge-budget-reached")


@dataclass
class OpResult:
    seconds: float  # latency of the operation's calls into the package
    row: str  # the operation's output, hashed to compare commits byte for byte
    work: int  # seeded trials run, or 1 for an oracle verdict
    failures: list[str] = field(default_factory=list)
    means: tuple[float, ...] = ()  # a Monte-Carlo operation's column means


def _replay(layers, cfg: ProcessConfig, master: int, trials: int) -> tuple[float, ...]:
    """Redo ``run_trials``' per-trial steps serially, timing each layer.

    Returns the four column means, to compare with the package's summary.
    The traced wall time covers the replay loop only; the RNG prelude is
    timed afterwards on the same seeds, because ``run_process`` already
    contains it.
    """
    process_layer = f"processes.{cfg.kind.value}"
    candidates = math.comb(cfg.n, 2)
    sums = [0, 0, 0, 0]
    seeds = []
    start = perf_counter()
    for i in range(trials):
        seed = layers.call("harness.derive_seed", derive_seed, master, i)
        outcome = layers.call(process_layer, run_process, replace(cfg, seed=seed))
        g = outcome.graph
        longest = layers.call("graph.longest_path", g.longest_path_length)
        profile = layers.call("graph.profile", g.profile)
        success = outcome.is_target_xy and (cfg.m is None or g.edge_count == cfg.m)
        sums[0] += success
        sums[1] += g.edge_count
        sums[2] += longest
        sums[3] += len(profile.isolated)
        layers.count("processes.trials")
        layers.count("processes.rounds", outcome.rounds)
        layers.count("processes.candidates", candidates)
        layers.count(f"processes.halt.{outcome.halt_reason.value}")
        seeds.append(seed)
    layers.count("trace.traced_s", perf_counter() - start)
    start = perf_counter()
    for seed in seeds:
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).permutation(
            candidates
        )
    layers.count("processes.rng_prelude_s", perf_counter() - start)
    layers.count("processes.rng_prelude_calls", len(seeds))
    return tuple(total / trials for total in sums)


def _count_blocks(layers, trials: int) -> None:
    # the harness's fixed work-item size; absent if a later harness drops it
    chunk = getattr(harness, "_CHUNK", None)
    if chunk:
        layers.count("harness.blocks", -(-trials // chunk))
    layers.count("harness.cells")


# ---------------------------------------------------------------- grid-small-n

GRID_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
COMBINED_N = 12
COMBINED_M = range(20, 43)
CELL_TRIALS = 1024  # two work blocks, so the pool really runs
CELL_WORKERS = 2


@dataclass(frozen=True)
class Cell:
    kind: ProcessKind
    x: int
    y: int
    n: int
    m: int | None
    master: int

    def config(self) -> ProcessConfig:
        return ProcessConfig(self.x, self.y, self.n, self.kind, seed=0, m=self.m)


def _summary_means(s) -> tuple[float, ...]:
    return (s.success_ratio, s.mean_edges, s.mean_longest_path, s.mean_isolated)


class Grid:
    name = "grid-small-n"
    workers = CELL_WORKERS
    work_unit = "trials"

    def __init__(self, seed: int) -> None:
        """The 143 cells.  Each table gets its own master seed, and each
        cell's seed is derived from it as ``table_experiment`` does.  The
        order is seeded, so any prefix mixes kinds and sizes."""
        cells = []
        for tag, kind in enumerate((ProcessKind.REMOVAL, ProcessKind.ADDITION)):
            table_seed = derive_seed(seed, tag)
            for (x, y), n in product(GRID_PAIRS, ref.TABLE_N):
                cells.append(Cell(kind, x, y, n, None, derive_seed(table_seed, x, y, n)))
        sweep_seed = derive_seed(seed, 2)
        for m in COMBINED_M:
            master = derive_seed(sweep_seed, 1, 1, COMBINED_N, m)
            cells.append(Cell(ProcessKind.COMBINED, 1, 1, COMBINED_N, m, master))
        random.Random(seed).shuffle(cells)
        self.ops = cells

    def before_pass(self) -> None:
        pass

    def finish(self, results: list[OpResult]) -> None:
        pass

    def run_op(self, cell: Cell) -> OpResult:
        return self._run(cell, CELL_WORKERS)[0]

    def _run(self, cell: Cell, parallelism: int):
        start = perf_counter()
        summary = run_trials(cell.config(), CELL_TRIALS, cell.master, parallelism=parallelism)
        seconds = perf_counter() - start
        means = _summary_means(summary)
        row = f"{cell.kind.value},{cell.x}-{cell.y},{cell.n},{cell.m},{cell.master}," + ",".join(
            map(repr, means)
        )
        return OpResult(seconds, row, CELL_TRIALS, self._check(cell, summary), means), summary

    @staticmethod
    def _check(cell: Cell, s) -> list[str]:
        where = f"{cell.kind.value} ({cell.x}, {cell.y}) n={cell.n} m={cell.m}"
        echo = (s.kind, s.x, s.y, s.n, s.m, s.trials, s.master_seed)
        if echo != (cell.kind, cell.x, cell.y, cell.n, cell.m, CELL_TRIALS, cell.master):
            return [f"{where}: summary describes another run: {echo}"]
        ratio = s.success_ratio
        failures = []
        if cell.x == cell.y and ratio != 1.0:
            failures.append(f"{where}: x = y must always hit the target, ratio {ratio}")
        if cell.kind is ProcessKind.COMBINED:
            floor = ref.COMBINED_HIT_FLOOR - ref.floor_tolerance(ref.COMBINED_HIT_FLOOR, s.trials)
            if ratio < floor:
                failures.append(f"{where}: hit ratio {ratio} below {floor:.4f}")
            if ratio == 1.0 and s.mean_edges != cell.m:
                failures.append(f"{where}: mean edges {s.mean_edges} != budget {cell.m}")
        else:
            expected = ref.table_reference(cell.kind.value, cell.x, cell.y, cell.n)
            tol = ref.ratio_tolerance(expected, s.trials)
            if abs(ratio - expected) > tol:
                failures.append(f"{where}: ratio {ratio} vs table {expected} +- {tol:.4f}")
        return failures

    def trace_op(self, cell: Cell, layers) -> OpResult:
        """Time the cell at parallelism 2 and 1, require equal summaries, and
        replay its trials with every layer timed."""
        result, parallel = self._run(cell, CELL_WORKERS)
        serial_result, serial = self._run(cell, 1)
        if serial != parallel:
            result.failures.append(f"{result.row}: parallelism 1 gave {serial_result.row}")
        layers.count("harness.parallel_s", result.seconds)
        layers.count("harness.serial_s", serial_result.seconds)
        layers.count("trace.untraced_s", serial_result.seconds)
        _count_blocks(layers, CELL_TRIALS)
        replayed = _replay(layers, cell.config(), cell.master, CELL_TRIALS)
        layers.count("trace.replays")
        layers.count("trace.replay_matches", replayed == serial_result.means)
        return result


# -------------------------------------------------------------- growth-large-n

# (kind, n, trials per point): the trial counts make every point cost about
# the same (~6 ms), so the latency percentiles do not sit between two
# clusters, and a pass is short enough to repeat dozens of times in a run
GROWTH_POINTS = (
    (ProcessKind.REMOVAL, 40, 12),
    (ProcessKind.ADDITION, 40, 12),
    (ProcessKind.REMOVAL, 100, 2),
    (ProcessKind.ADDITION, 100, 2),
)
POINTS_PER_PASS = 25  # of each kind, so a pass has 100 operations
DENSITY_CEILING = 3 - 2 * math.log(2)


@dataclass(frozen=True)
class Point:
    kind: ProcessKind
    n: int
    trials: int
    master: int


class Growth:
    name = "growth-large-n"
    workers = 0
    work_unit = "trials"

    def __init__(self, seed: int) -> None:
        self.ops = [
            Point(kind, n, trials, derive_seed(seed, tag, k))
            for k in range(POINTS_PER_PASS)
            for tag, (kind, n, trials) in enumerate(GROWTH_POINTS)
        ]

    def before_pass(self) -> None:
        pass

    def run_op(self, point: Point) -> OpResult:
        start = perf_counter()
        csv = growth_experiment(point.kind, 1, 1, [point.n], point.trials, point.master)
        seconds = perf_counter() - start
        row = csv.strip().split("\n")[1]
        means = tuple(float(v) for v in row.split(",")[1:])
        failures = self._check(point.kind, point.n, point.trials, means)
        return OpResult(seconds, f"{point.kind.value},{point.master},{row}", point.trials, failures, means)

    @staticmethod
    def _check(kind: ProcessKind, n: int, trials: int, means) -> list[str]:
        edges, longest, isolated = means
        where = f"{kind.value} (1, 1) n={n} over {trials} trials"
        failures = []
        # x = y processes always end on a (1, 1) graph: no isolated vertex,
        # at least a spanning tree, a minimal graph (<= 2n - 4 edges) after removal
        upper = 2 * n - 4 if kind is ProcessKind.REMOVAL else math.comb(n, 2)
        if isolated != 0 or not n - 1 <= edges <= upper or not 1 <= longest <= n - 1:
            failures.append(f"{where}: impossible means {means}")
        if n == 40:
            for value, (expected, sd) in zip(
                (edges, longest), ref.GROWTH_40[kind.value].values()
            ):
                tol = ref.mean_tolerance(sd, trials)
                if abs(value - expected) > tol:
                    failures.append(f"{where}: {value} vs reference {expected} +- {tol:.3f}")
        elif kind is ProcessKind.REMOVAL:
            ceiling = (
                DENSITY_CEILING
                + ref.DENSITY_SLACK
                + ref.Z * ref.REMOVAL_EDGES_SD_100 / (n * math.sqrt(trials))
            )
            if edges / n > ceiling:
                failures.append(f"{where}: density {edges / n} above {ceiling:.4f}")
        return failures

    def finish(self, results: list[OpResult]) -> None:
        """Check each point's means pooled over its distinct operations,
        where the tolerance is tightest; a pooled failure fails every
        operation of that point."""
        by_point: dict[tuple, list[OpResult]] = {}
        for r in results:
            kind, _, n = r.row.split(",")[:3]
            by_point.setdefault((ProcessKind(kind), int(n)), []).append(r)
        for (kind, n), group in by_point.items():
            distinct = list({r.row: r for r in group}.values())
            trials = sum(r.work for r in distinct)
            pooled = [sum(r.means[i] * r.work for r in distinct) / trials for i in range(3)]
            failures = [f"pooled: {f}" for f in self._check(kind, n, trials, pooled)]
            for r in group:
                r.failures.extend(failures)

    def trace_op(self, point: Point, layers) -> OpResult:
        result = self.run_op(point)
        layers.count("trace.untraced_s", result.seconds)
        _count_blocks(layers, point.trials)
        cfg = ProcessConfig(1, 1, point.n, point.kind, seed=0)
        cell_master = layers.call("harness.derive_seed", derive_seed, point.master, 1, 1, point.n)
        replayed = _replay(layers, cfg, cell_master, point.trials)
        layers.count("trace.replays")
        formatted = tuple(float(f"{v:.4f}") for v in replayed[1:])
        layers.count("trace.replay_matches", formatted == result.means)
        return result


# ---------------------------------------------------------------- oracle-exact

ORACLE_XY = (1, 2, 3)
# n = 6 verdicts take 0.2-1.2 s each from cold caches, so a pass would take
# ~6 s and a run could repeat each verdict only a few times; at n <= 5 a
# pass takes ~0.4 s
ORACLE_MAX_N = 5
EXACT_MAX_N = 4


def _verdict_extremal(layers, kind: ExtremalKind, x: int, y: int, n: int):
    closed = layers.call("analysis.extremal_value", extremal_value, kind, x, y, n)
    brute = layers.call("oracle.extremal", oracle_extremal, kind, x, y, n)
    row = f"extremal,{kind.value},{x},{y},{n},{closed},{brute}"
    return row, [] if closed == brute else [f"{row}: closed form != brute force"]


def _enumerate(layers, scope: EnumerationScope):
    layers.count("oracle.graphs_examined", 1 << math.comb(scope.n, 2))
    return layers.iterate("oracle.enumerate", enumerate_graphs(scope))


def _verdict_minimality(layers, n: int):
    graphs = minimal = 0
    failures = []
    for g in _enumerate(layers, EnumerationScope(n=n)):
        r, s = layers.call("graph.profile", g.profile).counts
        definition = layers.call("oracle.is_minimal", oracle_is_minimal, g, r, s)
        criterion = layers.call("analysis.is_minimal_xy", is_minimal_xy, g)
        graphs += 1
        minimal += definition
        if definition != criterion and len(failures) < 3:
            failures.append(f"minimality n={n}: {g.to_json()} definition {definition}")
    row = f"minimality,{n},{graphs},{minimal}"
    if graphs != 1 << math.comb(n, 2):
        failures.append(f"{row}: enumeration skipped graphs")
    return row, failures


def _verdict_classify(layers, x: int, y: int, n: int):
    maximum = layers.call(
        "oracle.extremal", oracle_extremal, ExtremalKind.MAX_MINIMAL_EDGES, x, y, n
    )
    labels: Counter = Counter()
    failures = []
    scope = EnumerationScope(n=n, profile=(x, y), minimal_only=True)
    for g in _enumerate(layers, scope):
        case = layers.call("analysis.classify_extremal", classify_extremal, g, x, y)
        labels[case.label.value] += 1
        if g.edge_count == maximum:
            longest = layers.call("graph.longest_path", g.longest_path_length)
            ok = case.label is not StructureLabel.NOT_EXTREMAL and longest <= 2
        else:
            ok = case.label is StructureLabel.NOT_EXTREMAL
        if not ok and len(failures) < 3:
            failures.append(f"classify ({x}, {y}) n={n}: {g.to_json()} -> {case.label.value}")
    row = f"classify,{x},{y},{n},{maximum}," + ";".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return row, failures


# exact laws the paper derives by hand (criterion 10)
_KNOWN_LAWS = {
    (ProcessKind.REMOVAL, 1, 1, 3): lambda d: d.outcomes == {(1, 1, 2): Fraction(1)},
    (ProcessKind.REMOVAL, 2, 1, 3): lambda d: sum(
        p for (r, s, _), p in d.outcomes.items() if (r, s) == (2, 1)
    )
    == Fraction(1, 2),
    (ProcessKind.ADDITION, 1, 1, 3): lambda d: d.expected_edges == Fraction(8, 3),
}


def _verdict_exact(layers, kind: ProcessKind, x: int, y: int, n: int):
    law = layers.call("oracle.exact_distribution", exact_process_distribution, kind, x, y, n)
    row = f"exact,{kind.value},{x},{y},{n}," + ";".join(
        f"{r}-{s}-{e}={p}" for (r, s, e), p in sorted(law.outcomes.items())
    )
    failures = []
    if sum(law.outcomes.values()) != 1:
        failures.append(f"{row}: probabilities do not sum to 1")
    if law.expected_edges != sum(p * e for (_, _, e), p in law.outcomes.items()):
        failures.append(f"{row}: expected edges {law.expected_edges} disagree with the law")
    # removal never overshoots the caps, addition never undershoots them,
    # and both hit (x, x) exactly
    for r, s, _ in law.outcomes:
        capped = r <= x and s <= y if kind is ProcessKind.REMOVAL else r >= x and s >= y
        if not capped or (x == y and (r, s) != (x, y)):
            failures.append(f"{row}: impossible outcome ({r}, {s})")
    known = _KNOWN_LAWS.get((kind, x, y, n))
    if known is not None and not known(law):
        failures.append(f"{row}: disagrees with the hand-derived law")
    return row, failures


def _clear_caches() -> None:
    """Drop every memo in the package, as a fresh CLI process starts."""
    import taskdag

    for module in (taskdag.graph, taskdag.oracle, taskdag.analysis, taskdag.processes):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Oracle:
    name = "oracle-exact"
    workers = 0
    work_unit = "verdicts"

    def __init__(self, seed: int) -> None:
        # the oracle has no random input, so every seed runs the same verdicts
        verdicts = []
        for kind, x, y, n in product(ExtremalKind, ORACLE_XY, ORACLE_XY, range(1, ORACLE_MAX_N + 1)):
            if _in_domain(kind, x, y, n):
                verdicts.append((_verdict_extremal, (kind, x, y, n)))
        for n in range(1, ORACLE_MAX_N + 1):
            verdicts.append((_verdict_minimality, (n,)))
        for x, y, n in product(ORACLE_XY, ORACLE_XY, range(1, ORACLE_MAX_N + 1)):
            if _in_domain(ExtremalKind.MAX_MINIMAL_EDGES, x, y, n):
                verdicts.append((_verdict_classify, (x, y, n)))
        for kind in (ProcessKind.REMOVAL, ProcessKind.ADDITION):
            for n in range(1, EXACT_MAX_N + 1):
                for x, y in product(range(1, n + 1), repeat=2):
                    verdicts.append((_verdict_exact, (kind, x, y, n)))
        # a fixed order: it decides which verdict pays for each cold cache
        self.ops = verdicts

    def before_pass(self) -> None:
        _clear_caches()

    def finish(self, results: list[OpResult]) -> None:
        pass

    def run_op(self, verdict, layers=UNTRACED) -> OpResult:
        fn, args = verdict
        start = perf_counter()
        row, failures = fn(layers, *args)
        return OpResult(perf_counter() - start, row, 1, failures)

    def trace_pass(self, layers) -> list[OpResult]:
        """One cold untraced pass, then the same verdicts cold and traced."""
        self.before_pass()
        untraced = [self.run_op(op) for op in self.ops]
        self.before_pass()
        start = perf_counter()
        traced = [self.run_op(op, layers) for op in self.ops]
        layers.count("trace.traced_s", perf_counter() - start)
        layers.count("trace.untraced_s", sum(r.seconds for r in untraced))
        for a, b in zip(untraced, traced):
            layers.count("trace.replays")
            layers.count("trace.replay_matches", a.row == b.row)
        return untraced + traced


def _in_domain(kind: ExtremalKind, x: int, y: int, n: int) -> bool:
    try:
        extremal_value(kind, x, y, n)
    except DomainError:
        return False
    return True


WORKLOADS = {w.name: w for w in (Grid, Growth, Oracle)}
