"""Seeded, parallel Monte-Carlo experiment runner and export helpers.

Per-trial generator streams are derived deterministically from the master
seed and the trial index (plus the cell coordinates for grid experiments),
and every aggregate is reduced from integer sums, so results are identical
bytes for any parallelism level and any trial execution order.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, GraphError, check_int
from .graph import OrderedDag
from .processes import SEED_MAX, ProcessConfig, ProcessKind, run_process

_CHUNK = 512  # trials per work item; fixed so partitioning ignores the worker count


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


def _trial_stats(cfg: ProcessConfig, master_seed: int, index: int) -> tuple[int, int, int, int]:
    outcome = run_process(replace(cfg, seed=derive_seed(master_seed, index)))
    g = outcome.graph
    success = outcome.is_target_xy and (cfg.m is None or g.edge_count == cfg.m)
    return (
        1 if success else 0,
        g.edge_count,
        g.longest_path_length(),
        len(g.profile().isolated),
    )


def _block_sums(args: tuple[ProcessConfig, int, int, int]) -> tuple[int, ...]:
    """Column sums of trials ``start..stop-1`` of one cell: the unit of work."""
    cfg, master_seed, start, stop = args
    rows = [_trial_stats(cfg, master_seed, i) for i in range(start, stop)]
    return tuple(sum(col) for col in zip(*rows))


def _run_cells(
    cells: Sequence[tuple[ProcessConfig, int]], trials: int, parallelism: int
) -> list[tuple[int, ...]]:
    """Run ``trials`` seeded trials of each (config, master seed) cell and return
    its column totals.  All input is validated before any trial runs; every cell
    is cut into fixed blocks, and all blocks run serially or in one pool.
    """
    check_int(ConfigError, trials=trials, parallelism=parallelism)
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
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            sums = list(pool.map(_block_sums, blocks))
    else:
        sums = [_block_sums(block) for block in blocks]
    per_cell = len(blocks) // len(cells)
    by_cell = (sums[i : i + per_cell] for i in range(0, len(sums), per_cell))
    return [tuple(sum(col) for col in zip(*cell_sums)) for cell_sums in by_cell]


def run_trials(
    cfg: ProcessConfig, trials: int, master_seed: int, parallelism: int = 1
) -> TrialSummary:
    """Run ``trials`` independent seeded instances of ``cfg`` and aggregate.

    ``cfg.seed`` is ignored: trial i runs with a stream derived from
    (master_seed, i).  The result does not depend on ``parallelism``.
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
