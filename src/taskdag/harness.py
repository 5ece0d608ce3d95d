"""Seeded, parallel Monte-Carlo experiment runner and export helpers.

Per-trial generator streams are derived deterministically from the master
seed and the trial index (plus the cell coordinates for grid experiments),
and every aggregate is reduced from integer sums, so results are identical
bytes for any parallelism level and any trial execution order.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .graph import OrderedDag
from .processes import ProcessConfig, ProcessKind, check_seed, run_process

_CHUNK = 512  # trials per work item; fixed so partitioning ignores the worker count


def derive_seed(*parts: int) -> int:
    """Collapse nonnegative integer key parts into one 64-bit stream seed."""
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
    per_trial: tuple[tuple[int, int, int, int], ...] | None = None

    def to_json(self) -> str:
        payload = {
            "kind": self.kind.value,
            "x": self.x,
            "y": self.y,
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "success_ratio": self.success_ratio,
            "mean_edges": self.mean_edges,
            "mean_longest_path": self.mean_longest_path,
            "mean_isolated": self.mean_isolated,
        }
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


def _block_sums(args: tuple[ProcessConfig, int, int, int, bool]):
    cfg, master_seed, start, stop, keep = args
    rows = [_trial_stats(cfg, master_seed, i) for i in range(start, stop)]
    sums = tuple(sum(col) for col in zip(*rows))
    return (sums, rows if keep else None)


def run_trials(
    cfg: ProcessConfig,
    trials: int,
    master_seed: int,
    parallelism: int = 1,
    keep_per_trial: bool = False,
) -> TrialSummary:
    """Run ``trials`` independent seeded instances of ``cfg`` and aggregate.

    ``cfg.seed`` is ignored: trial i runs with a stream derived from
    (master_seed, i).  The result does not depend on ``parallelism``.
    """
    if type(trials) is not int or trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    if type(parallelism) is not int or parallelism < 1:
        raise ConfigError(f"parallelism must be a positive integer, got {parallelism!r}")
    check_seed(master_seed, "master_seed")
    replace(cfg, seed=0).validate()
    blocks = [
        (cfg, master_seed, start, min(start + _CHUNK, trials), keep_per_trial)
        for start in range(0, trials, _CHUNK)
    ]
    if parallelism > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_block_sums, blocks))
    else:
        results = [_block_sums(block) for block in blocks]
    totals = [0, 0, 0, 0]
    per_trial: list[tuple[int, int, int, int]] = []
    for sums, rows in results:
        for i, v in enumerate(sums):
            totals[i] += v
        if keep_per_trial and rows is not None:
            per_trial.extend(rows)
    return TrialSummary(
        kind=cfg.kind,
        x=cfg.x,
        y=cfg.y,
        n=cfg.n,
        m=cfg.m,
        trials=trials,
        master_seed=master_seed,
        success_ratio=totals[0] / trials,
        mean_edges=totals[1] / trials,
        mean_longest_path=totals[2] / trials,
        mean_isolated=totals[3] / trials,
        per_trial=tuple(per_trial) if keep_per_trial else None,
    )


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
    check_seed(master_seed, "master_seed")
    n_values = list(n_values)
    lines = ["pair,n,ratio"]
    for x, y in pairs:
        for n in n_values:
            cfg = ProcessConfig(x=x, y=y, n=n, kind=kind, seed=0)
            summary = run_trials(
                cfg, trials, derive_seed(master_seed, x, y, n), parallelism=parallelism
            )
            lines.append(f"{x}-{y},{n},{summary.success_ratio:.4f}")
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
    check_seed(master_seed, "master_seed")
    lines = ["n,mean_edges,mean_longest_path,mean_isolated"]
    for n in list(n_values):
        cfg = ProcessConfig(x=x, y=y, n=n, kind=kind, seed=0)
        summary = run_trials(
            cfg, trials, derive_seed(master_seed, x, y, n), parallelism=parallelism
        )
        lines.append(
            f"{n},{summary.mean_edges:.4f},{summary.mean_longest_path:.4f},"
            f"{summary.mean_isolated:.4f}"
        )
    return "\n".join(lines) + "\n"


def export(g: OrderedDag, format: str) -> bytes:
    """Serialize a graph to bytes in the named format ("json" or "dot")."""
    if format == "json":
        return g.to_json().encode("ascii")
    if format == "dot":
        return g.to_dot().encode("ascii")
    raise ValueError(f"unknown export format {format!r}; expected 'json' or 'dot'")
