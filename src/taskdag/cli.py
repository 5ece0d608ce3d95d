"""Command-line interface.

Subcommands: generate, trials, table, growth, analyze, families, oracle.
Every randomized command requires an explicit --seed.  Graphs and records go
to stdout; bad arguments and domain errors are reported as one JSON object on
stderr with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from . import analysis, families, harness, oracle
from .errors import ConfigError, TaskDagError
from .graph import OrderedDag
from .processes import ProcessConfig, ProcessKind, run_process

_PROCESS_TOKENS = {kind.value: kind for kind in ProcessKind}
# table and growth build every cell without a budget m, which combined requires
_GRID_TOKENS = sorted(set(_PROCESS_TOKENS) - {ProcessKind.COMBINED.value})
_ORACLE_KINDS = {kind.value: kind for kind in analysis.ExtremalKind}
# Most bytes analyze reads from --input.  The largest valid graph, complete on
# MAX_ORDER = 1000 vertices, is 4,888,127 bytes of compact JSON and 26,866,145
# bytes written by json.dumps with indent=4; longer input is refused unread.
MAX_INPUT_BYTES = 2**25


def _report(error: str, message: str) -> None:
    print(json.dumps({"error": error, "message": message}, separators=(",", ":")), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """An argument parser, subparsers included, whose usage errors follow the
    one-JSON-line contract instead of printing usage text."""

    def error(self, message: str) -> NoReturn:
        _report(ConfigError.__name__, f"{self.prog}: {message}")
        raise SystemExit(2)


def _add_process_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--process", required=True, choices=sorted(_PROCESS_TOKENS))
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--y", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taskdag",
        description="Generate and analyze ordered task-dependency graphs with "
        "prescribed source and sink counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run one seeded process and print the graph")
    _add_process_args(p)
    p.add_argument("--trace", action="store_true", help="log accepted mutations to stderr")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("trials", help="aggregate many seeded runs of one configuration")
    _add_process_args(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("table", help="success-ratio grid over (x, y) pairs and n")
    p.add_argument("--process", required=True, choices=_GRID_TOKENS)
    p.add_argument("--pairs", required=True, help="comma-separated x-y pairs, e.g. 1-2,1-3")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("growth", help="mean edges / path length / isolated count per n")
    p.add_argument("--process", required=True, choices=_GRID_TOKENS)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated orders, e.g. 10,20,40")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("analyze", help="profile and classify a serialized graph")
    p.add_argument("--input", required=True, help="path to a graph JSON file, or - for stdin")
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--y", type=int, default=None)

    p = sub.add_parser("families", help="build a named graph family member")
    p.add_argument("--kind", required=True, choices=families.FAMILY_KINDS)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("oracle", help="closed form vs brute force verdict")
    p.add_argument("--kind", required=True, choices=sorted(_ORACLE_KINDS))
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    return parser


def _config(args: argparse.Namespace) -> ProcessConfig:
    return ProcessConfig(
        x=args.x,
        y=args.y,
        n=args.n,
        kind=_PROCESS_TOKENS[args.process],
        seed=args.seed,
        m=args.m,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = None
    if args.trace:
        def trace(round_index, op, a, b, sources, sinks):
            print(f"{round_index},{op},{a},{b},{sources},{sinks}", file=sys.stderr)

    outcome = run_process(_config(args), trace)
    sys.stdout.write(harness.export(outcome.graph, args.format).decode("ascii"))
    if args.format == "json":
        sys.stdout.write("\n")
    return 0


def _cmd_trials(args: argparse.Namespace) -> int:
    cfg = _config(args)
    summary = harness.run_trials(cfg, args.trials, args.seed, parallelism=args.jobs)
    print(summary.to_json())
    return 0


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for token in text.split(","):
        token = token.strip()
        try:
            x, y = (int(part) for part in token.split("-"))
        except ValueError as exc:
            raise ConfigError(f"bad pair {token!r}; expected the form x-y") from exc
        pairs.append((x, y))
    return pairs


def _cmd_table(args: argparse.Namespace) -> int:
    csv = harness.table_experiment(
        _PROCESS_TOKENS[args.process],
        _parse_pairs(args.pairs),
        range(args.n_min, args.n_max + 1),
        args.trials,
        args.seed,
        parallelism=args.jobs,
    )
    sys.stdout.write(csv)
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    try:
        n_values = [int(tok) for tok in args.n_list.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --n-list {args.n_list!r}; expected e.g. 10,20,40") from exc
    csv = harness.growth_experiment(
        _PROCESS_TOKENS[args.process],
        args.x,
        args.y,
        n_values,
        args.trials,
        args.seed,
        parallelism=args.jobs,
    )
    sys.stdout.write(csv)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if (args.x is None) != (args.y is None):
        raise ConfigError("analyze classifies only when given both --x and --y")
    if args.input == "-":  # bytes, or text if stdin has no buffer
        data = getattr(sys.stdin, "buffer", sys.stdin).read(MAX_INPUT_BYTES + 1)
    else:
        try:
            with open(args.input, "rb") as f:
                data = f.read(MAX_INPUT_BYTES + 1)
        except OSError as exc:
            raise ConfigError(f"cannot read --input {args.input!r}: {exc.strerror or exc}") from exc
    if len(data) > MAX_INPUT_BYTES:
        raise ConfigError(f"--input {args.input!r} is longer than {MAX_INPUT_BYTES} bytes, the most analyze reads")
    g = OrderedDag.from_json(data)
    prof = g.profile()
    record: dict[str, object] = {
        "n": g.n,
        "edges": g.edge_count,
        "initial": sorted(prof.initial),
        "terminal": sorted(prof.terminal),
        "isolated": sorted(prof.isolated),
        "interior": sorted(prof.interior),
        "longest_path": g.longest_path_length(),
        "is_minimal": analysis.is_minimal_xy(g),
        "underlying_forest": g.is_underlying_forest(),
    }
    path = analysis.find_removable_path(g)
    record["removable_path"] = list(path) if path is not None else None
    if args.x is not None:
        case = analysis.classify_extremal(g, args.x, args.y)
        record["structure_case"] = case.label.value
    print(json.dumps(record, separators=(",", ":")))
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    g = families.build_family(args.kind, args.n, x=args.x, y=args.y)
    sys.stdout.write(harness.export(g, args.format).decode("ascii"))
    if args.format == "json":
        sys.stdout.write("\n")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    kind = _ORACLE_KINDS[args.kind]
    if args.n > oracle.ENUMERATION_CAP:  # before the closed form, which may take long at such n
        oracle.EnumerationScope(n=args.n).validate()
    closed = analysis.extremal_value(kind, args.x, args.y, args.n)
    brute = oracle.oracle_extremal(kind, args.x, args.y, args.n)
    verdict = {
        "kind": kind.value,
        "x": args.x,
        "y": args.y,
        "n": args.n,
        "closed_form": closed,
        "brute_force": brute,
        "match": closed == brute,
    }
    print(json.dumps(verdict, separators=(",", ":")))
    return 0 if verdict["match"] else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "trials": _cmd_trials,
    "table": _cmd_table,
    "growth": _cmd_growth,
    "analyze": _cmd_analyze,
    "families": _cmd_families,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TaskDagError, OSError) as exc:
        _report(type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
