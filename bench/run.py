"""Run one benchmark workload and print its result as the last stdout line.

    python3 bench/run.py --workload grid-small-n --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and nothing else.  With ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run.
The line before the result is an ``info`` record: the machine, versions,
commit and seed, the failed ratio, and the sha256 of the first pass's output.
Exits nonzero without a result when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
MIN_PASSES = 3


def _import_package():
    if not (SRC / "taskdag" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'taskdag'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import taskdag

    if Path(taskdag.__file__).resolve().parent != (SRC / "taskdag").resolve():
        sys.exit(f"bench: imported taskdag from {taskdag.__file__}, not from {SRC}")
    return taskdag


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(workload, seconds: float):
    """Run whole passes: at least ``MIN_PASSES``, then another only while
    half of one still fits in ``seconds``.

    Every pass repeats the same calls, and operation j's latency is its best
    over the passes.  On a shared 2-vCPU Xeon VM each core alternated between
    a fast and a ~1.5x slower phase, independently of the other core, in
    phases of a fraction of a second to tens of seconds.  A serial workload
    therefore runs each pass on the next core in turn, so that a long slow
    phase on one core does not make the whole run slow.
    """
    passes, pass_times = [], []
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    start = perf_counter()
    try:
        while (
            len(passes) < MIN_PASSES
            or perf_counter() - start + statistics.mean(pass_times) / 2 < seconds
        ):
            if cpus and not workload.workers:
                os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            workload.before_pass()
            gc.collect()  # start every pass from the same heap
            pass_start = perf_counter()
            passes.append([workload.run_op(op) for op in workload.ops])
            pass_times.append(perf_counter() - pass_start)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    results = [r for done in passes for r in done]
    workload.finish(results)
    latencies = [min(op) for op in zip(*([r.seconds for r in done] for done in passes))]
    work = sum(r.work for r in passes[0])
    metrics = {
        "throughput_per_s": (work / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
    }
    return results, passes[0], len(passes), metrics


def trace(workload, seconds: float, layers):
    """Traced operations until ``seconds`` are spent.  The oracle traces whole
    pass pairs, by the same half-a-pass rule as ``measure``."""
    results, first_pass, pass_times = [], [], []
    start = perf_counter()
    while not pass_times or perf_counter() - start + statistics.mean(pass_times) / 2 < seconds:
        pass_start = perf_counter()
        if hasattr(workload, "trace_pass"):
            done = workload.trace_pass(layers)
        else:
            done = []
            for op in workload.ops:
                done.append(workload.trace_op(op, layers))
                if perf_counter() - start >= seconds:
                    break
        pass_times.append(perf_counter() - pass_start)
        if not first_pass:
            first_pass = done
        results.extend(done)
    workload.finish(results)
    return results, first_pass, len(pass_times)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    from workloads import HALT_REASONS

    c, busy = layers.counts, layers.busy
    trials = c["processes.trials"]
    return {
        "harness.derive_seed_us": (layers.mean("harness.derive_seed") * 1e6, "us"),
        "processes.rng_prelude_us": (
            _ratio(c["processes.rng_prelude_s"], c["processes.rng_prelude_calls"]) * 1e6,
            "us",
        ),
        "processes.removal_us": (layers.mean("processes.removal") * 1e6, "us"),
        "processes.addition_us": (layers.mean("processes.addition") * 1e6, "us"),
        "processes.combined_us": (layers.mean("processes.combined") * 1e6, "us"),
        "processes.rounds_per_trial": (_ratio(c["processes.rounds"], trials), "count"),
        "processes.accept_ratio": (
            _ratio(c["processes.rounds"], c["processes.candidates"]),
            "ratio",
        ),
        **{
            f"processes.halt.{reason}": (_ratio(c[f"processes.halt.{reason}"], trials), "ratio")
            for reason in HALT_REASONS
        },
        "graph.longest_path_us": (layers.mean("graph.longest_path") * 1e6, "us"),
        "graph.profile_us": (layers.mean("graph.profile") * 1e6, "us"),
        "harness.parallel_efficiency": (
            _ratio(c["harness.serial_s"], 2 * c["harness.parallel_s"]),
            "ratio",
        ),
        "harness.blocks": (_ratio(c["harness.blocks"], c["harness.cells"]), "count"),
        "oracle.extremal_ms": (layers.mean("oracle.extremal") * 1e3, "ms"),
        "oracle.exact_distribution_ms": (layers.mean("oracle.exact_distribution") * 1e3, "ms"),
        "oracle.is_minimal_us": (layers.mean("oracle.is_minimal") * 1e6, "us"),
        "oracle.graphs_per_s": (
            _ratio(c["oracle.graphs_examined"], busy["oracle.enumerate"]),
            "1/s",
        ),
        "analysis.extremal_value_us": (layers.mean("analysis.extremal_value") * 1e6, "us"),
        "analysis.is_minimal_xy_us": (layers.mean("analysis.is_minimal_xy") * 1e6, "us"),
        "analysis.classify_extremal_us": (layers.mean("analysis.classify_extremal") * 1e6, "us"),
        "trace.covered_share": (_ratio(sum(busy.values()), c["trace.traced_s"]), "ratio"),
        "trace.overhead_ratio": (_ratio(c["trace.traced_s"], c["trace.untraced_s"]), "ratio"),
        "trace.replay_match": (_ratio(c["trace.replay_matches"], c["trace.replays"]), "ratio"),
    }


def setup_seconds(workload_name: str, seed: int) -> float:
    """Median time from starting an interpreter until the workload's first
    call is ready, over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
               "--seed", str(seed), "--setup-probe"]
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {probe.returncode}")
        samples.append(elapsed)
    return statistics.median(samples)


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus, for each pool worker alive at once, the largest
    peak of any finished child.  Forked workers also count the pages they
    share with this process, so this is an upper bound."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024


def environment(taskdag, args) -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "taskdag": taskdag.__version__,
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    taskdag = _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import Layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        layers = Layers()
        results, first_pass, passes = trace(workload, args.seconds, layers)
        metrics = layer_metrics(layers)
    else:
        results, first_pass, passes, metrics = measure(workload, args.seconds)
        metrics["peak_rss_mb"] = (peak_rss_mb(workload.workers), "MB")
        metrics["setup_s"] = (setup_seconds(args.workload, args.seed), "s")

    failed = sum(1 for r in results if r.failures)
    for r in [r for r in results if r.failures][:10]:
        print(f"bench: FAILED {'; '.join(r.failures)}", file=sys.stderr)
    rows = sorted(r.row for r in first_pass)
    info = {
        **environment(taskdag, args),
        "passes": passes,
        "operations": len(results),
        "work_unit": workload.work_unit,
        "failed_ratio": failed / len(results),
        "first_pass_rows": len(rows),
        "first_pass_sha256": hashlib.sha256("\n".join(rows).encode()).hexdigest(),
    }
    for name, (value, unit) in metrics.items():
        print(f"bench: {args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"bench: {args.workload} failed_ratio = {info['failed_ratio']:.6g}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
