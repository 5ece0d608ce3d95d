import json
import math
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from taskdag import harness
from taskdag.errors import ConfigError
from taskdag.graph import OrderedDag, empty_graph
from taskdag.harness import (
    derive_seed,
    export,
    growth_experiment,
    run_trials,
    table_experiment,
)
from taskdag.processes import ProcessConfig, ProcessKind, _finish, _State


def _cfg(x, y, n, kind=ProcessKind.REMOVAL, **kw):
    return ProcessConfig(x, y, n, kind, seed=0, **kw)


def _child(body, timeout=120):
    """Stdout of a fresh interpreter that runs ``body`` after importing the
    package and ``cfg``, failing the test past ``timeout`` seconds."""
    script = (
        "from taskdag import harness\n"
        "from taskdag.harness import run_trials\n"
        "from taskdag.processes import ProcessConfig, ProcessKind\n"
        "cfg = ProcessConfig(1, 2, 7, ProcessKind.REMOVAL, seed=0)\n" + body
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(harness.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestRunTrials:
    def test_point_mass_config(self):
        summary = run_trials(_cfg(1, 1, 3), 200, master_seed=1)
        assert summary.success_ratio == 1.0
        assert summary.mean_edges == 2.0

    def test_summary_fields(self):
        summary = run_trials(_cfg(1, 2, 6), 100, master_seed=7)
        assert summary.trials == 100
        assert 0.0 <= summary.success_ratio <= 1.0
        assert summary.kind is ProcessKind.REMOVAL
        assert summary.m is None

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            run_trials(_cfg(1, 1, 4), 0, master_seed=1)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"trials": True}, "trials"),
            ({"master_seed": -1}, "master_seed"),
            ({"master_seed": 2**64}, "master_seed"),
            ({"master_seed": True}, "master_seed"),
            ({"parallelism": 0}, "parallelism"),
            ({"parallelism": 65, "trials": 2000}, "parallelism"),
            ({"parallelism": 10**6, "trials": 2000}, "parallelism"),
        ],
    )
    def test_rejects_bad_arguments(self, monkeypatch, kwargs, match):
        # every argument is checked before a lane could be started
        def no_lanes(*args, **kwargs):
            raise AssertionError("a lane set was started")

        monkeypatch.setattr(harness, "_shared_pool", no_lanes)
        args = {"trials": 10, "master_seed": 1, "parallelism": 1, **kwargs}
        with pytest.raises(ConfigError, match=match):
            run_trials(_cfg(1, 1, 4), **args)

    def test_propagates_config_errors(self):
        with pytest.raises(ConfigError):
            run_trials(_cfg(3, 1, 2), 10, master_seed=1)

    def test_master_seed_changes_results(self):
        a = run_trials(_cfg(1, 3, 6), 400, master_seed=1)
        b = run_trials(_cfg(1, 3, 6), 400, master_seed=2)
        assert (a.success_ratio, a.mean_edges) != (b.success_ratio, b.mean_edges)

    @pytest.mark.parametrize(
        "cfg",
        [
            _cfg(1, 3, 7),
            _cfg(2, 1, 7, kind=ProcessKind.ADDITION),
            _cfg(1, 1, 7, kind=ProcessKind.COMBINED, m=10),
            _cfg(1, 1, 9, kind=ProcessKind.RANDOM_TREE),
        ],
        ids=lambda cfg: cfg.kind.value,
    )
    def test_means_equal_block_generator_replay(self, cfg):
        # trial t of block k takes its draws, in order, from the generator keyed
        # (master, k): one permutation(C(n, 2)) per phase (always two for the
        # combined process) or one random(n - 1) for the tree; the statistics
        # are taken from an OrderedDag here, not from the harness's own loop
        trials, master = 1100, 3
        rows = []
        for start in range(0, trials, harness._CHUNK):
            rng = np.random.default_rng(np.random.SeedSequence([master, start // harness._CHUNK]))
            for _ in range(start, min(start + harness._CHUNK, trials)):
                if cfg.kind is ProcessKind.RANDOM_TREE:
                    tree = rng.random(cfg.n - 1)
                    g = OrderedDag.from_edges(
                        cfg.n, [(int(u * s) + 1, s + 1) for s, u in enumerate(tree, 1)]
                    )
                    hit = g.profile().matches(cfg.x, cfg.y)
                else:
                    size = math.comb(cfg.n, 2)
                    draws = 2 if cfg.kind is ProcessKind.COMBINED else 1
                    orders = [rng.permutation(size).tolist() for _ in range(draws)]
                    state = _State(cfg.n, cfg.kind is ProcessKind.REMOVAL)
                    _finish(cfg, state, iter(orders).__next__)
                    out = state.outcome(cfg)
                    g, hit = out.graph, out.is_target_xy
                success = hit and (cfg.m is None or g.edge_count == cfg.m)
                rows.append(
                    (success, g.edge_count, g.longest_path_length(), len(g.profile().isolated))
                )
        s = run_trials(cfg, trials, master_seed=master, parallelism=2)
        expected = tuple(sum(col) / trials for col in zip(*rows))
        assert (s.success_ratio, s.mean_edges, s.mean_longest_path, s.mean_isolated) == expected

    @pytest.mark.parametrize(
        "kind,n",
        [(ProcessKind.REMOVAL, 50), (ProcessKind.COMBINED, 50), (ProcessKind.RANDOM_TREE, 300)],
    )
    def test_draw_split_at_cap_keeps_rows(self, kind, n):
        # 512 trials' rows of C(50, 2) = 1225 entries (two per combined trial,
        # or 299 for the tree) exceed the cap, so the draw is split, at trial
        # boundaries, and every row still equals one unsplit call
        class Spy:
            def __init__(self, seed):
                self.rng, self.sizes = np.random.default_rng(seed), []

            def permuted(self, x, axis):
                self.sizes.append(x.size)
                return self.rng.permuted(x, axis=axis)

            def random(self, shape):
                self.sizes.append(math.prod(shape))
                return self.rng.random(shape)

        spy, ref = Spy(5), np.random.default_rng(5)
        batches = list(harness._draw_rows(spy, kind, n, 512))
        rows = [row.tolist() for batch in batches for row in batch]
        per_trial = 2 if kind is ProcessKind.COMBINED else 1
        if kind is ProcessKind.RANDOM_TREE:
            expected = [ref.random(n - 1).tolist() for _ in range(512)]
        else:
            expected = [ref.permutation(math.comb(n, 2)).tolist() for _ in range(512 * per_trial)]
        assert rows == expected
        assert all(len(batch) % per_trial == 0 for batch in batches)
        assert len(spy.sizes) > 1 and max(spy.sizes) <= harness._DRAW_CAP == 2**16

    @pytest.mark.parametrize(
        "cfg",
        [
            _cfg(1, 3, 7),
            _cfg(2, 1, 7, kind=ProcessKind.ADDITION),
            _cfg(1, 2, 7, kind=ProcessKind.COMBINED, m=12),
        ],
        ids=lambda cfg: cfg.kind.value,
    )
    def test_kernel_minimum_changes_no_byte(self, cfg, monkeypatch):
        # blocks of one trial under, at and just over the kernel minimum, alone
        # or after a full block, give the bytes of the per-trial loop alone,
        # serially and in the pool
        low = harness._KERNEL_MIN
        for trials in (low - 1, low, low + 1, *(harness._CHUNK + t for t in (low - 1, low, low + 1))):
            with monkeypatch.context() as patch:
                patch.setattr(harness, "_KERNEL_MIN", 10**9)
                loop = run_trials(cfg, trials, master_seed=6).to_json()
            for parallelism in (1, 2):
                assert run_trials(cfg, trials, 6, parallelism).to_json() == loop, (trials, parallelism)

    def test_parallel_equals_serial(self):
        serial = run_trials(_cfg(1, 2, 7), 1200, master_seed=5, parallelism=1)
        parallel = run_trials(_cfg(1, 2, 7), 1200, master_seed=5, parallelism=4)
        assert serial.to_json() == parallel.to_json()

    def test_broken_pool_is_replaced(self):
        # a lane killed between calls: the next call raises BrokenProcessPool
        # or gives the serial bytes, and the call after it runs on a fresh set
        cfg = _cfg(1, 2, 7)
        run_trials(cfg, 1200, master_seed=5, parallelism=3)
        broken = harness._pool[1]
        lane = broken[0][0]
        os.kill(lane.pid, signal.SIGKILL)
        assert multiprocessing.connection.wait([lane.sentinel], timeout=30)
        serial = run_trials(cfg, 1200, master_seed=5, parallelism=1)
        try:
            parallel = run_trials(cfg, 1200, master_seed=5, parallelism=3)
        except BrokenProcessPool:  # the call that finds the lane dead may fail
            parallel = run_trials(cfg, 1200, master_seed=5, parallelism=3)
        assert parallel.to_json() == serial.to_json()
        assert harness._pool[1] is not broken
        assert not any(other.is_alive() for other, _ in broken)

    def test_combined_success_requires_budget(self):
        cfg = _cfg(1, 1, 7, kind=ProcessKind.COMBINED, m=12)
        summary = run_trials(cfg, 100, master_seed=11)
        assert summary.success_ratio == 1.0
        assert summary.mean_edges == 12.0

    def test_tree_kind(self):
        summary = run_trials(_cfg(1, 1, 10, kind=ProcessKind.RANDOM_TREE), 80, master_seed=2)
        assert summary.mean_edges == 9.0

    def test_json_shape(self):
        payload = json.loads(run_trials(_cfg(1, 1, 4), 10, master_seed=1).to_json())
        assert payload["kind"] == "removal"
        assert payload["trials"] == 10
        assert set(payload) == {
            "kind",
            "x",
            "y",
            "n",
            "m",
            "trials",
            "master_seed",
            "success_ratio",
            "mean_edges",
            "mean_longest_path",
            "mean_isolated",
        }


class TestLanes:
    def test_lane_counts_change_without_hanging(self):
        # 2, then 4, then 2 lanes in one process: each set is stopped when the
        # next is started, and each gives the serial bytes
        out = _child("for p in (3, 5, 3):\n    print(run_trials(cfg, 1200, 5, p).to_json())\n")
        assert out.splitlines() == [run_trials(_cfg(1, 2, 7), 1200, master_seed=5).to_json()] * 3

    def test_hundreds_of_blocks_per_lane_finish(self):
        # about 500 blocks for each of three workers; sent all at once, their
        # unread answers would fill the pipes and stall both sides
        cfg, trials = _cfg(1, 1, 3), 1500 * harness._CHUNK
        out = _child(
            "cfg = ProcessConfig(1, 1, 3, ProcessKind.REMOVAL, seed=0)\n"
            f"print(run_trials(cfg, {trials}, 5, 3).to_json())\n"
        )
        assert out.strip() == run_trials(cfg, trials, master_seed=5).to_json()

    def test_block_raising_in_a_lane_raises_in_the_caller(self):
        # of two blocks at parallelism 2, block 0 goes to the lane, where its
        # master seed fails the generator's check; the call after it starts
        # fresh lanes and gives the serial bytes
        cfg = _cfg(1, 2, 7)
        with harness._pool_lock:
            with pytest.raises(ValueError):
                harness._lane_sums([(cfg, -1, 0, 512), (cfg, 5, 512, 1024)], 2)
            assert harness._pool is None
        parallel = run_trials(cfg, 1200, master_seed=5, parallelism=2)
        assert parallel == run_trials(cfg, 1200, master_seed=5, parallelism=1)

    def test_drop_stops_every_lane(self):
        run_trials(_cfg(1, 2, 7), 1200, master_seed=5, parallelism=3)
        with harness._pool_lock:
            lanes = [lane for lane, _ in harness._pool[1]]
            harness._drop_pool()
        assert len(lanes) == 2
        assert not any(lane.is_alive() for lane in lanes)

    def test_exiting_interpreter_leaves_no_lane(self):
        out = _child(
            "run_trials(cfg, 1200, 5, parallelism=3)\n"
            "print(*(lane.pid for lane, _ in harness._pool[1]))\n"
        )
        pids = [int(pid) for pid in out.split()]
        assert len(pids) == 2

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        deadline = time.monotonic() + 30
        while any(map(alive, pids)):
            assert time.monotonic() < deadline, f"lanes {pids} outlived their interpreter"
            time.sleep(0.05)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_leaves_the_lanes_to_its_parent(self):
        # the child forgets the set, and its exit stops none of the lanes
        out = _child(
            "import os, sys\n"
            "run_trials(cfg, 1200, 5, parallelism=3)\n"
            "lanes = harness._pool[1]\n"
            "if os.fork() == 0:\n"
            "    print(harness._pool is None, flush=True)\n"
            "    sys.exit(0)\n"
            "os.wait()\n"
            "print(harness._pool[1] is lanes and all(lane.is_alive() for lane, _ in lanes))\n"
            "print(run_trials(cfg, 1200, 5, parallelism=3).to_json())\n"
        )
        serial = run_trials(_cfg(1, 2, 7), 1200, master_seed=5).to_json()
        assert out.splitlines() == ["True", "True", serial]


class TestDerivedSeeds:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_spread(self):
        seeds = {derive_seed(9, i) for i in range(100)}
        assert len(seeds) == 100

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    @pytest.mark.parametrize("part", [-1, True, 1.5])
    def test_rejects_bad_key_part(self, part):
        with pytest.raises(ConfigError, match="key_part"):
            derive_seed(part)


class TestTableExperiment:
    def test_schema_and_determinism(self):
        csv = table_experiment(
            ProcessKind.REMOVAL, [(1, 2), (2, 2)], range(4, 6), 60, master_seed=3
        )
        lines = csv.strip().split("\n")
        assert lines[0] == "pair,n,ratio"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("1-2,4,")
        again = table_experiment(
            ProcessKind.REMOVAL, [(1, 2), (2, 2)], range(4, 6), 60, master_seed=3
        )
        assert csv == again

    def test_x_equals_y_rows_are_exact(self):
        csv = table_experiment(ProcessKind.REMOVAL, [(2, 2)], [5, 6], 150, master_seed=1)
        for line in csv.strip().split("\n")[1:]:
            assert line.endswith(",1.0000")

    def test_one_pool_per_experiment(self, monkeypatch):
        # from no lanes, a six-cell table and a run_trials at parallelism 2
        # start one lane between them
        with harness._pool_lock:
            harness._drop_pool()
        lanes, real_process = [], multiprocessing.Process

        def counting_process(*args, **kwargs):
            lanes.append(real_process(*args, **kwargs))
            return lanes[-1]

        monkeypatch.setattr(multiprocessing, "Process", counting_process)
        grid = (ProcessKind.REMOVAL, [(1, 2), (2, 3)], [5, 6, 7], 100, 4)
        csv = table_experiment(*grid, parallelism=2)
        summary = run_trials(_cfg(1, 2, 7), 1200, master_seed=5, parallelism=2)
        assert [lane for lane, _ in harness._pool[1]] == lanes
        assert csv == table_experiment(*grid, parallelism=1)
        assert summary == run_trials(_cfg(1, 2, 7), 1200, master_seed=5, parallelism=1)
        assert len(lanes) == 1

    @pytest.mark.parametrize("pairs,n_values", [([], [5, 6]), ([(1, 2)], range(6, 5))])
    def test_empty_grid_is_config_error(self, pairs, n_values):
        with pytest.raises(ConfigError, match="at least one cell"):
            table_experiment(ProcessKind.REMOVAL, pairs, n_values, 10, master_seed=1)

    def test_ratio_formatting(self):
        csv = table_experiment(ProcessKind.ADDITION, [(1, 3)], [5], 40, master_seed=8)
        ratio = csv.strip().split("\n")[1].split(",")[2]
        assert len(ratio.split(".")[1]) == 4


class TestGrowthExperiment:
    def test_schema(self):
        csv = growth_experiment(ProcessKind.REMOVAL, 1, 1, [4, 6], 50, master_seed=2)
        lines = csv.strip().split("\n")
        assert lines[0] == "n,mean_edges,mean_longest_path,mean_isolated"
        assert len(lines) == 3

    def test_removal_density_band(self):
        csv = growth_experiment(ProcessKind.REMOVAL, 1, 1, [12], 300, master_seed=4)
        mean_edges = float(csv.strip().split("\n")[1].split(",")[1])
        assert 12 - 1 <= mean_edges <= 2 * 12 - 4

    def test_parallel_equals_serial(self):
        kw = dict(trials=600, master_seed=5)
        a = growth_experiment(ProcessKind.ADDITION, 1, 2, [6], parallelism=1, **kw)
        b = growth_experiment(ProcessKind.ADDITION, 1, 2, [6], parallelism=4, **kw)
        assert a == b


class TestExport:
    def test_json_bytes(self):
        g = OrderedDag.from_edges(3, [(1, 2), (2, 3)])
        assert export(g, "json") == b'{"n":3,"edges":[[1,2],[2,3]]}'

    def test_json_empty(self):
        assert export(empty_graph(2), "json") == b'{"n":2,"edges":[]}'

    def test_dot_round(self):
        g = OrderedDag.from_edges(2, [(1, 2)])
        assert export(g, "dot") == b"digraph {\n  1;\n  2;\n  1 -> 2;\n}\n"

    def test_repeat_identical(self):
        g = OrderedDag.from_edges(3, [(1, 3)])
        assert export(g, "json") == export(g, "json")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown export format"):
            export(empty_graph(1), "yaml")
