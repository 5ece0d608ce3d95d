import json
import math
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from itertools import compress, product

import numpy as np
import pytest

from taskdag import harness
from taskdag.analysis import ExtremalKind, extremal_value
from taskdag.errors import ConfigError
from taskdag.graph import OrderedDag, empty_graph, ordered_pairs
from taskdag.harness import (
    derive_seed,
    export,
    growth_experiment,
    run_trials,
    table_experiment,
)
from taskdag.processes import _BATCH_MAX_ORDER, ProcessConfig, ProcessKind, _Batch, _finish, _State, _tree_batch


def _cfg(x, y, n, kind=ProcessKind.REMOVAL, **kw):
    return ProcessConfig(x, y, n, kind, seed=0, **kw)


def _per_run_stack(complete):
    """A stand-in for ``_removal_stack`` or ``_addition_stack``: each row
    runs its own ``_State`` through the per-run lemma pass, and the record
    holds their fields."""

    def stack(n, orders, x, y):
        states = [_State(n, complete) for _ in orders]
        for state, order in zip(states, orders):
            (state.last_edge_removal_pass if complete else state.phase_addition_pass)(order, x, y)
        return _record(n, states)

    return stack


def _child_streams(body, timeout=120):
    """Stdout and stderr of a fresh interpreter that runs ``body`` after
    importing the package and ``cfg``, failing the test past ``timeout``
    seconds or on a nonzero exit."""
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
    return done.stdout, done.stderr


def _child(body, timeout=120):
    return _child_streams(body, timeout)[0]


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
        "cfg",
        [
            _cfg(2, 3, 40),
            _cfg(2, 3, 40, kind=ProcessKind.ADDITION),
            _cfg(1, 1, 40, kind=ProcessKind.COMBINED, m=120),
            _cfg(1, 1, 40, kind=ProcessKind.COMBINED, m=700),
        ],
        ids=["removal", "addition", "combined-trim", "combined-fill"],
    )
    def test_record_rows_equal_state_runs(self, cfg):
        # every field of each row of the stacks' records, lone fills and trims
        # included, equals a _State run on the trial's draws
        rng = np.random.default_rng(np.random.SeedSequence([5, 0]))
        draws = 2 if cfg.kind is ProcessKind.COMBINED else 1
        fields = ("present", "indeg", "outdeg", "sources", "sinks", "edge_total", "rounds")
        for row in harness._trial_states(cfg, 5, 30):
            state = _State(cfg.n, cfg.kind is ProcessKind.REMOVAL)
            _finish(cfg, state, iter([rng.permutation(math.comb(cfg.n, 2)) for _ in range(draws)]).__next__)
            assert [getattr(row, name) for name in fields] == [getattr(state, name) for name in fields]

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
        assert len(spy.sizes) > 1 and max(spy.sizes) <= harness._DRAW_CAP == 2**17

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
        # or after a full block at n = 7, and blocks of 1 to 129 trials at
        # n = 40 (a sub-batch holds 168 removal or addition trials) and n = 50
        # (107: never the kernel), give the bytes of the per-run lemma passes
        # alone, serially and in the pool
        low = harness._KERNEL_MIN
        near = (low - 1, low, low + 1)
        runs = [(cfg, t) for t in (*near, *(harness._CHUNK + t for t in near))]
        for n, m in ((40, 480), (50, 770)):
            larger = replace(cfg, n=n, m=m if cfg.m else None)
            runs += [(larger, t) for t in (1, 2, low - 1, low, low + 1)]
        for c, trials in runs:
            with monkeypatch.context() as patch:
                patch.setattr(harness, "_KERNEL_MIN", 10**9)
                patch.setattr(harness, "_removal_stack", _per_run_stack(True))
                patch.setattr(harness, "_addition_stack", _per_run_stack(False))
                loop = run_trials(c, trials, master_seed=6).to_json()
            for parallelism in (1, 2):
                assert run_trials(c, trials, 6, parallelism).to_json() == loop, (c.n, trials, parallelism)

    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION], ids=lambda k: k.value)
    def test_lone_sub_batches_never_take_the_per_run_passes(self, kind, monkeypatch):
        # removal and addition trials below the kernel minimum run as stacks:
        # (1, 1) and capped points at n = 7, 40 and 100, and the 107-trial
        # sub-batches of a two-block cell at n = 50
        def refuse(*args, **kwargs):
            raise AssertionError("a per-run lemma pass was called")

        monkeypatch.setattr(_State, "last_edge_removal_pass", refuse)
        monkeypatch.setattr(_State, "phase_addition_pass", refuse)
        for x, y in ((1, 1), (2, 3), (4, 1)):
            for n, trials in ((7, 100), (40, 12), (100, 2), (50, 600)):
                assert run_trials(_cfg(x, y, n, kind), trials, master_seed=3).trials == trials

    def test_stacks_stay_under_their_cap(self, monkeypatch):
        # a sub-batch whose rows pass _STACK_CAP entries runs as several
        # stacks, and every trial still runs once
        shapes = []

        def spy(real):
            def stack(n, orders, x, y):
                shapes.append(orders.shape)
                return real(n, orders, x, y)

            return stack

        monkeypatch.setattr(harness, "_removal_stack", spy(harness._removal_stack))
        monkeypatch.setattr(harness, "_addition_stack", spy(harness._addition_stack))
        for kind, n, trials, m in (
            (ProcessKind.REMOVAL, 100, 104, None),
            (ProcessKind.ADDITION, 50, 107, None),
            (ProcessKind.COMBINED, 50, 60, 700),
            (ProcessKind.REMOVAL, 7, 100, None),
            (ProcessKind.ADDITION, 1, 5, None),
        ):
            shapes.clear()
            assert run_trials(_cfg(1, 1, n, kind, m=m), trials, master_seed=3).trials == trials
            assert sum(rows for rows, _ in shapes) == trials
            assert all(rows * width <= harness._STACK_CAP or rows == 1 for rows, width in shapes)

    def test_lone_combined_sub_batches_stack_their_addition_phase(self, monkeypatch):
        # combined trials below the kernel minimum run their addition phase as
        # one stack; only a fill, an addition with a budget, runs on its own
        budgets, real = [], _State.phase_addition_pass

        def spy(state, order, x, y, budget=None, active=True):
            budgets.append(budget)
            return real(state, order, x, y, budget, active)

        monkeypatch.setattr(_State, "phase_addition_pass", spy)
        for x, y in ((1, 1), (2, 3)):
            for n, trials in ((7, 100), (40, 12), (50, 200)):
                lo = extremal_value(ExtremalKind.MAX_MINIMAL_EDGES, x, y, n)
                hi = extremal_value(ExtremalKind.MAX_EDGES, x, y, n)
                cfg = _cfg(x, y, n, kind=ProcessKind.COMBINED, m=(lo + hi) // 2)
                assert run_trials(cfg, trials, master_seed=3).trials == trials
        assert budgets and None not in budgets

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
        # the child forgets the set, and its exit neither stops the lanes nor
        # tries to join them (multiprocessing's "can only join a child process")
        out, err = _child_streams(
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
        assert err == ""


def _graph_sums(cfg, state):
    """The four statistics of a final state, read off a graph built afresh
    from its kept candidates."""
    g = OrderedDag.from_edges(state.n, compress(ordered_pairs(state.n), state.present))
    prof = g.profile()
    success = prof.matches(cfg.x, cfg.y) and (cfg.m is None or g.edge_count == cfg.m)
    return success, g.edge_count, g.longest_path_length(), len(prof.isolated)


def _random_mask(n, edges, seed):
    width = math.comb(n, 2)
    mask = np.zeros(width, bool)
    mask[np.random.default_rng(seed).choice(width, edges, replace=False)] = True
    return mask


def _record(n, states):
    """The record whose rows are the fields of ``states``."""
    fields = [[getattr(state, name) for state in states] for name in ("sources", "sinks", "edge_total", "rounds")]
    present = np.array([np.frombuffer(state.present, bool) for state in states]).reshape(len(states), -1)
    degrees = np.array([(state.indeg, state.outdeg) for state in states]).reshape(len(states), 2, n + 1)
    return _Batch._adopt(n, present, degrees, np.array(fields[:2]), *map(np.array, fields[2:]))


def _rows_of(record):
    """Each row of ``record`` as a record of its own."""
    for i in range(len(record.present)):
        cut = slice(i, i + 1)
        yield _Batch._adopt(
            record.n, record.present[cut], record.degrees[cut], record.counts[:, cut],
            record.edge_total[cut], record.rounds[cut],
        )


def _check_sums(cfg, record):
    """``_record_sums`` against a graph built afresh from each row, on the
    whole record and row by row, with the crossover forcing the column DP
    and then the per-row paths; the sums must be Python ints."""
    expected = [_graph_sums(cfg, state) for state in record.states()]
    assert len(expected) == len(record.present)
    for dp_rows in (0, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_DP_ROWS_PER_VERTEX", dp_rows)
            for row, sums in zip(_rows_of(record), expected):
                assert harness._record_sums(cfg, row) == sums, dp_rows
            sums = harness._record_sums(cfg, record)
            assert sums == tuple(sum(col) for col in zip(*expected)), dp_rows
            assert {type(total) for total in sums} == {int}  # so the means are Python floats


def _stack_record(cfg, rows, seed):
    """A ``_removal_stack`` or ``_addition_stack`` record of ``rows`` runs of
    ``cfg`` on random orders."""
    width = math.comb(cfg.n, 2)
    orders = np.random.default_rng(seed).permuted(np.broadcast_to(np.arange(width), (rows, width)), axis=1)
    stack = harness._removal_stack if cfg.kind is ProcessKind.REMOVAL else harness._addition_stack
    return stack(cfg.n, orders, cfg.x, cfg.y)


class TestStateStatistics:
    """``_record_sums`` on the records of every engine, by either method, and
    ``_longest_path``, against the graph of each row."""

    @pytest.mark.parametrize("n,trials", [(22, 200), (40, 12), (100, 3)])
    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION, ProcessKind.COMBINED])
    def test_final_states_match_their_graphs(self, kind, n, trials):
        # at n = 22 the trials come from a lockstep batch, else from stacks
        # and, for the combined process, fills and trims on lone states; row
        # by row, (1, 1) additions and the larger budget read the bitsets
        budgets = (3 * n, 8 * n) if kind is ProcessKind.COMBINED else (None,)
        for (x, y), m in product([(1, 1), (2, 3)], budgets):
            cfg = _cfg(x, y, n, kind, m=m)
            records = list(harness._block_states(cfg, 7, 0, trials))
            assert sum(len(record.present) for record in records) == trials
            for record in records:
                _check_sums(cfg, record)

    @pytest.mark.parametrize("rows", [1, 2, 12])
    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION])
    def test_stack_rows_match_their_graphs(self, kind, rows):
        for (x, y), n in product([(1, 1), (2, 3), (4, 1)], (1, 5, 22, 40, 100)):
            if n >= max(x, y):
                cfg = _cfg(x, y, n, kind)
                _check_sums(cfg, _stack_record(cfg, rows, seed=n + rows))

    def test_tree_states_walk_their_own_edges(self):
        # random trees, and chains (every draw close to 1 picks the vertex
        # before), whose depth n - 1 reaches uint8's 255 at n = 256 and passes
        # it at n = 257
        for n in (1, 2, 16, 100, 255, 256, 257):
            cfg = _cfg(1, 1, n, ProcessKind.RANDOM_TREE)
            for record in harness._block_states(cfg, 3, 0, 20 if n < 255 else 4):
                _check_sums(cfg, record)
            chains = _tree_batch(n, np.full((2, n - 1), 1 - 2**-20))
            _check_sums(cfg, chains)
            assert harness._record_sums(cfg, chains)[2] == 2 * (n - 1)

    @pytest.mark.parametrize("n", [1, 2, 16, 255, 256, 257])
    def test_tree_rows_take_their_drawn_parents(self, n):
        # vertex s + 1's parent is int(u * s) + 1 for its row's s-th draw u,
        # including draws 0 (a star) and close to 1 (a chain)
        draws = np.random.default_rng(n).random((5, n - 1))
        draws[3], draws[4] = 0.0, 1 - 2**-20
        pairs = ordered_pairs(n)
        for state, row in zip(_tree_batch(n, draws).states(), draws.tolist()):
            edges = [(int(u * s) + 1, s + 1) for s, u in enumerate(row, 1)]
            outdeg = [0] * (n + 1)
            for a, _ in edges:
                outdeg[a] += 1
            assert [pairs[i] for i in np.flatnonzero(np.frombuffer(state.present, bool))] == sorted(edges)
            assert state.indeg == [0, 0, *[1] * (n - 1)] and state.outdeg == outdeg
            assert (state.sources, state.sinks) == (1, outdeg[1:].count(0))
            assert state.edge_total == state.rounds == n - 1

    @pytest.mark.parametrize("n", [13, 22, 40, 100])  # 13: the complete graph is at the crossover
    def test_method_flips_at_the_crossover(self, n, monkeypatch):
        walks = []

        def walk(n, edges):
            walks.append(n)
            return walk_longest_path(n, edges)

        walk_longest_path = harness._walk_longest_path
        monkeypatch.setattr(harness, "_walk_longest_path", walk)
        least = harness._BITSET_MIN * n
        for edges in (least - 1, least):
            mask = _random_mask(n, edges, seed=edges)
            walks.clear()
            expected = OrderedDag.from_edges(n, compress(ordered_pairs(n), mask)).longest_path_length()
            assert harness._longest_path(n, mask) == expected
            assert walks == ([n] if edges < least else [])

    @pytest.mark.parametrize("bitset_min", [0, 10**9])  # bitsets always, or never
    def test_either_method_on_any_mask(self, bitset_min, monkeypatch):
        monkeypatch.setattr(harness, "_BITSET_MIN", bitset_min)
        for n in (1, 2, 3, 5, 12, 40):
            width = math.comb(n, 2)
            for edges in sorted({0, 1, n - 1, n, 2 * n, width // 2, width - 1, width}):
                if 0 <= edges <= width:
                    for seed in range(3):
                        mask = _random_mask(n, edges, seed)
                        g = OrderedDag.from_edges(n, compress(ordered_pairs(n), mask))
                        assert harness._longest_path(n, mask) == g.longest_path_length(), (n, edges, seed)

    @pytest.mark.parametrize("bitset_min", [0, 10**9])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100])
    def test_empty_and_complete_graphs(self, n, bitset_min, monkeypatch):
        monkeypatch.setattr(harness, "_BITSET_MIN", bitset_min)
        width = math.comb(n, 2)
        assert harness._longest_path(n, np.zeros(width, bool)) == 0
        assert harness._longest_path(n, np.ones(width, bool)) == n - 1
        for complete in (False, True):  # the untouched start states, as records of one
            _check_sums(_cfg(1, 1, n), _record(n, [_State(n, complete)]))


def _kernel_batch(cfg, trials, seed):
    """A ``_Batch`` of ``trials`` runs of ``cfg`` on random orders."""
    per_trial = 2 if cfg.kind is ProcessKind.COMBINED else 1
    width = math.comb(cfg.n, 2)
    rows = np.random.default_rng(seed).permuted(np.broadcast_to(np.arange(width), (per_trial * trials, width)), axis=1)
    batch = _Batch(cfg.n, cfg.kind is ProcessKind.REMOVAL, trials)
    _finish(cfg, batch, iter([rows[i::per_trial] for i in range(per_trial)]).__next__)
    return batch


class TestBatchStatistics:
    """``_record_sums`` on lockstep batches by either method, up to the orders
    where the kernel's int8 degrees and the uint8 depths are largest."""

    @pytest.mark.parametrize("n", [5, 14, 23, 45])
    @pytest.mark.parametrize("kind", [ProcessKind.REMOVAL, ProcessKind.ADDITION])
    def test_single_pass_batches(self, kind, n):
        for x, y in [(1, 1), (1, 2), (3, 2)]:
            cfg = _cfg(x, y, n, kind)
            _check_sums(cfg, _kernel_batch(cfg, 64, seed=10 * n + x + y))

    @pytest.mark.parametrize("x,y,n,m", [(1, 1, 12, 30), (2, 2, 12, 25), (1, 2, 32, 325), (2, 2, 32, 226)])
    def test_combined_batches(self, x, y, n, m):
        cfg = _cfg(x, y, n, ProcessKind.COMBINED, m=m)
        _check_sums(cfg, _kernel_batch(cfg, 64, seed=m))

    @pytest.mark.parametrize("n", [1, 2, 14, 45, _BATCH_MAX_ORDER])
    @pytest.mark.parametrize("complete", [True, False])
    def test_untouched_batches(self, complete, n):
        cfg, trials = _cfg(1, 1, n), 3
        batch = _Batch(n, complete, trials)
        _check_sums(cfg, batch)
        assert harness._record_sums(cfg, batch)[2] == trials * (n - 1 if complete else 0)


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
