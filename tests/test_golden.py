"""Golden outputs: the seeded processes and the harness must keep producing the same bytes.

Each process digest is the sha256 over seeds 0..199 of one line per run
holding the graph JSON, the round count, the halt reason and the target flag.
A change to any process kernel that alters a single edge, round count or halt
reason of any of these runs changes the digest.  The orders above 16 (removal
and addition at n = 40 and 60, the combined trim at n = 30 and fill at n = 40)
and the growth series at n = 24, 40 and 100 are the only digests whose runs
have hundreds of candidate edges.

Each harness digest is the sha256 of one experiment's output text: a
``run_trials`` JSON record over three trial blocks at parallelism 1 and 2, a
success-ratio table and growth series: (1, 1) at n = 40 and 100, and removal
and addition under caps (2, 3), (4, 1) and (3, 3) at n = 24, 40 and 100.  They pin the block streams: block k
of a cell draws from the generator keyed (master seed, k).  More ``run_trials``
records pin trees at n = 255-257 and 300 and lone combined cells at n = 40
and 50, below the lockstep kernel's minimum.

The exact-law digest is the sha256 over every removal and addition law
``exact_process_distribution(kind, x, y, n)`` with x, y <= n <= 4, one line
per law holding its outcomes and its expected edge count.

The oracle digest is the sha256 over every ``oracle_extremal(kind, x, y, n)``
with x, y <= 3 and n <= 5, one line per verdict holding its value, or the
error class name when the oracle raises a ``TaskDagError``.

The trace digest is the sha256 of ``taskdag generate --trace`` stdout and
stderr for removal, addition, combined and tree runs at n = 5, 22 and 40,
seeds 0..3: every traced move, in order, with its running counts.
"""

import hashlib

import pytest

from taskdag.analysis import ExtremalKind
from taskdag.cli import main
from taskdag.errors import TaskDagError
from taskdag.harness import growth_experiment, run_trials, table_experiment
from taskdag.oracle import exact_process_distribution, oracle_extremal
from taskdag.processes import ProcessConfig, ProcessKind, run_process

SEEDS = range(200)

GOLDEN = [
    (
        "removal-2-3-9",
        ProcessConfig(2, 3, 9, ProcessKind.REMOVAL, 0),
        "1e16968f80fbe37dd178501a6b9ab9b07cda2abd6f70aa447061c0c859717bf8",
    ),
    (
        "addition-2-1-9",
        ProcessConfig(2, 1, 9, ProcessKind.ADDITION, 0),
        "d0a39432fdf9e89da3d62c3b77d7e3de61fa7ffe167759f90004a30d9b43b6a0",
    ),
    (
        "combined-fill-1-1-8-m20",
        ProcessConfig(1, 1, 8, ProcessKind.COMBINED, 0, m=20),
        "a1761b0a437015b10488762cd6336f68652ff2d3e1240a25523ff4f826ee8842",
    ),
    (
        "combined-trim-1-1-7-m10",
        ProcessConfig(1, 1, 7, ProcessKind.COMBINED, 0, m=10),
        "71ffc6c7d6693743fb14f7cee43ed4997e35e8a847fecdde0f11d10be2005824",
    ),
    (
        "removal-1-1-40",
        ProcessConfig(1, 1, 40, ProcessKind.REMOVAL, 0),
        "a44767663155f08aca77a6bfdd6cbc91f3da8b557975201636079e3d27f3139c",
    ),
    (
        "removal-3-2-60",
        ProcessConfig(3, 2, 60, ProcessKind.REMOVAL, 0),
        "52973646f2aa34aace39cd1f60208b60bcb933810194d8d26de719321577dde7",
    ),
    (
        # all 200 runs hit (1, 1) above 60 edges and trim to m
        "combined-trim-1-1-30-m60",
        ProcessConfig(1, 1, 30, ProcessKind.COMBINED, 0, m=60),
        "38c4d2d564a0e632392f928d92c1bf6e04a58a6980ab56d37e5705cbb0591336",
    ),
    (
        "addition-1-1-40",
        ProcessConfig(1, 1, 40, ProcessKind.ADDITION, 0),
        "242797cf9a9b1a6ea59ff9cf4eb17283d8d063698d91f3b8166f8f98b4d27286",
    ),
    (
        "addition-3-2-60",
        ProcessConfig(3, 2, 60, ProcessKind.ADDITION, 0),
        "4165b4e9f043e8849aef8f1105a8c0df4da7873a6cdd8b6ef9d8ddac9b237d2f",
    ),
    (
        # 162 of the 200 runs hit (1, 1) below 700 edges and fill to m, the
        # other 38 trim
        "combined-fill-1-1-40-m700",
        ProcessConfig(1, 1, 40, ProcessKind.COMBINED, 0, m=700),
        "01c7762bfc4d006ebf5a9b4f272ddbb5af163b9dd11c9e07dcede7427edacd16",
    ),
    (
        "tree-16",
        ProcessConfig(1, 1, 16, ProcessKind.RANDOM_TREE, 0),
        "0a6559b9e606698ab385f782859e3450fbfb62307cfb8c07a435d6125c55af6d",
    ),
]


def outcome_digest(cfg: ProcessConfig) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        out = run_process(ProcessConfig(cfg.x, cfg.y, cfg.n, cfg.kind, seed, m=cfg.m))
        line = f"{out.graph.to_json()}|{out.rounds}|{out.halt_reason.value}|{out.is_target_xy}\n"
        h.update(line.encode("ascii"))
    return h.hexdigest()


@pytest.mark.parametrize("cfg,digest", [(c, d) for _, c, d in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_outputs_match_golden_digest(cfg, digest):
    assert outcome_digest(cfg) == digest


HARNESS_TRIALS = [
    (
        "removal-1-3-8",
        ProcessConfig(1, 3, 8, ProcessKind.REMOVAL, 0),
        "952963b5fbd9eb93a5a7a07d1c7066345c7db92fb2d071bd8868776d85bdba82",
    ),
    (
        "addition-2-1-7",
        ProcessConfig(2, 1, 7, ProcessKind.ADDITION, 0),
        "3dd52e53587f5c4cfc3381ef77a76a803d2f41c22e375c6b826dde8c7290ae11",
    ),
    (
        "combined-1-1-7-m10",
        ProcessConfig(1, 1, 7, ProcessKind.COMBINED, 0, m=10),
        "ae86ee2e371308b08a10bbd875cea714daccf7114ae8bdf749f52da2696e02b2",
    ),
    (
        "tree-12",
        ProcessConfig(1, 1, 12, ProcessKind.RANDOM_TREE, 0),
        "32f7db46eabecd581f0c767fa0b058d6a27188b284de30119822099c22880fc7",
    ),
]


# Trees past the uint8 depth bound (n = 255, 256 and 257: one block in one
# sub-batch at n <= 256, and 512 rows at n = 257), trees in two sub-batches per
# block (n = 300), and lone combined cells below the lockstep kernel's minimum:
# 100 trials in sub-batches of 84 (n = 40) and 53 (n = 50) trials
HARNESS_LARGE = [
    (
        "tree-255",
        ProcessConfig(1, 1, 255, ProcessKind.RANDOM_TREE, 0),
        1100,
        "45cc6c372249ea73fb394b835f7f55c50cff6aa295939c71cb7017d1ada5f41a",
    ),
    (
        "tree-256",
        ProcessConfig(1, 1, 256, ProcessKind.RANDOM_TREE, 0),
        1100,
        "433e432a71c85a23683b4b8692410554e58a8bb34f18b2c4541abd54449a2345",
    ),
    (
        "tree-257",
        ProcessConfig(1, 1, 257, ProcessKind.RANDOM_TREE, 0),
        1100,
        "ff47febe4bf17912d78012ca9f08deb8835c8ed2d44cb97b3660ce4c244b98f1",
    ),
    (
        "tree-300",
        ProcessConfig(1, 1, 300, ProcessKind.RANDOM_TREE, 0),
        1100,
        "266fbc7334514896df56edbf60e9dcea0e0a0b562b1a00825bed8bd0fa313416",
    ),
    (
        "combined-1-1-40-m120",
        ProcessConfig(1, 1, 40, ProcessKind.COMBINED, 0, m=120),
        100,
        "90463f791a9f239276b3ffb127f7a6c0c8ef0a4a5965c842bbed96f9663bbf31",
    ),
    (
        "combined-1-1-50-m150",
        ProcessConfig(1, 1, 50, ProcessKind.COMBINED, 0, m=150),
        100,
        "5ccd0c8c145efc26c58beee1491d83584b9702aa5f22f376c88131b011997dd4",
    ),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize(
    "cfg,digest", [(c, d) for _, c, d in HARNESS_TRIALS], ids=[t[0] for t in HARNESS_TRIALS]
)
def test_run_trials_match_golden_digest(cfg, digest, parallelism):
    summary = run_trials(cfg, 1100, master_seed=42, parallelism=parallelism)
    assert _sha(summary.to_json()) == digest


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize(
    "cfg,trials,digest", [(c, t, d) for _, c, t, d in HARNESS_LARGE], ids=[t[0] for t in HARNESS_LARGE]
)
def test_large_trees_and_lone_combined_trials_match_golden_digest(cfg, trials, digest, parallelism):
    summary = run_trials(cfg, trials, master_seed=42, parallelism=parallelism)
    assert _sha(summary.to_json()) == digest


def test_table_matches_golden_digest():
    csv = table_experiment(
        ProcessKind.ADDITION,
        [(1, 2), (2, 2)],
        (n for n in (5, 6, 7)),
        300,
        master_seed=9,
        parallelism=2,
    )
    assert _sha(csv) == "383a6c4a048ac73d80b96c79f1b43f7dafdedfbce9b60c950d1a9b382560cc74"


def test_growth_matches_golden_digest():
    csv = growth_experiment(ProcessKind.REMOVAL, 1, 2, [6, 9], 200, master_seed=4)
    assert _sha(csv) == "a4624bc0dc2436db4352cbaab530a4f4c0070772bb0b61eb289c719622e38bd6"


def test_large_order_growth_matches_golden_digest():
    # 64 trials at n = 40 and 100 are sub-batches too small for the lockstep
    # kernel, so they run as stacks of lone trials
    csv = growth_experiment(ProcessKind.REMOVAL, 1, 1, [40, 100], 64, master_seed=11)
    assert _sha(csv) == "7f563e78eff67dd23e34e50133353ca6bb989bd7c3a8d7bce84fdfa5084cdc66"


def test_large_order_addition_growth_matches_golden_digest():
    csv = growth_experiment(ProcessKind.ADDITION, 1, 1, [40, 100], 64, master_seed=11)
    assert _sha(csv) == "8b0033151411285cfaf52db6b63a775b3db7e3766c2f36464fabba0fff9b639b"


def test_capped_growth_matches_golden_digest():
    # 50 trials at n = 24, 40 and 100 run as lone trials, below the lockstep
    # kernel's minimum; caps above 1 bar vertices from their first edge
    h = hashlib.sha256()
    for kind in (ProcessKind.REMOVAL, ProcessKind.ADDITION):
        for x, y in ((2, 3), (4, 1), (3, 3)):
            csv = growth_experiment(kind, x, y, [24, 40, 100], 50, master_seed=7)
            h.update(f"{kind.value}|{x}|{y}\n{csv}".encode("ascii"))
    assert h.hexdigest() == "120553942f6357558179112238e50518c368c05f8b8d19006ea690e87ca6f19b"


def test_exact_laws_match_golden_digest():
    h = hashlib.sha256()
    for kind in (ProcessKind.REMOVAL, ProcessKind.ADDITION):
        for n in range(1, 5):
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    dist = exact_process_distribution(kind, x, y, n)
                    line = f"{kind.value}|{x}|{y}|{n}|{dist.outcomes!r}|{dist.expected_edges!r}\n"
                    h.update(line.encode("ascii"))
    assert h.hexdigest() == "e1b1c9de6e930e22d8b251ed1c4921ec9a5be9ecce30bb02bf43bdc370c2b40e"


def test_oracle_verdicts_match_golden_digest():
    h = hashlib.sha256()
    for kind in ExtremalKind:
        for x in (1, 2, 3):
            for y in (1, 2, 3):
                for n in range(1, 6):
                    try:
                        value = oracle_extremal(kind, x, y, n)
                    except TaskDagError as exc:
                        value = type(exc).__name__
                    h.update(f"{kind.value}|{x}|{y}|{n}|{value}\n".encode("ascii"))
    assert h.hexdigest() == "4844286a33298f04e0f5816539fdf514c5c4ddf8649565cff4cd52b5f4c3eed7"


# (process, n, extra arguments): (1, 2) for the three capped processes; the
# combined budget lies among the (1, 2) addition results, so runs fill and trim
TRACED_RUNS = [
    (process, n, extra)
    for n, m in ((5, 6), (22, 150), (40, 480))
    for process, extra in (
        ("removal", ["--x", "1", "--y", "2"]),
        ("addition", ["--x", "1", "--y", "2"]),
        ("combined", ["--x", "1", "--y", "2", "--m", str(m)]),
        ("tree", []),
    )
]


def test_generate_trace_matches_golden_digest(capsys):
    h = hashlib.sha256()
    for process, n, extra in TRACED_RUNS:
        for seed in range(4):
            argv = ["generate", "--process", process, "--n", str(n), "--seed", str(seed), *extra, "--trace"]
            assert main(argv) == 0
            out, err = capsys.readouterr()
            h.update(f"{' '.join(argv)}\n{out}{err}".encode("ascii"))
    assert h.hexdigest() == "7ad450bdb904a696cfa42c537c482966944fae70ac7d7a8aae83d8ea918ad662"
