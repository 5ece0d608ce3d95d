"""Golden outputs: the seeded processes must keep producing the same bytes.

Each digest is the sha256 over seeds 0..199 of one line per run holding the
graph JSON, the round count, the halt reason and the target flag.  A change
to any process kernel that alters a single edge, round count or halt reason
of any of these runs changes the digest.
"""

import hashlib

import pytest

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
