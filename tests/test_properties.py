"""Property tests at the package's outer edges: the CLI's exit contract over
argv built from its real flag vocabulary, and the graph JSON round trip."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from taskdag.analysis import ExtremalKind
from taskdag.cli import main
from taskdag.errors import GraphError
from taskdag.families import FAMILY_KINDS
from taskdag.graph import OrderedDag
from taskdag.processes import ProcessKind

from .conftest import ordered_dags


def _ints(lo: int, hi: int) -> st.SearchStrategy[str]:
    return st.integers(lo, hi).map(str)


# (good, bad) tokens per flag.  Good tokens keep orders at most 8 (5 for the
# oracle), trials at most 50 and --jobs at most 2 workers; 65 is rejected
# before any pool starts.  Good tokens can still lie outside a command's domain.
BAD_INT = st.sampled_from(["-1", "0", "", "x", "2.5"])
VALUES = {
    "--process": (st.sampled_from([k.value for k in ProcessKind]), st.just("bogus")),
    "--x": (_ints(1, 4), BAD_INT),
    "--y": (_ints(1, 4), BAD_INT),
    "--n": (_ints(1, 8), BAD_INT),
    "--m": (_ints(0, 15), BAD_INT),
    "--seed": (_ints(0, 3) | st.just(str(2**64 - 1)), BAD_INT | st.just(str(2**64))),
    "--trials": (_ints(1, 50), BAD_INT),
    "--jobs": (st.sampled_from(["1", "2"]), st.just("65")),
    "--format": (st.sampled_from(["json", "dot"]), st.just("yaml")),
    "--pairs": (st.sampled_from(["1-1", "1-2,2-1", "2-2"]), st.sampled_from(["1:2", "1-", ""])),
    "--n-min": (_ints(1, 8), BAD_INT),
    "--n-max": (_ints(1, 8), BAD_INT),
    "--n-list": (st.sampled_from(["3", "4,5", "8"]), st.sampled_from(["5,,6", "-1", "a", ""])),
    "--kind": (st.sampled_from([*FAMILY_KINDS, *(k.value for k in ExtremalKind)]), st.just("bogus")),
    "--input": (st.just("graph.json"), st.sampled_from(["bad.json", "missing.json"])),
}
GOOD_FOR = {  # narrower good tokens where a command takes fewer
    ("families", "--kind"): st.sampled_from(FAMILY_KINDS),
    ("oracle", "--kind"): st.sampled_from([k.value for k in ExtremalKind]),
    ("oracle", "--n"): _ints(1, 5),
}
SWITCHES = ["--trace"]
# per command: the flags it requires (or that most runs give), then its options
COMMANDS = {
    "generate": (["--process", "--x", "--y", "--n", "--seed"], ["--m", "--trace", "--format"]),
    "trials": (["--process", "--x", "--y", "--n", "--seed", "--trials"], ["--m", "--jobs"]),
    "table": (["--process", "--pairs", "--n-min", "--n-max", "--trials", "--seed"], ["--jobs"]),
    "growth": (["--process", "--x", "--y", "--n-list", "--trials", "--seed"], ["--jobs"]),
    "analyze": (["--input"], ["--x", "--y"]),
    "families": (["--kind", "--n"], ["--x", "--y", "--format"]),
    "oracle": (["--kind", "--x", "--y", "--n"], []),
}
FLAGS = sorted([*VALUES, *SWITCHES])


@st.composite
def argvs(draw) -> list[str]:
    """A command with its required flags and some of its options, and one
    time in four each: a required flag left out, one flag from the whole
    vocabulary added, one bad value."""

    def sometimes(options):
        return draw(st.sampled_from(options)) if options and draw(st.integers(0, 3)) == 0 else None

    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    required, options = COMMANDS.get(command, ([], []))
    omitted = sometimes(required)
    flags = [f for f in required if f != omitted] + [f for f in options if draw(st.booleans())]
    flags = draw(st.permutations([*flags, *filter(None, [sometimes(FLAGS)])]))
    spoiled = sometimes(flags)
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag in VALUES:
            good, bad = VALUES[flag]
            argv.append(draw(bad if flag == spoiled else GOOD_FOR.get((command, flag), good)))
    return argv


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    (folder / "graph.json").write_text('{"n":4,"edges":[[1,2],[1,3],[2,4],[3,4]]}')
    (folder / "bad.json").write_text('{"n":3,"edges":[[2,1]]}')
    return folder


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_cli_exits_0_or_prints_one_json_error_and_exits_2(input_dir, argv):
    argv = [str(input_dir / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"{argv[0]} exit {code}")
    if code == 0:
        return
    assert code == 2, (argv, code, err.getvalue())
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, lines
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"} and payload["error"].endswith("Error")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
graph_payloads = st.fixed_dictionaries({
    "n": st.integers(-1, 8) | json_values,
    "edges": st.lists(st.lists(st.integers(-1, 9), max_size=3), max_size=8) | json_values,
})


@st.composite
def valid_payloads(draw) -> dict:
    g = draw(ordered_dags(max_n=8))
    return {"n": g.n, "edges": draw(st.permutations([[a, b] for a, b in g.edges()]))}


documents = st.one_of(
    st.tuples(valid_payloads() | graph_payloads | json_values, st.booleans()).map(
        lambda p: json.dumps(p[0], ensure_ascii=p[1])
    ),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(document=documents, as_bytes=st.booleans())
def test_graph_json_round_trips_or_raises_graph_error(document, as_bytes):
    data = document.encode("utf-8") if as_bytes else document
    try:
        g = OrderedDag.from_json(data)
    except GraphError:
        event("GraphError")
        return
    event("round trip")
    payload = json.loads(document)
    assert g.n == payload["n"]
    assert set(g.edges()) == {tuple(edge) for edge in payload["edges"]}
    text = g.to_json()
    again = OrderedDag.from_json(text)
    assert again == g and again.to_json() == text
