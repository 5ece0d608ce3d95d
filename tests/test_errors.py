"""The one integer rule: every public integer parameter is an int, never a
bool, inside its range, and every bad value ends in a typed TaskDagError
that names the parameter before any work starts."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskdag import families
from taskdag.analysis import (
    ExtremalKind,
    classify_extremal,
    expected_tree_path_length,
    extremal_value,
    remove_removable_path,
    retention_probability_bound,
)
from taskdag.errors import (
    CapacityError,
    ConfigError,
    DomainError,
    GraphError,
    TaskDagError,
    check_int,
)
from taskdag.graph import MAX_ORDER, OrderedDag, complete_graph, empty_graph
from taskdag.harness import derive_seed, export, growth_experiment, run_trials, table_experiment
from taskdag.oracle import (
    EnumerationScope,
    exact_process_distribution,
    oracle_extremal,
    oracle_is_minimal,
)
from taskdag.processes import ProcessConfig, ProcessKind, random_directed_tree, run_process

SEED_MAX = 2**64 - 1
REMOVAL, COMBINED, TREE = ProcessKind.REMOVAL, ProcessKind.COMBINED, ProcessKind.RANDOM_TREE


def _process(kind=REMOVAL, x=1, y=1, n=4, seed=1, m=None):
    return run_process(ProcessConfig(x=x, y=y, n=n, kind=kind, seed=seed, m=m))


def _trials(x=1, y=1, n=4, trials=3, master_seed=1, parallelism=1):
    return run_trials(ProcessConfig(x, y, n, REMOVAL, seed=0), trials, master_seed, parallelism)


def _table(x=1, y=1, n=4, trials=3, master_seed=1, parallelism=1):
    return table_experiment(REMOVAL, [(x, y)], [n], trials, master_seed, parallelism)


def _growth(x=1, y=1, n=4, trials=3, master_seed=1, parallelism=1):
    return growth_experiment(REMOVAL, x, y, [n], trials, master_seed, parallelism)


def _from_json(n=3, a=1):
    return OrderedDag.from_json(json.dumps({"n": n, "edges": [[a, 3]]}))


# (entry point, parameter, lower bound, upper bound or None, name in the message)
CASES = [
    (_process, "x", 1, None, "x"),
    (_process, "y", 1, None, "y"),
    (_process, "n", 1, MAX_ORDER, "n"),
    (_process, "seed", 0, SEED_MAX, "seed"),
    (lambda m: _process(kind=COMBINED, n=6, m=m), "m", 8, 15, "m"),
    (lambda **kw: _process(kind=TREE, **kw), "n", 1, MAX_ORDER, "n"),
    (lambda **kw: _process(kind=TREE, **kw), "seed", 0, SEED_MAX, "seed"),
    *[(_trials, p, 1, None, p) for p in ("x", "y", "n", "trials")],
    (_trials, "parallelism", 1, 64, "parallelism"),
    (_trials, "master_seed", 0, SEED_MAX, "master_seed"),
    *[(_table, p, 1, None, p) for p in ("x", "y", "n", "trials")],
    (_table, "parallelism", 1, 64, "parallelism"),
    (_table, "master_seed", 0, SEED_MAX, "master_seed"),
    *[(_growth, p, 1, None, p) for p in ("x", "y", "n", "trials")],
    (_growth, "parallelism", 1, 64, "parallelism"),
    (_growth, "master_seed", 0, SEED_MAX, "master_seed"),
    (lambda part: derive_seed(1, part), "part", 0, None, "key_part"),
    (lambda n: OrderedDag(n), "n", 1, MAX_ORDER, "n"),
    (lambda n: complete_graph(n), "n", 1, MAX_ORDER, "n"),
    (lambda n: OrderedDag.from_json(json.dumps({"n": n, "edges": []})), "n", 1, MAX_ORDER, "n"),
    (_from_json, "a", 1, None, "vertex"),
    (lambda n=3, seed=1: random_directed_tree(n, seed), "n", 1, MAX_ORDER, "n"),
    (lambda n=3, seed=1: random_directed_tree(n, seed), "seed", 0, SEED_MAX, "seed"),
    *[
        (lambda x=1, y=1, n=3: extremal_value(ExtremalKind.MAX_EDGES, x, y, n), p, 1, None, p)
        for p in ("x", "y", "n")
    ],
    *[
        (lambda r=1, s=2, n=3: retention_probability_bound(r, s, n), p, 1, None, p)
        for p in ("r", "s", "n")
    ],
    (lambda k: expected_tree_path_length(k), "k", 1, None, "k"),
    (lambda n: EnumerationScope(n=n).validate(), "n", 1, None, "n"),
    *[
        (lambda x=1, y=1, n=3: oracle_extremal(ExtremalKind.MIN_EDGES, x, y, n), p, 1, None, p)
        for p in ("x", "y", "n")
    ],
    *[
        (lambda x=1, y=1, n=3: exact_process_distribution(REMOVAL, x, y, n), p, 1, None, p)
        for p in ("x", "y", "n")
    ],
    *[
        (lambda x=2, y=1, n=5, f=f: f(x, y, n), p, 1, None, p)
        for f in (
            families.densest_minimal_graph,
            families.densest_connected_minimal_graph,
            families.densest_graph,
            families.addition_trap,
        )
        for p in ("x", "y", "n")
    ],
    *[(lambda y=1, n=3: families.removal_trap(y, n), p, 1, None, p) for p in ("y", "n")],
    (lambda x: EnumerationScope(n=3, profile=(x, 1)).validate(), "x", 1, None, "x"),
    (lambda y: EnumerationScope(n=3, profile=(1, y)).validate(), "y", 1, None, "y"),
    *[
        (lambda x=1, y=1: oracle_is_minimal(OrderedDag.from_edges(3, [(1, 2), (2, 3)]), x, y),
         p, 1, None, p)
        for p in ("x", "y")
    ],
    *[
        (lambda x=1, y=1: classify_extremal(OrderedDag.from_edges(3, [(1, 2), (2, 3)]), x, y),
         p, 1, None, p)
        for p in ("x", "y")
    ],
]
CASE_IDS = [f"{i}-{param}" for i, (_, param, *_rest) in enumerate(CASES)]


def _bad_values(lo: int, hi: int | None) -> st.SearchStrategy:
    bad = st.sampled_from([True, False, float(lo), None, "3", str(lo)])
    bad |= st.integers(max_value=lo - 1)
    return bad if hi is None else bad | st.integers(min_value=hi + 1)


@pytest.mark.parametrize("call,param,lo,hi,name", CASES, ids=CASE_IDS)
@given(data=st.data())
def test_bad_integer_raises_typed_error_naming_it(call, param, lo, hi, name, data):
    value = data.draw(_bad_values(lo, hi), label=param)
    with pytest.raises(TaskDagError, match=rf"\b{name}\b"):
        call(**{param: value})


BOUNDED = [(call, param, lo, hi) for call, param, lo, hi, _ in CASES if lo == 0 or hi is not None]


@pytest.mark.parametrize("call,param,lo,hi", BOUNDED, ids=[c[1] for c in BOUNDED])
def test_boundary_values_pass(call, param, lo, hi):
    # seeds span [0, 2^64 - 1], key parts start at 0, m spans [8, 15] here,
    # parallelism spans [1, 64] (three trials make one block, so no pool starts)
    # and orders span [1, MAX_ORDER]
    for value in (lo,) if hi is None else (lo, hi):
        call(**{param: value})


def test_enumeration_scope_type_error_is_not_a_capacity_error():
    with pytest.raises(DomainError) as excinfo:
        EnumerationScope(n="3").validate()
    assert not isinstance(excinfo.value, CapacityError)


@pytest.mark.parametrize("profile", [(1,), (1, 1, 1), (), [1, 1], "11"])
def test_enumeration_profile_must_be_a_pair(profile):
    # a profile of another shape used to enumerate nothing, without an error
    with pytest.raises(DomainError, match=r"^profile must be None or a pair \(x, y\), got "):
        EnumerationScope(n=3, profile=profile).validate()


@pytest.mark.parametrize("entry", [(1,), (1, 1, 1), 5, None])
@pytest.mark.parametrize("call,error,pair", [
    (lambda entry: table_experiment(REMOVAL, [(1, 1), entry], [5], 10, 1), ConfigError, "x, y"),
    (lambda entry: OrderedDag.from_edges(3, [(1, 2), entry]), GraphError, "a, b"),
], ids=["table_experiment", "from_edges"])
def test_malformed_pair_is_typed_and_named(call, error, pair, entry):
    # unpacking such an entry used to raise an untyped ValueError or TypeError
    with pytest.raises(error, match=rf"^\w+ entry {re.escape(repr(entry))} is not a pair \({pair}\)$"):
        call(entry)


@pytest.mark.parametrize("call", [
    lambda: run_process(ProcessConfig(1, 1, 5, "removal", 0)),
    lambda: run_trials(ProcessConfig(1, 1, 5, "removal", 0), 10, 1),
    lambda: table_experiment("removal", [(1, 1)], [5], 10, 1),
    lambda: growth_experiment("tree", 1, 1, [5], 10, 1),
], ids=["run_process", "run_trials", "table_experiment", "growth_experiment"])
def test_string_process_kind_is_a_config_error(call):
    with pytest.raises(ConfigError, match="unknown process kind"):
        call()


@pytest.mark.parametrize("kind", [None, 5])
def test_non_string_family_kind_is_a_domain_error(kind):
    with pytest.raises(DomainError, match="unknown family kind"):
        families.build_family(kind, 5, x=1, y=1)


def test_remaining_value_errors_are_typed():
    with pytest.raises(GraphError, match="unknown export format"):
        export(empty_graph(1), "yaml")
    g = OrderedDag.from_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(GraphError, match="out-degree > 1"):
        remove_removable_path(g, (1, 2, 3))
    with pytest.raises(GraphError, match="at least 3"):
        remove_removable_path(g, (1, 2))


def _path_graph(*edges):
    return OrderedDag.from_edges(4, edges)


@pytest.mark.parametrize("call,error,match", [
    (lambda: families.densest_graph(3, 1, 2), DomainError, r"n >= max\(x, y\)"),
    (lambda: families.removal_trap(3, 3), DomainError, r"n >= y \+ 1"),
    (lambda: families.addition_trap(3, 1, 3), DomainError, "n > x"),
    (lambda: OrderedDag.from_json('{"n":3,"edges":{}}'), GraphError, "must be an array"),
    (
        lambda: exact_process_distribution(ProcessKind.ADDITION, 3, 1, 2),
        DomainError,
        r"n >= max\(x, y\)",
    ),
    (lambda: _process(kind=COMBINED, x=2, y=1, n=3, m=2), ConfigError, r"n > max\(x, y\) \+ 1"),
    (
        lambda: remove_removable_path(_path_graph((1, 2), (1, 3), (3, 4)), (1, 2, 4)),
        GraphError,
        r"edge \(2, 4\) is not in the graph",
    ),
    (
        lambda: remove_removable_path(_path_graph((1, 2), (1, 4), (2, 3), (2, 4)), (1, 2, 4)),
        GraphError,
        "interior path vertex 2",
    ),
    (
        lambda: remove_removable_path(_path_graph((1, 2), (1, 4), (2, 3)), (1, 2, 3)),
        GraphError,
        "path end 3 must have in-degree > 1",
    ),
], ids=[
    "densest_graph", "removal_trap", "addition_trap", "from_json-edges", "exact_distribution",
    "combined-order", "path-edge-missing", "path-interior", "path-end",
])
def test_typed_error_branches(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_check_int_messages():
    with pytest.raises(ConfigError, match=r"^trials must be a positive integer, got True$"):
        check_int(ConfigError, trials=True)
    with pytest.raises(DomainError, match=r"^part must be an integer >= 0, got -1$"):
        check_int(DomainError, 0, part=-1)
    with pytest.raises(ConfigError, match=r"^m must lie in \[2, 4\], got 5$"):
        check_int(ConfigError, 2, 4, m=5)
    check_int(ConfigError, 0, SEED_MAX, a=0, b=SEED_MAX)
