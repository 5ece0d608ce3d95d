import io
import json
import multiprocessing
import tracemalloc

import pytest

from taskdag import cli, harness
from taskdag.cli import main
from taskdag.graph import MAX_ORDER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_removal_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--process", "removal", "--x", "1", "--y", "1",
            "--n", "3", "--seed", "5",
        )
        assert code == 0
        assert json.loads(out) == {"n": 3, "edges": [[1, 2], [2, 3]]}

    def test_dot_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--process", "tree", "--n", "3", "--seed", "1",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph {")

    def test_trace_lines_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "--process", "addition", "--x", "1", "--y", "1",
            "--n", "4", "--seed", "3", "--trace",
        )
        assert code == 0
        lines = [line for line in err.strip().split("\n") if line]
        assert lines[0].startswith("1,add,")
        assert len(lines) == len(json.loads(out)["edges"])

    def test_tree_trace_has_one_line_per_edge(self, capsys):
        argv = ["generate", "--process", "tree", "--n", "9", "--seed", "3"]
        code, untraced, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out, err = run_cli(capsys, *argv, "--trace")
        assert code == 0
        assert out == untraced
        lines = err.strip().split("\n")
        assert len(lines) == 8
        assert [line.split(",")[:2] for line in lines] == [[str(k), "add"] for k in range(1, 9)]

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--process", "removal", "--x", "1", "--y", "1", "--n", "3"])

    def test_config_error_as_json(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--process", "removal", "--x", "9", "--y", "1",
            "--n", "3", "--seed", "5",
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"

    def test_tree_rejects_m(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "--process", "tree", "--n", "8", "--seed", "1", "--m", "3",
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "only meaningful for the combined process" in payload["message"]

    def test_same_seed_same_bytes(self, capsys):
        argv = ["generate", "--process", "addition", "--x", "2", "--y", "1",
                "--n", "6", "--seed", "11"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestTrials:
    def test_summary_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "trials", "--process", "removal", "--x", "1", "--y", "1",
            "--n", "3", "--trials", "50", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["success_ratio"] == 1.0
        assert payload["mean_edges"] == 2.0

    def test_combined_with_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "trials", "--process", "combined", "--x", "1", "--y", "1",
            "--n", "6", "--m", "8", "--trials", "30", "--seed", "2",
        )
        assert code == 0
        assert json.loads(out)["mean_edges"] == 8.0

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--jobs", "0")])
    def test_bad_seed_or_jobs_is_json_error(self, capsys, flag, value):
        argv = {"--seed": "2", "--jobs": "1", flag: value}
        code, out, err = run_cli(
            capsys, "trials", "--process", "removal", "--n", "4", "--trials", "10",
            "--seed", argv["--seed"], "--jobs", argv["--jobs"],
        )
        assert code == 2 and out == ""
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_jobs_above_cap_is_json_error_before_any_pool(self, capsys, monkeypatch):
        def no_lanes(*args, **kwargs):
            raise AssertionError("a lane set was started")

        monkeypatch.setattr(harness, "_shared_pool", no_lanes)
        code, out, err = run_cli(
            capsys, "trials", "--process", "removal", "--n", "4", "--trials", "2000",
            "--seed", "2", "--jobs", "65",
        )
        assert code == 2 and out == ""
        (line,) = err.strip().split("\n")
        assert json.loads(line) == {
            "error": "ConfigError",
            "message": "parallelism must lie in [1, 64], got 65",
        }


    def test_trials_above_cap_is_json_error_before_any_pool(self, capsys, monkeypatch):
        def no_lanes(*args, **kwargs):
            raise AssertionError("a lane set was started")

        monkeypatch.setattr(harness, "_shared_pool", no_lanes)
        code, out, err = run_cli(
            capsys, "trials", "--process", "removal", "--x", "1", "--y", "1", "--n", "5",
            "--trials", "10000000000", "--seed", "1", "--jobs", "2",
        )
        assert code == 2 and out == ""
        (line,) = err.strip().split("\n")
        assert json.loads(line) == {
            "error": "ConfigError",
            "message": "trials must lie in [1, 10000000], got 10000000000",
        }


class TestTableAndGrowth:
    def test_table_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--process", "removal", "--pairs", "1-2,2-2",
            "--n-min", "4", "--n-max", "5", "--trials", "40", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "pair,n,ratio"
        assert len(lines) == 5

    def test_bad_pairs(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--process", "removal", "--pairs", "1:2",
            "--n-min", "4", "--n-max", "5", "--trials", "10", "--seed", "1",
        )
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_pair_without_dash_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--process", "removal", "--pairs", "1x2",
            "--n-min", "4", "--n-max", "5", "--trials", "10", "--seed", "1",
        )
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": "ConfigError", "message": "bad pair '1x2'; expected the form x-y"}

    @pytest.mark.parametrize("command,extra", [
        ("table", ["--pairs", "1-2", "--n-min", "4", "--n-max", "4"]),
        ("growth", ["--x", "1", "--y", "1", "--n-list", "4"]),
    ])
    def test_negative_seed_is_json_error(self, capsys, command, extra):
        code, out, err = run_cli(
            capsys, command, "--process", "removal", *extra, "--trials", "5", "--seed", "-1",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ConfigError"

    def test_empty_n_range_is_json_error(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--process", "removal", "--pairs", "1-2",
            "--n-min", "6", "--n-max", "5", "--trials", "10", "--seed", "1",
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("command,extra,named", [
        ("table", ["--process", "removal", "--pairs", "1-2", "--n-min", "-3", "--n-max", "2"], "n"),
        ("growth", ["--process", "removal", "--x", "1", "--y", "1", "--n-list", "-3"], "n"),
        ("growth", ["--process", "tree", "--x", "-1", "--y", "1", "--n-list", "3"], "key_part"),
    ])
    def test_negative_integer_is_json_error(self, capsys, command, extra, named):
        # checked before the cell key (master seed, x, y, n) is hashed
        code, out, err = run_cli(capsys, command, *extra, "--trials", "5", "--seed", "1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(f"{named} must")

    def test_empty_n_list_entry_is_json_error(self, capsys):
        code, out, err = run_cli(
            capsys, "growth", "--process", "removal", "--x", "1", "--y", "1",
            "--n-list", "5,,6", "--trials", "5", "--seed", "1",
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "--n-list" in payload["message"]

    def test_non_integer_n_list_entry_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "growth", "--process", "removal", "--x", "1", "--y", "1",
            "--n-list", "5,a", "--trials", "5", "--seed", "1",
        )
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": "ConfigError", "message": "bad --n-list '5,a'; expected e.g. 10,20,40"}

    @pytest.mark.parametrize("command,extra", [
        ("table", ["--pairs", "1-1", "--n-min", "4", "--n-max", "4"]),
        ("growth", ["--x", "1", "--y", "1", "--n-list", "4"]),
    ])
    def test_combined_is_not_a_grid_choice(self, capsys, command, extra):
        # neither command takes the budget m the combined process needs
        with pytest.raises(SystemExit) as exc:
            main([command, "--process", "combined", *extra, "--trials", "5", "--seed", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ConfigError"
        assert "--process" in payload["message"] and "'combined'" in payload["message"]

    def test_growth_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "growth", "--process", "addition", "--x", "1", "--y", "1",
            "--n-list", "4,5", "--trials", "30", "--seed", "9",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,mean_edges,mean_longest_path,mean_isolated"
        assert len(lines) == 3


class TestOrderCap:
    @pytest.mark.parametrize(
        "argv,payload,error",
        [
            (["analyze", "--input", "-"], '{"n": 100000000, "edges": []}', "GraphError"),
            (["generate", "--process", "removal", "--n", str(MAX_ORDER + 1), "--seed", "1"], None, "ConfigError"),
            (["generate", "--process", "tree", "--n", str(MAX_ORDER + 1), "--seed", "1"], None, "ConfigError"),
        ],
        ids=["analyze", "generate-removal", "generate-tree"],
    )
    def test_order_above_cap_is_one_json_line_before_any_work(
        self, capsys, monkeypatch, argv, payload, error
    ):
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing.Process, "start", no_process)
        if payload is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        (line,) = err.strip().split("\n")
        record = json.loads(line)
        assert record["error"] == error
        assert record["message"].startswith(f"n must lie in [1, {MAX_ORDER}], got ")
        assert peak < 2**22  # nothing of the order's size was allocated


class TestAnalyze:
    def test_record_fields(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n":3,"edges":[[1,2],[2,3]]}')
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path), "--x", "1", "--y", "1")
        assert code == 0
        record = json.loads(out)
        assert record["initial"] == [1]
        assert record["longest_path"] == 2
        assert record["is_minimal"] is True
        assert record["structure_case"] == "one-interior"

    def test_bad_payload(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n":3,"edges":[[2,1]]}')
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "GraphError"

    def test_non_ascii_input(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes('{"n":3,"edges":[]} \u00e9'.encode("utf-8"))
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "GraphError"

    def test_stdin_input(self, capsys, monkeypatch):
        for stdin in (
            io.TextIOWrapper(io.BytesIO(b'{"n":2,"edges":[[1,2]]}')),
            io.StringIO('{"n":2,"edges":[[1,2]]}'),
        ):
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, _ = run_cli(capsys, "analyze", "--input", "-")
            assert code == 0 and json.loads(out)["edges"] == 1
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff")))
        code, _, err = run_cli(capsys, "analyze", "--input", "-")
        assert code == 2 and json.loads(err)["error"] == "GraphError"

    @pytest.mark.parametrize("made,reason", [(False, "No such file or directory"), (True, "Is a directory")])
    def test_unreadable_input_is_config_error_naming_the_path(self, capsys, tmp_path, made, reason):
        path = tmp_path / "graph.json"
        if made:
            path.mkdir()
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "ConfigError",
            "message": f"cannot read --input {str(path)!r}: {reason}",
        }

    def test_input_past_the_bound_is_config_error_naming_it(self, capsys, tmp_path, monkeypatch):
        # a file or stdin one byte past the bound is refused after reading at
        # most the bound plus one byte; at the bound, whitespace and all, it
        # is read; the real bound holds the largest graph with room to spare
        assert cli.MAX_INPUT_BYTES >= 5 * 4_888_127
        text = '{"n":2,"edges":[[1,2]]}'
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", len(text) + 8)
        path = tmp_path / "g.json"
        path.write_text(text + " " * 8)
        assert run_cli(capsys, "analyze", "--input", str(path))[0] == 0
        reads = []

        class Source(io.BytesIO):
            def read(self, size=-1):
                reads.append(size)
                return super().read(size)

        for name in (str(path), "-"):
            path.write_text(text + " " * 9)
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(Source((text + " " * 9).encode())))
            code, out, err = run_cli(capsys, "analyze", "--input", name)
            assert code == 2 and out == ""
            (line,) = err.splitlines()
            assert json.loads(line) == {
                "error": "ConfigError",
                "message": f"--input {name!r} is longer than {len(text) + 8} bytes, the most analyze reads",
            }
        assert reads == [len(text) + 9]

    def test_profile_mismatch(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n":3,"edges":[[1,2],[2,3]]}')
        code, _, err = run_cli(capsys, "analyze", "--input", str(path), "--x", "2", "--y", "1")
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("given", [["--x", "1"], ["--y", "1"]])
    def test_one_of_x_and_y_is_json_error(self, capsys, monkeypatch, given):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"n":3,"edges":[[1,2],[2,3]]}'))
        code, out, err = run_cli(capsys, "analyze", "--input", "-", *given)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "--x and --y" in payload["message"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--input", str(tmp_path / "nope.json"))
        assert code == 2
        assert "message" in json.loads(err)


class TestFamilies:
    def test_star_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "families", "--kind", "S", "--x", "1", "--y", "1", "--n", "5",
        )
        assert code == 0
        assert len(json.loads(out)["edges"]) == 6

    def test_trap_without_x(self, capsys):
        code, out, _ = run_cli(capsys, "families", "--kind", "removal-trap", "--y", "2", "--n", "5")
        assert code == 0
        assert json.loads(out)["n"] == 5

    def test_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "families", "--kind", "addition-trap", "--x", "2", "--y", "2", "--n", "5",
        )
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"


class TestOracleCommand:
    def test_match_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--kind", "max-minimal-edges", "--x", "1", "--y", "1", "--n", "4",
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["closed_form"] == verdict["brute_force"] == 4
        assert verdict["match"] is True

    def test_domain_error_verdict(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--kind", "min-edges", "--x", "2", "--y", "2", "--n", "2",
        )
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"

    def test_n7_is_capacity_error(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle", "--kind", "min-edges", "--x", "1", "--y", "1", "--n", "7",
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "CapacityError"
        assert "n <= 6" in payload["message"]

    def test_allow_gated_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--kind", "min-edges", "--x", "1", "--y", "1", "--n", "7",
                  "--allow-gated"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert json.loads(captured.err)["error"] == "ConfigError"


class TestUsageErrors:
    @pytest.mark.parametrize("argv,named", [
        (["trials", "--process", "removal", "--n", "abc", "--seed", "1", "--trials", "3"], "--n"),
        (["oracle", "--kind", "nope", "--x", "1", "--y", "1", "--n", "3"], "--kind"),
        (["table", "--process", "removal", "--pairs", "1-2", "--n-min", "5",
          "--trials", "3", "--seed", "1"], "--n-max"),
        (["families", "--kind", "S", "--n", "2.5"], "--n"),
        (["growth", "--process", "nope", "--x", "1", "--y", "1", "--n-list", "4",
          "--trials", "3", "--seed", "1"], "--process"),
        (["analyze"], "--input"),
        (["bogus"], "command"),
        ([], "command"),
    ])
    def test_one_json_line_and_exit_2(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        payload = json.loads(captured.err)
        assert payload["error"] == "ConfigError"
        assert named in payload["message"]

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trials", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: taskdag trials")
