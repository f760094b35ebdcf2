from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wdlab
from helpers import build_wd_from_paths, random_orientation
from wdlab import Graph, Orientation, additive_coefficient, parse, to_text
from wdlab.cli import main
from wdlab.wd import warc_key

D1_TEXT = "4\n1 -> 2\n1 -> 3\n2 -> 4\n3 -> 2\n"
D2_TEXT = "4\n1 -> 3\n2 -> 1\n3 -> 2\n3 -> 4\n4 -> 1\n"


@pytest.fixture()
def d1_file(tmp_path):
    path = tmp_path / "d1.dg"
    path.write_text(D1_TEXT)
    return str(path)


@pytest.fixture()
def d2_file(tmp_path):
    path = tmp_path / "d2.dg"
    path.write_text(D2_TEXT)
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.g"
    path.write_text("4\n1 -- 2\n2 -- 3\n3 -- 4\n1 -- 4\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_512_mib(tmp_path, text: str, *argv) -> subprocess.CompletedProcess:
    """`wd-lab <argv> <file holding text>` in a child whose address space
    is capped at 512 MiB."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    limit = 512 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(wdlab.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "wdlab.cli", *argv, str(path)],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )


class TestCount:
    def test_wd_json_exact(self, capsys, d1_file):
        code, out, _ = run(capsys, "count", d1_file, "--wd", "--json")
        assert code == 0
        assert out == '{"ee":"3","eo":"1","difference":"2"}\n'

    def test_wd_is_default(self, capsys, d1_file):
        _, explicit, _ = run(capsys, "count", d1_file, "--wd", "--json")
        _, default, _ = run(capsys, "count", d1_file, "--json")
        assert explicit == default

    def test_classic(self, capsys, d1_file):
        code, out, _ = run(capsys, "count", d1_file, "--classic", "--json")
        assert code == 0
        assert json.loads(out) == {"ee": "1", "eo": "0", "difference": "1"}

    def test_text_mode(self, capsys, d2_file):
        code, out, _ = run(capsys, "count", d2_file)
        assert code == 0
        assert out == "ee=2\neo=8\ndifference=-6\n"

    def test_huge_edgeless_header_answers(self, tmp_path):
        # the one orientation of 200M isolated vertices: the counter touches
        # no star, so it must answer inside a 512 MiB address space
        done = run_in_512_mib(tmp_path, "200000000\n", "count")
        assert (done.returncode, done.stdout) == (0, "ee=1\neo=0\ndifference=1\n"), done.stderr

    def test_classic_ignores_env_bound(self, capsys, d1_file, monkeypatch):
        # WD_LAB_BOUND is the sweep's edge bound; both counts stop at the
        # state bound alone
        monkeypatch.delenv("WD_LAB_BOUND", raising=False)
        expected = run(capsys, "count", d1_file, "--classic")
        assert expected == (0, "ee=1\neo=0\ndifference=1\n", "")
        for raw in ("3", "many"):
            monkeypatch.setenv("WD_LAB_BOUND", raw)
            assert run(capsys, "count", d1_file, "--classic") == expected

    def test_edgeless_graph_promotes(self, capsys, tmp_path):
        path = tmp_path / "iso.g"
        path.write_text("3\n")
        code, out, _ = run(capsys, "count", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"ee": "1", "eo": "0", "difference": "1"}

    def test_long_directed_path(self, capsys, tmp_path):
        path = tmp_path / "path1200.dg"
        path.write_text("1200\n" + "".join(f"{i} -> {i + 1}\n" for i in range(1, 1200)))
        code, out, _ = run(capsys, "count", str(path), "--json")
        assert code == 0
        count = json.loads(out)
        assert int(count["ee"]) - int(count["eo"]) == additive_coefficient(parse(path.read_text()))

    def test_classic_long_directed_path_needs_no_recursion(self, capsys, tmp_path, monkeypatch):
        # 1199 arcs, far past the brute force's 24, with no bound raised:
        # the frontier counter is a loop and holds a few states per level
        path = tmp_path / "path1200.dg"
        path.write_text("1200\n" + "".join(f"{i} -> {i + 1}\n" for i in range(1, 1200)))
        monkeypatch.delenv("WD_LAB_BOUND", raising=False)
        assert run(capsys, "count", str(path), "--classic") == (0, "ee=1\neo=0\ndifference=1\n", "")

    def test_wd_state_bound_exits_2(self, capsys, d2_file, monkeypatch):
        monkeypatch.setattr("wdlab.eulerian.DEFAULT_WD_STATE_BOUND", 1)
        code, out, err = run(capsys, "count", d2_file)
        assert code == 2 and out == ""
        assert err.startswith("wd-lab: error:") and "state bound 1" in err
        # the bound and its value, and no knob the CLI lacks
        assert err == "wd-lab: error: a level reached 2 balance states, above the state bound 1\n"

    def test_classic_state_bound_exits_2(self, capsys, d2_file, monkeypatch):
        monkeypatch.setattr("wdlab.eulerian.DEFAULT_WD_STATE_BOUND", 1)
        code, out, err = run(capsys, "count", d2_file, "--classic")
        assert code == 2 and out == ""
        assert err.startswith("wd-lab: error:") and "state bound 1" in err
        assert err == "wd-lab: error: a level reached 2 balance states, above the state bound 1\n"

    def test_graph_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "c4.g"
        path.write_text("4\n1 -- 2\n2 -- 3\n3 -- 4\n1 -- 4\n")
        code, _, err = run(capsys, "count", str(path))
        assert code == 2 and "orientation" in err


class TestCoefficient:
    def test_additive_plain(self, capsys, d2_file):
        code, out, _ = run(capsys, "coefficient", d2_file, "--additive")
        assert code == 0 and out == "-6\n"

    def test_additive_json(self, capsys, d1_file):
        code, out, _ = run(capsys, "coefficient", d1_file, "--json")
        assert code == 0
        assert out == '{"coefficient":"2","cap":[2,1,1,0]}\n'

    def test_classic(self, capsys, d1_file):
        code, out, _ = run(capsys, "coefficient", d1_file, "--classic")
        assert code == 0 and out == "1\n"

    def test_long_directed_path(self, capsys, tmp_path):
        # the full capped expansion of this product never finished
        path = tmp_path / "path1200.dg"
        path.write_text("1200\n" + "".join(f"{i} -> {i + 1}\n" for i in range(1, 1200)))
        start = time.monotonic()
        code, out, _ = run(capsys, "coefficient", str(path))
        assert code == 0 and int(out) > 0
        code, out, _ = run(capsys, "coefficient", str(path), "--classic")
        assert code == 0 and out == "1\n"
        assert time.monotonic() - start < 60


class TestBuildWd:
    def test_text_output(self, capsys, d1_file):
        code, out, _ = run(capsys, "build-wd", d1_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "18"
        assert len(lines) == 1 + 22 + 1
        assert lines[1] == "1* -> 1^{1>2}"
        assert all(" -> " in line for line in lines[1:-1])
        assert json.loads(lines[-1]) == {"vertices": 18, "arcs": 22, "sectors": 4}

    def test_json_output(self, capsys, d2_file):
        code, out, _ = run(capsys, "build-wd", d2_file, "--json")
        assert code == 0
        assert json.loads(out) == {"vertices": 20, "arcs": 25, "sectors": 5}

    def test_deterministic(self, capsys, d1_file):
        _, first, _ = run(capsys, "build-wd", d1_file)
        _, second, _ = run(capsys, "build-wd", d1_file)
        assert first == second

    def test_one_sector_per_arc(self, capsys, tmp_path):
        rng = random.Random(31)
        path = tmp_path / "d.dg"
        for _ in range(20):
            D = random_orientation(rng, n_max=7)
            path.write_text(to_text(D))
            code, out, _ = run(capsys, "build-wd", str(path), "--json")
            assert code == 0
            assert json.loads(out)["sectors"] == len(D.arcs)

    def test_edgeless(self, capsys, tmp_path):
        path = tmp_path / "iso.g"
        path.write_text("3\n")
        code, out, _ = run(capsys, "build-wd", str(path), "--json")
        assert code == 0 and out == '{"vertices":3,"arcs":0,"sectors":0}\n'

    def test_huge_edgeless_header_json_answers(self, tmp_path):
        # --json counts W(D) by its size formulas, so 200M stars are never made
        done = run_in_512_mib(tmp_path, "200000000\n", "build-wd", "--json")
        expected = '{"vertices":200000000,"arcs":0,"sectors":0}\n'
        assert (done.returncode, done.stdout) == (0, expected), done.stderr

    def test_matches_union_of_paths(self, capsys, tmp_path, d1, d2, d3):
        # stdout is byte-identical to the rendering of the path-union oracle
        rng = random.Random(47)
        D10 = random_orientation(rng, n_min=10, n_max=10)
        assert D10.n == 10 and D10.arcs
        path = tmp_path / "d.dg"
        for D in (d1, d2, d3, D10):
            oracle = build_wd_from_paths(D)
            summary = json.dumps(
                {"vertices": len(oracle.vertices), "arcs": len(oracle.arcs), "sectors": len(D.arcs)},
                separators=(",", ":"),
            )
            lines = [str(len(oracle.vertices))]
            lines += [f"{a} -> {b}" for a, b in sorted(oracle.arcs, key=warc_key)]
            path.write_text(to_text(D))
            assert run(capsys, "build-wd", str(path)) == (0, "\n".join(lines + [summary]) + "\n", "")
            assert run(capsys, "build-wd", str(path), "--json") == (0, summary + "\n", "")


class TestColor:
    # color prints JSON either way, so --json changes nothing
    def test_absent(self, capsys, tmp_path):
        path = tmp_path / "k2.g"
        path.write_text("2\n1 -- 2\n")
        for json_flag in ((), ("--json",)):
            code, out, _ = run(
                capsys, "color", str(path), "--lists", '{"1":[1],"2":[1]}', *json_flag
            )
            assert code == 1
            assert out == '{"result":"none"}\n'

    def test_found(self, capsys, tmp_path):
        path = tmp_path / "p3.g"
        path.write_text("3\n1 -- 2\n2 -- 3\n")
        for json_flag in ((), ("--json",)):
            code, out, _ = run(
                capsys, "color", str(path), "--lists", '{"1":[1,2],"2":[1,2],"3":[5]}', *json_flag
            )
            assert code == 0
            assert out == '{"1":1,"2":1,"3":5}\n'

    def test_bad_lists(self, capsys, tmp_path):
        path = tmp_path / "k2.g"
        path.write_text("2\n1 -- 2\n")
        for bad in (
            "nope",
            "[1]",
            '{"1":[1]}',
            '{"1":[1],"2":[0]}',
            '{"1":[1],"x":[1]}',
            '{"1":[1,"a"],"2":[3]}',
            '{"1":[[1]],"2":[3]}',
            '{"1":{"1":1},"2":[3]}',
        ):
            code, _, err = run(capsys, "color", str(path), "--lists", bad)
            assert code == 2 and err

    def test_keys_naming_one_vertex(self, capsys, tmp_path):
        # the later list used to replace the earlier one, answering "none"
        path = tmp_path / "k3.g"
        path.write_text("3\n1 -- 2\n1 -- 3\n2 -- 3\n")
        for lists, keys in (
            ('{"1":[1],"2":[2],"3":[3],"03":[1]}', "'3' and '03'"),
            ('{"1":[1],"2":[2],"3":[3]," 3":[1]}', "'3' and ' 3'"),
            ('{"1":[1],"2":[2],"3":[3],"3":[1]}', "'3' and '3'"),
        ):
            code, out, err = run(capsys, "color", str(path), "--lists", lists)
            assert code == 2 and out == ""
            assert f"list keys {keys} both name vertex 3" in err
        # a padded key naming a vertex once is still accepted
        code, out, _ = run(capsys, "color", str(path), "--lists", '{"01":[1],"2":[2],"3":[3]}')
        assert code == 0 and out == '{"1":1,"2":2,"3":3}\n'

    def test_keys_are_ascii_integers(self, capsys, tmp_path):
        # int() reads "\u0663" (Arabic-Indic three) as 3 and "0_2" as 2
        path = tmp_path / "k3.g"
        path.write_text("3\n1 -- 2\n1 -- 3\n2 -- 3\n")
        for key in ("\u0663", "0_3", "+3"):
            lists = json.dumps({"1": [1], "2": [2], key: [3]}, ensure_ascii=False)
            code, out, err = run(capsys, "color", str(path), "--lists", lists)
            assert code == 2 and out == ""
            assert f"list key {key!r} is not a vertex id" in err

    def test_orientation_input_rejected(self, capsys, d1_file):
        code, _, err = run(capsys, "color", d1_file, "--lists", "{}")
        assert code == 2 and "undirected" in err

    def test_coloring_bound_exits_2(self, capsys, tmp_path, monkeypatch):
        # d1's underlying graph; an exhausted node budget is not a "none"
        path = tmp_path / "d1.g"
        path.write_text("4\n1 -- 2\n1 -- 3\n2 -- 4\n2 -- 3\n")
        monkeypatch.setattr("wdlab.coloring.DEFAULT_COLORING_BOUND", 1)
        lists = '{"1":[1,2],"2":[1,2,3],"3":[1,2],"4":[1]}'
        code, out, err = run(capsys, "color", str(path), "--lists", lists)
        assert code == 2 and out == ""
        # the bound and its value, and no knob the CLI lacks
        assert err == "wd-lab: error: the coloring search reached 2 nodes, above the node bound 1\n"


class TestCheckHypothesis:
    def test_sun_true(self, capsys, tmp_path):
        _, text, _ = run(capsys, "gen", "sun", "3")
        path = tmp_path / "sun.dg"
        path.write_text(text)
        code, out, _ = run(capsys, "check-hypothesis", str(path))
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "check-hypothesis", str(path), "--tripartite", "--json")
        assert code == 0 and out == '{"result":true}\n'

    def test_tripartite_has_no_vertex_cap(self, capsys, tmp_path):
        _, text, _ = run(capsys, "gen", "sun", "4")
        path = tmp_path / "sun4.dg"
        path.write_text(text)
        code, out, _ = run(capsys, "check-hypothesis", str(path), "--tripartite")
        assert code == 0 and out == "true\n"

    def test_k4_orientation_false(self, capsys, tmp_path):
        path = tmp_path / "k4.dg"
        path.write_text("4\n1 -> 2\n1 -> 3\n1 -> 4\n2 -> 3\n2 -> 4\n3 -> 4\n")
        code, out, _ = run(capsys, "check-hypothesis", str(path))
        assert code == 1 and out == "false\n"


class TestSweep:
    def test_c4_json(self, capsys, tmp_path):
        _, text, _ = run(capsys, "gen", "cycle", "4")
        path = tmp_path / "c4.g"
        path.write_text(text)
        code, out, _ = run(capsys, "sweep", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["examined"] == 16
        assert payload["zero"] == 0
        assert payload["witness"]["index"] == 0
        assert sum(payload["histogram"].values()) == 16

    def test_repeat_identical(self, capsys, tmp_path):
        _, text, _ = run(capsys, "gen", "complete", "3")
        path = tmp_path / "k3.g"
        path.write_text(text)
        _, first, _ = run(capsys, "sweep", str(path), "--json")
        _, again, _ = run(capsys, "sweep", str(path), "--json")
        assert first == again

    def test_text_mode_has_witness(self, capsys, tmp_path):
        path = tmp_path / "k2.g"
        path.write_text("2\n1 -- 2\n")
        code, out, _ = run(capsys, "sweep", str(path))
        assert code == 0
        assert "witness: orientation 0" in out
        assert "1 -> 2" in out

    def test_limit(self, capsys, tmp_path):
        path = tmp_path / "k3.g"
        path.write_text("3\n1 -- 2\n1 -- 3\n2 -- 3\n")
        code, out, _ = run(capsys, "sweep", str(path), "--limit", "2", "--json")
        assert json.loads(out)["examined"] == 2
        code, out, err = run(capsys, "sweep", str(path), "--limit", "-5", "--json")
        assert code == 2 and out == "" and "limit" in err

    @pytest.mark.parametrize("limit", ["0_2", "\u0662", "+2"])
    def test_limit_is_an_ascii_integer(self, capsys, tmp_path, limit):
        # int() reads "0_2" and "\u0662" (Arabic-Indic two) as 2
        path = tmp_path / "k3.g"
        path.write_text("3\n1 -- 2\n1 -- 3\n2 -- 3\n")
        with pytest.raises(SystemExit) as info:
            main(["sweep", str(path), "--limit", limit, "--json"])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "--limit" in captured.err

    def test_env_bound(self, capsys, c4_file, monkeypatch):
        monkeypatch.setenv("WD_LAB_BOUND", "3")
        code, _, err = run(capsys, "sweep", c4_file)
        assert code == 2 and "WD_LAB_BOUND" in err
        # the CLI names its own knob, not the library's bound argument
        assert err == (
            "wd-lab: error: graph has 4 edges, above the orientation bound 3 (raise WD_LAB_BOUND)\n"
        )
        monkeypatch.setenv("WD_LAB_BOUND", "30")
        code, out, _ = run(capsys, "sweep", c4_file, "--json")
        assert code == 0

    def test_bad_env_bound(self, capsys, c4_file, monkeypatch):
        monkeypatch.setenv("WD_LAB_BOUND", "many")
        code, _, err = run(capsys, "sweep", c4_file)
        assert code == 2 and "WD_LAB_BOUND" in err

    @pytest.mark.parametrize("raw", ["2_4", "-1", "+30", "\u0663\u0660", ""])
    def test_env_bound_is_a_non_negative_ascii_integer(self, capsys, c4_file, monkeypatch, raw):
        # int() reads "2_4" as 24 and the Arabic-Indic digits as 30; -1 used
        # to reach the sweep and fail as an exceeded bound
        monkeypatch.setenv("WD_LAB_BOUND", raw)
        code, out, err = run(capsys, "sweep", c4_file)
        assert code == 2 and out == ""
        assert f"WD_LAB_BOUND must be a non-negative integer, got {raw!r}" in err
        monkeypatch.setenv("WD_LAB_BOUND", " 24 ")
        assert run(capsys, "sweep", c4_file)[0] == 0


class TestGen:
    @pytest.mark.parametrize(
        "argv,n,m,kind",
        [
            (("gen", "sun", "3"), 12, 18, Orientation),
            (("gen", "sun", "2"), 8, 12, Orientation),
            (("gen", "cycle", "4"), 4, 4, Graph),
            (("gen", "complete", "4"), 4, 6, Graph),
            (("gen", "complete-bipartite", "2", "3"), 5, 6, Graph),
        ],
    )
    def test_families_round_trip(self, capsys, argv, n, m, kind):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        obj = parse(out)
        assert isinstance(obj, kind)
        assert obj.n == n
        assert len(obj.arcs if isinstance(obj, Orientation) else obj.edges) == m
        assert to_text(obj) == out

    def test_bad_parameters(self, capsys):
        for argv, message in (
            (("sun", "1"), "sun parameter must be at least 2, got 1"),
            (("cycle", "2"), "cycle length must be at least 3, got 2"),
            (("cycle", "4", "5"), "cycle takes 1 parameter(s), got 2"),
            (("complete-bipartite", "2"), "complete-bipartite takes 2 parameter(s), got 1"),
        ):
            assert run(capsys, "gen", *argv) == (2, "", f"wd-lab: error: {message}\n")

    def test_help_lists_every_family(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--help"])
        out = capsys.readouterr().out
        assert info.value.code == 0
        for family in ("sun", "cycle", "complete", "complete-bipartite"):
            assert family in out

    @pytest.mark.parametrize("param", ["\u0665", "0_5", "+5"])
    def test_parameters_are_ascii_integers(self, capsys, param):
        # int() reads "\u0665" (Arabic-Indic five) and "0_5" as 5
        with pytest.raises(SystemExit) as info:
            main(["gen", "cycle", param])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "params" in captured.err


class TestErrors:
    @pytest.mark.parametrize(
        "command", ["build-wd", "count", "coefficient", "color", "check-hypothesis", "sweep"]
    )
    def test_file_commands_take_json(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert info.value.code == 0
        assert "--json" in out and "file" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "count", "/nonexistent/file.dg")
        assert code == 2 and "cannot read" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.dg"
        path.write_text("2\n1 -> 2\n2 -> 1\n")
        code, _, err = run(capsys, "count", str(path))
        assert code == 2 and "both directions" in err

    @pytest.mark.parametrize("header", ["1_0", "\u0663", "+4"])
    def test_header_is_an_ascii_integer(self, capsys, tmp_path, header):
        path = tmp_path / "bad.dg"
        path.write_text(f"{header}\n1 -> 2\n", encoding="utf-8")
        code, out, err = run(capsys, "count", str(path))
        assert code == 2 and out == "" and "expected vertex count" in err

    def test_negative_header_message(self, capsys, tmp_path):
        path = tmp_path / "bad.dg"
        path.write_text("-3\n")
        code, _, err = run(capsys, "count", str(path))
        assert code == 2 and "vertex count must be non-negative" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_recursion_exhausted_exits_2(self, capsys, d1_file, monkeypatch):
        def exhausted(D):
            raise RecursionError

        monkeypatch.setattr("wdlab.cli.count_ee_eo_wd", exhausted)
        code, out, err = run(capsys, "count", d1_file)
        assert code == 2 and out == ""
        assert err.startswith("wd-lab: error:") and "recursion" in err

    def test_memory_exhausted_exits_2(self, capsys, d1_file, monkeypatch):
        def exhausted(D):
            raise MemoryError

        monkeypatch.setattr("wdlab.cli.count_ee_eo_wd", exhausted)
        code, out, err = run(capsys, "count", d1_file)
        assert code == 2 and out == ""
        assert err.startswith("wd-lab: error:") and "memory" in err

    @pytest.mark.parametrize(
        "command, text, threads",
        [("count", D2_TEXT, "4"), ("sweep", "3\n1 -- 2\n1 -- 3\n2 -- 3\n", "2")],
        ids=["count", "sweep"],
    )
    def test_threads_flag_is_a_usage_error(self, capsys, tmp_path, command, text, threads):
        path = tmp_path / "input"
        path.write_text(text)
        with pytest.raises(SystemExit) as info:
            main([command, str(path), "--threads", threads])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err


HUGE_ARC = "200000000\n1 -> 2\n"
HUGE_EDGE = "200000000\n1 -- 2\n"
#: (file, command, stdout) on a huge header with one edge; stdout None
#: marks a command that still builds a table per vertex
HUGE_HEADER_CASES = [
    (HUGE_ARC, ["count"], "ee=1\neo=0\ndifference=1\n"),
    (HUGE_ARC, ["count", "--classic"], "ee=1\neo=0\ndifference=1\n"),
    (HUGE_ARC, ["build-wd", "--json"], '{"vertices":200000002,"arcs":3,"sectors":1}\n'),
    (HUGE_ARC, ["coefficient"], "1\n"),
    (HUGE_ARC, ["coefficient", "--classic"], "1\n"),
    (HUGE_ARC, ["build-wd"], None),
    (HUGE_ARC, ["coefficient", "--json"], None),
    (HUGE_ARC, ["check-hypothesis"], "true\n"),
    (HUGE_ARC, ["check-hypothesis", "--tripartite"], "true\n"),
    (HUGE_EDGE, ["color", "--lists", '{"1":[1],"2":[2]}'], None),
    (
        HUGE_EDGE,
        ["sweep"],
        "examined 2 orientations\nzero-coefficient orientations: 0\ncoefficient histogram:\n"
        "  1: 2\nwitness: orientation 0\n1 -> 2\n",
    ),
]
#: the fault a command that stops at once on a huge header must name
HUGE_HEADER_ERRORS = {"color": "lists must cover exactly the vertices 1..n"}


@pytest.mark.parametrize(
    "text, argv, answer",
    HUGE_HEADER_CASES,
    ids=[" ".join(argv[:2]) for _, argv, _ in HUGE_HEADER_CASES],
)
def test_huge_header_with_one_edge(tmp_path, text, argv, answer):
    # an isolated vertex owns no table entry, so a command whose answer is
    # not per vertex answers inside a 512 MiB address space; the others
    # still build a table per vertex and must stop with exit 2, never 1
    done = run_in_512_mib(tmp_path, text, *argv)
    if answer is None:
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr.startswith("wd-lab: error:") and "Traceback" not in done.stderr
        assert HUGE_HEADER_ERRORS.get(argv[0], "") in done.stderr
    else:
        assert (done.returncode, done.stdout) == (0, answer), done.stderr
