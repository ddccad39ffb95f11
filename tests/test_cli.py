import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import revival_lab
from revival_lab import stellar

from revival_lab.cli import (main, parse_range, parse_time, parse_triple,
                             parse_vertex_set)
from revival_lab.graphs import build_stellar, graph_from_json, graph_to_json


class TestParseTime:
    def test_pi_forms(self):
        assert parse_time("pi") == pytest.approx(math.pi)
        assert parse_time("2pi/5") == pytest.approx(2 * math.pi / 5)
        assert parse_time("pi/sqrt(2)") == pytest.approx(math.pi / math.sqrt(2))
        assert parse_time("3/2*pi") == pytest.approx(1.5 * math.pi)
        assert parse_time("pi/2sqrt(5)") == pytest.approx(
            math.pi / (2 * math.sqrt(5)))

    def test_plain_number(self):
        assert parse_time("1.25") == 1.25

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_time("two pies")
        with pytest.raises(ValueError):
            parse_time("pi/elephant")


@pytest.mark.parametrize("argv", [
    ["analyze", "--stellar", "3,2,6", "--time", "pi/0"],
    ["analyze", "--stellar", "3,2,6", "--time", "pi/sqrt(0)"],
    ["analyze", "--stellar", "3,2,6", "--time", "1/0*pi"],
    ["subset", "--stellar", "3,2,6", "--s", "0", "--t", "1", "--time", "pi/0"]])
def test_time_dividing_by_zero_exit_two(argv, capsys):
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    assert "division by zero" in capsys.readouterr().err


def test_parse_helpers():
    assert parse_vertex_set("0,3,5") == {0, 3, 5}
    assert parse_triple("3,2,6") == (3, 2, 6)
    with pytest.raises(ValueError):
        parse_triple("3,2")


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestAnalyzeCommand:
    def test_stellar_proper(self):
        code, text = run_cli(["analyze", "--stellar", "3,2,6"])
        doc = json.loads(text)
        assert code == 0
        assert doc["certificate"]["verdict"] == "proper-FR"
        assert doc["certificate"]["tau_min"] == pytest.approx(math.pi)
        assert doc["oracle"]["off_block_norm"] < 1e-9

    def test_graph_file_k2(self, tmp_path):
        path = tmp_path / "k2.json"
        path.write_text('{"n": 2, "edges": [[0, 1]]}')
        code, text = run_cli(["analyze", "--graph", str(path)])
        assert code == 0
        assert json.loads(text)["certificate"]["verdict"] == "proper-PST"

    def test_no_fr_exit_one(self):
        code, _ = run_cli(["analyze", "--stellar", "1,2,3"])
        assert code == 1

    def test_disconnected_exit_two(self, tmp_path):
        path = tmp_path / "dis.json"
        path.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
        code, _ = run_cli(["analyze", "--graph", str(path)])
        assert code == 2

    @pytest.mark.parametrize("pair", [("0", "4"), ("4", "0"), ("-1", "0")])
    def test_pair_out_of_range_exit_two(self, tmp_path, capsys, pair):
        path = tmp_path / "p4.json"
        path.write_text('{"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}')
        code, text = run_cli(["analyze", "--graph", str(path),
                              "--pair", *pair])
        assert code == 2 and text == ""
        assert "out of range" in capsys.readouterr().err

    def test_missing_graph_exit_two(self):
        code, _ = run_cli(["analyze"])
        assert code == 2

    def test_extra_time_observation(self):
        code, text = run_cli(["analyze", "--stellar", "3,2,6",
                              "--time", "2pi"])
        doc = json.loads(text)
        assert doc["oracle_at_time"]["off_block_norm"] < 1e-8

    def test_huge_fused_star_at_a_time(self):
        # n is about 10^15: the oracle reads the centers' rows over the
        # quotient's cells, and the exact gamma decides cospectrality
        code, text = run_cli(["analyze", "--stellar", "1,1000000000000000,2",
                              "--pair", "0", "1", "--time", "1"])
        doc = json.loads(text)
        assert code == 1 and doc["certificate"]["cospectral"] is False
        assert doc["oracle_at_time"]["t"] == 1.0


    def test_decomposition_warnings_reach_the_output(self):
        """On X(1, 10^16, 2) the gap from theta3 to 0 lies within a factor
        10 of the grouping threshold. The decomposition records it twice
        (the gaps theta3 - 0 and 0 - (-theta3)), and analyze prints it
        once."""
        code, text = run_cli(["analyze", "--stellar", "1,10000000000000000,2",
                              "--pair", "0", "1"])
        doc = json.loads(text)
        assert code == 1 and list(doc)[-1] == "decomposition_warnings"
        assert doc["decomposition_warnings"] == [
            "eigenvalue gap 1.225e+00 within a factor 10 of the grouping "
            "threshold 1.414e-01"]
        assert doc["certificate"]["warnings"] == []

    def test_no_warnings_key_without_warnings(self):
        code, text = run_cli(["analyze", "--stellar", "3,2,6"])
        assert code == 0 and "decomposition_warnings" not in json.loads(text)

    def test_beyond_float_resolution_exit_two(self, capsys):
        """On X(1, 10^18, 2) the gap theta3 - 0 falls under the grouping
        threshold GROUPING_TOL * theta5: an input error that names both,
        while the exact analysis of the same triple still answers."""
        code, text = run_cli(["analyze", "--stellar", "1,1000000000000000000,2",
                              "--pair", "0", "1"])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err == ("error: X(1, 1000000000000000000, 2) is beyond float "
                       "resolution: eigenvalue gap 1.225e+00 below the "
                       "grouping threshold 1.414e+00\n")
        code, text = run_cli(["stellar", "--stellar", "1,1000000000000000000,2"])
        assert code == 1 and json.loads(text)["verdict"] == "no-FR"


class TestStellarCommand:
    def test_json(self):
        code, text = run_cli(["stellar", "--stellar", "16,36,37"])
        doc = json.loads(text)
        assert code == 0 and doc["verdict"] == "proper-FR"
        assert doc["tau_min"] == pytest.approx(math.pi / 5)

    def test_text_format(self):
        code, text = run_cli(["stellar", "--stellar", "1,4,1",
                              "--format", "text"])
        assert code == 1 and "improper-FR" in text

    def test_csv_format(self):
        code, text = run_cli(["stellar", "--stellar", "3,2,6",
                              "--format", "csv"])
        assert code == 0 and "proper-FR" in text


class TestFamilyCommand:
    def test_alpha_range(self):
        code, text = run_cli(["family", "--p", "5", "--delta", "5",
                              "--alpha", "1..5", "--beta-factor", "2"])
        assert code == 0
        lines = [json.loads(line) for line in text.splitlines()]
        triples = [(d["a"], d["k"], d["c"]) for d in lines]
        assert triples == [(2 * i * i, 6 * i * i, 11 * i * i)
                           for i in range(1, 6)]
        assert all(d["diophantine"] for d in lines)

    def test_polygamy_stream(self):
        code, text = run_cli(["family", "--p", "5", "--polygamy", "1..3"])
        lines = [json.loads(line) for line in text.splitlines()]
        assert (lines[0]["a"], lines[0]["k"], lines[0]["c"]) == (10, 30, 55)
        assert all(d["verdict"] == "proper-FR" for d in lines)

    def test_workers(self):
        code, text = run_cli(["family", "--p", "5", "--delta", "1",
                              "--alpha", "2..4", "--beta", "3..6",
                              "--workers", "4"])
        assert code == 0 and text.count("\n") >= 2
        _, sequential = run_cli(["family", "--p", "5", "--delta", "1",
                                 "--alpha", "2..4", "--beta", "3..6"])
        assert text == sequential

    def test_large_prime_polygamy(self):
        # the eigenvalue squares are near 1e16; their square-free parts
        # need a factoring step below sqrt(n)
        start = time.perf_counter()
        code, text = run_cli(["family", "--p", "100000037", "--polygamy", "1"])
        assert time.perf_counter() - start < 1.0
        doc = json.loads(text)
        assert code == 0 and doc["verdict"] == "proper-FR" and doc["diophantine"]
        assert doc["tau_min"] == pytest.approx(math.pi / 100000037)

    def test_non_prime_rejected(self):
        code, _ = run_cli(["family", "--p", "6", "--polygamy", "1"])
        assert code == 2

    def test_count_limit(self):
        code, text = run_cli(["family", "--p", "5", "--polygamy", "1..3",
                              "--count", "1"])
        assert len(text.splitlines()) == 1

    def test_count_stops_generating(self, monkeypatch):
        """--count 1 makes the one triple it prints and the next, not the
        300,000 of the range; --count 0 still rejects a bad prime."""
        made = []
        real = stellar.generate_polygamy_triple

        def counted(p, r):
            made.append(r)
            return real(p, r)

        monkeypatch.setattr(stellar, "generate_polygamy_triple", counted)
        code, text = run_cli(["family", "--p", "13", "--polygamy",
                              "1..300000", "--count", "1"])
        assert code == 0 and len(text.splitlines()) == 1 and made == [1, 2]
        code, text = run_cli(["family", "--p", "12", "--polygamy", "1..3",
                              "--count", "0"])
        assert code == 2 and text == ""

    def test_negative_count_exit_two(self, capsys):
        code, text = run_cli(["family", "--p", "13", "--polygamy", "1..3",
                              "--count", "-1"])
        assert code == 2 and text == ""
        assert "--count" in capsys.readouterr().err

    @pytest.mark.parametrize("ranges", [
        ["--polygamy", "5..1"],
        ["--delta", "5", "--alpha", "5..1", "--beta-factor", "2"],
        ["--delta", "1", "--alpha", "2..4", "--beta", "6..3"]])
    def test_reversed_range_exit_two(self, capsys, ranges):
        code, text = run_cli(["family", "--p", "5", *ranges])
        assert code == 2 and text == ""
        assert "ends before it starts" in capsys.readouterr().err
        # a one-element range is still fine
        assert parse_range("3..3") == range(3, 4)


class TestProductCommand:
    def test_polygamy_witness(self):
        code, text = run_cli(["product", "--stellar", "27,18,54",
                              "--ell", "1"])
        doc = json.loads(text)
        assert code == 0 and doc["is_polygamous"]
        assert doc["twin_time"] == pytest.approx(2 * math.pi / 3)

    def test_bad_ell(self):
        code, _ = run_cli(["product", "--stellar", "3,2,6", "--ell", "1"])
        assert code == 2


class TestSubsetCommand:
    def test_ladder_transfer(self, tmp_path):
        from referees import build_path, cartesian_product
        Z = cartesian_product(build_path(2), build_path(3))
        path = tmp_path / "ladder.json"
        path.write_text(graph_to_json(Z))
        code, text = run_cli(["subset", "--graph", str(path),
                              "--s", "0,3", "--t", "2,5",
                              "--time", "pi/sqrt(2)"])
        doc = json.loads(text)
        assert code == 0 and doc["is_transfer"]
        assert doc["residual"] < 1e-9

    def test_no_transfer_exit_one(self, tmp_path):
        from referees import build_path
        path = tmp_path / "p3.json"
        path.write_text(graph_to_json(build_path(3)))
        code, _ = run_cli(["subset", "--graph", str(path),
                           "--s", "0", "--t", "2", "--time", "1.0"])
        assert code == 1

    def test_decomposition_warnings_reach_the_output(self, monkeypatch):
        """Each distinct warning once, in order, after the report's keys;
        none on X(3, 2, 6) itself."""
        from revival_lab import spectral
        real = spectral.stellar_decompose
        argv = ["subset", "--stellar", "3,2,6", "--s", "0", "--t", "1",
                "--time", "pi"]
        assert "decomposition_warnings" not in json.loads(run_cli(argv)[1])
        monkeypatch.setattr(spectral, "stellar_decompose", lambda *abc: replace(
            real(*abc), warnings=("gap x", "gap y", "gap x")))
        doc = json.loads(run_cli(argv)[1])
        assert list(doc)[-1] == "decomposition_warnings"
        assert doc["decomposition_warnings"] == ["gap x", "gap y"]

    @pytest.mark.parametrize("s", ["-1", "99"])
    @pytest.mark.parametrize("source", ["--graph", "--stellar"])
    def test_vertex_out_of_range_exit_two(self, tmp_path, capsys, source, s):
        """A vertex outside the graph is refused where its rows are read,
        on a graph file (P3) and on a fused star alike."""
        from referees import build_path
        path = tmp_path / "p3.json"
        path.write_text(graph_to_json(build_path(3)))
        given = str(path) if source == "--graph" else "3,2,6"
        code, text = run_cli(["subset", source, given, "--s", s, "--t", "0",
                              "--time", "1"])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert "out of range" in err and "Traceback" not in err

    def test_empty_file_exit_two(self, tmp_path):
        path = tmp_path / "empty"
        path.write_text("")
        code, _ = run_cli(["subset", "--graph", str(path),
                           "--s", "0", "--t", "1", "--time", "pi"])
        assert code == 2


class TestExportCommand:
    def test_graph_json_round_trip(self):
        code, text = run_cli(["export", "--stellar", "3,2,6",
                              "--format", "json"])
        Y = graph_from_json(text)
        X = build_stellar(3, 2, 6)
        assert Y.n == X.n and Y.edges == X.edges

    def test_support_dot_with_colors(self):
        code, text = run_cli(["export", "--stellar", "3,2,6",
                              "--state", "0,1", "--format", "dot"])
        assert code == 0
        assert "lightblue" in text and "lightsalmon" in text
        # two loops per colored component plus edges
        assert text.count("--") >= 6

    def test_plain_dot(self):
        code, text = run_cli(["export", "--stellar", "1,1,1",
                              "--format", "dot"])
        assert code == 0 and text.startswith("graph")

    @pytest.mark.parametrize("state", ["0,1", "0,2", "0,1,2"])
    def test_support_dot_of_a_disconnected_graph(self, tmp_path, state):
        """A pair's classes come from its certificate, which needs a
        connected graph: on a disconnected one every state's support graph
        prints uncoloured, a pair's as a triple's."""
        path = tmp_path / "dis.json"
        path.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
        code, text = run_cli(["export", "--graph", str(path),
                              "--state", state, "--format", "dot"])
        assert code == 0 and text.startswith("graph support {")
        assert "fillcolor" not in text

    @pytest.mark.parametrize("content", ["?", '{"n": 0, "edges": []}'])
    def test_graph_without_vertices_exit_two(self, tmp_path, capsys, content):
        path = tmp_path / "empty-graph"
        path.write_text(content)
        code, text = run_cli(["export", "--graph", str(path)])
        assert code == 2 and text == ""
        assert "at least one vertex" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["A_~~", "A`", "~?", "~??"])
    def test_malformed_graph6_exit_two(self, tmp_path, capsys, content):
        path = tmp_path / "bad.g6"
        path.write_text(content)
        code, text = run_cli(["export", "--graph", str(path)])
        assert code == 2 and text == ""
        assert "error: graph6" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "stellar"])
def test_dot_format_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--stellar", "3,2,6", "--format", "dot"])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_export_rejects_formats_it_cannot_write(fmt, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["export", "--stellar", "1,1,1", "--format", fmt])
    assert exc.value.code == 2
    assert f"invalid choice: '{fmt}'" in capsys.readouterr().err


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match and revival_lab.__version__ == match.group(1)


def _ladder_subset(tmp_path, *extra):
    from referees import build_path, cartesian_product
    path = tmp_path / "ladder.json"
    path.write_text(graph_to_json(cartesian_product(build_path(2), build_path(3))))
    # 2.2214415 is pi/sqrt(2) to 8 digits: the residual is about 3e-8
    return run_cli(["subset", "--graph", str(path), "--s", "0,3",
                    "--t", "2,5", "--time", "2.2214415", *extra])


def test_bad_tolerance_exit_two(tmp_path, monkeypatch):
    code, _ = _ladder_subset(tmp_path, "--tol", "-1")
    assert code == 2
    monkeypatch.setenv("REVIVAL_LAB_TOL", "abc")
    with pytest.raises(SystemExit) as exc:
        _ladder_subset(tmp_path)
    assert exc.value.code == 2
    assert run_cli(["stellar", "--stellar", "3,2,6"])[0] == 0


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("source", ["option", "env"])
def test_non_finite_tolerance_exit_two(tmp_path, monkeypatch, capsys, value,
                                       source):
    """Under tol = nan no residual would read as a transfer, and under
    tol = inf every one would: both are input errors, as tol <= 0 is."""
    if source == "env":
        monkeypatch.setenv("REVIVAL_LAB_TOL", value)
        code, text = _ladder_subset(tmp_path)
    else:
        code, text = _ladder_subset(tmp_path, "--tol", value)
    assert code == 2 and text == ""
    assert "tolerance must be positive and finite" in capsys.readouterr().err


def test_env_tolerance(tmp_path, monkeypatch):
    assert _ladder_subset(tmp_path)[0] == 1
    monkeypatch.setenv("REVIVAL_LAB_TOL", "1e-5")
    code, text = _ladder_subset(tmp_path)
    assert code == 0 and json.loads(text)["is_transfer"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--stellar", "3,2,6"], ["stellar", "--stellar", "3,2,6"],
    ["product", "--stellar", "27,18,54", "--ell", "1"],
    ["export", "--stellar", "3,2,6"]])
def test_tolerance_is_a_subset_option(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_parser_is_built_once(monkeypatch):
    run_cli(["stellar", "--stellar", "3,2,6"])
    built = _count_parsers(monkeypatch)
    assert run_cli(["stellar", "--stellar", "3,2,6"])[0] == 0
    assert run_cli(["analyze", "--stellar", "3,2,6"])[0] == 0
    assert built == []


def test_import_builds_no_parser():
    script = ("import argparse\n"
              "built = []\n"
              "init = argparse.ArgumentParser.__init__\n"
              "def counted(self, *args, **kwargs):\n"
              "    built.append(1)\n"
              "    init(self, *args, **kwargs)\n"
              "argparse.ArgumentParser.__init__ = counted\n"
              "import revival_lab.cli\n"
              "print(len(built))\n")
    src = str(Path(revival_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"


def _capped_cli(argv, cap):
    """A child process running the CLI on argv under an address-space cap
    of ``cap`` bytes, set in the child, where an allocation past it fails
    at once; without one it could succeed lazily and exhaust the machine."""
    import resource

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(revival_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "revival_lab.cli", *argv],
                          env=env, preexec_fn=capped, capture_output=True,
                          text=True, timeout=120)


def test_memory_error_exit_two(tmp_path):
    """The dense decomposition of a graph file on n = 100,005 vertices
    needs an n x n array of 75 GiB: under a 3 GB address-space cap the
    command says so and exits 2, with no traceback."""
    from referees import build_path
    path = tmp_path / "p100005.json"
    path.write_text(graph_to_json(build_path(100005)))
    done = _capped_cli(["analyze", "--graph", str(path), "--pair", "0", "1"],
                       3 * 10**9)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: Unable to allocate")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("triple", ["1,100000,2", "1,1000000000000000,2"])
@pytest.mark.parametrize("argv", [
    ["analyze", "--pair", "0", "2", "--time", "1"],
    ["analyze", "--pair", "7", "9", "--time", "1"],
    ["subset", "--s", "0", "--t", "1", "--time", "1"],
    ["subset", "--s", "0,2", "--t", "1,5", "--time", "1"],
    ["export", "--format", "dot", "--state", "0,1"]],
    ids=["analyze-0-2", "analyze-7-9", "subset-0-1", "subset-02-15",
         "export-state"])
def test_fused_star_commands_within_one_gib(argv, triple):
    """Every command that takes vertices answers a fused star of 10^5 or
    10^15 vertices over its cells, under a 1 GiB address-space cap: exit 0
    or 1, no traceback. A dense fallback would need 74.5 GiB or more."""
    done = _capped_cli([argv[0], "--stellar", triple, *argv[1:]], 2**30)
    assert done.returncode in (0, 1), done.stderr
    assert done.stderr == ""
    if argv[0] == "subset":
        assert json.loads(done.stdout)["complement_cospectral"] is False
    if argv[0] == "export":
        assert 'label="0"' in done.stdout


@pytest.mark.parametrize("argv", [["stellar"], ["stellar", "--graph", "g.json"],
                                  ["product", "--ell", "2"]])
def test_triple_commands_need_a_triple(argv, capsys):
    """stellar and product read only --stellar: without it (with or
    without --graph, which they do not take) argparse stops with exit 2."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("usage:")
