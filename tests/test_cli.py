import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapfam import (
    Check,
    Graph,
    VerifyReport,
    char_poly,
    dimension_search,
    laplacian,
    resolver_graph,
    write_graph6,
)
from lapfam import cli, families
from lapfam.cli import FamilySpec, main, parse_family_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestFamilySpecParsing:
    def test_base_family(self):
        assert parse_family_spec("g:4,3") == FamilySpec("g", 4, 3)

    def test_extended_with_construction(self):
        spec = parse_family_spec("GPLUS:2,5:Indexed")
        assert spec == FamilySpec("gplus", 2, 5, "indexed")

    @pytest.mark.parametrize(
        "bad",
        [
            "g",
            "g:1",
            "g:1,2,3",
            "g:one,2",
            "h:1,2",
            "g:0,2",
            "g:2,-1",
            "g:2,2:indexed",  # constructions are for gplus only
            "gplus:3,2:iterative",  # and only for d = 2
            "gplus:2,2:fast",
            "g:0_1,2",  # numbers are ASCII decimals, not all that int() takes
            "g:\u0662,2",
            "gplus:2,++2",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_family_spec(bad)

    def test_sign_and_spaces(self):
        assert parse_family_spec("g:+2, 3") == FamilySpec("g", 2, 3)


class TestGen:
    def test_graph6_single_vertex(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "g:1,1")
        assert code == 0
        assert out == "@\n"

    def test_edgelist_line_count(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "gplus:2,3", "--format", "edgelist")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,v"
        assert len(lines) == 13  # 12 edges

    def test_json_order(self, capsys):
        payload = run_json(capsys, "gen", "g:4,3", "--format", "json")
        assert payload["n"] == 20
        assert payload["labels"][0] == "111"
        assert len(payload["edges"]) > 0

    def test_dot_iterative_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "gplus:2,2:iterative", "--format", "dot"
        )
        assert code == 0
        assert '[label="w2"]' in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "graph.g6"
        code, out, _ = run_cli(capsys, "gen", "gplus:2,2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "D}_\n"

    def test_seed_accepted_and_ignored(self, capsys):
        code, out, _ = run_cli(capsys, "--seed", "7", "gen", "g:1,1")
        assert code == 0
        assert out == "@\n"


class TestSpectrum:
    def test_family_member(self, capsys):
        payload = run_json(capsys, "spectrum", "gplus:2,3")
        assert payload["n"] == 7
        assert payload["edges"] == 12
        assert payload["integral"] is True
        assert payload["distinct"] is True
        assert payload["realizes_S"] == 4
        assert payload["residual_degree"] == 0
        values = [(int(e["value"]), e["multiplicity"]) for e in payload["eigenvalues"]]
        assert values == [(7, 1), (6, 1), (5, 1), (3, 1), (2, 1), (1, 1), (0, 1)]
        assert payload["charpoly"] == ["0", "1260", "-2952", "2545", "-1056", "226", "-24", "1"]

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_coefficients_past_the_digit_limit(self, capsys):
        # 640 is the lowest limit CPython accepts; gplus:2,160 has longer
        # coefficients.  The limit is restored before the output is parsed.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "spectrum", "gplus:2,160")
            limit = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(old)
        assert (code, err, limit) == (0, "", 640)
        got = json.loads(out)["charpoly"]
        assert max(len(text.lstrip("-")) for text in got) > 640
        want = [1]  # the product of x - lam over 0..321 but 161
        for lam in range(322):
            if lam != 161:
                want = [a - lam * b for a, b in zip([0] + want, want + [0])]
        assert [int(text) for text in got] == want

    def test_construction_variants_agree(self, capsys):
        direct = run_json(capsys, "spectrum", "gplus:2,4")
        indexed = run_json(capsys, "spectrum", "gplus:2,4:indexed")
        iterative = run_json(capsys, "spectrum", "gplus:2,4:iterative")
        assert direct == indexed == iterative

    def test_non_integral_report(self, capsys):
        # gplus:3,1 is the 4-vertex path
        payload = run_json(capsys, "spectrum", "gplus:3,1")
        assert payload["integral"] is False
        assert payload["distinct"] is False
        assert payload["residual_degree"] == 2
        assert payload["realizes_S"] is None
        values = [int(e["value"]) for e in payload["eigenvalues"]]
        assert values == [2, 0]

    def test_repeated_eigenvalues(self, capsys, tmp_path):
        graph_file = tmp_path / "triangle.g6"
        graph_file.write_text("Bw\n")
        payload = run_json(capsys, "spectrum", str(graph_file))
        assert payload["integral"] is True
        assert payload["distinct"] is False
        assert payload["realizes_S"] is None

    def test_single_vertex_file(self, capsys, tmp_path):
        graph_file = tmp_path / "one.g6"
        graph_file.write_text("@\n")
        payload = run_json(capsys, "spectrum", str(graph_file))
        assert payload["eigenvalues"] == [{"value": "0", "multiplicity": 1}]
        assert payload["realizes_S"] == 1

    def test_edgelist_file(self, capsys, tmp_path):
        graph_file = tmp_path / "path.csv"
        graph_file.write_text("u,v\n1,2\n2,3\n")
        payload = run_json(capsys, "spectrum", str(graph_file))
        assert payload["n"] == 3
        assert payload["realizes_S"] == 2

    @pytest.mark.parametrize(
        "name, text",
        [("path.csv", "u,v\n1,2\n2,3\n"), ("bare.csv", "1,2\n2,3\n"), ("path.g6", "Bg\n")],
    )
    def test_file_with_a_byte_order_mark(self, capsys, tmp_path, name, text):
        # spreadsheet "CSV UTF-8" exports and Notepad start files with a BOM
        graph_file = tmp_path / name
        graph_file.write_bytes(b"\xef\xbb\xbf" + text.encode())
        payload = run_json(capsys, "spectrum", str(graph_file))
        assert (payload["n"], payload["edges"], payload["realizes_S"]) == (3, 2, 2)

    def test_wide_alphabet_keys_present(self, capsys):
        payload = run_json(capsys, "spectrum", "gplus:3,3")
        assert payload["n"] == 13
        assert set(payload) == {
            "n",
            "edges",
            "charpoly",
            "eigenvalues",
            "integral",
            "distinct",
            "realizes_S",
            "residual_degree",
            "moduli",
        }
        assert payload["moduli"] == char_poly(laplacian(resolver_graph(3, 3))).moduli


class TestDimension:
    def test_family_member(self, capsys):
        payload = run_json(capsys, "dimension", "gplus:2,2")
        assert payload["kind"] == "outer"
        assert payload["dimension"] == 2
        assert payload["witness"] == [2, 3]
        assert payload["witness_labels"] == ["12", "22"]
        assert payload["exhausted"] is False
        assert payload["elapsed"] >= 0
        found = dimension_search(resolver_graph(2, 2))
        assert payload["subsets_tested"] == found.subsets_tested
        assert payload["pruned"] == found.pruned

    def test_exhausted_run(self, capsys, tmp_path):
        graph_file = tmp_path / "edge.g6"
        graph_file.write_text("A_")
        payload = run_json(
            capsys, "dimension", str(graph_file), "--kind", "multiset", "--max-size", "0"
        )
        assert payload["dimension"] is None
        assert payload["witness"] is None
        assert payload["exhausted"] is True
        assert payload["max_size"] == 0
        # two vertices cannot both have the empty multiset: the counting
        # bound drops the only subset within the cap untested
        assert (payload["subsets_tested"], payload["pruned"]) == (0, 1)

    def test_negative_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "dimension", "gplus:2,2", "--max-size", "-1")
        assert code == 2
        assert out == ""
        assert err == "lapfam: error: max_size must be non-negative: -1\n"

    def test_vector_kind(self, capsys):
        # g:2,3 is complete on 4 vertices, so any 3 vertices are needed
        payload = run_json(capsys, "dimension", "g:2,3", "--kind", "vector")
        assert payload["kind"] == "vector"
        assert payload["dimension"] == 3
        assert payload["witness"] == [1, 2, 3]

    def test_size_guard_exit(self, capsys):
        code, _, err = run_cli(capsys, "dimension", "g:2,25")
        assert code == 2
        assert "allow" in err.lower() or "24" in err

    def test_allow_large(self, capsys, tmp_path):
        graph_file = tmp_path / "path25.csv"
        graph_file.write_text("u,v\n" + "".join(f"{i},{i + 1}\n" for i in range(1, 25)))
        payload = run_json(capsys, "dimension", str(graph_file), "--allow-large")
        assert payload["n"] == 25
        assert payload["dimension"] == 1

    @pytest.mark.parametrize(
        "spec, order", [("g:12,12", 1352078), ("gplus:3,6", 34), ("gplus:2,12:indexed", 25)]
    )
    def test_oversized_spec_refused_before_build(self, capsys, monkeypatch, spec, order):
        def never(*args):
            raise AssertionError("a family builder ran")

        for module in (cli, families):
            for name in (
                "combination_graph",
                "resolver_graph",
                "resolver_graph_indexed",
                "resolver_graph_iterative",
            ):
                monkeypatch.setattr(module, name, never)
        code, out, err = run_cli(capsys, "dimension", spec)
        assert (code, out) == (2, "")
        assert err == (
            f"lapfam: error: subset search over {order} > 24 vertices; "
            "pass allow_large=True to force\n"
        )
        # a negative cap is still reported first, as for a built graph
        code, _, err = run_cli(capsys, "dimension", spec, "--max-size", "-1")
        assert code == 2
        assert err == "lapfam: error: max_size must be non-negative: -1\n"

    @pytest.mark.parametrize(
        "name, text, order",
        [
            ("far.csv", "u,v\n1,2\n1,1000000\n", 10**6),
            ("far.g6", "~~??BsH?\n", 10**6),  # a header alone, no body
            ("path25.g6", "X" + "?" * 50 + "\n", 25),
        ],
    )
    def test_oversized_file_refused_before_build(
        self, capsys, monkeypatch, tmp_path, name, text, order
    ):
        def never(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(Graph, "__init__", never)
        monkeypatch.setattr(Graph, "_from_masks", classmethod(never))
        graph_file = tmp_path / name
        graph_file.write_text(text)
        code, out, err = run_cli(capsys, "dimension", str(graph_file))
        assert (code, out) == (2, "")
        assert err == (
            f"lapfam: error: subset search over {order} > 24 vertices; "
            "pass allow_large=True to force\n"
        )

    def test_refusal_matches_the_search_policy(self, capsys, tmp_path):
        # a file input is refused as the spec of the same order is
        graph_file = tmp_path / "g.g6"
        graph_file.write_text(write_graph6(resolver_graph(2, 12)) + "\n")
        from_file = run_cli(capsys, "dimension", str(graph_file))
        assert from_file == run_cli(capsys, "dimension", "gplus:2,12")
        assert from_file[0] == 2


class TestVerify:
    def test_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--cmax", "1", "--dmax", "1")
        assert code == 0
        assert "all checks passed" in out

    def test_json(self, capsys):
        payload = run_json(capsys, "verify", "--cmax", "1", "--dmax", "1", "--json")
        assert payload["ok"] is True
        assert payload["cmax"] == 1
        names = [c["name"] for c in payload["checks"]]
        assert "eigenpairs" in names

    def test_failure_exit_code(self, capsys, monkeypatch):
        broken = VerifyReport((Check("probe", "fail", "boom", 0.0),))
        monkeypatch.setattr(cli, "run_verify", lambda cmax, dmax: broken)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAILURES PRESENT" in out


class TestDispatch:
    def test_main_calls_the_current_handler_binding(self, capsys, monkeypatch):
        real = cli.cmd_spectrum
        seen = []

        def recording(args):
            seen.append(args.input)
            return real(args)

        monkeypatch.setattr(cli, "cmd_spectrum", recording)
        payload = run_json(capsys, "spectrum", "g:1,1")
        assert seen == ["g:1,1"]
        assert payload["n"] == 1


class TestErrorPaths:
    def test_bad_spec(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "nosuch:1,2")
        assert code == 2
        assert out == ""
        assert "error" in err.lower()

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "/nonexistent/graph.g6")
        assert code == 2
        assert "no file" in err

    def test_directory_is_not_a_regular_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "spectrum", str(tmp_path))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"lapfam: error: [^\n]*\n", err)
        assert err.endswith(f"; and {str(tmp_path)!r} is not a regular file\n")

    def test_two_graph_graph6_file(self, capsys, tmp_path):
        graph_file = tmp_path / "two.g6"
        graph_file.write_text("A_\nBw\n")
        code, out, err = run_cli(capsys, "spectrum", str(graph_file))
        assert (code, out) == (2, "")
        assert err == "lapfam: error: graph6 input holds 2 graphs; lapfam reads one per file\n"

    def test_bad_construction_combo(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "gplus:3,2:indexed")
        assert code == 2

    def test_corrupt_file(self, capsys, tmp_path):
        graph_file = tmp_path / "bad.g6"
        graph_file.write_text("A__invalid__")
        code, _, err = run_cli(capsys, "spectrum", str(graph_file))
        assert code == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("2,x", "bad edge list line: '2,x'"),
            ("3,3", "self-loop in edge list line: '3,3'"),
        ],
    )
    def test_bad_edge_list_line(self, capsys, tmp_path, line, message):
        graph_file = tmp_path / "bad.csv"
        graph_file.write_text(f"u,v\n1,2\n{line}\n")
        code, out, err = run_cli(capsys, "spectrum", str(graph_file))
        assert (code, out) == (2, "")
        assert err == f"lapfam: error: {message}\n"

    def test_space_separated_edge_list(self, capsys, tmp_path):
        graph_file = tmp_path / "path.txt"
        graph_file.write_text("1 2\n2 3\n")
        code, out, err = run_cli(capsys, "spectrum", str(graph_file))
        assert (code, out) == (2, "")
        assert err == "lapfam: error: bad edge list line: '1 2'\n"

    def test_out_of_memory_is_exit_2(self, capsys, monkeypatch, tmp_path):
        # The loader raises as an oversized file would, without allocating.
        def exhausted(text, admit=None):
            raise MemoryError

        monkeypatch.setattr(cli, "read_graph_auto", exhausted)
        graph_file = tmp_path / "big.csv"
        graph_file.write_text("u,v\n1,300000000\n")
        code, out, err = run_cli(capsys, "spectrum", str(graph_file))
        assert code == 2
        assert out == ""
        assert err == "lapfam: error: out of memory\n"

    def test_unknown_flag_is_usage_error(self, capsys):
        code = main(["gen", "g:1,1", "--format", "png"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["g:0_1,2", "g:\u0662,2"])
    def test_non_ascii_decimal_spec(self, capsys, spec):
        code, out, err = run_cli(capsys, "gen", spec)
        assert (code, out) == (2, "")
        assert err == f"lapfam: error: bad family spec {spec!r}: d and c must be integers\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen"], "the following arguments are required: spec"),
            ([], "the following arguments are required: command"),
            (["gen", "g:1,1", "--bogus"], "unrecognized arguments: --bogus"),
            # the list of choices is worded differently across Python versions
            (
                ["dimension", "g:2,2", "--kind", "metric"],
                "argument --kind: invalid choice: 'metric'",
            ),
            (["verify", "--cmax", "x"], "argument --cmax: invalid int value: 'x'"),
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert re.fullmatch(r"lapfam: error: [^\n]*\n", captured.err)
        assert captured.err.startswith(f"lapfam: error: {message}")

    # flag integers follow the spec rule (formats._decimal), not int()
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["verify", "--cmax", "\u0662"], "--cmax", "\u0662"),
            (["dimension", "g:2,2", "--max-size", "1_0"], "--max-size", "1_0"),
            (["--seed", "1_0", "gen", "g:1,1"], "--seed", "1_0"),
        ],
    )
    def test_flag_integer_is_ascii_decimal(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"lapfam: error: argument {flag}: invalid int value: {value!r}\n"

    def test_newline_in_argument_is_escaped(self, capsys):
        code, out, err = run_cli(capsys, "gen", "g:1,1", "a\nb")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err == "lapfam: error: unrecognized arguments: a\\nb\n"

    @pytest.mark.parametrize("text", [" 2 ", "+2"])
    def test_flag_integer_keeps_space_and_sign(self, capsys, text):
        assert run_json(capsys, "verify", "--cmax", text, "--dmax", "1", "--json")["cmax"] == 2
        assert run_json(capsys, "dimension", "g:2,2", "--max-size", text)["max_size"] == 2

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--help"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.err) == (0, "")
        assert captured.out.startswith("usage: lapfam gen [-h]")


# Fuzzed graph files.  Every limit lives in a strategy, so no example builds
# or allocates much: csv fields and graph6 size bytes stop at 20, and 32
# random bytes hold no valid graph6 body for more than 19 vertices.
_csv_fields = st.integers(-3, 20).map(str) | st.sampled_from(
    ["", " ", "x", "u", "v", "1.5", "--1", "0x3", "#"]
)
# a line is a pair of numbers, or up to three fields of any kind
_csv_lines = st.lists(st.integers(-3, 20).map(str), min_size=2, max_size=2).map(
    ",".join
) | st.lists(_csv_fields, max_size=3).map(",".join)
_csv_texts = st.lists(_csv_lines, max_size=6).map("\n".join)


@st.composite
def _graph6_texts(draw):
    n = draw(st.integers(0, 20))
    # the right body length, or up to two characters short or long
    size = max(0, (n * (n - 1) // 2 + 5) // 6 + draw(st.integers(-2, 2)))
    graph6_chars = st.characters(min_codepoint=63, max_codepoint=126)
    body = draw(st.text(graph6_chars, min_size=size, max_size=size))
    header = draw(st.sampled_from(["", ">>graph6<<", ">>graph6<", "<<graph6>>", "graph6"]))
    return header + chr(n + 63) + body


_no_digit_bytes = st.binary(max_size=32).map(lambda raw: raw.translate(None, b"0123456789"))


class TestFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        raw=_csv_texts.map(str.encode) | _graph6_texts().map(str.encode) | _no_digit_bytes,
        bom=st.sampled_from([b"", b"\xef\xbb\xbf"]),
    )
    def test_exit_code_and_one_line(self, tmp_path_factory, raw, bom):
        graph_file = tmp_path_factory.getbasetemp() / "fuzz-input"
        graph_file.write_bytes(bom + raw)
        for argv in (["spectrum"], ["dimension", "--max-size", "2"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, str(graph_file)])
            if code == 0:
                assert err.getvalue() == ""
            else:
                assert code == 2
                assert re.fullmatch(r"lapfam: error: [^\n]*\n", err.getvalue())


# Fuzzed specs and flags.  Every number token parses to at most 4 under int()
# too, ``dimension`` always has a --max-size and ``verify`` a --cmax and a
# --dmax from the same tokens, and --allow-large is never drawn, so no
# example can run long.
_number_tokens = st.sampled_from(["-1", "0", "1", "2", "3", "4", "x", "", "0_1", "\u0662", "+2"])
_count_tokens = st.sampled_from(["-1", "0", "1", "2", "x", "0_1", "\u0662", "+2"])


@st.composite
def _spec_texts(draw):
    family = draw(st.sampled_from(["g", "gplus", "GPLUS", "h"]))
    spec = f"{family}:{draw(_number_tokens)},{draw(_number_tokens)}"
    construction = draw(st.sampled_from([None, "direct", "Indexed", "fast", ""]))
    return spec if construction is None else f"{spec}:{construction}"


@st.composite
def _cli_argvs(draw):
    command = draw(st.sampled_from(["gen", "spectrum", "dimension", "verify"]))
    argv = [command]
    if command != "verify" and draw(st.integers(0, 9)):  # sometimes missing
        argv.append(draw(_spec_texts()))
    if command == "gen" and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["graph6", "dot", "edgelist", "json", "png"]))]
    if command == "dimension":
        argv += ["--max-size", draw(_count_tokens)]
        if draw(st.booleans()):
            argv += ["--kind", draw(st.sampled_from(["outer", "multiset", "vector", "metric"]))]
    if command == "verify":
        argv += ["--cmax", draw(_count_tokens), "--dmax", draw(_count_tokens)]
        if draw(st.booleans()):
            argv.append("--json")
    if not draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(["--bogus", "a\nb", "\n", "--x\r\ny"])))
    return argv


class TestSpecFlagFuzz:
    @settings(max_examples=200, deadline=None)
    @given(argv=_cli_argvs())
    def test_exit_code_and_one_line(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert re.fullmatch(r"lapfam: error: [^\n]*\n", err.getvalue())
        else:
            assert err.getvalue() == ""


class TestEntryPoints:
    def test_module_invocation(self):
        # the child imports lapfam from the same source tree as this process
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "lapfam", "gen", "gplus:2,2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert proc.stdout == "D}_\n"

    @pytest.mark.skipif(shutil.which("lapfam") is None, reason="script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["lapfam", "gen", "g:1,1"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout == "@\n"
