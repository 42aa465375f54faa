import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lapfam import (
    Check,
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
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_family_spec(bad)


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
        assert err.startswith("lapfam: error:") and err.count("\n") == 1
        assert "Traceback" not in err

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

    def test_refusal_matches_the_search_policy(self, capsys, tmp_path):
        # a file input is read, then refused by dimension_search itself
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

    def test_bad_construction_combo(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "gplus:3,2:indexed")
        assert code == 2

    def test_corrupt_file(self, capsys, tmp_path):
        graph_file = tmp_path / "bad.g6"
        graph_file.write_text("A__invalid__")
        code, _, err = run_cli(capsys, "spectrum", str(graph_file))
        assert code == 2

    def test_out_of_memory_is_exit_2(self, capsys, monkeypatch, tmp_path):
        # The loader raises as an oversized file would, without allocating.
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli, "read_graph_auto", exhausted)
        graph_file = tmp_path / "big.csv"
        graph_file.write_text("u,v\n1,300000000\n")
        code, out, err = run_cli(capsys, "spectrum", str(graph_file))
        assert code == 2
        assert out == ""
        assert err == "lapfam: error: out of memory\n"

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "g:1,1", "--format", "png"])
        assert exc.value.code == 2


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
