import json
from pathlib import Path

import pytest

from conftest import python_stdout

from symclass import (
    decode_graph6,
    encode_graph6,
    families,
    format_generator_file,
    parse_generator_file,
)
from symclass.cli import main
from symclass.families import agl1, direct_product, grid_complement, hamming, octahedron, sym


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_graph6(capsys):
    code, out, _ = run_cli(capsys, "construct", "grid_complement", "4", "--format", "graph6")
    assert code == 0
    assert decode_graph6(out.strip()) == grid_complement(4).graph


def test_construct_edges_and_json(capsys):
    code, out, _ = run_cli(capsys, "construct", "cycle", "5", "--format", "edges")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vertices 5"
    assert len(lines) == 6
    code, out, _ = run_cli(capsys, "construct", "octahedron", "--format", "json")
    payload = json.loads(out)
    assert payload["vertices"] == 6
    assert payload["labels"][3] == "a'"


def test_construct_with_group(capsys):
    code, out, _ = run_cli(capsys, "construct", "octahedron", "--with-group")
    assert code == 0
    lines = out.strip().splitlines()
    group = parse_generator_file("\n".join(lines[1:]))
    assert group.order() == 48


def test_construct_hamming_with_group_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, "construct", "hamming", "3", "2", "--with-group")
    assert code == 0
    assert out == ("Gr`HOk\n"
                   "degree 8\n"
                   "(1 5)(2 6)(3 7)(4 8)\n"
                   "(3 5)(4 6)\n"
                   "(2 5 3)(4 6 7)\n")


def test_construct_with_group_checks_the_group_order(capsys, monkeypatch):
    # a family whose group records a wrong order: building the graph checks
    # nothing, printing the group checks it before anything is printed
    def wrong_octahedron():
        fam = octahedron()
        return families.LabeledFamily(fam.name, fam.graph, fam.labels,
                                      families._checked(families.octahedral(), 47))

    monkeypatch.setitem(families.GRAPH_FAMILIES, "octahedron", (wrong_octahedron, ()))
    code, out, _ = run_cli(capsys, "construct", "octahedron")
    assert code == 0
    code, out, err = run_cli(capsys, "construct", "octahedron", "--with-group")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == {
        "code": "internal-check-failed",
        "message": "group of degree 6 has order 48, expected 47"}


# family parameters past the edge cap: each ended in a MemoryError traceback
# or ran past 20 s before the cap
_OVERSIZED = (("hamming", "3", "200"), ("complete", "100000"),
              ("complete_bipartite", "100000", "100000"), ("cycle", "999999999999999999999"),
              ("hamming", "999999999999", "2"), ("grid", "3000", "3000"))


@pytest.mark.parametrize("params", _OVERSIZED, ids=" ".join)
def test_oversized_family_exits_on_the_edge_cap_before_building(capsys, monkeypatch, params):
    def refuse(*args):
        raise AssertionError("a graph or group was built")

    monkeypatch.setattr(families, "Graph", refuse)
    monkeypatch.setattr(families, "PermutationGroup", refuse)
    code, out, err = run_cli(capsys, "construct", *params)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["code"] == "size-cap-exceeded"
    assert error["message"].endswith(f"has more than {2 ** 20} edges (the family cap)")


def test_oversized_families_exit_the_same_under_python_O():
    script = f"""
import contextlib, io
from symclass.cli import main
for params in {_OVERSIZED!r}:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        print(main(["construct", *params]), err.getvalue().strip())
"""
    plain = python_stdout("-c", script)
    assert plain == python_stdout("-O", "-c", script)
    assert plain.count('1 {"error": {"code": "size-cap-exceeded"') == len(_OVERSIZED)


def test_classify_icosahedron_alt5(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "icosahedron",
                           "--group", "alt5")
    assert code == 0
    report = json.loads(out)
    assert report["matched_row"] == "icosahedron"
    assert report["distance_transitive"]["2"] is True
    assert report["arc_transitive"]["2"] is False


def test_classify_complete_human(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "complete", "--n", "5",
                           "--group", "sym5", "--human")
    assert code == 0
    assert "not (G,2)-distance transitive" in out


def test_classify_matched_row_human(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "icosahedron",
                           "--group", "alt5", "--human")
    assert code == 0
    assert "catalog row: icosahedron" in out
    assert "(G,2)-distance transitive: yes" in out


def test_classify_from_graph6_and_group_file(tmp_path, capsys):
    graph_text = encode_graph6(octahedron().graph)
    group_file = tmp_path / "gens.txt"
    group_file.write_text("degree 6\n(1 4)\n(1 2)(4 5)\n(1 2 3)(4 5 6)\n")
    code, out, _ = run_cli(capsys, "classify", "--graph6", graph_text,
                           "--group-file", str(group_file))
    assert code == 0
    assert json.loads(out)["matched_row"] == "octahedron"


def test_classify_from_edge_file_round_trips_construct(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "octahedron", "--format", "edges")
    assert code == 0
    edge_file = tmp_path / "octahedron.edges"
    edge_file.write_text(out)
    code, out, _ = run_cli(capsys, "classify", "--edge-file", str(edge_file),
                           "--group", "octahedral")
    assert code == 0
    assert json.loads(out)["matched_row"] == "octahedron"


def test_classify_output_is_the_same_under_python_O(tmp_path):
    # -O strips assert statements; the checks inside classify must not depend on them
    group_file = tmp_path / "gens.txt"
    group_file.write_text(format_generator_file(direct_product(sym(2), agl1(5))))
    argv = ["-m", "symclass.cli", "classify", "--family", "grid_complement", "--m", "5",
            "--group-file", str(group_file)]
    outputs = [python_stdout(*flags, *argv) for flags in (["-O"], [])]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["matched_row"] == "grid_complement(5)"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # dataclasses imports inspect, ast, dis and tokenize, about 1 MB of the
    # peak memory of every process that imports the package; -S keeps
    # site-packages hooks from loading them on their own
    code = ("import sys, symclass, symclass.cli; "
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    assert python_stdout("-S", "-c", code).strip() == "[]"


def test_edge_file_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("vertices 4\n0 1\nnot an edge\n")
    code, _, err = run_cli(capsys, "classify", "--edge-file", str(bad),
                           "--group", "sym4")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["code"] == "parse-error"
    assert "line 3" in payload["error"]["message"]


def test_classify_rejects_empty_graph(capsys):
    code, _, err = run_cli(capsys, "classify", "--graph6", "?", "--group", "sym5")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "bad-parameter"
    assert "at least one vertex" in json.loads(err)["error"]["message"]


def test_classify_degree_mismatch(capsys):
    code, _, err = run_cli(capsys, "classify", "--family", "octahedron",
                           "--group", "sym4")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "degree-mismatch"


def test_autgroup_subcommand(capsys):
    code, out, _ = run_cli(capsys, "autgroup", "C~")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 24


def test_autgroup_bad_graph6(capsys):
    code, _, err = run_cli(capsys, "autgroup", "C\x07")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "bad-graph6"


def test_iso_subcommand(capsys):
    a = encode_graph6(grid_complement(4).graph)
    b = encode_graph6(hamming(3, 2).graph)
    code, out, _ = run_cli(capsys, "iso", a, b)
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert sorted(payload["witness"]) == list(range(8))


def test_verify_paper_single_claim(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "L3.4")
    assert code == 0
    payload = json.loads(out)
    assert payload["claims"][0]["claim"] == "L3.4"
    assert payload["claims"][0]["status"] == "verified"
    assert "runtime_ms" in payload["claims"][0]


def test_verify_paper_unknown_claim(capsys):
    code, _, err = run_cli(capsys, "verify-paper", "L9.9")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "unknown-claim"


def test_verify_paper_budget_skip_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "L3.5", "--budget", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["claims"][0]["status"] == "skipped"
    assert "budget" in payload["claims"][0]["reason"]


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SYMCLASS_BUDGET", "10")
    code, out, _ = run_cli(capsys, "verify-paper", "L3.5")
    assert code == 0
    assert json.loads(out)["claims"][0]["status"] == "skipped"


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
def test_bad_budget_env_var_is_a_parameter_error(capsys, monkeypatch, value):
    monkeypatch.setenv("SYMCLASS_BUDGET", value)
    code, out, err = run_cli(capsys, "verify-paper", "L3.5")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["code"] == "bad-parameter"
    assert "SYMCLASS_BUDGET" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("command", ["verify-paper", "report"])
@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_bad_budget_flag_is_a_parameter_error(capsys, command, value):
    code, out, err = run_cli(capsys, command, "--budget", value)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["code"] == "bad-parameter"
    assert "--budget" in json.loads(err)["error"]["message"]


def test_budget_flag_overrides_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SYMCLASS_BUDGET", "abc")
    code, out, _ = run_cli(capsys, "verify-paper", "L3.5", "--budget", "10")
    assert code == 0
    assert json.loads(out)["claims"][0]["status"] == "skipped"


def test_triple_cap_flag_is_gone():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-paper", "L2.2", "--triple-cap", "5"])
    assert excinfo.value.code == 2


def _strip_runtime(payload):
    for entry in payload.get("claims", []):
        entry.pop("runtime_ms", None)
    return payload


def test_verify_paper_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify-paper", "L4.1", "L2.2")
    _, out2, _ = run_cli(capsys, "verify-paper", "L4.1", "L2.2")
    a = json.dumps(_strip_runtime(json.loads(out1)), sort_keys=True)
    b = json.dumps(_strip_runtime(json.loads(out2)), sort_keys=True)
    assert a == b


def test_classify_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "classify", "--family", "octahedron",
                         "--group", "octahedral")
    _, out2, _ = run_cli(capsys, "classify", "--family", "octahedron",
                         "--group", "octahedral")
    assert out1 == out2


def test_usage_error_on_unknown_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["classify", "--bogus"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv, golden", [
    (("verify-paper", "--all"), "verify_paper_all.json"),
    (("report",), "report.json"),
])
def test_claim_report_bodies_match_the_golden_files(capsys, monkeypatch, argv, golden):
    """The report bodies without the runtime_ms sidecar, byte for byte. A
    change that alters claim evidence on purpose regenerates these files with
    ``python -m symclass.cli <command> | grep -v '"runtime_ms"'``."""
    monkeypatch.delenv("SYMCLASS_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    body = "".join(line for line in out.splitlines(keepends=True)
                   if '"runtime_ms"' not in line)
    assert body == (Path(__file__).parent / "golden" / golden).read_text()
