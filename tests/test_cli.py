import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from importlib import resources
from importlib.util import find_spec
from itertools import chain, combinations

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import raagh.cli
import raagh.graphs
from raagh import (FamilyCertificate, betti, build_cup_form, compute_h,
                   dump_matrix, dump_template, generate_family, make_graph,
                   parse_graph, serialize_graph, substitute)
from raagh.cli import main
from raagh.form import AlphaVector
from raagh.solver import DEFAULT_CONFIG, SolverConfig

from oracles import random_gnp, report_document_oracle, sparse_blocks_edges


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def join_file(tmp_path):
    g = make_graph(5, [(u, v) for u, v in combinations(range(5), 2)
                       if (u, v) != (0, 4)])
    path = tmp_path / "join.edges"
    path.write_text(serialize_graph(g, "edges"))
    return str(path)


# --------------------------------------------------------------------------
# generate
# --------------------------------------------------------------------------

def test_generate_clique_string(capsys):
    code, out, _ = run(capsys, "generate", "clique-string",
                       "--size", "5", "--count", "2")
    assert code == 0
    g = parse_graph(out, "edges")
    assert (g.n, len(g.edges)) == (8, 19)
    assert g.certificate == FamilyCertificate.clique_string(5, 2)


def test_generate_face_string_and_grid(capsys):
    code, out, _ = run(capsys, "generate", "face-string", "--count", "3")
    assert code == 0 and parse_graph(out, "edges").n == 6
    code, out, _ = run(capsys, "generate", "grid", "--cells", "0,0;1,0")
    assert code == 0
    g = parse_graph(out, "edges")
    assert (g.n, len(g.edges)) == (6, 11)


@pytest.mark.parametrize("cells", ["1_0,0", "+3,0", "0,\u0663"])
def test_grid_cells_must_be_decimal_integers(capsys, cells):
    code, out, err = run(capsys, "generate", "grid", "--cells", cells)
    assert code == 2 and out == "" and "expected integers" in err


def test_grid_cells_may_be_negative_and_spaced(capsys):
    code, out, _ = run(capsys, "generate", "grid", "--cells", "-1, -2; -1,-1")
    assert code == 0
    assert parse_graph(out, "edges").certificate == FamilyCertificate.grid(
        [(-1, -2), (-1, -1)])


def test_generate_parameter_defaults_and_errors(capsys):
    # --count defaults to 1, so this is just K5
    code, out, _ = run(capsys, "generate", "clique-string", "--size", "5")
    assert code == 0 and parse_graph(out, "edges").n == 5
    code, _, err = run(capsys, "generate", "clique-string", "--size", "9")
    assert code == 2 and "size" in err.lower()
    code, _, err = run(capsys, "generate", "face-string", "--count", "0")
    assert code == 2
    code, _, err = run(capsys, "generate", "grid", "--cells", "0,0;1,1")
    assert code == 2 and "connected" in err
    code, _, err = run(capsys, "generate", "grid", "--cells", "0;1")
    assert code == 2


# --------------------------------------------------------------------------
# compute
# --------------------------------------------------------------------------

def test_compute_text_report(capsys, join_file):
    code, out, _ = run(capsys, "compute", join_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph: 5 vertices, 9 edges"
    assert lines[1] == "betti: 1 5 9 7 2"
    assert lines[2].startswith("m2: 6 (exhaustive, certified; witness alpha=10")
    assert "bounds: 9 <= h <= 18 (cohomological lower bound 12)" in lines
    assert any(l.startswith("exact: h = 12 [conjectural-minimal") for l in lines)


def test_compute_json_report_validates_against_shipped_schema(capsys, join_file):
    code, out, _ = run(capsys, "compute", join_file, "--json")
    assert code == 0
    doc = json.loads(out)
    schema = json.loads(resources.files("raagh")
                        .joinpath("report.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["invariants"]["b2"] == 9
    assert doc["m2"] == {"value": 6, "witness": "10", "radical_dim": 3,
                         "exhaustive": True, "mode": "exhaustive"}
    assert doc["bounds"] == {"lower_trivial": 9, "lower_cohomological": 12,
                             "upper": 18}
    assert doc["exact"] == {"value": 12, "provenance": "conjectural-minimal",
                            "theorem_grade": False}
    assert "timings" not in doc


def test_compute_reports_decomposition(capsys, tmp_path):
    edges = list(combinations(range(4), 2)) + [(0, 4)]
    path = tmp_path / "pendant.edges"
    path.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
    code, out, _ = run(capsys, "compute", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    dec = doc["decomposition"]
    assert dec["free_edges"] == [[0, 4]]
    assert [p["m2"] for p in dec["pieces"]] == [6, 0]
    assert dec["aggregate_exact"]["value"] == 8
    assert doc["exact"]["provenance"] == "decomposition-aggregate"


def test_compute_is_byte_deterministic(capsys, join_file):
    _, first, _ = run(capsys, "compute", join_file, "--json")
    _, second, _ = run(capsys, "compute", join_file, "--json")
    assert first == second


def test_compute_timings_flag_adds_only_timings(capsys, join_file):
    code, out, _ = run(capsys, "compute", join_file, "--json", "--timings")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["timings"]) == {"total_seconds"}
    doc.pop("timings")
    _, plain, _ = run(capsys, "compute", join_file, "--json")
    assert doc == json.loads(plain)


def test_compute_out_writes_file(capsys, join_file, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "compute", join_file, "--json",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["invariants"]["b2"] == 9


def test_compute_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n0 2\n1 2\n"))
    code, out, _ = run(capsys, "compute", "-")
    assert code == 0 and "h = 6" in out


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent/graph.edges")
    assert code == 2 and "graph.edges" in err


def test_undecodable_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"0 1\n\xff\n")
    code, _, err = run(capsys, "compute", str(bad))
    assert code == 2 and err == f"error: cannot read {bad}\n"


def test_directory_input_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "compute", str(tmp_path))
    assert code == 2 and err == f"error: cannot read {tmp_path}\n"


def test_unwritable_output_exits_2(capsys, join_file, tmp_path):
    out = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, "compute", join_file, "--json", "--out", str(out))
    assert code == 2 and err == f"error: cannot write {out}\n"


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 0\n")
    code, _, err = run(capsys, "compute", str(bad))
    assert code == 2 and "self-loop" in err


_HUGE_INT = "1" + "0" * 5000  # over Python's digit limit for int()


@pytest.mark.parametrize("fmt, text, message", [
    ("edges", '# certificate: {"family": "complete", "n": "x"}\n0 1\n',
     "not integers"),
    ("json", '{"vertices": 2, "edges": [[0, 1]], '
             '"certificate": {"family": "complete", "n": "x"}}', "not integers"),
    ("edges", '# certificate: {"family": "grid", "cells": [1, 2]}\n0 1\n',
     "not integers"),
    ("json", '{"vertices": 2, "edges": [[0, 1]], '
             '"certificate": {"family": "grid", "cells": [1, 2]}}', "not integers"),
    ("json", '{"vertices": 2.9, "edges": [[0, 1]]}', "'vertices'"),
    ("json", '{"vertices": "2", "edges": [[0, 1]]}', "'vertices'"),
    ("json", '{"vertices": true, "edges": []}', "'vertices'"),
    ("json", '{"vertices": 2, "edges": [[true, false]]}', "integers"),
    ("json", '{"vertices": 2, "edges": [[0, 1.0]]}', "integers"),
    ("json", '{"vertices": ' + _HUGE_INT + '}', "invalid JSON"),
    ("edges", '# certificate: {"family": "complete", "n": ' + _HUGE_INT
              + '}\n0 1\n', "bad certificate"),
    ("edges", '# certificate: {"family": "hex-triangle", "side": 2.9}\n0 1\n',
     "not integers"),
    ("json", '{"vertices": 2, "edges": [[0, 1]], '
             '"certificate": {"family": "complete", "n": true}}', "not integers"),
    ("json", '{"vertices": 2, "edges": [[0, 1]], '
             '"certificate": {"family": "grid", "cells": [[0.5, 1.7]]}}',
     "not integers"),
    ("edges", "1_0 2\n2 3\n", "not an integer"),
    ("edges", "# vertices: 1_1\n0 10\n", "bad vertices directive"),
    ("edges", "# vertices: +3\n0 1\n", "bad vertices directive"),
    ("edges", "# vertices: \u0663\n0 1\n", "bad vertices directive"),
    ("edges", "# vertices: -3\n", "must be non-negative"),
    ("edges", "# vertices: 3\n# vertices: 6\n0 1\n",
     "line 2: repeated vertices directive"),
    ("edges", '# certificate: {"family": "complete", "n": 2}\n'
              '# certificate: {"family": "edgeless", "n": 2}\n0 1\n',
     "line 2: repeated certificate comment"),
], ids=["edges-cert-n", "json-cert-n", "edges-cert-cells", "json-cert-cells",
        "json-float-vertices", "json-string-vertices", "json-bool-vertices",
        "json-bool-endpoints", "json-float-endpoint", "json-huge-int",
        "edges-cert-huge-int", "edges-cert-float-side", "json-cert-bool-n",
        "json-cert-float-cells", "edges-underscore-vertex",
        "edges-underscore-directive", "edges-plus-directive",
        "edges-arabic-indic-directive", "edges-negative-directive",
        "edges-repeated-vertices-directive", "edges-repeated-certificate"])
def test_malformed_input_exits_2(capsys, tmp_path, fmt, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "compute", str(path), "--format", fmt)
    assert code == 2 and out == "" and message in err


_MEGABYTE = 1 << 20


@pytest.mark.parametrize("fmt, text, echoed", [
    ("edges", "1 " * (_MEGABYTE // 2) + "\n", "got '1 1 1 1 "),
    ("edges", "0 " + "x" * _MEGABYTE + "\n", "vertex 'xxxx"),
    ("edges", "0 " + "9" * _MEGABYTE + "\n", "vertex '9999"),
    ("csv", "0," + "2" * _MEGABYTE + "\n0,0\n", "entry '2222"),
    ("json", '{"vertices": 2, "edges": [[0, "' + "x" * _MEGABYTE + '"]]}',
     "integers"),
    ("edges", f"{'7' * 4300} {'7' * 4300}\n", "self-loop at vertex 7777"),
    ("edges", f"0 {'7' * 4300}\n{'7' * 4300} 0\n", "duplicate edge 7777"),
    ("edges", f"0 -{'7' * 4299}\n", "out-of-range index -7777"),
    ("edges", f"# vertices: 3\n0 {'7' * 4300}\n", "out-of-range index 7777"),
    ("json", f'{{"vertices": 2, "edges": [[{"7" * 4300}, {"7" * 4300}]]}}',
     "self-loop at vertex 7777"),
    ("json", f'{{"vertices": 2, "edges": [[{"7" * 4300}, -{"8" * 4300}]]}}',
     "out-of-range index in [7777"),
], ids=["edges-line", "edges-token", "edges-digits", "csv-cell", "json-endpoint",
        "edges-self-loop", "edges-duplicate", "edges-negative", "edges-over-n",
        "json-self-loop", "json-out-of-range"])
def test_error_messages_echo_a_bounded_excerpt(capsys, tmp_path, fmt, text, echoed):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "compute", str(path), "--format", fmt)
    assert code == 2 and out == "" and echoed in err
    assert len(err.encode()) < 1024


_LONG = 100_000


@pytest.mark.parametrize("argv, echoed", [
    (["compute", "g", "--cap", "1" * _LONG], "value: '%s...'\n" % ("1" * 40)),
    (["compute", "g", "--workers", "1" * _LONG], "value: '%s...'\n" % ("1" * 40)),
    (["generate", "complete", "--n", "1" * _LONG], "value: '%s...'\n" % ("1" * 40)),
    (["compute", "g", "--format", "x" * _LONG], "choice: '%s...' (" % ("x" * 40)),
    (["export", "g", "--to", "x" * _LONG], "choice: '%s...' (" % ("x" * 40)),
    (["generate", "y" * _LONG], "choice: '%s...' (" % ("y" * 40)),
    (["compute", "g", "h", "z" * _LONG], "arguments: h %s...\n" % ("z" * 38)),
    (["compute", "g", "--json=" + "1" * _LONG], "argument '%s...'\n" % ("1" * 40)),
    (["generate", "complete", "--c=" + "1" * _LONG],
     "option: --c=%s... could match --count, --cells\n" % ("1" * 36)),
    # values of 40 characters or fewer are echoed whole, escapes and all
    (["compute", "g", "--cap", "x" * 40], "value: '%s'\n" % ("x" * 40)),
    (["compute", "g", "--cap", "\n" * 40], "value: %r\n" % ("\n" * 40)),
    (["compute", "g", "h", "z" * 38], "arguments: h %s\n" % ("z" * 38)),
], ids=["cap", "workers", "generate-n", "format", "to", "family", "unrecognized",
        "explicit", "ambiguous", "cap-40", "cap-escapes-40", "unrecognized-40"])
def test_argument_errors_echo_a_bounded_excerpt(capsys, argv, echoed):
    # main and the full tree clip alike
    for parse in (main, raagh.cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and echoed in err and len(err.encode()) < 1024


def test_huge_alpha_and_cells_are_not_echoed(capsys, join_file):
    code, _, err = run(capsys, "form", join_file, "--alpha", "2" * _MEGABYTE)
    assert code == 2 and "got '2222" in err and len(err.encode()) < 1024
    for cells in ("7" * _MEGABYTE, "0," + "x" * _MEGABYTE):
        code, _, err = run(capsys, "generate", "grid", "--cells", cells)
        assert code == 2 and "bad grid cell" in err and len(err.encode()) < 1024


def test_parser_is_built_once_and_handlers_resolve_per_call(
        capsys, monkeypatch, join_file):
    raagh.cli.build_parser.cache_clear()
    first = run(capsys, "compute", join_file, "--json")
    second = run(capsys, "compute", join_file, "--json")
    assert first[0] == 0 and first == second
    # a plain compute builds no parser
    assert raagh.cli.build_parser.cache_info().misses == 0
    # a handler patched on the module is the one the next call runs
    monkeypatch.setattr(raagh.cli, "cmd_compute", lambda args: 7)
    assert main(["compute", join_file]) == 7
    assert raagh.cli.build_parser.cache_info().misses == 0
    # another command builds the full tree once
    for _ in range(2):
        assert run(capsys, "export", join_file)[0] == 0
    assert raagh.cli.build_parser.cache_info().misses == 1
    assert raagh.cli.build_parser.cache_info().currsize == 1


@pytest.mark.parametrize("flags", [
    # the argv shapes perfbench/run.py sends, OUT the report file
    ("--json", "--out", "OUT", "--cap", "28", "--workers", "1"),
    ("--json", "--out", "OUT", "--cap", "28", "--workers", "1", "--heuristic"),
    ("--json", "--out", "OUT", "--cap", "28", "--workers", "2"),
    # other plain argv
    ("--out", "OUT", "--strict"), ("--out", "OUT", "--timings"),
    ("--format", "csv", "--json", "--out", "OUT"),
], ids=" ".join)
def test_plain_compute_builds_no_parser(capsys, tmp_path, join_file, flags):
    # setup_s in perfbench is one such compute in a fresh interpreter
    path = join_file
    if "csv" in flags:
        path = tmp_path / "join.csv"
        with open(join_file) as fh:
            path.write_text(serialize_graph(parse_graph(fh.read(), "edges"), "csv"))
    report = tmp_path / "report"
    raagh.cli.build_parser.cache_clear()
    argv = [str(report) if flag == "OUT" else flag for flag in flags]
    assert run(capsys, "compute", str(path), *argv) == (0, "", "")
    assert report.read_text()
    assert raagh.cli.build_parser.cache_info().misses == 0


# tokens on which argparse and a plain reading could differ
_COMPUTE_TOKENS = (
    "--format", "--out", "--json", "--cap", "--workers", "--heuristic",
    "--strict", "--timings", "--form", "--o", "--js", "--c", "--w", "--heur",
    "--s", "--t", "--cap=3", "--format=csv", "--json=1", "--out=x", "--",
    "-", "", "-h", "--help", "-x", "-1", "-05", "2_8", "\u0663", "+3", " 3",
    "3 ", "9" * 4300, "9" * 4301, "0", "28", "007", "edges", "csv", "json",
    "xml", "EDGES", "g", "h", "a b", "x=y", "\u00e9")


def _compute_parser_vars(argv):
    """vars() of the namespace the parser reads from compute's argv, or
    None where it stops with an error or help, or leaves arguments over."""
    parser = raagh.cli.build_parser()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args, rest = parser.parse_known_args(["compute", *argv])
    except SystemExit:
        return None
    return None if rest else vars(args)


_COMPUTE_TOKEN = st.one_of(st.sampled_from(_COMPUTE_TOKENS), st.text(max_size=4))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(  # lone tokens, and value options with a token
    st.tuples(_COMPUTE_TOKEN),
    st.tuples(st.sampled_from(("--format", "--out", "--cap", "--workers")),
              _COMPUTE_TOKEN)), max_size=6),
       st.sampled_from(["g", "-", None]), st.integers(0, 12))
@example([("--json",), ("--out", "r.json"), ("--cap", "28"), ("--workers", "1"),
          ("--heuristic",), ("--strict",), ("--timings",), ("--format", "csv")],
         "g", 0)
@example([("--out", "-"), ("--cap", "0028"), ("--cap", "3"), ("--json",), ("--json",)],
         "-", 2)
def test_plain_compute_reader_reads_as_the_parser_or_declines(chunks, input, at):
    argv = list(chain.from_iterable(chunks))
    if input is not None:  # most argv the reader takes have one input
        argv.insert(at % (len(argv) + 1), input)
    got = raagh.cli._read_plain_compute(argv)
    assert got is None or vars(got) == _compute_parser_vars(argv)


@pytest.mark.parametrize("command", ["compute", "generate", "form", "export",
                                     "verify-paper"])
def test_command_help_is_the_help_of_the_full_tree(capsys, command):
    with pytest.raises(SystemExit) as alone:
        main([command, "--help"])
    text = capsys.readouterr().out
    with pytest.raises(SystemExit) as full:
        raagh.cli.build_parser().parse_args([command, "--help"])
    assert alone.value.code == full.value.code == 0
    assert text == capsys.readouterr().out
    assert text.startswith(f"usage: raagh {command} [-h]")


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["compute"], ["compute", "g", "--bogus"], ["compute", "g", "h"],
    ["compute", "g", "--cap", "x"], ["compute", "g", "--format", "xml"],
    ["generate", "nope"], ["export", "g", "--to", "nope"], ["verify-paper", "extra"],
    ["-x", "compute"],
], ids=repr)
def test_bad_arguments_exit_2_with_the_full_tree_error(capsys, argv):
    with pytest.raises(SystemExit) as alone:
        main(argv)
    err = capsys.readouterr().err
    with pytest.raises(SystemExit) as full:
        raagh.cli.build_parser().parse_args(argv)
    assert alone.value.code == full.value.code == 2
    assert err == capsys.readouterr().err and "error:" in err


def test_compute_loads_neither_json_nor_openssl(tmp_path):
    # a fresh interpreter, as `raagh compute` runs, on an edge list with no
    # certificate and a plain argv
    path = tmp_path / "k5.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in combinations(range(5), 2)))
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import raagh.cli\n"
        "code = raagh.cli.main(['compute', sys.argv[1], '--json', '--out', sys.argv[2]])\n"
        "print(code, *(m for m in ('json', '_hashlib', 'argparse', 'gettext', "
        "'locale') if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-I", "-c", script, str(path),
                          str(tmp_path / "report.json")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    code, *loaded = out.stdout.split()
    assert code == "0" and "json" not in loaded
    # the argv is plain, so it is read without argparse
    assert not {"argparse", "gettext", "locale"} & set(loaded)
    if find_spec("_sha2") or find_spec("_sha256"):  # CPython's own sha256
        assert "_hashlib" not in loaded
    assert json.loads((tmp_path / "report.json").read_text())["input"]["edges"] == 10


def test_graph_digest_is_the_sha256_of_the_edge_list():
    rnd = random.Random(20261020)
    for _ in range(60):
        n = rnd.randint(0, 40)
        g = make_graph(n, random_gnp(n, rnd.random(), rnd.randrange(10**6)))
        payload = f"{g.n};" + ",".join(f"{u}-{v}" for u, v in g.edges)
        assert raagh.cli._graph_digest(g) == hashlib.sha256(
            payload.encode()).hexdigest()


def test_quoted_report_strings_need_no_escapes(monkeypatch):
    quoted = []

    def record(text):
        quoted.append(text)
        return json.dumps(text)

    monkeypatch.setattr(raagh.cli, "_quote", record)
    cases = _writer_cases() + [
        (g, compute_h(g, config), "exhaustive")
        for g in (generate_family(FamilyCertificate.complete(5)),
                  generate_family(FamilyCertificate.clique_string(5, 3)),
                  make_graph(0, []))
        for config in (DEFAULT_CONFIG, SolverConfig(cap=0))]
    for g, rep, mode in cases:
        raagh.cli.render_json_report(g, rep, DEFAULT_CONFIG, mode)
    assert {"", "exhaustive", "heuristic", "free-abelian"} <= set(quoted)
    assert all(re.fullmatch("[0-9a-z-]*", text) for text in quoted)
    monkeypatch.undo()
    assert all(raagh.cli._quote(text) == json.dumps(text) for text in quoted)


@pytest.mark.parametrize("fmt, text, message", [
    ("edges", "0 1\n# certificate: " + "[" * 100000 + "\n",
     "error: line 2: bad certificate comment (nested too deeply)\n"),
    ("json", "[" * 100000, "error: invalid JSON (nested too deeply)\n"),
], ids=["edges-certificate", "json"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, fmt, text, message):
    path = tmp_path / "deep.txt"
    path.write_text(text)
    assert run(capsys, "compute", str(path), "--format", fmt) == (2, "", message)


def test_forged_huge_certificate_is_rejected_without_building_it(
        capsys, tmp_path, monkeypatch):
    def refuse(cert):
        raise AssertionError(f"built the model of {cert}")

    monkeypatch.setattr(raagh.graphs, "generate_family", refuse)
    path = tmp_path / "k4.edges"
    for side in (1000, 3000):
        path.write_text('# certificate: {"family": "hex-triangle", "side": %d}\n'
                        % side + "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "compute", str(path), "--json")
        assert code == 0
        assert json.loads(out)["exact"]["provenance"] == "free-abelian"


def test_vertex_count_over_the_limit_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(raagh.graphs, "MAX_VERTICES", 8)
    path = tmp_path / "wide.edges"
    path.write_text("# vertices: 9\n0 1\n")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 2 and out == "" and "limit of 8" in err
    path.write_text("# vertices: 8\n0 1\n")
    assert run(capsys, "compute", str(path))[0] == 0


def test_generate_over_the_vertex_limit_exits_2(capsys):
    for args in (("complete", "--n", "16385"), ("hex-triangle", "--side", "200")):
        code, out, err = run(capsys, "generate", *args)
        assert code == 2 and out == "" and "limit of 16384" in err
    code, out, err = run(capsys, "generate", "complete", "--n", "16384")
    assert code == 2 and out == "" and "limit of 1048576" in err


def test_grid_cells_over_the_vertex_limit_exit_2_before_parsing(
        capsys, monkeypatch):
    monkeypatch.setattr(raagh.graphs, "MAX_VERTICES", 8)
    # three cells in a row have 8 corners, at the limit
    code, out, _ = run(capsys, "generate", "grid", "--cells", "0,0;1,0;2,0")
    assert code == 0 and parse_graph(out, "edges").n == 8
    # nine cells are refused before the bad last cell is reached
    cells = ";".join(f"{x},0" for x in range(8)) + ";x,y"
    code, out, err = run(capsys, "generate", "grid", "--cells", cells)
    assert code == 2 and out == "" and "more than 8 cells" in err


def test_negative_cap_exits_2(capsys, join_file, monkeypatch):
    code, out, err = run(capsys, "compute", join_file, "--cap", "-5", "--strict")
    assert code == 2 and out == "" and "non-negative" in err
    monkeypatch.setenv("RAAGH_CAP", "-1")
    code, out, err = run(capsys, "compute", join_file)
    assert code == 2 and out == "" and "non-negative" in err
    # a cap of 0 is valid: it refuses every 4-clique
    code, _, err = run(capsys, "compute", join_file, "--cap", "0", "--strict")
    assert code == 3 and "2^0" in err


def test_worker_count_below_1_exits_2(capsys, join_file, monkeypatch):
    # report.schema.json requires "workers" >= 1
    for flag in ("-3", "0"):
        code, out, err = run(capsys, "compute", join_file, "--json",
                             "--workers", flag)
        assert code == 2 and out == "" and "at least 1" in err
    monkeypatch.setenv("RAAGH_WORKERS", "0")
    code, out, err = run(capsys, "compute", join_file)
    assert code == 2 and out == "" and "at least 1" in err
    # the explicit flag wins over the environment
    code, out, _ = run(capsys, "compute", join_file, "--json", "--workers", "1")
    assert code == 0 and json.loads(out)["solver"]["workers"] == 1


def test_strict_cap_exits_3(capsys, tmp_path):
    g = generate_family(FamilyCertificate.clique_string(6, 2))
    path = tmp_path / "big.edges"
    path.write_text(serialize_graph(g, "edges"))
    code, _, err = run(capsys, "compute", str(path), "--strict")
    assert code == 3 and "30" in err
    # without --strict the fallback heuristic answers, and here it certifies
    code, out, _ = run(capsys, "compute", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["m2"]["mode"] == "heuristic" and doc["exact"]["value"] == 30


def test_cap_flag_and_env(capsys, join_file, monkeypatch):
    code, _, err = run(capsys, "compute", join_file, "--cap", "1", "--strict")
    assert code == 3
    monkeypatch.setenv("RAAGH_CAP", "1")
    code, _, err = run(capsys, "compute", join_file, "--strict")
    assert code == 3
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "compute", join_file, "--cap", "28")
    assert code == 0
    monkeypatch.setenv("RAAGH_CAP", "not-a-number")
    code, _, err = run(capsys, "compute", join_file)
    assert code == 2 and "RAAGH_CAP" in err


def test_workers_env_gives_same_output(capsys, join_file, monkeypatch):
    _, baseline, _ = run(capsys, "compute", join_file, "--json")
    monkeypatch.setenv("RAAGH_WORKERS", "2")
    _, with_env, _ = run(capsys, "compute", join_file, "--json")
    assert with_env.replace('"workers": 2', '"workers": 1') == baseline


def test_heuristic_flag_switches_mode(capsys, join_file):
    code, out, _ = run(capsys, "compute", join_file, "--json", "--heuristic")
    assert code == 0
    doc = json.loads(out)
    assert doc["solver"]["mode"] == "heuristic"
    assert doc["m2"]["value"] <= 6


# --------------------------------------------------------------------------
# the JSON writer
# --------------------------------------------------------------------------

def _writer_cases():
    """(graph, report, requested mode) for sparse random graphs with
    isolated vertices and free edges, catalog members under --heuristic
    and labeled inputs."""
    cases = []
    rnd = random.Random(20261018)
    while len(cases) < 12:
        n = rnd.randint(10, 30)
        g = make_graph(n, random_gnp(n, rnd.choice((0.2, 0.3)),
                                     rnd.randrange(10**6)))
        if len(betti(g)) > 4 and betti(g)[4] <= 10:
            cases.append((g, compute_h(g), "exhaustive"))
    for cert in (FamilyCertificate.clique_string(5, 2),
                 FamilyCertificate.face_string(3),
                 FamilyCertificate.hex_triangle(2),
                 FamilyCertificate.grid([(0, 0), (1, 0), (1, 1)])):
        g = generate_family(cert)
        cases.append((g, compute_h(g, heuristic=True), "heuristic"))
    for text in ("5 9\n9 12\n12 5\n", "7 3\n3 8\n8 7\n7 1\n1 3\n1 8\n8 40\n"):
        g = parse_graph(text, "edges")
        cases.append((g, compute_h(g), "exhaustive"))
    return cases


def _assert_writer_matches_oracle(g, rep, mode, elapsed, config=DEFAULT_CONFIG):
    text = raagh.cli.render_json_report(g, rep, config, mode, elapsed)
    doc = report_document_oracle(g, rep, config, mode, elapsed)
    assert text == json.dumps(doc, indent=2)
    return doc


def test_json_writer_matches_json_dumps_on_reports():
    docs = [_assert_writer_matches_oracle(g, rep, mode, elapsed)
            for g, rep, mode in _writer_cases() for elapsed in (None, 0.0123456)]
    assert any(p["b2"] == 0 for d in docs if d["decomposition"]
               for p in d["decomposition"]["pieces"])
    assert any("timings" in d for d in docs)


def _edge_case_graphs(rnd):
    """(name, graph) for the writer's edge cases, drawn from rnd."""
    mixed = [e for start in (0, 3) for e in combinations(range(start, start + 4), 2)]
    mixed += [(u + 8, v + 8) for u, v in combinations(range(5), 2)]  # a K5 block
    mixed += [(6, 8), (12, 13)] + [(13 + i, 14 + i) for i in range(rnd.randint(1, 4))]
    order = rnd.sample(range(100, 1000), 30)  # compacted to 0..n-1 with labels
    labeled = "".join(f"{order[u]} {order[v]}\n" for u, v in
                      mixed + [(rnd.randrange(20), 20 + i) for i in range(rnd.randint(1, 5))])
    n = rnd.randint(8, 14)
    triangles = [(u, v) for u, v in combinations(range(n), 2)
                 if v - u in (1, 2) and rnd.random() < 0.9]
    return [("0 vertices", make_graph(0, [])),
            ("1 vertex", make_graph(1, [])),
            ("no 4-cliques", make_graph(n, triangles)),
            ("labeled", parse_graph(labeled, "edges")),
            ("mixed K4 and K5 blocks", make_graph(20, mixed))]


def test_json_writer_edge_cases_match_the_oracle_and_the_schema():
    schema = json.loads(resources.files("raagh").joinpath(
        "report.schema.json").read_text(encoding="utf-8"))
    cases = dict(_edge_case_graphs(random.Random(20261020)))
    assert compute_h(cases["no 4-cliques"]).decomposition is None
    assert cases["labeled"].labels is not None
    sizes = {len(p.vertices) for p in
             compute_h(cases["mixed K4 and K5 blocks"]).decomposition.pieces}
    assert {1, 4, 5} <= sizes
    for g in cases.values():
        for heuristic in (False, True):
            rep = compute_h(g, heuristic=heuristic)
            mode = "heuristic" if heuristic else "exhaustive"
            for elapsed in (None, 0.0, 0.0123456, 1234.5678):
                jsonschema.validate(
                    _assert_writer_matches_oracle(g, rep, mode, elapsed), schema)


def test_compute_json_on_a_large_sparse_graph_matches_the_oracle(capsys, tmp_path):
    path = tmp_path / "sparse.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in sparse_blocks_edges(2000, 7)))
    code, out, _ = run(capsys, "compute", str(path), "--json")
    assert code == 0
    g = parse_graph(path.read_text(), "edges")
    rep = compute_h(g)
    pieces = rep.decomposition.pieces
    assert len(pieces) > 100 and any(len(p.vertices) == 1 for p in pieces)
    doc = report_document_oracle(g, rep, DEFAULT_CONFIG, "exhaustive")
    assert out == json.dumps(doc, indent=2) + "\n"


def test_compute_json_output_is_json_dumps_indent_2(capsys, tmp_path):
    edges = list(combinations(range(4), 2)) + [(3, 4), (4, 5), (7, 8)]
    path = tmp_path / "mixed.edges"
    path.write_text("# vertices: 10\n"
                    + "".join(f"{u} {v}\n" for u, v in edges))
    for extra in ((), ("--heuristic",), ("--timings",)):
        code, out, _ = run(capsys, "compute", str(path), "--json", *extra)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


# --------------------------------------------------------------------------
# form
# --------------------------------------------------------------------------

def test_form_prints_template(capsys, join_file):
    code, out, _ = run(capsys, "form", join_file)
    assert code == 0
    g = parse_graph(open(join_file).read(), "edges")
    assert out == dump_template(build_cup_form(g))


def test_form_alpha_prints_substituted_matrix(capsys, join_file):
    code, out, _ = run(capsys, "form", join_file, "--alpha", "11")
    assert code == 0
    g = parse_graph(open(join_file).read(), "edges")
    t = build_cup_form(g)
    assert out == dump_matrix(substitute(t, AlphaVector.from_bitstring("11")))


def test_form_alpha_length_mismatch_exits_2(capsys, join_file):
    code, _, err = run(capsys, "form", join_file, "--alpha", "101")
    assert code == 2
    assert "alpha has 3 coordinates, template has 2 cliques" in err


def test_form_on_graph_without_4_cliques(capsys, tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text("0 1\n0 2\n1 2\n")
    code, out, _ = run(capsys, "form", str(path))
    assert code == 0
    assert out.splitlines() == ["0 0 0", "0 0 0", "0 0 0"]


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------

def test_export_round_trips_formats(capsys, join_file):
    original = parse_graph(open(join_file).read(), "edges")
    for to in ("edges", "csv", "json"):
        code, out, _ = run(capsys, "export", join_file, "--to", to)
        assert code == 0
        again = parse_graph(out, to)
        assert (again.n, again.edges) == (original.n, original.edges)


def test_export_dot(capsys, join_file):
    code, out, _ = run(capsys, "export", join_file, "--dot")
    assert code == 0 and out.startswith("graph G {") and "0 -- 1;" in out
    code2, out2, _ = run(capsys, "export", join_file, "--to", "dot")
    assert out2 == out


def test_export_csv_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("0,1\n1,0\n"))
    code, out, _ = run(capsys, "export", "-", "--format", "csv", "--to", "edges")
    assert code == 0 and "0 1" in out


# --------------------------------------------------------------------------
# verify-paper
# --------------------------------------------------------------------------

def test_verify_paper_single_checks(capsys):
    code, out, _ = run(capsys, "verify-paper",
                       "--only", "join-graph-bound",
                       "--only", "join-graph-template",
                       "--only", "glued-pair")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("PASS")) == 3
    assert "3/3 checks passed" in out


def test_verify_paper_unknown_check(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "no-such-check")
    assert code == 2 and "no-such-check" in err
