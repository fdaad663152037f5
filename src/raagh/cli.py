"""Command-line interface.

Subcommands:

- compute      analyse a graph file: Betti numbers, m2, h bounds, exact value
- generate     emit a catalog family graph in any of the text formats
- form         print the symbolic cup-form template, or its value at --alpha
- export       convert between graph formats / DOT
- verify-paper rerun the pinned acceptance corpus and print a pass/fail table

Exit codes: 0 success, 1 failed verification, 2 bad input (unreadable or
malformed), 3 exhaustive scan refused in --strict mode.  Output is byte
deterministic unless --timings is given.

`compute --json` text comes from render_json_report, which fills literal
templates, laid out as json.dumps(doc, indent=2) lays out the schema-1
document, straight from the HReport; decomposition pieces that share a
report are written from one template per (report, vertex count).

Each `raagh compute` is a process of its own, so its start-up is kept
small.  argv takes one of two paths.  A plain compute argv (one input,
whole option names, plain values) is read from compute's option table
without argparse; everything else (other commands, help, errors, argv the
reader declines) is parsed by one argparse tree of every command, which
is imported and built on first use.  The report's digest takes CPython's
own sha256 instead of loading OpenSSL through hashlib, and json is
imported only by the graph formats that read or write it.  A fresh
interpreter's import and first sparse report (`setup_s` in perfbench)
take about 4.6 ms, against 8.9 ms when argparse parsed every argv
(medians, 2-core Xeon VM, Python 3.11.7).

argparse's error messages echo at most 40 characters of an argument, as
graphs._clip clips an input.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from itertools import chain
from types import SimpleNamespace

from . import graphs
from .form import AlphaVector, build_cup_form, dump_matrix, dump_template, substitute
from .graphs import (FORMATS, FamilyCertificate, Graph, ParseError, _clip,
                     _decimal, generate_family, parse_graph, serialize_graph, to_dot)
from .hbounds import DecompositionReport, ExactValue, HReport, compute_h
from .solver import DEFAULT_CONFIG, CapExceeded, SolverConfig

try:  # CPython's own sha256, which hashlib falls back to: no OpenSSL to load
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

SCHEMA_VERSION = 1


# --------------------------------------------------------------------------
# report documents
# --------------------------------------------------------------------------

def _graph_digest(g: Graph) -> str:
    payload = ("%d;" + ",".join(("%d-%d",) * len(g.edges))) % (
        g.n, *chain.from_iterable(g.edges))
    return sha256(payload.encode()).hexdigest()


def _quote(text: str) -> str:
    """A JSON string of text, which is a hex digest, a 0/1 bitstring or a
    lowercase name, so needs no escapes."""
    return '"%s"' % text


_CONSTANTS = {True: "true", False: "false", None: "null"}

# Each template lays its section out as json.dumps(doc, indent=2) does.
_REPORT = """{
  "schema_version": %d,
  "input": {
    "vertices": %d,
    "edges": %d,
    "sha256": %s
  },
  "invariants": {
    "betti": %s,
    "b1": %d,
    "b2": %d,
    "b4": %d
  },
  "m2": {
    "value": %d,
    "witness": %s,
    "radical_dim": %d,
    "exhaustive": %s,
    "mode": %s
  },
  "bounds": {
    "lower_trivial": %d,
    "lower_cohomological": %d,
    "upper": %d
  },
  "exact": %s,
  "decomposition": %s,
  "solver": {
    "cap": %d,
    "workers": %d,
    "mode": %s
  }%s
}"""
_TIMINGS = """,
  "timings": {
    "total_seconds": %s
  }"""
_DECOMPOSITION = """{
    "free_edges": %s,
    "pieces": %s,
    "aggregate_exact": %s
  }"""
_PIECE = """{
        "vertices": %s,
        "b2": %d,
        "b4": %d,
        "m2": %d,
        "exhaustive": %s,
        "exact": %s
      }"""


def _items(texts: list[str], indent: str) -> str:
    """A list of the texts of its items at the level whose newline and
    spaces are indent; a text may be a %d slot."""
    if not texts:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(texts) + indent + "]"


_FREE_EDGE = _items(["%d", "%d"], "\n      ")


def _exact_text(exact: ExactValue | None, indent: str) -> str:
    if exact is None:
        return "null"
    inner = indent + "  "
    return '{%s"value": %d,%s"provenance": %s,%s"theorem_grade": %s%s}' % (
        inner, exact.value, inner, _quote(exact.provenance), inner,
        _CONSTANTS[exact.theorem_grade], indent)


def _decomposition_text(decomp: DecompositionReport | None) -> str:
    """The pieces that share a report, every lone vertex and unlabeled K4
    among them, are written from one template per (report, vertex count):
    the first such piece builds it, and each is then one % of its
    vertices."""
    if decomp is None:
        return "null"
    templates: dict = {}
    pieces = []
    for piece in decomp.pieces:
        rep, vertices = piece.report, piece.vertices
        key = (id(rep), len(vertices))
        template = templates.get(key)
        if template is None:
            # the piece's fields are written in; only its vertices stay slots
            exact = _exact_text(rep.exact, "\n        ").replace("%", "%%")
            template = templates[key] = _PIECE % (
                _items(["%d"] * len(vertices), "\n        "), rep.b2, rep.b4,
                rep.m2.m2, _CONSTANTS[rep.m2.exhaustive], exact)
        pieces.append(template % vertices)
    return _DECOMPOSITION % (
        _items([_FREE_EDGE] * decomp.r, "\n    ")
        % tuple(chain.from_iterable(decomp.free_edges)),
        _items(pieces, "\n    "),
        _exact_text(decomp.aggregate_exact, "\n    "))


def render_json_report(g: Graph, report: HReport, config: SolverConfig,
                       requested_mode: str, elapsed: float | None = None) -> str:
    """The --json report (see report.schema.json): the text of
    json.dumps(doc, indent=2) for the schema-1 document of report, written
    from templates.  elapsed, when given, adds timings.total_seconds."""
    numbers = report.betti_numbers
    m2 = report.m2
    timings = "" if elapsed is None else _TIMINGS % repr(round(elapsed, 3))
    return _REPORT % (
        SCHEMA_VERSION, g.n, len(g.edges), _quote(_graph_digest(g)),
        _items(["%d"] * len(numbers), "\n    ") % numbers,
        numbers[1] if len(numbers) > 1 else 0, report.b2, report.b4,
        m2.m2, _quote(m2.witness.to_bitstring()), m2.radical_dim,
        _CONSTANTS[m2.exhaustive], _quote(report.m2_mode),
        report.lower_trivial, report.lower_cohomological, report.upper,
        _exact_text(report.exact, "\n  "),
        _decomposition_text(report.decomposition),
        config.cap, config.workers, _quote(requested_mode), timings)


def render_text_report(report: HReport) -> str:
    g = report.graph
    lines = [f"graph: {g.n} vertices, {len(g.edges)} edges"]
    lines.append("betti: " + " ".join(str(b) for b in report.betti_numbers))
    cert = "certified" if report.m2.exhaustive else "not certified"
    lines.append(f"m2: {report.m2.m2} ({report.m2_mode}, {cert}; "
                 f"witness alpha={report.m2.witness.to_bitstring() or '-'}; "
                 f"radical dim {report.m2.radical_dim})")
    lines.append(f"bounds: {report.lower_trivial} <= h <= {report.upper}"
                 f" (cohomological lower bound {report.lower_cohomological})")
    if report.exact is not None:
        grade = "theorem" if report.exact.theorem_grade else "conjectural"
        lines.append(f"exact: h = {report.exact.value} "
                     f"[{report.exact.provenance}, {grade}]")
    else:
        lines.append("exact: unknown")
    decomp = report.decomposition
    if decomp is not None:
        lines.append(f"decomposition: {decomp.r} free edges, "
                     f"{len(decomp.pieces)} pieces")
        for piece in decomp.pieces:
            rep = piece.report
            exact = (f"h={rep.exact.value} [{rep.exact.provenance}]"
                     if rep.exact else "h unknown")
            verts = ",".join(str(v) for v in piece.vertices)
            lines.append(f"  piece {{{verts}}}: b2={rep.b2} "
                         f"m2={rep.m2.m2} {exact}")
        if decomp.aggregate_exact is not None:
            lines.append(f"  aggregate: h = {decomp.aggregate_exact.value}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# shared plumbing
# --------------------------------------------------------------------------

def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (UnicodeDecodeError, OSError):
        raise ParseError(f"cannot read {path}") from None


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError:
        raise ParseError(f"cannot write {out}") from None


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"environment variable {name} must be an integer, "
                         f"got {_clip(raw)!r}") from None


def _solver_config(args) -> SolverConfig:
    cap = args.cap if args.cap is not None else _env_int("RAAGH_CAP")
    if cap is not None and cap < 0:
        raise ParseError(f"cap must be non-negative, got {cap}")
    workers = (args.workers if args.workers is not None
               else _env_int("RAAGH_WORKERS"))
    if workers is not None and workers < 1:
        raise ParseError(f"workers must be at least 1, got {workers}")
    return SolverConfig(
        cap=cap if cap is not None else DEFAULT_CONFIG.cap,
        workers=workers if workers is not None else DEFAULT_CONFIG.workers,
    )


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_compute(args) -> int:
    g = parse_graph(_read_input(args.input), args.format)
    config = _solver_config(args)
    requested = "heuristic" if args.heuristic else "exhaustive"
    start = time.perf_counter()
    report = compute_h(g, config, heuristic=args.heuristic, strict=args.strict)
    elapsed = time.perf_counter() - start
    if args.json:
        text = render_json_report(g, report, config, requested,
                                  elapsed if args.timings else None) + "\n"
    else:
        text = render_text_report(report)
        if args.timings:
            text += f"time: {elapsed:.3f}s\n"
    _write_output(text, args.out)
    return 0


def _parse_cells(raw: str):
    # every cell holds one comma, and a grid has more corners than cells
    limit = graphs.MAX_VERTICES
    if raw.count(",") > limit:
        raise ParseError(f"grid: more than {limit} cells is over the limit "
                         f"of {limit} vertices")
    cells = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad grid cell {_clip(chunk)!r}, expected x,y")
        try:
            cells.append(tuple(_decimal(p.strip()) for p in parts))
        except ValueError:
            raise ParseError(f"bad grid cell {_clip(chunk)!r}, expected integers") from None
    if not cells:
        raise ParseError("grid needs at least one cell")
    return cells


def cmd_generate(args) -> int:
    family = args.family
    try:
        if family == "edgeless":
            cert = FamilyCertificate.edgeless(args.n)
        elif family == "complete":
            cert = FamilyCertificate.complete(args.n)
        elif family == "clique-string":
            cert = FamilyCertificate.clique_string(args.size, args.count)
        elif family == "face-string":
            cert = FamilyCertificate.face_string(args.count)
        elif family == "grid":
            cert = FamilyCertificate.grid(_parse_cells(args.cells))
        else:
            cert = FamilyCertificate.hex_triangle(args.side)
        g = generate_family(cert)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    _write_output(serialize_graph(g, args.format), args.out)
    return 0


def cmd_form(args) -> int:
    g = parse_graph(_read_input(args.input), args.format)
    template = build_cup_form(g)
    if args.alpha is None:
        text = dump_template(template)
    else:
        try:
            alpha = AlphaVector.from_bitstring(args.alpha)
            matrix = substitute(template, alpha)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        text = dump_matrix(matrix)
    _write_output(text, args.out)
    return 0


def cmd_export(args) -> int:
    g = parse_graph(_read_input(args.input), args.format)
    target = "dot" if args.dot else args.to
    text = to_dot(g) if target == "dot" else serialize_graph(g, target)
    _write_output(text, args.out)
    return 0


def cmd_verify_paper(args) -> int:
    # imported here: no other command needs the acceptance corpus
    from .verification import ACCEPTANCE_CHECKS, run_acceptance

    wanted = set(args.only) if args.only else None
    if wanted:
        known = {check_id for check_id, _, _ in ACCEPTANCE_CHECKS}
        unknown = wanted - known
        if unknown:
            raise ParseError("unknown check ids: " + ", ".join(sorted(unknown)))
    results = run_acceptance(wanted)
    width = max(len(r.check_id) for r in results)
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark}  {r.check_id.ljust(width)}  {r.description}")
        lines.append(f"      {' ' * width}  {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0 if passed == len(results) else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

# compute's options in help order, read by its parser and by
# _read_plain_compute: (option, kind, default, help), where kind is bool for
# a flag, int or str for a value, or the tuple of its choices.  Each dest is
# the option without its dashes, as argparse names it.
_FORMAT_OPTION = ("--format", FORMATS, "edges", "input format (default: edges)")
_OUT_OPTION = ("--out", str, None, "write output to this file instead of stdout")
_COMPUTE_OPTIONS = (
    _FORMAT_OPTION,
    _OUT_OPTION,
    ("--json", bool, False, "emit a JSON report"),
    ("--cap", int, None,
     "largest b4 the exhaustive scan accepts (env RAAGH_CAP, default 28)"),
    ("--workers", int, None,
     "echoed in the report; the scan always runs in this process "
     "(env RAAGH_WORKERS, default 1)"),
    ("--heuristic", bool, False,
     "trial functionals only; certifies just at the parity ceiling"),
    ("--strict", bool, False,
     "fail (exit 3) instead of falling back to the heuristic when b4 "
     "exceeds the cap"),
    ("--timings", bool, False,
     "include wall-clock timing; breaks byte determinism"),
)


def _add_option(p, option, kind, default, help):
    if kind is bool:
        p.add_argument(option, action="store_true", help=help)
    elif isinstance(kind, tuple):
        p.add_argument(option, choices=kind, default=default, help=help)
    else:
        p.add_argument(option, type=kind, default=default, help=help)


def _add_input(p, *options):
    p.add_argument("input", help="graph file, or - for stdin")
    for option in options:
        _add_option(p, *option)


def _compute_arguments(p):
    _add_input(p, *_COMPUTE_OPTIONS)


def _generate_arguments(p):
    p.add_argument("family", choices=("edgeless", "complete", "clique-string",
                                      "face-string", "grid", "hex-triangle"))
    p.add_argument("--n", type=int, default=0, help="vertices (edgeless/complete)")
    p.add_argument("--size", type=int, default=4,
                   help="clique size 4..7 (clique-string)")
    p.add_argument("--count", type=int, default=1,
                   help="number of cliques (clique-string/face-string)")
    p.add_argument("--cells", default="0,0",
                   help="grid cells as x,y;x,y;... (grid)")
    p.add_argument("--side", type=int, default=1, help="side length (hex-triangle)")
    p.add_argument("--format", choices=FORMATS, default="edges",
                   help="output format (default: edges)")
    _add_option(p, *_OUT_OPTION)


def _form_arguments(p):
    _add_input(p, _FORMAT_OPTION, _OUT_OPTION)
    p.add_argument("--alpha", default=None,
                   help="0/1 string, position q = coefficient of 4-clique q; "
                        "prints the substituted GF(2) matrix")


def _export_arguments(p):
    _add_input(p, _FORMAT_OPTION, _OUT_OPTION)
    p.add_argument("--to", choices=FORMATS + ("dot",), default="edges",
                   help="output format (default: edges)")
    p.add_argument("--dot", action="store_true", help="shorthand for --to dot")


def _verify_paper_arguments(p):
    p.add_argument("--only", action="append", metavar="CHECK",
                   help="run a single named check (repeatable)")
    _add_option(p, *_OUT_OPTION)


# command: (help in the command list, adds the command's arguments)
_COMMANDS = {
    "compute": ("analyse a graph", _compute_arguments),
    "generate": ("emit a catalog family graph", _generate_arguments),
    "form": ("print the cup-form template or a value", _form_arguments),
    "export": ("convert a graph to another format", _export_arguments),
    "verify-paper": ("rerun the pinned acceptance corpus", _verify_paper_arguments),
}


def _clip_echoes(message: str) -> str:
    """An argparse error message with each argument it echoes clipped as
    _clip clips: the list of unrecognized arguments, the option of an
    ambiguous option, and each value quoted as repr quotes it (an invalid
    int or choice, an ignored explicit argument), counting an escape as one
    character."""
    import re

    head = "unrecognized arguments: "
    if message.startswith(head):
        return head + _clip(message[len(head):])
    head = "ambiguous option: "
    if message.startswith(head):
        # the options it could match are ours, so the last " could match "
        # ends the option echoed
        option, sep, matches = message[len(head):].rpartition(" could match ")
        return head + _clip(option) + sep + matches

    def clip(quoted):
        text = quoted.group()
        chars = re.findall(r"\\(?:x..|u....|U........|.)|.", text[1:-1], re.S)
        if len(chars) <= 40:
            return text
        return text[0] + "".join(chars[:40]) + "..." + text[0]

    return re.sub(r"'(?:[^'\\]|\\.)*'" r'|"(?:[^"\\]|\\.)*"', clip, message,
                  flags=re.S)


@functools.cache
def build_parser():
    """The parser of every command, built on first use and kept for the
    process; argparse is imported here, so that a plain compute never
    loads it.  Its errors' echoes are clipped by _clip_echoes."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            super().error(_clip_echoes(message))

    parser = Parser(prog="raagh",
                    description="h bounds and cup-form invariants for graph groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary))
    return parser


# option: (dest, kind) and dest: default, from _COMPUTE_OPTIONS
_COMPUTE_KINDS = {option: (option[2:], kind) for option, kind, _, _ in _COMPUTE_OPTIONS}
_COMPUTE_DEFAULTS = {option[2:]: default for option, _, default, _ in _COMPUTE_OPTIONS}


def _read_plain_compute(argv: list[str]) -> SimpleNamespace | None:
    """compute's arguments (argv after the command) as its parser reads
    them, without argparse, or None unless they are plain: one input,
    whole option names, and each option's value ASCII digits for an int,
    one of its choices, or any string not starting with '-' ('-' itself
    is one).  Anything else (a prefix, --opt=value, --, -h, "+1", a second
    input) is left to the parser, which may read or word it otherwise."""
    values = {"command": "compute", "input": None, **_COMPUTE_DEFAULTS}
    tokens = iter(argv)
    for token in tokens:
        option = _COMPUTE_KINDS.get(token)
        if option is None:
            if token[:1] == "-" and token != "-" or values["input"] is not None:
                return None
            values["input"] = token
            continue
        dest, kind = option
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-" and value != "-":
            return None
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # over the interpreter's digit limit
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    if values["input"] is None:
        return None
    return SimpleNamespace(**values)


def _parse_args(argv: list[str]):
    """argv read by _read_plain_compute where it can, else parsed by the
    full tree, which words every help text and error."""
    if argv and argv[0] == "compute":
        args = _read_plain_compute(argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # looked up per call, so a patched cmd_* attribute takes effect
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
