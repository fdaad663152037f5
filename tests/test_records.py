"""The immutable records: construction, equality, hash, repr, immutability
and cached properties, pinned for all fifteen classes, plus the weight of
``import raagh.cli``."""

import os
import pickle
import subprocess
import sys
from itertools import combinations

import pytest

from raagh import (AlphaVector, CliqueIndex, CupFormTemplate,
                   DecompositionPiece, DecompositionReport, ExactValue,
                   FamilyCertificate, Gf2Matrix, Graph, HReport, M2Result,
                   RadicalBasis, SolverConfig, SymplecticDecomposition,
                   build_cup_form, make_graph)
from raagh.verification import CheckResult

PATH = Graph(3, ((0, 1), (1, 2)))
PATH_REPR = "Graph(n=3, edges=((0, 1), (1, 2)), labels=None, certificate=None)"
ONE = AlphaVector(1, 1)
ONE_REPR = "AlphaVector(value=1, length=1)"
M2 = M2Result(2, ONE, 0, True, 2)
M2_REPR = (f"M2Result(m2=2, witness={ONE_REPR}, radical_dim=0, exhaustive=True, "
           "upper=2)")
REPORT = HReport(PATH, (1, 3, 2), M2, "exhaustive", 2, 2, 4, None)
REPORT_REPR = (f"HReport(graph={PATH_REPR}, betti_numbers=(1, 3, 2), m2={M2_REPR}, "
               "m2_mode='exhaustive', lower_trivial=2, lower_cohomological=2, "
               "upper=4, exact=None, decomposition=None)")
PIECE = DecompositionPiece((0, 1, 2), PATH, REPORT)
PIECE_REPR = (f"DecompositionPiece(vertices=(0, 1, 2), graph={PATH_REPR}, "
              f"report={REPORT_REPR})")
EDGES = CliqueIndex(2, ((0, 1),))
NO_CLIQUES = CliqueIndex(4, ())

# (class, positional arguments, the same with one field changed, repr)
RECORDS = [
    (FamilyCertificate, ("grid", None, None, None, ((0, 0), (1, 0))),
     ("grid", None, None, None, ((0, 0),)),
     "FamilyCertificate(family='grid', n=None, clique_size=None, count=None, "
     "cells=((0, 0), (1, 0)), side=None)"),
    (Graph, (3, ((0, 1), (1, 2))), (3, ((0, 1),)), PATH_REPR),
    (CliqueIndex, (2, ((0, 1), (1, 2))), (3, ((0, 1), (1, 2))),
     "CliqueIndex(k=2, cliques=((0, 1), (1, 2)))"),
    (CupFormTemplate, (Graph(2, ((0, 1),)), EDGES, NO_CLIQUES, {}),
     (Graph(2, ((0, 1),)), EDGES, NO_CLIQUES, {(0, 0): (0, 1)}),
     "CupFormTemplate(graph=Graph(n=2, edges=((0, 1),), labels=None, "
     "certificate=None), edges=CliqueIndex(k=2, cliques=((0, 1),)), "
     "cliques=CliqueIndex(k=4, cliques=()), entries={})"),
    (AlphaVector, (5, 3), (5, 4), "AlphaVector(value=5, length=3)"),
    (Gf2Matrix, (2, 2, (2, 1)), (2, 2, (0, 0)),
     "Gf2Matrix(nrows=2, ncols=2, rows=(2, 1))"),
    (SymplecticDecomposition, (((1, 2),), (4,)), (((1, 2),), ()),
     "SymplecticDecomposition(pairs=((1, 2),), radical=(4,))"),
    (SolverConfig, (), (28, 2), "SolverConfig(cap=28, workers=1)"),
    (M2Result, (2, ONE, 0, True, 2), (2, ONE, 0, True, 4), M2_REPR),
    (RadicalBasis, (ONE, (1,), ("z01",)), (ONE, (1,), ("z02",)),
     f"RadicalBasis(alpha={ONE_REPR}, vectors=(1,), rendered=('z01',))"),
    (ExactValue, (18, "certified-example"), (18, "conjectural-minimal"),
     "ExactValue(value=18, provenance='certified-example')"),
    (HReport, (PATH, (1, 3, 2), M2, "exhaustive", 2, 2, 4, None),
     (PATH, (1, 3, 2), M2, "heuristic", 2, 2, 4, None), REPORT_REPR),
    (DecompositionPiece, ((0, 1, 2), PATH, REPORT), ((0, 1), PATH, REPORT),
     PIECE_REPR),
    (DecompositionReport, (((0, 1),), (PIECE,), None), ((), (PIECE,), None),
     f"DecompositionReport(free_edges=((0, 1),), pieces=({PIECE_REPR},), "
     "aggregate_exact=None)"),
    (CheckResult, ("k6", "K6 table", True, "ok", 0.5),
     ("k6", "K6 table", False, "ok", 0.5),
     "CheckResult(check_id='k6', description='K6 table', passed=True, "
     "detail='ok', seconds=0.5)"),
]
IDS = [row[0].__name__ for row in RECORDS]
UNHASHABLE = {CupFormTemplate}  # its entries are a dict


def test_the_table_covers_every_record_class():
    assert len(set(IDS)) == 15


@pytest.mark.parametrize("cls, args, changed, text", RECORDS, ids=IDS)
def test_records_compare_and_hash_by_fields(cls, args, changed, text):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    assert a != cls(*changed) and not a == cls(*changed)
    # equality holds only within one class, as for the standard library's
    # data classes: a subclass with the same fields is another record
    lookalike = type("Lookalike", (cls,), {})(*args)
    assert a != lookalike and lookalike != a
    assert a != args and a != None  # noqa: E711
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, cls(*changed)}) == 2


@pytest.mark.parametrize("cls, args, changed, text", RECORDS, ids=IDS)
def test_records_print_their_fields_in_order(cls, args, changed, text):
    assert repr(cls(*args)) == text
    assert str(cls(*args)) == text


@pytest.mark.parametrize("cls, args, changed, text", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, args, changed, text):
    record = cls(*args)
    names = list(vars(record))
    assert len(names) >= 2
    for name in names:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert list(vars(record)) == names


@pytest.mark.parametrize("cls, args, changed, text", RECORDS, ids=IDS)
def test_records_take_their_fields_by_keyword(cls, args, changed, text):
    record = cls(*args)
    by_keyword = cls(**vars(record))
    assert by_keyword == record and repr(by_keyword) == text
    assert pickle.loads(pickle.dumps(record)) == record


def test_defaults_fill_the_fields_left_out():
    cells = ((0, 0), (1, 0))
    assert FamilyCertificate("grid", cells=cells) == FamilyCertificate(
        family="grid", n=None, clique_size=None, count=None, cells=cells,
        side=None)
    assert FamilyCertificate.hex_triangle(3).side == 3
    assert Graph(3, ()) == Graph(3, (), None, None)
    assert SolverConfig() == SolverConfig(28, 1)
    assert SolverConfig(workers=2) == SolverConfig(28, 2)
    assert SolverConfig(cap=5).workers == 1
    report = HReport(graph=PATH, betti_numbers=(1, 3, 2), m2=M2,
                     m2_mode="exhaustive", lower_trivial=2,
                     lower_cohomological=2, upper=4, exact=None)
    assert report == REPORT and report.decomposition is None
    with pytest.raises(TypeError):
        ExactValue(18)
    with pytest.raises(TypeError):
        SolverConfig(28, 1, 0)
    with pytest.raises(TypeError):
        AlphaVector(1, length=1, width=2)


@pytest.mark.parametrize("make, message", [
    (lambda: Graph(-1, ()), "vertex count must be non-negative"),
    (lambda: Graph(3, ((1, 0),)), r"edge \(1,0\) out of range or not ordered"),
    (lambda: Graph(3, ((0, 3),)), r"edge \(0,3\) out of range or not ordered"),
    (lambda: Graph(3, ((0, 1), (0, 1))), r"duplicate edge \(0,1\)"),
    (lambda: Graph(3, ((1, 2), (0, 1))), "edges must be lexicographically sorted"),
    (lambda: Graph(2, ((0, 1),), labels=("a",)),
     "labels length must equal vertex count"),
    (lambda: AlphaVector(8, 3), "alpha value out of range for its length"),
    (lambda: AlphaVector(-1, 3), "alpha value out of range for its length"),
    (lambda: HReport(PATH, (1, 3, 2), M2, "exhaustive", 2, 5, 4, None),
     "violates lower_trivial <= lower_cohomological <= upper: 2, 5, 4"),
    (lambda: HReport(PATH, (1, 3, 2), M2, "exhaustive", 2, 2, 4,
                     ExactValue(6, "certified-example")),
     "violates lower_trivial <= exact <= upper: 2, 6, 4"),
])
def test_invalid_fields_raise_value_error(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_cached_properties_fill_once_and_leave_equality_alone():
    g = Graph(3, ((0, 1), (1, 2)))
    assert g.adjacency == (0b010, 0b101, 0b010)
    assert g.adjacency is g.adjacency
    assert g == PATH and hash(g) == hash(PATH)
    assert "adjacency" not in vars(PATH) and "adjacency" in vars(g)
    index = CliqueIndex(2, ((0, 1), (0, 2), (1, 2)))
    assert index.position == {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    assert len(index) == 3 and index == CliqueIndex(2, index.cliques)
    template = build_cup_form(make_graph(4, combinations(range(4), 2)))
    assert template.clique_rows == (
        ((0, 1 << 5), (1, 1 << 4), (2, 1 << 3),
         (3, 1 << 2), (4, 1 << 1), (5, 1 << 0)),)
    assert template.clique_rows is template.clique_rows
    assert template == build_cup_form(template.graph)


def test_importing_the_cli_loads_neither_verification_nor_dataclasses():
    # a fresh interpreter, as `raagh compute` runs; verify-paper still
    # finds its checks when it is the command
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import raagh.cli\n"
        "print(sorted(m for m in ('dataclasses', 'raagh.verification')"
        " if m in sys.modules))\n"
        "sys.exit(raagh.cli.main(['verify-paper']))\n")
    out = subprocess.run([sys.executable, "-I", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    first, *rest = out.stdout.splitlines()
    assert first == "[]"
    assert rest[-1] == "12/12 checks passed"
