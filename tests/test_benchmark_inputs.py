"""What the benchmark's inputs show of the program beyond their reports.

The benchmark's per-layer trace (perfbench/tracer.py) sees only calls of
public functions, so a step run through a private helper drops out of it;
the first test installs that tracer in this process and checks that every
step of compute_h shows.  The second checks the cohomological bound of
every report and piece of every pinned input against the upper bound its
m2 result carries.  The third counts the clique walks of every pinned
input.  All read perfbench/ and write only under tmp_path.
"""

import importlib.util
import os
import sys

import pytest

import raagh.cli
import raagh.graphs
from raagh import SolverConfig, compute_h, parse_graph

from test_pinned_reports import PERFBENCH, workloads  # noqa: F401 (a fixture)


@pytest.fixture
def tracer():
    """perfbench/tracer.py's Tracer, installed over raagh for one test and
    loaded without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    tr = module.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.close()


def _children(spans, name):
    """Names of the spans directly under the one span called name, in the
    order they started."""
    [parent] = [i for i, span in enumerate(spans) if span[0] == name]
    inside = sorted((start, child) for child, start, _end, up, _gid in spans
                    if up == parent)
    return [child for _start, child in inside]


@pytest.mark.parametrize("gid, steps", [
    # the input's walk, then its one piece, the input itself
    ("catalog/clique-string-5x3-heuristic/0", ["solver.m2_heuristic"]),
    # the input's walk, then the walk and the scan of its one block that is
    # not a K4
    ("catalog/assembly/0", ["graphs.betti", "solver.compute_m2"]),
])
def test_the_trace_sees_each_step_of_compute_h(workloads, tracer, tmp_path,
                                               gid, steps):
    [inp] = [inp for inp in workloads.all_inputs(workloads.load_corpus())
             if inp.gid == gid]
    source, out = tmp_path / "in.edges", tmp_path / "out.json"
    source.write_text(inp.text, encoding="utf-8")
    tracer.take_pass()
    assert raagh.cli.main(["compute", str(source), "--json", "--out", str(out),
                           *inp.flags]) == 0
    spans, _counts = tracer.take_pass()
    assert _children(spans, "hbounds.compute_h")[:2] == ["graphs.betti",
                                                         "hbounds.decompose_h"]
    inside = _children(spans, "hbounds.decompose_h")
    assert [name for name in inside if name in steps] == steps


def test_every_pinned_cohomological_bound_is_taken_at_the_proven_upper(workloads):
    corpus = workloads.load_corpus()
    config = SolverConfig(cap=workloads.CAP)
    checked = 0
    for inp in workloads.all_inputs(corpus):
        rep = compute_h(parse_graph(inp.text, "edges"), config,
                        heuristic="--heuristic" in inp.flags)
        pieces = rep.decomposition.pieces if rep.decomposition else ()
        for report in [rep] + [piece.report for piece in pieces]:
            assert (report.lower_cohomological
                    == 2 * report.b2 - report.m2.upper), inp.gid
            assert report.m2.m2 <= report.m2.upper, inp.gid
            checked += 1
    assert checked == 13678


def test_every_pinned_input_walks_each_graph_once(workloads, tmp_path,
                                                  monkeypatch):
    # one clique walk per graph serves its Betti numbers, 4-cliques,
    # clique number and maximal cliques; the counts do not depend on the
    # host, so any new walk shows here
    walks = []
    walk = raagh.graphs._walk

    def counting(g, *args):
        walks.append(g)
        return walk(g, *args)

    monkeypatch.setattr(raagh.graphs, "_walk", counting)
    source, out = tmp_path / "in.edges", tmp_path / "out.json"
    per_workload: dict = {}
    for inp in workloads.all_inputs(workloads.load_corpus()):
        source.write_text(inp.text, encoding="utf-8")
        assert raagh.cli.main(["compute", str(source), "--json", "--out",
                               str(out), "--cap", str(workloads.CAP),
                               *inp.flags]) == 0
        name = inp.gid.split("/")[0]
        per_workload[name] = per_workload.get(name, 0) + len(walks)
        # the list keeps every walked graph alive, so ids are not reused
        assert len({id(g) for g in walks}) == len(walks), inp.gid
        walks.clear()
    assert per_workload == {"warmup": 1, "scan": 17, "sparse": 522,
                            "catalog": 55}
