import math
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

from raagh import (CERTIFIED_EXAMPLE, CONJECTURAL_MINIMAL,
                   DECOMPOSITION_AGGREGATE, FREE_ABELIAN, GRID_THEOREM,
                   HEX_THEOREM, STRING_THEOREM, THEOREM_GRADE, TRIVIAL_H4,
                   CapExceeded, ExactValue, FamilyCertificate, HReport,
                   SolverConfig, betti, build_cup_form, certified_h, compute_h,
                   compute_m2, decompose_h, generate_family, h_family,
                   h_free_abelian, make_graph, parse_graph, serialize_graph)
import raagh.graphs
import raagh.hbounds
import raagh.solver
from raagh.cli import main, render_text_report
from raagh.graphs import induced_subgraph
from raagh.hbounds import CLIQUE_STRING_5, CLIQUE_STRING_6, CLIQUE_STRING_7

from oracles import cliques_oracle, disjoint_union, heuristic_oracle, random_gnp


def join_graph():
    return make_graph(5, [(u, v) for u, v in combinations(range(5), 2)
                          if (u, v) != (0, 4)])


def k5_k4_glued():
    return make_graph(7, set(combinations(range(5), 2))
                      | set(combinations((3, 4, 5, 6), 2)))


def boxes_graph():
    matching = {(0, 1), (2, 3), (4, 5), (6, 7)}
    return make_graph(8, [e for e in combinations(range(8), 2)
                          if e not in matching])


def assembly_graph():
    edges = list(set(combinations(range(5), 2))
                 | set(combinations((3, 4, 5, 6), 2)))
    edges += list(combinations((6, 7, 8, 9), 2))
    edges += [(u + 10, v + 10) for u, v in combinations(range(4), 2)]
    edges += [(i % 14, 14 + i) for i in range(16)]
    return make_graph(30, edges)


# --------------------------------------------------------------------------
# free abelian values
# --------------------------------------------------------------------------

def test_free_abelian_table():
    expected = {0: 0, 1: 0, 2: 2, 3: 6, 4: 6, 5: 14,
                6: 16, 7: 22, 8: 28, 9: 36, 10: 46}
    assert {n: h_free_abelian(n) for n in expected} == expected


def test_free_abelian_generic_formula():
    for n in (11, 12, 20, 33):
        b2 = math.comb(n, 2)
        assert h_free_abelian(n) == b2 + (b2 & 1)
    with pytest.raises(ValueError):
        h_free_abelian(-1)


def test_ranks_three_and_five_sit_above_the_generic_value():
    assert h_free_abelian(3) == 6 > 3 + (3 & 1)
    assert h_free_abelian(5) == 14 > 10


# --------------------------------------------------------------------------
# family values
# --------------------------------------------------------------------------

@pytest.mark.parametrize("cert,value,provenance", [
    (FamilyCertificate.edgeless(5), 0, TRIVIAL_H4),
    (FamilyCertificate.complete(6), 16, FREE_ABELIAN),
    (FamilyCertificate.clique_string(4, 1), 6, GRID_THEOREM),
    (FamilyCertificate.clique_string(4, 2), 12, GRID_THEOREM),
    (FamilyCertificate.clique_string(4, 3), 16, GRID_THEOREM),
    (FamilyCertificate.clique_string(5, 1), 14, CLIQUE_STRING_5),
    (FamilyCertificate.clique_string(5, 3), 38, CLIQUE_STRING_5),
    (FamilyCertificate.clique_string(6, 1), 16, CLIQUE_STRING_6),
    (FamilyCertificate.clique_string(7, 2), 42, CLIQUE_STRING_7),
    (FamilyCertificate.face_string(1), 6, FREE_ABELIAN),
    (FamilyCertificate.face_string(2), 12, STRING_THEOREM),
    (FamilyCertificate.face_string(3), 14, STRING_THEOREM),
    (FamilyCertificate.face_string(4), 18, STRING_THEOREM),
])
def test_h_family_closed_forms(cert, value, provenance):
    got = h_family(cert)
    assert got == ExactValue(value, provenance)
    assert got.theorem_grade


def test_single_clique_values_agree_with_free_abelian():
    for s in (4, 5, 6, 7):
        assert h_family(FamilyCertificate.clique_string(s, 1)).value \
            == h_free_abelian(s)


def test_h_family_solves_grids_and_hex_triangles():
    domino = h_family(FamilyCertificate.grid([(0, 0), (1, 0)]))
    assert domino == ExactValue(12, GRID_THEOREM)
    tromino = h_family(FamilyCertificate.grid([(0, 0), (1, 0), (1, 1)]))
    assert tromino == ExactValue(18, GRID_THEOREM)
    square = h_family(FamilyCertificate.grid([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert square == ExactValue(24, GRID_THEOREM)
    hex2 = h_family(FamilyCertificate.hex_triangle(2))
    assert hex2 == ExactValue(18, HEX_THEOREM)


def test_h_family_with_a_given_m2_builds_no_model_and_refuses_bad_certificates(
        monkeypatch):
    def refuse(cert):
        raise AssertionError(f"built the model of {cert}")

    for cert in (FamilyCertificate.hex_triangle(2),
                 FamilyCertificate.grid([(0, 0), (1, 0), (1, 1)])):
        want, m2 = h_family(cert), compute_m2(generate_family(cert)).m2
        with monkeypatch.context() as patch:
            patch.setattr(raagh.hbounds, "generate_family", refuse)
            patch.setattr(raagh.graphs, "generate_family", refuse)
            assert h_family(cert, m2=m2) == want
    for cert in (FamilyCertificate.hex_triangle(0),
                 FamilyCertificate("hex-triangle"),
                 FamilyCertificate.hex_triangle(200),
                 FamilyCertificate.grid([]),
                 FamilyCertificate.grid([(0, 0), (2, 0)])):
        for m2 in (None, 0):
            with pytest.raises(ValueError):
                h_family(cert, m2=m2)


def test_certified_hex_builds_its_model_once_and_a_forged_one_never(
        monkeypatch):
    cert = FamilyCertificate.hex_triangle(3)
    hex3 = generate_family(cert)
    perm = list(range(hex3.n))
    random.Random(38).shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in hex3.edges]
    calls = []

    def counted(cert):
        calls.append(cert)
        return generate_family(cert)

    monkeypatch.setattr(raagh.graphs, "generate_family", counted)
    monkeypatch.setattr(raagh.hbounds, "generate_family", counted)
    rep = compute_h(make_graph(hex3.n, edges, certificate=cert))
    assert rep.exact == ExactValue(36, HEX_THEOREM) and len(calls) == 1
    # ten vertices as the certificate says, but one edge short: 26 edges
    # is no count that recognition tries either, so nothing is built
    calls.clear()
    rep = compute_h(make_graph(hex3.n, edges[1:], certificate=cert))
    assert rep.exact.provenance != HEX_THEOREM and calls == []


def test_grid_value_is_not_a_parity_round_of_b2():
    # the L tromino separates the two: b2 = 16 but h = 18
    g = generate_family(FamilyCertificate.grid([(0, 0), (1, 0), (1, 1)]))
    assert betti(g)[2] == 16
    assert h_family(FamilyCertificate.grid([(0, 0), (1, 0), (1, 1)])).value == 18


# --------------------------------------------------------------------------
# individually certified graphs
# --------------------------------------------------------------------------

def test_certified_h_recognizes_catalog_graphs_up_to_relabeling():
    g = k5_k4_glued()
    assert certified_h(g) == ExactValue(18, CERTIFIED_EXAMPLE)
    perm = [3, 0, 6, 1, 5, 2, 4]
    relabeled = make_graph(7, [(perm[u], perm[v]) for u, v in g.edges])
    assert certified_h(relabeled) == ExactValue(18, CERTIFIED_EXAMPLE)
    assert certified_h(join_graph()) is None
    assert certified_h(make_graph(7, combinations(range(7), 2))) is None


def test_certified_h_keys_only_the_examples_with_the_graphs_counts(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return raagh.graphs.canonical_key(g)

    monkeypatch.setattr(raagh.hbounds, "canonical_key", counting)
    raagh.hbounds._certified_keys.cache_clear()
    perm = [3, 0, 6, 1, 5, 2, 4]
    g = k5_k4_glued()
    relabeled = make_graph(7, [(perm[u], perm[v]) for u, v in g.edges])
    assert certified_h(relabeled) == ExactValue(18, CERTIFIED_EXAMPLE)
    assert calls == [g, relabeled]  # the example, then the input
    perm = [5, 2, 7, 0, 3, 6, 1, 4]
    boxes = boxes_graph()
    relabeled = make_graph(8, [(perm[u], perm[v]) for u, v in boxes.edges])
    assert certified_h(relabeled) == ExactValue(26, CERTIFIED_EXAMPLE)
    assert calls[2:] == [boxes, relabeled]
    assert certified_h(relabeled) == ExactValue(26, CERTIFIED_EXAMPLE)
    assert len(calls) == 5  # keys of the examples are kept per count


# --------------------------------------------------------------------------
# whole-graph reports
# --------------------------------------------------------------------------

def test_compute_h_on_a_path_uses_the_no_4_clique_shortcut():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    rep = compute_h(g)
    assert (rep.lower_trivial, rep.lower_cohomological, rep.upper) == (3, 6, 6)
    assert rep.exact == ExactValue(6, TRIVIAL_H4)
    assert rep.m2.m2 == 0 and rep.m2.exhaustive
    assert rep.decomposition is None


def test_compute_h_on_k4():
    rep = compute_h(make_graph(4, combinations(range(4), 2)))
    assert (rep.lower_trivial, rep.lower_cohomological, rep.upper) == (6, 6, 12)
    assert rep.exact == ExactValue(6, FREE_ABELIAN)
    assert rep.m2.m2 == 6 and rep.m2_mode == "exhaustive"


def test_compute_h_on_join_graph_is_conjectural():
    rep = compute_h(join_graph())
    assert (rep.lower_trivial, rep.lower_cohomological, rep.upper) == (9, 12, 18)
    assert rep.exact == ExactValue(12, CONJECTURAL_MINIMAL)
    assert not rep.exact.theorem_grade


def test_compute_h_on_boxes_graph_is_certified():
    rep = compute_h(boxes_graph())
    assert rep.b2 == 24 and rep.b4 == 16
    assert rep.m2.m2 == 22 and rep.m2.exhaustive
    assert (rep.lower_trivial, rep.lower_cohomological) == (24, 26)
    assert rep.exact == ExactValue(26, CERTIFIED_EXAMPLE)


def test_bounds_of_join_graph_glued_pair_and_single_edge():
    rep = compute_h(join_graph())
    assert (rep.lower_trivial, rep.lower_cohomological) == (9, 12)
    glued = compute_h(generate_family(FamilyCertificate.clique_string(4, 2)))
    assert (glued.lower_trivial, glued.lower_cohomological) == (11, 12)
    assert glued.upper == 2 * glued.b2 == 22
    edge = compute_h(make_graph(3, [(0, 1)]))
    assert edge.upper == 2 * edge.b2 == 2


def test_hreport_rejects_inconsistent_bounds_even_under_optimization():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="lower_cohomological <= upper"):
        HReport(g, (2, 1), None, "exhaustive", 1, 3, 2, None)
    with pytest.raises(ValueError, match="exact <= upper"):
        HReport(g, (2, 1), None, "exhaustive", 1, 2, 2,
                ExactValue(3, TRIVIAL_H4))
    script = (
        "from raagh import HReport, make_graph\n"
        "try:\n"
        "    HReport(make_graph(2, [(0, 1)]), (2, 1), None, 'exhaustive',"
        " 1, 3, 2, None)\n"
        "except ValueError:\n"
        "    print('rejected')\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "rejected\n"


def test_hreport_rejects_exact_below_the_cohomological_bound_under_optimization():
    # h >= 2 b2 - m2 >= 2 b2 - U, so a theorem value or a U that breaks
    # this order is wrong, and the report is refused, not clamped
    script = (
        "from raagh import ExactValue, HReport, make_graph\n"
        "try:\n"
        "    HReport(make_graph(2, [(0, 1)]), (1, 2, 1), None, 'exhaustive',"
        " 1, 2, 2, ExactValue(1, 'certified-example'))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "violates lower_cohomological <= exact <= upper: 2, 1, 2\n"


@pytest.mark.parametrize("cert", [
    FamilyCertificate.clique_string(4, 2),
    FamilyCertificate.clique_string(4, 3),
    FamilyCertificate.clique_string(5, 2),
    FamilyCertificate.face_string(3),
    FamilyCertificate.face_string(4),
])
def test_cohomological_bound_is_tight_on_string_families(cert):
    g = generate_family(cert)
    rep = compute_h(g)
    assert rep.exact is not None and rep.exact.theorem_grade
    assert rep.lower_cohomological == rep.exact.value == h_family(cert).value


def test_scan_reaches_the_face_string_theorem_up_to_k_28():
    # b4 = k up to the default cap; the branch-and-bound scan proves m2
    # exhaustively, and the bound meets 3k+6 (even k) / 3k+5 (odd k)
    for k in range(7, 29):
        cert = FamilyCertificate.face_string(k)
        rep = compute_h(generate_family(cert))
        assert rep.b4 == k and rep.m2_mode == "exhaustive" and rep.m2.exhaustive
        expect = 3 * k + 6 if k % 2 == 0 else 3 * k + 5
        assert rep.lower_cohomological == h_family(cert).value == expect, k


def test_gluing_reaches_the_five_string_theorem_up_to_k_5():
    # b4 = 5k up to 25, within the default cap: m2 comes from one scan per
    # K5 and delete pattern, so the certified bound meets 12k+2
    for k in range(2, 6):
        cert = FamilyCertificate.clique_string(5, k)
        rep = compute_h(generate_family(cert))
        assert rep.b4 == 5 * k and rep.m2_mode == "exhaustive"
        assert rep.m2.exhaustive and rep.m2.m2 == 6 * k
        assert rep.lower_cohomological == h_family(cert).value == 12 * k + 2, k


@pytest.mark.parametrize("seed", range(8))
def test_graphs_without_4_cliques_have_exact_double_b2(seed):
    rnd = random.Random(seed)
    n = rnd.randint(4, 10)
    g = make_graph(n, random_gnp(n, 0.3, seed + 700))
    if len(compute_h(g).betti_numbers) > 4 and betti(g)[4]:
        pytest.skip("b4 != 0")
    rep = compute_h(g)
    if rep.b4 == 0:
        assert rep.exact == ExactValue(2 * rep.b2, TRIVIAL_H4)
        assert rep.upper == rep.exact.value


def test_bounds_always_sandwich_exact_values():
    for seed in range(12):
        rnd = random.Random(seed)
        n = rnd.randint(4, 9)
        g = make_graph(n, random_gnp(n, 0.5, seed + 4000))
        if betti(g)[2] > 20 or (len(betti(g)) > 4 and betti(g)[4] > 10):
            continue
        rep = compute_h(g)
        assert rep.lower_trivial <= rep.lower_cohomological <= rep.upper
        if rep.exact is not None:
            assert rep.lower_trivial <= rep.exact.value <= rep.upper


# --------------------------------------------------------------------------
# decomposition
# --------------------------------------------------------------------------

def test_decompose_disjoint_union_of_two_k4s():
    g = disjoint_union(make_graph(4, combinations(range(4), 2)),
                       make_graph(4, combinations(range(4), 2)))
    decomp = decompose_h(g)
    assert decomp.r == 0 and len(decomp.pieces) == 2
    assert [p.vertices for p in decomp.pieces] == [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert decomp.aggregate_exact == ExactValue(12, DECOMPOSITION_AGGREGATE)
    rep = compute_h(g)
    assert rep.m2_mode == "assembled" and rep.m2.m2 == 12
    assert rep.exact == ExactValue(12, DECOMPOSITION_AGGREGATE)
    assert (rep.lower_trivial, rep.lower_cohomological, rep.upper) == (12, 12, 24)


def test_decompose_wedge_of_two_k4s_at_a_vertex():
    g = make_graph(7, list(combinations(range(4), 2))
                   + list(combinations((3, 4, 5, 6), 2)))
    decomp = decompose_h(g)
    assert decomp.r == 0 and len(decomp.pieces) == 2
    assert decomp.aggregate_exact.value == 12
    rep = compute_h(g)
    assert rep.m2_mode == "assembled"
    assert rep.exact == ExactValue(12, DECOMPOSITION_AGGREGATE)


def test_decompose_triangle_into_free_edges():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    decomp = decompose_h(g)
    assert decomp.r == 3
    assert [p.vertices for p in decomp.pieces] == [(0,), (1,), (2,)]
    assert decomp.aggregate_exact == ExactValue(6, DECOMPOSITION_AGGREGATE)
    # compute_h reaches the same number through the b4 = 0 shortcut
    rep = compute_h(g)
    assert rep.exact == ExactValue(6, TRIVIAL_H4)
    assert rep.decomposition is None


def test_decompose_k4_with_isolated_vertex():
    g = make_graph(5, combinations(range(4), 2))
    decomp = decompose_h(g)
    assert [p.vertices for p in decomp.pieces] == [(0, 1, 2, 3), (4,)]
    assert decomp.aggregate_exact.value == 6


def test_pendant_edges_add_two_each():
    base = make_graph(4, combinations(range(4), 2))
    for extra in (1, 2, 3):
        edges = list(base.edges) + [(i % 4, 4 + i) for i in range(extra)]
        rep = compute_h(make_graph(4 + extra, edges))
        assert rep.exact.value == 6 + 2 * extra
        assert rep.exact.provenance == DECOMPOSITION_AGGREGATE


def test_text_report_lists_the_pieces_and_the_aggregate():
    lines = render_text_report(compute_h(assembly_graph())).splitlines()
    assert "exact: h = 62 [decomposition-aggregate, theorem]" in lines
    start = lines.index("decomposition: 16 free edges, 19 pieces")
    assert lines[start + 1:start + 5] == [
        "  piece {0,1,2,3,4,5,6}: b2=15 m2=12 h=18 [certified-example]",
        "  piece {6,7,8,9}: b2=6 m2=6 h=6 [free-abelian]",
        "  piece {10,11,12,13}: b2=6 m2=6 h=6 [free-abelian]",
        "  piece {14}: b2=0 m2=0 h=0 [trivial-h4]"]
    assert len(lines) == start + 21
    assert lines[-1] == "  aggregate: h = 62"


def test_text_report_says_when_the_exact_value_is_unknown():
    hexagon = generate_family(FamilyCertificate.hex_triangle(3))
    rep = compute_h(make_graph(hexagon.n, hexagon.edges), heuristic=True)
    assert (rep.m2.m2, rep.m2.exhaustive, rep.exact) == (18, False, None)
    text = render_text_report(rep)
    assert "\nm2: 18 (heuristic, not certified; " in text
    assert text.endswith("\nexact: unknown\n")


def test_assembly_graph_aggregate_and_witness_transplant():
    g = assembly_graph()
    rep = compute_h(g)
    assert rep.exact == ExactValue(62, DECOMPOSITION_AGGREGATE)
    assert rep.m2_mode == "assembled"
    decomp = rep.decomposition
    assert decomp.r == 16
    block_values = [p.report.exact.value for p in decomp.pieces
                    if p.graph.n > 1]
    assert block_values == [18, 6, 6]
    assert sum(1 for p in decomp.pieces if p.graph.n == 1) == 16
    # piece b2 plus free edges reassemble the parent b2
    assert sum(p.report.b2 for p in decomp.pieces) + decomp.r == rep.b2
    assert rep.lower_cohomological == 62
    # the assembled m2 and witness agree with a direct whole-graph solve
    direct = compute_m2(g)
    assert direct.m2 == rep.m2.m2 == 24
    assert direct.witness == rep.m2.witness
    assert rep.m2.witness.value == 225


def test_assembled_m2_matches_direct_solve_on_random_unions():
    for seed in range(6):
        rnd = random.Random(seed)
        parts = []
        offset = 0
        edges = []
        for _ in range(2):
            n = rnd.randint(4, 6)
            part_edges = random_gnp(n, 0.7, seed * 17 + offset)
            edges += [(u + offset, v + offset) for u, v in part_edges]
            offset += n
        g = make_graph(offset, edges)
        if betti(g)[2] > 18 or (len(betti(g)) > 4 and betti(g)[4] > 9):
            continue
        rep = compute_h(g)
        direct = compute_m2(g)
        assert rep.m2.m2 == direct.m2
        if rep.m2_mode == "assembled" and rep.m2.exhaustive:
            assert rep.m2.witness == direct.witness


def test_each_piece_is_scanned_once(monkeypatch):
    calls = []

    def counting(g, *args):
        calls.append(g)
        return compute_m2(g, *args)

    monkeypatch.setattr(raagh.hbounds, "compute_m2", counting)
    string = generate_family(FamilyCertificate.clique_string(5, 2))
    perm = [(5 * v + 3) % string.n for v in range(string.n)]
    relabeled = make_graph(string.n, [(perm[u], perm[v]) for u, v in string.edges])
    square = FamilyCertificate.grid([(0, 0), (1, 0), (0, 1), (1, 1)])
    for g, exact in [
        (boxes_graph(), ExactValue(26, CERTIFIED_EXAMPLE)),
        (generate_family(FamilyCertificate.hex_triangle(2)),
         ExactValue(18, HEX_THEOREM)),
        (generate_family(square), ExactValue(24, GRID_THEOREM)),
        (relabeled, ExactValue(26, CLIQUE_STRING_5)),
    ]:
        calls.clear()
        rep = compute_h(g)
        assert len(calls) == 1
        assert rep.exact == exact and rep.decomposition is None

    calls.clear()
    rep = compute_h(assembly_graph())
    # of its three blocks with 4-cliques, the two K4s share one report
    assert sum(1 for p in rep.decomposition.pieces if p.report.b4) == 3
    assert [g.n for g in calls] == [7]
    assert rep.exact == ExactValue(62, DECOMPOSITION_AGGREGATE)


def _multi_piece_graph(rnd):
    """Blocks wedged at cut vertices or set apart, pendant free edges and
    isolated vertices, relabeled half the time."""
    n, edges = 0, []
    for _ in range(rnd.randint(2, 4)):
        size = rnd.randint(4, 6)
        block = [e for e in combinations(range(size), 2)
                 if e[1] < 4 or rnd.random() < 0.7]  # holds a K4
        if n and rnd.random() < 0.6:
            cut = rnd.randrange(n)
            vmap = [cut] + list(range(n, n + size - 1))
            n += size - 1
        else:
            vmap = list(range(n, n + size))
            n += size
        edges += [(vmap[u], vmap[v]) for u, v in block]
    for _ in range(rnd.randint(0, 4)):
        edges.append((rnd.randrange(n), n))
        n += 1
    n += rnd.randint(0, 2)
    if rnd.random() < 0.5:
        perm = list(range(n))
        rnd.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in edges]
    return make_graph(n, edges)


def test_assembled_m2_and_witness_match_a_whole_graph_scan():
    rnd = random.Random(20261018)
    checked = 0
    while checked < 100:
        g = _multi_piece_graph(rnd)
        if betti(g)[4] > 12:
            continue
        rep = compute_h(g)
        assert rep.m2_mode == "assembled" and rep.m2.exhaustive
        direct = compute_m2(g)
        assert (rep.m2.m2, rep.m2.witness) == (direct.m2, direct.witness)
        checked += 1


def test_one_clique_walk_serves_each_need(monkeypatch):
    walks = []
    walk = raagh.graphs._walk

    def counting(*args):
        walks.append(args[0])
        return walk(*args)

    monkeypatch.setattr(raagh.graphs, "_walk", counting)
    compute_h(assembly_graph())
    # one census of the graph, then one of its one block that is not a K4,
    # which serves its cup form too; the witness is assembled from the
    # census's 4-cliques
    assert [g.n for g in walks] == [30, 7]
    # a whole-graph piece walks once, for betti(g) and the cup form alike;
    # recognition walks nothing, and neither does an over-cap piece's
    # heuristic or a second compute_h of the same graph
    strings = [generate_family(FamilyCertificate.clique_string(s, k))
               for s, k in ((5, 3), (6, 2))]  # b4 = 15, and 30 over the cap
    strings.append(generate_family(FamilyCertificate.face_string(20)))
    rnd = random.Random(3)
    for h in [boxes_graph()] + strings:  # relabeled, certificates dropped
        perm = list(range(h.n))
        rnd.shuffle(perm)
        g = make_graph(h.n, [(perm[u], perm[v]) for u, v in h.edges])
        walks.clear()
        compute_h(g)
        assert walks == [g]
        compute_h(g, heuristic=True)
        assert walks == [g]


@pytest.mark.parametrize("form", ["build_cup_form", "raagh form"])
def test_a_cup_form_alone_walks_to_depth_4(monkeypatch, tmp_path, form):
    # a census counts every clique, which on a dense graph costs far more
    # than the 4-cliques a cup form needs
    walks, censuses = [], []
    walk, census = raagh.graphs._walk, raagh.graphs._census

    def counting_walk(g, k, *args):
        walks.append((g.n, k))
        return walk(g, k, *args)

    def counting_census(g):
        censuses.append(g)
        return census(g)

    monkeypatch.setattr(raagh.graphs, "_walk", counting_walk)
    monkeypatch.setattr(raagh.graphs, "_census", counting_census)
    k12 = make_graph(12, combinations(range(12), 2))
    if form == "build_cup_form":
        assert build_cup_form(k12).num_cliques == math.comb(12, 4)
    else:
        source, out = tmp_path / "k12.edges", tmp_path / "form.txt"
        source.write_text(serialize_graph(k12, "edges"), encoding="utf-8")
        assert main(["form", str(source), "--out", str(out)]) == 0
    assert walks == [(12, 4)] and censuses == []


def test_a_direct_heuristic_walks_a_fresh_graph_once(monkeypatch):
    # the census gives the cup form's 4-cliques and the seeds' maximal
    # cliques alike
    walks = []
    walk = raagh.graphs._walk

    def counting_walk(g, k, *args):
        walks.append((g.n, k))
        return walk(g, k, *args)

    def k12_minus_an_edge():
        return make_graph(12, [e for e in combinations(range(12), 2) if e != (0, 1)])

    monkeypatch.setattr(raagh.graphs, "_walk", counting_walk)
    res = raagh.solver.m2_heuristic(k12_minus_an_edge())
    assert len(walks) == 1
    assert (res.m2, res.witness, res.radical_dim, res.exhaustive) == \
        heuristic_oracle(k12_minus_an_edge())


def _isolated_vertex_graphs():
    """Unlabeled graphs and one parsed without a vertices directive, which
    carries labels; each leaves vertices isolated once free edges go."""
    rnd = random.Random(20261019)
    labeled = parse_graph("5 9\n5 12\n5 30\n9 12\n9 30\n12 30\n"
                          "30 44\n44 7\n7 8\n", "edges")
    assert labeled.labels is not None
    return [assembly_graph(), labeled] + [_multi_piece_graph(rnd)
                                          for _ in range(8)]


def test_isolated_vertex_pieces_report_as_the_one_vertex_graph():
    for g in _isolated_vertex_graphs():
        in4 = {e for c in cliques_oracle(g, 4) for e in combinations(c, 2)}
        covered = make_graph(g.n, in4, labels=g.labels)
        lone = [p for p in decompose_h(g).pieces if len(p.vertices) == 1]
        assert lone
        for piece in lone:
            sub, vmap = induced_subgraph(covered, piece.vertices)
            assert (piece.graph, piece.vertices) == (sub, vmap)
            assert piece.report == compute_h(sub)
            if g.labels is None:  # one report shared by every such piece
                assert piece.report is lone[0].report


def test_only_blocks_are_cut_out_and_walked(monkeypatch):
    calls = {"induced_subgraph": [], "_census": []}
    for name, seen in calls.items():
        def counting(g, *args, _real=getattr(raagh.graphs, name), _seen=seen):
            _seen.append(g)
            return _real(g, *args)
        monkeypatch.setattr(raagh.graphs, name, counting)
        if name == "induced_subgraph":  # which hbounds imports by name
            monkeypatch.setattr(raagh.hbounds, name, counting)
    cut = []
    for g in _isolated_vertex_graphs():
        for seen in calls.values():
            seen.clear()
        rep = compute_h(g)
        # K4 blocks and lone vertices take shared reports
        blocks = sum(1 for p in rep.decomposition.pieces if p.graph.n > 4)
        assert len(calls["induced_subgraph"]) == blocks
        # one walk for g itself, then one per block
        assert [h.n for h in calls["_census"]][0] == g.n
        assert len(calls["_census"]) == blocks + 1
        cut.append(blocks)
    assert cut == [1, 0, 3, 1, 2, 0, 2, 2, 1, 2]


def _k4_chain(labeled: bool):
    """K4s wedged at a cut vertex, a free edge to a third K4, a pendant edge
    and an isolated vertex; labeled, it is parsed without a vertices
    directive from spread-out ids, with a separate edge in place of the
    isolated vertex."""
    edges = (list(combinations(range(4), 2)) + list(combinations(range(3, 7), 2))
             + [(6, 7)] + list(combinations(range(7, 11), 2)) + [(10, 11)])
    if not labeled:
        return make_graph(13, edges)
    g = parse_graph("".join(f"{3 * u + 5} {3 * v + 5}\n" for u, v in edges)
                    + "98 99\n", "edges")
    assert g.labels is not None
    return g


def test_k4_pieces_are_not_walked_scanned_or_recognized(monkeypatch):
    calls = {}
    for module, name in ((raagh.graphs, "_walk"), (raagh.hbounds, "compute_m2"),
                         (raagh.hbounds, "recognize_family"),
                         (raagh.hbounds, "m2_heuristic")):
        seen = calls[name] = []

        def counting(g, *args, _real=getattr(module, name), _seen=seen):
            _seen.append(g)
            return _real(g, *args)
        monkeypatch.setattr(module, name, counting)
    for labeled in (False, True):
        for config, heuristic in ((SolverConfig(cap=28), False),
                                  (SolverConfig(cap=28), True),
                                  (SolverConfig(cap=0), False)):
            g = _k4_chain(labeled)  # a new graph, whose census is not yet kept
            for seen in calls.values():
                seen.clear()
            rep = compute_h(g, config, heuristic=heuristic)
            assert [len(p.vertices) for p in rep.decomposition.pieces] == (
                [4, 4, 4, 1, 1, 1] if labeled else [4, 4, 4, 1, 1])
            # the one clique walk is g's own census
            assert calls == {"_walk": [g], "compute_m2": [],
                             "recognize_family": [], "m2_heuristic": []}
            free = 3 if labeled else 2
            assert rep.decomposition.r == free
            assert rep.exact == ExactValue(3 * 6 + 2 * free, DECOMPOSITION_AGGREGATE)


@pytest.mark.parametrize("labeled", [False, True])
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("cap", [0, 28])
@pytest.mark.parametrize("heuristic", [False, True])
def test_k4_pieces_report_as_the_piece_report_does(heuristic, cap, strict, labeled):
    g = _k4_chain(labeled)
    config = SolverConfig(cap=cap)
    in4 = {e for c in cliques_oracle(g, 4) for e in combinations(c, 2)}
    covered = make_graph(g.n, in4, labels=g.labels)

    def outcome(pieces):
        try:
            return pieces()
        except CapExceeded as exc:
            return str(exc)

    got = outcome(lambda: [(p.vertices, p.graph, p.report)
                           for p in decompose_h(g, config, heuristic, strict).pieces
                           if len(p.vertices) == 4])
    want = outcome(lambda: [
        (vmap, sub, raagh.hbounds._piece_report(sub, config, heuristic, strict))
        for sub, vmap in (induced_subgraph(covered, vset)
                          for vset in (range(4), range(3, 7), range(7, 11)))])
    assert got == want
    if cap == 0 and strict and not heuristic:
        assert got == str(CapExceeded(1, 0))
    else:
        assert [report.m2_mode for _, _, report in got] == [
            "heuristic" if heuristic or cap == 0 else "exhaustive"] * 3
        # unlabeled K4 pieces share one report
        assert (len({id(report) for _, _, report in got}) == 1) != labeled


def test_decomposition_keeps_the_certificate_of_a_whole_graph_piece():
    g = generate_family(FamilyCertificate.grid([(0, 0), (1, 0), (1, 1)]))
    decomp = decompose_h(g)
    assert decomp.r == 0 and len(decomp.pieces) == 1
    piece = decomp.pieces[0]
    assert piece.graph is g and piece.vertices == tuple(range(g.n))
    assert piece.report.exact == ExactValue(18, GRID_THEOREM)


# --------------------------------------------------------------------------
# heuristic mode and soundness
# --------------------------------------------------------------------------

@pytest.mark.parametrize("side, h", [(5, 90), (6, 126), (8, 216)])
def test_over_cap_hex_bound_is_taken_at_the_term_rank(side, h):
    # the heuristic under-finds m2 (58, 84 and 156); 2 b2 - m2 would be 92,
    # 132 and 228, above h = 3 side (side + 1)
    rep = compute_h(generate_family(FamilyCertificate.hex_triangle(side)))
    assert rep.m2_mode == "heuristic" and not rep.m2.exhaustive
    assert rep.lower_cohomological == h == 3 * side * (side + 1)


def test_assembled_bound_adds_the_pieces_bounds():
    # two hex triangles of side 5 joined by a free edge: 90 + 90 + 2
    hex5 = generate_family(FamilyCertificate.hex_triangle(5))
    pair = disjoint_union(hex5, hex5)
    g = make_graph(pair.n, pair.edges + ((0, hex5.n),))
    rep = compute_h(g)
    assert rep.m2_mode == "assembled" and not rep.m2.exhaustive
    assert rep.lower_cohomological == 182


def _counted(monkeypatch, name):
    """Calls of raagh.graphs.<name>, by the graph each was made on."""
    calls = []
    original = getattr(raagh.graphs, name)

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(raagh.graphs, name, counted)
    return calls


def test_compute_h_searches_the_input_once(monkeypatch):
    # relabeled K8 minus a matching: certified_h keys it and the scan's
    # orbit tests take its automorphism generators, from one search
    g = make_graph(8, [(u ^ 5, v ^ 5) for u, v in boxes_graph().edges])
    calls = _counted(monkeypatch, "_canonical_search")
    rep = compute_h(g)
    assert rep.exact == ExactValue(26, CERTIFIED_EXAMPLE)
    assert sum(h is g for h in calls) == 1


@pytest.mark.parametrize("g", [
    make_graph(7, combinations(range(7), 2)),
    make_graph(12, [(u * 5 % 12, v * 5 % 12) for u, v in generate_family(
        FamilyCertificate.clique_string(7, 2)).edges]),
], ids=["K7", "clique-string-7x2"])
def test_one_maximal_clique_walk_per_graph(monkeypatch, g):
    # the Betti numbers, the cup form, the heuristic's seeds and its
    # clique-number gate, and the chain test that recognizes a
    # clique-string, share one walk
    calls = []
    walk = raagh.graphs._walk

    def counting(h, *args):
        calls.append(h)
        return walk(h, *args)

    monkeypatch.setattr(raagh.graphs, "_walk", counting)
    rep = compute_h(g, heuristic=True)
    assert rep.m2_mode == "heuristic" and rep.exact is not None
    assert len(calls) == 1 and calls[0] is g


def test_weak_heuristic_cannot_overstate_the_lower_bound(monkeypatch):
    # K7 with a deliberately bad seed pool: the heuristic finds only rank 6,
    # which would suggest a bound of 36; the known value 22 must win
    g = make_graph(7, combinations(range(7), 2))
    monkeypatch.setattr(raagh.solver, "_heuristic_seeds", lambda g, t: (1,))
    rep = compute_h(g, heuristic=True)
    assert rep.m2.m2 == 6 and rep.m2_mode == "heuristic"
    assert rep.exact == ExactValue(22, FREE_ABELIAN)
    assert rep.lower_cohomological == 22
    assert rep.lower_trivial == 21 and rep.upper == 42


def test_cap_fallback_degrades_to_heuristic_unless_strict():
    g = generate_family(FamilyCertificate.clique_string(6, 2))  # b4 = 30
    rep = compute_h(g)
    assert rep.m2_mode == "heuristic"
    assert rep.m2.m2 == 28 and rep.m2.exhaustive  # parity ceiling certifies
    assert rep.exact == ExactValue(30, CLIQUE_STRING_6)
    assert rep.lower_cohomological == 30
    with pytest.raises(CapExceeded):
        compute_h(g, strict=True)


def test_grid_theorem_is_claimed_only_within_the_cap():
    # over the cap the heuristic certifies m2 at the parity ceiling, but the
    # grid value stays what h_family(cert, config) gives: none
    g = generate_family(FamilyCertificate.grid([(x, 0) for x in range(4)]))
    rep = compute_h(g, SolverConfig(cap=2))
    assert rep.m2_mode == "heuristic" and rep.m2.exhaustive
    assert rep.exact == ExactValue(22, CONJECTURAL_MINIMAL)
    assert compute_h(g).exact == ExactValue(22, GRID_THEOREM)


def test_forged_certificates_are_ignored():
    g = make_graph(4, list(combinations(range(4), 2)),
                   certificate=FamilyCertificate.face_string(3))
    rep = compute_h(g)
    assert rep.exact == ExactValue(6, FREE_ABELIAN)


def test_uncertified_tromino_gets_the_honest_conjectural_value():
    # stripped of its grid certificate the L tromino is in no recognized
    # family; the formula for the look-alike string (16) must not be used
    g = generate_family(FamilyCertificate.grid([(0, 0), (1, 0), (1, 1)]))
    bare = make_graph(g.n, g.edges)
    rep = compute_h(bare)
    assert rep.exact == ExactValue(18, CONJECTURAL_MINIMAL)
    assert rep.lower_cohomological == 18
    # with the certificate the same number arrives theorem-graded
    assert compute_h(g).exact == ExactValue(18, GRID_THEOREM)


def test_honored_certificates_win_over_recognition():
    g = generate_family(FamilyCertificate.clique_string(6, 1))
    assert g.certificate is not None
    rep = compute_h(g)
    assert rep.exact == ExactValue(16, CLIQUE_STRING_6)
    bare = make_graph(6, combinations(range(6), 2))
    assert compute_h(bare).exact == ExactValue(16, FREE_ABELIAN)


def test_theorem_grade_set_excludes_only_the_conjectural_tag():
    assert CONJECTURAL_MINIMAL not in THEOREM_GRADE
    assert ExactValue(4, CONJECTURAL_MINIMAL).theorem_grade is False
    assert ExactValue(4, DECOMPOSITION_AGGREGATE).theorem_grade is True


# --------------------------------------------------------------------------
# scripts
# --------------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLES = os.path.join(ROOT, "scripts", "reproduce_reference_tables.py")
SURVEY = os.path.join(ROOT, "scripts", "random_survey.py")


def test_reference_tables_script_passes_every_row():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, TABLES], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.endswith("49/49 rows match, assembly matches h = 62\n")


def test_reference_tables_script_exits_1_on_a_miss(monkeypatch, capsys):
    import importlib.util

    spec = importlib.util.spec_from_file_location("reference_tables", TABLES)
    tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tables)
    monkeypatch.setattr(tables, "h_free_abelian", lambda n: 2)
    assert tables.main(["--max-k", "1", "--max-n", "4"]) == 1
    assert "n=4" in capsys.readouterr().out


def test_reference_tables_over_cap_rows_fail_above_h(monkeypatch, capsys):
    import importlib.util

    spec = importlib.util.spec_from_file_location("reference_tables", TABLES)
    tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tables)
    # hex sides 5..8 keep h = 3 s (s + 1); the 5-strings get h = 0
    monkeypatch.setattr(tables, "h_family",
                        lambda cert: ExactValue(0, CLIQUE_STRING_5))
    assert tables.over_cap() == [True] * 4 + [False] * 2
    assert "4/6 bounds at or below h" in capsys.readouterr().out


def test_random_survey_script_runs_and_repeats_itself():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    runs = [subprocess.run([sys.executable, SURVEY, "--count", "5"], env=env,
                           capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    for out in runs:
        assert out.returncode == 0, out.stdout + out.stderr
    assert runs[0].stdout.startswith("5 graphs, seed 20260814\n")
    assert runs[0].stdout == runs[1].stdout
