"""The census of every graph on at most 7 vertices as an oracle of record:
decomposition and bound checks on all 1,253 of them, m2 checks on the 41
irreducible pieces among them (connected, biconnected, every edge in a
4-clique), the smallest complete test set for the solver."""

import random
from itertools import combinations

from raagh import SolverConfig, compute_h, compute_m2, make_graph, m2_heuristic

from oracles import (cliques_oracle, connected_components, graphs_up_to,
                     induced_subgraph_oracle, integer_order_scan)


def _irreducible(g):
    in4 = {e for c in cliques_oracle(g, 4) for e in combinations(c, 2)}
    return bool(g.edges) and in4.issuperset(g.edges) and all(
        len(connected_components(induced_subgraph_oracle(
            g, [u for u in range(g.n) if u != v])[0])) == 1
        for v in range(g.n))


def _relabeled(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _summary(rep):
    return (rep.m2.m2, rep.exact, rep.lower_trivial, rep.lower_cohomological,
            rep.upper)


def test_reports_of_every_graph_on_at_most_7_vertices():
    # both modes; an assembled m2 is the whole graph's, with the same
    # witness when exhaustive, and the heuristic finds m2 on every piece
    rnd = random.Random(43)
    assembled = 0
    for g in (g for graphs in graphs_up_to(7) for g in graphs):
        h = _relabeled(g, rnd)
        for heuristic in (False, True):
            rep = compute_h(g, heuristic=heuristic)
            assert rep.lower_trivial <= rep.lower_cohomological <= rep.upper
            if rep.exact is not None:
                assert rep.lower_cohomological <= rep.exact.value <= rep.upper
            assert rep.lower_cohomological == 2 * rep.b2 - rep.m2.upper, g
            if rep.m2_mode == "assembled" and rep.b4 <= 28:
                whole = compute_m2(g)
                assert rep.m2.m2 == whole.m2, g
                assert heuristic or rep.m2 == whole, g
                assembled += 1
            assert _summary(compute_h(h, heuristic=heuristic)) == _summary(rep), g
    assert assembled == 2 * 360


def test_m2_of_the_41_irreducible_pieces_on_at_most_7_vertices():
    pieces = [g for graphs in graphs_up_to(7) for g in graphs if _irreducible(g)]
    assert len(pieces) == 41
    scanned = 0
    for g in pieces:
        b4 = len(cliques_oracle(g, 4))
        res = compute_m2(g, SolverConfig(cap=max(28, b4)))  # K7 has b4 = 35
        if b4 <= 14:
            assert (res.m2, res.witness.value) == integer_order_scan(g), g
            scanned += 1
        guess = m2_heuristic(g)
        assert guess.m2 <= res.m2 <= guess.upper, g
        if guess.exhaustive:
            assert guess.m2 == res.m2, g
    assert scanned == 35
