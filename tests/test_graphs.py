import math
import random
from itertools import combinations

import pytest

import raagh.graphs
from raagh import (FamilyCertificate, Graph, ParseError, betti,
                   canonical_key, enumerate_cliques, generate_family,
                   is_isomorphic, make_graph, maximal_cliques, parse_graph,
                   recognize_family, serialize_graph, to_dot,
                   verify_certificate)
from raagh.graphs import (_automorphism_generators, _census,
                          biconnected_blocks, induced_subgraph)
from raagh.hbounds import decompose_h

from oracles import (canonical_key_oracle, cliques_oracle,
                     connected_components, count_automorphisms,
                     disjoint_union, graphs_up_to, group_order,
                     induced_subgraph_oracle, maximal_cliques_oracle,
                     parse_edge_list_oracle, random_gnp)


def join_graph():
    """Two 4-cliques glued along a shared triangle: 5 vertices, all pairs
    adjacent except the two degree-3 endpoints."""
    return make_graph(5, [(u, v) for u, v in combinations(range(5), 2)
                          if (u, v) != (0, 4)])


# --------------------------------------------------------------------------
# cliques and betti numbers
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_clique_enumeration_matches_oracle(seed):
    rnd = random.Random(seed)
    n = rnd.randint(3, 9)
    g = make_graph(n, random_gnp(n, 0.5, seed * 7 + 1))
    for k in range(1, 6):
        got = list(enumerate_cliques(g, k).cliques)
        assert got == cliques_oracle(g, k)
        assert got == sorted(got)  # lexicographic


@pytest.mark.parametrize("n", range(1, 11))
def test_betti_complete_graph_is_binomial_row(n):
    g = make_graph(n, combinations(range(n), 2))
    assert betti(g) == tuple(math.comb(n, k) for k in range(n + 1))


def test_betti_of_join_graph():
    assert betti(join_graph()) == (1, 5, 9, 7, 2)


def test_betti_counts_components_in_degree_zero():
    g = disjoint_union(make_graph(3, [(0, 1), (1, 2)]),
                       make_graph(2, []))
    assert betti(g)[0] == 3
    assert betti(make_graph(0, ())) == (0,)


@pytest.mark.parametrize("seed", range(6))
def test_betti_b0_matches_connected_components(seed):
    rnd = random.Random(seed)
    for _ in range(20):
        n = rnd.randint(0, 14)
        g = make_graph(n, random_gnp(n, rnd.choice((0.05, 0.15, 0.3)),
                                     rnd.randrange(2 ** 31)))
        assert betti(g)[0] == len(connected_components(g))


def test_betti_k5_with_pendant_triangle_fan():
    # K5 plus one extra vertex joined to three of its vertices
    edges = list(combinations(range(5), 2)) + [(2, 5), (3, 5), (4, 5)]
    assert betti(make_graph(6, edges)) == (1, 6, 13, 13, 6, 1)


@pytest.mark.parametrize("seed", range(4))
def test_betti_counts_every_clique_size_like_the_oracle(seed):
    rnd = random.Random(seed)
    for _ in range(60):
        n = rnd.randint(0, 9)
        g = make_graph(n, random_gnp(n, rnd.choice((0.2, 0.5, 0.8, 0.95)),
                                     rnd.randrange(2 ** 31)))
        numbers = betti(g)
        for k in range(1, len(numbers)):
            assert numbers[k] == len(cliques_oracle(g, k))
        assert cliques_oracle(g, len(numbers)) == []


def _assert_census(g):
    """The census is the Betti numbers, the 4-cliques and the vertex masks
    of the maximal cliques; maximal_cliques reads them as tuples."""
    maximal = maximal_cliques_oracle(g)
    masks = tuple(sum(1 << v for v in c) for c in maximal if c)
    assert _census(g) == (betti(g), enumerate_cliques(g, 4).cliques, masks)
    assert maximal_cliques(g) == maximal


@pytest.mark.parametrize("seed", range(3))
def test_census_is_the_betti_numbers_and_the_4_cliques(seed):
    rnd = random.Random(seed)
    for n in range(4):
        _assert_census(make_graph(n, combinations(range(n), 2)))
    isolated = 0
    for _ in range(40):
        n = rnd.randint(0, 10)
        g = make_graph(n, random_gnp(n, rnd.choice((0.3, 0.5, 0.7, 0.9)),
                                     rnd.randrange(2 ** 31)))
        _assert_census(g)
        isolated += g.adjacency.count(0)
    assert isolated  # each is a maximal clique of its own


@pytest.mark.parametrize("seed", range(3))
def test_free_edges_are_those_in_no_4_clique(seed):
    rnd = random.Random(seed)
    for _ in range(40):
        n = rnd.randint(0, 10)
        g = make_graph(n, random_gnp(n, rnd.choice((0.3, 0.5, 0.7)),
                                     rnd.randrange(2 ** 31)))
        in4 = {e for c in cliques_oracle(g, 4) for e in combinations(c, 2)}
        assert decompose_h(g).free_edges == tuple(e for e in g.edges
                                                  if e not in in4)


def test_maximal_cliques_sorted_and_maximal():
    g = generate_family(FamilyCertificate.clique_string(5, 2))
    mc = maximal_cliques(g)
    assert mc == ((0, 1, 2, 3, 4), (3, 4, 5, 6, 7))
    assert all(c == tuple(sorted(c)) for c in mc)
    empty = make_graph(0, [])
    assert maximal_cliques(empty) == maximal_cliques_oracle(empty) == ((),)


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

@pytest.mark.parametrize("s,k", [(s, k) for s in (4, 5, 6, 7) for k in (1, 2, 3)])
def test_clique_string_counts(s, k):
    g = generate_family(FamilyCertificate.clique_string(s, k))
    assert g.n == (s - 2) * k + 2
    assert len(g.edges) == s * (s - 1) // 2 * k - (k - 1)
    assert len(enumerate_cliques(g, 4)) == math.comb(s, 4) * k


@pytest.mark.parametrize("k", range(1, 8))
def test_face_string_counts(k):
    g = generate_family(FamilyCertificate.face_string(k))
    assert g.n == k + 3
    assert len(g.edges) == 3 * k + 3
    assert len(enumerate_cliques(g, 4)) == k
    # every window of four consecutive vertices is a clique
    assert all(g.has_edge(i, j) == (abs(i - j) <= 3)
               for i in range(g.n) for j in range(i + 1, g.n))


def test_grid_generator_counts_and_validation():
    g = generate_family(FamilyCertificate.grid([(0, 0), (1, 0)]))
    assert g.n == 6 and len(g.edges) == 11
    assert len(enumerate_cliques(g, 4)) == 2
    with pytest.raises(ValueError, match="connected"):
        generate_family(FamilyCertificate.grid([(0, 0), (1, 1)]))
    with pytest.raises(ValueError):
        generate_family(FamilyCertificate.grid([]))


def test_grid_cells_are_canonicalized():
    a = FamilyCertificate.grid([(1, 0), (0, 0), (1, 0)])
    b = FamilyCertificate.grid([(0, 0), (1, 0)])
    assert a == b


def test_hex_triangle_counts():
    g = generate_family(FamilyCertificate.hex_triangle(2))
    assert g.n == 6 and len(g.edges) == 12
    assert len(enumerate_cliques(g, 4)) == 3
    g3 = generate_family(FamilyCertificate.hex_triangle(3))
    assert g3.n == 10 and len(g3.edges) == 27


def test_generators_reject_bad_parameters():
    for cert in (FamilyCertificate.clique_string(3, 2),
                 FamilyCertificate.clique_string(8, 1),
                 FamilyCertificate.clique_string(5, 0),
                 FamilyCertificate.face_string(0),
                 FamilyCertificate.hex_triangle(0)):
        with pytest.raises(ValueError):
            generate_family(cert)


# --------------------------------------------------------------------------
# recognition
# --------------------------------------------------------------------------

def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_recognize_edgeless_and_complete():
    assert recognize_family(make_graph(4, ())) == FamilyCertificate.edgeless(4)
    k6 = make_graph(6, combinations(range(6), 2))
    assert recognize_family(k6) == FamilyCertificate.complete(6)


@pytest.mark.parametrize("s,k", [(4, 2), (4, 5), (5, 2), (5, 4), (6, 3), (7, 2)])
def test_recognize_clique_strings_up_to_relabeling(s, k):
    cert = FamilyCertificate.clique_string(s, k)
    g = generate_family(cert)
    assert recognize_family(g) == cert
    h = _shuffled(g, s * 31 + k)
    assert recognize_family(h) == cert
    assert maximal_cliques(h) == maximal_cliques_oracle(h)


@pytest.mark.parametrize("k", [3, 4, 5, 8, 12])
def test_recognize_face_strings_up_to_relabeling(k):
    cert = FamilyCertificate.face_string(k)
    g = generate_family(cert)
    assert recognize_family(g) == cert
    h = _shuffled(g, k)
    assert recognize_family(h) == cert
    assert maximal_cliques(h) == maximal_cliques_oracle(h)


def test_recognizer_leaves_small_ambiguous_graphs_alone():
    # the 5-vertex join graph doubles as the shortest face-string; it is
    # reported as unrecognized so nothing certifies it by formula
    assert recognize_family(join_graph()) is None
    assert recognize_family(generate_family(FamilyCertificate.face_string(2))) is None
    # a single clique block is already complete
    k4 = generate_family(FamilyCertificate.clique_string(4, 1))
    assert recognize_family(k4) == FamilyCertificate.complete(4)


def test_recognizer_rejects_near_misses():
    g = generate_family(FamilyCertificate.clique_string(4, 3))
    # same counts, but break the chain: move one end edge elsewhere
    edges = set(g.edges)
    edges.remove((6, 7))
    edges.add((0, 5))
    assert recognize_family(make_graph(g.n, edges)) is None


def test_recognizer_rejects_bent_clique_chains():
    # chains whose glue edges share a vertex have exactly the counts of a
    # clique-string but are not isomorphic to one
    tromino = generate_family(FamilyCertificate.grid([(0, 0), (1, 0), (1, 1)]))
    bare = make_graph(tromino.n, tromino.edges)  # strip the certificate
    assert recognize_family(bare) is None
    assert not verify_certificate(bare, FamilyCertificate.clique_string(4, 3))
    cliques = [set(range(5)), {3, 4, 5, 6, 7}, {4, 5, 8, 9, 10}]
    edges = set()
    for c in cliques:
        edges |= set(combinations(sorted(c), 2))
    bent = make_graph(11, edges)
    straight = generate_family(FamilyCertificate.clique_string(5, 3))
    assert (bent.n, len(bent.edges)) == (straight.n, len(straight.edges))
    assert recognize_family(bent) is None


def _perturbed(g, rnd, moves):
    """g with `moves` random edits, each removing an edge, adding a non-edge
    between vertices at most five apart, or both."""
    edges = set(g.edges)
    for _ in range(moves):
        kind = rnd.randrange(3)
        if kind != 1 and edges:
            edges.remove(rnd.choice(sorted(edges)))
        near = [(u, v) for u, v in combinations(range(g.n), 2)
                if v - u <= 5 and (u, v) not in edges]
        if kind != 0 and near:
            edges.add(rnd.choice(near))
    return make_graph(g.n, edges)


def _l_shaped_chain(s):
    """Three K_s glued along two edges that share a vertex."""
    first, second = set(range(s)), set(range(s - 2, 2 * s - 2))
    third = {s - 1, s} | set(range(2 * s - 2, 3 * s - 4))
    edges = set()
    for c in (first, second, third):
        edges |= set(combinations(sorted(c), 2))
    return make_graph(3 * s - 4, edges)


def _check_against_isomorphism(g, cert):
    """recognize_family and verify_certificate(g, cert) answer as
    is_isomorphic(g, generate_family(cert)) does; a recognized family is
    isomorphic to g."""
    iso = is_isomorphic(g, generate_family(cert))
    assert verify_certificate(g, cert) == iso
    found = recognize_family(g)
    if found is not None:
        assert is_isomorphic(g, generate_family(found))
    return iso, found


def test_recognizers_agree_with_isomorphism_on_a_seeded_battery():
    rnd = random.Random(2026)
    recognized = rejected = 0
    for k in range(1, 25):
        cert = FamilyCertificate.face_string(k)
        model = generate_family(cert)
        variants = [model] + [_perturbed(model, rnd, 1 + i % 2) for i in range(10)]
        for g in variants:
            iso, found = _check_against_isomorphism(
                _shuffled(g, rnd.getrandbits(32)), cert)
            if k >= 3:
                assert (found == cert) == iso, (k, g.edges)
            recognized += found == cert
            rejected += not iso
    for s in (4, 5, 6, 7):
        bent = _shuffled(_l_shaped_chain(s), s)
        cert = FamilyCertificate.clique_string(s, 3)
        assert (bent.n, len(bent.edges)) == (generate_family(cert).n,
                                             len(generate_family(cert).edges))
        assert _check_against_isomorphism(bent, cert) == (False, None)
    assert recognized >= 22 and rejected >= 200
    recognized = rejected = 0
    for s in (4, 5, 6, 7):
        for k in range(2, 7):
            cert = FamilyCertificate.clique_string(s, k)
            model = generate_family(cert)
            variants = [model] + [_perturbed(model, rnd, 1 + i % 2) for i in range(6)]
            for g in variants:
                iso, found = _check_against_isomorphism(
                    _shuffled(g, rnd.getrandbits(32)), cert)
                assert (found == cert) == iso, (s, k, g.edges)
                recognized += found == cert
                rejected += not iso
    assert recognized >= 20 and rejected >= 100


def _glued(n, cliques):
    """The graph on n vertices whose edges are those of the given cliques."""
    return make_graph(n, {e for c in cliques for e in combinations(c, 2)})


def test_chain_check_rejects_each_way_a_chain_fails():
    def chain(g, cert):
        overlap = 2 if cert.family == "clique-string" else 3
        return raagh.graphs._chain_order(maximal_cliques(g), overlap)

    # two maximal cliques meet in a triangle, more than a glue edge
    wide = _glued(8, [range(4), range(1, 5), range(4, 8), (3, 5)])
    # a path of two K4s beside a ring of four glued along disjoint edges
    ring = _glued(14, [range(4), range(2, 6), range(4, 8), (6, 7, 0, 1),
                       range(8, 12), range(10, 14)])
    # K6 and an isolated vertex, which no 4-clique holds
    lone = _glued(7, [range(6)])
    for g, cert in ((wide, FamilyCertificate.clique_string(4, 3)),
                    (ring, FamilyCertificate.clique_string(4, 6)),
                    (lone, FamilyCertificate.face_string(4))):
        model = generate_family(cert)
        assert (g.n, len(g.edges)) == (model.n, len(model.edges))
        assert chain(g, cert) is None
        assert not verify_certificate(g, cert)
        assert recognize_family(g) is None
    # a certificate whose model cannot be built: no clique-string of K8s
    eights = _glued(14, [range(8), range(6, 14)])
    assert not verify_certificate(
        eights, FamilyCertificate("clique-string", clique_size=8, count=2))


def test_chain_order_refuses_a_vertex_in_more_cliques_than_a_string_has():
    # a hub on a path of triangles: its maximal cliques chain with overlap
    # 2, but the hub lies in all four, and a string vertex in at most 3
    hub = _glued(10, [(0, 1, 2, 3), (0, 3, 4, 5), (0, 5, 6, 7), (0, 7, 8, 9)])
    assert raagh.graphs._chain_order(maximal_cliques(hub), 2) is None
    # face-string vertices lie in up to 4 cliques, the limit for overlap 3
    face = generate_family(FamilyCertificate.face_string(6))
    chain = raagh.graphs._chain_order(maximal_cliques(face), 3)
    assert [sorted(c) for c in chain] == [list(range(i, i + 4)) for i in range(6)]


def test_a_relabeled_face_string_2000_verifies():
    cert = FamilyCertificate.face_string(2000)
    g = _shuffled(generate_family(cert), 2000)
    assert verify_certificate(g, cert)
    assert not verify_certificate(g, FamilyCertificate.face_string(1999))


def test_recognizer_skips_large_graphs():
    g = generate_family(FamilyCertificate.face_string(45))
    assert g.n > 40
    assert recognize_family(g) is None


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------

def test_verify_certificate_accepts_generated_families():
    for cert in (FamilyCertificate.edgeless(3),
                 FamilyCertificate.complete(5),
                 FamilyCertificate.clique_string(5, 3),
                 FamilyCertificate.face_string(2),
                 FamilyCertificate.grid([(0, 0), (1, 0), (1, 1)]),
                 FamilyCertificate.hex_triangle(2)):
        g = generate_family(cert)
        assert verify_certificate(g, cert)
        assert verify_certificate(_shuffled(g, 99), cert)


def test_verify_certificate_rejects_mismatches():
    g = generate_family(FamilyCertificate.clique_string(4, 2))
    assert not verify_certificate(g, FamilyCertificate.clique_string(4, 3))
    assert not verify_certificate(g, FamilyCertificate.face_string(3))
    assert not verify_certificate(g, FamilyCertificate.complete(6))
    # right counts, wrong structure
    h = generate_family(FamilyCertificate.face_string(3))
    edges = set(h.edges)
    edges.remove((0, 1))
    edges.add((0, 4))
    assert not verify_certificate(make_graph(h.n, edges),
                                  FamilyCertificate.face_string(3))


def test_certificates_of_another_size_are_rejected_before_the_model_is_built(
        monkeypatch):
    def refuse(cert):
        raise AssertionError(f"built the model of {cert}")

    monkeypatch.setattr(raagh.graphs, "generate_family", refuse)
    k4 = make_graph(4, combinations(range(4), 2))
    for cert in (FamilyCertificate.hex_triangle(1000),
                 FamilyCertificate.hex_triangle(3000),
                 FamilyCertificate.clique_string(5, 10 ** 6),
                 FamilyCertificate.face_string(10 ** 9),
                 FamilyCertificate.grid([(0, 0), (5, 5)]),
                 FamilyCertificate.complete(10 ** 6),
                 FamilyCertificate.edgeless(5),
                 FamilyCertificate("hex-triangle"),
                 FamilyCertificate("no-such-family", n=4)):
        assert not verify_certificate(k4, cert)
    # the counts alone settle complete and edgeless graphs
    assert verify_certificate(k4, FamilyCertificate.complete(4))
    assert not verify_certificate(make_graph(4, [(0, 1)]),
                                  FamilyCertificate.complete(4))
    assert verify_certificate(make_graph(4, []), FamilyCertificate.edgeless(4))
    assert not verify_certificate(make_graph(4, [(0, 1)]),
                                  FamilyCertificate.edgeless(4))


def _polyomino(rnd, size):
    """Side-connected cells grown from a random cell by adding a random
    side neighbour of a random cell, until there are size of them."""
    cells = [(rnd.randint(-3, 3), rnd.randint(-3, 3))]
    while len(cells) < size:
        x, y = rnd.choice(cells)
        dx, dy = rnd.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        if (x + dx, y + dy) not in cells:
            cells.append((x + dx, y + dy))
    return cells


def test_family_counts_match_the_generated_graphs():
    rnd = random.Random(38)
    certs = [FamilyCertificate.edgeless(n) for n in range(6)]
    certs += [FamilyCertificate.complete(n) for n in range(9)]
    certs += [FamilyCertificate.clique_string(s, k)
              for s in (4, 5, 6, 7) for k in range(1, 6)]
    certs += [FamilyCertificate.face_string(k) for k in range(1, 9)]
    certs += [FamilyCertificate.hex_triangle(t) for t in range(1, 13)]
    certs += [FamilyCertificate.grid(_polyomino(rnd, rnd.randint(1, 12)))
              for _ in range(300)]
    for cert in certs:
        g = generate_family(cert)
        assert raagh.graphs._family_counts(cert) == (g.n, len(g.edges)), cert


def test_complete_graph_over_the_edge_limit_is_refused_before_it_is_built(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built the graph")

    # the edges of a complete model are its vertex pairs
    monkeypatch.setattr(raagh.graphs, "combinations", refuse)
    # 1449 vertices is under MAX_VERTICES but over 2^20 edges
    for n in (1449, raagh.graphs.MAX_VERTICES):
        with pytest.raises(ValueError, match="edges is over the limit of 1048576"):
            generate_family(FamilyCertificate.complete(n))
    # 1448 vertices, 1047628 edges: under the limit, so it gets built
    with pytest.raises(AssertionError, match="built the graph"):
        generate_family(FamilyCertificate.complete(1448))


@pytest.mark.parametrize("data", [
    {"family": "complete", "n": "x"},
    {"family": "grid", "cells": [1, 2]},
    {"family": "grid", "cells": [[0, 0, 0]]},
    {"family": "hex-triangle", "side": [3]},
    {"family": "hex-triangle", "side": 2.9},
    {"family": "complete", "n": True},
    {"family": "grid", "cells": [[0.5, 1.7]]},
])
def test_certificate_dict_with_non_integer_parameters_is_a_parse_error(data):
    with pytest.raises(ParseError, match="not integers"):
        FamilyCertificate.from_dict(data)


def test_certificate_dict_round_trip():
    for cert in (FamilyCertificate.clique_string(6, 2),
                 FamilyCertificate.grid([(0, 0), (0, 1)]),
                 FamilyCertificate.hex_triangle(3)):
        assert FamilyCertificate.from_dict(cert.to_dict()) == cert


# --------------------------------------------------------------------------
# parsing and serialization
# --------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["edges", "csv", "json"])
def test_round_trip_preserves_structure(fmt):
    # labels are not written, so a labeled graph comes back without them
    labeled = parse_graph("5 9\n9 12\n5 12\n", "edges")
    assert labeled.labels == ("5", "9", "12")
    for g in (join_graph(), labeled):
        h = parse_graph(serialize_graph(g, fmt), fmt)
        assert (h.n, h.edges, h.labels) == (g.n, g.edges, None)


@pytest.mark.parametrize("fmt", ["edges", "json"])
def test_round_trip_preserves_certificate(fmt):
    g = generate_family(FamilyCertificate.clique_string(5, 2))
    h = parse_graph(serialize_graph(g, fmt), fmt)
    assert h.certificate == g.certificate


def test_edge_list_directives():
    g = parse_graph("# vertices: 4\n0 1\n2 3\n", "edges")
    assert g.n == 4 and g.edges == ((0, 1), (2, 3))
    text = '# certificate: {"family": "face-string", "count": 3}\n' \
           + "\n".join(f"{u} {v}" for u, v in
                       generate_family(FamilyCertificate.face_string(3)).edges)
    assert parse_graph(text, "edges").certificate == FamilyCertificate.face_string(3)


def test_edge_list_reads_leading_zeros_as_the_same_vertex():
    g = parse_graph("01 2\n1 3\n", "edges")
    assert g.n == 3 and g.edges == ((0, 1), (0, 2)) and g.labels == ("1", "2", "3")


def test_edge_list_compacts_sparse_ids_and_keeps_labels():
    g = parse_graph("5 9\n9 12\n", "edges")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))
    assert g.labels == ("5", "9", "12")
    # labels survive serialization as a relabeled but isomorphic graph
    again = parse_graph(serialize_graph(g, "edges"), "edges")
    assert again.edges == g.edges


def test_edge_list_skips_blank_lines():
    assert parse_graph("0 1\n\n   \n1 2\n\n", "edges") == parse_graph(
        "0 1\n1 2\n", "edges")


_ODD_TOKENS = ("-0", "+1", "1_0", "\u0663", "9" * 5000, "007", "1x")


def _mutated_edge_list(rnd) -> str:
    """An edge list with a few of: CRLF line ends, tabs and other spaces,
    comments with leading spaces, odd tokens, self-loops, duplicates in
    either order, out-of-range ids, a misplaced or uppercase directive, a
    certificate, a line that is not two tokens.  Half have no vertices
    directive, and their ids are spread out, so they are compacted."""
    n = rnd.randint(2, 10)
    directive = rnd.random() < 0.5
    ids = list(range(n)) if directive else rnd.sample(range(3 * n), n)
    lines = [(f"{ids[u]} {ids[v]}" if rnd.random() < 0.5 else f"{ids[v]} {ids[u]}")
             for u, v in random_gnp(n, 0.5, rnd.randrange(1 << 30))]
    for _ in range(rnd.randint(0, 3)):
        kind = rnd.randrange(8)
        at = rnd.randint(0, len(lines))
        edge_lines = [i for i, line in enumerate(lines)
                      if len(line.split()) == 2 and "#" not in line]
        if kind == 0 and edge_lines:  # a duplicate, in either order
            u, v = lines[rnd.choice(edge_lines)].split()
            lines.insert(at, rnd.choice((f"{u} {v}", f"{v} {u}")))
        elif kind == 1:
            w = rnd.choice(ids)
            lines.insert(at, f"{w} {w}")
        elif kind == 2:  # out of range when declared
            lines.insert(at, f"{rnd.choice(ids)} {n + rnd.randrange(3)}")
        elif kind == 3:
            lines.insert(at, f"{rnd.choice(_ODD_TOKENS)} {rnd.choice(ids)}")
        elif kind == 4:
            lines.insert(at, rnd.choice(("   # a comment", "\t#x", "#", "  ",
                                         "\u00a0", "\t\t")))
        elif kind == 5:  # one directive at most: the reference takes the last
            lines.insert(at, rnd.choice(("1", "1 2 3") if directive
                                        else ("1", "1 2 3", "# vertices: x")))
        elif kind == 6 and not any("certificate" in line for line in lines):
            lines.insert(at, '  # certificate: {"family": "complete", "n": 3}')
        elif kind == 7 and edge_lines:
            at = rnd.choice(edge_lines)
            u, v = lines[at].split()
            lines[at] = rnd.choice((f"\t{u}\t{v}", f"{u}\t {v}  ",
                                    f"{u}\x0b{v}", f" {u} {v}\t"))
    if directive:
        head = rnd.choice(("# vertices: {}", "   # Vertices: {}", "#VERTICES:{}"))
        lines.insert(rnd.randint(0, len(lines)), head.format(n))
    return rnd.choice(("\n", "\r\n")).join(lines) + rnd.choice(("", "\n", "\r\n"))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def test_edge_list_parser_matches_the_reference_parser():
    rnd = random.Random(20261029)
    graphs = errors = 0
    for _ in range(600):
        text = _mutated_edge_list(rnd)
        got = _parse_outcome(lambda t: parse_graph(t, "edges"), text)
        assert got == _parse_outcome(parse_edge_list_oracle, text), text
        if isinstance(got, str):
            errors += 1
        else:
            graphs += 1
            assert got == make_graph(got.n, got.edges, got.labels, got.certificate)
    assert graphs > 150 and errors > 150


@pytest.mark.parametrize("text, message", [
    ("0 1\n1 2\n2 \u0663\n", "line 3: vertex '\u0663' is not an integer"),
    ("# vertices: 9\n0 1\n1 \u00b2\n", "line 3: vertex '\u00b2' is not an integer"),
    ("# caf\u00e9\n0 1\n\uff11 2\n1 -1\n", "line 3: vertex '\uff11' is not an integer"),
    ("# caf\u00e9\n0 1\n1 2\n", None),
], ids=["arabic-indic-three", "superscript-two", "fullwidth-one", "ascii-tokens"])
def test_non_ascii_digit_tokens_are_worded_as_the_reference_words_them(text, message):
    # the text is not ASCII, so each token's own check decides
    got = _parse_outcome(lambda t: parse_graph(t, "edges"), text)
    assert got == _parse_outcome(parse_edge_list_oracle, text)
    if message is None:
        assert got == make_graph(3, [(0, 1), (1, 2)])
    else:
        assert got == f"ParseError: {message}"


@pytest.mark.parametrize("text,fmt,fragment", [
    ("0 0\n", "edges", "self-loop"),
    ("0 1\n1 0\n", "edges", "duplicate"),
    ("0 1\n1\n", "edges", "expected 'u v'"),
    ("0 x\n", "edges", "not an integer"),
    ("1_0 2\n2 3\n", "edges", "not an integer"),
    ("+1 2\n", "edges", "not an integer"),
    ("\u0663 2\n", "edges", "not an integer"),  # ARABIC-INDIC DIGIT THREE
    ("\uff11 2\n", "edges", "not an integer"),  # FULLWIDTH DIGIT ONE
    ("# vertices: 20\n1_0 2\n", "edges", "not an integer"),
    ("0 -1\n", "edges", "out-of-range index -1"),
    ("# vertices: 3\n0 4\n", "edges", "out-of-range"),
    ("# vertices: no\n", "edges", "vertices directive"),
    ("# vertices: 1_1\n0 10\n", "edges", "vertices directive"),
    ("# vertices: +3\n", "edges", "vertices directive"),
    ("# vertices: \u0663\n", "edges", "vertices directive"),
    ("# vertices: -3\n", "edges", "vertices directive must be non-negative"),
    ("# vertices: 3\n0 1\n  # VERTICES: 3\n", "edges",
     "^line 3: repeated vertices directive$"),
    ('# certificate: {"family": "complete", "n": 2}\n0 1\n'
     '#certificate: {"family": "complete", "n": 2}\n', "edges",
     "^line 3: repeated certificate comment$"),
    ("0,1\n1,1\n", "csv", "diagonal"),
    ("0,1\n0,0\n", "csv", "asymmetric"),
    ("0,1,0\n1,0\n0,0,0\n", "csv", "entries"),
    ("0,2\n2,0\n", "csv", "not 0/1"),
    ("{", "json", "invalid JSON"),
    ("[]", "json", "object"),
    ('{"edges": []}', "json", "vertices"),
    ('{"vertices": 2, "edges": [[0, 0]]}', "json", "self-loop"),
    ('{"vertices": 2, "edges": [[0, 3]]}', "json", "out-of-range"),
    ('{"vertices": 2, "edges": [[0, 1], [1, 0]]}', "json", "duplicate"),
])
def test_parse_errors_are_specific(text, fmt, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_graph(text, fmt)


@pytest.mark.parametrize("text,fmt", [
    ("# vertices: 5\n", "edges"),
    ("0 1\n2 3\n4 5\n", "edges"),
    ('{"vertices": 5, "edges": []}', "json"),
    ("\n".join([",".join("0" * 5)] * 5), "csv"),
])
def test_parsers_reject_more_vertices_than_the_limit(text, fmt, monkeypatch):
    monkeypatch.setattr(raagh.graphs, "MAX_VERTICES", 4)
    with pytest.raises(ParseError, match="over the limit of 4"):
        parse_graph(text, fmt)
    monkeypatch.setattr(raagh.graphs, "MAX_VERTICES", 6)
    assert parse_graph(text, fmt).n in (5, 6)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("0 1\n1 2\n2 2\n", "edges")
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("0,1\n1,1\n", "csv")


def test_dot_export_labels_the_vertices_of_a_compacted_graph():
    assert to_dot(parse_graph("5 9\n9 12\n", "edges")) == (
        'graph G {\n  0 [label="5"];\n  1 [label="9"];\n  2 [label="12"];\n'
        '  0 -- 1;\n  1 -- 2;\n}\n')


def test_dot_export_mentions_every_edge():
    g = make_graph(3, [(0, 1)])
    dot = to_dot(g)
    assert "0 -- 1;" in dot and dot.startswith("graph G {")
    assert "  2;" in dot  # isolated vertices still listed


# --------------------------------------------------------------------------
# connectivity helpers
# --------------------------------------------------------------------------

def test_components_and_induced_subgraphs():
    g = disjoint_union(make_graph(3, [(0, 1), (1, 2)]), make_graph(2, [(0, 1)]))
    comps = connected_components(g)
    assert [vmap for _, vmap in comps] == [(0, 1, 2), (3, 4)]
    sub, vmap = induced_subgraph(g, [4, 3])
    assert sub.edges == ((0, 1),) and vmap == (3, 4)


@pytest.mark.parametrize("seed", range(3))
def test_induced_subgraph_matches_the_edge_scan(seed):
    rnd = random.Random(seed)
    for _ in range(40):
        n = rnd.randint(0, 40)
        labels = [f"v{rnd.randrange(1000)}" for _ in range(n)]
        g = make_graph(n, random_gnp(n, rnd.choice((0.1, 0.3, 0.7)),
                                     rnd.randrange(2 ** 31)),
                       labels=labels if rnd.random() < 0.5 else None)
        # unsorted, with repeats, and sometimes empty
        vertices = [rnd.randrange(n) for _ in range(rnd.randint(0, 2 * n))]
        assert induced_subgraph(g, vertices) == induced_subgraph_oracle(
            g, vertices)


def test_biconnected_blocks():
    path = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert sorted(biconnected_blocks(path)) == [(0, 1), (1, 2), (2, 3)]
    wedge = make_graph(7, list(combinations(range(4), 2))
                       + list(combinations((3, 4, 5, 6), 2)))
    assert sorted(biconnected_blocks(wedge)) == [(0, 1, 2, 3), (3, 4, 5, 6)]


def test_free_edges_of_the_join_graph_and_a_triangle():
    assert decompose_h(join_graph()).free_edges == ()
    tri = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert decompose_h(tri).free_edges == tri.edges


# --------------------------------------------------------------------------
# canonical form
# --------------------------------------------------------------------------

def test_canonical_key_detects_isomorphism():
    g = generate_family(FamilyCertificate.clique_string(4, 3))
    assert canonical_key(g) == canonical_key(_shuffled(g, 5))
    assert is_isomorphic(g, _shuffled(g, 17))


def test_canonical_key_separates_non_isomorphic_graphs():
    a = make_graph(4, [(0, 1), (1, 2), (2, 3)])        # path
    b = make_graph(4, [(0, 1), (0, 2), (0, 3)])        # star
    assert canonical_key(a) != canonical_key(b)
    assert not is_isomorphic(a, b)


def _twin_blowup(rnd):
    """Random graph of at most 7 vertices whose vertices come in classes of
    twins: class 0 is a clique (true twins), the others independent sets
    (false twins), and two classes are fully joined or not at all."""
    sizes = [rnd.randint(2, 3), rnd.randint(2, 3)]
    while sum(sizes) < 7 and rnd.random() < 0.7:
        sizes.append(rnd.randint(1, 7 - sum(sizes)))
    joined = set(random_gnp(len(sizes), 0.5, rnd.randrange(2 ** 31)))
    classes = [c for c, size in enumerate(sizes) for _ in range(size)]
    edges = [(u, v) for u, v in combinations(range(len(classes)), 2)
             if (classes[u], classes[v]) in joined
             or classes[u] == classes[v] == 0]
    return _shuffled(make_graph(len(classes), edges), rnd.randrange(2 ** 31))


def _cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _petersen():
    return make_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)])


def _prism3():
    return make_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                          (0, 3), (1, 4), (2, 5)])


# graphs without twins, so that only the automorphisms the search finds
# prune it, each as given and relabeled
TWIN_FREE = [h for g in (_cycle(5), _cycle(6), _cycle(7), _prism3(),
                         _petersen())
             for h in (g, _shuffled(g, 3))]


@pytest.mark.parametrize("seed", range(10))
def test_canonical_key_matches_unpruned_oracle(seed):
    rnd = random.Random(seed)
    graphs = list(TWIN_FREE) if seed == 0 else []
    for _ in range(25):
        n = rnd.randint(0, 7)
        graphs.append(make_graph(n, random_gnp(
            n, rnd.choice((0.3, 0.5, 0.7)), rnd.randrange(2 ** 31))))
        graphs.append(_twin_blowup(rnd))
    for g in graphs:
        assert canonical_key(g) == canonical_key_oracle(g)


@pytest.mark.parametrize("g", [_shuffled(_cycle(40), 1),
                               _shuffled(_petersen(), 1)],
                         ids=["C40", "petersen"])
def test_found_automorphisms_prune_the_canonical_search(monkeypatch, g):
    # without pruning by the automorphisms it finds, the search
    # individualizes 120 times on C40 and 190 times on the Petersen graph
    calls = []
    individualize = raagh.graphs._individualize

    def counted(nbrs, colors, v):
        calls.append(v)
        return individualize(nbrs, colors, v)

    monkeypatch.setattr(raagh.graphs, "_individualize", counted)
    canonical_key(g)
    assert len(calls) <= g.n


def test_census_of_graphs_on_at_most_7_vertices():
    # OEIS A000088; every generator set spans the whole of Aut, and the
    # maximal cliques of all 1,253 graphs are the oracle's
    levels = graphs_up_to(7)
    assert [len(graphs) for graphs in levels] == [1, 1, 2, 4, 11, 34, 156,
                                                  1044]
    for g in (g for graphs in levels for g in graphs):
        assert maximal_cliques(g) == maximal_cliques_oracle(g), g
        if g.n == 7:
            gens = _automorphism_generators(g)
            _assert_automorphisms(g, gens)
            assert group_order(gens, 7) == count_automorphisms(g), g


def test_relabeled_one_row_grid_certificate_verifies():
    # |Aut| >= 2^9: the two corners of each of the 9 columns are twins
    cert = FamilyCertificate.grid(tuple((x, 0) for x in range(8)))
    assert verify_certificate(_shuffled(generate_family(cert), 3), cert)


@pytest.mark.parametrize("g", [
    generate_family(FamilyCertificate.clique_string(7, 2)),
    make_graph(10, combinations(range(10), 2)),
], ids=["clique-string-7x2", "K10"])
def test_is_isomorphic_on_graphs_made_of_twins(g):
    assert is_isomorphic(g, _shuffled(g, 11))


def _edge_swapped(g, rnd):
    """g with edges ab and cd, on four distinct vertices, replaced by ac
    and bd where neither is an edge: the same counts and degree sequence.
    None when the drawn pairs admit no such swap."""
    edges = set(g.edges)
    for _ in range(20):
        (a, b), (c, d) = rnd.sample(sorted(edges), 2)
        if rnd.random() < 0.5:
            c, d = d, c
        ac, bd = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if len({a, b, c, d}) == 4 and ac not in edges and bd not in edges:
            return make_graph(g.n, (edges - {(a, b), tuple(sorted((c, d)))})
                              | {ac, bd})
    return None


ISOMORPHISM_FAMILIES = (
    FamilyCertificate.grid([(x, 0) for x in range(8)]),
    FamilyCertificate.grid([(x, y) for x in range(3) for y in range(2)]),
    FamilyCertificate.grid([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]),
    FamilyCertificate.hex_triangle(2),
    FamilyCertificate.hex_triangle(3),
    FamilyCertificate.clique_string(5, 3),
    FamilyCertificate.face_string(6),
)


def test_is_isomorphic_agrees_with_canonical_keys():
    # relabeled family members; degree-preserving swaps of them and of
    # random graphs, relabeled, with the same counts and degree sequence;
    # and every pair of classes with equal counts on at most 6 vertices,
    # one of them relabeled
    rnd = random.Random(47)
    pairs = []
    for cert in ISOMORPHISM_FAMILIES:
        g = generate_family(cert)
        pairs.append((_shuffled(g, rnd.getrandbits(32)), g))
        pairs.append((g, _shuffled(g, rnd.getrandbits(32))))
    bases = [generate_family(cert) for cert in ISOMORPHISM_FAMILIES]
    bases += [make_graph(n, random_gnp(n, 0.5, seed))
              for seed, n in enumerate(range(6, 12))]
    for g in bases:
        for _ in range(4):
            h = _edge_swapped(g, rnd)
            if h is not None:
                pairs.append((_shuffled(h, rnd.getrandbits(32)), g))
    for graphs in graphs_up_to(6):
        for a, b in combinations(graphs, 2):
            if len(a.edges) == len(b.edges):
                pairs.append((a, _shuffled(b, rnd.getrandbits(32))))
    apart = 0
    for a, b in pairs:
        same = canonical_key(a) == canonical_key(b)
        assert is_isomorphic(a, b) == is_isomorphic(b, a) == same, (a, b)
        apart += not same
    assert apart >= 1000 and len(pairs) - apart >= 14


def test_certificates_verify_without_keying_either_graph(monkeypatch):
    # the search of the input stops at the model's first leaf key, so the
    # full search behind canonical_key never runs; the bent grid has the
    # counts of the straight one and is rejected the same way
    straight = FamilyCertificate.grid([(x, 0) for x in range(8)])
    bent = generate_family(FamilyCertificate.grid(
        [(x, 0) for x in range(7)] + [(6, 1)]))
    graphs = [(_shuffled(generate_family(cert), 48), cert)
              for cert in (straight, FamilyCertificate.hex_triangle(3))]

    def refuse(self):
        raise AssertionError("canonical search of a whole graph")

    monkeypatch.setattr(Graph, "_canonical", property(refuse))
    for g, cert in graphs:
        assert verify_certificate(g, cert)
    assert (bent.n, len(bent.edges)) == (generate_family(straight).n,
                                         len(generate_family(straight).edges))
    assert not verify_certificate(_shuffled(bent, 49), straight)


# --------------------------------------------------------------------------
# automorphism generators
# --------------------------------------------------------------------------

def _assert_automorphisms(g, gens):
    edges = set(g.edges)
    for p in gens:
        assert sorted(p) == list(range(g.n))
        assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == edges


def _k8_minus_matching():
    return make_graph(8, [(u, v) for u, v in combinations(range(8), 2)
                          if v != u + 4])


@pytest.mark.parametrize("seed", range(6))
def test_automorphism_generators_span_aut_on_small_graphs(seed):
    # random graphs and twin blow-ups on at most 7 vertices, and the
    # twin-free graphs: the generated group is the whole of Aut
    rnd = random.Random(seed)
    graphs = list(TWIN_FREE) if seed == 0 else []
    for _ in range(15):
        n = rnd.randint(0, 7)
        graphs.append(make_graph(n, random_gnp(
            n, rnd.choice((0.3, 0.5, 0.7)), rnd.randrange(2 ** 31))))
        graphs.append(_twin_blowup(rnd))
    for g in graphs:
        gens = _automorphism_generators(g)
        _assert_automorphisms(g, gens)
        assert group_order(gens, g.n) == count_automorphisms(g), g


SYMMETRIC_EXAMPLES = {
    "k8-minus-matching": (_k8_minus_matching(), 384),
    "K7": (make_graph(7, combinations(range(7), 2)), 5040),
    "hex-3": (generate_family(FamilyCertificate.hex_triangle(3)), 6),
    "clique-string-5x3": (
        generate_family(FamilyCertificate.clique_string(5, 3)), 288),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_EXAMPLES))
def test_automorphism_generators_of_the_symmetric_examples(name):
    g, order = SYMMETRIC_EXAMPLES[name]
    for h in (g, _shuffled(g, 7)):
        gens = _automorphism_generators(h)
        _assert_automorphisms(h, gens)
        assert group_order(gens, h.n) == order
