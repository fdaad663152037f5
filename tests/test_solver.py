import multiprocessing
import random
from itertools import combinations

import pytest

import raagh.solver
from raagh import (AlphaVector, CapExceeded, FamilyCertificate, M2Result,
                   SolverConfig, betti, build_cup_form, compute_m2,
                   generate_family, m2_heuristic, make_graph, parity_ceiling,
                   radical_at, rank_gf2, substitute)
from raagh.graphs import _twins, biconnected_blocks
from raagh.solver import (_augment, _descend, _glued_m2, _heuristic_seeds,
                          _orbit_checks, _parts, _parts_worth_scanning, _plan,
                          _scan, _term_rank, _top)

from oracles import (form_matrix_oracle, heuristic_oracle, integer_order_scan,
                     m2_oracle, parts_oracle, random_gnp, rank_oracle,
                     term_rank_oracle)


def small_random_graphs(count, seed0, max_b4=10):
    """Seeded stream of graphs whose exhaustive scan stays tiny."""
    out = []
    seed = seed0
    while len(out) < count:
        seed += 1
        rnd = random.Random(seed)
        n = rnd.randint(4, 9)
        g = make_graph(n, random_gnp(n, rnd.choice((0.4, 0.55, 0.7)), seed))
        if len(build_cup_form(g).cliques) <= max_b4:
            out.append(g)
    return out


# --------------------------------------------------------------------------
# exhaustive scan against the oracle
# --------------------------------------------------------------------------

@pytest.mark.parametrize("idx", range(30))
def test_exhaustive_m2_and_witness_match_full_scan(idx):
    g = small_random_graphs(30, 2026)[idx]
    res = compute_m2(g)
    m2, witness = m2_oracle(g)
    assert res.m2 == m2
    assert res.exhaustive
    # among encodings of maximal rank the scan keeps the smallest, except
    # when the parity ceiling lets it stop at the first one it proves maximal
    if res.m2 < parity_ceiling(betti(g)[2]):
        assert res.witness.value == witness


def k4_glued_on_last_edge(n, p, seed):
    """G(n, p) plus a K4 on n-2, n-1, n, n+1: its 4-clique sorts last."""
    k4 = combinations(range(n - 2, n + 2), 2)
    return make_graph(n + 2, sorted(set(random_gnp(n, p, seed)) | set(k4)))


# b4 >= 14: two full scans whose first maximizers lie past 8192, and a
# ceiling hit at 17869 that needs the last clique
MANY_BLOCK_GRAPHS = {
    "gnp-11-b4-15": lambda: make_graph(11, random_gnp(11, 0.5, 9)),
    "gnp-8-b4-14": lambda: make_graph(8, random_gnp(8, 0.75, 148)),
    "glued-ceiling-b4-15": lambda: k4_glued_on_last_edge(9, 0.65, 1641),
}


@pytest.mark.parametrize("name", sorted(MANY_BLOCK_GRAPHS))
def test_scan_across_many_blocks_matches_integer_order(name):
    g = MANY_BLOCK_GRAPHS[name]()
    b4 = len(build_cup_form(g).cliques)
    assert b4 >= 14
    m2, witness = integer_order_scan(g)
    assert witness > 8192
    if name.startswith("glued-ceiling"):
        assert m2 == parity_ceiling(betti(g)[2])
    for cfg in (SolverConfig(), SolverConfig(workers=2)):
        res = compute_m2(g, cfg)
        assert (res.m2, res.witness, res.exhaustive) == (
            m2, AlphaVector(witness, b4), True)


def relabeled(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def scan_battery(count, seed):
    """Seeded graphs with 1 <= b4 <= 14, drawn in turn as G(n, p), G(n, p)
    plus a relabeled copy, and unions of K4s, where every edge lies in a
    4-clique and the parity ceiling is often reached."""
    rnd = random.Random(seed)
    out, draws = [], 0
    while len(out) < count:
        n = rnd.randint(5, 8)
        kind = draws % 3
        if kind < 2:
            edges = random_gnp(n, rnd.choice((0.45, 0.6, 0.75, 0.9)),
                               rnd.getrandbits(32))
        else:
            edges = set()
            for _ in range(rnd.randint(2, 4)):
                edges |= set(combinations(sorted(rnd.sample(range(n), 4)), 2))
        g = make_graph(n, sorted(edges))
        if not 1 <= len(build_cup_form(g).cliques) <= 14:
            continue
        draws += 1
        out.append(g)
        if kind == 1:
            out.append(relabeled(g, rnd))
    return out


def test_branch_and_bound_matches_integer_order_on_a_seeded_battery():
    graphs = scan_battery(300, 6)
    two_workers = SolverConfig(workers=2)
    ceiling_hits = 0
    for idx, g in enumerate(graphs):
        t = build_cup_form(g)
        b4, ceiling = t.num_cliques, parity_ceiling(t.dim)
        m2, witness = integer_order_scan(g)
        ceiling_hits += m2 == ceiling
        expected = (m2, AlphaVector(witness, b4), True)
        res = compute_m2(g)
        assert (res.m2, res.witness, res.exhaustive) == expected, idx
        if idx % 4 == 3:
            res = compute_m2(g, two_workers)
            assert (res.m2, res.witness, res.exhaustive) == expected, idx
        # orbit pruning below the b4 gate compute_m2 applies
        plan = _plan(t.clique_rows)
        checks = _orbit_checks(g, t, plan)
        assert _scan(plan, ceiling, checks=checks)[:2] == (m2, witness), idx
    assert ceiling_hits >= 20


# --------------------------------------------------------------------------
# gluing at separating edges
# --------------------------------------------------------------------------

def random_side(rnd):
    """(vertices, edges) of a side to glue: K4, K5 or K6 (K7 alone has 35
    4-cliques), or a biconnected G(m, p) plus a K4 on 0..3, on 5..7
    vertices.  Every side holds the 4-clique 0..3."""
    if rnd.random() < 0.5:
        m = rnd.randint(4, 6)
        return m, set(combinations(range(m), 2))
    while True:
        m = rnd.randint(5, 7)
        edges = set(random_gnp(m, rnd.choice((0.6, 0.75, 0.9)),
                               rnd.getrandbits(32)))
        edges |= set(combinations(range(4), 2))
        if biconnected_blocks(make_graph(m, edges)) == [tuple(range(m))]:
            return m, edges


def glued_battery(count, seed, min_b4=2, max_b4=13):
    """Seeded graphs glued from random sides along single edges, drawn in
    turn as a pair on one edge, three or four sides on one edge, and a
    chain of 2-4 sides, each glued on an edge of the one before; every
    other graph is relabeled.  min_b4 <= b4 <= max_b4."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) // 2 % 3
        edges, n = set(), 0

        def place(onto):
            """Put a fresh side with its edge 01 on the edge onto (or
            apart); returns the side's 4-clique 0..3 as parent vertices."""
            nonlocal n
            m, side = random_side(rnd)
            shared = list(onto) if onto else []
            vmap = shared + list(range(n, n + m - len(shared)))
            n += m - len(shared)
            edges.update(tuple(sorted((vmap[a], vmap[b]))) for a, b in side)
            return vmap[:4]

        def k4_edge(core, avoid=None):
            pairs = [e for e in combinations(core, 2) if e != avoid]
            return rnd.choice(pairs)

        core = place(None)
        if kind == 0:
            place(k4_edge(core))
        elif kind == 1:
            e = k4_edge(core)
            for _ in range(rnd.randint(2, 3)):
                place(e)
        else:
            e = None
            for _ in range(rnd.randint(1, 3)):
                e = k4_edge(core, e)
                core = place(e)
                e = tuple(core[:2])
        g = make_graph(n, sorted(edges))
        if not min_b4 <= len(build_cup_form(g).cliques) <= max_b4:
            continue
        out.append(relabeled(g, rnd) if len(out) % 2 else g)
    return out


def test_gluing_matches_integer_order_on_a_seeded_battery():
    # the reference scan costs 1-2 s per graph at b4 = 16-17, and m2_oracle
    # up to 0.6 s at b4 = 8, so one graph goes past b4 = 13 and the oracle
    # checks the relabeled half
    graphs = glued_battery(48, 8) + glued_battery(1, 9, 15, 17)
    two_workers = SolverConfig(workers=2)
    glued_count = cut = 0
    for idx, g in enumerate(graphs):
        t = build_cup_form(g)
        b4, ceiling = t.num_cliques, parity_ceiling(t.dim)
        m2, witness = integer_order_scan(g)
        expected = (m2, AlphaVector(witness, b4), True)
        res = compute_m2(g)
        assert (res.m2, res.witness, res.exhaustive) == expected, idx
        if b4 <= 8 and idx % 2:
            assert m2_oracle(g)[0] == m2, idx
        if idx % 4 == 0:
            res = compute_m2(g, two_workers)
            assert (res.m2, res.witness, res.exhaustive) == expected, idx
        cut += _parts_worth_scanning(t) is not None
        # the gluing itself, whether or not compute_m2 would take it here
        parts = _parts(t)
        if len(parts) == 1:
            continue
        glued = _glued_m2(t.clique_rows, parts)
        glued_count += 1
        assert glued == m2, idx
        # the witness scan prunes at least what the parent-style scan does
        plan = _plan(t.clique_rows)
        rank, alpha, nodes = _scan(plan, m2, m2 - 2)
        assert (rank, alpha) == (m2, witness), idx
        assert nodes <= _scan(plan, ceiling)[2], idx
        checks = _orbit_checks(g, t, plan)
        assert _scan(plan, m2, m2 - 2, checks)[:2] == (m2, witness), idx
    assert glued_count >= 40 and cut >= 10


def k4s_graph(*k4s):
    n = 1 + max(max(k4) for k4 in k4s)
    return make_graph(n, {e for k4 in k4s for e in combinations(k4, 2)})


def pendant_k5(u, v, first):
    """The five K4s of a K5 on the edge uv and vertices first..first+2."""
    return tuple(tuple(sorted(k4)) for k4 in combinations(
        (u, v, first, first + 1, first + 2), 4))


# the two parts on either side of the hung pieces share both of their
# separating rows: they close a cycle, so they are one part
CYCLE_GRAPHS = {
    # K4s ab01, 01cd, ab23, 23cd (a, b, c, d = 4..7) with a K5 hung on ab
    # and on cd
    "two-paths": lambda: k4s_graph(
        (0, 1, 4, 5), (0, 1, 6, 7), (2, 3, 4, 5), (2, 3, 6, 7),
        *pendant_k5(4, 5, 8), *pendant_k5(6, 7, 11)),
    # a ring of eight K4s, each sharing an edge with the next, with a K4
    # hung on two opposite ring edges
    "ring": lambda: k4s_graph(
        *(tuple(sorted({2 * i % 16, (2 * i + 1) % 16, (2 * i + 2) % 16,
                        (2 * i + 3) % 16})) for i in range(8)),
        (0, 1, 16, 17), (8, 9, 18, 19)),
}


@pytest.mark.parametrize("name", sorted(CYCLE_GRAPHS))
def test_parts_on_a_cycle_merge_into_one_part(name):
    g = CYCLE_GRAPHS[name]()
    t = build_cup_form(g)
    parts = _parts(t)
    assert parts == parts_oracle(t.clique_rows)
    # the pieces hung on the two rows, and one part holding both rows
    rows = sorted({outer for _cliques, outer in parts if len(outer) == 2})
    assert len(rows) == 1 and len(parts) == 3
    assert sum(outer == rows[0] for _cliques, outer in parts) == 1
    assert all(len(outer) == 1 for _cliques, outer in parts
               if outer != rows[0])
    m2, witness = integer_order_scan(g)
    assert _glued_m2(t.clique_rows, parts) == m2
    for h in (g, relabeled(g, random.Random(name))):
        res = compute_m2(h)
        assert (res.m2, res.witness.value, res.exhaustive) == (
            integer_order_scan(h) + (True,))


def ring_battery(count, seed):
    """Seeded rings of 4-6 K4s, each sharing an edge with the next, with
    1-3 K4s or K5s hung on ring edges; every other graph is relabeled.
    (Three K4s that pairwise share disjoint edges span a K6.)"""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        k = rnd.randint(4, 6)
        n = 2 * k
        k4s = [tuple(sorted({2 * i % n, (2 * i + 1) % n, (2 * i + 2) % n,
                             (2 * i + 3) % n})) for i in range(k)]
        for _ in range(rnd.randint(1, 3)):
            i = rnd.randrange(k)
            u, v = 2 * i, 2 * i + 1
            if rnd.random() < 0.5:
                k4s.append((u, v, n, n + 1))
                n += 2
            else:
                k4s.extend(pendant_k5(u, v, n))
                n += 3
        g = k4s_graph(*k4s)
        if len(build_cup_form(g).cliques) > 14:
            continue
        out.append(relabeled(g, rnd) if len(out) % 2 else g)
    return out


def test_rings_with_hung_pieces_match_integer_order():
    cycles = 0
    for idx, g in enumerate(ring_battery(24, 10)):
        t = build_cup_form(g)
        m2, witness = integer_order_scan(g)
        parts = _parts(t)
        cycles += any(len(outer) >= 2 for _cliques, outer in parts)
        assert _glued_m2(t.clique_rows, parts) == m2, idx
        res = compute_m2(g)
        assert (res.m2, res.witness, res.exhaustive) == (
            m2, AlphaVector(witness, t.num_cliques), True), idx
        plan = _plan(t.clique_rows)
        checks = _orbit_checks(g, t, plan)
        assert _scan(plan, m2, m2 - 2, checks)[:2] == (m2, witness), idx
    assert cycles >= 5


def test_parts_of_clique_strings_and_stars():
    # K5s on a path of shared edges: one part per K5, the inner ones with
    # two outer rows
    t = build_cup_form(generate_family(FamilyCertificate.clique_string(5, 3)))
    assert [(len(c), len(o)) for c, o in _parts(t)] == [
        (5, 1), (5, 2), (5, 1)]
    # three K4s on the edge 01 share one outer row; a K4 touching the
    # others in one vertex only is a part with no outer row
    g = k4s_graph((0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 6, 7), (7, 8, 9, 10))
    t = build_cup_form(g)
    row01 = t.edges.position[(0, 1)]
    parts = _parts(t)
    assert parts == [((0,), (row01,)), ((1,), (row01,)), ((2,), (row01,)),
                     ((3,), ())]
    # m2 = 6 + 4 + 4 (two sides lose the shared row) + 6
    assert _glued_m2(t.clique_rows, parts) == compute_m2(g).m2 == 20


def test_only_blocks_whose_parts_scan_cheaper_are_cut():
    # K4-strings: many one-clique parts scanned four times each cost more
    # than the pruned 2^8 scan; K5-strings: a few 2^5 scans per K5
    for cert, cut in ((FamilyCertificate.clique_string(4, 8), False),
                      (FamilyCertificate.grid([(0, i) for i in range(8)]), False),
                      (FamilyCertificate.clique_string(5, 2), True),
                      (FamilyCertificate.clique_string(5, 3), True)):
        t = build_cup_form(generate_family(cert))
        assert (_parts_worth_scanning(t) is not None) == cut, cert


def test_blocks_that_shared_triangles_join_skip_the_parts(monkeypatch):
    # K8 minus a matching, face-string-16 and hex side 3 are one part, and
    # shared triangles join all their 4-cliques, so no graph of classes is
    # built; clique-string 5x3 is not joined that way and keeps its three
    # parts
    rnd = random.Random(44)
    graphs = [k8_minus_matching(),
              generate_family(FamilyCertificate.face_string(16)),
              generate_family(FamilyCertificate.hex_triangle(3))]
    graphs += [relabeled(g, rnd) for g in graphs]
    results = [compute_m2(g) for g in graphs]

    def refuse(g):
        raise AssertionError("parts graph built for a block that is one part")

    with monkeypatch.context() as m:
        m.setattr(raagh.solver, "biconnected_blocks", refuse)
        assert [compute_m2(g) for g in graphs] == results
    t = build_cup_form(generate_family(FamilyCertificate.clique_string(5, 3)))
    assert len(_parts_worth_scanning(t)) == 3


def test_parts_worth_scanning_keeps_the_rule_of_its_parts(monkeypatch):
    # None exactly where the parts are one or cost the budget, at the
    # default budget and at budgets like _upper's; some blocks never
    # build their parts graph, and it is built as make_graph would build it
    cost = raagh.solver._PART_SCAN_COST
    built = []
    blocks_of = raagh.solver.biconnected_blocks

    def checked(g):
        assert g.edges == make_graph(g.n, g.edges).edges
        built.append(g)
        return blocks_of(g)

    monkeypatch.setattr(raagh.solver, "biconnected_blocks", checked)
    graphs = (scan_battery(60, 40) + glued_battery(24, 41) + ring_battery(12, 42)
              + symmetric_battery(43))
    exits = 0
    for idx, g in enumerate(graphs):
        t = build_cup_form(g)
        parts = parts_oracle(t.clique_rows)
        for budget in (None, 1000, 511 * _plan(t.clique_rows)[0]):
            limit = 1 << t.num_cliques if budget is None else budget
            spent = sum((cost + (1 << len(c))) << len(o) for c, o in parts)
            examined = limit > 4 * (cost + 2)
            worth = examined and len(parts) > 1 and spent < limit
            before = len(built)
            assert _parts_worth_scanning(t, budget) == (
                parts if worth else None), (idx, budget)
            exits += examined and len(built) == before
    assert exits >= 100 and len(built) >= 50


def test_parts_from_triangle_classes_match_the_oracle():
    # the parts of the small graph of classes and shared rows against the
    # blocks of the whole graph of cliques and rows, on every battery and a
    # relabeled copy of each graph
    rnd = random.Random(45)
    graphs = (glued_battery(48, 8) + scan_battery(120, 6) + ring_battery(24, 5)
              + symmetric_battery(46))
    graphs += [relabeled(g, rnd) for g in graphs]
    split = 0
    for idx, g in enumerate(graphs):
        t = build_cup_form(g)
        parts = _parts(t)
        assert parts == parts_oracle(t.clique_rows), idx
        split += len(parts) > 1
    assert split >= 100


# (m2, part-scan nodes, _scan calls) of one _glued_m2 call on unrelabeled
# clique-strings; they do not depend on the host
PART_SCAN_NODES = {
    (5, 3): (18, 57, 4),
    (5, 5): (30, 57, 4),
    (5, 10): (60, 57, 4),
    (6, 3): (42, 972, 4),
}


@pytest.mark.parametrize("shape", sorted(PART_SCAN_NODES),
                         ids=lambda shape: "%dx%d" % shape)
def test_glued_m2_ranks_each_part_shape_once(monkeypatch, shape):
    """Ranking every delete pattern of every part from scratch took 251
    nodes in 8 scans on 5x3, 497 (16) on 5x5, 1,112 (36) on 5x10 and
    2,291 (8) on 6x3; each plan is now ranked once, and a deleted pattern
    from the part's kept maximum."""
    m2, expected_nodes, expected_scans = PART_SCAN_NODES[shape]
    t = build_cup_form(generate_family(FamilyCertificate.clique_string(*shape)))
    parts = _parts(t)
    scan, counts = raagh.solver._scan, []

    def counted(*args, **kwargs):
        result = scan(*args, **kwargs)
        counts.append(result[2])
        return result

    monkeypatch.setattr(raagh.solver, "_scan", counted)
    assert _glued_m2(t.clique_rows, parts) == m2
    assert (sum(counts), len(counts)) == (expected_nodes, expected_scans)


def test_orbit_checks_are_none_when_no_generator_moves_a_clique():
    # a K4's automorphisms fix its one 4-clique; a K5's move its five
    for n, moved in ((4, False), (5, True)):
        g = make_graph(n, combinations(range(n), 2))
        t = build_cup_form(g)
        checks = _orbit_checks(g, t, _plan(t.clique_rows))
        assert (checks is not None) == moved, n


def test_clique_string_5x3_witness_scan_is_a_few_dozen_nodes():
    t = build_cup_form(generate_family(FamilyCertificate.clique_string(5, 3)))
    plan = _plan(t.clique_rows)
    assert _glued_m2(t.clique_rows, _parts_worth_scanning(t)) == 18
    rank, _alpha, nodes = _scan(plan, 18, 16)
    assert rank == 18 and nodes == 40
    assert _scan(plan, parity_ceiling(t.dim))[2] > 29000


def test_a_scan_from_an_incumbent_reports_no_hit_as_none():
    # no rank is strictly higher than an incumbent m2
    g = generate_family(FamilyCertificate.clique_string(5, 2))
    plan = _plan(build_cup_form(g).clique_rows)
    m2, witness = integer_order_scan(g)
    assert _scan(plan, m2, m2)[:2] == (m2, None)
    assert _scan(plan, m2, m2 - 2)[:2] == (m2, witness)


def test_a_walk_over_every_encoding_is_the_plain_scan():
    for idx, g in enumerate(scan_battery(120, 15)):
        t = build_cup_form(g)
        plan = _plan(t.clique_rows)
        ceiling = parity_ceiling(t.dim)
        every = tuple(range(1 << t.num_cliques))
        assert (_scan(plan, ceiling, trials=every)[:2]
                == _scan(plan, ceiling)[:2]), idx


def test_a_trial_walk_keeps_the_first_maximizer_among_its_trials():
    # seeded subsets, one-element ones among them, drawn unsorted and
    # sorted for the walk, against the reference rank of each trial; the
    # reference form is linear in the functional, so it is summed from the
    # forms of single cliques
    rnd = random.Random(16)
    walks = singles = 0
    for idx, g in enumerate(scan_battery(60, 17)):
        t = build_cup_form(g)
        b4 = t.num_cliques
        plan = _plan(t.clique_rows)
        ceiling = parity_ceiling(t.dim)
        units = [form_matrix_oracle(g, [int(q == c) for c in range(b4)])
                 for q in range(b4)]

        def rank(v):
            mat = [[0] * t.dim for _ in range(t.dim)]
            for q in range(b4):
                if v >> q & 1:
                    mat = [[a ^ b for a, b in zip(row, unit)]
                           for row, unit in zip(mat, units[q])]
            return rank_oracle(mat)

        for size in (1, rnd.randint(1, min(1 << b4, 200)), rnd.randint(1, 24)):
            trials = sorted({rnd.getrandbits(b4) for _ in range(size)})
            ranks = [rank(v) for v in trials]
            best = max(ranks)
            first = trials[ranks.index(best)]
            assert _scan(plan, ceiling, trials=trials)[:2] == (best, first), idx
            # from an incumbent: only a strictly higher rank is a hit
            for incumbent in (best - 2, best):
                expected = (best, first) if best > incumbent else (incumbent, None)
                assert (_scan(plan, ceiling, incumbent, trials=trials)[:2]
                        == expected), idx
            walks += 1
            singles += len(trials) == 1
    assert walks == 180 and singles >= 60


def test_bound_prunes_all_but_a_sliver_of_the_face_string_20_tree():
    # m2 = 60 is one below b2 = 63 and two below what 63 rows could give,
    # so most subtrees are capped at the incumbent; the full tree of
    # 2^20 encodings has 2^21 - 1 nodes
    t = build_cup_form(generate_family(FamilyCertificate.face_string(20)))
    rank, _alpha, nodes = _scan(_plan(t.clique_rows), parity_ceiling(t.dim))
    assert t.num_cliques == 20 and rank == 60
    assert nodes < (1 << 21) // 100


# --------------------------------------------------------------------------
# orbit pruning
# --------------------------------------------------------------------------

def k8_minus_matching():
    return make_graph(8, [e for e in combinations(range(8), 2)
                          if e not in {(0, 1), (2, 3), (4, 5), (6, 7)}])


def blown_up(g, sizes):
    """Vertex v of g replaced by a clique of sizes[v] true twins, the
    cliques of adjacent vertices fully joined."""
    owner = [v for v in range(g.n) for _ in range(sizes[v])]
    return make_graph(len(owner), [
        (a, b) for a, b in combinations(range(len(owner)), 2)
        if owner[a] == owner[b] or g.has_edge(owner[a], owner[b])])


def symmetric_battery(seed):
    """Seeded graphs with large automorphism groups: K5, K6, K8 minus a
    perfect matching and two relabelings of it; twin blow-ups of C5 and of
    hex side 2; and the octahedron K_{2,2,2} with K4s hung on some of its
    edges (on all 12 in the first), relabeled."""
    rnd = random.Random(seed)
    k8m = k8_minus_matching()
    out = [make_graph(5, combinations(range(5), 2)),
           make_graph(6, combinations(range(6), 2)),
           k8m, relabeled(k8m, rnd), relabeled(k8m, rnd)]
    c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    hex2 = generate_family(FamilyCertificate.hex_triangle(2))
    for base in (c5, c5, c5, hex2, hex2, hex2):
        while True:
            g = blown_up(base, [rnd.choice((1, 1, 2, 2, 3))
                                for _ in range(base.n)])
            if 1 <= len(build_cup_form(g).cliques) <= 14:
                break
        out.append(relabeled(g, rnd))
    octahedron = [e for e in combinations(range(6), 2) if e[1] != e[0] + 3]
    for count in (12, 3, 5, 7):
        edges, n = set(octahedron), 6
        for u, v in rnd.sample(octahedron, count):
            edges |= set(combinations((u, v, n, n + 1), 2))
            n += 2
        out.append(relabeled(make_graph(n, sorted(edges)), rnd))
    return out


def twin_swaps(g):
    """The transpositions of each twin with the least of its class."""
    gens = []
    for v, least in enumerate(_twins(g)):
        if least != v:
            p = list(range(g.n))
            p[v], p[least] = least, v
            gens.append(tuple(p))
    return gens


def test_orbit_pruning_matches_integer_order_on_symmetric_graphs(monkeypatch):
    # no generators, twin swaps only, and the full search: the generators
    # change which subtrees are skipped, never (m2, witness)
    pruned, counts = 0, []
    for idx, g in enumerate(symmetric_battery(12)):
        t = build_cup_form(g)
        plan = _plan(t.clique_rows)
        ceiling = parity_ceiling(t.dim)
        m2, witness = integer_order_scan(g)
        plain_nodes = _scan(plan, ceiling)[2]
        for generators in (lambda h: [], twin_swaps,
                           raagh.solver._automorphism_generators):
            with monkeypatch.context() as m:
                m.setattr(raagh.solver, "_automorphism_generators", generators)
                checks = _orbit_checks(g, t, plan)
            rank, alpha, nodes = _scan(plan, ceiling, checks=checks)
            assert (rank, alpha) == (m2, witness), idx
            assert nodes <= plain_nodes, idx
            assert _scan(plan, m2, m2 - 2, checks)[:2] == (m2, witness), idx
        pruned += nodes < plain_nodes
        counts.append(nodes)
        res = compute_m2(g)
        assert (res.m2, res.witness.value) == (m2, witness), idx
    assert pruned >= 10
    # the nodes of the full search's scans; equal counts mean the same
    # subtrees were skipped
    assert counts == [17, 138, 570, 570, 570, 93, 36, 14, 7, 55, 412, 79, 7,
                      16, 29]


def test_orbit_pruning_cuts_the_k8_minus_matching_scan():
    # |Aut| = 384; the unpruned scan visits 16,530 nodes
    g = k8_minus_matching()
    t = build_cup_form(g)
    plan = _plan(t.clique_rows)
    ceiling = parity_ceiling(t.dim)
    assert _scan(plan, ceiling)[2] == 16530
    rank, alpha, nodes = _scan(plan, ceiling, checks=_orbit_checks(g, t, plan))
    assert (rank, alpha) == (22, 1650) and nodes == 570


def ring_of_k5s():
    """Four K5s in a ring, the i-th on the edges (2i, 2i+1) and (2i+2,
    2i+3) mod 8 that it shares with its neighbours and its own vertex
    8 + i: one part, b4 = 20, T = 36, m2 = 24."""
    return make_graph(12, {e for i in range(4) for e in combinations(
        (2 * i, 2 * i + 1, (2 * i + 2) % 8, (2 * i + 3) % 8, 8 + i), 2)})


# the nodes of compute_m2's descent, each pass from its own incumbent; they
# do not depend on the host, and equal counts mean the same skips
DESCENT_NODES = {
    "k8-minus-matching": (k8_minus_matching, 446),
    "hex-side-4": (lambda: generate_family(FamilyCertificate.hex_triangle(4)),
                   1410),
    "clique-string-5x5": (
        lambda: generate_family(FamilyCertificate.clique_string(5, 5)), 7638),
    "ring-of-4-k5s": (ring_of_k5s, 82348),
    "k7-minus-an-edge": (lambda: make_graph(7, [
        e for e in combinations(range(7), 2) if e != (0, 1)]), 191169),
}


@pytest.mark.parametrize("name", sorted(DESCENT_NODES))
def test_the_descent_visits_a_pinned_number_of_nodes(monkeypatch, name):
    build, expected = DESCENT_NODES[name]
    counts = []
    descend = raagh.solver._descend

    def counted(*args, **kwargs):
        result = descend(*args, **kwargs)
        counts.append(result[2])
        return result

    monkeypatch.setattr(raagh.solver, "_descend", counted)
    compute_m2(build())
    assert counts == [expected]


def test_parts_sharing_no_row_skip_the_generator_search(monkeypatch):
    # 28 disjoint K4s split into parts with no outer rows; the generator
    # search there takes about half a second for a scan of a few nodes
    g = make_graph(112, [e for i in range(0, 112, 4)
                         for e in combinations(range(i, i + 4), 2)])
    assert all(not outer for _cliques, outer in
               _parts_worth_scanning(build_cup_form(g)))

    def refuse(h):
        raise AssertionError("generator search on parts that share no row")

    monkeypatch.setattr(raagh.solver, "_automorphism_generators", refuse)
    res = compute_m2(g, SolverConfig(cap=28))
    assert (res.m2, res.witness.value, res.exhaustive) == (168, (1 << 28) - 1, True)


# --------------------------------------------------------------------------
# term-rank bound and descending targets
# --------------------------------------------------------------------------

# (row masks of columns, term rank)
HAND_BUILT_SUPPORTS = [
    ([], 0),
    ([0b0], 0),
    # three rows on two columns
    ([0b11, 0b11, 0b11], 2),
    # the first row's greedy pick blocks the second: one augmenting path
    ([0b11, 0b01], 2),
    # an odd term rank: the rows of a triangle's adjacency
    ([0b110, 0b101, 0b011], 3),
    # an empty row between rows that compete for column 2
    ([0b100, 0b000, 0b110, 0b100], 2),
    # a 4-cycle's rows plus a pendant column reached only from row 3
    ([0b1010, 0b0101, 0b1010, 0b10101], 4),
]


def test_term_rank_matches_the_brute_force_oracle():
    for rows, expected in HAND_BUILT_SUPPORTS:
        assert term_rank_oracle(rows) == expected, rows
        assert _term_rank(rows) == expected, rows
    rnd = random.Random(31)
    for _ in range(300):
        nrows, ncols = rnd.randint(1, 8), rnd.randint(1, 8)
        density = rnd.choice((0.15, 0.3, 0.5))
        rows = [sum(1 << c for c in range(ncols) if rnd.random() < density)
                for _ in range(nrows)]
        assert _term_rank(rows) == term_rank_oracle(rows), rows


def test_a_repaired_matching_grows_back_to_the_term_rank():
    # as at a cut of the scan: entries leave a maximum matching's support,
    # the matching keeps its surviving pairs, and every free row is tried
    # again; a row that was free before may be the one that augments
    rnd = random.Random(32)
    for _ in range(300):
        n = rnd.randint(2, 8)
        rows = [rnd.getrandbits(n) for _ in range(n)]
        mate, owner = [0] * n, {}
        _augment(rows, mate, owner, 0, n)
        adj = list(rows)
        for r in range(n):
            adj[r] &= ~rnd.getrandbits(n) | rnd.getrandbits(n)
        size = 0
        for r in range(n):
            if mate[r] and not adj[r] & mate[r]:
                del owner[mate[r]]
                mate[r] = 0
            size += mate[r] != 0
        assert _augment(adj, mate, owner, size, n + 1) == term_rank_oracle(adj)
        assert sorted(owner.values()) == [r for r in range(n) if mate[r]]
        assert all(adj[r] & c for c, r in owner.items())
        # a need at or below the size stops at once
        assert _augment(adj, mate, owner, 1, 1) == 1


def descending_battery():
    """scan_battery, glued, ring and symmetric graphs, and hex triangles of
    side 2 and 3 under two relabelings each."""
    rnd = random.Random(33)
    hexes = [relabeled(generate_family(FamilyCertificate.hex_triangle(side)),
                       rnd) for side in (2, 3) for _ in range(2)]
    return (scan_battery(80, 34) + glued_battery(18, 35) + ring_battery(8, 36)
            + symmetric_battery(37) + hexes)


def test_descending_scan_matches_integer_order(monkeypatch):
    # with orbit checks and without, with the cut term-rank test at no cut
    # and at every cut; compute_m2 with the test forced at every cut and
    # parts scanned by descent whatever their size
    monkeypatch.setattr(raagh.solver, "_TERM_RANK_B4", 0)
    monkeypatch.setattr(raagh.solver, "_TERM_RANK_LEVELS", 64)
    monkeypatch.setattr(raagh.solver, "_PART_DESCENT_CLIQUES", 0)
    below = 0
    for idx, g in enumerate(descending_battery()):
        t = build_cup_form(g)
        plan = _plan(t.clique_rows)
        m2, witness = integer_order_scan(g)
        top = _top(plan)
        assert m2 <= top <= parity_ceiling(t.dim), idx
        below += top < parity_ceiling(t.dim)
        for checks in (None, _orbit_checks(g, t, plan)):
            for terms in (None, 0):
                assert _descend(plan, top, checks, terms)[:2] == (m2, witness), idx
        parts = _parts(t)
        if len(parts) > 1:
            assert _glued_m2(t.clique_rows, parts) == m2, idx
        res = compute_m2(g)
        assert (res.m2, res.witness.value, res.exhaustive) == (m2, witness, True), idx
    assert below >= 40


def test_each_descent_pass_visits_no_more_than_the_plain_scan():
    # every pass prunes at least where the plain scan does, so on a block
    # whose term rank meets m2 the one pass is a subset of the plain scan
    tight = 0
    for idx, g in enumerate(scan_battery(60, 38)):
        t = build_cup_form(g)
        plan = _plan(t.clique_rows)
        rank, _alpha, plain = _scan(plan, parity_ceiling(t.dim))
        if _top(plan) == rank:
            assert _descend(plan, rank)[2] <= plain, idx
            tight += 1
    assert tight >= 30


def test_hex_side_4_is_pinned():
    # the parent of the term-rank bound took about 9 s for this, with the
    # same (m2, witness); the root bound is m2, twelve below the ceiling
    g = generate_family(FamilyCertificate.hex_triangle(4))
    t = build_cup_form(g)
    assert (t.num_cliques, parity_ceiling(t.dim), _top(_plan(t.clique_rows))) == (
        24, 48, 36)
    res = compute_m2(g)
    assert (res.m2, res.witness.value, res.exhaustive) == (36, 9047697, True)


@pytest.mark.parametrize("cert, searched", [
    (FamilyCertificate.face_string(16), False),
    (FamilyCertificate.clique_string(5, 3), False),
    (FamilyCertificate.clique_string(5, 4), True),
], ids=["face-string-16", "clique-string-5x3", "clique-string-5x4"])
def test_the_generator_search_runs_only_where_it_pays(monkeypatch, cert,
                                                      searched):
    # face-strings have no twins and the reversal alone; a split block
    # below b4 = 18 has a witness scan of a few dozen nodes
    calls = []
    search = raagh.solver._automorphism_generators

    def counted(h):
        calls.append(h)
        return search(h)

    monkeypatch.setattr(raagh.solver, "_automorphism_generators", counted)
    compute_m2(relabeled(generate_family(cert), random.Random(39)))
    assert bool(calls) == searched
    calls.clear()
    compute_m2(k8_minus_matching())
    assert len(calls) == 1


def test_ceiling_early_exit_keeps_first_maximiser():
    # a graph whose m2 hits the parity ceiling: early exit must return the
    # same witness the no-early-exit scan finds first
    g = generate_family(FamilyCertificate.grid([(0, 0), (1, 0), (2, 0)]))
    res = compute_m2(g)
    m2, witness = m2_oracle(g)
    assert res.m2 == m2 == parity_ceiling(betti(g)[2])
    assert res.witness.value == witness


@pytest.mark.parametrize("idx", range(12))
def test_m2_is_even_and_radical_complements_rank(idx):
    g = small_random_graphs(12, 9000)[idx]
    res = compute_m2(g)
    b2 = betti(g)[2]
    assert res.m2 % 2 == 0
    assert res.radical_dim == b2 - res.m2
    # the witness really achieves the reported rank
    t = build_cup_form(g)
    assert rank_gf2(substitute(t, res.witness).rows) == res.m2


def test_graph_without_4_cliques_short_circuits():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    res = compute_m2(g)
    assert res == M2Result(0, AlphaVector(0, 0), betti(g)[2], True, 0)


def test_parity_ceiling_values():
    assert [parity_ceiling(k) for k in range(6)] == [0, 0, 2, 2, 4, 4]


# --------------------------------------------------------------------------
# cap handling
# --------------------------------------------------------------------------

def test_cap_exceeded_carries_sizes():
    g = generate_family(FamilyCertificate.clique_string(6, 2))
    with pytest.raises(CapExceeded) as exc:
        compute_m2(g)
    assert exc.value.b4 == 30 and exc.value.cap == 28
    assert "30" in str(exc.value) and "28" in str(exc.value)


def test_cap_is_configurable():
    g = generate_family(FamilyCertificate.clique_string(4, 1))  # b4 = 1
    with pytest.raises(CapExceeded):
        compute_m2(g, SolverConfig(cap=0))
    assert compute_m2(g, SolverConfig(cap=1)).m2 == 6


# --------------------------------------------------------------------------
# worker count
# --------------------------------------------------------------------------

def test_worker_count_does_not_change_results():
    graphs = small_random_graphs(8, 31337, max_b4=9)
    graphs.append(make_graph(8, [e for e in combinations(range(8), 2)
                                 if e not in {(0, 1), (2, 3), (4, 5), (6, 7)}]))
    for g in graphs:
        baseline = compute_m2(g)
        for workers in (2, 8):
            cfg = SolverConfig(workers=workers)
            assert compute_m2(g, cfg) == baseline


def test_scan_starts_no_process_whatever_the_worker_count(monkeypatch):
    # K8 minus a perfect matching: b4 = 16, scanned whole
    g = k8_minus_matching()
    expected = compute_m2(g)

    def no_process(*args, **kwargs):
        raise AssertionError("the scan started a process")

    monkeypatch.setattr(multiprocessing, "get_context", no_process)
    monkeypatch.setattr(multiprocessing, "Pool", no_process)
    assert compute_m2(g, SolverConfig(workers=8)) == expected


# --------------------------------------------------------------------------
# heuristic mode
# --------------------------------------------------------------------------

@pytest.mark.parametrize("idx", range(10))
def test_heuristic_never_beats_and_often_matches_exhaustive(idx):
    g = small_random_graphs(10, 5150)[idx]
    exact = compute_m2(g)
    heur = m2_heuristic(g)
    assert heur.m2 % 2 == 0
    assert heur.m2 <= exact.m2
    t = build_cup_form(g)
    assert rank_gf2(substitute(t, heur.witness).rows) == heur.m2


def clique_tree(rnd, count):
    """count K5s and K4s, drawn at random, each after the first glued along
    an edge of an earlier one: a block that splits at the glued edges."""
    cliques = [tuple(range(rnd.choice((4, 5))))]
    n = len(cliques[0])
    for _ in range(count - 1):
        u, v = rnd.sample(rnd.choice(cliques), 2)
        size = rnd.choice((4, 5))
        cliques.append((u, v) + tuple(range(n, n + size - 2)))
        n += size - 2
    return make_graph(n, {e for c in cliques
                          for e in combinations(sorted(c), 2)})


def heuristic_battery(seed):
    """Seeded G(n, p) with n 5..14; relabeled complete graphs K6..K8 and
    clique-strings s = 4..7, k = 1..3, and 5xk for k = 4, 6 and 10 (over
    the cap); face-strings 8..40 and hex triangles of side 2 and 3,
    relabeled; seeded trees of 2..5 K5s and K4s glued along edges."""
    rnd = random.Random(seed)
    out = []
    for _ in range(40):
        n = rnd.randint(5, 14)
        p = rnd.choice((0.35, 0.5, 0.65)) if n > 10 else rnd.choice((0.5, 0.7, 0.9))
        out.append(make_graph(n, random_gnp(n, p, rnd.getrandbits(32))))
    certs = [FamilyCertificate.complete(n) for n in (6, 7, 8)]
    certs += [FamilyCertificate.clique_string(s, k)
              for s in range(4, 8) for k in range(1, 4)]
    certs += [FamilyCertificate.clique_string(5, k) for k in (4, 6, 10)]
    certs += [FamilyCertificate.face_string(k) for k in (8, 13, 20, 28, 40)]
    certs += [FamilyCertificate.hex_triangle(k) for k in (2, 3)]
    out += [relabeled(generate_family(c), rnd) for c in certs]
    out += [clique_tree(rnd, rnd.randint(2, 5)) for _ in range(12)]
    return out


def found(res):
    """What heuristic_oracle reproduces of an m2 result: all but upper."""
    return res.m2, res.witness, res.radical_dim, res.exhaustive


def test_heuristic_matches_the_seed_order_oracle(monkeypatch):
    graphs = heuristic_battery(18)
    outcomes = set()
    glued = 0
    for idx, g in enumerate(graphs):
        res = m2_heuristic(g)
        assert found(res) == heuristic_oracle(g), idx
        outcomes.add(res.exhaustive)
        # below the term rank, the walk stopped at the glued m2
        glued += res.upper < _top(_plan(build_cup_form(g).clique_rows))
    assert outcomes == {False, True}
    assert glued >= 8
    # the pools must fit in b4; (3, 1) and (7, 5, 6, 1) tie and reorder
    pools = ((1,), (3, 1), (7, 5, 6, 1))
    for pool in pools:
        monkeypatch.setattr(raagh.solver, "_heuristic_seeds",
                            lambda g, t, pool=pool: pool)
        for idx, g in enumerate(graphs[::3]):
            if build_cup_form(g).num_cliques >= 3:
                assert found(m2_heuristic(g)) == heuristic_oracle(g), (pool, idx)


def test_heuristic_upper_bound_holds_the_exhaustive_m2():
    # on the scan battery too; an exhaustive result is its own bound
    checked = 0
    for idx, g in enumerate(heuristic_battery(18) + scan_battery(100, 6)):
        t = build_cup_form(g)
        if t.num_cliques <= 20:
            exact, res = compute_m2(g), m2_heuristic(g)
            assert exact.upper == exact.m2, idx
            assert res.m2 <= exact.m2 <= res.upper <= parity_ceiling(t.dim), idx
            assert res.upper % 2 == 0, idx
            assert res.upper == res.m2 or not res.exhaustive, idx
            checked += 1
    assert checked >= 140


def test_heuristic_walk_stops_at_the_glued_m2(monkeypatch):
    # clique-string 5x3: term rank 28 = the ceiling, glued m2 18; the walk
    # stops at the least trial of rank 18 instead of visiting all of them
    g = relabeled(generate_family(FamilyCertificate.clique_string(5, 3)),
                  random.Random(5))
    walks = []
    scan = raagh.solver._scan

    def counted(plan, ceiling, best=-1, checks=None, trials=None, terms=None):
        out = scan(plan, ceiling, best, checks, trials, terms)
        if trials is not None:
            walks.append((len(trials), out[2]))
        return out

    monkeypatch.setattr(raagh.solver, "_scan", counted)
    res = m2_heuristic(g)
    assert res.m2 == 18 and not res.exhaustive
    [(trials, nodes)] = walks
    assert nodes < trials
    monkeypatch.undo()
    assert found(res) == heuristic_oracle(g)


@pytest.mark.parametrize("cert, first", [
    (FamilyCertificate.complete(7), 2),
    (FamilyCertificate.clique_string(7, 2), 20),
], ids=["complete-7", "clique-string-7x2"])
def test_heuristic_witness_is_the_first_seed_at_the_ceiling(cert, first):
    # a random seed reaches the ceiling first, not the all-ones probe
    g = generate_family(cert)
    t = build_cup_form(g)
    seeds = _heuristic_seeds(g, t)
    res = m2_heuristic(g)
    assert res.exhaustive and res.m2 == parity_ceiling(t.dim)
    assert res.witness.value == seeds[first]
    assert all(rank_gf2(substitute(t, AlphaVector(v, t.num_cliques)).rows)
               < res.m2 for v in seeds[:first])
    assert found(res) == heuristic_oracle(g)


def test_heuristic_is_deterministic():
    g = make_graph(7, combinations(range(7), 2))
    a, b = m2_heuristic(g), m2_heuristic(g)
    assert a == b
    assert not a.exhaustive or a.m2 == parity_ceiling(betti(g)[2])


def test_heuristic_certifies_itself_at_the_parity_ceiling():
    # K6: ceiling = b2 = 15 -> 14; the heuristic reaches 14 and may then
    # report its answer as exact
    g = make_graph(6, combinations(range(6), 2))
    res = m2_heuristic(g)
    assert res.m2 == 14
    assert res.exhaustive


def test_explicit_seed_vectors_override_the_default_pool(monkeypatch):
    g = make_graph(7, combinations(range(7), 2))
    b4 = len(build_cup_form(g).cliques)
    monkeypatch.setattr(raagh.solver, "_heuristic_seeds", lambda g, t: (1,))
    res = m2_heuristic(g)
    # alpha = first 4-clique only: rank 6, the K4 sub-answer
    assert res.m2 == 6 and res.witness == AlphaVector(1, b4)


def test_default_seed_pool_is_deduplicated_and_in_range():
    g = generate_family(FamilyCertificate.clique_string(5, 2))
    t = build_cup_form(g)
    seeds = _heuristic_seeds(g, t)
    assert len(seeds) == len(set(seeds))
    assert all(0 <= s < (1 << len(t.cliques)) for s in seeds)
    assert seeds[0] == (1 << len(t.cliques)) - 1  # all-ones probe first


def test_heuristic_on_capped_graph_runs_and_lower_bounds():
    g = generate_family(FamilyCertificate.clique_string(6, 2))  # b4 = 30
    res = m2_heuristic(g)
    b2 = betti(g)[2]
    assert res.m2 == parity_ceiling(b2) == 28
    assert res.exhaustive  # ceiling hit is a certificate


# --------------------------------------------------------------------------
# radicals at chosen functionals
# --------------------------------------------------------------------------

def test_radical_at_full_alpha_on_4_strings():
    # even-length strings keep one outer-edge relation; odd lengths reach
    # full rank, so the radical alternates dim 1 / dim 0
    for k, expect in ((2, ("z12+z56",)), (3, ()), (4, ("z12+z56+z9,10",))):
        g = generate_family(FamilyCertificate.clique_string(4, k))
        t = build_cup_form(g)
        alpha = AlphaVector((1 << t.num_cliques) - 1, t.num_cliques)
        rad = radical_at(g, alpha)
        assert rad.rendered == expect
        assert rad.dim == len(expect)
        assert rad.alpha == alpha


def test_radical_of_join_graph_at_witness_and_at_full_alpha():
    g = make_graph(5, [(u, v) for u, v in combinations(range(5), 2)
                       if (u, v) != (0, 4)])
    res = compute_m2(g)
    assert (res.m2, res.witness.value) == (6, 1)
    # first clique only: the radical is the three edges it does not see
    at_witness = radical_at(g, res.witness)
    assert at_witness.rendered == ("z25", "z35", "z45")
    assert at_witness.dim == betti(g)[2] - res.m2
    # both cliques on: the same dimension, now as paired relations
    at_full = radical_at(g, AlphaVector.from_bits((1, 1)))
    assert at_full.rendered == ("z12+z25", "z13+z35", "z14+z45")
