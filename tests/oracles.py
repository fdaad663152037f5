"""Slow, independent reimplementations used to cross-check the fast paths.

The clique, rank, form-matrix and m2 oracles live in raagh.verification,
which the acceptance checks share; they are re-exported here under the same
names.  The helpers below stay test-only: the package counts components by
its own bitmask flood fill and never builds disjoint unions, its symplectic
reduction forms Mv from the rows of M, its scan is a branch and bound that
integer_order_scan checks, its heuristic walks its seeds in sorted order
where heuristic_oracle ranks each one in seed order, its term rank grows
a matching where term_rank_oracle minimizes a cover, its maximal cliques
are read off its clique walk where maximal_cliques_oracle tests every
clique of cliques_oracle for an extending vertex, its induced subgraphs
read the adjacency masks of their own vertices where
induced_subgraph_oracle scans every edge of the graph,
canonical_key_oracle is canonical_key without any pruning, and
count_automorphisms backtracks over vertex maps where the package searches
the individualize-refine tree, and parse_edge_list_oracle strips, tests and
splits each line and builds a checked Graph where the package splits each
line once and builds its Graph unchecked, and report_document_oracle
builds the --json document as dicts for json.dumps(doc, indent=2) where
the package writes its text from templates, and parts_oracle takes the
blocks of the whole graph of 4-cliques and rows where the package takes
them from the classes of cliques that shared triangles join, and
kernel_oracle reduces a list-of-lists matrix column by column where the
package reads the kernel off its one bitmask echelon.  graphs_up_to lists every
graph up to isomorphism by canonical_key, and sparse_blocks_edges draws
large sparse graphs of many small blocks.  Expected values in the tests
were frozen from these.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import cache
from itertools import combinations

import raagh.solver
from raagh import (AlphaVector, FamilyCertificate, Graph, ParseError,
                   build_cup_form, canonical_key, induced_subgraph, make_graph,
                   parity_ceiling, rank_gf2, substitute)
from raagh.graphs import (_check_vertex_count, _clip, _decimal, _mask_bits,
                          biconnected_blocks)
from raagh.verification import (cliques_oracle, form_matrix_oracle, m2_oracle,
                                rank_oracle)

__all__ = ["canonical_key_oracle", "cliques_oracle", "connected_components",
           "count_automorphisms", "disjoint_union", "form_matrix_oracle",
           "graphs_up_to", "group_order", "heuristic_oracle",
           "induced_subgraph_oracle", "integer_order_scan", "kernel_oracle",
           "m2_oracle",
           "matvec", "maximal_cliques_oracle", "pair",
           "parse_edge_list_oracle", "parts_oracle", "random_gnp", "rank_oracle",
           "report_document_oracle", "rows_to_lists", "sparse_blocks_edges",
           "term_rank_oracle"]


def rows_to_lists(rows, ncols: int) -> list[list[int]]:
    return [[row >> c & 1 for c in range(ncols)] for row in rows]


def kernel_oracle(mat: list[list[int]], ncols: int) -> list[list[int]]:
    """Right kernel of a list-of-lists GF(2) matrix with ncols columns:
    textbook reduction to reduced row echelon form, then one vector per
    free column, in increasing order, with a 1 at the free column and at
    each pivot column whose reduced row holds it."""
    mat = [row[:] for row in mat]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    out = []
    for free in range(ncols):
        if free not in pivots:
            vec = [0] * ncols
            vec[free] = 1
            for r, c in enumerate(pivots):
                vec[c] = mat[r][free]
            out.append(vec)
    return out


def integer_order_scan(g):
    """(m2, first witness) by substitute + rank_gf2 over every encoding in
    increasing order; stops at the parity ceiling, which no rank passes."""
    t = build_cup_form(g)
    ceiling = parity_ceiling(t.dim)
    best, witness = -1, 0
    for value in range(1 << t.num_cliques):
        rank = rank_gf2(substitute(t, AlphaVector(value, t.num_cliques)).rows)
        if rank > best:
            best, witness = rank, value
            if rank >= ceiling:
                break
    return best, witness


def term_rank_oracle(rows) -> int:
    """Term rank of a support given as row masks of columns, by Konig's
    theorem: the fewest rows and columns covering every entry, over every
    set of covering rows (2^rows sets, so small supports only)."""
    best = len(rows)
    for chosen in range(1 << len(rows)):
        columns = 0
        for r, row in enumerate(rows):
            if not chosen >> r & 1:
                columns |= row
        best = min(best, chosen.bit_count() + columns.bit_count())
    return best


def heuristic_oracle(g):
    """(m2, witness, radical_dim, exhaustive) of m2_heuristic, all of its
    result but the upper bound, by ranking each seed with substitute +
    rank_gf2 in seed order, stopping at the first to reach the parity
    ceiling.  The seeds come from raagh.solver._heuristic_seeds, looked up
    at call time."""
    template = build_cup_form(g)
    b2, b4 = template.dim, template.num_cliques
    if b4 == 0:
        return 0, AlphaVector(0, 0), b2, True
    ceiling = parity_ceiling(b2)
    best_rank, best_alpha = -1, 0
    for value in raagh.solver._heuristic_seeds(g, template):
        r = rank_gf2(substitute(template, AlphaVector(value, b4)).rows)
        if r > best_rank or (r == best_rank and value < best_alpha):
            best_rank, best_alpha = r, value
            if r >= ceiling:
                break
    return (best_rank, AlphaVector(best_alpha, b4), b2 - best_rank,
            best_rank >= ceiling)


def matvec(mat, x: int) -> int:
    """Mx over GF(2), one parity per row."""
    out = 0
    for r, row in enumerate(mat.rows):
        out |= ((row & x).bit_count() & 1) << r
    return out


def pair(mat, x: int, y: int) -> int:
    """The bilinear form x^T M y over GF(2)."""
    return (x & matvec(mat, y)).bit_count() & 1


def random_gnp(n: int, p: float, seed: int):
    """Deterministic G(n, p) edge list (not a Graph, to stay independent)."""
    rnd = random.Random(seed)
    return [e for e in combinations(range(n), 2) if rnd.random() < p]


def maximal_cliques_oracle(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques in lexicographic order: the cliques of every size
    from cliques_oracle that no other vertex is adjacent to all of.  The
    0-vertex graph has one, the empty clique."""
    return tuple(sorted(
        c for k in range(g.n + 1) for c in cliques_oracle(g, k)
        if not any(all(g.has_edge(u, v) for v in c)
                   for u in range(g.n) if u not in c)))


def induced_subgraph_oracle(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """induced_subgraph by a scan of every edge of g, keeping those with
    both ends among the vertices, into a checked Graph."""
    vmap = tuple(sorted(set(vertices)))
    back = {v: i for i, v in enumerate(vmap)}
    edges = [(back[u], back[v]) for u, v in g.edges if u in back and v in back]
    labels = tuple(g.label(v) for v in vmap) if g.labels is not None else None
    return Graph(len(vmap), tuple(edges), labels), vmap


def connected_components(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    """Components as (subgraph, vertex map) pairs, ordered by least vertex."""
    neighbours: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen = [False] * g.n
    parts = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack, part = [start], []
        seen[start] = True
        while stack:
            u = stack.pop()
            part.append(u)
            for v in neighbours[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        parts.append(induced_subgraph(g, part))
    return parts


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union with vertices renumbered block by block."""
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return make_graph(offset, edges)


def canonical_key_oracle(g: Graph):
    """canonical_key without any pruning: individualization-refinement that
    branches on every vertex of each target cell, so it visits at least
    |Aut(g)| leaves, and keeps the least leaf edge tuple."""
    n, adj = g.n, g.adjacency
    if n == 0:
        return (0, ())

    def refine(colors):
        while True:
            sigs = [(colors[v], tuple(sorted(colors[u] for u in range(n)
                                             if adj[v] >> u & 1)))
                    for v in range(n)]
            order = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = tuple(order[s] for s in sigs)
            if new == colors:
                return colors
            colors = new

    best = None

    def search(colors):
        nonlocal best
        cells = sorted({c for c in colors if colors.count(c) > 1})
        if not cells:
            perm = sorted(range(n), key=lambda v: colors[v])
            pos = {v: i for i, v in enumerate(perm)}
            key = tuple(sorted(tuple(sorted((pos[u], pos[v])))
                               for u, v in g.edges))
            if best is None or key < best:
                best = key
            return
        fresh = max(colors) + 1
        for v in range(n):
            if colors[v] == cells[0]:
                split = list(colors)
                split[v] = fresh
                search(refine(tuple(split)))

    search(refine((0,) * n))
    return (n, best)


def parts_oracle(clique_rows) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The parts of raagh.solver._parts, (cliques, outer rows) in order of
    least clique, from the bipartite graph of 4-cliques and rows, each
    clique joined to its six rows: a row separates when it lies in two or
    more blocks, and a part is the cliques of the blocks joined through
    shared clique nodes, with the separating rows of those blocks."""
    b4 = len(clique_rows)
    incidence = {(q, b4 + r) for q, contribs in enumerate(clique_rows)
                 for r, _bit in contribs}
    graph = make_graph(1 + max(v for _q, v in incidence), incidence)
    merged = []   # (clique mask, row mask) per part
    seen = separating = 0
    for block in biconnected_blocks(graph):
        cliques = sum(1 << v for v in block if v < b4)
        rows = sum(1 << (v - b4) for v in block if v >= b4)
        separating |= seen & rows
        seen |= rows
        for other in [m for m in merged if m[0] & cliques]:
            merged.remove(other)
            cliques |= other[0]
            rows |= other[1]
        merged.append((cliques, rows))
    return sorted((tuple(_mask_bits(cliques)), tuple(_mask_bits(rows & separating)))
                  for cliques, rows in merged)


def group_order(gens, n: int) -> int:
    """Order of the permutation group the generators span, by closure."""
    identity = tuple(range(n))
    seen, frontier = {identity}, [identity]
    for a in frontier:
        for p in gens:
            b = tuple(p[a[v]] for v in range(n))
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return len(seen)


def count_automorphisms(g: Graph) -> int:
    """|Aut(g)| by backtracking: vertex v is mapped after 0..v-1, to an
    unused vertex with the same adjacency to their images."""
    adj = [[g.has_edge(u, v) for v in range(g.n)] for u in range(g.n)]

    def extend(images):
        v = len(images)
        if v == g.n:
            return 1
        return sum(extend(images + [w]) for w in range(g.n)
                   if w not in images
                   and all(adj[u][v] == adj[images[u]][w] for u in range(v)))

    return extend([])


@cache
def graphs_up_to(n: int) -> tuple[tuple[Graph, ...], ...]:
    """Every graph with at most n vertices up to isomorphism, one tuple per
    vertex count.  Each graph on n vertices is a graph on n - 1 vertices
    plus vertex n - 1 joined to some subset of the others, in all 2^(n-1)
    ways; the first graph with each canonical_key is kept.  Cached, so the
    tests that walk the same census share one copy of it."""
    if n == 0:
        return ((make_graph(0, []),),)
    levels = graphs_up_to(n - 1)
    kept = {}
    for g in levels[-1]:
        for mask in range(1 << (n - 1)):
            h = make_graph(n, g.edges + tuple(
                (u, n - 1) for u in range(n - 1) if mask >> u & 1))
            kept.setdefault(canonical_key(h), h)
    return levels + (tuple(kept.values()),)


def parse_edge_list_oracle(text: str) -> Graph:
    """parse_graph(text, "edges") as the package read it before its one-split
    parser, except that a repeated directive silently replaced the first:
    every line errors first, then the vertices directive's range, then
    each edge's errors in order."""
    declared_n = None
    certificate = None
    raw_edges: list[tuple[str, str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.lower().startswith("vertices:"):
                try:
                    declared_n = _decimal(body.split(":", 1)[1].strip())
                except ValueError:
                    raise ParseError(f"line {lineno}: bad vertices directive") from None
            elif body.lower().startswith("certificate:"):
                try:
                    certificate = FamilyCertificate.from_dict(
                        json.loads(body.split(":", 1)[1]))
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: bad certificate comment ({exc})") from None
            continue
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {_clip(stripped)!r}")
        raw_edges.append((parts[0], parts[1], lineno))

    ids: dict[int, int] = {}
    if declared_n is not None:
        _check_vertex_count(declared_n, "vertices directive")

    def vertex(token: str, lineno: int) -> int:
        try:
            value = _decimal(token)
        except ValueError:
            raise ParseError(f"line {lineno}: vertex {_clip(token)!r} "
                             "is not an integer") from None
        if token[:1] == "-":
            raise ParseError(f"line {lineno}: out-of-range index {_clip(token)}")
        if declared_n is not None:
            if value >= declared_n:
                raise ParseError(f"line {lineno}: out-of-range index "
                                 f"{_clip(str(value))} (n={declared_n})")
            return value
        if value not in ids:
            ids[value] = len(ids)
        return ids[value]

    seen = set()
    for tu, tv, lineno in raw_edges:
        u, v = vertex(tu, lineno), vertex(tv, lineno)
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {_clip(tu)}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge {_clip(tu)} {_clip(tv)}")
        seen.add(key)

    if declared_n is None:
        n = _check_vertex_count(len(ids), "vertex count")
    else:
        n = declared_n
    labels = None
    if declared_n is None and any(ids[k] != k for k in ids):
        labels = tuple(map(str, ids))
    return Graph(n, tuple(sorted(seen)), labels, certificate)


def sparse_blocks_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """A large sparse edge list of many small blocks (not a Graph): a tree
    edge from each vertex to one of the 8 before it, a K4 on 4 random
    vertices of each 12-vertex window, every 6 vertices, then random edges
    of span under 20, up to 3n edges."""
    rnd = random.Random(seed)
    edges = {(rnd.randrange(max(0, v - 8), v), v) for v in range(1, n)}
    for start in range(0, n - 11, 6):
        edges.update(combinations(sorted(rnd.sample(range(start, start + 12), 4)), 2))
    # every edge so far spans under 20 too, so this many can be reached
    target = min(3 * n, sum(min(19, n - 1 - u) for u in range(n)))
    while len(edges) < target:
        u = rnd.randrange(n)
        v = u + rnd.randrange(1, 20)
        if v < n:
            edges.add((u, v))
    return sorted(edges)


def _exact_dict(exact):
    if exact is None:
        return None
    return {"value": exact.value, "provenance": exact.provenance,
            "theorem_grade": exact.theorem_grade}


def report_document_oracle(g: Graph, report, config, requested_mode: str,
                           elapsed: float | None = None) -> dict:
    """The --json report as a dict in schema-1 key order, one dict per
    decomposition piece, for json.dumps(doc, indent=2)."""
    digest = hashlib.sha256(
        (f"{g.n};" + ",".join(f"{u}-{v}" for u, v in g.edges)).encode()).hexdigest()
    decomp = report.decomposition
    doc = {
        "schema_version": 1,
        "input": {"vertices": g.n, "edges": len(g.edges), "sha256": digest},
        "invariants": {
            "betti": list(report.betti_numbers),
            "b1": report.betti_numbers[1] if len(report.betti_numbers) > 1 else 0,
            "b2": report.b2,
            "b4": report.b4,
        },
        "m2": {
            "value": report.m2.m2,
            "witness": report.m2.witness.to_bitstring(),
            "radical_dim": report.m2.radical_dim,
            "exhaustive": report.m2.exhaustive,
            "mode": report.m2_mode,
        },
        "bounds": {
            "lower_trivial": report.lower_trivial,
            "lower_cohomological": report.lower_cohomological,
            "upper": report.upper,
        },
        "exact": _exact_dict(report.exact),
        "decomposition": None if decomp is None else {
            "free_edges": [list(e) for e in decomp.free_edges],
            "pieces": [{"vertices": list(p.vertices),
                        "b2": p.report.b2,
                        "b4": p.report.b4,
                        "m2": p.report.m2.m2,
                        "exhaustive": p.report.m2.exhaustive,
                        "exact": _exact_dict(p.report.exact)}
                       for p in decomp.pieces],
            "aggregate_exact": _exact_dict(decomp.aggregate_exact),
        },
        "solver": {"cap": config.cap, "workers": config.workers,
                   "mode": requested_mode},
    }
    if elapsed is not None:
        doc["timings"] = {"total_seconds": round(elapsed, 3)}
    return doc
