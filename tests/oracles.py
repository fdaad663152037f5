"""Slow, independent reimplementations used to cross-check the fast paths.

The clique, rank, form-matrix, m2 and canonical-key oracles live in
raagh.verification, which the acceptance checks share; they are re-exported
here under the same names.  The helpers below stay test-only: the package
counts components by its own bitmask flood fill and never builds disjoint
unions, its symplectic reduction forms Mv from the rows of M, and its
scan is a branch and bound that integer_order_scan checks.  Expected
values in the tests were frozen from these.
"""

from __future__ import annotations

from itertools import combinations

from raagh import (AlphaVector, Graph, build_cup_form, induced_subgraph,
                   make_graph, parity_ceiling, rank_gf2, substitute)
from raagh.verification import (canonical_key_oracle, cliques_oracle,
                                form_matrix_oracle, m2_oracle, rank_oracle)

__all__ = ["canonical_key_oracle", "cliques_oracle", "connected_components",
           "disjoint_union", "form_matrix_oracle", "integer_order_scan",
           "m2_oracle", "matvec", "pair", "random_gnp", "rank_oracle",
           "rows_to_lists"]


def rows_to_lists(rows, ncols: int) -> list[list[int]]:
    return [[row >> c & 1 for c in range(ncols)] for row in rows]


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
    import random

    rnd = random.Random(seed)
    return [e for e in combinations(range(n), 2) if rnd.random() < p]


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
