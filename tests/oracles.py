"""Slow, independent reimplementations used to cross-check the fast paths.

The clique, rank, form-matrix, m2 and canonical-key oracles live in
raagh.verification, which the acceptance checks share; they are re-exported
here under the same names.  The helpers below stay test-only: the package
counts components by its own bitmask flood fill and never builds disjoint
unions.  Expected values in the tests were frozen from these.
"""

from __future__ import annotations

from itertools import combinations

from raagh import Graph, induced_subgraph, make_graph
from raagh.verification import (canonical_key_oracle, cliques_oracle,
                                form_matrix_oracle, m2_oracle, rank_oracle)

__all__ = ["canonical_key_oracle", "cliques_oracle", "connected_components",
           "disjoint_union", "form_matrix_oracle", "m2_oracle", "random_gnp",
           "rank_oracle", "rows_to_lists"]


def rows_to_lists(rows, ncols: int) -> list[list[int]]:
    return [[row >> c & 1 for c in range(ncols)] for row in rows]


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
