"""Slow, independent reimplementations used to cross-check the fast paths.

The clique, rank, form-matrix, m2 and canonical-key oracles live in
raagh.verification, which the acceptance checks share; they are re-exported
here under the same names.  The helpers below stay test-only.  Expected
values in the tests were frozen from these.
"""

from __future__ import annotations

from itertools import combinations

from raagh.verification import (canonical_key_oracle, cliques_oracle,
                                form_matrix_oracle, m2_oracle, rank_oracle)

__all__ = ["canonical_key_oracle", "cliques_oracle", "form_matrix_oracle",
           "m2_oracle", "random_gnp", "rank_oracle", "rows_to_lists"]


def rows_to_lists(rows, ncols: int) -> list[list[int]]:
    return [[row >> c & 1 for c in range(ncols)] for row in rows]


def random_gnp(n: int, p: float, seed: int):
    """Deterministic G(n, p) edge list (not a Graph, to stay independent)."""
    import random

    rnd = random.Random(seed)
    return [e for e in combinations(range(n), 2) if rnd.random() < p]
