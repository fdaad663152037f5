#!/usr/bin/env python3
"""Recompute the certified reference tables and print them side by side
with the closed-form values.

Everything here is deterministic; the exhaustive solver runs on every row
within the cap, so the script doubles as a self-check of the formulas: it
exits 1 when a row's bound misses h, when a row's m2 is not certified, or
when the assembly does not total 62.  Over the cap the heuristic runs, its
m2 need not be certified, and a row fails only when its bound exceeds h."""

import argparse
import sys
import time
from itertools import combinations

from raagh import (FamilyCertificate, compute_h, generate_family, h_family,
                   h_free_abelian, make_graph)


# b4 = k for face strings, and the default cap is 28; branch and bound
# settles all of k <= 28 exhaustively in well under a second
FACE_STRING_MAX_K = 28
# b4 = 5k for 5-strings, within the default cap up to k = 5; m2 comes from
# per-K5 scans glued at the shared edges, and the witness scan grows about
# 30x per K5 (a fraction of a second at k = 5)
FIVE_STRING_MAX_K = 5


def row(label, g, h_expected):
    """Print one row; True when the bound equals h and m2 is certified."""
    start = time.perf_counter()
    rep = compute_h(g)
    bound = rep.lower_cohomological
    elapsed = time.perf_counter() - start
    mark = "=" if bound == h_expected else " "
    mode = "" if rep.m2_mode == "exhaustive" else f", {rep.m2_mode}"
    if not rep.m2.exhaustive:
        mode += ", not certified"
    print(f"  {label:<18} b2={rep.b2:<3} m2={rep.m2.m2:<3} bound={bound:<3}"
          f" h={h_expected:<3}{mark} ({elapsed:.2f}s{mode})")
    return bound == h_expected and rep.m2.exhaustive


def over_cap_row(label, g, h_expected):
    """Print one heuristic row; True when the bound does not exceed h."""
    start = time.perf_counter()
    rep = compute_h(g, heuristic=True)
    elapsed = time.perf_counter() - start
    bound = rep.lower_cohomological
    mark = "=" if bound == h_expected else "<" if bound < h_expected else ">"
    cert = "" if rep.m2.exhaustive else ", not certified"
    print(f"  {label:<18} b2={rep.b2:<3} m2={rep.m2.m2:<3} bound={bound:<3}"
          f" h={h_expected:<3}{mark} ({elapsed:.2f}s, {rep.m2_mode}{cert})")
    return bound <= h_expected


def over_cap():
    print("over the cap, heuristic (a row fails when its bound exceeds h):")
    ok = [over_cap_row(f"hex side {s}",
                       generate_family(FamilyCertificate.hex_triangle(s)),
                       3 * s * (s + 1))
          for s in range(5, 9)]
    for k in (10, 20):
        cert = FamilyCertificate.clique_string(5, k)
        ok.append(over_cap_row(f"5-string k={k}", generate_family(cert),
                               h_family(cert).value))
    print(f"  {sum(ok)}/{len(ok)} bounds at or below h")
    print()
    return ok


def family_rows(title, certs):
    print(title)
    ok = [row(label, generate_family(cert), h_family(cert).value)
          for label, cert in certs]
    print()
    return ok


def complete_graphs(max_n):
    print("complete graphs (free abelian; note the bound reaches the")
    print("exceptional rank-5 value 14, well above the parity round-up):")
    ok = [row(f"n={n}", make_graph(n, combinations(range(n), 2)),
              h_free_abelian(n))
          for n in range(4, max_n + 1)]
    print()
    return ok


def certified_examples():
    print("individually certified graphs:")
    k5_k4 = make_graph(7, set(combinations(range(5), 2))
                       | set(combinations((3, 4, 5, 6), 2)))
    matching = {(0, 1), (2, 3), (4, 5), (6, 7)}
    boxes = make_graph(8, [e for e in combinations(range(8), 2)
                           if e not in matching])
    ok = [row("K5+K4 on an edge", k5_k4, 18), row("K8 - matching", boxes, 26)]
    print()
    return ok


def assembly():
    """True when the pieces and free edges add up to h = 62."""
    print("block assembly (certified pieces + 16 free edges):")
    edges = list(set(combinations(range(5), 2))
                 | set(combinations((3, 4, 5, 6), 2)))
    edges += list(combinations((6, 7, 8, 9), 2))
    edges += [(u + 10, v + 10) for u, v in combinations(range(4), 2)]
    edges += [(i % 14, 14 + i) for i in range(16)]
    g = make_graph(30, edges)
    rep = compute_h(g)
    pieces = [p.report.exact.value for p in rep.decomposition.pieces
              if p.graph.n > 1]
    print(f"  pieces {pieces} + 2*{rep.decomposition.r} free edges"
          f" -> h = {rep.exact.value} [{rep.exact.provenance}]")
    print()
    return rep.exact.value == 62


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-k", type=int, default=4,
                    help="longest 4-clique string (default 4)")
    ap.add_argument("--max-n", type=int, default=7,
                    help="largest complete graph (default 7; 8 is slow)")
    args = ap.parse_args(argv)

    ok = family_rows(
        "4-clique strings (h = 5k+1, plus 1 when k is even):",
        [(f"k={k}", FamilyCertificate.clique_string(4, k))
         for k in range(1, args.max_k + 1)])
    ok += family_rows(
        "5-clique strings (h = 12k+2):",
        [(f"k={k}", FamilyCertificate.clique_string(5, k))
         for k in range(1, FIVE_STRING_MAX_K + 1)])
    ok += family_rows(
        "face-strings (h = 3k+6 even k, 3k+5 odd k):",
        [(f"k={k}", FamilyCertificate.face_string(k))
         for k in range(1, FACE_STRING_MAX_K + 1)])
    ok += complete_graphs(args.max_n)
    ok += certified_examples()
    ok += family_rows(
        "small grids and hex triangles (h = 2*b2 - m2):",
        [("domino", FamilyCertificate.grid([(0, 0), (1, 0)])),
         ("L tromino", FamilyCertificate.grid([(0, 0), (1, 0), (1, 1)])),
         ("2x2 square", FamilyCertificate.grid(
             [(0, 0), (1, 0), (0, 1), (1, 1)])),
         ("hex side 2", FamilyCertificate.hex_triangle(2)),
         ("hex side 3", FamilyCertificate.hex_triangle(3)),
         ("hex side 4", FamilyCertificate.hex_triangle(4))])
    heuristic = over_cap()
    assembled = assembly()
    print(f"{sum(ok)}/{len(ok)} rows match, assembly "
          f"{'matches' if assembled else 'MISSES'} h = 62")
    return 0 if all(ok) and all(heuristic) and assembled else 1


if __name__ == "__main__":
    sys.exit(main())
