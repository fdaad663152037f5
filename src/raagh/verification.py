"""Self-contained acceptance checks runnable from the CLI and the test suite.

Every check pins numbers that were verified by hand against the reference
worked examples (the 5-vertex join graph, glued 4-clique pairs, the string
families, K8 minus a perfect matching, ...), or re-derives values through
the slow oracles defined here, which the test suite shares.  Each check
raises AssertionError with a readable message on failure, through _expect
rather than assert so that it still fails under python -O, and returns a
short summary string on success.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import comb

from .form import (AlphaVector, build_cup_form, dump_template, kernel_basis,
                   max_isotropic, rank_gf2, substitute)
from .graphs import (FamilyCertificate, Graph, _Record, enumerate_cliques,
                     generate_family, make_graph, parse_graph)
from .hbounds import (DECOMPOSITION_AGGREGATE, CLIQUE_STRING_6,
                      CLIQUE_STRING_7, FREE_ABELIAN, compute_h,
                      h_family, h_free_abelian)
from .solver import SolverConfig, compute_m2, m2_heuristic, radical_at

# The 5-vertex graph joining two 4-cliques along a triangle, exactly as its
# adjacency matrix appears in the worked example.
_JOIN_GRAPH_CSV = """\
0,1,1,1,0
1,0,1,1,1
1,1,0,1,1
1,1,1,0,1
0,1,1,1,0
"""

_JOIN_GRAPH_TEMPLATE = """\
 0  0  0  0  0  0 +1  0  0
 0  0  0  0 -1  0  0  0  0
 0  0  0 +1  0  0  0  0  0
 0  0 +1  0  0  0  0  0 +2
 0 -1  0  0  0  0  0 -2  0
 0  0  0  0  0  0 +2  0  0
+1  0  0  0  0 +2  0  0  0
 0  0  0  0 -2  0  0  0  0
 0  0  0 +2  0  0  0  0  0
"""


def _join_graph() -> Graph:
    return parse_graph(_JOIN_GRAPH_CSV, "csv")


def _glued_pair() -> Graph:
    return generate_family(FamilyCertificate.clique_string(4, 2))


def _boxes_graph() -> Graph:
    matching = {(0, 1), (2, 3), (4, 5), (6, 7)}
    return make_graph(8, [e for e in combinations(range(8), 2)
                          if e not in matching])


def _assembly_graph() -> Graph:
    """Blocks of known value strung together: K5 and K4 glued along an edge,
    a K4 wedged on at a vertex, a disjoint K4, plus 16 pendant edges."""
    edges = list(set(combinations(range(5), 2))
                 | set(combinations((3, 4, 5, 6), 2)))
    edges += list(combinations((6, 7, 8, 9), 2))
    edges += [(u + 10, v + 10) for u, v in combinations(range(4), 2)]
    edges += [(i % 14, 14 + i) for i in range(16)]
    return make_graph(30, edges)


# --------------------------------------------------------------------------
# slow oracles
# --------------------------------------------------------------------------
#
# Independent reimplementations that cross-check the fast paths.  They use
# nothing of the package but Graph: cliques come from itertools, ranks from
# list-of-lists elimination, the form matrix from an adjacency test on pairs
# of edges, m2 from a full scan with no early exit, and the canonical key
# from a search that prunes nothing.

def cliques_oracle(g: Graph, k: int) -> list[tuple[int, ...]]:
    """k-cliques in lexicographic order, by testing every k-subset."""
    out = []
    for combo in combinations(range(g.n), k):
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            out.append(combo)
    return out


def rank_oracle(mat: list[list[int]]) -> int:
    """Textbook GF(2) Gaussian elimination on a list-of-lists matrix."""
    mat = [row[:] for row in mat]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def form_matrix_oracle(g: Graph, alpha_bits) -> list[list[int]]:
    """Substituted cup form, built from first principles: edges pair iff
    they are disjoint and their four endpoints are pairwise adjacent."""
    edges = cliques_oracle(g, 2)
    quads = cliques_oracle(g, 4)
    dim = len(edges)
    mat = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            e, f = edges[i], edges[j]
            if set(e) & set(f):
                continue
            quad = tuple(sorted(e + f))
            if all(g.has_edge(u, v) for u, v in combinations(quad, 2)):
                if alpha_bits[quads.index(quad)]:
                    mat[i][j] = 1
    return mat


def m2_oracle(g: Graph) -> tuple[int, int]:
    """(m2, first witness encoding), scanning every functional without any
    early exit or parity shortcut."""
    b4 = len(cliques_oracle(g, 4))
    best_rank, best_alpha = 0, 0
    for value in range(1 << b4):
        bits = [value >> q & 1 for q in range(b4)]
        rank = rank_oracle(form_matrix_oracle(g, bits))
        if rank > best_rank:
            best_rank, best_alpha = rank, value
    return best_rank, best_alpha


def random_graph_battery(count: int = 200, seed: int = 20260814,
                         max_b4: int = 12):
    """Deterministic stream of `count` random graphs with b4 <= max_b4."""
    rnd = random.Random(seed)
    densities = (0.3, 0.45, 0.6, 0.75)
    out = []
    while len(out) < count:
        n = rnd.randint(4, 12)
        p = densities[rnd.randrange(len(densities))]
        edges = [e for e in combinations(range(n), 2) if rnd.random() < p]
        g = make_graph(n, edges)
        if len(enumerate_cliques(g, 4)) <= max_b4:
            out.append(g)
    return out


# --------------------------------------------------------------------------
# the acceptance checks
# --------------------------------------------------------------------------

def _expect(condition, message="") -> None:
    """Fail the running check with message unless condition holds."""
    if not condition:
        raise AssertionError(message)


def check_join_graph_bound() -> str:
    start = time.perf_counter()
    g = _join_graph()
    report = compute_h(g)
    _expect(report.m2.m2 == 6, f"m2 = {report.m2.m2}, expected 6")
    lo = (report.lower_trivial, report.lower_cohomological)
    _expect(lo == (9, 12), f"bounds {lo}, expected (9, 12)")
    rad = radical_at(g, AlphaVector.from_bits((1, 1)))
    _expect(rad.dim == 3, f"radical dim {rad.dim}, expected 3")
    elapsed = time.perf_counter() - start
    _expect(elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    return f"m2=6, bound 12, radical dim 3 at alpha=11 ({elapsed:.2f}s)"


def check_join_graph_template() -> str:
    g = _join_graph()
    template = build_cup_form(g)
    _expect(template.dim == 9 and template.num_cliques == 2)
    got = dump_template(template)
    _expect(got == _JOIN_GRAPH_TEMPLATE,
            f"template mismatch:\n{got}\nexpected:\n{_JOIN_GRAPH_TEMPLATE}")
    # six disjoint-edge pairs, stored symmetrically with their signs
    pos = template.edges.position
    expected = {
        (((0, 1), (2, 3)), (0, +1)), (((0, 2), (1, 3)), (0, -1)),
        (((0, 3), (1, 2)), (0, +1)), (((1, 2), (3, 4)), (1, +1)),
        (((1, 3), (2, 4)), (1, -1)), (((1, 4), (2, 3)), (1, +1)),
    }
    _expect(len(template.entries) == 12)
    for (e, f), (q, sign) in expected:
        _expect(template.entries[(pos[e], pos[f])] == (q, sign))
        _expect(template.entries[(pos[f], pos[e])] == (q, sign))
    return "9x9 template matches entry for entry, including signs"


def check_glued_pair() -> str:
    start = time.perf_counter()
    g = _glued_pair()
    _expect(len(g.edges) == 11)
    report = compute_h(g)
    _expect(report.m2.m2 == 10, f"m2 = {report.m2.m2}, expected 10")
    _expect((report.lower_trivial, report.lower_cohomological) == (11, 12))
    rad = radical_at(g, AlphaVector.from_bits((1, 1)))
    _expect(rad.dim == 1 and rad.rendered == ("z12+z56",), rad.rendered)
    elapsed = time.perf_counter() - start
    _expect(elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    return f"b2=11, m2=10, bound 12, radical z12+z56 ({elapsed:.2f}s)"


def check_four_string_radicals() -> str:
    parts = []
    for length in range(2, 7):
        start = time.perf_counter()
        g = generate_family(FamilyCertificate.clique_string(4, length))
        res = compute_m2(g)
        want_dim = 1 if length % 2 == 0 else 0
        b2 = len(g.edges)
        _expect(b2 == 5 * length + 1)
        _expect(res.radical_dim == want_dim,
                f"length {length}: radical {res.radical_dim}, expected {want_dim}")
        _expect(res.m2 == b2 - want_dim)
        elapsed = time.perf_counter() - start
        _expect(elapsed < 1.0,
                f"length {length} took {elapsed:.2f}s, budget 1s")
        parts.append(f"l={length}:{res.radical_dim}")
    return "radical dims " + " ".join(parts) + " (1 iff even)"


def check_five_strings() -> str:
    expected = {1: (10, 6, 14), 2: (19, 12, 26), 3: (28, 18, 38)}
    parts = []
    for k, (b2, m2, bound) in expected.items():
        start = time.perf_counter()
        g = generate_family(FamilyCertificate.clique_string(5, k))
        _expect(len(g.edges) == b2)
        res = compute_m2(g)
        _expect(res.m2 == m2, f"k={k}: m2 {res.m2}, expected {m2}")
        _expect(2 * b2 - res.m2 == bound)
        fam = h_family(FamilyCertificate.clique_string(5, k))
        _expect(fam.value == 12 * k + 2 == bound)
        elapsed = time.perf_counter() - start
        if k == 3:
            _expect(elapsed < 30.0, f"k=3 took {elapsed:.2f}s, budget 30s")
        parts.append(f"k={k}:({b2},{m2},{bound})")
    return " ".join(parts) + ", h=12k+2 throughout"


def check_face_strings() -> str:
    parts = []
    for k in range(2, 7):
        start = time.perf_counter()
        g = generate_family(FamilyCertificate.face_string(k))
        res = compute_m2(g)
        bound = 2 * len(g.edges) - res.m2
        want = 3 * k + 6 if k % 2 == 0 else 3 * k + 5
        _expect(bound == want, f"k={k}: bound {bound}, expected {want}")
        _expect(h_family(FamilyCertificate.face_string(k)).value == want)
        elapsed = time.perf_counter() - start
        _expect(elapsed < 1.0, f"k={k} took {elapsed:.2f}s, budget 1s")
        parts.append(f"k={k}:{bound}")
    return "bound = h_family = " + " ".join(parts)


def check_k6() -> str:
    start = time.perf_counter()
    g = make_graph(6, combinations(range(6), 2))
    _expect(len(g.edges) == 15)
    res = compute_m2(g)
    _expect(res.m2 == 14, f"m2 {res.m2}, expected 14")
    via_complete = compute_h(g)
    _expect(via_complete.exact.value == 16)
    _expect(via_complete.exact.provenance == FREE_ABELIAN)
    via_string = compute_h(generate_family(FamilyCertificate.clique_string(6, 1)))
    _expect(via_string.exact.value == 16)
    _expect(via_string.exact.provenance == CLIQUE_STRING_6)
    elapsed = time.perf_counter() - start
    _expect(elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s")
    return f"b2=15, m2=14, h=16 by both routes ({elapsed:.2f}s)"


def check_boxes() -> str:
    start = time.perf_counter()
    g = _boxes_graph()
    report = compute_h(g)
    _expect(report.b2 == 24 and report.b4 == 16)
    _expect(report.m2.m2 == 22, f"m2 {report.m2.m2}, expected 22")
    _expect((report.lower_trivial, report.lower_cohomological) == (24, 26))
    elapsed = time.perf_counter() - start
    _expect(elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s")
    return f"b2=24, b4=16, m2=22, bound 26 ({elapsed:.2f}s)"


def check_assembly() -> str:
    g = _assembly_graph()
    report = compute_h(g)
    decomp = report.decomposition
    _expect(decomp is not None and decomp.r == 16,
            f"r = {decomp and decomp.r}")
    _expect(decomp.aggregate_exact is not None)
    _expect(decomp.aggregate_exact.value == 62, decomp.aggregate_exact)
    _expect(decomp.aggregate_exact.provenance == DECOMPOSITION_AGGREGATE)
    values = sorted(p.report.exact.value for p in decomp.pieces
                    if p.report.exact.value)
    _expect(values == [6, 6, 18], values)
    _expect(sum(p.report.b2 for p in decomp.pieces) + decomp.r == report.b2)
    _expect(report.exact.value == 62)
    return f"aggregate 62 = 18+6+6 + 2*16 over {len(decomp.pieces)} pieces"


def check_free_abelian_table() -> str:
    expected = {0: 0, 1: 0, 2: 2, 3: 6, 4: 6, 5: 14,
                6: 16, 7: 22, 8: 28, 9: 36, 10: 46}
    for n, want in expected.items():
        got = h_free_abelian(n)
        _expect(got == want, f"rank {n}: {got}, expected {want}")
        if n not in (3, 5):
            _expect(got == comb(n, 2) + (comb(n, 2) & 1))
    return "ranks 0..10 incl. the rank-3 and rank-5 exceptions"


def check_random_battery() -> str:
    graphs = random_graph_battery()
    checked = determinism = oracle = 0
    for g in graphs:
        template = build_cup_form(g)
        b2, b4 = template.dim, template.num_cliques
        res = compute_m2(g)
        _expect(res.m2 % 2 == 0, f"odd m2 {res.m2} on {g.edges}")
        mat = substitute(template, res.witness)
        rank = rank_gf2(mat.rows)
        _expect(rank == res.m2, "witness does not realize m2")
        kernel = kernel_basis(mat)
        _expect(rank + len(kernel) == b2, "rank-nullity failed")
        _expect(not any((row & v).bit_count() & 1
                        for v in kernel for row in mat.rows),
                "a kernel vector is not annihilated")
        iso = max_isotropic(mat)
        _expect(len(iso) == b2 - res.m2 // 2, "max isotropic size wrong")
        checked += 1

        if determinism < 12 and 2 <= b4:
            for workers in (2, 8):
                cfg = SolverConfig(workers=workers)
                alt = compute_m2(g, cfg)
                _expect(alt == res, f"workers={workers} changed the result")
            determinism += 1
        if oracle < 8 and b4 <= 8 and b2 <= 20:
            want_m2, want_alpha = m2_oracle(g)
            _expect((want_m2, want_alpha) == (res.m2, res.witness.value),
                    "naive scan disagrees")
            oracle += 1
    _expect(checked >= 200 and determinism >= 12 and oracle >= 8)
    return (f"{checked} graphs: even m2, rank+nullity, kernel, isotropic size; "
            f"worker determinism x{determinism}; naive oracle x{oracle}")


def check_heuristic_certification() -> str:
    g = generate_family(FamilyCertificate.clique_string(6, 2))
    _expect(len(g.edges) == 29)
    res = m2_heuristic(g)
    _expect(res.m2 == 28, f"heuristic found {res.m2}, expected ceiling 28")
    _expect(res.exhaustive, "ceiling hit must certify the value")
    for k in (1, 2, 3, 5):
        _expect(h_family(FamilyCertificate.clique_string(6, k)).value == 14 * k + 2)
        _expect(h_family(FamilyCertificate.clique_string(7, k)).value == 20 * k + 2)
    _expect(h_family(FamilyCertificate.clique_string(7, 1)).provenance == CLIQUE_STRING_7)
    return "heuristic certifies m2=28 at the parity ceiling; 14k+2 / 20k+2 formulas"


ACCEPTANCE_CHECKS = (
    ("join-graph-bound", "5-vertex join graph: m2, bound, radical dim",
     check_join_graph_bound),
    ("join-graph-template", "5-vertex join graph: signed 9x9 template",
     check_join_graph_template),
    ("glued-pair", "two 4-cliques sharing an edge: bound and radical",
     check_glued_pair),
    ("four-string-radicals", "4-clique strings: radical parity pattern",
     check_four_string_radicals),
    ("five-strings", "5-clique strings k=1..3: b2/m2/bound and h formula",
     check_five_strings),
    ("face-strings", "face-strings k=2..6: bound equals certified h",
     check_face_strings),
    ("k6", "K6: m2=14 and h=16 via two certifications", check_k6),
    ("boxes", "K8 minus a perfect matching: m2=22, bound 26", check_boxes),
    ("assembly", "block assembly with 16 free edges aggregates to 62",
     check_assembly),
    ("free-abelian-table", "free abelian h for ranks 0..10",
     check_free_abelian_table),
    ("random-battery", "200 random graphs: invariants, determinism, oracle",
     check_random_battery),
    ("heuristic-certification", "parity-ceiling certification and 6/7-string h",
     check_heuristic_certification),
)


class CheckResult(_Record):
    _fields = ("check_id", "description", "passed", "detail", "seconds")

    def __init__(self, check_id: str, description: str, passed: bool,
                 detail: str, seconds: float):
        self.__dict__.update(check_id=check_id, description=description,
                             passed=passed, detail=detail, seconds=seconds)


def run_acceptance(check_ids=None) -> list[CheckResult]:
    """Run all (or the named) acceptance checks, collecting results instead
    of stopping at the first failure."""
    selected = [c for c in ACCEPTANCE_CHECKS
                if check_ids is None or c[0] in check_ids]
    results = []
    for check_id, description, fn in selected:
        start = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        results.append(CheckResult(check_id, description, passed, detail,
                                   time.perf_counter() - start))
    return results
