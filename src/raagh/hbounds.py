"""Bounds and exact values for the minimal second Betti number h.

For a right-angled Artin group presented by a graph G, h(G) is the smallest
b2 over closed oriented 4-manifolds with that fundamental group.  Everything
here combines four ingredients:

- trivial bounds    b2(G) <= h(G) <= 2 b2(G)
- cohomological     2 b2(G) - m2(G) <= h(G)
- exact families    no 4-cliques gives h = 2 b2; complete graphs reduce to
                    free abelian groups; the string/grid/hex catalog families
                    and a couple of individually certified graphs have proven
                    values
- decomposition     removing the r edges that lie in no 4-clique and then
                    splitting along cut vertices and components gives
                    h(G) = sum of piece values + 2 r; the 4-cliques from
                    G's one clique walk fix its free edges and witness bits,
                    every other block piece is walked once for all its
                    clique needs, and the pieces that are a lone vertex
                    or a K4 take a report built without a walk

The cohomological bound is reported as 2 b2 - U, with U the proven upper
bound each m2 result carries (an assembled one's is its pieces' sum): an
uncertified m2 is only a lower bound on m2.

An ExactValue tagged conjectural-minimal is *not* a theorem: it is the
cohomological lower bound offered as the conjectured value when nothing in
the catalog certifies the graph.  Exact values from every other provenance
are theorem grade.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, filterfalse
from math import comb

from .form import AlphaVector
from .graphs import (FamilyCertificate, Graph, _Record, _family_counts, betti,
                     biconnected_blocks, canonical_key, generate_family,
                     induced_subgraph, make_graph, recognize_family,
                     verify_certificate)
from .solver import (DEFAULT_CONFIG, CapExceeded, M2Result, SolverConfig,
                     compute_m2, m2_heuristic)

TRIVIAL_H4 = "trivial-h4"
FREE_ABELIAN = "free-abelian"
GRID_THEOREM = "grid-theorem"
STRING_THEOREM = "string-theorem"
HEX_THEOREM = "hex-theorem"
CLIQUE_STRING_5 = "clique-string-5"
CLIQUE_STRING_6 = "clique-string-6"
CLIQUE_STRING_7 = "clique-string-7"
DECOMPOSITION_AGGREGATE = "decomposition-aggregate"
CERTIFIED_EXAMPLE = "certified-example"
CONJECTURAL_MINIMAL = "conjectural-minimal"

THEOREM_GRADE = frozenset({
    TRIVIAL_H4, FREE_ABELIAN, GRID_THEOREM, STRING_THEOREM, HEX_THEOREM,
    CLIQUE_STRING_5, CLIQUE_STRING_6, CLIQUE_STRING_7,
    DECOMPOSITION_AGGREGATE, CERTIFIED_EXAMPLE,
})


class ExactValue(_Record):
    _fields = ("value", "provenance")

    def __init__(self, value: int, provenance: str):
        self.__dict__.update(value=value, provenance=provenance)

    @property
    def theorem_grade(self) -> bool:
        return self.provenance in THEOREM_GRADE


class HReport(_Record):
    """Everything known about h for one graph.

    m2 is always set; m2_mode records how it was obtained ("exhaustive",
    "heuristic", or "assembled" from decomposition pieces).  Bounds satisfy
    lower_trivial <= lower_cohomological <= upper, and any exact value lies
    inside them.
    """

    _fields = ("graph", "betti_numbers", "m2", "m2_mode", "lower_trivial",
               "lower_cohomological", "upper", "exact", "decomposition")

    def __init__(self, graph: Graph, betti_numbers: tuple[int, ...],
                 m2: M2Result, m2_mode: str, lower_trivial: int,
                 lower_cohomological: int, upper: int,
                 exact: ExactValue | None,
                 decomposition: DecompositionReport | None = None):
        if not lower_trivial <= lower_cohomological <= upper:
            raise ValueError(
                f"violates lower_trivial <= lower_cohomological <= upper: "
                f"{lower_trivial}, {lower_cohomological}, {upper}")
        if exact is not None and not lower_trivial <= exact.value <= upper:
            raise ValueError(
                f"violates lower_trivial <= exact <= upper: "
                f"{lower_trivial}, {exact.value}, {upper}")
        self.__dict__.update(graph=graph, betti_numbers=betti_numbers, m2=m2,
                             m2_mode=m2_mode, lower_trivial=lower_trivial,
                             lower_cohomological=lower_cohomological,
                             upper=upper, exact=exact,
                             decomposition=decomposition)

    @property
    def b2(self) -> int:
        return self.betti_numbers[2] if len(self.betti_numbers) > 2 else 0

    @property
    def b4(self) -> int:
        return self.betti_numbers[4] if len(self.betti_numbers) > 4 else 0


class DecompositionPiece(_Record):
    """One irreducible piece: its graph plus the parent vertices it uses."""

    _fields = ("vertices", "graph", "report")

    def __init__(self, vertices: tuple[int, ...], graph: Graph, report: HReport):
        self.__dict__.update(vertices=vertices, graph=graph, report=report)


class DecompositionReport(_Record):
    """Breakdown of a graph into free edges (in no 4-clique) and the
    components/blocks left after deleting them.  Piece b2 values plus the
    number of free edges always add back up to the parent b2."""

    _fields = ("free_edges", "pieces", "aggregate_exact")

    def __init__(self, free_edges: tuple[tuple[int, int], ...],
                 pieces: tuple[DecompositionPiece, ...],
                 aggregate_exact: ExactValue | None):
        self.__dict__.update(free_edges=free_edges, pieces=pieces,
                             aggregate_exact=aggregate_exact)

    @property
    def r(self) -> int:
        return len(self.free_edges)


# --------------------------------------------------------------------------
# closed-form families
# --------------------------------------------------------------------------

_FREE_ABELIAN_OVERRIDES = {3: 6, 5: 14}


def h_free_abelian(n: int) -> int:
    """h for the free abelian group of rank n.

    The generic value is binom(n, 2) rounded up to even; ranks 3 and 5 are
    exceptional and sit strictly above that."""
    if n < 0:
        raise ValueError("rank must be non-negative")
    if n in _FREE_ABELIAN_OVERRIDES:
        return _FREE_ABELIAN_OVERRIDES[n]
    b2 = comb(n, 2)
    return b2 + (b2 & 1)


def h_family(cert: FamilyCertificate, config: SolverConfig = DEFAULT_CONFIG,
             m2: int | None = None) -> ExactValue:
    """Proven h value for a catalog family member.

    Strings and complete graphs come from closed formulas.  For grids and
    hex triangles the theorem pins h to the cohomological bound 2 b2 - m2,
    with b2 the member's edge count.  A given m2 must be certified for a
    graph isomorphic to the member and is reused; only without one is the
    model built and scanned exhaustively, which may raise CapExceeded.
    """
    fam = cert.family
    if fam == "edgeless":
        return ExactValue(0, TRIVIAL_H4)
    if fam == "complete":
        return ExactValue(h_free_abelian(cert.n), FREE_ABELIAN)
    if fam == "clique-string":
        s, k = cert.clique_size, cert.count
        if s == 4:
            return ExactValue(5 * k + 1 + (1 if k % 2 == 0 else 0), GRID_THEOREM)
        if s == 5:
            return ExactValue(12 * k + 2, CLIQUE_STRING_5)
        if s == 6:
            return ExactValue(14 * k + 2, CLIQUE_STRING_6)
        if s == 7:
            return ExactValue(20 * k + 2, CLIQUE_STRING_7)
        raise ValueError(f"no certified value for clique size {s}")
    if fam == "face-string":
        k = cert.count
        if k == 1:
            return ExactValue(h_free_abelian(4), FREE_ABELIAN)
        return ExactValue(3 * k + 6 if k % 2 == 0 else 3 * k + 5, STRING_THEOREM)
    if fam in ("grid", "hex-triangle"):
        edges = _family_counts(cert)[1]  # ValueError if cert names no graph
        if m2 is None:
            m2 = compute_m2(generate_family(cert), config).m2
        provenance = GRID_THEOREM if fam == "grid" else HEX_THEOREM
        return ExactValue(2 * edges - m2, provenance)
    raise ValueError(f"unknown family {fam!r}")


# --------------------------------------------------------------------------
# individually certified graphs
# --------------------------------------------------------------------------

@cache
def _certified_catalog() -> dict:
    """Graphs with proven h values that sit in no parametrized family, with
    their h, by (vertices, edges) counts: K5 and K4 glued along an edge,
    and K8 minus a perfect matching."""
    k5_k4 = make_graph(7, set(combinations(range(5), 2))
                       | set(combinations((3, 4, 5, 6), 2)))
    matching = {(0, 1), (2, 3), (4, 5), (6, 7)}
    boxes = make_graph(8, [e for e in combinations(range(8), 2)
                           if e not in matching])
    out: dict = {}
    for example, h in ((k5_k4, 18), (boxes, 26)):
        out.setdefault((example.n, len(example.edges)), []).append((example, h))
    return out


@cache
def _certified_keys(counts: tuple[int, int]) -> dict:
    """h by canonical key for the catalog examples with these counts; only
    the examples a graph could be isomorphic to are ever keyed."""
    return {canonical_key(example): h
            for example, h in _certified_catalog()[counts]}


def certified_h(g: Graph) -> ExactValue | None:
    """Exact value if g is isomorphic to an individually certified graph."""
    counts = (g.n, len(g.edges))
    if counts not in _certified_catalog():
        return None
    value = _certified_keys(counts).get(canonical_key(g))
    return None if value is None else ExactValue(value, CERTIFIED_EXAMPLE)


# --------------------------------------------------------------------------
# single-piece analysis
# --------------------------------------------------------------------------

def _b(numbers: tuple[int, ...], k: int) -> int:
    return numbers[k] if k < len(numbers) else 0


def _resolve_certificate(g: Graph) -> FamilyCertificate | None:
    if g.certificate is not None and verify_certificate(g, g.certificate):
        return g.certificate
    return recognize_family(g)


def _report(g: Graph, numbers: tuple[int, ...], res: M2Result, mode: str,
            exact: ExactValue | None,
            decomposition: DecompositionReport | None = None) -> HReport:
    """HReport from g's Betti numbers, an m2 result and the exact value
    found for it, if any.  Without one, an exhaustive m2 offers the
    cohomological bound as the conjectured value.  The bound is
    2 b2 - res.upper, so an uncertified m2 cannot overstate it."""
    b2 = _b(numbers, 2)
    if exact is None and res.exhaustive:
        exact = ExactValue(2 * b2 - res.m2, CONJECTURAL_MINIMAL)
    lower_coh = 2 * b2 - res.upper
    if exact is not None and exact.theorem_grade:
        # a heuristic that under-finds m2 would otherwise overstate the bound
        lower_coh = min(lower_coh, exact.value)
    return HReport(g, numbers, res, mode, b2, lower_coh, 2 * b2, exact,
                   decomposition)


def _piece_report(g: Graph, config: SolverConfig, heuristic: bool,
                  strict: bool) -> HReport:
    """Report for a graph treated as one piece (no decomposition inside),
    whose one clique walk gives betti(g), its cup form's 4-cliques and
    the maximal cliques that its heuristic and recognition read."""
    numbers = betti(g)
    b2, b4 = _b(numbers, 2), _b(numbers, 4)
    if b4 == 0:
        res = M2Result(0, AlphaVector(0, 0), b2, True, 0)
        return _report(g, numbers, res, "exhaustive",
                       ExactValue(2 * b2, TRIVIAL_H4))

    if heuristic or (b4 > config.cap and not strict):
        res, mode = m2_heuristic(g), "heuristic"
    else:  # over the cap in strict mode, compute_m2 raises CapExceeded
        res, mode = compute_m2(g, config), "exhaustive"

    exact: ExactValue | None = None
    cert = _resolve_certificate(g)
    if cert is not None:
        # an m2 certified within the cap is the one h_family would scan for
        known_m2 = res.m2 if res.exhaustive and b4 <= config.cap else None
        try:
            exact = h_family(cert, config, known_m2)
        except CapExceeded:
            exact = None
    if exact is None:
        exact = certified_h(g)
    return _report(g, numbers, res, mode, exact)


def _vertex_report(labels: tuple[str] | None) -> HReport:
    """compute_h of the one-vertex graph, without a clique walk: its betti
    numbers are (1, 1), so b4 = b2 = 0 and h = 0."""
    res = M2Result(0, AlphaVector(0, 0), 0, True, 0)
    return _report(Graph(1, (), labels), (1, 1), res, "exhaustive",
                   ExactValue(0, TRIVIAL_H4))


def _k4_report(labels: tuple[str, ...] | None, mode: str) -> HReport:
    """_piece_report of K4 in mode ("exhaustive" or "heuristic"), without
    a clique walk, scan or recognition.  K4 presents Z^4: betti numbers
    (1, 4, 6, 4, 1), and its one 4-clique gives a form of rank 6, the
    parity ceiling, so the scan and the heuristic both certify m2 = 6 with
    witness 1, and h = h_free_abelian(4) = 6."""
    res = M2Result(6, AlphaVector(1, 1), 0, True, 6)
    return _report(Graph(4, _K4_EDGES, labels), (1, 4, 6, 4, 1),
                   res, mode, ExactValue(h_free_abelian(4), FREE_ABELIAN))


_VERTEX_REPORT = _vertex_report(None)  # shared by every unlabeled one
_K4_EDGES = tuple(combinations(range(4), 2))
_K4_REPORTS = {mode: _k4_report(None, mode) for mode in ("exhaustive", "heuristic")}


# --------------------------------------------------------------------------
# decomposition
# --------------------------------------------------------------------------

def decompose_h(g: Graph, config: SolverConfig = DEFAULT_CONFIG,
                heuristic: bool = False, strict: bool = False) -> DecompositionReport:
    """Split g into free edges plus irreducible pieces and analyse each.

    Pieces are the biconnected blocks of the graph left after deleting every
    edge that lies in no 4-clique, together with one single-vertex piece per
    vertex isolated by the deletion.  Each piece keeps a map back to parent
    vertices; pieces are ordered by those maps.  When nothing is deleted and
    one block spans every vertex, that piece is g itself with the identity
    map, so a certificate attached to g is still honored.
    """
    in4 = {e for clique in g._census[1] for e in combinations(clique, 2)}
    free = tuple(filterfalse(in4.__contains__, g.edges))
    covered_g = Graph._normalized(g.n, tuple(filter(in4.__contains__, g.edges)),
                                  g.labels)

    piece_vertex_sets = list(biconnected_blocks(covered_g))
    piece_vertex_sets.extend((v,) for v in range(g.n)
                             if covered_g.adjacency[v] == 0)
    piece_vertex_sets.sort()

    pieces = []
    for vset in piece_vertex_sets:
        if not free and len(vset) == g.n:
            report = _piece_report(g, config, heuristic, strict)
        elif len(vset) == 1:  # a vertex isolated by the deletion
            report = (_VERTEX_REPORT if g.labels is None
                      else _vertex_report((g.labels[vset[0]],)))
        elif len(vset) == 4:  # each edge lies in a 4-clique, so a K4 block
            mode = "heuristic" if heuristic or config.cap < 1 else "exhaustive"
            if mode == "heuristic" and not heuristic and strict:
                raise CapExceeded(1, config.cap)  # as compute_m2 would
            report = (_K4_REPORTS[mode] if g.labels is None
                      else _k4_report(tuple(g.labels[v] for v in vset), mode))
        else:
            report = _piece_report(induced_subgraph(covered_g, vset)[0],
                                   config, heuristic, strict)
        # vset is sorted, so it maps each piece vertex to its vertex of g
        pieces.append(DecompositionPiece(vset, report.graph, report))

    # a lone vertex has h = 0, trivial-h4 (theorem grade): only blocks count
    blocks = [p.report for p in pieces if len(p.vertices) > 1]
    aggregate = None
    if all(rep.exact is not None and rep.exact.theorem_grade for rep in blocks):
        total = sum(rep.exact.value for rep in blocks) + 2 * len(free)
        aggregate = ExactValue(total, DECOMPOSITION_AGGREGATE)
    return DecompositionReport(free, tuple(pieces), aggregate)


def _assemble_m2(g: Graph, decomp: DecompositionReport) -> M2Result:
    """Parent m2 from piece results and g's 4-cliques in order (its census).

    Edges outside 4-cliques contribute zero rows to every substituted form
    and distinct pieces touch disjoint edge/clique sets, so ranks add, and
    so do upper bounds.  A 4-clique lies in the one block holding its first
    edge, which per-vertex piece masks find, as two blocks share at most one
    vertex.  Vertex maps are increasing, so a block's k-th 4-clique is the
    k-th parent 4-clique inside it and takes bit k of the block's witness.
    The combined witness is the canonically first maximizer whenever every
    piece's was.  A lone vertex holds no 4-clique and adds 0 to m2 and to
    U, exhaustively, so only the blocks are indexed.
    """
    blocks = [p for p in decomp.pieces if len(p.vertices) > 1]
    held = [0] * g.n  # bit i of held[v]: block i holds v
    for i, piece in enumerate(blocks):
        for v in piece.vertices:
            held[v] |= 1 << i
    quads = g._census[1]
    seen = [0] * len(blocks)  # 4-cliques met so far in each block
    witness = 0
    for q, (u, v, _, _) in enumerate(quads):
        i = (held[u] & held[v]).bit_length() - 1
        witness |= blocks[i].report.m2.witness.bit(seen[i]) << q
        seen[i] += 1
    total = sum(p.report.m2.m2 for p in blocks)
    return M2Result(total, AlphaVector(witness, len(quads)), len(g.edges) - total,
                    all(p.report.m2.exhaustive for p in blocks),
                    sum(p.report.m2.upper for p in blocks))


def compute_h(g: Graph, config: SolverConfig = DEFAULT_CONFIG,
              heuristic: bool = False, strict: bool = False) -> HReport:
    """Full analysis of one graph: bounds, m2, exact value when certified,
    and the decomposition whenever it is nontrivial."""
    numbers = betti(g)
    if _b(numbers, 4) == 0:
        return _piece_report(g, config, heuristic, strict)

    decomp = decompose_h(g, config, heuristic, strict)
    if decomp.pieces[0].graph is g:  # the one piece, with no free edges
        return decomp.pieces[0].report
    return _report(g, numbers, _assemble_m2(g, decomp), "assembled",
                   decomp.aggregate_exact, decomp)
