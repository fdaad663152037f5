"""Finite simple graphs as presentations of right-angled Artin groups.

Vertices are 0..n-1.  Edges are stored as a lexicographically sorted tuple of
(u, v) pairs with u < v, which fixes the edge/clique numbering used by every
other module: the k-cliques of a graph are always enumerated in lexicographic
order of their (strictly increasing) vertex tuples.  One clique walk per
graph, its census, gives the Betti numbers, the 4-cliques and the maximal
cliques.

The module also houses the graph family generators (edgeless, complete,
clique edge-strings, face-strings, grids, hex thick triangles), recognition
of a subset of those families (a string is relabeled along its chain of
maximal cliques and compared with the generated model), and the three text
formats (edge list, adjacency CSV, JSON).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations


class ParseError(ValueError):
    """Raised for malformed graph input; message carries line/position info."""


# --------------------------------------------------------------------------
# core types
# --------------------------------------------------------------------------

class _Record:
    """Base of the package's immutable records: equality, hash and repr by
    the fields named in ``_fields``, in that order, and equality only
    between instances of one class.  Each subclass's ``__init__`` fills its
    fields through the instance ``__dict__``; after that, assignment and
    deletion raise AttributeError.  No ``__slots__``, since cached_property
    needs that ``__dict__`` too.

    Plain classes, not the standard library's frozen data classes: their
    generated code cost about 1 ms per class at import, some 15 ms for the
    package, several times the work of a sparse report.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FamilyCertificate(_Record):
    """Names a catalog family and its parameters.

    Only ``generate_family`` attaches certificates; ``recognize_family``
    re-derives them structurally.  ``family`` is one of:

    - "edgeless"      (n)
    - "complete"      (n)
    - "clique-string" (clique_size in 4..7, count = number of cliques)
    - "face-string"   (count = number of 4-cliques)
    - "grid"          (cells = tuple of (x, y) lattice cells)
    - "hex-triangle"  (side)
    """

    _fields = ("family", "n", "clique_size", "count", "cells", "side")

    def __init__(self, family: str, n: int | None = None,
                 clique_size: int | None = None, count: int | None = None,
                 cells: tuple[tuple[int, int], ...] | None = None,
                 side: int | None = None):
        self.__dict__.update(family=family, n=n, clique_size=clique_size,
                             count=count, cells=cells, side=side)

    @classmethod
    def edgeless(cls, n: int) -> "FamilyCertificate":
        return cls("edgeless", n=n)

    @classmethod
    def complete(cls, n: int) -> "FamilyCertificate":
        return cls("complete", n=n)

    @classmethod
    def clique_string(cls, clique_size: int, count: int) -> "FamilyCertificate":
        return cls("clique-string", clique_size=clique_size, count=count)

    @classmethod
    def face_string(cls, count: int) -> "FamilyCertificate":
        return cls("face-string", count=count)

    @classmethod
    def grid(cls, cells) -> "FamilyCertificate":
        return cls("grid", cells=tuple(sorted(set((int(x), int(y)) for x, y in cells))))

    @classmethod
    def hex_triangle(cls, side: int) -> "FamilyCertificate":
        return cls("hex-triangle", side=side)

    def to_dict(self) -> dict:
        out = {"family": self.family}
        for key in ("n", "clique_size", "count", "side"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.cells is not None:
            out["cells"] = [list(c) for c in self.cells]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FamilyCertificate":
        if not isinstance(data, dict) or "family" not in data:
            raise ParseError("certificate must be an object with a 'family' key")
        kwargs = {}
        for key in ("n", "clique_size", "count", "side"):
            value = data.get(key)
            if value is not None:
                if not _is_int(value):
                    raise ParseError("certificate parameters are not integers "
                                     f"({key} is a {type(value).__name__})")
                kwargs[key] = value
        cells = data.get("cells")
        if cells is not None:
            if not (isinstance(cells, (list, tuple)) and all(
                    isinstance(c, (list, tuple)) and len(c) == 2
                    and _is_int(c[0]) and _is_int(c[1]) for c in cells)):
                raise ParseError("certificate parameters are not integers "
                                 "(cells must be [x, y] pairs)")
            kwargs["cells"] = tuple(sorted((x, y) for x, y in cells))
        return cls(str(data["family"]), **kwargs)


class Graph(_Record):
    """Immutable simple graph.  ``edges`` is lex-sorted with u < v throughout."""

    _fields = ("n", "edges", "labels", "certificate")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...],
                 labels: tuple[str, ...] | None = None,
                 certificate: FamilyCertificate | None = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen = set()
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) out of range or not ordered")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        if tuple(sorted(edges)) != edges:
            raise ValueError("edges must be lexicographically sorted")
        if labels is not None and len(labels) != n:
            raise ValueError("labels length must equal vertex count")
        self.__dict__.update(n=n, edges=edges, labels=labels,
                             certificate=certificate)

    @classmethod
    def _normalized(cls, n: int, edges: tuple[tuple[int, int], ...],
                    labels: tuple[str, ...] | None = None,
                    certificate: FamilyCertificate | None = None) -> "Graph":
        """A Graph without __init__'s checks, for callers whose edges are
        normalized by construction: sorted pairs u < v in range, no
        duplicates, and labels of length n if any."""
        g = cls.__new__(cls)
        g.__dict__.update(n=n, edges=edges, labels=labels,
                          certificate=certificate)
        return g

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitmasks (bit v of adjacency[u] = edge u~v)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def _census(self):
        """graphs._census(self): one clique walk per graph, shared by betti,
        maximal_cliques and every later need for its 4-cliques."""
        return _census(self)

    @cached_property
    def _maximal_cliques(self) -> tuple[tuple[int, ...], ...]:
        """maximal_cliques(self): the census's masks as vertex tuples, or
        the empty clique alone on the 0-vertex graph."""
        return tuple(tuple(_mask_bits(m)) for m in self._census[2]) or ((),)

    @cached_property
    def _canonical(self):
        """_canonical_search(self): one individualize-refine search per
        graph, shared by canonical_key and _automorphism_generators."""
        return _canonical_search(self)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return bool(self.adjacency[u] >> v & 1)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


def make_graph(n, edges, labels=None, certificate=None) -> Graph:
    """Build a Graph from any iterable of (u, v) pairs, normalizing order."""
    norm = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        norm.add((min(u, v), max(u, v)))
    return Graph(int(n), tuple(sorted(norm)),
                 labels=tuple(labels) if labels is not None else None,
                 certificate=certificate)


class CliqueIndex(_Record):
    """All k-cliques of a graph in lexicographic order, with position lookup."""

    _fields = ("k", "cliques")

    def __init__(self, k: int, cliques: tuple[tuple[int, ...], ...]):
        self.__dict__.update(k=k, cliques=cliques)

    @cached_property
    def position(self) -> dict:
        return {c: i for i, c in enumerate(self.cliques)}

    def __len__(self) -> int:
        return len(self.cliques)


# --------------------------------------------------------------------------
# clique enumeration and Betti numbers
# --------------------------------------------------------------------------

def _mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _walk(g: Graph, k: int, counts: list[int], out: list, size: int,
          maximal: list | None = None) -> None:
    """Ordered DFS over the cliques of g with at most k vertices, from the
    empty clique: a clique grows by vertices above its last member that are
    adjacent to every member, so the cliques of each size arrive in
    lexicographic order (out collects those with ``size`` vertices).
    counts[d] gains the number of d-cliques, read off each parent's mask
    of allowed extensions; a child with one allowed extension has no
    grandchildren, so it is counted without a call unless its level is
    collected.

    A clique also carries ``near``, the mask of the vertices adjacent to
    every member: one with no allowed extension is maximal exactly when
    its near is empty.  With k above every clique's size, ``maximal``
    collects their vertex masks, in lexicographic order."""
    adj = g.adjacency

    def extend(prefix: tuple[int, ...], members: int, allowed: int,
               near: int, depth: int):
        depth += 1
        counts[depth] += allowed.bit_count()
        if depth == size:
            out.extend(prefix + (v,) for v in _mask_bits(allowed))
        if depth == k:
            return
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            a = adj[v]
            nxt = rest & a  # the members of allowed above v next to v
            if not nxt:  # near & a is the near of prefix + (v,)
                if maximal is not None and not near & a:
                    maximal.append(members | low)
            elif nxt & (nxt - 1) or depth + 1 == size:
                extend(prefix + (v,), members | low, nxt, near & a, depth)
            else:
                counts[depth + 1] += 1
                if maximal is not None and not near & a & adj[nxt.bit_length() - 1]:
                    maximal.append(members | low | nxt)

    extend((), 0, (1 << g.n) - 1, (1 << g.n) - 1, 0)


def enumerate_cliques(g: Graph, k: int) -> CliqueIndex:
    """All k-cliques in lexicographic vertex-tuple order, which matches
    sorted(itertools.combinations) restricted to cliques."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out: list[tuple[int, ...]] = []
    _walk(g, k, [0] * (k + 1), out, k)
    return CliqueIndex(k, tuple(out))


def _census(g: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                              tuple[int, ...]]:
    """(betti(g), the 4-cliques of g, the vertex masks of its maximal
    cliques), each list in lexicographic order, from one clique walk that
    counts every size; Graph._census keeps it on g."""
    adj = g.adjacency
    unseen = (1 << g.n) - 1
    b0 = 0
    while unseen:
        frontier = unseen & -unseen
        while frontier:  # flood the component of the least unseen vertex
            unseen &= ~frontier
            reach = 0
            for v in _mask_bits(frontier):
                reach |= adj[v]
            frontier = reach & unseen
        b0 += 1
    counts = [b0] + [0] * (g.n + 1)
    quads: list[tuple[int, ...]] = []
    maximal: list[int] = []
    _walk(g, g.n + 1, counts, quads, 4, maximal)  # no clique has n + 1 vertices
    return tuple(counts[:counts.index(0, 1)]), tuple(quads), tuple(maximal)


def betti(g: Graph) -> tuple[int, ...]:
    """Cohomology ranks of the associated group: b_k = number of k-cliques
    for k >= 1, and b_0 = number of connected components; see Graph._census."""
    return g._census[0]


def maximal_cliques(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques of g, sorted, read off its census (Graph._census): a
    graph without a census pays for a walk of all its cliques."""
    return g._maximal_cliques


# --------------------------------------------------------------------------
# connectivity
# --------------------------------------------------------------------------

def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the map new-index -> original vertex.  Its
    edges are read off the adjacency masks of its own vertices, so a small
    piece of a large graph costs no scan of the large graph's edges."""
    vmap = tuple(sorted(set(vertices)))
    back = {v: i for i, v in enumerate(vmap)}
    keep, adj = sum(1 << v for v in vmap), g.adjacency
    edges = [(i, back[w]) for i, v in enumerate(vmap)
             for w in _mask_bits(adj[v] & (keep >> v + 1 << v + 1))]
    labels = tuple(g.label(v) for v in vmap) if g.labels is not None else None
    # an increasing vertex map keeps the edges normalized and sorted
    return Graph._normalized(len(vmap), tuple(edges), labels), vmap


def biconnected_blocks(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the biconnected components (blocks), i.e. the maximal
    pieces that share at most an articulation point.  Isolated vertices do
    not appear in any block.  Ordered by least contained edge."""
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    timer = 0
    blocks: list[tuple[int, ...]] = []
    edge_stack: list[tuple[int, int]] = []

    def pop_block(u, v):
        verts = set()
        while edge_stack:
            a, b = edge_stack.pop()
            verts.update((a, b))
            if (a, b) == (u, v):
                break
        blocks.append(tuple(sorted(verts)))

    for root in range(g.n):
        if disc[root] != -1 or g.adjacency[root] == 0:
            continue
        stack = [(root, iter(_mask_bits(g.adjacency[root])))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if disc[v] == -1:
                    parent[v] = u
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, iter(_mask_bits(g.adjacency[v]))))
                    advanced = True
                    break
                elif v != parent[u] and disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], disc[v])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= disc[p]:
                        pop_block(p, u)
    return blocks


# --------------------------------------------------------------------------
# family generators
# --------------------------------------------------------------------------

def generate_family(cert: FamilyCertificate) -> Graph:
    """Build the graph a certificate describes, with the certificate attached.

    Vertex numbering per family:

    - edgeless/complete: vertices 0..n-1.
    - clique-string(s, k): clique j (0-based) is {(s-2)j, ..., (s-2)j+s-1};
      consecutive cliques share their two overlapping vertices (an edge).
    - face-string(k): vertices 0..k+2, edge iff |i-j| <= 3 (each window of
      four consecutive vertices is one of the k 4-cliques).
    - grid(cells): unit lattice cells; corners sorted lexicographically by
      (x, y); each cell contributes its four sides and both diagonals.
    - hex-triangle(t): triangular patch with rows i = 0..t (row i holds
      t+1-i vertices), vertices sorted by (row, index); all unit edges plus
      one long diagonal across every interior unit edge.

    A certificate that ``_family_counts`` refuses (a parameter missing or
    out of range, or the graph over MAX_VERTICES or MAX_EDGES) raises
    ValueError before anything is built.
    """
    fam = cert.family
    n = _family_counts(cert)[0]
    if fam == "edgeless":
        return Graph(n, (), certificate=cert)
    if fam == "complete":
        return Graph(n, tuple(combinations(range(n), 2)), certificate=cert)
    if fam == "clique-string":
        s, k = cert.clique_size, cert.count
        # i's last clique ends at the greatest vertex i is adjacent to
        edges = [(i, j) for i in range(n)
                 for j in range(i + 1, (s - 2) * min(i // (s - 2), k - 1) + s)]
        return Graph(n, tuple(edges), certificate=cert)
    if fam == "face-string":
        edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + 4, n))]
        return Graph(n, tuple(edges), certificate=cert)
    if fam == "grid":
        return _generate_grid(cert)
    return _generate_hex_triangle(cert)


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _generate_grid(cert: FamilyCertificate) -> Graph:
    cells = cert.cells
    corners = sorted({(x + dx, y + dy) for x, y in cells for dx in (0, 1) for dy in (0, 1)})
    index = {c: i for i, c in enumerate(corners)}
    edges = set()
    for x, y in cells:
        quad = [index[(x, y)], index[(x + 1, y)], index[(x, y + 1)], index[(x + 1, y + 1)]]
        edges.update(combinations(sorted(quad), 2))
    return Graph(len(corners), tuple(sorted(edges)), certificate=cert)


def _generate_hex_triangle(cert: FamilyCertificate) -> Graph:
    t = cert.side
    verts = [(i, j) for i in range(t + 1) for j in range(t + 1 - i)]
    index = {v: p for p, v in enumerate(sorted(verts))}
    edges = set()

    def add(a, b):
        edges.add((min(index[a], index[b]), max(index[a], index[b])))

    for i, j in verts:
        if (i, j + 1) in index:
            add((i, j), (i, j + 1))          # along the row
        if (i + 1, j) in index:
            add((i, j), (i + 1, j))          # up-right
        if (i + 1, j - 1) in index:
            add((i, j), (i + 1, j - 1))      # up-left
    # one long diagonal across each interior unit edge, joining the apexes
    # of the two unit triangles that share it
    for i, j in verts:
        if i >= 1 and (i, j + 1) in index:                   # interior row edge
            add((i + 1, j), (i - 1, j + 1))
        if j >= 1 and (i + 1, j) in index:                   # interior up-right edge
            add((i, j + 1), (i + 1, j - 1))
        if (i + 1, j) in index and (i + 1, j + 1) in index:  # interior up-left edge
            add((i, j), (i + 1, j + 1))
    return Graph(len(verts), tuple(sorted(edges)), certificate=cert)


# --------------------------------------------------------------------------
# recognition (canonical form + regeneration)
# --------------------------------------------------------------------------

_RECOGNIZE_MAX_N = 40


def _twins(g: Graph) -> list[int]:
    """The least vertex of each vertex's twin class.  u and v are twins when
    they have the same neighbours apart from each other; swapping them is
    an automorphism that fixes every other vertex."""
    n, adj = g.n, g.adjacency
    twin = list(range(n))
    for u in range(n):
        if twin[u] == u:
            for v in range(u + 1, n):
                if twin[v] == v and adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                    twin[v] = u
    return twin


def _refine(nbrs, colors: tuple[int, ...]) -> tuple[int, ...]:
    """Iterated colour refinement: recolour each vertex by its colour and
    the sorted colours of its neighbours (nbrs[v], a tuple of vertices)
    until the partition is stable.  Colours are ranks of those signatures,
    so a discrete colouring is a numbering of the vertices."""
    while True:
        get = colors.__getitem__
        sigs = [(c, tuple(sorted(map(get, nb)))) for c, nb in zip(colors, nbrs)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(order[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def _individualize(nbrs, colors: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The refinement of colors with v given a colour of its own."""
    split = list(colors)
    split[v] = max(colors) + 1
    return _refine(nbrs, tuple(split))


def _target_cell(colors: tuple[int, ...]) -> list[int] | None:
    """The vertices of the least colour held by more than one vertex, in
    increasing order; None when the colouring is discrete."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    for c in sorted(cells):
        if len(cells[c]) > 1:
            return cells[c]
    return None


def _canonical_search(g: Graph, stop=None):
    """(least leaf edge tuple, generators of Aut(g)) from one search of the
    individualize-refine tree (McKay 1981; McKay & Piperno 2014).

    Each generator is a tuple mapping vertex v to p[v].  The generators
    start with the twin transpositions (see _twins).  A leaf whose edge tuple
    equals the first leaf's adds the map onto the first leaf's vertices of
    the same colours.  A node skips a target-cell vertex in the orbit of an
    explored sibling under the generators that fix the node's path
    pointwise, since such a generator maps the sibling's subtree onto the
    vertex's with the same leaf keys.  For the same reason a new generator
    sends the search back to the first-path node its leaf's path leaves
    from.  Each first-path node thus reaches the orbit of its child under
    the automorphisms fixing its path, so the generators span Aut(g), and
    every leaf key of the whole tree is met.  stop, a test of leaf keys,
    ends the search at the first leaf it passes, whose key is returned."""
    n = g.n
    twin = _twins(g)
    gens, last = [], {}
    for v in range(n):   # swap each twin with the one before it in its class
        u = last.get(twin[v])
        last[twin[v]] = v
        if u is not None:
            p = list(range(n))
            p[u], p[v] = v, u
            gens.append(tuple(p))
    nbrs = [tuple(_mask_bits(a)) for a in g.adjacency]
    first = best = None   # (key, path, colour -> vertex) of the first leaf

    def search(colors, path):
        """The depth of the first-path node to resume at."""
        nonlocal first, best
        target = _target_cell(colors)
        if target is None:
            key = tuple(sorted(tuple(sorted((colors[u], colors[v])))
                               for u, v in g.edges))
            if stop is not None and stop(key):
                best = key
                return -1   # below every depth: unwinds the whole search
            if first is None:
                first = key, path, sorted(range(n), key=colors.__getitem__)
                best = key
            elif key == first[0]:
                gens.append(tuple(first[2][c] for c in colors))
                return next(i for i, (u, v) in enumerate(zip(path, first[1]))
                            if u != v)
            elif key < best:
                best = key
            return len(path)
        orbit = set()
        for v in target:
            if v in orbit:
                continue
            orbit.add(v)
            resume = search(_individualize(nbrs, colors, v), path + (v,))
            if resume < len(path):
                return resume
            stab = [p for p in gens if all(p[u] == u for u in path)]
            frontier = list(orbit)
            for u in frontier:
                for p in stab:
                    if p[u] not in orbit:
                        orbit.add(p[u])
                        frontier.append(p[u])
        return len(path)

    search(_refine(nbrs, (0,) * n), ())
    return best, tuple(gens)


def canonical_key(g: Graph):
    """Canonical form of g: the lexicographically least edge tuple over all
    relabelings compatible with iterated colour refinement, found by
    _canonical_search.  Equal keys characterize isomorphism."""
    return (g.n, g._canonical[0])


def _automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Generators of Aut(g), each a tuple mapping vertex v to p[v], found by
    _canonical_search."""
    return g._canonical[1]


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """True iff a and b are isomorphic, keying neither: isomorphic graphs
    have the same leaf keys, and the search of a meets all of its own (see
    _canonical_search), so it looks for the key of b's first leaf only."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    key = _canonical_search(b, lambda _key: True)[0]
    return _canonical_search(a, key.__eq__)[0] == key


def recognize_family(g: Graph) -> FamilyCertificate | None:
    """Structurally re-derive a certificate for the families this supports:
    edgeless, complete, clique edge-strings (size 4..7, count >= 2) and
    face-strings (count >= 3).  Grids and hex triangles are not recognized,
    and neither are graphs with more than 40 vertices.

    Candidates are filtered by counts (vertices, edges), then confirmed by
    verify_certificate, so the answer does not depend on how the input
    happens to be labelled.
    """
    m = len(g.edges)
    if m == 0:
        return FamilyCertificate.edgeless(g.n)
    if m == g.n * (g.n - 1) // 2:
        return FamilyCertificate.complete(g.n)
    if g.n > _RECOGNIZE_MAX_N:
        return None

    for s in (4, 5, 6, 7):
        k, rest = divmod(g.n - 2, s - 2)
        if rest == 0 and k >= 2:
            cert = FamilyCertificate.clique_string(s, k)
            if verify_certificate(g, cert):
                return cert
    if g.n >= 6:
        cert = FamilyCertificate.face_string(g.n - 3)
        if verify_certificate(g, cert):
            return cert
    return None


def _chain_order(parts: list, overlap: int) -> list | None:
    """The parts, as sets, ordered into a path whose consecutive members
    meet in exactly ``overlap`` vertices (smaller overlaps count as
    non-adjacent), or None if that adjacency is not a path or some vertex
    lies in more than overlap + 1 parts, as no vertex of a string does (2
    cliques of a clique-string, 4 of a face-string).  Only parts sharing a
    vertex are compared, so with that limit the work is linear."""
    k = len(parts)
    sets = [set(p) for p in parts]
    holding: dict[int, list[int]] = {}   # vertex -> parts holding it
    for i, part in enumerate(sets):
        for v in part:
            holding.setdefault(v, []).append(i)
    if any(len(held) > overlap + 1 for held in holding.values()):
        return None
    neigh: list[list[int]] = [[] for _ in range(k)]
    for i, j in {pair for held in holding.values() for pair in combinations(held, 2)}:
        common = len(sets[i] & sets[j])
        if common == overlap:
            neigh[i].append(j)
            neigh[j].append(i)
        elif common > overlap:
            return None
    if k == 1:
        return sets
    ends = [i for i in range(k) if len(neigh[i]) == 1]
    if len(ends) != 2 or any(len(nb) > 2 for nb in neigh):
        return None
    order, prev = [ends[0]], -1
    while len(order) < k:
        nxt = [j for j in neigh[order[-1]] if j != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return [sets[i] for i in order]


def _is_chain_of(g: Graph, model: Graph, overlap: int) -> bool:
    """True iff g is isomorphic to model, a clique-string (overlap 2) or a
    face-string (overlap 3) as generate_family numbers it.

    Chains the maximal cliques of g, numbers the vertices in order of the
    run (first, last) of chained cliques holding them, and compares the
    renumbered edges with the model's.  The model numbers its vertices in
    run order, vertices with equal runs are twins in it and reversing the
    chain is an automorphism, so every member passes; a pass is an explicit
    isomorphism, so nothing else does.  The maximal cliques cover every
    vertex, so each one gets a run."""
    chain = _chain_order(maximal_cliques(g), overlap)
    if chain is None:
        return False
    run: dict[int, tuple[int, int]] = {}
    for i, clique in enumerate(chain):
        for v in clique:
            run[v] = (run.get(v, (i, i))[0], i)
    pos = {v: p for p, v in enumerate(sorted(run, key=run.__getitem__))}
    edges = sorted((pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
                   for u, v in g.edges)
    return tuple(edges) == model.edges


def _family_counts(cert: FamilyCertificate) -> tuple[int, int]:
    """(vertices, edges) of the graph cert describes, worked out without
    building it.  Raises ValueError when cert describes no graph: a
    parameter is missing or out of range, the grid cells are not connected
    through shared sides, or the graph is over MAX_VERTICES or MAX_EDGES.

    Every cell of a grid carries its four sides and both diagonals, and two
    cells meeting in a side share it; a hex triangle of side t has 3t(t+1)/2
    unit edges, 3t(t-1)/2 of them interior, each with one long diagonal."""
    fam = cert.family
    if fam in ("edgeless", "complete"):
        n = cert.n
        _require(n is not None and n >= 0, f"{fam}: n must be >= 0")
        m = 0 if fam == "edgeless" else n * (n - 1) // 2
    elif fam == "clique-string":
        s, k = cert.clique_size, cert.count
        _require(s is not None and s in (4, 5, 6, 7), "clique-string: size must be in 4..7")
        _require(k is not None and k >= 1, "clique-string: count must be >= 1")
        n, m = (s - 2) * k + 2, s * (s - 1) // 2 * k - (k - 1)
    elif fam == "face-string":
        k = cert.count
        _require(k is not None and k >= 1, "face-string: count must be >= 1")
        n, m = k + 3, 3 * k + 3
    elif fam == "hex-triangle":
        t = cert.side
        _require(t is not None and t >= 1, "hex-triangle: side must be >= 1")
        n, m = (t + 1) * (t + 2) // 2, 3 * t * t
    elif fam == "grid":
        _require(cert.cells, "grid: cell set must be non-empty")
        cells = set(cert.cells)
        # side-connected, so the generated graph is one 2-connected piece
        start = cert.cells[0]
        seen, frontier = {start}, [start]
        while frontier:
            x, y = frontier.pop()
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        _require(seen == cells, "grid: cells must be connected through shared sides")
        n = len({(x + dx, y + dy) for x, y in cells for dx in (0, 1) for dy in (0, 1)})
        m = 6 * len(cells) - sum(((x + 1, y) in cells) + ((x, y + 1) in cells)
                                 for x, y in cells)
    else:
        raise ValueError(f"unknown family {fam!r}")
    _require(n <= MAX_VERTICES, f"{fam}: {n} vertices is over the limit of {MAX_VERTICES}")
    _require(m <= MAX_EDGES, f"{fam}: {m} edges is over the limit of {MAX_EDGES}")
    return n, m


def verify_certificate(g: Graph, cert: FamilyCertificate) -> bool:
    """Check that g really is the graph cert describes, up to isomorphism.
    Run before trusting a certificate that arrived with parsed input.

    The vertex and edge counts are compared before any model is built, so
    a forged certificate with huge parameters costs nothing, and they alone
    settle edgeless and complete graphs.  Grids and hex triangles go to
    is_isomorphic, which keys neither graph."""
    try:
        if _family_counts(cert) != (g.n, len(g.edges)):
            return False
    except (ValueError, TypeError):
        return False
    fam = cert.family
    if fam in ("edgeless", "complete"):
        return True
    model = generate_family(cert)
    if fam in ("clique-string", "face-string"):
        return _is_chain_of(g, model, 2 if fam == "clique-string" else 3)
    if g.n > _RECOGNIZE_MAX_N:
        return False
    return is_isomorphic(g, model)


# --------------------------------------------------------------------------
# parsing and serialization
# --------------------------------------------------------------------------

FORMATS = ("edges", "csv", "json")

# Largest vertex count a parsed graph may have.  Vertex-indexed lists, such
# as Graph.adjacency and biconnected_blocks' tables, are N long whatever the
# edges, so a "# vertices: N" directive alone must not be able to size them.
MAX_VERTICES = 1 << 14

# Largest edge count of a generated complete graph: K_n under MAX_VERTICES
# still has up to 2^27 edges, each a tuple in Graph.edges.
MAX_EDGES = 1 << 20


def parse_graph(text: str, fmt: str = "edges") -> Graph:
    """Parse a graph from one of the supported text formats.

    - "edges": lines "u v"; '#' starts a comment; the directives
      "# vertices: N" and "# certificate: {json}" are honoured, each at
      most once.  Without a vertices directive, vertex ids are compacted
      to 0..n-1 in order of first appearance.
    - "csv": square comma-separated 0/1 adjacency matrix.
    - "json": {"vertices": n, "edges": [[u,v],...], "certificate": {...}?}.
    """
    if fmt == "edges":
        return _parse_edge_list(text)
    if fmt == "csv":
        return _parse_adjacency_csv(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")


def _clip(text: str) -> str:
    """text, or past 40 characters its first 40 and '...': as much of an
    offending input as an error message echoes."""
    return text if len(text) <= 40 else text[:40] + "..."


def _decimal(token: str) -> int:
    """The integer spelled by ASCII decimal digits after an optional '-';
    ValueError for anything else.  int() alone would also take "1_0", "+1"
    and "\u0663"."""
    digits = token[token[:1] == "-":]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{_clip(token)!r} is not an integer")
    return int(token)  # ValueError too over the digit limit


def _check_vertex_count(n: int, what: str) -> int:
    if n < 0:
        raise ParseError(f"{what} must be non-negative")
    if n > MAX_VERTICES:
        raise ParseError(f"{what} {n} is over the limit of {MAX_VERTICES} vertices")
    return n


def _parse_edge_list(text: str) -> Graph:
    """The "edges" format of parse_graph, in two loops: one over the lines,
    each split once, and one over the edge lines, which checks and numbers
    their vertices and builds the Graph unchecked.  Line errors (a bad
    directive or a line that is not two tokens) come first, then the
    vertices directive's range, then each edge line's errors in order."""
    declared_n = certificate = None
    rows: list[tuple[str, str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0][0] == "#":
            body = line.strip()[1:].strip()
            key = body.lower()
            if key.startswith("vertices:"):
                if declared_n is not None:
                    raise ParseError(f"line {lineno}: repeated vertices directive")
                try:
                    declared_n = _decimal(body.split(":", 1)[1].strip())
                except ValueError:
                    raise ParseError(f"line {lineno}: bad vertices directive") from None
            elif key.startswith("certificate:"):
                if certificate is not None:
                    raise ParseError(f"line {lineno}: repeated certificate comment")
                import json  # here, so a plain edge list never loads it
                try:
                    certificate = FamilyCertificate.from_dict(
                        json.loads(body.split(":", 1)[1]))
                except ValueError as exc:  # ParseError, bad JSON, too many digits
                    raise ParseError(f"line {lineno}: bad certificate comment ({exc})") from None
                except RecursionError:
                    raise ParseError(f"line {lineno}: bad certificate comment "
                                     "(nested too deeply)") from None
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {_clip(line.strip())!r}")
        rows.append((parts[0], parts[1], lineno))

    if declared_n is not None:
        _check_vertex_count(declared_n, "vertices directive")

    def vertex(token: str, lineno: int) -> None:
        """Raise the error of token if it is not a vertex in range."""
        try:
            value = _decimal(token)
        except ValueError:
            raise ParseError(f"line {lineno}: vertex {_clip(token)!r} "
                             "is not an integer") from None
        if token[:1] == "-":  # "-0" too
            raise ParseError(f"line {lineno}: out-of-range index {_clip(token)}")
        if declared_n is not None and value >= declared_n:
            raise ParseError(f"line {lineno}: out-of-range index {_clip(str(value))} "
                             f"(n={declared_n})")

    ids: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    ascii_text = text.isascii()  # then so is every token
    for tu, tv, lineno in rows:
        try:  # plain ASCII decimals in range; anything else is worded by vertex()
            if not (tu.isdigit() and tv.isdigit()
                    and (ascii_text or (tu.isascii() and tv.isascii()))):
                raise ValueError
            u, v = int(tu), int(tv)  # ValueError too over the digit limit
            if declared_n is not None and (u >= declared_n or v >= declared_n):
                raise ValueError
        except ValueError:
            vertex(tu, lineno)
            vertex(tv, lineno)
            raise AssertionError("unreachable") from None
        if declared_n is None:  # number the ids in order of first appearance
            u = ids.setdefault(u, len(ids))
            v = ids.setdefault(v, len(ids))
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {_clip(tu)}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge {_clip(tu)} {_clip(tv)}")
        seen.add(key)
        edges.append(key)

    if declared_n is None:
        n = _check_vertex_count(len(ids), "vertex count")
    else:
        n = declared_n
    labels = None
    if declared_n is None and any(ids[k] != k for k in ids):
        labels = tuple(map(str, ids))  # ids holds vertices in id order
    edges.sort()  # linear on the sorted lists serialize_graph writes
    return Graph._normalized(n, tuple(edges), labels, certificate)


def _parse_adjacency_csv(text: str) -> Graph:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        entries = [cell.strip() for cell in line.split(",")]
        parsed = []
        for col, cell in enumerate(entries):
            if cell not in ("0", "1"):
                raise ParseError(f"line {lineno}: entry {_clip(cell)!r} "
                                 f"at column {col} is not 0/1")
            parsed.append(int(cell))
        rows.append((lineno, parsed))

    n = _check_vertex_count(len(rows), "row count")
    for lineno, row in rows:
        if len(row) != n:
            raise ParseError(f"line {lineno}: row has {len(row)} entries, expected {n}")
    matrix = [row for _, row in rows]
    edges = []
    for i in range(n):
        if matrix[i][i] != 0:
            raise ParseError(f"line {rows[i][0]}: nonzero diagonal at ({i},{i})")
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise ParseError(
                    f"line {rows[j][0]}: asymmetric matrix at ({i},{j}) vs ({j},{i})")
            if matrix[i][j]:
                edges.append((i, j))
    return Graph(n, tuple(edges))


def _is_int(value) -> bool:
    """True for a JSON integer; json.loads gives booleans as bool, an int
    subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_json(text: str) -> Graph:
    import json
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from None
    except ValueError as exc:  # an integer literal over the digit limit
        raise ParseError(f"invalid JSON ({exc})") from None
    except RecursionError:
        raise ParseError("invalid JSON (nested too deeply)") from None
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    n = data.get("vertices")
    if not _is_int(n):
        raise ParseError("missing or invalid 'vertices' count")
    _check_vertex_count(n, "'vertices'")
    raw = data.get("edges", [])
    if not isinstance(raw, list):
        raise ParseError("'edges' must be a list of [u, v] pairs")
    seen = set()
    for pos, pair in enumerate(raw):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise ParseError(f"edge #{pos}: expected [u, v]")
        u, v = pair
        if not (_is_int(u) and _is_int(v)):
            raise ParseError(f"edge #{pos}: endpoints must be integers")
        if u == v:
            raise ParseError(f"edge #{pos}: self-loop at vertex {_clip(str(u))}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge #{pos}: out-of-range index in "
                             f"[{_clip(str(u))}, {_clip(str(v))}] (n={n})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"edge #{pos}: duplicate edge [{u}, {v}]")
        seen.add(key)
    certificate = None
    if data.get("certificate") is not None:
        certificate = FamilyCertificate.from_dict(data["certificate"])
    return Graph(n, tuple(sorted(seen)), certificate=certificate)


def serialize_graph(g: Graph, fmt: str = "edges") -> str:
    """Deterministic text form; parse_graph(serialize_graph(g, fmt), fmt)
    gives g back without its labels, which are not written (nor, in csv,
    its certificate)."""
    import json
    if fmt == "edges":
        lines = [f"# vertices: {g.n}"]
        if g.certificate is not None:
            lines.append("# certificate: " + json.dumps(g.certificate.to_dict(),
                                                        separators=(", ", ": ")))
        lines.extend(f"{u} {v}" for u, v in g.edges)
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        matrix = [["0"] * g.n for _ in range(g.n)]
        for u, v in g.edges:
            matrix[u][v] = matrix[v][u] = "1"
        return "\n".join(",".join(row) for row in matrix) + ("\n" if g.n else "")
    if fmt == "json":
        doc: dict = {"vertices": g.n, "edges": [[u, v] for u, v in g.edges]}
        if g.certificate is not None:
            doc["certificate"] = g.certificate.to_dict()
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")


def to_dot(g: Graph) -> str:
    """Graph in DOT syntax (plain undirected edges, labels when present)."""
    lines = ["graph G {"]
    for v in range(g.n):
        if g.labels is not None:
            lines.append(f'  {v} [label="{g.label(v)}"];')
        elif g.adjacency[v] == 0:
            lines.append(f"  {v};")
    lines.extend(f"  {u} -- {v};" for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
