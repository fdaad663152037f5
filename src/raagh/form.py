"""Cup products on degree-2 cohomology of a right-angled Artin group.

For a graph with edge set E and 4-clique set Q, the product of two degree-2
classes pairs basis elements indexed by E.  The pairing of (e, f) is zero
unless e and f are disjoint edges whose union spans a 4-clique q in Q, in
which case it is +/- the degree-4 class of q.  Within a 4-clique on vertices
i < j < k < l the three disjoint edge pairs carry signs

    (ij, kl) -> +q      (ik, jl) -> -q      (il, jk) -> +q

The signs matter over the integers but all computations here are reductions
mod 2: substituting a degree-4 functional alpha into the template yields a
symmetric GF(2) matrix with zero diagonal, i.e. an alternating bilinear form,
whose rank/kernel/symplectic structure the rest of the package consumes.

GF(2) matrices are stored as tuples of Python ints, one int per row, bit j
(LSB first) holding column j.
"""

from __future__ import annotations

from functools import cached_property

from .graphs import CliqueIndex, Graph, _clip, _Record, enumerate_cliques


# --------------------------------------------------------------------------
# template
# --------------------------------------------------------------------------

class CupFormTemplate(_Record):
    """Symbolic matrix of the degree-2 cup product.

    ``entries`` maps (row, col) -> (clique_id, sign) for the nonzero cells,
    with clique_id the 0-based position in ``cliques`` and sign in {+1, -1}.
    Both (r, c) and (c, r) are present; the diagonal is identically zero.
    """

    _fields = ("graph", "edges", "cliques", "entries")

    def __init__(self, graph: Graph, edges: CliqueIndex, cliques: CliqueIndex,
                 entries: dict):
        self.__dict__.update(graph=graph, edges=edges, cliques=cliques,
                             entries=entries)

    @property
    def dim(self) -> int:
        return len(self.edges)

    @property
    def num_cliques(self) -> int:
        return len(self.cliques)

    @cached_property
    def clique_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each 4-clique, its six (row, column-bit) contributions; used
        to build substituted matrices by XOR instead of dict traversal."""
        per: list[list[tuple[int, int]]] = [[] for _ in range(len(self.cliques))]
        for (r, c), (q, _sign) in self.entries.items():
            per[q].append((r, 1 << c))
        return tuple(tuple(sorted(p)) for p in per)


def build_cup_form(g: Graph) -> CupFormTemplate:
    """Template of the cup-product pairing on degree-2 classes of g.  Its
    4-cliques come from g's census when g holds one, else from a walk to
    depth 4, which on a dense graph costs far less than a census."""
    edges = CliqueIndex(2, g.edges)  # the lex-sorted 2-cliques
    census = g.__dict__.get("_census")  # filled once Graph._census is read
    cliques = CliqueIndex(4, census[1]) if census else enumerate_cliques(g, 4)
    pos = edges.position
    entries: dict = {}
    for q, (i, j, k, l) in enumerate(cliques.cliques):
        for (a, b), sign in ((((i, j), (k, l)), +1),
                             (((i, k), (j, l)), -1),
                             (((i, l), (j, k)), +1)):
            r, c = pos[a], pos[b]
            entries[(r, c)] = (q, sign)
            entries[(c, r)] = (q, sign)
    return CupFormTemplate(g, edges, cliques, entries)


# --------------------------------------------------------------------------
# alpha vectors (degree-4 functionals)
# --------------------------------------------------------------------------

class AlphaVector(_Record):
    """Element of the dual of degree-4 cohomology over GF(2).

    Encoded as an integer whose bit q (LSB first) is the coefficient of the
    q-th 4-clique; ``length`` is the number of 4-cliques.  The integer
    encoding orders all functionals, which fixes witness tie-breaking.
    """

    _fields = ("value", "length")

    def __init__(self, value: int, length: int):
        if value < 0 or value >> length:
            raise ValueError("alpha value out of range for its length")
        self.__dict__.update(value=value, length=length)

    def bit(self, q: int) -> int:
        return self.value >> q & 1

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.value >> q & 1 for q in range(self.length))

    @classmethod
    def from_bits(cls, bits) -> "AlphaVector":
        bits = tuple(int(b) for b in bits)
        return cls(sum(b << q for q, b in enumerate(bits)), len(bits))

    @classmethod
    def from_bitstring(cls, text: str) -> "AlphaVector":
        """Parse "0110..." with position q = coefficient of clique q."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"alpha bitstring must be nonempty 0/1, got {_clip(text)!r}")
        return cls.from_bits(int(ch) for ch in text)

    def to_bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)


# --------------------------------------------------------------------------
# GF(2) matrices
# --------------------------------------------------------------------------

class Gf2Matrix(_Record):
    _fields = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: tuple[int, ...]):
        self.__dict__.update(nrows=nrows, ncols=ncols, rows=rows)

    def entry(self, r: int, c: int) -> int:
        return self.rows[r] >> c & 1


def substitute(template: CupFormTemplate, alpha: AlphaVector) -> Gf2Matrix:
    """Evaluate the template at alpha over GF(2) (signs drop out mod 2).

    Rebuilt from scratch on every call; sweeping many alphas is the job of
    solver._scan, which re-reduces only the rows the changed cliques reach.
    """
    if alpha.length != template.num_cliques:
        raise ValueError(
            f"alpha has {alpha.length} coordinates, template has "
            f"{template.num_cliques} cliques")
    n = template.dim
    rows = [0] * n
    value = alpha.value
    clique_rows = template.clique_rows
    while value:
        low = value & -value
        for r, bit in clique_rows[low.bit_length() - 1]:
            rows[r] ^= bit
        value ^= low
    return Gf2Matrix(n, n, tuple(rows))


def _echelon(rows) -> dict[int, int]:
    """The one GF(2) elimination: each row, given as a bitmask, is reduced
    against the pivot rows found so far, keyed by their lowest set bit, and
    a nonzero remainder becomes a pivot row.  Returns {lowest bit: row}."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = basis.get(low)
            if pivot is None:
                basis[low] = row
                break
            row ^= pivot
    return basis


def rank_gf2(rows) -> int:
    """Rank of a GF(2) matrix given as an iterable of row bitmasks: the
    number of pivot rows of ``_echelon``."""
    return len(_echelon(rows))


def kernel_basis(mat: Gf2Matrix) -> tuple[int, ...]:
    """Basis of the right kernel {x : Mx = 0}, as column bitmasks.

    Clears each pivot's column from the other pivot rows of ``_echelon``,
    highest pivot first, which gives the unique reduced row echelon form,
    and reads one kernel vector off each free column, in increasing column
    order, so the result is deterministic.
    """
    basis = _echelon(mat.rows)
    lows = sorted(basis, reverse=True)
    for i, low in enumerate(lows):
        row = basis[low]
        for other in lows[i + 1:]:  # only lower pivot rows can hold bit low
            if basis[other] & low:
                basis[other] ^= row
    out = []
    for free in range(mat.ncols):
        bit = 1 << free
        if bit not in basis:
            out.append(bit | sum(low for low in lows if basis[low] & bit))
    return tuple(out)


# --------------------------------------------------------------------------
# symplectic structure
# --------------------------------------------------------------------------

class SymplecticDecomposition(_Record):
    """Hyperbolic pairs (x_i, y_i) with B(x_i, y_i) = 1 and a basis of the
    radical; together they span the whole space and pairs are orthogonal to
    each other and to the radical."""

    _fields = ("pairs", "radical")

    def __init__(self, pairs: tuple[tuple[int, int], ...],
                 radical: tuple[int, ...]):
        self.__dict__.update(pairs=pairs, radical=radical)


def symplectic_reduce(mat: Gf2Matrix) -> SymplecticDecomposition:
    """Decompose an alternating GF(2) form into hyperbolic pairs + radical.

    Working over the standard basis e_0..e_{n-1}: repeatedly take the lowest
    remaining vector x with a partner, take its lowest partner y, and correct
    every other vector z by z + B(z,y) x + B(z,x) y to make it orthogonal to
    the pair.  Vectors left without partners form the radical.  B(z, v) is
    the parity of z & Mv, and M is symmetric, so Mv is the XOR of the rows
    at the bits of v; it is formed once for each member of a pair.
    """
    rows = mat.rows

    def image(v: int) -> int:
        out = 0
        while v:
            low = v & -v
            out ^= rows[low.bit_length() - 1]
            v ^= low
        return out

    vectors = [1 << i for i in range(mat.ncols)]
    pairs = []
    radical = []
    while vectors:
        x = vectors.pop(0)
        mx = image(x)
        partner = next((i for i, y in enumerate(vectors)
                        if (y & mx).bit_count() & 1), None)
        if partner is None:
            radical.append(x)
            continue
        y = vectors.pop(partner)
        my = image(y)
        vectors = [z ^ (x if (z & my).bit_count() & 1 else 0)
                   ^ (y if (z & mx).bit_count() & 1 else 0) for z in vectors]
        pairs.append((x, y))
    return SymplecticDecomposition(tuple(pairs), tuple(radical))


def max_isotropic(mat: Gf2Matrix) -> tuple[int, ...]:
    """Basis of a maximal isotropic subspace: the radical plus the first
    member of each hyperbolic pair.  Size = ncols - rank/2."""
    dec = symplectic_reduce(mat)
    return tuple(list(dec.radical) + [x for x, _y in dec.pairs])


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _edge_name(template: CupFormTemplate, idx: int, letter: str = "z") -> str:
    u, v = template.edges.cliques[idx]
    a, b = u + 1, v + 1
    sep = "," if b >= 10 else ""
    return f"{letter}{a}{sep}{b}"


def render_vector(template: CupFormTemplate, vec: int, letter: str = "z") -> str:
    """Human form of an edge-space vector, e.g. ``z12+z56`` (1-based pairs,
    comma-separated once indices reach 10)."""
    names = [_edge_name(template, i, letter)
             for i in range(template.dim) if vec >> i & 1]
    return "+".join(names) if names else "0"


def dump_template(template: CupFormTemplate) -> str:
    """Grid of ``0`` / ``+p`` / ``-p`` with p the 1-based 4-clique number."""
    n = template.dim
    cells = [["0"] * n for _ in range(n)]
    for (r, c), (q, sign) in template.entries.items():
        cells[r][c] = f"{'+' if sign > 0 else '-'}{q + 1}"
    width = max((len(x) for row in cells for x in row), default=1)
    return "\n".join(" ".join(x.rjust(width) for x in row) for row in cells) + "\n"


def dump_matrix(mat: Gf2Matrix) -> str:
    """Rows of space-separated 0/1."""
    return "\n".join(
        " ".join(str(mat.entry(r, c)) for c in range(mat.ncols))
        for r in range(mat.nrows)) + "\n"
