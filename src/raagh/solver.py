"""Maximizing the GF(2) rank of the substituted cup form.

m2(G) is the maximum rank of the degree-2 pairing over all degree-4
functionals alpha.  Substituted forms are alternating, so every rank is even
and m2 can never exceed the parity ceiling (b2 rounded down to even); a
functional reaching the ceiling certifies the maximum without scanning the
rest of the space, which is what makes several large examples tractable.

A functional is encoded as an integer (bit q = 4-clique q), and the
reported witness is the first maximizer in increasing encoding order.

The exhaustive scan is a depth-first branch and bound over the clique bits,
fixed from high to low with 0 tried before 1, so encodings are visited in
integer order.  Rows are laid out so that once cliques >= q are decided, a
prefix of rows is final (see _plan); with r the rank of that prefix, no
encoding below the node has rank above r + (rows left), capped at the
parity ceiling and rounded down to even, because every rank is even.  A
subtree whose bound does not beat the best rank so far is skipped whole.
Only a strictly higher rank replaces the best; a skipped subtree holds no
higher rank, and any tie in it comes after the witness already kept, so
the witness stays the first maximizer.  Once the best reaches the ceiling
no bound beats it, so the ceiling exit is the bound pruning everything
left.  Each step to the next encoding flips the cliques that changed and
re-reduces only the rows they reach, reusing the pivots of the rows before
them (see _scan).

Gluing at separating edges.  An edge (a row of the form) separates when
the 4-cliques on it fall into two or more groups that share no other edge,
as when removing the endpoints of uv disconnects the block and 4-cliques
on uv lie on two sides of that cut.  No 4-clique crosses such an edge e,
so the substituted matrix is block diagonal apart from e's row and column.
Deleting one row and its column of an alternating form lowers the rank by
t in {0, 2}; with r_i' the rank of side i with e deleted, the rank is
sum r_i' + max t_i, so

    m2 = max over sides j of  m2(side j) + sum over i != j of m2_e(side i)

where m2_e is the maximum with e's row and column deleted.  In the
bipartite graph of 4-cliques and rows, each clique joined to its six
rows, the separating rows are the rows that are cut nodes, and the
4-cliques fall into parts: the cliques of the blocks of that graph,
joined through shared cliques.  Blocks and cut nodes form a tree, so
parts and separating ("outer") rows form a forest; parts that share two
separating rows, each separating only because of a third part hung on
it, lie in one block and so are one part.  4-cliques that share a
triangle share three rows, so a class of them joined by shared triangles
stays connected without any one row and lies in one block, and cliques
of two classes share at most one row: _parts reads the blocks off the
small graph of classes and the rows of two or more classes, and builds
none when one class holds every clique.  Each part is ranked once per
delete pattern of its outer rows, and the part maxima combine by that
max-plus rule up each tree.  Deleting a row never raises the rank, so the
maximum with nothing deleted bounds every other pattern, which then takes
a pass or two; equal _plans are the same matrix up to renaming, so each
is ranked once per _glued_m2 call.  Groups sharing no edge at all
(cliques meeting in single vertices) just add.  compute_m2 takes this
path only when the parts' scans, 2^(cliques + outer rows) encodings each
plus a fixed cost per scan, add up to fewer than the block's 2^b4.

Descending targets.  compute_m2 scans from an upper bound top on every
rank, one pass per target t = top, top - 2, ...: a pass is a scan with
ceiling t from the incumbent t - 2, so it skips every subtree whose bound
cannot reach t and stops at the first encoding that does.  The passes
before it found no rank of t + 2 or more, so no rank exceeds t and that
encoding is the first maximizer.  A pass prunes wherever the plain scan
does, since the plain scan's incumbent stays at or below m2 - 2 until it
reaches the witness and is m2 after it, so each pass visits a subset of the
plain scan's nodes.  On a split block top is the glued m2 and one pass
finds the witness; otherwise top is the term-rank bound.

Term rank.  The rank of a matrix is at most its term rank, the largest
number of nonzero entries with no two in one row or column: a maximum
matching of rows to columns on the support (Edmonds 1967; Hopcroft and
Karp 1973), grown here by augmenting paths.  An entry of the form lies in
one 4-clique only, the one its two disjoint edges span, so the support of
the all-ones encoding holds every encoding's, and its even term rank is
top.  That is never above the parity ceiling, since a term rank is at
most the number of rows.  In a subtree, the live support (the cliques
below its level and the fixed 1-cliques) bounds every encoding there the
same way.  On unsplit blocks with b4 >= _TERM_RANK_B4 whose top lies
below the parity ceiling, the cuts of the top _TERM_RANK_LEVELS levels
test it and skip a subtree whose even term rank does not beat the best; a
0-child repairs its parent's matching, dropping the entries of its new
0-cliques and re-augmenting (see _scan).  Where the term rank meets the
ceiling, as on K8 minus a matching (24 rows, term rank 24), the top cuts
rarely lose enough support to prune and the matchings cost more than they
save.  Like the bound, the test skips only subtrees that hold no higher
rank, so the result is the plain scan's.
With nothing deleted, _part_rank descends from a part's own top on parts
of at least _PART_DESCENT_CLIQUES cliques (the K6s of clique-string 6xk);
smaller parts, like the K5s of 5xk, scan faster from no incumbent.

Orbit pruning.  An automorphism of the graph permutes the 4-cliques and
the rows alike, so it maps each encoding to one of the same rank.  The
first maximizer is therefore the least encoding of its orbit under
Aut(G): no encoding that some automorphism maps lower is ever the
witness.  Both scans can take per-cut tests (_orbit_checks) from the
generators of Aut(G) that _automorphism_generators reads off the
individualize-refine search behind canonical_key, and skip a subtree
when a generator maps every encoding in it lower, read off the bits the
subtree fixes (isomorphism pruning, Margot 2002).  The tests are carried
down the cuts like the pivot log: a generator whose image is larger is
dropped for the subtree, and one still equal reads only the pairs the
next cut adds, so no pair is read twice along a path.  A skipped encoding x
has a lower image of the same rank that is either visited, bound-skipped
(so no higher than the incumbent), or skipped the same way, so the
incumbent at every point is what the plain scan has there: the result
(rank, first maximizer) is the plain scan's, with any subset of Aut(G),
and the nodes are a subset of its nodes.  The generator search costs
about half a millisecond to a millisecond, so it runs only where it has
paid in measurements: on unsplit blocks with b4 >= _ORBIT_PRUNE_B4 that
have twins (two vertices with the same neighbours apart from each
other), and on split blocks with b4 >= _ORBIT_GLUED_B4 whose parts share
a row.  Twin-free blocks, like face-strings (whose one automorphism, the
reversal, decides at level 0 only), circulants and hex triangles, saved
at most a few milliseconds; the witness scan of clique-string 5x3 saved
6-54 nodes for 0.8 ms, where 5x4 saved about 500 of 1,000 nodes and 5x5
about 20,000 of 28,000.  Over parts that share no row the search grows
with the number of symmetric parts (28 disjoint K4s: about 0.5 s,
against 2 ms for the scan).
_part_rank scans parts with rows deleted, which breaks the symmetry, so it
takes no tests.

Heuristic.  m2_heuristic reports what ranking its fixed seeds one by one
in seed order gives: the highest rank with the least seed reaching it, or
the first seed in seed order that reaches the ceiling.  The all-ones seed,
seeds[0], is ranked first and often reaches the ceiling alone.  The others
go through one trial walk of _scan: it visits only the given encodings, in
integer order, with the same pivot reuse and bound, from the incumbent
rank(seeds[0]) - 1, so it returns the least seed of the highest rank
unless seeds[0] beats them all, and a tie with seeds[0] keeps the smaller.
A walk that reaches the ceiling stops at the least ceiling seed; every
seed below it was ranked or bounded below the ceiling, so the first one in
seed order is that hit or a larger seed listed before it, and only those
are tested, each by a walk of one trial.  So the witness is the seed-order
one, and every report stays as it was.

The walk's ceiling is a proven upper bound U on every rank (_upper): the
term rank top when it lies below the parity ceiling; else, on a block that
splits, the glued m2, when the part scans, charged as compute_m2 charges
them, cost fewer encodings than the walk's own trials x rows; else the
parity ceiling.  No seed ranks above U, so stopping at the least seed that
reaches U returns the least seed of the highest rank, as the full walk
would; the parity ceiling alone still decides exhaustive and the
seed-order rule.  A block whose largest clique alone, with its C(omega, 4)
cliques in one part, costs that budget is not cut into parts, so complete
graphs and the 6- and 7-strings pay nothing for it.  On a relabeled
clique-string 5x3 the walk stops after 8 of its 509 trials, at the glued
m2 18, and a call takes about 0.8 ms instead of 4.6; 5x20 about 5 ms
instead of 60 (medians, 2-core Xeon VM, Python 3.11.7).  U goes out as
the result's upper, and hbounds takes the cohomological bound at it, since
2 b2 - x bounds h from below for every x >= m2 and an uncertified result
may lie below m2.

Every scan runs in this process, so the result, witness included, does
not depend on SolverConfig.workers.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import cache
from math import comb

from .form import (AlphaVector, CupFormTemplate, build_cup_form, kernel_basis,
                   rank_gf2, render_vector, substitute)
from .graphs import (Graph, _automorphism_generators, _mask_bits, _Record,
                     _twins, betti, biconnected_blocks, induced_subgraph,
                     maximal_cliques)

_PART_SCAN_COST = 64
_ORBIT_PRUNE_B4 = 12
_ORBIT_GLUED_B4 = 18
_TERM_RANK_B4 = 10
_TERM_RANK_LEVELS = 10
_PART_DESCENT_CLIQUES = 8
_DEFAULT_HEURISTIC_SEED = 0x5EED
_HEURISTIC_TRIES = 512


class CapExceeded(Exception):
    """Exhaustive enumeration refused: 2^b4 functionals is over budget."""

    def __init__(self, b4: int, cap: int):
        super().__init__(
            f"graph has {b4} 4-cliques; exhaustive scan of 2^{b4} functionals "
            f"exceeds the cap of 2^{cap} (raise the cap or use the heuristic)")
        self.b4 = b4
        self.cap = cap


class SolverConfig(_Record):
    """Knobs for compute_m2.

    cap bounds the exponent of the exhaustive scan (b4 <= cap).  workers is
    accepted and echoed in reports, but the scan always runs in this
    process, so it changes nothing.
    """

    _fields = ("cap", "workers")

    def __init__(self, cap: int = 28, workers: int = 1):
        self.__dict__.update(cap=cap, workers=workers)


DEFAULT_CONFIG = SolverConfig()


class M2Result(_Record):
    """Outcome of a rank search.

    exhaustive is True when the value is certified to be the true maximum:
    either every functional was inspected, or some functional reached the
    parity ceiling.  A heuristic result is exhaustive only in the second
    case, and then its witness need not be the canonically first one.
    upper is a proven upper bound on the true m2, and equals m2 when the
    result is exhaustive.
    """

    _fields = ("m2", "witness", "radical_dim", "exhaustive", "upper")

    def __init__(self, m2: int, witness: AlphaVector, radical_dim: int,
                 exhaustive: bool, upper: int):
        self.__dict__.update(m2=m2, witness=witness, radical_dim=radical_dim,
                             exhaustive=exhaustive, upper=upper)


def parity_ceiling(b2: int) -> int:
    """Largest even number <= b2; no alternating form on b2 columns can
    have larger rank."""
    return b2 - (b2 & 1)


# --------------------------------------------------------------------------
# rank scanning
# --------------------------------------------------------------------------

def _plan(clique_rows) -> tuple:
    """Row layout for the branch-and-bound scan: (nrows, flips, cuts,
    levels, entry).

    Edges in no 4-clique have identically zero rows and columns and are
    dropped.  The other rows are ordered by the lowest clique that touches
    them, descending, and columns are permuted the same way, so clique q
    touches only rows and columns from start[q] = nrows - (rows touched by
    cliques 0..q) onward.  flips[q] holds clique q's six (row, column-bit)
    contributions in the new layout.

    Once the cliques >= q are decided, rows [0, ends[q]) are final, where
    ends[0] = nrows and ends[q] = start[q-1].  cuts lists the distinct
    ends in increasing order; levels[i] is the largest q with
    ends[q] = cuts[i], the biggest subtree those final rows bound.
    entry[q] is the index of start[q] in cuts: after a step whose highest
    changed clique is q, reduction resumes there.
    """
    first: dict[int, int] = {}  # row -> index of first appearance, by clique
    seen = []                   # rows touched by cliques 0..q
    for contribs in clique_rows:
        for r, _bit in contribs:
            if r not in first:
                first[r] = len(first)
        seen.append(len(first))
    nrows = len(first)
    pos = {r: nrows - 1 - k for r, k in first.items()}
    flips = tuple(tuple((pos[r], 1 << pos[bit.bit_length() - 1]) for r, bit in contribs)
                  for contribs in clique_rows)
    ends = [nrows] + [nrows - k for k in seen]
    level_of = {cut: q for q, cut in enumerate(ends)}  # last, so largest, q wins
    cuts = tuple(sorted(level_of))
    index = {cut: i for i, cut in enumerate(cuts)}
    levels = tuple(level_of[cut] for cut in cuts)
    entry = tuple(index[cut] for cut in ends[1:])
    return nrows, flips, cuts, levels, entry


def _support(plan) -> list[int]:
    """Row masks of the support of every clique of the plan together.  An
    entry (row, column) lies in one 4-clique only (its two disjoint edges
    span it), so this is the form at the all-ones encoding."""
    rows = [0] * plan[0]
    for contribs in plan[1]:
        for p, bit in contribs:
            rows[p] |= bit
    return rows


def _augment(adj, mate, owner, size: int, need: int) -> int:
    """Grow a matching of rows to columns inside the support adj (row ->
    column mask) by augmenting paths from its free rows, each tried once,
    until it holds need pairs; returns its size.

    mate maps a row to its column bit (0 when free) and owner a column bit
    to its row, and both are updated in place.  From any matching, trying
    every free row once gives a maximum one: a row with no augmenting path
    gets none after other augmentations.  So a size below need is the term
    rank.  The columns a failed search saw lead to no free column until the
    matching changes, so they stay seen until the next success.
    """
    if size >= need:
        return size
    taken = seen = 0
    for c in owner:
        taken |= c
    for r, row in enumerate(adj):
        if size >= need:
            break
        if not row or mate[r]:
            continue
        # depth-first search: path[k] reaches path[k + 1] through the
        # column cols[k] it would take over
        path, cols = [r], []
        while path:
            u = path[-1]
            free = adj[u] & ~taken
            if free:
                c = free & -free
                taken |= c
                cols.append(c)
                for v, col in zip(path, cols):
                    owner[col] = v
                    mate[v] = col
                size += 1
                seen = 0
                break
            cand = adj[u] & ~seen
            if cand:
                c = cand & -cand
                seen |= c
                cols.append(c)
                path.append(owner[c])
            else:
                path.pop()
                if cols:
                    cols.pop()
    return size


def _term_rank(rows) -> int:
    """Largest number of nonzero entries, no two in one row or column, of a
    support given as row masks: a bound on the rank of every matrix on it."""
    return _augment(rows, [0] * len(rows), {}, 0, len(rows) + 1)


def _scan(plan, ceiling: int, best: int = -1, checks=None,
          trials=None, terms=None) -> tuple[int, int | None, int]:
    """(best rank, first encoding reaching it, nodes) over every encoding of
    the plan's cliques, by depth-first branch and bound in integer order,
    starting from the incumbent rank best.  Only a strictly higher rank is a
    hit; with no hit the result is (best, None, nodes).

    Reducing the rows of the current encoding passes the cuts in order.
    The rows before cut i are final in the subtree of levels[i]; with r
    their rank, no encoding there has rank above r + (rows after the cut),
    capped at the ceiling and rounded down to even.  When that bound does
    not beat the best, the scan jumps past the subtree; at the last cut
    (nrows) the bound is the rank itself.  A step to the next encoding
    flips the cliques that changed; the pivots of the rows before start[t]
    (t the highest changed clique) stay valid, so it undoes the pivot
    insertions logged since that cut and re-reduces only the suffix.
    Pivots are kept in a list by leading bit; a rank does not depend on the
    elimination order.  nodes counts the encodings at which it resumed.

    checks, when given, holds per cut the orbit tests of _orbit_checks:
    on stepping down to cut i, before its rows are reduced, each generator
    in live[i - 1], still equal above, reads the pairs the cut adds.  At
    the first that differs the image is smaller throughout the subtree of
    levels[i], which is skipped, when the encoding has the 1 there, and
    larger otherwise, and the generator leaves live[i].  A step leaves the
    bits the cuts up to its entry read unchanged, so their masks stay
    valid, as the pivots do.

    trials, when given, is a sorted, non-empty sequence of encodings, and
    the walk visits only those: it starts at trials[0] and steps to the
    least trial past the current subtree, so the result is the first
    maximizer among the trials.  A step still changes only cliques at or
    above the level the walk left, so the pivots before its entry cut stay
    valid.  A trial set need not be closed under Aut(G), so a trial walk
    takes no checks.

    terms, when given, is the lowest level whose cut tests the term rank:
    on stepping down to such a cut, the subtree is skipped when the even
    term rank of its live support, the cliques below the level and the
    fixed 1-cliques, does not beat the best.  Each tested cut keeps its
    (support, matching); a child drops its new 0-cliques' entries from a
    copy of its parent's and re-augments.
    """
    nrows, flips, cuts, levels, entry = plan
    live = [-1] * len(cuts)     # per cut, a mask of generators still equal
    tested = 0
    if terms is not None:
        adj = _support(plan)
        mate = [0] * nrows
        owner: dict[int, int] = {}
        supports = [(adj, mate, owner, _augment(adj, mate, owner, 0, nrows))]
        supports += [None] * (len(cuts) - 1)
        tested = sum(level >= terms for level in levels)
    rows = [0] * nrows
    pivots = [0] * (nrows + 1)  # the pivot row of each leading bit length
    log: list[int] = []         # pivot keys in insertion order
    mark = [0] * len(cuts)      # len(log) when cut i was reached
    append = log.append
    best_rank, best_alpha, nodes = best, None, 0
    end = 1 << len(flips)
    # the bound at a cut does not beat best_rank iff r - cut <= slack
    # (best | 1 is best + 1 for an even rank, and -1 before any rank);
    # always once the ceiling is reached
    slack = nrows if best >= ceiling else (best | 1) - nrows
    value = i = k = 0
    if trials is not None:
        value = trials[0]
        for q in _mask_bits(value):
            for p, bit in flips[q]:
                rows[p] ^= bit
    while True:
        nodes += 1
        r = mark[i]
        for key in log[r:]:
            pivots[key] = 0
        del log[r:]
        while True:
            cut = cuts[i]
            if r - cut <= slack:
                skip = (1 << levels[i]) - 1
                break
            if cut == nrows:
                best_rank, best_alpha, skip = r, value, 0
                slack = nrows if r >= ceiling else r + 1 - nrows
                break
            mark[i] = r
            i += 1
            if checks:
                alive, below = live[i - 1], 0
                for j, pairs in checks[i]:
                    if alive >> j & 1:
                        for p, source in pairs:
                            if (value >> p ^ value >> source) & 1:
                                # the first difference: the image is
                                # smaller when value has the 1
                                below = value >> p & 1
                                alive ^= 1 << j
                                break
                        if below:
                            break
                if below:
                    skip = (1 << levels[i]) - 1
                    break
                live[i] = alive
            if i < tested:
                need = slack + nrows + 1
                adj, mate, owner, size = supports[i - 1]
                gone = ~value & ((1 << levels[i - 1]) - (1 << levels[i]))
                if gone or size < need:
                    adj, mate, owner = adj[:], mate[:], dict(owner)
                    for q in _mask_bits(gone):
                        for p, bit in flips[q]:
                            adj[p] ^= bit
                            if mate[p] == bit:
                                mate[p] = 0
                                del owner[bit]
                                size -= 1
                    size = _augment(adj, mate, owner, size, need)
                supports[i] = adj, mate, owner, size
                if size < need:
                    skip = (1 << levels[i]) - 1
                    break
            for row in rows[cut:cuts[i]]:
                while row:
                    lead = row.bit_length()
                    pivot = pivots[lead]
                    if not pivot:
                        pivots[lead] = row
                        append(lead)
                        r += 1
                        break
                    row ^= pivot
        nxt = (value | skip) + 1
        if trials is not None:
            k = bisect_left(trials, nxt, k)
            nxt = trials[k] if k < len(trials) else end
        if nxt == end:
            return best_rank, best_alpha, nodes
        changed = value ^ nxt
        value = nxt
        i = entry[changed.bit_length() - 1]
        while changed:
            low = changed & -changed
            for p, bit in flips[low.bit_length() - 1]:
                rows[p] ^= bit
            changed ^= low


def _orbit_checks(g: Graph, template: CupFormTemplate, plan) -> tuple | None:
    """Per cut of the plan, the orbit tests by which _scan skips a subtree
    that holds no least element of an orbit of Aut(g); None when no
    generator moves a 4-clique.

    Each generator of _automorphism_generators maps 4-cliques to 4-cliques,
    clique q to perm[q], and so an encoding x to image(x) with bit perm[q]
    set for each bit q of x.  Its pairs are the (bit p, source bit
    perm^-1(p)) that differ, highest p first.  At the cut of level q (bits
    >= q fixed) it reads its pairs with p >= k, for the least k >= q such
    that every bit >= k of image(x) comes from a bit >= q of x: then
    image(x) >> k is the same for every x in the subtree, and when it is
    below x >> k, every x there has a smaller image.  k falls with the
    level, so cut i lists, as (generator index, pairs), only the pairs
    that the cut above did not read.
    """
    cliques = template.cliques
    verts = sorted({v for c in cliques.cliques for v in c})
    # automorphisms of the subgraph on the cliques' vertices keep the set of
    # 4-cliques, and so the rank; the other vertices play no part in the
    # form, and leaving them out keeps the search to at most 4 * b4 vertices
    h = g if len(verts) == g.n else induced_subgraph(g, verts)[0]
    index = {v: i for i, v in enumerate(verts)}
    b4 = len(cliques)
    checks: list[list] = [[] for _level in plan[3]]
    for j, sigma in enumerate(_automorphism_generators(h)):
        inv = [0] * b4
        for q, c in enumerate(cliques.cliques):
            image = tuple(sorted(verts[sigma[index[v]]] for v in c))
            inv[cliques.position[image]] = q
        # least[k] = min(inv[k:]) and above[k] counts the pairs with p >= k:
        # level q reads above[k] for the least k >= q with least[k] >= q
        least, above = [b4] * (b4 + 1), [0] * (b4 + 1)
        for p in reversed(range(b4)):
            least[p] = min(least[p + 1], inv[p])
            above[p] = above[p + 1] + (inv[p] != p)
        pairs = tuple((p, inv[p]) for p in reversed(range(b4)) if inv[p] != p)
        read = 0
        for fresh, level in zip(checks, plan[3]):
            count = above[max(level, bisect_left(least, level))]
            if count > read:
                fresh.append((j, pairs[read:count]))
                read = count
    return tuple(map(tuple, checks)) if any(checks) else None


# --------------------------------------------------------------------------
# gluing at separating edges
# --------------------------------------------------------------------------

def _parts(template: CupFormTemplate) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The cliques cut at every separating row: (cliques, outer rows) per
    part, in order of least clique (see the module docstring).

    The blocks come from the graph of the classes of cliques that shared
    triangles join and the rows of two or more classes, merged through
    shared classes; a class that shares no row is a part of its own.
    """
    b4 = template.num_cliques
    # union-find of cliques sharing a triangle; q stays a root in its turn,
    # so a root lies above its members
    root, first = list(range(b4)), {}
    for q, (a, b, c, d) in enumerate(template.cliques.cliques):
        for triangle in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
            u = first.setdefault(triangle, q)
            while root[u] != u:
                u = root[u]
            if u != q:
                root[u] = q
    members = [0] * b4          # clique mask per class, at its root
    for q in reversed(range(b4)):
        root[q] = root[root[q]]
        members[root[q]] |= 1 << q
    if members[-1] == (1 << b4) - 1:
        return [(tuple(range(b4)), ())]
    on_row: dict[int, int] = {}  # row -> mask of the classes on it
    for q, contribs in enumerate(template.clique_rows):
        for r, _bit in contribs:
            on_row[r] = on_row.get(r, 0) | 1 << root[q]
    shared = [r for r, classes in sorted(on_row.items()) if classes & classes - 1]
    # distinct pairs u < v, so the graph needs no normalizing
    incidence = tuple(sorted((c, b4 + j) for j, r in enumerate(shared)
                             for c in _mask_bits(on_row[r])))
    # (class mask, row mask) per part, from each class alone
    merged = [(1 << c, 0) for c in range(b4) if members[c]]
    seen = separating = 0
    for block in biconnected_blocks(Graph._normalized(b4 + len(shared), incidence)):
        classes = sum(1 << v for v in block if v < b4)
        rows = sum(1 << (v - b4) for v in block if v >= b4)
        separating |= seen & rows
        seen |= rows
        for other in [m for m in merged if m[0] & classes]:
            merged.remove(other)
            classes |= other[0]
            rows |= other[1]
        merged.append((classes, rows))
    return sorted((tuple(_mask_bits(sum(members[c] for c in _mask_bits(classes)))),
                   tuple(shared[j] for j in _mask_bits(rows & separating)))
                  for classes, rows in merged)


def _part_plan(clique_rows, cliques, deleted: int) -> tuple:
    """The _plan of the cliques without the rows and columns in deleted;
    cliques left with no entry are dropped."""
    left = (tuple((r, bit) for r, bit in clique_rows[q]
                  if not (deleted >> r & 1 or bit & deleted)) for q in cliques)
    return _plan([contribs for contribs in left if contribs])


def _part_rank(plan, kept: int | None = None) -> int:
    """Maximum rank over the encodings of a part's plan.  With nothing
    deleted (kept None), the scan capped at the parity ceiling, or on parts
    of at least _PART_DESCENT_CLIQUES cliques the descent from their top.
    Otherwise kept is that maximum, and deleting a row and its column never
    raises the rank of an alternating matrix, so t = min(kept, that bound)
    bounds every rank: one pass at t from the incumbent t - 2 hits exactly
    when the maximum is t, and on a miss the plain scan capped at t - 2
    finds it."""
    big = len(plan[1]) >= _PART_DESCENT_CLIQUES
    top = _top(plan) if big else parity_ceiling(plan[0])
    if kept is None:
        return _descend(plan, top)[0] if big else _scan(plan, top)[0]
    t = min(kept, top)
    rank, alpha, _nodes = _scan(plan, t, t - 2)
    return rank if alpha is not None else _scan(plan, t - 2)[0]


def _parts_worth_scanning(template: CupFormTemplate,
                          budget: int | None = None) -> list | None:
    """The parts of the template's block when it splits into two or more
    and scanning them costs fewer than budget encodings, by default the
    whole block's 2^b4, else None.

    Each part is scanned once per delete pattern of its outer rows, and
    each of those scans is charged _PART_SCAN_COST encodings on top of its
    own 2^cliques: its setup costs a few scan nodes, and the whole-block
    scan it competes with often prunes most of its 2^b4 encodings (it
    visits 46 of 256 on the K4-string 4x8).  A cut at a row leaves at least
    two parts scanned twice each, so a budget too small for that to pay is
    not examined; it forgoes only splits into groups meeting in vertices,
    which at that size save next to nothing.

    Shared triangles joining all 4-cliques (K8 minus a perfect matching,
    face-strings, hex triangles) make one part, and no graph of classes is
    built (see _parts).
    """
    if budget is None:
        budget = 1 << template.num_cliques
    if budget <= 4 * (_PART_SCAN_COST + 2):
        return None
    parts = _parts(template)
    if len(parts) == 1 or sum((_PART_SCAN_COST + (1 << len(cliques))) << len(outer)
                              for cliques, outer in parts) >= budget:
        return None
    return parts


def _glued_m2(clique_rows, parts) -> int:
    """m2 from scans of the parts.

    Each part is ranked once per delete pattern of its outer rows, nothing
    deleted first (see _part_rank).  _plan numbers rows and columns by first
    appearance, so equal plans are the same matrix up to renaming, and each
    plan is ranked once per call.  Up each tree of parts and rows, taken
    breadth first, the sides meeting at a row e combine as max_j (m2 of
    side j + sum over the other sides of their m2 with e deleted), and
    trees add.
    """
    on_row: dict[int, list[int]] = {}
    for p, (_cliques, outer) in enumerate(parts):
        for r in outer:
            on_row.setdefault(r, []).append(p)
    ranks: dict[tuple, int] = {}   # plan -> its maximum, for this call only
    # best rank of each part's subtree with its row up kept / deleted
    below: list = [None] * len(parts)
    total = 0
    for root in range(len(parts)):
        if below[root] is not None:
            continue
        order = [(root, None)]   # (part, row up)
        for p, up in order:
            order.extend((c, r) for r in parts[p][1] if r != up
                         for c in on_row[r] if c != p)
        for p, up in reversed(order):
            cliques, outer = parts[p]
            # (i, best of the other sides on outer[i] when p keeps / deletes
            # it): if p keeps the row every other side loses it, otherwise
            # one of them may keep it
            gains = []
            for i, r in enumerate(outer):
                if r != up:
                    sides = [below[c] for c in on_row[r] if c != p]
                    lost = sum(without for _with, without in sides)
                    swap = max(with_ - without for with_, without in sides)
                    gains.append((i, (lost, lost + swap)))
            shift = outer.index(up) if up is not None else len(outer)
            best = [-1, -1]
            kept = None
            for pattern in range(1 << len(outer)):
                deleted = 0
                for i, r in enumerate(outer):
                    deleted |= (pattern >> i & 1) << r
                plan = _part_plan(clique_rows, cliques, deleted)
                rank = ranks.get(plan)
                if rank is None:
                    rank = ranks[plan] = _part_rank(plan, kept)
                if kept is None:
                    kept = rank
                rank += sum(gain[pattern >> i & 1] for i, gain in gains)
                d = pattern >> shift & 1
                best[d] = max(best[d], rank)
            below[p] = best
        total += below[root][0]
    return total


def _top(plan) -> int:
    """The even term rank of the plan's whole support: no encoding has a
    higher rank.  A term rank is at most the number of rows, so this is at
    most the parity ceiling."""
    return parity_ceiling(_term_rank(_support(plan)))


def _upper(g: Graph, template: CupFormTemplate, plan, ceiling: int,
           budget: int) -> int:
    """A proven upper bound U on every rank of the block: its even term
    rank, top, when that is below the ceiling; otherwise the glued m2,
    which is exact, when the block splits into parts whose scans cost fewer
    than budget encodings (charged as _parts_worth_scanning charges them);
    otherwise top, which then equals the ceiling.

    The 4-cliques of one maximal clique lie in one part: any two are
    joined by a chain of them in which neighbours share three vertices, so
    three rows, and that puts them in one block of the graph of cliques
    and rows.  So some part holds at least C(omega, 4) cliques, omega the
    clique number, the last index of betti(g), and a block whose largest
    clique alone costs the budget is not cut into parts.
    """
    top = _top(plan)
    if top == ceiling and (
            _PART_SCAN_COST + (1 << comb(len(betti(g)) - 1, 4)) < budget):
        parts = _parts_worth_scanning(template, budget)
        if parts is not None:
            return _glued_m2(template.clique_rows, parts)
    return top


def _descend(plan, top: int, checks=None, terms=None) -> tuple[int, int, int]:
    """(m2, first maximizer, nodes) by one scan per target top, top - 2,
    ..., each from the incumbent target - 2: the first that hits.  top must
    bound every rank from above, so no rank exceeds the target of a pass,
    and its hit is the first encoding of maximal rank."""
    nodes = 0
    while True:
        rank, alpha, count = _scan(plan, top, top - 2, checks, terms=terms)
        nodes += count
        if alpha is not None:
            return rank, alpha, nodes
        top -= 2


def compute_m2(g: Graph, config: SolverConfig = DEFAULT_CONFIG) -> M2Result:
    """Certified m2 by scanning every functional (early exit at the parity
    ceiling still certifies).  Raises CapExceeded when b4 > config.cap.

    When the block splits at separating rows and that pays, m2 comes from
    the parts and the whole-block scan only looks for the first encoding
    that reaches it, starting from the incumbent m2 - 2.
    """
    template = build_cup_form(g)
    b2, b4 = template.dim, template.num_cliques
    if b4 > config.cap:
        raise CapExceeded(b4, config.cap)
    if b4 == 0:
        return M2Result(0, AlphaVector(0, 0), b2, True, 0)

    plan = _plan(template.clique_rows)
    parts = _parts_worth_scanning(template)
    terms = None
    if parts is None:
        top = _top(plan)
        if b4 >= _TERM_RANK_B4 and top < parity_ceiling(b2):
            terms = b4 - _TERM_RANK_LEVELS
        orbits = b4 >= _ORBIT_PRUNE_B4 and any(
            least != v for v, least in enumerate(_twins(g)))
    else:
        top = _glued_m2(template.clique_rows, parts)
        # over parts that share no row the generator search costs more than
        # it could prune (see the module docstring)
        orbits = b4 >= _ORBIT_GLUED_B4 and any(
            outer for _cliques, outer in parts)
    checks = _orbit_checks(g, template, plan) if orbits else None
    rank, alpha, _nodes = _descend(plan, top, checks, terms)
    return M2Result(rank, AlphaVector(alpha, b4), b2 - rank, True, rank)


# --------------------------------------------------------------------------
# heuristic
# --------------------------------------------------------------------------

def _heuristic_seeds(g: Graph, template: CupFormTemplate) -> tuple[int, ...]:
    """Functional encodings the heuristic will try, in order: all-ones, the
    union over maximal cliques of their first and last 4-vertex subsets, then
    the pseudorandom values of _random_seeds."""
    b4 = template.num_cliques
    full = (1 << b4) - 1
    seeds = [full]
    pos = template.cliques.position
    ends = 0
    for mc in maximal_cliques(g):
        if len(mc) >= 4:
            ends |= 1 << pos[tuple(mc[:4])]
            ends |= 1 << pos[tuple(mc[-4:])]
    if ends:
        seeds.append(ends)
    seeds.extend(_random_seeds(b4))
    return tuple(dict.fromkeys(seeds))


@cache
def _random_seeds(b4: int) -> tuple[int, ...]:
    """_HEURISTIC_TRIES fixed-seed pseudorandom b4-bit values; they depend
    on b4 alone, so each b4 draws them once."""
    rnd = random.Random(_DEFAULT_HEURISTIC_SEED)
    return tuple(rnd.getrandbits(b4) for _ in range(_HEURISTIC_TRIES))


def m2_heuristic(g: Graph) -> M2Result:
    """Best rank over the fixed trial set of _heuristic_seeds, as if each
    seed were ranked in seed order: the result is the maximum rank with the
    least seed reaching it, except that the first seed in seed order to
    reach the parity ceiling ends the search and is the witness.  The
    result's m2 is a lower bound for m2, certified (exhaustive=True) only
    at the ceiling or when there are no 4-cliques at all; its upper is the
    m2 when certified, else the U of _upper.

    seeds[0] is ranked directly and returned at once at the ceiling.  The
    other seeds, sorted, go through one trial walk of _scan from the
    incumbent rank(seeds[0]) - 1 with U as its ceiling, which keeps the
    least seed of the highest rank at or above it: no rank exceeds U, so
    the walk stops at the least seed reaching U.  U is charged a budget of
    the walk's own size, trials x rows.  When the walk reaches the parity
    ceiling, its hit is the least ceiling seed, so the first one in seed
    order is found by testing, in seed order, only the seeds above it up
    to it."""
    g._census  # one walk for the cup form's 4-cliques and the maximal cliques
    template = build_cup_form(g)
    b2, b4 = template.dim, template.num_cliques
    if b4 == 0:
        return M2Result(0, AlphaVector(0, 0), b2, True, 0)
    ceiling = parity_ceiling(b2)
    seeds = _heuristic_seeds(g, template)
    best_alpha = seeds[0]
    best_rank = rank_gf2(substitute(template, AlphaVector(best_alpha, b4)).rows)
    if best_rank >= ceiling:
        return M2Result(best_rank, AlphaVector(best_alpha, b4), b2 - best_rank,
                        True, best_rank)
    plan = _plan(template.clique_rows)
    upper = _upper(g, template, plan, ceiling, (len(seeds) - 1) * plan[0])
    if len(seeds) > 1:
        rank, alpha, _nodes = _scan(plan, upper, best_rank - 1,
                                    trials=sorted(seeds[1:]))
        # a hit ranks >= best_rank, and is below seeds[0], the all-ones value
        if alpha is not None:
            best_rank, best_alpha = rank, alpha
        if best_rank >= ceiling:
            best_alpha = next(
                v for v in seeds[1:] if v == alpha or v > alpha
                and _scan(plan, ceiling, ceiling - 1, trials=(v,))[0] >= ceiling)
    # a rank at the ceiling is at U too, as U lies between them
    return M2Result(best_rank, AlphaVector(best_alpha, b4), b2 - best_rank,
                    best_rank >= ceiling, upper)


# --------------------------------------------------------------------------
# radicals
# --------------------------------------------------------------------------

class RadicalBasis(_Record):
    """Kernel of the substituted form at one functional: bitmask vectors over
    the edge basis plus their rendered z-notation."""

    _fields = ("alpha", "vectors", "rendered")

    def __init__(self, alpha: AlphaVector, vectors: tuple[int, ...],
                 rendered: tuple[str, ...]):
        self.__dict__.update(alpha=alpha, vectors=vectors, rendered=rendered)

    @property
    def dim(self) -> int:
        return len(self.vectors)


def radical_at(g: Graph, alpha: AlphaVector) -> RadicalBasis:
    template = build_cup_form(g)
    mat = substitute(template, alpha)
    vectors = kernel_basis(mat)
    rendered = tuple(render_vector(template, v) for v in vectors)
    return RadicalBasis(alpha, vectors, rendered)
