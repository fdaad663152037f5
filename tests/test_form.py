import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagh import (AlphaVector, FamilyCertificate, betti, build_cup_form,
                   compute_m2, dump_matrix, dump_template, generate_family,
                   kernel_basis, make_graph, max_isotropic, rank_gf2,
                   render_vector, substitute, symplectic_reduce)
from raagh.form import Gf2Matrix
from raagh.verification import random_graph_battery

from oracles import (form_matrix_oracle, kernel_oracle, matvec, pair,
                     random_gnp, rank_oracle, rows_to_lists)


def join_graph():
    return make_graph(5, [(u, v) for u, v in combinations(range(5), 2)
                          if (u, v) != (0, 4)])


# frozen 9x9 signed template of the join graph (edges in lexicographic
# order z12, z13, z14, z23, z24, z25, z34, z35, z45; entries name 4-cliques
# 1-based: +1/-1 for the clique on {1,2,3,4}, +2/-2 for {2,3,4,5})
JOIN_TEMPLATE = """\
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


# --------------------------------------------------------------------------
# template construction
# --------------------------------------------------------------------------

def test_join_graph_template_dump_is_exact():
    template = build_cup_form(join_graph())
    assert dump_template(template) == JOIN_TEMPLATE


def test_template_entries_follow_sign_pattern():
    g = make_graph(4, combinations(range(4), 2))
    t = build_cup_form(g)
    e = {edge: i for i, edge in enumerate(t.edges.cliques)}
    expect = {
        (e[(0, 1)], e[(2, 3)]): (0, +1),
        (e[(0, 2)], e[(1, 3)]): (0, -1),
        (e[(0, 3)], e[(1, 2)]): (0, +1),
    }
    for (r, c), val in expect.items():
        assert t.entries[(r, c)] == val
        assert t.entries[(c, r)] == val
    assert len(t.entries) == 6  # three unordered pairs, stored symmetrically


def test_template_with_no_4_cliques_is_empty():
    tri = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    t = build_cup_form(tri)
    assert t.entries == {} and t.num_cliques == 0
    m = substitute(t, AlphaVector(0, 0))
    assert m.rows == (0, 0, 0)
    assert rank_gf2(m.rows) == 0


# --------------------------------------------------------------------------
# substitution against the oracle
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_substitute_matches_oracle_on_random_graphs(seed):
    rnd = random.Random(seed)
    n = rnd.randint(4, 9)
    g = make_graph(n, random_gnp(n, 0.6, seed + 100))
    t = build_cup_form(g)
    for trial in range(4):
        alpha = AlphaVector(rnd.getrandbits(t.num_cliques), t.num_cliques)
        m = substitute(t, alpha)
        assert rows_to_lists(m.rows, m.ncols) == form_matrix_oracle(g, alpha.bits)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(4, 9), st.integers(0, 2 ** 16))
def test_substitution_is_symmetric_with_zero_diagonal(gseed, n, abits):
    g = make_graph(n, random_gnp(n, 0.55, gseed))
    t = build_cup_form(g)
    alpha = AlphaVector(abits % (1 << t.num_cliques) if t.num_cliques else 0,
                        t.num_cliques)
    m = substitute(t, alpha)
    lists = rows_to_lists(m.rows, m.ncols)
    for i in range(m.nrows):
        assert lists[i][i] == 0
        for j in range(m.nrows):
            assert lists[i][j] == lists[j][i]


# --------------------------------------------------------------------------
# rank and kernel
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(15))
def test_rank_matches_dense_elimination(seed):
    rnd = random.Random(seed)
    nrows, ncols = rnd.randint(1, 10), rnd.randint(1, 10)
    rows = tuple(rnd.getrandbits(ncols) for _ in range(nrows))
    assert rank_gf2(rows) == rank_oracle(rows_to_lists(rows, ncols))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(4, 9), st.integers(0, 2 ** 16))
def test_rank_of_substituted_form_is_even(gseed, n, abits):
    g = make_graph(n, random_gnp(n, 0.5, gseed))
    t = build_cup_form(g)
    alpha = AlphaVector(abits % (1 << t.num_cliques) if t.num_cliques else 0,
                        t.num_cliques)
    assert rank_gf2(substitute(t, alpha).rows) % 2 == 0


def test_kernel_vectors_annihilate_and_count():
    rnd = random.Random(7)
    mats = []
    for _ in range(20):
        nrows, ncols = rnd.randint(1, 9), rnd.randint(1, 9)
        mats.append(Gf2Matrix(nrows, ncols, tuple(rnd.getrandbits(ncols)
                                                  for _ in range(nrows))))
    row, other = rnd.getrandbits(7), rnd.getrandbits(7)
    mats += [Gf2Matrix(0, 5, ()),                       # no rows
             Gf2Matrix(3, 0, (0, 0, 0)),                # no columns
             Gf2Matrix(4, 6, (0, 0, 0, 0)),             # the zero matrix
             Gf2Matrix(6, 6, tuple(1 << i | rnd.getrandbits(6) << i + 1 & 63
                                   for i in range(6))),  # full rank
             Gf2Matrix(5, 7, (row, row, other, row ^ other, row))]  # repeats
    for g in random_graph_battery(40):
        mats.append(substitute(build_cup_form(g), compute_m2(g).witness))
    for m in mats:
        lists = rows_to_lists(m.rows, m.ncols)
        basis = kernel_basis(m)
        assert len(basis) == m.ncols - rank_gf2(m.rows) \
            == m.ncols - rank_oracle(lists)
        for v in basis:
            assert matvec(m, v) == 0
        # basis vectors are independent
        assert rank_gf2(basis) == len(basis)
        assert rows_to_lists(basis, m.ncols) == kernel_oracle(lists, m.ncols)


def test_join_graph_kernel_at_full_alpha():
    g = join_graph()
    t = build_cup_form(g)
    alpha = AlphaVector((1 << t.num_cliques) - 1, t.num_cliques)
    m = substitute(t, alpha)
    assert rank_gf2(m.rows) == 6
    basis = kernel_basis(m)
    rendered = sorted(render_vector(t, v) for v in basis)
    assert rendered == ["z12+z25", "z13+z35", "z14+z45"]


def test_glued_pair_radical_is_outer_edge_relation():
    # two 4-cliques sharing the edge (2,3); full alpha turns on both
    g = generate_family(FamilyCertificate.clique_string(4, 2))
    assert betti(g)[2] == 11
    t = build_cup_form(g)
    alpha = AlphaVector((1 << t.num_cliques) - 1, t.num_cliques)
    m = substitute(t, alpha)
    assert rank_gf2(m.rows) == 10
    basis = kernel_basis(m)
    assert [render_vector(t, v) for v in basis] == ["z12+z56"]


# --------------------------------------------------------------------------
# symplectic structure
# --------------------------------------------------------------------------

def test_k4_form_splits_into_three_hyperbolic_pairs():
    # each of the three disjoint edge pairs of K4 couples under the single
    # 4-clique, so the form is already symplectic of full rank 6
    g = make_graph(4, combinations(range(4), 2))
    t = build_cup_form(g)
    m = substitute(t, AlphaVector(1, 1))
    dec = symplectic_reduce(m)
    assert len(dec.pairs) == 3 and dec.radical == ()
    for x, y in dec.pairs:
        assert pair(m, x, y) == 1
        assert pair(m, x, x) == 0 and pair(m, y, y) == 0
    # basis vectors: bit i <-> i-th edge; pairs couple an edge with its
    # complement in the clique
    assert dec.pairs == ((1, 32), (2, 16), (4, 8))


@pytest.mark.parametrize("seed", range(8))
def test_symplectic_reduction_invariants(seed):
    rnd = random.Random(seed + 40)
    n = rnd.randint(4, 9)
    g = make_graph(n, random_gnp(n, 0.6, seed + 900))
    t = build_cup_form(g)
    alpha = AlphaVector(rnd.getrandbits(t.num_cliques) if t.num_cliques else 0,
                        t.num_cliques)
    m = substitute(t, alpha)
    dec = symplectic_reduce(m)
    r = rank_gf2(m.rows)
    assert len(dec.pairs) == r // 2
    assert len(dec.radical) == m.ncols - r
    for x, y in dec.pairs:
        assert pair(m, x, y) == 1
    for v in dec.radical:
        assert matvec(m, v) == 0  # radical vectors kill the whole form


@pytest.mark.parametrize("seed", range(8))
def test_max_isotropic_is_pairwise_orthogonal_and_sized(seed):
    rnd = random.Random(seed)
    n = rnd.randint(4, 9)
    g = make_graph(n, random_gnp(n, 0.55, seed + 300))
    t = build_cup_form(g)
    alpha = AlphaVector(rnd.getrandbits(t.num_cliques) if t.num_cliques else 0,
                        t.num_cliques)
    m = substitute(t, alpha)
    iso = max_isotropic(m)
    assert len(iso) == m.ncols - rank_gf2(m.rows) // 2
    assert rank_gf2(iso) == len(iso)
    for v in iso:
        for w in iso:
            assert pair(m, v, w) == 0


# --------------------------------------------------------------------------
# vectors and rendering
# --------------------------------------------------------------------------

def test_alpha_vector_round_trips():
    a = AlphaVector.from_bits([1, 0, 1, 1, 0])
    assert a.value == 0b01101 and a.length == 5
    assert a.bits == (1, 0, 1, 1, 0)
    assert a.bit(1) == 0 and a.bit(3) == 1
    assert AlphaVector.from_bitstring(a.to_bitstring()) == a
    assert a.to_bitstring() == "10110"  # little-endian: position q = clique q


def test_alpha_vector_validation():
    with pytest.raises(ValueError):
        AlphaVector(4, 2)
    with pytest.raises(ValueError):
        AlphaVector(-1, 2)
    with pytest.raises(ValueError):
        AlphaVector.from_bitstring("10x")


def test_render_vector_uses_commas_for_two_digit_vertices():
    g = make_graph(12, [(0, 1), (0, 10), (9, 11)])
    t = build_cup_form(g)
    assert t.edges.cliques == ((0, 1), (0, 10), (9, 11))
    assert render_vector(t, 0b111) == "z12+z1,11+z10,12"
    assert render_vector(t, 0) == "0"


def test_dump_matrix_format():
    m = Gf2Matrix(2, 3, (0b101, 0b010))
    assert dump_matrix(m) == "1 0 1\n0 1 0\n"
