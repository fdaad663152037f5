"""Randomized invariants, driven by deterministic G(n, p) samples."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from raagh import (FORMATS, betti, build_cup_form, compute_h, compute_m2,
                   generate_family, make_graph, max_isotropic, parse_graph,
                   rank_gf2, recognize_family, serialize_graph, substitute,
                   verify_certificate)
from raagh.form import AlphaVector

from oracles import form_matrix_oracle, random_gnp, rank_oracle, rows_to_lists

DENSITIES = (0.3, 0.45, 0.6, 0.75)


def sample_graph(n, p_idx, seed):
    return make_graph(n, random_gnp(n, DENSITIES[p_idx], seed))


graph_params = {
    "n": st.integers(4, 12),
    "p_idx": st.integers(0, len(DENSITIES) - 1),
    "seed": st.integers(0, 2 ** 31),
}

# (n, p_idx) pairs where 47-75% of the samples have 0 < b4 <= 10 (seeds
# 0..599 each).  Over all of graph_params only about 30% do, and Hypothesis
# fails its filter_too_much health check when 50 draws are filtered out
# before 10 pass.
CLIQUEY_PAIRS = ((9, 2), (6, 3), (8, 2), (12, 1), (7, 3), (10, 2), (11, 1),
                 (10, 1), (7, 2), (5, 3), (8, 3))

cliquey_params = {
    "n_p": st.sampled_from(CLIQUEY_PAIRS),
    "seed": st.integers(0, 2 ** 31),
}


@settings(max_examples=60, deadline=None)
@given(**cliquey_params)
def test_witness_achieves_m2_and_nullity_complements(n_p, seed):
    g = sample_graph(*n_p, seed)
    b4 = betti(g)[4] if len(betti(g)) > 4 else 0
    assume(0 < b4 <= 12)
    res = compute_m2(g)
    b2 = betti(g)[2]
    assert res.m2 % 2 == 0
    assert res.radical_dim == b2 - res.m2
    m = substitute(build_cup_form(g), res.witness)
    assert rank_gf2(m.rows) == res.m2
    iso = max_isotropic(m)
    assert len(iso) == b2 - res.m2 // 2


@settings(max_examples=60, deadline=None)
@given(**graph_params)
def test_bounds_sandwich_and_exactness(n, p_idx, seed):
    g = sample_graph(n, p_idx, seed)
    numbers = betti(g)
    b2 = numbers[2] if len(numbers) > 2 else 0
    b4 = numbers[4] if len(numbers) > 4 else 0
    assume(b4 <= 12)
    rep = compute_h(g)
    assert rep.lower_trivial == b2
    assert rep.lower_trivial <= rep.lower_cohomological <= rep.upper
    assert rep.upper == 2 * b2
    if rep.exact is not None:
        assert rep.lower_trivial <= rep.exact.value <= rep.upper
        assert rep.exact.value % 2 == 0
    if b4 == 0:
        assert rep.exact is not None and rep.exact.value == rep.upper


@settings(max_examples=50, deadline=None)
@given(**graph_params)
def test_decomposition_preserves_b2(n, p_idx, seed):
    g = sample_graph(n, p_idx, seed)
    numbers = betti(g)
    b4 = numbers[4] if len(numbers) > 4 else 0
    assume(b4 <= 12)
    rep = compute_h(g)
    if rep.decomposition is None:
        return
    dec = rep.decomposition
    assert sum(p.report.b2 for p in dec.pieces) + dec.r == rep.b2
    # pieces partition the vertex set
    seen = [v for p in dec.pieces for v in p.vertices]
    covered = set(seen)
    cut_ends = {v for e in dec.free_edges for v in e}
    assert covered | cut_ends == set(range(g.n)) or g.n == 0


@settings(max_examples=30, deadline=None)
@given(**cliquey_params)
def test_assembled_m2_equals_direct_solve(n_p, seed):
    g = sample_graph(*n_p, seed)
    numbers = betti(g)
    b4 = numbers[4] if len(numbers) > 4 else 0
    assume(0 < b4 <= 10)
    rep = compute_h(g)
    direct = compute_m2(g)
    assert rep.m2.m2 == direct.m2
    if rep.m2.exhaustive:
        assert rep.m2.witness == direct.witness


@settings(max_examples=60, deadline=None)
@given(**graph_params, alpha_seed=st.integers(0, 2 ** 31))
def test_substitution_matches_oracle(n, p_idx, seed, alpha_seed):
    g = sample_graph(n, p_idx, seed)
    t = build_cup_form(g)
    assume(t.num_cliques <= 16)
    bits = random.Random(alpha_seed).getrandbits(t.num_cliques) \
        if t.num_cliques else 0
    alpha = AlphaVector(bits, t.num_cliques)
    m = substitute(t, alpha)
    lists = rows_to_lists(m.rows, m.ncols)
    assert lists == form_matrix_oracle(g, alpha.bits)
    assert rank_gf2(m.rows) == rank_oracle(lists) if lists else True


@settings(max_examples=60, deadline=None)
@given(**graph_params, fmt=st.sampled_from(FORMATS))
def test_serialize_parse_round_trip(n, p_idx, seed, fmt):
    g = sample_graph(n, p_idx, seed)
    again = parse_graph(serialize_graph(g, fmt), fmt)
    assert (again.n, again.edges) == (g.n, g.edges)


@settings(max_examples=60, deadline=None)
@given(**graph_params)
def test_recognition_output_always_verifies(n, p_idx, seed):
    g = sample_graph(n, p_idx, seed)
    cert = recognize_family(g)
    if cert is not None:
        assert verify_certificate(g, cert)
        # regenerating from the certificate preserves the counts
        regen = generate_family(cert)
        assert (regen.n, len(regen.edges)) == (g.n, len(g.edges))
