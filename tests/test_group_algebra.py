import functools
import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from qnbench import group_algebra
from qnbench.basic import basic_construction
from qnbench.bimodule import module_dimension
from qnbench.errors import GroupValidationError
from qnbench.expectations import conditional_expectation, subalgebra_closure
from qnbench.group_algebra import decompose_regular_representation, group_algebra_inclusion
from qnbench.groups import FreeGroupDescriptor
from qnbench.orbits import qn1_membership
from qnbench.subgroups import subgroup
from qnbench.wahp import OptimizerConfig, wahp_gap, wahp_witness_search
from test_block_stacks import reference_module_dimension
from test_expectations import closure_defect
from test_groups import all_elements, cyclic, from_permutations


def s3():
    return from_permutations([(1, 0, 2), (0, 2, 1)])


def test_z2_decomposes_into_two_scalars():
    G = cyclic(2)
    inclusion = group_algebra_inclusion(subgroup(G, []))
    assert inclusion.algebra.block_dims == (1, 1)
    assert inclusion.sub.dim == 1  # trivial subgroup spans the scalars


def test_z4_decomposes_into_four_characters():
    G = cyclic(4)
    dims, reps = decompose_regular_representation(G)
    assert dims == [1, 1, 1, 1]
    for rep in reps:
        # characters are multiplicative
        assert abs(rep[1] * rep[1] - rep[G.table[1][1]]) < 1e-8


def test_s3_block_structure():
    G = s3()
    dims, _ = decompose_regular_representation(G)
    assert dims == [1, 1, 2]


def test_s5_splits_into_seven_irreducibles():
    G = from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    dims, reps = decompose_regular_representation(G)
    assert dims == [1, 1, 4, 4, 5, 5, 6]
    for rep in reps:
        for g in G.generator_indices:
            for h in range(G.order):
                assert np.abs(rep[g] @ rep[h] - rep[G.table[g][h]]).max() <= 1e-10


def test_group_trace_conventions():
    G = s3()
    inclusion = group_algebra_inclusion(subgroup(G, []))
    for g in range(G.order):
        expected = 1.0 if g == G.identity_index else 0.0
        assert abs(inclusion.images[g].trace() - expected) < 1e-8


def test_expectation_restricts_fourier_coefficients():
    G = s3()
    gens = G.generators()
    transposition = gens[0]
    inclusion = group_algebra_inclusion(subgroup(G, [transposition]))  # order-2 subgroup
    assert inclusion.sub.dim == 2
    expect = conditional_expectation(inclusion.sub)
    subset = {g.payload for g in inclusion.subgroup_elements}
    for g in range(G.order):
        image = inclusion.images[g]
        target = image if g in subset else inclusion.algebra.zero()
        assert (expect(image) - target).norm2() < 1e-8


def test_rejects_a_spec_that_is_not_a_table_subgroup():
    F = FreeGroupDescriptor(range(2), {0: "a", 1: "b"})
    with pytest.raises(GroupValidationError):
        group_algebra_inclusion(subgroup(F, [F.generators()[0]]))


def test_regular_representation_is_decomposed_once_per_group(monkeypatch):
    calls = []
    decompose = group_algebra.decompose_regular_representation
    monkeypatch.setattr(group_algebra, "decompose_regular_representation",
                        lambda group: calls.append(group) or decompose(group))
    G = s3()
    first = group_algebra_inclusion(subgroup(G, []))
    second = group_algebra_inclusion(subgroup(G, [G.generators()[0]]))
    assert calls == [G]
    assert first.algebra is second.algebra and first.sub.dim == 1 and second.sub.dim == 2
    group_algebra_inclusion(subgroup(s3(), []))  # another group object: decomposed again
    assert len(calls) == 2


def test_regular_representation_unitary_images():
    G = s3()
    inclusion = group_algebra_inclusion(subgroup(G, []))
    one = inclusion.algebra.one()
    for g in range(G.order):
        u = inclusion.images[g]
        assert (u.adjoint() @ u - one).norm2() < 1e-8


def test_subgroup_span_is_closed():
    G = cyclic(6)
    spec = subgroup(G, [G.element(2)])  # closure is {0, 2, 4}
    inclusion = group_algebra_inclusion(spec)
    assert inclusion.sub.dim == 3
    assert closure_defect(inclusion.sub) < 1e-9


def test_group_algebra_feeds_basic_construction():
    G = s3()
    gens = G.generators()
    inclusion = group_algebra_inclusion(subgroup(G, [gens[0]]))
    c = basic_construction(inclusion.sub)
    assert abs(c.extension_trace(c.e_sub) - 1.0) < 1e-9


def test_group_algebra_gap_positive_for_proper_subgroup():
    # the group-side conditions fail for a finite group, and the matrix side
    # sees it: a proper subgroup span admits witnesses with a positive gap
    G = cyclic(3)
    inclusion = group_algebra_inclusion(subgroup(G, []))
    report = wahp_witness_search(inclusion.sub, inclusion.sub,
                                 OptimizerConfig(seed=5, restarts=4, oracle_points=2000))
    assert report.objective_value > 0.01


# -- the two engines check each other ------------------------------------------


@functools.cache
def symmetric_group(degree):
    """S_d from a transposition and a d-cycle; ``from_permutations`` sorts the
    elements, so a permutation's index is its lexicographic rank.  One group
    object per degree, so its algebra is decomposed once for all examples."""
    return from_permutations(
        [(1, 0) + tuple(range(2, degree)), tuple(range(1, degree)) + (0,)])


@st.composite
def permutation_subgroups(draw):
    degree = draw(st.sampled_from([3, 4, 5]))
    perms = draw(st.lists(st.permutations(range(degree)).map(tuple), min_size=1, max_size=2))
    return degree, perms


@settings(max_examples=8, deadline=None)
@given(permutation_subgroups())
def test_cover_size_times_dim_is_a_module_dimension(drawn):
    # For g in G the right L(H)-module spanned by the u_h u_g is L(HgH), of
    # dimension |HgH| = (number of cosets gH covering HgH) x |H|: the cover
    # size the group engine certifies times dim L(H).
    degree, perms = drawn
    G = symmetric_group(degree)
    rank = {p: i for i, p in enumerate(sorted(itertools.permutations(range(degree))))}
    spec = subgroup(G, [G.element(rank[p]) for p in perms])
    # beyond order 12 in S5 (orders 20, 24, 60, 120) one example takes 2-70 s,
    # all of it in the SVDs of 120 x |H|^2 module spans
    assume(degree < 5 or len(spec.subset) <= 12)
    inclusion = group_algebra_inclusion(spec)
    L_H = inclusion.sub
    H = [inclusion.images[h.payload] for h in inclusion.subgroup_elements]
    assert L_H.dim == len(H)
    for g in all_elements(G):
        cover = qn1_membership(spec, g).certificate.cover_size
        u_g = inclusion.images[g.payload]
        module = [u_h @ u_g for u_h in H]
        assert cover * L_H.dim == module_dimension(L_H, module) \
            == reference_module_dimension(L_H, module), g


@st.composite
def gap_triples(draw):
    """``H <= K <= S_d`` (d = 3, 4) and one to three pairs of group elements."""
    degree = draw(st.sampled_from([3, 4]))
    G = symmetric_group(degree)
    K = subgroup(G, [G.element(i) for i in draw(st.lists(st.integers(0, G.order - 1),
                                                          min_size=1, max_size=2))])
    inside = sorted(K.subset)
    H = subgroup(G, [G.element(i) for i in draw(st.lists(st.sampled_from(inside),
                                                          min_size=1, max_size=2))])
    pairs = draw(st.lists(st.tuples(st.integers(0, G.order - 1), st.integers(0, G.order - 1)),
                          min_size=1, max_size=3))
    return G, H, K, pairs


@settings(max_examples=100, deadline=None)
@given(gap_triples(), st.integers(0, 2**16))
def test_gap_on_a_group_algebra_is_a_count(triple, seed):
    # B = L(H) <= N = L(K) <= M = L(G) with witness pairs (g_j, g'_j): a pair
    # with both in K cancels, otherwise E_N kills the second term and
    # |E_H(g u g')|_2^2 = sum_{h : g h g' in H} |a_h|^2 for u = sum_h a_h h.
    # So Q is diagonal in the group basis with entries c_h, the number of
    # such pairs with g h g' in H, and as sum_h |a_h|^2 = 1 the minimum over
    # the unitaries of L(H) is min_h c_h, reached at u = h.
    G, H, K, pairs = triple
    inclusion = group_algebra_inclusion(H)
    M, images = inclusion.algebra, inclusion.images
    N = subalgebra_closure(M, [images[k] for k in sorted(K.subset)])
    assert N.dim == len(K.subset)
    counts = [sum(1 for g, g2 in pairs if not (g in K.subset and g2 in K.subset)
                  and G.table[G.table[g][h]][g2] in H.subset) for h in sorted(H.subset)]
    report = wahp_gap(inclusion.sub, N, [(images[g], images[g2]) for g, g2 in pairs],
                      config=OptimizerConfig(seed=seed))
    assert abs(report.objective_value - min(counts)) <= 1e-8
    assert report.converged
