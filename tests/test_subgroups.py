import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qnbench import subgroups
from qnbench.errors import GroupValidationError
from qnbench.files import load_group_inclusion
from qnbench.groups import (
    DirectProductDescriptor,
    FpGroupDescriptor,
    FreeGroupDescriptor,
    ShiftExtensionDescriptor,
    Trit,
    infinite_dihedral,
    invert,
    multiply,
)
from qnbench.subgroups import (
    CosetTableSubgroup,
    SubgroupSpec,
    coset_equal,
    coset_key,
    is_subgroup_member,
    product_subgroup,
    shift_tail_subgroup,
    subgroup,
    subgroup_ball,
)
from qnbench.orbits import orbit_bfs
from qnbench.stallings import graph_index
from qnbench.words import concat, gen_of, generator, invert_word
from test_groups import cyclic, free_abelian_of_rank_two
from test_stallings import free_cases, letters_of, stabilizer_cases, stabilizer_generators

F2 = FreeGroupDescriptor.of_rank(2)
A_WORD = generator(0)
B_WORD = generator(1)


def cyclic_a():
    return subgroup(F2, [F2.element(A_WORD)], label="<a>")


def tail_subgroup(n=0, window=2):
    G = ShiftExtensionDescriptor(window=window)
    return G, shift_tail_subgroup(G, n)


# -- membership ----------------------------------------------------------------


def test_tail_membership_examples():
    G, K0 = tail_subgroup(0)
    assert is_subgroup_member(K0, G.base_generator(3)) is Trit.YES
    assert is_subgroup_member(K0, G.base_generator(-1)) is Trit.NO
    assert is_subgroup_member(K0, G.stable_letter()) is Trit.NO
    # tail threshold must sit inside the window
    with pytest.raises(GroupValidationError):
        shift_tail_subgroup(G, 5)


def test_free_membership_via_graph():
    H = cyclic_a()
    assert is_subgroup_member(H, F2.element(B_WORD)) is Trit.NO
    assert is_subgroup_member(H, F2.word((0, -7))) is Trit.YES


def test_finite_table_membership():
    G = cyclic(6)
    H = subgroup(G, [G.element(2)])
    assert is_subgroup_member(H, G.element(4)) is Trit.YES
    assert is_subgroup_member(H, G.element(3)) is Trit.NO


def test_fp_membership_with_coset_table():
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    assert type(H) is CosetTableSubgroup
    assert is_subgroup_member(H, invert(a)) is Trit.YES
    assert is_subgroup_member(H, r) is Trit.NO
    # r a r^-1 = a^-1 lies in <a>
    assert is_subgroup_member(H, multiply(multiply(r, a), invert(r))) is Trit.YES


def test_fp_membership_without_table_is_semidecided():
    from qnbench.groups import FpGroupDescriptor

    # free group presented with no relators: <a> has infinite index
    F = FpGroupDescriptor(2, [], names=("a", "b"))
    a, b = F.generators()
    H = subgroup(F, [a])
    assert type(H) is SubgroupSpec
    assert is_subgroup_member(H, multiply(a, a)) is Trit.YES
    # abelianization refutes b
    assert is_subgroup_member(H, b) is Trit.NO
    # b a b^-1 has the abelianization of a: undecided here
    assert is_subgroup_member(H, multiply(multiply(b, a), invert(b))) is Trit.UNKNOWN


@pytest.mark.parametrize(
    "group",
    [free_abelian_of_rank_two(), FpGroupDescriptor(2, [], names=("a", "b")),
     ShiftExtensionDescriptor(window=1)],
    ids=["z2", "fp_free", "shift"],
)
def test_identity_is_member_without_exact_backend(group):
    H = subgroup(group, [group.generators()[0]])
    assert type(H) is SubgroupSpec
    assert is_subgroup_member(H, group.identity()) is Trit.YES
    g = group.generators()[1]
    assert coset_equal(H, g, g) is Trit.YES


def test_shift_nontail_subgroup_search():
    G = ShiftExtensionDescriptor(window=1)
    T = subgroup(G, [G.stable_letter()], label="<t>")
    assert is_subgroup_member(T, G.stable_letter(4)) is Trit.YES
    assert is_subgroup_member(T, G.base_generator(0)) is Trit.NO  # abelianized refutation
    mixed = multiply(G.base_generator(0), G.stable_letter())
    assert is_subgroup_member(T, multiply(mixed, invert(G.base_generator(0)))) is Trit.UNKNOWN


def test_product_membership_componentwise():
    P = DirectProductDescriptor(F2, F2)
    HL = cyclic_a()
    HR = subgroup(F2, [F2.element(B_WORD)])
    H = product_subgroup(P, HL, HR)
    good = P.pair(F2.word((0, 2)), F2.word((1, -1)))
    bad = P.pair(F2.word((0, 2)), F2.word((0, 1)))
    assert is_subgroup_member(H, good) is Trit.YES
    assert is_subgroup_member(H, bad) is Trit.NO


def test_trivial_subgroup():
    H = subgroup(F2, [])
    assert is_subgroup_member(H, F2.identity()) is Trit.YES
    assert is_subgroup_member(H, F2.element(A_WORD)) is Trit.NO


def test_backend_consistent_with_word_search():
    # one-sided check: short products of generators are always accepted
    gens = [F2.element(concat(A_WORD, A_WORD)), F2.element(B_WORD)]
    H = subgroup(F2, gens)
    ball = subgroup_ball(H, 4)
    for e in ball:
        assert is_subgroup_member(H, e) is Trit.YES


# -- coset identities ------------------------------------------------------------


def test_coset_equal_reflexive():
    H = cyclic_a()
    g = F2.word((1, 1), (0, 2))
    assert coset_equal(H, g, g) is Trit.YES


def test_tail_coset_example():
    # t^-1 K0 = g0 t^-1 K0 because t g0 t^-1 = g1 lies in K0
    G, K0 = tail_subgroup(0)
    t_inv = G.stable_letter(-1)
    other = multiply(G.base_generator(0), t_inv)
    assert coset_equal(K0, t_inv, other) is Trit.YES
    assert coset_key(K0, t_inv) == coset_key(K0, other)


def test_free_cosets_distinct():
    H = cyclic_a()
    b = F2.element(B_WORD)
    ab = F2.word((0, 1), (1, 1))
    assert coset_equal(H, b, ab) is Trit.NO
    assert coset_key(H, b) != coset_key(H, ab)


def test_coset_keys_agree_with_coset_equal():
    H = subgroup(F2, [F2.element(concat(A_WORD, A_WORD)), F2.element(B_WORD)])
    from qnbench.groups import enumerate_ball

    ball = enumerate_ball(F2, 3)
    for g1 in ball[:20]:
        for g2 in ball[:20]:
            same_key = coset_key(H, g1) == coset_key(H, g2)
            assert same_key == (coset_equal(H, g1, g2) is Trit.YES)


def test_coset_key_finite_table():
    G = cyclic(6)
    H = subgroup(G, [G.element(3)])
    assert coset_key(H, G.element(1)) == coset_key(H, G.element(4))
    assert coset_key(H, G.element(1)) != coset_key(H, G.element(2))


def test_coset_key_fp_table():
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    assert coset_key(H, multiply(a, r)) == coset_key(H, r)
    assert coset_key(H, a) != coset_key(H, r)


def test_coset_table_keys_are_left_cosets_of_a_non_normal_subgroup():
    # <a^3, r> has index 3 and is not normal: r a H = a^-1 H differs from
    # a H, while the right cosets H r a and H a coincide
    from qnbench.groups import enumerate_ball

    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [multiply(multiply(a, a), a), r])
    assert type(H) is CosetTableSubgroup and H.table.index == 3
    assert coset_key(H, multiply(r, a)) != coset_key(H, a)
    ball = enumerate_ball(D, 3)
    for g1 in ball:
        for g2 in ball:
            same_key = coset_key(H, g1) == coset_key(H, g2)
            assert same_key == (coset_equal(H, g1, g2) is Trit.YES)


def test_subgroup_ball_sorted_and_closed():
    H = cyclic_a()
    ball = subgroup_ball(H, 3)
    assert len(ball) == 7  # a^-3 .. a^3
    keys = [F2.sort_key(e) for e in ball]
    assert keys == sorted(keys)


def test_fp_enumeration_skipped_at_infinite_abelian_index(monkeypatch):
    # <a> in Z^2 has infinite index already in the abelianization, so no
    # coset table can complete; the dihedral subgroups have finite index
    calls = []
    original = subgroups.enumerate_cosets
    monkeypatch.setattr(subgroups, "enumerate_cosets",
                        lambda *args, **kw: calls.append(args) or original(*args, **kw))
    doc = load_group_inclusion("sample_inputs/lattice_rank_two.json")
    assert type(doc.subgroup) is SubgroupSpec and calls == []
    D = infinite_dihedral()
    a, r = D.generators()
    for gens in ([a], [multiply(multiply(a, a), a), r]):
        assert type(subgroup(D, gens)) is CosetTableSubgroup
    assert len(calls) == 2


# -- double coset keys of free subgroups ------------------------------------------


def free_spec(rank, gens):
    group = FreeGroupDescriptor.of_rank(rank)
    return subgroup(group, [group.element(w) for w in gens])


def product_of(spec, picks):
    """The product of subgroup generators or their inverses, one per pick."""
    moves = spec.generator_moves()
    word = ()
    for pick in picks:
        word = concat(word, moves[pick % len(moves)].payload)
    return spec.group.element(word)


def split_readings(spec, g):
    """``(p, s^-1)``: the longest prefixes of ``g`` and ``g^-1`` that read
    from the basepoint, the second one inverted so that ``g = p w s^-1``."""
    word = g.payload
    _, rest = spec.graph.trace_partial(word)
    _, rest_inv = spec.graph.trace_partial(invert_word(word))
    return word[:len(word) - len(rest)], word[len(rest_inv):]


@settings(max_examples=150, deadline=None)
@given(stabilizer_cases(), st.lists(letters_of(2), max_size=10).map(tuple))
def test_finite_index_keys_are_coset_orbits(case, other):
    # finite index: equal keys exactly when g' H lies in the orbit of g H
    gens, word = case
    rank = 1 + max([gen_of(x) for w in gens for x in w] + [1])
    spec = free_spec(rank, gens)
    group = spec.group
    g, g2 = group.element(word), group.element(other)
    index = spec.graph.num_vertices
    orbit = orbit_bfs(spec, g, index)
    assert orbit.closed
    in_orbit = coset_key(spec, g2) in {coset_key(spec, c) for c in orbit.representatives}
    key = spec.double_coset_key(g)
    assert isinstance(key, int)
    assert (key == spec.double_coset_key(g2)) == in_orbit


@settings(max_examples=150, deadline=None)
@given(free_cases(), st.lists(st.integers(0, 11), max_size=5),
       st.lists(st.integers(0, 11), max_size=5), st.lists(letters_of(2), max_size=10).map(tuple))
def test_infinite_index_keys_are_exact(case, left, right, other):
    gens, word = case
    rank = 1 + max([gen_of(x) for w in gens for x in w] + [gen_of(x) for x in word] + [1])
    spec = free_spec(rank, gens)
    group = spec.group
    g = group.element(word)
    key = spec.double_coset_key(g)
    if graph_index(spec.graph, group.gens)[0] == "finite":
        return  # tested above
    if is_subgroup_member(spec, g) is Trit.YES:
        assert key is None
        return
    # completeness: h g h' keeps the key
    mate = multiply(multiply(product_of(spec, left), g), product_of(spec, right))
    assert spec.double_coset_key(mate) == key
    # soundness: equal keys give the proof's h, h' in H with h g h' = g'
    for g2 in (mate, group.element(other)):
        if key is None or spec.double_coset_key(g2) != key:
            continue
        (p, s_inv), (p2, s2_inv) = split_readings(spec, g), split_readings(spec, g2)
        h = group.element(concat(p2, invert_word(p)))
        h2 = group.element(concat(invert_word(s_inv), s2_inv))
        assert is_subgroup_member(spec, h) is Trit.YES
        assert is_subgroup_member(spec, h2) is Trit.YES
        assert multiply(multiply(h, g), h2) == g2


def test_cyclic_subgroup_keys_take_the_infinite_index_form():
    # <a> carries an a-edge at its one vertex, every edge for its own label,
    # but no b-edge, so it has infinite index in F2
    H = cyclic_a()
    assert graph_index(H.graph, [0]) == ("finite", 1)
    b = F2.element(B_WORD)
    assert H.double_coset_key(b) == (0, B_WORD, 0)
    for k, m in [(1, 0), (0, -2), (3, 5)]:
        assert H.double_coset_key(F2.word((0, k), (1, 1), (0, m))) == (0, B_WORD, 0)
    assert H.double_coset_key(F2.word((1, 1), (0, 1), (1, -1))) == (
        0, concat(B_WORD, A_WORD, generator(1, -1)), 0)
    assert H.double_coset_key(F2.word((0, 3))) is None
    assert H.double_coset_key(F2.identity()) is None


def test_free_keys_are_none_for_overlapping_readings():
    # <a^2, b>: a reads from the basepoint, and so does a^-1, so the two
    # readings of a overlap though a lies outside the subgroup
    H = subgroup(F2, [F2.word((0, 2)), F2.element(B_WORD)])
    a = F2.element(A_WORD)
    assert is_subgroup_member(H, a) is Trit.NO
    assert H.double_coset_key(a) is None
    # a b a^-1: the middle b does not read at the end of a
    assert H.double_coset_key(F2.word((0, 1), (1, 1), (0, -1))) == (1, B_WORD, 1)


def test_finite_index_keys_of_a_non_normal_subgroup():
    # the stabilizer of 0 under S3 on three points: index 3, two double cosets
    gens = stabilizer_generators([(1, 0, 2), (1, 2, 0)])
    H = free_spec(2, gens)
    assert H.graph.num_vertices == 3
    a, b = F2.element(A_WORD), F2.element(B_WORD)
    keys = {H.double_coset_key(g) for g in (F2.identity(), a, b, multiply(a, b))}
    assert len(keys) == 2
    assert H.double_coset_key(F2.identity()) == 0
