import pytest

from qnbench.errors import GroupValidationError
from qnbench.groups import (
    DirectProductDescriptor,
    FiniteTableGroup,
    FpGroupDescriptor,
    FreeGroupDescriptor,
    ShiftExtensionDescriptor,
    Trit,
    free_abelian_of_rank_two,
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
    trivial_subgroup,
)
from qnbench.words import concat, generator

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
    G = FiniteTableGroup.cyclic(6)
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
    H = trivial_subgroup(F2)
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
    G = FiniteTableGroup.cyclic(6)
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
