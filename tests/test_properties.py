"""Cross-cutting algebraic law checks on sampled elements."""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from qnbench.certificates import replay_certificate
from qnbench.groups import (
    DirectProductDescriptor,
    FreeGroupDescriptor,
    ShiftExtensionDescriptor,
    Trit,
    infinite_dihedral,
    identity,
    invert,
    multiply,
)
from qnbench.orbits import qn1_membership
from qnbench.subgroups import (
    coset_equal,
    is_subgroup_member,
    shift_tail_subgroup,
    subgroup,
)
from qnbench.words import concat, generator, letter
from test_groups import cyclic

F2 = FreeGroupDescriptor.of_rank(2)

free_words = st.lists(
    st.builds(letter, st.integers(0, 1), st.sampled_from([1, -1])), max_size=8
).map(tuple)


def free_elem(w):
    return F2.element(w)


@settings(max_examples=60)
@given(free_words, free_words, free_words)
def test_group_laws_free(u, v, w):
    x, y, z = free_elem(u), free_elem(v), free_elem(w)
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    assert multiply(x, identity(F2)) == x
    assert multiply(invert(x), x) == identity(F2)
    assert invert(multiply(x, y)) == multiply(invert(y), invert(x))


DIHEDRAL = infinite_dihedral()
dihedral_letters = st.lists(st.builds(letter, st.integers(0, 1), st.sampled_from([1, -1])),
                            max_size=6)


@settings(max_examples=60)
@given(dihedral_letters, dihedral_letters)
def test_group_laws_presented(u, v):
    x = DIHEDRAL.element(tuple(u))
    y = DIHEDRAL.element(tuple(v))
    assert multiply(multiply(x, y), invert(y)) == x
    assert multiply(invert(x), x) == identity(DIHEDRAL)


@settings(max_examples=40)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_group_laws_product(i, j, k):
    table = cyclic(6)
    P = DirectProductDescriptor(F2, table)
    x = P.pair(free_elem(generator(0, i - 2)), table.element(i))
    y = P.pair(free_elem(generator(1, j - 2)), table.element(j))
    z = P.pair(free_elem(generator(0, k - 2)), table.element(k))
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_stable_letter_conjugation_raises_tail_level():
    # conjugating the base tail by the stable letter lands one level deeper
    G = ShiftExtensionDescriptor(window=2)
    K0 = shift_tail_subgroup(G, 0)
    K1 = shift_tail_subgroup(G, 1)
    t = G.stable_letter()
    rng = np.random.default_rng(3)
    from qnbench.subgroups import subgroup_ball

    for h in subgroup_ball(K0, 2)[:40]:
        conj = multiply(multiply(t, h), invert(t))
        assert is_subgroup_member(K1, conj) is Trit.YES
        assert is_subgroup_member(K0, conj) is Trit.YES


@settings(max_examples=50)
@given(free_words, free_words, free_words)
def test_coset_equal_is_equivalence(u, v, w):
    H = subgroup(F2, [free_elem(generator(0, 1)), free_elem(concat(generator(1, 2)))])
    x, y, z = free_elem(u), free_elem(v), free_elem(w)
    assert coset_equal(H, x, x) is Trit.YES
    assert coset_equal(H, x, y) is coset_equal(H, y, x)
    if coset_equal(H, x, y) is Trit.YES and coset_equal(H, y, z) is Trit.YES:
        assert coset_equal(H, x, z) is Trit.YES


def test_certificate_replay_fuzz_per_family():
    """Replay one thousand certified elements in each engine family."""
    rng = np.random.default_rng(11)

    # free group, finite-index subgroup: every element certifies
    gens = [
        free_elem(concat(generator(0), generator(0))),
        free_elem(generator(1)),
        free_elem(concat(generator(0), generator(1), generator(0, -1))),
    ]
    spec = subgroup(F2, gens)
    from qnbench.groups import enumerate_ball

    ball = enumerate_ball(F2, 3)
    for _ in range(1000):
        g = ball[rng.integers(0, len(ball))]
        cert = qn1_membership(spec, g, 8).certificate
        replay_certificate(cert)

    # shift extension tail: certified elements of the tail and its translates
    G = ShiftExtensionDescriptor(window=1)
    K0 = shift_tail_subgroup(G, 0)
    certified = [
        G.stable_letter(-1),
        G.base_generator(0),
        G.base_generator(1),
        multiply(G.base_generator(0), G.stable_letter(-1)),
        identity(G),
    ]
    for _ in range(1000):
        g = certified[rng.integers(0, len(certified))]
        power = int(rng.integers(1, 3))
        element = g
        for _ in range(power - 1):
            element = multiply(element, g)
        cert = qn1_membership(K0, element, 32).certificate
        replay_certificate(cert)

    # finite table group: everything certifies
    table = cyclic(8)
    spec_t = subgroup(table, [table.element(2)])
    for _ in range(1000):
        g = table.element(int(rng.integers(0, 8)))
        cert = qn1_membership(spec_t, g, 8).certificate
        replay_certificate(cert)
