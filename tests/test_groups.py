import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qnbench.errors import DescriptorMismatchError, GroupValidationError, ResourceLimitError
from qnbench.files import load_group_inclusion
from qnbench.groups import (
    DirectProductDescriptor,
    FpGroupDescriptor,
    FiniteTableGroup,
    FreeGroupDescriptor,
    ShiftExtensionDescriptor,
    Trit,
    elements_equal,
    enumerate_ball,
    free_abelian_of_rank_two,
    identity,
    infinite_dihedral,
    invert,
    multiply,
    normalize,
)
from qnbench.words import concat, generator, invert_word, reduce_word

F2 = FreeGroupDescriptor.of_rank(2)


def shift_group(window=2):
    return ShiftExtensionDescriptor(window=window)


# -- normal forms -------------------------------------------------------------


def test_free_reduction_example():
    a, b = F2.generators()
    assert multiply(multiply(a, b), invert(b)) == a


def test_shift_extension_normalize_example():
    G = shift_group()
    # (g0, t) * (g0, t^-1) = (g0 g1, 1)
    x = G.from_word(generator(0), 1)
    y = G.from_word(generator(0), -1)
    prod = multiply(x, y)
    assert prod.payload == (((0, 1), (1, 1)), 0)


def test_finite_table_identity_law():
    G = FiniteTableGroup.cyclic(5)
    e = identity(G)
    for x in G.all_elements():
        assert multiply(e, x) == x == multiply(x, e)


def test_normalize_idempotent():
    G = shift_group()
    x = G.from_word(generator(3) + generator(3, -1) + generator(0), 2)
    assert normalize(normalize(x)) == normalize(x) == G.from_word(generator(0), 2)


def test_malformed_generator_rejected():
    with pytest.raises(DescriptorMismatchError):
        F2.element(generator(7))
    with pytest.raises(DescriptorMismatchError):
        FiniteTableGroup.cyclic(3).element(9)


# -- multiplication examples --------------------------------------------------


def test_stable_letter_conjugation():
    G = shift_group()
    t = G.stable_letter()
    g0 = G.base_generator(0)
    # t g0 = g1 t
    assert multiply(t, g0) == multiply(G.base_generator(1), t)
    assert multiply(t, g0).payload == (((1, 1),), 1)
    assert invert(t) == G.stable_letter(-1)


def test_inverse_reverses_products():
    G = shift_group()
    x = multiply(G.base_generator(-1), G.stable_letter())
    y = multiply(G.base_generator(2), G.stable_letter(-2))
    assert invert(multiply(x, y)) == multiply(invert(y), invert(x))


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.integers(-2, 2), st.sampled_from([1, -1])), max_size=5),
    st.integers(-2, 2),
    st.lists(st.tuples(st.integers(-2, 2), st.sampled_from([1, -1])), max_size=5),
    st.integers(-2, 2),
)
def test_shift_group_laws(w1, n1, w2, n2):
    G = shift_group()
    x = G.from_word(tuple(w1), n1)
    y = G.from_word(tuple(w2), n2)
    e = identity(G)
    assert multiply(x, invert(x)) == e
    assert multiply(multiply(x, y), invert(y)) == x


@settings(max_examples=40)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_finite_table_associativity_sample(i, j, k):
    G = FiniteTableGroup.cyclic(6)
    x, y, z = (G.element(v) for v in (i, j, k))
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_shift_automorphism_is_multiplicative():
    G = shift_group()
    for w1, w2 in itertools.product([generator(0), generator(-1) + generator(2), generator(1, -1)], repeat=2):
        u, v = G.from_word(w1), G.from_word(w2)
        assert G.apply_shift(multiply(u, v)) == multiply(G.apply_shift(u), G.apply_shift(v))
        assert G.apply_shift(invert(u)) == invert(G.apply_shift(u))


def test_tail_conjugation_lands_one_level_up():
    # conjugating a tail element by the stable letter raises every index
    G = shift_group()
    t = G.stable_letter()
    for w in [generator(0), generator(1) + generator(3, -1), generator(2)]:
        h = G.from_word(w)
        conj = multiply(multiply(t, h), invert(t))
        word, shift = conj.payload
        assert shift == 0
        assert all(idx >= 1 for idx, _ in word)


# -- direct products -----------------------------------------------------------


def test_direct_product_componentwise():
    P = DirectProductDescriptor(F2, FiniteTableGroup.cyclic(3))
    a = F2.generators()[0]
    c = FiniteTableGroup.cyclic(3)
    with pytest.raises(DescriptorMismatchError):
        P.pair(a, c.element(1))  # element of a different cyclic(3) instance
    x = P.pair(a, P.right.element(1))
    y = P.pair(invert(a), P.right.element(2))
    assert multiply(x, y) == P.pair(identity(F2), P.right.element(0))


def test_product_equality_three_valued():
    P = DirectProductDescriptor(F2, F2)
    a, b = F2.generators()
    assert elements_equal(P.pair(a, b), P.pair(a, b)) is Trit.YES
    assert elements_equal(P.pair(a, b), P.pair(b, b)) is Trit.NO


# -- finitely presented groups ---------------------------------------------------


def test_infinite_dihedral_equality_exact():
    D = infinite_dihedral()
    a, r = D.generators()
    # r a r^-1 = a^-1
    assert elements_equal(multiply(multiply(r, a), invert(r)), invert(a)) is Trit.YES
    assert elements_equal(a, invert(a)) is Trit.NO
    assert multiply(r, r) == identity(D)


def test_fp_without_rules_semidecides():
    D = infinite_dihedral()
    from qnbench.groups import FpGroupDescriptor

    plain = FpGroupDescriptor(2, D.relators, names=("a", "r"))
    a, r = plain.generators()
    w = multiply(multiply(r, a), invert(r))
    assert plain.equality_is_exact() is False
    assert elements_equal(w, invert(a)) is Trit.YES  # found by relator search
    # abelianization refutes a = r
    assert elements_equal(a, r) is Trit.NO
    # a vs a^3: same abelianization cosets, no proof found
    assert elements_equal(a, multiply(a, multiply(a, a))) is Trit.UNKNOWN


def test_free_abelian_rank_two():
    Z2 = free_abelian_of_rank_two()
    a, b = Z2.generators()
    assert multiply(a, b) == multiply(b, a)
    assert elements_equal(multiply(a, b), multiply(b, a)) is Trit.YES


FP_LETTERS = st.lists(st.sampled_from([(0, 1), (0, -1), (1, 1), (1, -1)]), max_size=16).map(tuple)


@pytest.mark.parametrize("make", [infinite_dihedral, free_abelian_of_rank_two])
@settings(max_examples=60)
@given(u=FP_LETTERS, v=FP_LETTERS)
def test_fp_arithmetic_is_the_normal_form_of_the_reduced_word(make, u, v):
    G = make()

    def nf(word):
        return G.rewriting.normal_form(reduce_word(word))

    x, y = G.element(u), G.element(v)  # raw, unreduced payloads
    assert x.payload == nf(concat(u))
    assert multiply(x, y).payload == nf(concat(x.payload, y.payload))
    assert invert(x).payload == nf(invert_word(x.payload))


FP_GROUPS = {
    "infinite_dihedral": infinite_dihedral(),
    "free_abelian_of_rank_two": free_abelian_of_rank_two(),
    "sample_document": load_group_inclusion("sample_inputs/infinite_dihedral.json").group,
    "no_rules": FpGroupDescriptor(2, infinite_dihedral().relators),
}


@pytest.mark.parametrize("name", sorted(FP_GROUPS))
@settings(max_examples=80)
@given(u=FP_LETTERS, v=FP_LETTERS)
def test_fp_products_of_normal_forms_match_the_checked_path(name, u, v):
    # multiply and invert skip the reduce and range passes that element runs
    G = FP_GROUPS[name]
    x, y = G.element(u), G.element(v)
    assert multiply(x, y).payload == G.normalize_payload(concat(x.payload, y.payload))
    assert invert(x).payload == G.normalize_payload(invert_word(x.payload))
    # a right factor that cancels all of the left one
    assert multiply(x, multiply(invert(x), y)) == y
    assert multiply(multiply(y, x), invert(x)) == y


@pytest.mark.parametrize("with_rules", [True, False])
def test_fp_bad_letters_raise_with_and_without_rules(with_rules):
    D = infinite_dihedral()
    G = D if with_rules else FpGroupDescriptor(2, D.relators, names=D.names)
    for payload in [((2, 1),), ((0, 1), (-1, -1)), ((0, 1), (5, 1), (0, -1))]:
        with pytest.raises(DescriptorMismatchError):
            G.element(payload)
    for payload in [((0, 2),), ((1, 1), (0, 0))]:
        with pytest.raises(ValueError):
            G.element(payload)
    # letters outside the alphabet that cancel freely are no error
    assert G.element(((0, 1), (7, 1), (7, -1))) == G.generators()[0]


# -- balls ---------------------------------------------------------------------


def brute_reduced_words(rank, radius):
    """Oracle: freely reduced words over the rank-2 alphabet."""
    letters = [(g, e) for g in range(rank) for e in (1, -1)]
    out = {()}
    frontier = {()}
    for _ in range(radius):
        nxt = set()
        for w in frontier:
            for l in letters:
                if w and w[-1][0] == l[0] and w[-1][1] == -l[1]:
                    continue
                nxt.add(w + (l,))
        out |= nxt
        frontier = nxt
    return out


def test_ball_radius_one_f2():
    ball = enumerate_ball(F2, 1)
    assert len(ball) == 5
    assert ball[0] == identity(F2)


def test_ball_radius_two_f2_is_seventeen():
    ball = enumerate_ball(F2, 2)
    assert len(ball) == 17
    assert {e.payload for e in ball} == brute_reduced_words(2, 2)


def test_ball_radius_four_f2_matches_oracle():
    ball = enumerate_ball(F2, 4)
    oracle = brute_reduced_words(2, 4)
    assert len(ball) == len(oracle) == 161
    assert {e.payload for e in ball} == oracle


def test_ball_finite_table():
    ball = enumerate_ball(FiniteTableGroup.cyclic(3), 2)
    assert len(ball) == 3


def test_ball_deterministic_order():
    b1 = enumerate_ball(F2, 3)
    b2 = enumerate_ball(F2, 3)
    assert b1 == b2
    keys = [F2.sort_key(e) for e in b1]
    assert keys == sorted(keys)


def test_ball_cap_raises():
    with pytest.raises(ResourceLimitError):
        enumerate_ball(F2, 8, cap=100)


def test_shift_ball_includes_stable_letter():
    G = shift_group(window=1)
    ball = enumerate_ball(G, 1)
    assert G.stable_letter(-1) in ball
    assert G.base_generator(0) in ball
    # 3 base generators + t, plus inverses and identity
    assert len(ball) == 9


def test_infinite_rank_free_needs_window():
    with pytest.raises(ResourceLimitError):
        enumerate_ball(FreeGroupDescriptor(None), 2)


def test_table_validation_rejects_bad_tables():
    with pytest.raises(GroupValidationError):
        FiniteTableGroup([[0, 1], [1, 1]])  # not a group
    # a loop (Latin square with identity and inverses) that is not associative
    with pytest.raises(GroupValidationError):
        FiniteTableGroup(LOOP5)


def reference_table_check(table):
    """Entry-by-entry table validation (the loops the array checks replaced):
    the first failure message, or ``(identity, inverses)``."""
    n = len(table)
    if any(len(row) != n for row in table):
        return "multiplication table must be square"
    if any(not (0 <= x < n) for row in table for x in row):
        return "table entries must be element indices"
    identities = [e for e in range(n)
                  if all(table[e][j] == j and table[j][e] == j for j in range(n))]
    if not identities:
        return "table has no identity element"
    e = identities[0]
    inverse = []
    for i in range(n):
        js = [j for j in range(n) if table[i][j] == e and table[j][i] == e]
        if not js:
            return f"element x{i} has no inverse"
        inverse.append(js[0])
    return e, tuple(inverse)


@st.composite
def square_tables(draw):
    """Small tables, half of them with an identity row and column forced in,
    so that inverse and associativity failures are reached too."""
    n = draw(st.integers(1, 5))
    table = draw(st.lists(st.lists(st.integers(-1 if draw(st.booleans()) else 0, n - 1),
                                   min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        e = draw(st.integers(0, n - 1))
        for j in range(n):
            table[e][j] = table[j][e] = j
    return table


@settings(max_examples=300)
@given(square_tables())
def test_table_checks_match_the_entry_by_entry_reference(table):
    expected = reference_table_check(table)
    try:
        G = FiniteTableGroup(table)
    except GroupValidationError as err:
        if str(err).startswith("table is not associative"):
            assert isinstance(expected, tuple)
        else:
            assert str(err) == expected
    else:
        assert (G.identity_index, G.inverse) == expected


@pytest.mark.parametrize("seed", range(5))
def test_relabelled_group_tables_keep_identity_and_inverses(seed):
    import random

    S4 = FiniteTableGroup.from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
    relabel = list(range(S4.order))
    random.Random(seed).shuffle(relabel)
    back = {new: old for old, new in enumerate(relabel)}
    table = [[relabel[S4.table[back[i]][back[j]]] for j in range(S4.order)]
             for i in range(S4.order)]
    G = FiniteTableGroup(table)
    assert (G.identity_index, G.inverse) == reference_table_check(table)


def _first_non_associative(table):
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return f"({i},{j},{k})"
    return None


LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 7) for b in range(1, 7)
                                 if (a + b) % 7 and (a + b + 1) % 7])
def test_associativity_check_names_the_first_failing_triple(a, b):
    # Z7 with the single product a*b changed: identity and inverses survive;
    # the first failure in (i, j, k) order often has a larger j than others
    table = [[(i + j) % 7 for j in range(7)] for i in range(7)]
    table[a][b] = (a + b + 1) % 7
    with pytest.raises(GroupValidationError) as err:
        FiniteTableGroup(table)
    assert str(err.value) == f"table is not associative at {_first_non_associative(table)}"


def test_from_permutations_builds_s3():
    s = (1, 0, 2)
    t = (0, 2, 1)
    G = FiniteTableGroup.from_permutations([s, t])
    assert G.order == 6
