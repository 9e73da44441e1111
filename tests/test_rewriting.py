import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from qnbench.errors import GroupValidationError
from qnbench.rewriting import (
    RewritingSystem,
    abelianized,
    lattice_member,
    lattice_pivots,
    relator_insertion_search,
)
from qnbench.words import generator, letter, reduce_word, word_key
from test_groups import free_abelian_of_rank_two

A = letter(0)
AI = letter(0, -1)
R = letter(1)
RI = letter(1, -1)
B, BI = R, RI  # the second generator, named b in the free abelian system

DIHEDRAL_RELATORS = [((R, R)), (R, A, R, A)]
DIHEDRAL_RULES = [
    ((RI,), (R,)),
    ((R, R), ()),
    ((R, A), (AI, R)),
    ((R, AI), (A, R)),
]


def dihedral_system():
    sys = RewritingSystem(num_gens=2, rules=list(DIHEDRAL_RULES))
    sys.verify(DIHEDRAL_RELATORS)
    return sys


def test_dihedral_system_verifies():
    sys = dihedral_system()
    assert sys.verified


def test_dihedral_normal_forms():
    sys = dihedral_system()
    # r a r^-1 = a^-1
    assert sys.normal_form((R, A, RI)) == (AI,)
    # conjugates a^k r a^-k = a^2k r
    for k in range(4):
        w = generator(0, k) + (R,) + generator(0, -k)
        assert sys.normal_form(w) == generator(0, 2 * k) + (R,)
    assert sys.normal_form((R, R, R)) == (R,)


@settings(max_examples=80)
@given(st.lists(st.sampled_from([A, AI, R, RI]), max_size=10))
def test_dihedral_normal_form_idempotent_and_shorter(letters):
    sys = dihedral_system()
    w = reduce_word(letters)
    nf = sys.normal_form(w)
    assert sys.normal_form(nf) == nf
    assert word_key(nf) <= word_key(w)


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from([A, AI, R, RI]), max_size=8),
    st.lists(st.sampled_from([A, AI, R, RI]), max_size=8),
)
def test_dihedral_normal_form_multiplicative(u, v):
    # nf(uv) == nf(nf(u)nf(v)): normal forms behave like group elements
    sys = dihedral_system()
    w1 = sys.normal_form(reduce_word(tuple(u) + tuple(v)))
    w2 = sys.normal_form(reduce_word(sys.normal_form(reduce_word(u)) + sys.normal_form(reduce_word(v))))
    assert w1 == w2


def test_rejects_non_decreasing_rule():
    sys = RewritingSystem(num_gens=1, rules=[((A,), (A, A))])
    with pytest.raises(GroupValidationError):
        sys.verify([])


def test_rejects_non_confluent_system():
    # b a -> a b without the inverse-letter variants is not locally confluent
    sys = RewritingSystem(num_gens=2, rules=[((B, A), (A, B))])
    with pytest.raises(GroupValidationError):
        sys.verify([(A, B, AI, BI)])


def test_rejects_unsound_rule():
    # a -> empty is not a consequence of the commutator relator
    sys = RewritingSystem(num_gens=2, rules=[((A,), ())])
    with pytest.raises(GroupValidationError):
        sys.verify([(A, B, AI, BI)])


def abelian_rules():
    out = []
    for first, second in [(B, A), (B, AI), (BI, A), (BI, AI)]:
        out.append(((first, second), (second, first)))
    return out


def test_free_abelian_system():
    sys = RewritingSystem(num_gens=2, rules=abelian_rules())
    sys.verify([(A, B, AI, BI)])
    assert sys.normal_form((B, A)) == (A, B)
    assert sys.normal_form((B, A, BI)) == (A,)


# -- the index automaton against the stack scan it replaced ---------------------


def reference_normal_form(system, word):
    """The stack scan over every rule: after each pushed letter, the first
    rule in ``all_rules()`` order whose left-hand side is a suffix of the
    stack fires."""
    rules = system.all_rules()
    stack = []
    pending = list(reversed(word))
    while pending:
        stack.append(pending.pop())
        for lhs, rhs in rules:
            k = len(lhs)
            if len(stack) >= k and tuple(stack[-k:]) == lhs:
                del stack[-k:]
                pending.extend(reversed(rhs))
                break
    return tuple(stack)


def letters_of(num_gens):
    return [letter(g, e) for g in range(num_gens) for e in (1, -1)]


@st.composite
def length_reducing_systems(draw):
    """Strictly length-reducing rules on 1-3 generators, mostly not confluent.

    Left-hand sides are drawn from a small pool, so duplicate left-hand sides
    with different right-hand sides, and left-hand sides that are suffixes
    of one another, are common.
    """
    num_gens = draw(st.integers(1, 3))
    letters = st.sampled_from(letters_of(num_gens))
    pool = draw(st.lists(st.lists(letters, min_size=1, max_size=4).map(tuple), min_size=1, max_size=4))
    rules = []
    for lhs in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)):
        rules.append((lhs, tuple(draw(st.lists(letters, max_size=len(lhs) - 1)))))
    return RewritingSystem(num_gens=num_gens, rules=rules)


@settings(max_examples=150, deadline=None)
@given(length_reducing_systems(), st.data())
def test_normal_form_matches_the_stack_scan(system, data):
    words = st.lists(st.sampled_from(letters_of(system.num_gens)), max_size=40)
    for _ in range(3):
        word = tuple(data.draw(words))
        assert system.normal_form(word) == reference_normal_form(system, word)
        # the scan fires no rule inside an irreducible prefix, so resuming
        # after one is exact even when the system is not confluent
        prefix = system.normal_form(word)
        resumed = prefix + tuple(data.draw(words))
        assert system.normal_form(resumed, len(prefix)) == reference_normal_form(system, resumed)


@pytest.mark.parametrize(
    "rules, word, expected",
    [
        # duplicate left-hand sides: the first listed rule wins
        ([((A, A), (R,)), ((A, A), ())], (A, A), (R,)),
        ([((A, A), ()), ((A, A), (R,))], (A, A), ()),
        # a shorter left-hand side listed first beats a longer one ending alike
        ([((A,), ()), ((R, A), (AI,))], (R, A), (R,)),
        ([((R, A), (AI,)), ((A,), ())], (R, A), (AI,)),
        # a match that starts inside a longer partial match (failure link)
        ([((A, R, R), ()), ((R, AI), ())], (A, R, AI), (A,)),
        # a rewrite pops len(lhs) - 1 stacked letters
        ([((A, R), (AI,))], (R, A, R), (R, AI)),
    ],
)
def test_normal_form_examples(rules, word, expected):
    system = RewritingSystem(num_gens=2, rules=rules)
    assert system.normal_form(word) == reference_normal_form(system, word) == expected


def test_dihedral_conjugates_match_the_stack_scan():
    sys = dihedral_system()
    for k in range(61):
        w = generator(0, k) + (R,) + generator(0, -k)
        assert sys.normal_form(w) == reference_normal_form(sys, w) == generator(0, 2 * k) + (R,)


@settings(max_examples=80)
@given(st.lists(st.sampled_from([A, AI, R, RI]), max_size=40))
def test_free_abelian_normal_form_matches_the_stack_scan(letters):
    system = free_abelian_of_rank_two().rewriting
    word = tuple(letters)
    assert system.normal_form(word) == reference_normal_form(system, word)


# -- resuming after an irreducible prefix ----------------------------------------


def order_four_system():
    """``<a | a^4>`` with ``a a a -> a^-1`` and ``a^-1 a^-1 -> a a``: its
    longest left-hand side has three letters, so a resumed rewrite re-reads
    two."""
    system = RewritingSystem(num_gens=1, rules=[((A, A, A), (AI,)), ((AI, AI), (A, A))])
    system.verify([(A, A, A, A)])
    return system


CONVERGENT_SYSTEMS = {
    "dihedral": (dihedral_system(), [A, AI, R, RI]),
    "lattice": (free_abelian_of_rank_two().rewriting, [A, AI, B, BI]),
    "order_four": (order_four_system(), [A, AI]),
}


def test_order_four_system_has_a_three_letter_left_hand_side():
    system, _ = CONVERGENT_SYSTEMS["order_four"]
    assert max(len(lhs) for lhs, _ in system.all_rules()) == 3
    assert system.normal_form((A,) * 5) == (A,)
    assert system.normal_form((A, A, A)) == (AI,)


@pytest.mark.parametrize("name", sorted(CONVERGENT_SYSTEMS))
@settings(max_examples=80)
@given(data=st.data())
def test_normal_form_resumes_after_an_irreducible_prefix(name, data):
    system, alphabet = CONVERGENT_SYSTEMS[name]
    words = st.lists(st.sampled_from(alphabet), max_size=30).map(tuple)
    prefix = system.normal_form(data.draw(words))
    word = prefix + data.draw(words)
    assert system.normal_form(word, len(prefix)) == system.normal_form(word)


def test_rules_are_frozen_at_construction():
    system = RewritingSystem(num_gens=2, rules=[[list(l), list(r)] for l, r in DIHEDRAL_RULES])
    assert system.rules == tuple(DIHEDRAL_RULES)


def test_relator_insertion_finds_dihedral_identity():
    # r a r^-1 a is a consequence of {rr, rara}
    assert relator_insertion_search((R, A, RI, A), DIHEDRAL_RELATORS)
    assert relator_insertion_search((), DIHEDRAL_RELATORS)


def test_relator_insertion_gives_up_honestly():
    # a is not the identity in the infinite dihedral group
    assert not relator_insertion_search((A,), DIHEDRAL_RELATORS, node_budget=2000)


def test_abelianized():
    assert abelianized((A, BI, A), 3) == (2, -1, 0)


def test_lattice_member_examples():
    assert lattice_member([(2, 0), (0, 3)], (4, -3))
    assert not lattice_member([(2, 0), (0, 3)], (1, 0))
    assert lattice_member([], (0, 0))
    assert not lattice_member([], (1, 0))
    assert lattice_member([(2, 4)], (-6, -12))
    assert not lattice_member([(2, 4)], (2, 2))


@settings(max_examples=80)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=3),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
def test_lattice_member_against_enumeration(gens, c1, c2):
    target = tuple(c1 * gens[0][i] + (c2 * gens[1][i] if len(gens) > 1 else 0) for i in range(2))
    assert lattice_member(gens, target)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=2), st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_lattice_member_matches_brute_force(gens, target):
    # coefficient window large enough for these ranges (Cramer bound with
    # determinant at least one and entries at most two: |c| <= 2*5*2 + slack)
    claimed = lattice_member(gens, target)
    window = range(-33, 34)
    found = any(
        tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(2)) == tuple(target)
        for coeffs in itertools.product(window, repeat=len(gens))
    )
    assert claimed == found


@settings(max_examples=80)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)), max_size=4))
def test_lattice_pivots_count_the_rank(gens):
    pivots = lattice_pivots(gens, 3)
    assert len(pivots) == (np.linalg.matrix_rank(np.array(gens).T) if gens else 0)
    rows = [row for row, _ in pivots]
    assert rows == sorted(set(rows))
    for row, column in pivots:
        assert column[row] > 0 and not any(column[:row])
