import hypothesis.strategies as st
from hypothesis import given

from qnbench.words import (
    concat,
    format_word,
    generator,
    invert_word,
    reduce_word,
    shift_word,
    word_key,
)

letters = st.tuples(st.integers(-3, 3), st.sampled_from([1, -1]))
raw_words = st.lists(letters, max_size=12).map(tuple)
# two generators, so that factors often cancel deep into each other
seam_words = st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1, -1])),
                      max_size=12).map(reduce_word)


def reference_concat(*words):
    """The letter-at-a-time product that ``concat`` replaced: every letter of
    every factor is pushed onto a stack or cancels its top."""
    out = []
    for w in words:
        for gen, exp in w:
            if out and out[-1][0] == gen and out[-1][1] == -exp:
                out.pop()
            else:
                out.append((gen, exp))
    return tuple(out)


def test_reduce_basic():
    # a b b^-1 -> a
    assert reduce_word([(0, 1), (1, 1), (1, -1)]) == ((0, 1),)
    assert reduce_word([]) == ()
    assert reduce_word([(0, 1), (0, -1)]) == ()


def is_reduced(word):
    """Oracle: no letter is followed by its inverse."""
    return all(
        not (word[i][0] == word[i + 1][0] and word[i][1] == -word[i + 1][1])
        for i in range(len(word) - 1)
    )


@given(raw_words)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    assert is_reduced(r)


@given(raw_words)
def test_inverse_cancels(w):
    r = reduce_word(w)
    assert concat(r, invert_word(r)) == ()
    assert concat(invert_word(r), r) == ()


@given(raw_words, raw_words)
def test_concat_matches_reduce(u, v):
    ru, rv = reduce_word(u), reduce_word(v)
    assert concat(ru, rv) == reduce_word(tuple(u) + tuple(v))


@given(seam_words, seam_words, seam_words)
def test_concat_of_reduced_words_matches_reduce_and_the_letter_loop(a, b, c):
    assert concat(a, b, c) == reduce_word(a + b + c) == reference_concat(a, b, c)
    assert concat(a, invert_word(a), b) == b


@given(raw_words)
def test_shift_by_zero_shares_the_word(w):
    r = reduce_word(w)
    assert shift_word(r, 0) is r


@given(raw_words, st.integers(-4, 4))
def test_shift_is_automorphism(w, d):
    r = reduce_word(w)
    assert shift_word(shift_word(r, d), -d) == r
    assert shift_word(invert_word(r), d) == invert_word(shift_word(r, d))


@given(raw_words, raw_words, st.integers(-4, 4))
def test_shift_multiplicative(u, v, d):
    ru, rv = reduce_word(u), reduce_word(v)
    assert shift_word(concat(ru, rv), d) == concat(shift_word(ru, d), shift_word(rv, d))


def test_generator_powers():
    assert generator(0, 3) == ((0, 1), (0, 1), (0, 1))
    assert generator(1, -2) == ((1, -1), (1, -1))
    assert generator(5, 0) == ()


def test_key_orders_by_length_then_lex():
    a, b = generator(0), generator(1)
    ainv = invert_word(a)
    ordering = sorted([b, a, concat(a, b), ainv, ()], key=word_key)
    assert ordering == [(), a, ainv, b, concat(a, b)]


def test_format():
    assert format_word(()) == "1"
    assert format_word(((0, 1), (0, 1), (1, -1))) == "a^2 b^-1"
    assert format_word(((-2, 1),)) == "g-2"
