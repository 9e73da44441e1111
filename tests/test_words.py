import hypothesis.strategies as st
from hypothesis import given

from qnbench.words import (
    concat,
    exp_of,
    format_word,
    gen_of,
    generator,
    inverse,
    invert_word,
    letter,
    reduce_word,
    shift_word,
    word_key,
)

# every int is a letter: generators -4 .. 3, both signs
raw_words = st.lists(st.integers(-8, 7), max_size=12).map(tuple)
# two generators, so that factors often cancel deep into each other
seam_words = st.lists(st.integers(0, 3), max_size=12).map(reduce_word)


# -- the (gen, exp) pair format the letter code replaced, kept as a reference ----

pair_letters = st.tuples(st.integers(-4, 3), st.sampled_from([1, -1]))
pair_words = st.lists(pair_letters, max_size=12).map(tuple)


def encode(pairs):
    return tuple(letter(gen, exp) for gen, exp in pairs)


def decode(word):
    return tuple((gen_of(x), exp_of(x)) for x in word)


def pair_letter_key(pair):
    # positive exponent sorts before negative for the same generator
    gen, exp = pair
    return (gen, 0 if exp > 0 else 1)


def pair_word_key(pairs):
    return (len(pairs), tuple(pair_letter_key(p) for p in pairs))


def pair_reduce(pairs):
    out = []
    for gen, exp in pairs:
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def pair_invert(pairs):
    return tuple((gen, -exp) for gen, exp in reversed(pairs))


def pair_shift(pairs, delta):
    return tuple((gen + delta, exp) for gen, exp in pairs)


def pair_format(pairs, name):
    if not pairs:
        return "1"
    parts = []
    i = 0
    while i < len(pairs):
        gen, exp = pairs[i]
        run = 1
        while i + run < len(pairs) and pairs[i + run] == (gen, exp):
            run += 1
        power = exp * run
        parts.append(name(gen) if power == 1 else f"{name(gen)}^{power}")
        i += run
    return " ".join(parts)


@given(pair_words, raw_words)
def test_the_code_is_a_bijection_on_letters(pairs, word):
    assert decode(encode(pairs)) == pairs
    assert encode(decode(word)) == word
    assert tuple(inverse(x) for x in encode(pairs)) == encode(pair_invert(pairs))[::-1]


@given(pair_words, pair_words, st.integers(-5, 5))
def test_the_code_commutes_with_the_pair_operations(u, v, delta):
    assert reduce_word(encode(u)) == encode(pair_reduce(u))
    ru, rv = pair_reduce(u), pair_reduce(v)
    assert concat(encode(ru), encode(rv)) == encode(pair_reduce(ru + rv))
    assert invert_word(encode(ru)) == encode(pair_invert(ru))
    assert shift_word(encode(ru), delta) == encode(pair_shift(ru, delta))


@given(st.integers(-4, 3), st.integers(-3, 3))
def test_generator_encodes_the_pair_power(gen, power):
    sign = 1 if power > 0 else -1
    assert generator(gen, power) == encode(((gen, sign),) * abs(power))


@given(pair_words)
def test_format_decodes_like_the_pair_format(pairs):
    def name(gen):
        return f"x{gen}"

    assert format_word(encode(pairs), name) == pair_format(pairs, name)


@given(st.lists(pair_words, max_size=8))
def test_word_key_sorts_like_the_pair_key(words):
    by_pairs = [encode(w) for w in sorted(words, key=pair_word_key)]
    assert by_pairs == sorted((encode(w) for w in words), key=word_key)


@given(pair_letters, pair_letters)
def test_the_code_is_monotone_in_the_pair_key(a, b):
    assert (letter(*a) < letter(*b)) == (pair_letter_key(a) < pair_letter_key(b))


# -- the letter code on its own ---------------------------------------------------


def reference_concat(*words):
    """The letter-at-a-time product that ``concat`` replaced: every letter of
    every factor is pushed onto a stack or cancels its top."""
    out = []
    for w in words:
        for x in w:
            if out and gen_of(out[-1]) == gen_of(x) and exp_of(out[-1]) == -exp_of(x):
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def test_reduce_basic():
    a, b = generator(0), generator(1)
    # a b b^-1 -> a
    assert reduce_word(a + b + invert_word(b)) == a
    assert reduce_word([]) == ()
    assert reduce_word(a + invert_word(a)) == ()


def is_reduced(word):
    """Oracle: no letter is followed by its inverse."""
    return all(
        not (gen_of(word[i]) == gen_of(word[i + 1]) and exp_of(word[i]) == -exp_of(word[i + 1]))
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
    assert generator(0, 3) == (letter(0),) * 3
    assert generator(1, -2) == (letter(1, -1),) * 2
    assert generator(5, 0) == ()
    assert decode(generator(-2, -2)) == ((-2, -1), (-2, -1))


def test_key_orders_by_length_then_lex():
    a, b = generator(0), generator(1)
    ainv = invert_word(a)
    ordering = sorted([b, a, concat(a, b), ainv, ()], key=word_key)
    assert ordering == [(), a, ainv, b, concat(a, b)]


def test_format():
    assert format_word(()) == "1"
    assert format_word(generator(0, 2) + generator(1, -1)) == "a^2 b^-1"
    assert format_word(generator(-2)) == "g-2"
