"""Freely reduced words over integer-indexed generators.

A word is a tuple of letters ``(gen, exp)`` with ``gen`` an arbitrary integer
and ``exp`` in ``{+1, -1}``.  All functions keep words freely reduced: no
``(i, +1)(i, -1)`` or ``(i, -1)(i, +1)`` factor survives.
"""

from __future__ import annotations

from typing import Iterable, Tuple

Letter = Tuple[int, int]
Word = Tuple[Letter, ...]

EMPTY: Word = ()


def reduce_word(letters: Iterable[Letter]) -> Word:
    """Freely reduce a letter sequence.  Idempotent."""
    out: list[Letter] = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {exp}")
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def concat(*words: Word) -> Word:
    """Product of freely reduced words.  Every factor must be reduced: only
    the letters meeting at a seam are compared, so each seam costs the ``k``
    letters it cancels plus two tuple slices."""
    out: Word = EMPTY
    for w in words:
        if not (out and w and out[-1][0] == w[0][0] and out[-1][1] == -w[0][1]):
            out += w  # nothing cancels at this seam
            continue
        k, top = 1, min(len(out), len(w))
        while k < top and out[-1 - k][0] == w[k][0] and out[-1 - k][1] == -w[k][1]:
            k += 1
        out = out[:len(out) - k] + w[k:]
    return out


def invert_word(word: Word) -> Word:
    return tuple((gen, -exp) for gen, exp in reversed(word))


def shift_word(word: Word, delta: int) -> Word:
    """Shift every generator index by ``delta``; ``delta`` 0 returns ``word`` itself."""
    if delta == 0:
        return word
    return tuple((gen + delta, exp) for gen, exp in word)


def generator(gen: int, exp: int = 1) -> Word:
    if exp == 0:
        return EMPTY
    sign = 1 if exp > 0 else -1
    return tuple((gen, sign) for _ in range(abs(exp)))


def letter_key(letter: Letter) -> tuple[int, int]:
    # positive exponent sorts before negative for the same generator
    gen, exp = letter
    return (gen, 0 if exp > 0 else 1)


def word_key(word: Word) -> tuple:
    """Length-then-lexicographic sort key."""
    return (len(word), tuple(letter_key(l) for l in word))


def format_word(word: Word, name=None) -> str:
    """Render ``a b^-1 ...`` using ``name(gen)`` for generator names."""
    if not word:
        return "1"
    if name is None:
        name = _default_name
    parts: list[str] = []
    i = 0
    while i < len(word):
        gen, exp = word[i]
        run = 1
        while i + run < len(word) and word[i + run] == (gen, exp):
            run += 1
        power = exp * run
        parts.append(name(gen) if power == 1 else f"{name(gen)}^{power}")
        i += run
    return " ".join(parts)


def _default_name(gen: int) -> str:
    if 0 <= gen < 26:
        return "abcdefghijklmnopqrstuvwxyz"[gen]
    return f"g{gen}"
