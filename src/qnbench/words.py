"""Freely reduced words over integer-indexed generators.

A letter is one int: generator ``g`` (any integer) to the power ``+1`` is
``2g``, to the power ``-1`` is ``2g + 1``.  So every int is a letter, the
inverse of ``x`` is ``x ^ 1``, and shifting every generator index by ``d``
adds ``2d``.  The code is monotone in ``(g, +1 before -1)``: ``word_key``,
length then native tuple order, sorts words by that pair order, and the
letters of the generators ``m .. n-1`` are the ints in ``[letter(m), letter(n))``.

A word is a tuple of letters, kept freely reduced: no letter is followed by
its inverse.  Only this module knows the code.  Other modules use ``letter``,
``generator``, ``gen_of``, ``exp_of``, ``inverse`` and the order above, and
``format_word`` decodes words for output.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Tuple

Letter = int
Word = Tuple[Letter, ...]

EMPTY: Word = ()


def letter(gen: int, exp: int = 1) -> Letter:
    """The letter of ``gen`` to the sign of ``exp`` (``exp`` nonzero)."""
    return 2 * gen + (exp < 0)


def inverse(x: Letter) -> Letter:
    return x ^ 1


def gen_of(x: Letter) -> int:
    return x >> 1


def exp_of(x: Letter) -> int:
    """``+1`` or ``-1``."""
    return -1 if x & 1 else 1


def reduce_word(letters: Iterable[Letter]) -> Word:
    """Freely reduce a letter sequence.  Idempotent."""
    out: list[Letter] = []
    for x in letters:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def concat(*words: Word) -> Word:
    """Product of freely reduced words.  Every factor must be reduced: only
    the letters meeting at a seam are compared, so each seam costs the ``k``
    letters it cancels plus two tuple slices."""
    out: Word = EMPTY
    for w in words:
        if not (out and w and out[-1] == w[0] ^ 1):
            out += w  # nothing cancels at this seam
            continue
        k, top = 1, min(len(out), len(w))
        while k < top and out[-1 - k] == w[k] ^ 1:
            k += 1
        out = out[:len(out) - k] + w[k:]
    return out


def invert_word(word: Word) -> Word:
    return tuple(x ^ 1 for x in reversed(word))


def shift_word(word: Word, delta: int) -> Word:
    """Shift every generator index by ``delta``; ``delta`` 0 returns ``word`` itself."""
    if delta == 0:
        return word
    step = 2 * delta
    return tuple(x + step for x in word)


def generator(gen: int, exp: int = 1) -> Word:
    """The word ``gen^exp``."""
    if exp == 0:
        return EMPTY
    return (letter(gen, exp),) * abs(exp)


def word_key(word: Word) -> tuple:
    """Length-then-lexicographic sort key."""
    return (len(word), word)


def format_word(word: Word, name=None) -> str:
    """Render ``a b^-1 ...`` using ``name(gen)`` for generator names."""
    if not word:
        return "1"
    name = name or _default_name
    parts: list[str] = []
    for x, run in groupby(word):
        power = exp_of(x) * len(list(run))
        parts.append(name(gen_of(x)) if power == 1 else f"{name(gen_of(x))}^{power}")
    return " ".join(parts)


def _default_name(gen: int) -> str:
    if 0 <= gen < 26:
        return "abcdefghijklmnopqrstuvwxyz"[gen]
    return f"g{gen}"
