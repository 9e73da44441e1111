"""Coset enumeration for finitely presented groups.

HLT-style enumeration with coincidence handling through a union-find over
coset labels.  Enumeration terminates exactly when the subgroup has finite
index; a hard cap on created cosets turns the non-terminating case into an
incomplete table.  A complete table is a genuine permutation representation
of the group on the cosets, so the membership and coset questions it answers
are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .words import Word, inverse, letter

SENTINEL = -1


class _Overflow(Exception):
    pass


@dataclass
class CosetTable:
    """Right-coset table of a subgroup of a finitely presented group."""

    num_gens: int
    complete: bool
    table: Optional[list]  # dense rows over live cosets, a column per letter, when complete
    created: int

    @property
    def index(self) -> Optional[int]:
        return len(self.table) if self.complete else None

    def coset_of(self, word: Word) -> int:
        """Coset reached from the subgroup coset by reading ``word``."""
        if not self.complete:
            raise ValueError("coset_of requires a complete table")
        c = 0
        for x in word:
            c = self.table[c][x]
        return c

    def is_member(self, word: Word) -> bool:
        return self.coset_of(word) == 0


def enumerate_cosets(
    num_gens: int,
    relators: Sequence[Word],
    subgroup_words: Sequence[Word],
    max_cosets: int = 20000,
) -> CosetTable:
    width = letter(num_gens)  # a column per letter of generators 0 .. num_gens - 1
    labels: list[int] = []
    rows: list[list[int]] = []

    def find(c: int) -> int:
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def new_coset() -> int:
        if len(labels) >= max_cosets:
            raise _Overflow
        labels.append(len(labels))
        rows.append([SENTINEL] * width)
        return len(labels) - 1

    def unify(a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            labels[y] = x
            row_x, row_y = rows[x], rows[y]
            for d in range(width):
                n = row_y[d]
                if n == SENTINEL:
                    continue
                if row_x[d] == SENTINEL:
                    row_x[d] = n
                else:
                    queue.append((row_x[d], n))

    def follow(c: int, d: int) -> int:
        c = find(c)
        n = rows[c][d]
        if n == SENTINEL:
            n = new_coset()
            rows[c][d] = n
            rows[n][inverse(d)] = c
        return find(n)

    def follow_word(c: int, word: Word) -> int:
        for x in word:
            c = follow(c, x)
        return c

    try:
        start = new_coset()
        for w in subgroup_words:
            unify(follow_word(start, w), start)
        idx = 0
        while idx < len(labels):
            if find(idx) == idx:
                for rel in relators:
                    unify(follow_word(idx, rel), idx)
                for d in range(width):
                    follow(idx, d)
            idx += 1
    except _Overflow:
        return CosetTable(num_gens=num_gens, complete=False, table=None, created=len(labels))

    live = [c for c in range(len(labels)) if find(c) == c]
    relabel = {c: i for i, c in enumerate(live)}
    dense = [[relabel[find(rows[c][d])] for d in range(width)] for c in live]
    return CosetTable(num_gens=num_gens, complete=True, table=dense, created=len(labels))
