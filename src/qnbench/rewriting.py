"""Word-problem machinery for finitely presented groups.

Three tools, all sound and clearly scoped:

* ``RewritingSystem`` -- a user-supplied set of length-lex-reducing string
  rules, machine-checked for termination (every rule decreases the shortlex
  order), local confluence (all critical pairs join) and compatibility with
  the presentation (rules are consequences of the relators, relators rewrite
  to the empty word).  A verified system decides equality exactly via normal
  forms.  No completion is attempted: a system that fails verification is
  rejected.  Each system is compiled once into the index automaton of its
  left-hand sides (an Aho-Corasick automaton), so a normal form costs one
  table step per letter read instead of a scan over every rule.  Its output
  equals the plain first-listed-rule scan: the rewriting stack never holds
  a left-hand side, so every new match is a suffix of the stack, and each
  automaton state names the first listed rule among those suffixes.  For
  the same reason the state after any stack is its longest suffix that is
  a proper prefix of a left-hand side, which has at most ``L - 1`` letters
  for ``L`` the longest left-hand side: re-reading the last ``L - 1``
  letters of the stack recovers it.  So an irreducible prefix is taken as
  it stands, and only the letters after it are read.  A product of two
  normal forms needs neither a free reduction nor a range check: its
  letters are in range, and the free cancellation rules are part of the
  system, which is convergent, so rewriting the plain juxtaposition gives
  the normal form of the reduced product, and the left factor is such an
  irreducible prefix.

* ``relator_insertion_search`` -- bounded BFS over relator insertions; finds
  positive proofs that a word represents the identity.

* abelianization helpers -- exact refutations through the integer lattice of
  relator exponent vectors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .errors import GroupValidationError
from .words import (Word, concat, exp_of, gen_of, inverse, invert_word, letter, reduce_word,
                    word_key)


def _free_rules(num_gens: int) -> list[tuple[Word, Word]]:
    return [((x, inverse(x)), ()) for x in range(letter(num_gens))]


def _index_automaton(rules: Sequence[tuple[Word, Word]]) -> tuple[list, list, int]:
    """Aho-Corasick automaton over the rules' left-hand sides.

    States are the prefixes of the left-hand sides, 0 being the empty word;
    the state after reading a word is its longest suffix that is such a
    prefix.  ``delta[s]`` maps every letter of the left-hand sides (with the
    free cancellation rules, every generator letter) to the next state:
    trie edges completed through failure links.  Any other letter leads
    back to state 0.  ``output[s]`` is None or ``(len(lhs) - 1, reversed
    rhs)`` for the lowest-index rule whose left-hand side is a suffix of the
    state's word.  Empty left-hand sides are left out: the stack scan never
    fires them either.  The third entry, ``L - 1`` for ``L`` the longest
    left-hand side, is how many trailing letters of an irreducible word fix
    the state after it.
    (Aho-Corasick 1975; Sims 1994, *Computation with Finitely Presented
    Groups*, section 2.8.)
    """
    trie: list[dict] = [{}]
    own: list = [None]  # lowest rule index whose lhs is exactly the state's word
    for index, (lhs, _) in enumerate(rules):
        if not lhs:
            continue
        state = 0
        for letter in lhs:
            if letter not in trie[state]:
                trie[state][letter] = len(trie)
                trie.append({})
                own.append(None)
            state = trie[state][letter]
        if own[state] is None:
            own[state] = index
    letters = set().union(*trie)
    delta: list = [None] * len(trie)
    first: list = [None] * len(trie)
    delta[0] = {letter: trie[0].get(letter, 0) for letter in letters}
    queue = deque((child, 0) for child in trie[0].values())
    while queue:  # breadth first, so a failure state is done before its users
        state, fail = queue.popleft()
        candidates = [i for i in (own[state], first[fail]) if i is not None]
        first[state] = min(candidates, default=None)
        delta[state] = {**delta[fail], **trie[state]}
        queue.extend((child, delta[fail][letter]) for letter, child in trie[state].items())
    output = [None if i is None else (len(rules[i][0]) - 1, tuple(reversed(rules[i][1])))
              for i in first]
    return delta, output, max((len(lhs) for lhs, _ in rules), default=1) - 1


@dataclass
class RewritingSystem:
    """Convergent rewriting system over ``num_gens`` generators.

    ``rules`` map left-hand words to strictly shortlex-smaller right-hand
    words.  Free cancellation rules are always included.  Use ``verify``
    before trusting ``normal_form`` for equality decisions.

    The rules are frozen into a tuple at construction and compiled once into
    an index automaton (see ``_index_automaton``), so the automaton always
    describes ``rules``.
    """

    num_gens: int
    rules: tuple  # (lhs, rhs) word pairs, custom rules only
    verified: bool = field(default=False, init=False)
    _automaton: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rules = tuple((tuple(lhs), tuple(rhs)) for lhs, rhs in self.rules)
        self._automaton = _index_automaton(self.all_rules())

    def all_rules(self) -> list[tuple[Word, Word]]:
        return list(self.rules) + _free_rules(self.num_gens)

    def normal_form(self, word: Word, irreducible: int = 0) -> Word:
        """Rewrite to an irreducible word; ``word[:irreducible]`` must
        already be irreducible, and is not read again.

        Stack strategy: push letters left to right and rewrite whenever a
        left-hand side appears as a suffix of the stack, by the first such
        rule in ``all_rules()`` order.  Every factor of a word is a suffix of
        one of its prefixes, so the result contains no left-hand side at
        all; termination follows from the shortlex descent of each rule.

        The stack never holds a left-hand side, so a pushed letter can only
        complete left-hand sides that are suffixes of the stack, and the
        index automaton's state after the stack, its longest suffix that is
        a proper prefix of a left-hand side, lies within its last ``L - 1``
        letters.  One table step per pushed letter finds the first listed
        rule among those suffixes, which is the rule the plain scan over all
        rules would pick.  A rewrite pops ``len(lhs) - 1`` letters (the last
        letter was never pushed), re-reads the last ``L - 1`` letters left
        to recover the state and queues the right-hand side.  The
        irreducible prefix is such a stack, so it starts the same way.
        """
        delta, output, reach = self._automaton
        letters = list(word[:irreducible])
        pending = list(reversed(word[irreducible:]))
        state = 0
        for kept in letters[-reach:]:
            state = delta[state].get(kept, 0)
        while pending:
            letter = pending.pop()
            state = delta[state].get(letter, 0)
            match = output[state]
            if match is None:
                letters.append(letter)
            else:
                drop, rhs_reversed = match
                if drop:
                    del letters[-drop:]
                state = 0
                for kept in letters[-reach:]:
                    state = delta[state].get(kept, 0)
                pending.extend(rhs_reversed)
        return tuple(letters)

    # -- verification ------------------------------------------------------

    def verify(self, relators: Sequence[Word], search_budget: int = 20000) -> None:
        """Check termination, local confluence and presentation compatibility.

        Raises GroupValidationError with the offending rule or pair.
        """
        for lhs, rhs in self.rules:
            if tuple(lhs) != reduce_word(lhs) or tuple(rhs) != reduce_word(rhs):
                raise GroupValidationError(f"rule sides must be freely reduced: {lhs} -> {rhs}")
            if not word_key(rhs) < word_key(lhs):
                raise GroupValidationError(f"rule does not decrease shortlex order: {lhs} -> {rhs}")
        self._check_local_confluence()
        for lhs, rhs in self.rules:
            probe = concat(lhs, invert_word(rhs))
            if not relator_insertion_search(probe, relators, node_budget=search_budget):
                raise GroupValidationError(
                    f"rule is not a visible consequence of the relators: {lhs} -> {rhs}"
                )
        for rel in relators:
            if self.normal_form(reduce_word(rel)) != ():
                raise GroupValidationError(f"relator does not rewrite to the identity: {rel}")
        self.verified = True

    def _check_local_confluence(self) -> None:
        rules = self.all_rules()
        for l1, r1 in rules:
            for l2, r2 in rules:
                # proper containment: l2 inside l1
                for i in range(len(l1) - len(l2) + 1):
                    if l1[i : i + len(l2)] == l2 and (i > 0 or len(l2) < len(l1)):
                        left = r1
                        right = l1[:i] + r2 + l1[i + len(l2) :]
                        self._join_or_raise(left, right, l1)
                # overlap: proper suffix of l1 equals proper prefix of l2
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k :] == l2[:k]:
                        word = l1 + l2[k:]
                        left = r1 + l2[k:]
                        right = l1[: len(l1) - k] + r2
                        self._join_or_raise(left, right, word)

    def _join_or_raise(self, left: Word, right: Word, source: Word) -> None:
        if self.normal_form(left) != self.normal_form(right):
            raise GroupValidationError(f"critical pair from {source} does not join")


# -- bounded identity search -------------------------------------------------


def _relator_variants(relators: Sequence[Word]) -> list[Word]:
    variants = set()
    for rel in relators:
        rel = reduce_word(rel)
        for base in (rel, invert_word(rel)):
            for i in range(len(base)):
                variants.add(reduce_word(base[i:] + base[:i]))
    variants.discard(())
    return sorted(variants, key=word_key)


def relator_insertion_search(
    word: Word,
    relators: Sequence[Word],
    node_budget: int = 20000,
    length_slack: int = 6,
) -> bool:
    """Semi-decide whether ``word`` is a relator consequence (the identity).

    BFS over relator insertions at every position, pruned by a length cap and
    a node budget.  True is a proof; False only means "not found".
    """
    start = reduce_word(word)
    if start == ():
        return True
    variants = _relator_variants(relators)
    if not variants:
        return False
    max_len = len(start) + max(len(v) for v in variants) + length_slack
    seen = {start}
    frontier = [start]
    spent = 1
    while frontier and spent < node_budget:
        nxt = []
        for current in frontier:
            for var in variants:
                for i in range(len(current) + 1):
                    cand = concat(current[:i], var, current[i:])
                    if cand == ():
                        return True
                    if len(cand) > max_len or cand in seen:
                        continue
                    seen.add(cand)
                    nxt.append(cand)
                    spent += 1
                    if spent >= node_budget:
                        break
                if spent >= node_budget:
                    break
            if spent >= node_budget:
                break
        frontier = nxt
    return False


# -- abelianization ----------------------------------------------------------


def abelianized(word: Word, num_gens: int) -> tuple[int, ...]:
    vec = [0] * num_gens
    for x in word:
        vec[gen_of(x)] += exp_of(x)
    return tuple(vec)


def lattice_pivots(generators: Sequence[Sequence[int]], dim: int) -> list[tuple[int, list[int]]]:
    """Echelon basis of the lattice the columns span, as ``(row, column)``
    pairs: each column is zero above its row and positive at it, and the
    rows increase.  Their number is the lattice's rank."""
    cols = [list(g) for g in generators]
    if any(len(c) != dim for c in cols):
        raise ValueError("lattice generators and target must share a dimension")
    pivots: list[tuple[int, list[int]]] = []
    active = [c for c in cols if any(c)]
    for row in range(dim):
        carriers = [c for c in active if c[row] != 0]
        if not carriers:
            continue
        # gcd sweep: column operations until one carrier remains at this row
        while len(carriers) > 1:
            carriers.sort(key=lambda c: abs(c[row]))
            small, big = carriers[0], carriers[1]
            q = big[row] // small[row]
            for r in range(dim):
                big[r] -= q * small[r]
            carriers = [c for c in carriers if c[row] != 0]
        # the sweep zeroed this row in every other active column
        pivot = carriers[0]
        if pivot[row] < 0:
            for r in range(dim):
                pivot[r] = -pivot[r]
        active.remove(pivot)
        active = [c for c in active if any(c)]
        pivots.append((row, pivot))
    return pivots


def lattice_member(generators: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Exact membership of an integer vector in the lattice the columns span."""
    t = list(target)
    dim = len(t)
    for row, pivot in lattice_pivots(generators, dim):
        if t[row] % pivot[row] != 0:
            return False
        q = t[row] // pivot[row]
        for r in range(dim):
            t[r] -= q * pivot[r]
    return not any(t)
