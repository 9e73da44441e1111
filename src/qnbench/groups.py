"""Uniform arithmetic over the supported discrete group families.

Every element carries a canonical normal form:

* finite table groups -- an index into the multiplication table;
* free groups -- a freely reduced word (generator ids may be any integers,
  so free groups of infinite rank cost nothing until elements appear);
* finitely presented groups -- a freely reduced word, upgraded to a true
  normal form when the descriptor carries a verified rewriting system;
* shift extensions -- a pair ``(word, n)`` for ``word * t^n`` where ``t``
  conjugates the free base by shifting every generator index up by one;
* direct products -- a pair of component elements.

Equality of normal forms decides equality of elements exactly in every
family except plain finitely presented groups, where it is only semi-decided
and ``elements_equal`` returns a three-valued answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from . import words as W
from .errors import DescriptorMismatchError, GroupValidationError, ResourceLimitError
from .rewriting import (
    RewritingSystem,
    abelianized,
    lattice_member,
    lattice_pivots,
    relator_insertion_search,
)


class Trit(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    @staticmethod
    def from_bool(value: bool) -> "Trit":
        return Trit.YES if value else Trit.NO

    @staticmethod
    def conjunction(values: Sequence["Trit"]) -> "Trit":
        """Three-valued AND: No if any value is No, Yes if all are Yes."""
        if any(v is Trit.NO for v in values):
            return Trit.NO
        if all(v is Trit.YES for v in values):
            return Trit.YES
        return Trit.UNKNOWN


# caps for the semi-decidable searches
EQUALITY_NODES = 4000  # relator-insertion nodes per fp equality test
BALL_CAP = 200000  # elements of an ambient or subgroup ball


@dataclass(frozen=True)
class GroupElement:
    group: "GroupDescriptor"
    payload: object

    def __eq__(self, other) -> bool:
        # normal-form equality; exact in every family except plain FpGroup
        return (
            isinstance(other, GroupElement)
            and self.group is other.group
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.payload))

    def __repr__(self) -> str:
        return f"<{self.group.format_element(self)}>"


class GroupDescriptor:
    """Shared interface of the family descriptors."""

    family = "abstract"

    def identity(self) -> GroupElement:
        raise NotImplementedError

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        raise NotImplementedError

    def invert(self, a: GroupElement) -> GroupElement:
        raise NotImplementedError

    def conjugate(self, h: GroupElement, g: GroupElement) -> GroupElement:
        """``h g h^-1``."""
        return self.multiply(self.multiply(h, g), self.invert(h))

    def normalize_payload(self, payload):
        raise NotImplementedError

    def generators(self) -> list[GroupElement]:
        raise NotImplementedError

    def sort_key(self, e: GroupElement):
        raise NotImplementedError

    def format_element(self, e: GroupElement) -> str:
        raise NotImplementedError

    def element(self, payload) -> GroupElement:
        return GroupElement(self, self.normalize_payload(payload))

    def check_same(self, *elements: GroupElement) -> None:
        for e in elements:
            if e.group is not self:
                raise DescriptorMismatchError(
                    f"element of {e.group.family} used with {self.family} descriptor"
                )

    def equality_is_exact(self) -> bool:
        return True

    def elements_equal(self, a: GroupElement, b: GroupElement) -> Trit:
        self.check_same(a, b)
        return Trit.from_bool(a.payload == b.payload)

    def abelian_refutes_membership(self, gen_payloads: Sequence, payload) -> bool:
        """True when an abelian image of the group already rules out that
        ``payload`` lies in the subgroup the ``gen_payloads`` generate; a
        family without such a refuter says False."""
        return False


# -- finite multiplication tables -------------------------------------------


class FiniteTableGroup(GroupDescriptor):
    family = "finite_table"

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None,
                 generator_indices: Optional[Sequence[int]] = None):
        n = len(table)
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in self.table):
            raise GroupValidationError("multiplication table must be square")
        self.names = tuple(names) if names is not None else tuple(f"x{i}" for i in range(n))
        self.identity_index, self.inverse = self._check_table()
        if generator_indices is None:
            generator_indices = [i for i in range(n) if i != self.identity_index]
        self.generator_indices = tuple(generator_indices)

    def _check_table(self) -> tuple[int, tuple[int, ...]]:
        """Check the table and return its identity and inverses.  The
        identity is the first ``e`` whose row and column are both ``0, 1, ...,
        n-1``, the inverse of ``i`` the first ``j`` with ``i j = j i = e``.
        ``(i j) k = i (j k)`` takes one ``n x n`` comparison per ``j``; a
        failure reports the lexicographically first ``(i, j, k)``."""
        import numpy as np  # the group side loads numpy for finite tables only

        n = self.order
        t = np.array(self.table) if n else np.zeros((0, 0), dtype=np.intp)
        if t.dtype.kind not in "iu" or ((t < 0) | (t >= n)).any():
            raise GroupValidationError("table entries must be element indices")
        t = t.astype(np.intp, copy=False)
        if len(self.names) != n:
            raise GroupValidationError("need one name per element")
        ids = np.arange(n)
        found = np.flatnonzero((t == ids).all(axis=1) & (t == ids[:, None]).all(axis=0))
        if not found.size:
            raise GroupValidationError("table has no identity element")
        e = int(found[0])
        two_sided = (t == e) & (t.T == e)
        missing = np.flatnonzero(~two_sided.any(axis=1))
        if missing.size:
            raise GroupValidationError(f"element {self.names[missing[0]]} has no inverse")
        failures = []
        for j in range(n):
            differ = t[t[:, j]] != t[:, t[j]]
            if differ.any():
                bad = np.argwhere(differ)[0]
                failures.append((int(bad[0]), j, int(bad[1])))
        if failures:
            raise GroupValidationError(
                "table is not associative at ({},{},{})".format(*min(failures)))
        return e, tuple(int(j) for j in two_sided.argmax(axis=1))

    def identity(self) -> GroupElement:
        return GroupElement(self, self.identity_index)

    def normalize_payload(self, payload):
        if not isinstance(payload, int) or not (0 <= payload < self.order):
            raise DescriptorMismatchError(f"bad table index {payload!r}")
        return payload

    def multiply(self, a, b):
        self.check_same(a, b)
        return GroupElement(self, self.table[a.payload][b.payload])

    def invert(self, a):
        self.check_same(a)
        return GroupElement(self, self.inverse[a.payload])

    def generators(self):
        return [GroupElement(self, i) for i in self.generator_indices]

    def sort_key(self, e):
        return (e.payload,)

    def format_element(self, e):
        return self.names[e.payload]


# -- free groups -------------------------------------------------------------


class FreeGroupDescriptor(GroupDescriptor):
    family = "free"

    def __init__(self, gens: Optional[Sequence[int]] = None, names: Optional[dict] = None):
        # gens None means generators indexed by every integer (used as the
        # base of shift extensions); balls then need an explicit window
        self.gens = tuple(gens) if gens is not None else None
        self.names = dict(names) if names else {}

    @staticmethod
    def of_rank(rank: int, names: Optional[Sequence[str]] = None) -> "FreeGroupDescriptor":
        gens = range(rank)
        if names is None:
            names = [W._default_name(i) for i in gens]
        return FreeGroupDescriptor(gens, dict(zip(gens, names)))

    def _name(self, gen: int) -> str:
        return self.names.get(gen) or W._default_name(gen)

    def identity(self):
        return GroupElement(self, W.EMPTY)

    def normalize_payload(self, payload):
        word = W.reduce_word(payload)
        if self.gens is not None:
            allowed = set(self.gens)
            for x in word:
                if W.gen_of(x) not in allowed:
                    raise DescriptorMismatchError(
                        f"generator id {W.gen_of(x)} not in this free group")
        return word

    def multiply(self, a, b):
        self.check_same(a, b)
        return GroupElement(self, W.concat(a.payload, b.payload))

    def invert(self, a):
        self.check_same(a)
        return GroupElement(self, W.invert_word(a.payload))

    def generators(self):
        if self.gens is None:
            raise ResourceLimitError("free group of infinite rank needs a generator window")
        return [GroupElement(self, W.generator(g)) for g in self.gens]

    def word(self, *powers: tuple[int, int]) -> GroupElement:
        """Element from (generator, exponent) pairs."""
        return self.element(W.concat(*(W.generator(g, e) for g, e in powers)))

    def sort_key(self, e):
        return W.word_key(e.payload)

    def format_element(self, e):
        return W.format_word(e.payload, self._name)


# -- finitely presented groups ------------------------------------------------


class FpGroupDescriptor(GroupDescriptor):
    family = "fp"

    def __init__(
        self,
        num_gens: int,
        relators: Sequence[W.Word],
        names: Optional[Sequence[str]] = None,
        rewriting_rules: Optional[Sequence[tuple[W.Word, W.Word]]] = None,
    ):
        self.num_gens = num_gens
        self.relators = tuple(W.reduce_word(r) for r in relators)
        self.names = tuple(names) if names else tuple(W._default_name(i) for i in range(num_gens))
        self.rewriting: Optional[RewritingSystem] = None
        if rewriting_rules is not None:
            system = RewritingSystem(num_gens=num_gens, rules=rewriting_rules)
            system.verify(self.relators)
            self.rewriting = system
        self._relator_lattice = [abelianized(r, num_gens) for r in self.relators]

    def identity(self):
        return GroupElement(self, W.EMPTY)

    def normalize_payload(self, payload):
        word = W.reduce_word(payload)
        first, end = W.letter(0), W.letter(self.num_gens)
        for x in word:
            if not (first <= x < end):
                raise DescriptorMismatchError(f"generator id {W.gen_of(x)} out of range")
        if self.rewriting is not None:
            word = self.rewriting.normal_form(word)
        return word

    def multiply(self, a, b):
        """Both payloads are normal forms of this group (``element`` checks
        outside payloads), so the product needs no reduce or range pass.  A
        verified system contains the free cancellation rules and is
        convergent, so the plain juxtaposition has the normal form of the
        reduced product; its left factor is irreducible, so the rewrite
        re-reads only its last ``L - 1`` letters (``L`` the longest
        left-hand side) and reads the right factor.  Without rules the
        normal form is the freely reduced word that ``W.concat`` returns."""
        self.check_same(a, b)
        if self.rewriting is None:
            return GroupElement(self, W.concat(a.payload, b.payload))
        return GroupElement(self, self.rewriting.normal_form(a.payload + b.payload,
                                                             len(a.payload)))

    def conjugate(self, h, g):
        """With rules, one rewrite of ``h g h^-1`` after the irreducible
        ``h``: the system is convergent, so any word over letters in range
        rewrites to the unique normal form."""
        if self.rewriting is None:
            return super().conjugate(h, g)
        self.check_same(h, g)
        word = h.payload + g.payload + W.invert_word(h.payload)
        return GroupElement(self, self.rewriting.normal_form(word, len(h.payload)))

    def invert(self, a):
        self.check_same(a)
        inverse = W.invert_word(a.payload)  # freely reduced, letters in range
        if self.rewriting is None:
            return GroupElement(self, inverse)
        return GroupElement(self, self.rewriting.normal_form(inverse))

    def generators(self):
        return [GroupElement(self, self.normalize_payload(W.generator(i))) for i in range(self.num_gens)]

    def equality_is_exact(self) -> bool:
        return self.rewriting is not None

    def elements_equal(self, a, b) -> Trit:
        self.check_same(a, b)
        if a.payload == b.payload:
            return Trit.YES
        if self.rewriting is not None:
            return Trit.NO  # distinct verified normal forms
        probe = W.concat(a.payload, W.invert_word(b.payload))
        if not lattice_member(self._relator_lattice, abelianized(probe, self.num_gens)):
            return Trit.NO
        if relator_insertion_search(probe, self.relators, node_budget=EQUALITY_NODES):
            return Trit.YES
        return Trit.UNKNOWN

    def _subgroup_lattice(self, gen_words: Sequence[W.Word]) -> list:
        """The abelianized relators and subgroup generators: ``H``'s image in
        the abelianization, lifted to ``Z^num_gens``."""
        return list(self._relator_lattice) + [abelianized(g, self.num_gens) for g in gen_words]

    def abelian_refutes_membership(self, gen_words: Sequence[W.Word], word: W.Word) -> bool:
        """True when the abelianization already rules out membership."""
        return not lattice_member(self._subgroup_lattice(gen_words),
                                  abelianized(word, self.num_gens))

    def abelian_index_is_infinite(self, gen_words: Sequence[W.Word]) -> bool:
        """True when ``H``'s image in the abelianization has infinite index,
        so that ``[G : H] >= [G^ab : image of H]`` is infinite too: the
        lattice has rank below ``num_gens``."""
        return len(lattice_pivots(self._subgroup_lattice(gen_words), self.num_gens)) < self.num_gens

    def sort_key(self, e):
        return W.word_key(e.payload)

    def format_element(self, e):
        return W.format_word(e.payload, lambda g: self.names[g])


def infinite_dihedral() -> FpGroupDescriptor:
    """Presentation <a, r | r^2, (ra)^2> with a verified normal-form system.

    Normal forms are ``a^k`` and ``a^k r``; the reflection conjugates ``a``
    to its inverse, so the cyclic subgroup generated by ``a`` is normal of
    index two.
    """
    a, ai, r, ri = W.letter(0), W.letter(0, -1), W.letter(1), W.letter(1, -1)
    relators = [(r, r), (r, a, r, a)]
    rules = [
        ((ri,), (r,)),
        ((r, r), ()),
        ((r, a), (ai, r)),
        ((r, ai), (a, r)),
    ]
    return FpGroupDescriptor(2, relators, names=("a", "r"), rewriting_rules=rules)


# -- shift extensions ----------------------------------------------------------


class ShiftExtensionDescriptor(GroupDescriptor):
    """Free base with integer-indexed generators, extended by a stable letter.

    The stable letter ``t`` acts on the base by shifting generator indices up
    by one, so multiplication is ``(w, n)(v, m) = (w * shift(v, n), n + m)``.
    ``window`` bounds the generator indices exposed for enumeration; the
    arithmetic itself is exact for arbitrary indices.
    """

    family = "shift_extension"

    def __init__(self, window: int = 2):
        if window < 0:
            raise GroupValidationError("window must be nonnegative")
        self.window = window
        self.base = FreeGroupDescriptor(None, None)

    def identity(self):
        return GroupElement(self, (W.EMPTY, 0))

    def normalize_payload(self, payload):
        word, shift = payload
        if not isinstance(shift, int):
            raise DescriptorMismatchError("shift exponent must be an integer")
        return (W.reduce_word(word), shift)

    def abelian_refutes_membership(self, gen_payloads, payload) -> bool:
        """The image ``(letter exponent sum, shift)`` in ``Z^2`` of ``payload``
        is outside the lattice of the generators' images."""

        def image(p) -> tuple[int, int]:
            word, shift = p
            return (sum(W.exp_of(x) for x in word), shift)

        return not lattice_member([image(p) for p in gen_payloads], image(payload))

    def base_generator(self, index: int, exp: int = 1) -> GroupElement:
        return self.element((W.generator(index, exp), 0))

    def stable_letter(self, exp: int = 1) -> GroupElement:
        return self.element((W.EMPTY, exp))

    def multiply(self, a, b):
        self.check_same(a, b)
        wa, na = a.payload
        wb, nb = b.payload
        return GroupElement(self, (W.concat(wa, W.shift_word(wb, na)), na + nb))

    def invert(self, a):
        self.check_same(a)
        wa, na = a.payload
        return GroupElement(self, (W.shift_word(W.invert_word(wa), -na), -na))

    def generators(self):
        gens = [self.base_generator(i) for i in range(-self.window, self.window + 1)]
        gens.append(self.stable_letter())
        return gens

    def sort_key(self, e):
        word, shift = e.payload
        return (len(word) + abs(shift), W.word_key(word), shift)

    def format_element(self, e):
        word, shift = e.payload
        if shift == 0:
            return W.format_word(word, lambda g: f"g{g}")
        t = "t" if shift == 1 else f"t^{shift}"
        if not word:
            return t
        return f"{W.format_word(word, lambda g: f'g{g}')} {t}"


# -- direct products -----------------------------------------------------------


class DirectProductDescriptor(GroupDescriptor):
    family = "direct_product"

    def __init__(self, left: GroupDescriptor, right: GroupDescriptor):
        self.left = left
        self.right = right

    def identity(self):
        return GroupElement(self, (self.left.identity(), self.right.identity()))

    def normalize_payload(self, payload):
        a, b = payload
        if a.group is not self.left or b.group is not self.right:
            raise DescriptorMismatchError("component elements from the wrong factors")
        return (a, b)

    def pair(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.element((a, b))

    def multiply(self, x, y):
        self.check_same(x, y)
        return GroupElement(
            self,
            (
                self.left.multiply(x.payload[0], y.payload[0]),
                self.right.multiply(x.payload[1], y.payload[1]),
            ),
        )

    def invert(self, x):
        self.check_same(x)
        return GroupElement(self, (self.left.invert(x.payload[0]), self.right.invert(x.payload[1])))

    def generators(self):
        el, er = self.left.identity(), self.right.identity()
        out = [GroupElement(self, (g, er)) for g in self.left.generators()]
        out += [GroupElement(self, (el, g)) for g in self.right.generators()]
        return out

    def equality_is_exact(self) -> bool:
        return self.left.equality_is_exact() and self.right.equality_is_exact()

    def elements_equal(self, x, y) -> Trit:
        self.check_same(x, y)
        return Trit.conjunction([
            self.left.elements_equal(x.payload[0], y.payload[0]),
            self.right.elements_equal(x.payload[1], y.payload[1]),
        ])

    def sort_key(self, e):
        return (self.left.sort_key(e.payload[0]), self.right.sort_key(e.payload[1]))

    def format_element(self, e):
        return f"({self.left.format_element(e.payload[0])}, {self.right.format_element(e.payload[1])})"


# -- module-level operations ----------------------------------------------------


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.group is not b.group:
        raise DescriptorMismatchError("cannot multiply across descriptors")
    return a.group.multiply(a, b)


def invert(a: GroupElement) -> GroupElement:
    return a.group.invert(a)


def identity(group: GroupDescriptor) -> GroupElement:
    return group.identity()


def elements_equal(a: GroupElement, b: GroupElement) -> Trit:
    if a.group is not b.group:
        raise DescriptorMismatchError("cannot compare across descriptors")
    return a.group.elements_equal(a, b)


def enumerate_ball(group: GroupDescriptor, radius: int, cap: int = BALL_CAP) -> list[GroupElement]:
    """All normal forms of products of at most ``radius`` generator letters.

    Deterministic: output is sorted by the family's canonical order.  For a
    plain finitely presented group the returned elements are distinct normal
    forms, which may still repeat group elements when the word problem is
    undecided.
    """
    if radius < 0:
        raise GroupValidationError("radius must be nonnegative")
    return _capped_ball(group, generator_moves(group, group.generators()), radius, cap, "ball")


def generator_moves(group: GroupDescriptor, generators: Sequence[GroupElement]
                    ) -> list[GroupElement]:
    """Generators and their inverses, deduplicated, in listed order."""
    return list(dict.fromkeys(m for g in generators for m in (g, group.invert(g))))


def _capped_ball(group: GroupDescriptor, moves: Sequence[GroupElement], radius: int,
                 cap: int, what: str) -> list[GroupElement]:
    """Breadth-first products of at most ``radius`` moves, at most ``cap`` of
    them, sorted by the family's canonical order."""
    seen = {group.identity()}
    frontier = [group.identity()]
    for _ in range(radius):
        nxt = []
        for e in frontier:
            for m in moves:
                prod = group.multiply(e, m)
                if prod not in seen:
                    if len(seen) >= cap:
                        raise ResourceLimitError(f"{what} exceeds the cap of {cap} elements")
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return sorted(seen, key=group.sort_key)
