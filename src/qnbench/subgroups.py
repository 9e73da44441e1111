"""Subgroup descriptions, one class per family with its decision backend.

``SubgroupSpec`` is a finite generator list whose membership is
semi-decided by a bounded product search: positive answers are exact,
negative answers are only available through refuters, everything else is
Unknown.  Each subclass answers membership exactly:

* ``FreeSubgroup`` -- a folded subgroup graph of a free group;
* ``TableSubgroup`` -- the closed element subset of a finite table group;
* ``CosetTableSubgroup`` -- a completed coset table of a finitely presented
  group, when the subgroup has finite index within the enumeration cap (no
  enumeration runs when the abelianization already shows infinite index);
* ``ShiftTailSubgroup`` -- the tail subgroup of a shift extension generated
  by all base generators with index at least ``n``, with a closed-form rule;
* ``ProductSubgroup`` -- a pair of component specs in a direct product.

Every class answers ``member``, ``coset_key``, ``double_coset_key``,
``normalizes`` and ``conjugacy_class``; ``is_subgroup_member`` and
``coset_key`` are the module call path of the first two, and ``conditions``
calls the other three on the spec.

``double_coset_key`` has a closed form for table, shift-tail and free
subgroups, and for products of those, so elements of one ``H g H`` share one
decision.  A free subgroup of infinite index keys no member of ``H`` and no
element whose readings from both ends overlap (see ``FreeSubgroup``); a
product keys the pairs whose components both have a key; the other families
key no element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional, Sequence

from . import words as W
from .errors import DescriptorMismatchError, GroupValidationError
from .coset_table import CosetTable, enumerate_cosets
from .groups import (
    BALL_CAP,
    DirectProductDescriptor,
    FiniteTableGroup,
    FpGroupDescriptor,
    FreeGroupDescriptor,
    GroupDescriptor,
    GroupElement,
    ShiftExtensionDescriptor,
    Trit,
    _capped_ball,
    generator_moves,
)
from .stallings import (
    SubgroupGraph,
    build_subgroup_graph,
    conjugate_graph,
    graph_index,
    graphs_equal,
)

# caps for the semi-decidable searches
WORD_SEARCH_LENGTH = 8  # generator letters per product in the membership search
WORD_SEARCH_NODES = 2000  # distinct products the membership search may store
COSET_ENUMERATION_MAX = 4096  # cosets a fp subgroup's coset table may reach

INFINITE = "infinite"  # ``conjugacy_class`` marker: the class is infinite


@dataclass(frozen=True, kw_only=True)
class SubgroupSpec:
    """A subgroup given by generators; the search family and the fallbacks."""

    group: GroupDescriptor
    generators: tuple
    label: str = ""

    # whether the listed generators generate the subgroup, so that closure
    # under them is closure under the subgroup
    generators_generate: ClassVar[bool] = True

    def __post_init__(self):
        for g in self.generators:
            if g.group is not self.group:
                raise DescriptorMismatchError("subgroup generator from a different group")

    def generator_moves(self) -> list[GroupElement]:
        """Generators and their inverses, deduplicated, in listed order."""
        return generator_moves(self.group, self.generators)

    def describe(self) -> str:
        if self.label:
            return self.label
        return "<" + ", ".join(self.group.format_element(g) for g in self.generators) + ">"

    def member(self, g: GroupElement) -> Trit:
        """Bounded product search behind the abelianized refuters."""
        group = self.group

        # exact refutations first
        if group.abelian_refutes_membership([h.payload for h in self.generators], g.payload):
            return Trit.NO

        moves = self.generator_moves()
        if not moves:
            return group.elements_equal(g, group.identity())

        exact_eq = group.equality_is_exact()

        def is_g(e: GroupElement) -> bool:
            return e == g if exact_eq else group.elements_equal(e, g) is Trit.YES

        # the start node is a subgroup element too
        if is_g(group.identity()):
            return Trit.YES
        seen = {group.identity()}
        frontier = [group.identity()]
        for _ in range(WORD_SEARCH_LENGTH):
            nxt = []
            for e in frontier:
                for m in moves:
                    prod = group.multiply(e, m)
                    if prod in seen or len(seen) >= WORD_SEARCH_NODES:
                        continue
                    seen.add(prod)
                    nxt.append(prod)
                    if is_g(prod):
                        return Trit.YES
            frontier = nxt
        # positive search exhausted; no refutation available
        return Trit.UNKNOWN

    def coset_key(self, g: GroupElement):
        """Canonical key of ``g H``; None where no closed form exists."""
        return None

    def double_coset_key(self, g: GroupElement):
        """Canonical key of ``H g H``; None where no closed form exists."""
        return None

    def normalizes(self, g: GroupElement) -> Trit:
        """Whether ``g H g^-1 = H``; exact wherever a backend permits."""
        # generator-driven check: g H g^-1 <= H and g^-1 H g <= H force equality
        group = self.group
        both = (g, group.invert(g))
        return Trit.conjunction([is_subgroup_member(self, group.conjugate(x, h))
                                 for h in self.generators for x in both])

    def conjugacy_class(self, g: GroupElement):
        """The ``H``-conjugacy class of ``g``: a frozenset when it is finite,
        ``INFINITE`` when it is not, None where no closed form exists."""
        return None


@dataclass(frozen=True, kw_only=True)
class FreeSubgroup(SubgroupSpec):
    """A finitely generated subgroup of a free group, as its folded graph.

    ``double_coset_key`` is exact and has two closed forms.  A vertex ``x``
    of the graph is the right coset ``H y`` of any word ``y`` read from the
    basepoint to ``x``; ``g H`` is the vertex reached by reading ``g^-1``
    whenever that word reads.

    * Finite index (the graph carries every generator of the ambient free
      group at every vertex): every word reads, and ``H g H`` corresponds
      to the orbit of the vertex ``H g^-1`` under ``H`` reading words from
      it: ``h g H`` is the vertex ``H g^-1 h^-1``.  Reading is a
      permutation of the vertices for each listed generator, so the orbit
      is what reading the listed generators from each reached vertex
      reaches; the key is its least vertex.
    * Infinite index: let ``p`` be the longest prefix of the reduced ``g``
      readable from the basepoint, ending at ``u``, and ``s`` that of
      ``g^-1``, ending at ``v``.  When they do not overlap, ``g = p w s^-1``
      with a non-empty middle ``w``, and the key is ``(u, w, v)``.  Every
      ``h g h'`` is ``(h p) w (h'^-1 s)^-1``, where ``h p`` reduces to the
      label ``P`` of a reduced path from the basepoint to ``u`` and
      ``h'^-1 s`` to such a label ``Q`` ending at ``v``; conversely every
      such ``P w Q^-1`` is ``(P p^-1) g (s Q^-1)`` with both brackets loops
      at the basepoint.  Nothing cancels in ``P w Q^-1``: the first letter
      of ``w`` does not read from ``u``, so it is not the inverse of ``P``'s
      last letter, which reads back from ``u``, and likewise at ``v``.  So
      ``P`` and ``Q`` are again the longest readable prefixes, and every
      element of ``H g H`` has the key ``(u, w, v)``; two elements with
      this key differ by the loops ``P' p^-1`` and ``s Q'^-1``.

    At infinite index the key is None for members of ``H`` and wherever the
    two readings meet or overlap; those elements run their own decision.
    A free group of unbounded rank (``gens`` None) always takes the second
    form.
    """

    graph: SubgroupGraph

    def member(self, g: GroupElement) -> Trit:
        # payloads are freely reduced, so the trace needs no second reduce
        return Trit.from_bool(self.graph.trace(g.payload) == self.graph.basepoint)

    def coset_key(self, g: GroupElement):
        # reading the inverse word from the basepoint is constant on cosets
        return self.graph.trace_partial(W.invert_word(g.payload))

    def double_coset_key(self, g: GroupElement):
        least = self._least_in_orbit
        if least is not None:
            return least[self.graph.trace(W.invert_word(g.payload))]
        word = g.payload
        u, rest = self.graph.trace_partial(word)
        v, rest_inv = self.graph.trace_partial(W.invert_word(word))
        start, end = len(word) - len(rest), len(rest_inv)
        if start >= end:
            return None
        return (u, word[start:end], v)

    @cached_property
    def _least_in_orbit(self) -> Optional[list]:
        """Vertex -> least vertex of its ``H``-orbit when ``H`` has finite
        index, else None; built once per subgroup."""
        graph, gens = self.graph, self.group.gens
        if gens is None or graph_index(graph, gens)[0] != "finite":
            return None
        least: list = [None] * graph.num_vertices
        for x in range(graph.num_vertices):
            if least[x] is not None:
                continue
            # no smaller vertex is in x's orbit: each lies in an orbit found earlier
            least[x] = x
            orbit = [x]
            for y in orbit:  # also visits vertices appended below
                for s in self.generators:
                    z = graph.trace(s.payload, start=y)
                    if least[z] is None:
                        least[z] = x
                        orbit.append(z)
        return least

    def normalizes(self, g: GroupElement) -> Trit:
        return Trit.from_bool(graphs_equal(conjugate_graph(self.graph, g.payload), self.graph))

    def conjugacy_class(self, g: GroupElement):
        """``{g}`` when every listed generator commutes with ``g``, else infinite.

        For ``g != 1`` the centralizer ``C_F(g)`` is cyclic, so ``C_H(g)`` is
        cyclic.  If it has finite index in the free group ``H`` (a finite
        class), ``H`` is cyclic by the Schreier index formula, and its
        generator commutes with ``g`` because ``C_F`` of a nontrivial power is
        the same maximal cyclic subgroup.  The rule also holds for ``g`` in
        ``H``, which products need.
        """
        group = self.group
        if all(group.multiply(s, g) == group.multiply(g, s) for s in self.generators):
            return frozenset({g})
        return INFINITE


@dataclass(frozen=True, kw_only=True)
class TableSubgroup(SubgroupSpec):
    subset: frozenset

    def member(self, g: GroupElement) -> Trit:
        return Trit.from_bool(g.payload in self.subset)

    def coset_key(self, g: GroupElement):
        table = self.group.table
        return min(table[g.payload][h] for h in self.subset)

    def double_coset_key(self, g: GroupElement):
        table = self.group.table
        return min(table[table[h1][g.payload]][h2] for h1 in self.subset for h2 in self.subset)

    def normalizes(self, g: GroupElement) -> Trit:
        table, inverse = self.group.table, self.group.inverse
        conjugated = {table[table[g.payload][h]][inverse[g.payload]] for h in self.subset}
        return Trit.from_bool(conjugated == set(self.subset))

    def conjugacy_class(self, g: GroupElement):
        """``{h g h^-1 : h in H}``, read from the table."""
        table, inverse = self.group.table, self.group.inverse
        return frozenset(GroupElement(self.group, table[table[h][g.payload]][inverse[h]])
                         for h in self.subset)


@dataclass(frozen=True, kw_only=True)
class CosetTableSubgroup(SubgroupSpec):
    table: CosetTable

    def member(self, g: GroupElement) -> Trit:
        return Trit.from_bool(self.table.is_member(g.payload))

    def coset_key(self, g: GroupElement):
        # the table holds right cosets, and g H = g' H exactly when
        # H g^-1 = H g'^-1
        return self.table.coset_of(W.invert_word(g.payload))


@dataclass(frozen=True, kw_only=True)
class ShiftTailSubgroup(SubgroupSpec):
    n: int

    generators_generate = False  # only the window generators are listed

    def member(self, g: GroupElement) -> Trit:
        word, shift = g.payload
        tail = W.letter(self.n)  # the least letter of a generator of index >= n
        return Trit.from_bool(shift == 0 and all(x >= tail for x in word))

    def coset_key(self, g: GroupElement):
        word, shift = g.payload
        # right multiplication by the tail subgroup can only absorb trailing
        # letters with index >= n + shift
        tail = W.letter(self.n + shift)
        cut = len(word)
        while cut > 0 and word[cut - 1] >= tail:
            cut -= 1
        return (word[:cut], shift)

    def double_coset_key(self, g: GroupElement):
        word, shift = g.payload
        # left multiplication absorbs a leading prefix of tail letters, right
        # multiplication a trailing suffix of letters shifted by the exponent
        start, left_tail = 0, W.letter(self.n)
        while start < len(word) and word[start] >= left_tail:
            start += 1
        end, right_tail = len(word), W.letter(self.n + shift)
        while end > start and word[end - 1] >= right_tail:
            end -= 1
        return (word[start:end], shift)

    def normalizes(self, g: GroupElement) -> Trit:
        # conjugation moves the tail threshold: by the shift automorphism when
        # the stable exponent is nonzero (abelianized images then differ), and
        # within the free base a free factor is its own normalizer, so the
        # normalizer of the tail subgroup is the subgroup itself
        return is_subgroup_member(self, g)

    def conjugacy_class(self, g: GroupElement):
        """``{1}`` for the identity, infinite for every other element.

        ``K_n`` is free on ``g_i``, ``i >= n``, of infinite rank.  A member
        ``w != 1`` has a cyclic centralizer in ``K_n``, of infinite index.  For
        a non-member ``w t^s``, a finite-index subgroup of ``K_n`` centralizing
        it would contain some ``g_i^k`` for every ``i``: with ``s = 0``, ``w``
        would commute with two different ``g_i^k``, forcing ``w = 1``; with
        ``s != 0``, ``w g_{i+s}^k w^-1 = g_i^k`` fails in the abelianization.
        """
        if g == self.group.identity():
            return frozenset({g})
        return INFINITE


@dataclass(frozen=True, kw_only=True)
class ProductSubgroup(SubgroupSpec):
    left: SubgroupSpec
    right: SubgroupSpec

    def member(self, g: GroupElement) -> Trit:
        return Trit.conjunction([is_subgroup_member(self.left, g.payload[0]),
                                 is_subgroup_member(self.right, g.payload[1])])

    def coset_key(self, g: GroupElement):
        kl = coset_key(self.left, g.payload[0])
        kr = coset_key(self.right, g.payload[1])
        if kl is None or kr is None:
            return None
        return (kl, kr)

    def double_coset_key(self, g: GroupElement):
        # H1 x H2 (g1, g2) H1 x H2 is the product of the component double cosets
        keys = (self.left.double_coset_key(g.payload[0]), self.right.double_coset_key(g.payload[1]))
        return None if None in keys else keys

    def normalizes(self, g: GroupElement) -> Trit:
        return Trit.conjunction([self.left.normalizes(g.payload[0]),
                                 self.right.normalizes(g.payload[1])])

    @property
    def generators_generate(self) -> bool:
        return self.left.generators_generate and self.right.generators_generate

    def conjugacy_class(self, g: GroupElement):
        """The product of the component classes: conjugation acts componentwise."""
        left = self.left.conjugacy_class(g.payload[0])
        right = self.right.conjugacy_class(g.payload[1])
        if left is None or right is None:
            return None
        if left is INFINITE or right is INFINITE:
            return INFINITE
        return frozenset(self.group.pair(x, y) for x in left for y in right)


def subgroup(group: GroupDescriptor, generators: Sequence[GroupElement],
             label: str = "") -> SubgroupSpec:
    """Build a spec of the family class with the best available backend."""
    gens = tuple(group.element(g.payload) for g in generators)
    if isinstance(group, FreeGroupDescriptor):
        graph = build_subgroup_graph([g.payload for g in gens])
        return FreeSubgroup(group=group, generators=gens, label=label, graph=graph)
    if isinstance(group, FiniteTableGroup):
        return TableSubgroup(group=group, generators=gens, label=label,
                             subset=_table_closure(group, gens))
    if isinstance(group, FpGroupDescriptor):
        words = [g.payload for g in gens]
        # infinite index in the abelianization: no coset table can complete
        if not group.abelian_index_is_infinite(words):
            table = enumerate_cosets(group.num_gens, group.relators, words,
                                     max_cosets=COSET_ENUMERATION_MAX)
            if table.complete:
                return CosetTableSubgroup(group=group, generators=gens, label=label, table=table)
    return SubgroupSpec(group=group, generators=gens, label=label)


def shift_tail_subgroup(group: ShiftExtensionDescriptor, n: int,
                        label: str = "") -> ShiftTailSubgroup:
    """The subgroup generated by every base generator of index at least ``n``.

    Only the generators inside the descriptor's window are listed (the
    subgroup is not finitely generated), but membership is exact: an element
    belongs exactly when its stable-letter exponent is zero and all its word
    indices are at least ``n``.
    """
    if n > group.window:
        raise GroupValidationError(
            f"tail threshold {n} lies outside the generator window [{-group.window}, {group.window}]"
        )
    gens = tuple(group.base_generator(i) for i in range(n, group.window + 1))
    return ShiftTailSubgroup(group=group, generators=gens, label=label or f"K{n}", n=n)


def product_subgroup(group: DirectProductDescriptor, left: SubgroupSpec, right: SubgroupSpec,
                     label: str = "") -> ProductSubgroup:
    if left.group is not group.left or right.group is not group.right:
        raise DescriptorMismatchError("component subgroups do not match the product factors")
    el, er = group.left.identity(), group.right.identity()
    gens = [group.pair(g, er) for g in left.generators]
    gens += [group.pair(el, g) for g in right.generators]
    return ProductSubgroup(
        group=group,
        generators=tuple(gens),
        label=label or f"{left.describe()} x {right.describe()}",
        left=left,
        right=right,
    )


def _table_closure(group: FiniteTableGroup, gens: Sequence[GroupElement]) -> frozenset:
    seen = {group.identity_index}
    frontier = [group.identity_index]
    items = [g.payload for g in gens] + [group.inverse[g.payload] for g in gens]
    while frontier:
        current = frontier.pop(0)
        for x in items:
            nxt = group.table[current][x]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


# -- the call path ---------------------------------------------------------------


def is_subgroup_member(spec: SubgroupSpec, g: GroupElement) -> Trit:
    """Three-valued membership; Yes/No answers are exact."""
    spec.group.check_same(g)
    return spec.member(g)


def coset_equal(spec: SubgroupSpec, g: GroupElement, g2: GroupElement) -> Trit:
    """Whether ``g H = g2 H``, via membership of ``g^-1 g2``."""
    group = spec.group
    return is_subgroup_member(spec, group.multiply(group.invert(g), g2))


def coset_key(spec: SubgroupSpec, g: GroupElement):
    """Canonical hashable key of the left coset ``g H``, or None.

    Keys are exact: two elements produce the same key exactly when they lie
    in the same left coset.
    """
    return spec.coset_key(g)


def subgroup_ball(spec: SubgroupSpec, radius: int) -> list[GroupElement]:
    """Products of at most ``radius`` subgroup generator letters, sorted."""
    return _capped_ball(spec.group, spec.generator_moves(), radius, BALL_CAP, "subgroup ball")
