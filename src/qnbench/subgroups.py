"""Subgroup descriptions with family-specific decision backends.

A ``SubgroupSpec`` is a finite generator list plus an optional accelerator
that answers membership exactly:

* free groups -- a folded subgroup graph;
* finite table groups -- the closed element subset;
* finitely presented groups -- a completed coset table when the subgroup has
  finite index within the enumeration cap, plus an abelianization refuter;
* shift extensions -- the tail subgroups generated by all base generators
  with index at least ``n`` admit a closed-form membership rule;
* direct products -- a pair of component specs for product subgroups.

Without an accelerator, membership is semi-decided by a bounded product
search: positive answers are exact, negative answers are only available
through refuters, everything else is Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import words as W
from .errors import DescriptorMismatchError, GroupValidationError
from .coset_table import enumerate_cosets
from .groups import (
    DirectProductDescriptor,
    FiniteTableGroup,
    FpGroupDescriptor,
    FreeGroupDescriptor,
    GroupDescriptor,
    GroupElement,
    SearchBudgets,
    ShiftExtensionDescriptor,
    Trit,
)
from .stallings import SubgroupGraph, build_subgroup_graph


@dataclass(frozen=True)
class SubgroupSpec:
    group: GroupDescriptor
    generators: tuple
    accelerator: object = None
    label: str = ""
    budgets: SearchBudgets = field(default_factory=SearchBudgets)

    def __post_init__(self):
        for g in self.generators:
            if g.group is not self.group:
                raise DescriptorMismatchError("subgroup generator from a different group")

    def generator_moves(self) -> list[GroupElement]:
        """Generators and their inverses, deduplicated, in listed order."""
        moves = []
        for g in self.generators:
            if g not in moves:
                moves.append(g)
            gi = self.group.invert(g)
            if gi not in moves:
                moves.append(gi)
        return moves

    def describe(self) -> str:
        if self.label:
            return self.label
        return "<" + ", ".join(self.group.format_element(g) for g in self.generators) + ">"


def subgroup(
    group: GroupDescriptor,
    generators: Sequence[GroupElement],
    label: str = "",
    budgets: Optional[SearchBudgets] = None,
) -> SubgroupSpec:
    """Build a spec with the best available accelerator for the family."""
    budgets = budgets or SearchBudgets()
    gens = tuple(group.element(g.payload) for g in generators)
    accel = None
    if isinstance(group, FreeGroupDescriptor):
        accel = ("graph", build_subgroup_graph([g.payload for g in gens]))
    elif isinstance(group, FiniteTableGroup):
        accel = ("subset", _table_closure(group, gens))
    elif isinstance(group, FpGroupDescriptor):
        table = enumerate_cosets(
            group.num_gens,
            group.relators,
            [g.payload for g in gens],
            max_cosets=budgets.coset_enumeration_max,
        )
        if table.complete:
            accel = ("cosets", table)
    return SubgroupSpec(group=group, generators=gens, accelerator=accel, label=label, budgets=budgets)


def shift_tail_subgroup(group: ShiftExtensionDescriptor, n: int, label: str = "",
                        budgets: Optional[SearchBudgets] = None) -> SubgroupSpec:
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
    return SubgroupSpec(
        group=group,
        generators=gens,
        accelerator=("shift_tail", n),
        label=label or f"K{n}",
        budgets=budgets or SearchBudgets(),
    )


def product_subgroup(group: DirectProductDescriptor, left: SubgroupSpec, right: SubgroupSpec,
                     label: str = "") -> SubgroupSpec:
    if left.group is not group.left or right.group is not group.right:
        raise DescriptorMismatchError("component subgroups do not match the product factors")
    el, er = group.left.identity(), group.right.identity()
    gens = [group.pair(g, er) for g in left.generators]
    gens += [group.pair(el, g) for g in right.generators]
    return SubgroupSpec(
        group=group,
        generators=tuple(gens),
        accelerator=("product", (left, right)),
        label=label or f"{left.describe()} x {right.describe()}",
        budgets=left.budgets,
    )


def trivial_subgroup(group: GroupDescriptor, label: str = "1") -> SubgroupSpec:
    if isinstance(group, FreeGroupDescriptor):
        return subgroup(group, [], label=label)
    accel = None
    if isinstance(group, FiniteTableGroup):
        accel = ("subset", frozenset({group.identity_index}))
    return SubgroupSpec(group=group, generators=(), accelerator=accel, label=label)


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


# -- membership ---------------------------------------------------------------


def is_subgroup_member(spec: SubgroupSpec, g: GroupElement) -> Trit:
    """Three-valued membership; Yes/No answers are exact."""
    group = spec.group
    group.check_same(g)
    kind = spec.accelerator[0] if spec.accelerator else None

    if kind == "shift_tail":
        n = spec.accelerator[1]
        word, shift = g.payload
        ok = shift == 0 and all(idx >= n for idx, _ in word)
        return Trit.from_bool(ok)
    if kind == "graph":
        return Trit.from_bool(spec.accelerator[1].contains(g.payload))
    if kind == "subset":
        return Trit.from_bool(g.payload in spec.accelerator[1])
    if kind == "cosets":
        return Trit.from_bool(spec.accelerator[1].is_member(g.payload))
    if kind == "product":
        left, right = spec.accelerator[1]
        a = is_subgroup_member(left, g.payload[0])
        b = is_subgroup_member(right, g.payload[1])
        if a is Trit.NO or b is Trit.NO:
            return Trit.NO
        if a is Trit.YES and b is Trit.YES:
            return Trit.YES
        return Trit.UNKNOWN

    return _membership_search(spec, g)


def _membership_search(spec: SubgroupSpec, g: GroupElement) -> Trit:
    group = spec.group

    # exact refutations first
    if isinstance(group, FpGroupDescriptor):
        if group.abelian_refutes_membership([h.payload for h in spec.generators], g.payload):
            return Trit.NO
    if isinstance(group, ShiftExtensionDescriptor):
        if not _shift_abelian_member(spec, g):
            return Trit.NO

    moves = spec.generator_moves()
    if not moves:
        return group.elements_equal(g, group.identity())

    exact_eq = group.equality_is_exact()

    def is_g(e: GroupElement) -> bool:
        return e == g if exact_eq else group.elements_equal(e, g) is Trit.YES

    # the start node is a subgroup element too
    if is_g(group.identity()):
        return Trit.YES
    node_cap = spec.budgets.word_search_nodes
    seen = {group.identity()}
    frontier = [group.identity()]
    for _ in range(spec.budgets.word_search_length):
        nxt = []
        for e in frontier:
            for m in moves:
                prod = group.multiply(e, m)
                if prod in seen or len(seen) >= node_cap:
                    continue
                seen.add(prod)
                nxt.append(prod)
                if is_g(prod):
                    return Trit.YES
        frontier = nxt
    # positive search exhausted; no refutation available
    return Trit.UNKNOWN


def _shift_abelian_member(spec: SubgroupSpec, g: GroupElement) -> bool:
    """Abelianized test for shift extensions: (letter exponent sum, shift)."""

    def image(e: GroupElement) -> tuple[int, int]:
        word, shift = e.payload
        return (sum(exp for _, exp in word), shift)

    from .rewriting import lattice_member

    return lattice_member([image(h) for h in spec.generators], image(g))


def coset_equal(spec: SubgroupSpec, g: GroupElement, g2: GroupElement) -> Trit:
    """Whether ``g H = g2 H``, via membership of ``g^-1 g2``."""
    group = spec.group
    return is_subgroup_member(spec, group.multiply(group.invert(g), g2))


def coset_key(spec: SubgroupSpec, g: GroupElement):
    """Canonical hashable key of the left coset ``g H``, or None.

    Keys are exact: two elements produce the same key exactly when they lie
    in the same left coset.
    """
    group = spec.group
    kind = spec.accelerator[0] if spec.accelerator else None
    if kind == "shift_tail":
        n = spec.accelerator[1]
        word, shift = g.payload
        # right multiplication by the tail subgroup can only absorb trailing
        # letters with index >= n + shift
        cut = len(word)
        while cut > 0 and word[cut - 1][0] >= n + shift:
            cut -= 1
        return (word[:cut], shift)
    if kind == "subset":
        subset = spec.accelerator[1]
        table = group.table
        return min(table[g.payload][h] for h in subset)
    if kind == "cosets":
        return spec.accelerator[1].coset_of(g.payload)
    if kind == "graph":
        graph: SubgroupGraph = spec.accelerator[1]
        # reading the inverse word from the basepoint is constant on cosets
        return graph.trace_partial(W.invert_word(g.payload))
    if kind == "product":
        left, right = spec.accelerator[1]
        kl = coset_key(left, g.payload[0])
        kr = coset_key(right, g.payload[1])
        if kl is None or kr is None:
            return None
        return (kl, kr)
    return None


def double_coset_key(spec: SubgroupSpec, g: GroupElement):
    """Canonical key of ``H g H`` where a closed form exists, else None.

    Elements in one double coset have the same coset orbit, so verdicts and
    orbit sizes may be shared across them.
    """
    group = spec.group
    kind = spec.accelerator[0] if spec.accelerator else None
    if kind == "shift_tail":
        n = spec.accelerator[1]
        word, shift = g.payload
        # left multiplication absorbs a leading prefix of tail letters, right
        # multiplication a trailing suffix of letters shifted by the exponent
        start = 0
        while start < len(word) and word[start][0] >= n:
            start += 1
        end = len(word)
        while end > start and word[end - 1][0] >= n + shift:
            end -= 1
        return (word[start:end], shift)
    if kind == "subset":
        subset = spec.accelerator[1]
        table = group.table
        return min(table[table[h1][g.payload]][h2] for h1 in subset for h2 in subset)
    return None


def subgroup_ball(spec: SubgroupSpec, radius: int, cap: Optional[int] = None) -> list[GroupElement]:
    """Products of at most ``radius`` subgroup generator letters, sorted."""
    group = spec.group
    cap = cap if cap is not None else spec.budgets.ball_cap
    moves = spec.generator_moves()
    seen = {group.identity()}
    frontier = [group.identity()]
    for _ in range(radius):
        nxt = []
        for e in frontier:
            for m in moves:
                prod = group.multiply(e, m)
                if prod not in seen:
                    if len(seen) >= cap:
                        from .errors import ResourceLimitError

                        raise ResourceLimitError(f"subgroup ball exceeds cap {cap}")
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return sorted(seen, key=group.sort_key)
