"""Coset-orbit enumeration and certified one-sided quasi-normalizer verdicts.

The coset orbit of ``g`` under a subgroup ``H`` is ``{h g H : h in H}``; it
is finite exactly when ``H g`` is covered by finitely many left cosets, i.e.
when ``g`` is a one-sided quasi-normalizer of ``H``.  A breadth-first search
over the orbit either closes (yielding a replayable certificate) or exhausts
its budget.

Three subgroup families have an exact decision, looked up by the class of
the subgroup spec, and each is cross-checked against the orbit search:

* free groups -- the intersection index of the folded subgroup graphs;
* tail subgroups ``K_n`` of the shift extension -- a closed-form rule on the
  stable exponent and the letter indices;
* product subgroups -- the componentwise decisions, whose certificates
  compose.

Negative verdicts are only issued by exact backends.  Budget exhaustion in
families without such a backend is reported as Unknown, never as a
refutation, and raising the budget can only turn Unknown into a certified
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .certificates import CosetIndex, QnCertificate, product_compose, replay_certificate
from .errors import GroupValidationError
from .groups import FiniteTableGroup, GroupElement
from .stallings import free_qn1_decide
from .subgroups import FreeSubgroup, ProductSubgroup, ShiftTailSubgroup, SubgroupSpec
from .words import letter

CERTIFIED_IN = "certified_in"
CERTIFIED_OUT = "certified_out"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class CosetOrbit:
    subgroup: SubgroupSpec
    element: GroupElement
    representatives: tuple
    closed: bool
    explored: int
    # closed orbits only: one row per listed subgroup generator, as in QnCertificate
    transitions: Optional[tuple] = None

    @property
    def size(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True)
class MembershipVerdict:
    status: str
    certificate: Optional[QnCertificate] = None
    reason: Optional[str] = None
    budget: Optional[int] = None
    orbit_explored: Optional[int] = None

    @property
    def certified_in(self) -> bool:
        return self.status == CERTIFIED_IN

    @property
    def certified_out(self) -> bool:
        return self.status == CERTIFIED_OUT

    @property
    def unknown(self) -> bool:
        return self.status == UNKNOWN

    @property
    def evidence_tier(self) -> str:
        return "exact" if self.status in (CERTIFIED_IN, CERTIFIED_OUT) else "ball-limited"


def orbit_bfs(spec: SubgroupSpec, g: GroupElement, budget: int) -> CosetOrbit:
    """Enumerate the coset orbit, storing at most ``budget`` distinct cosets.

    Deterministic: representatives appear in discovery order, with generator
    moves tried in the listed order followed by their inverses.  Raises
    IndeterminateResultError when a coset comparison comes back Unknown.

    Each move ``m`` keeps a row: the coset index of ``m c_i`` for every
    representative ``c_i``.  A closed orbit has applied every move to every
    representative, so the rows of the listed generators are the transition
    table of its certificate, the rows ``certificate_from_cover`` would
    compute again.  ``generator_moves`` drops repeats (an involution, a
    generator listed twice, one listed with its inverse), so the row of the
    ``k``-th listed generator is the row of its position in the moves, not
    row ``k``.
    """
    if budget < 1:
        raise GroupValidationError("budget must be at least 1")
    group = spec.group
    group.check_same(g)
    index = CosetIndex(spec)
    index.add(group.element(g.payload))
    moves = spec.generator_moves()
    rows = [[] for _ in moves]
    queue = [0]
    closed = True
    explored = 1
    while queue:
        at = queue.pop(0)
        rep = index.reps[at]
        stop = False
        for m, row in zip(moves, rows):
            candidate = group.multiply(m, rep)
            j = index.find(candidate)
            if j is None:
                if len(index.reps) >= budget:
                    closed = False
                    explored = len(index.reps) + 1
                    stop = True
                    break
                j = index.add(candidate)
                queue.append(j)
            row.append(j)
        if stop:
            break
    transitions = None
    if closed:
        explored = len(index.reps)
        transitions = tuple(tuple(rows[moves.index(s)]) for s in spec.generators)
    return CosetOrbit(
        subgroup=spec,
        element=g,
        representatives=tuple(index.reps),
        closed=closed,
        explored=explored,
        transitions=transitions,
    )


def _certified_in(spec: SubgroupSpec, g: GroupElement, orbit: CosetOrbit,
                  budget: int) -> MembershipVerdict:
    # the orbit starts at g's own coset, and replay is the validity check
    cert = QnCertificate(subgroup=spec, element=g, cover=orbit.representatives,
                         element_index=0, transitions=orbit.transitions)
    replay_certificate(cert)
    return MembershipVerdict(status=CERTIFIED_IN, certificate=cert, budget=budget,
                             orbit_explored=orbit.explored)


def _decide_free(spec: FreeSubgroup, g: GroupElement, budget: int) -> MembershipVerdict:
    """Free groups: the exact index backend decides first; the orbit then only
    runs to its known closure, and the two are cross-checked."""
    kind, k = free_qn1_decide(spec.graph, g.payload)
    if kind == "out":
        return MembershipVerdict(
            status=CERTIFIED_OUT,
            reason="free-group intersection has infinite index",
            budget=budget,
        )
    full = orbit_bfs(spec, g, k)
    if not full.closed or full.size != k:
        raise GroupValidationError(
            f"orbit backend disagreement: orbit {full.size, full.closed} vs index {k}"
        )
    return _certified_in(spec, g, full, budget)


def _decide_shift_tail(spec: ShiftTailSubgroup, g: GroupElement, budget: int) -> MembershipVerdict:
    """Tail subgroups ``K_n`` of the shift extension.

    ``g = (w, s) = w t^s`` is a one-sided quasi-normalizer of ``K_n`` exactly
    when ``s <= 0`` and every letter of ``w`` has index at least ``n + s``;
    the cover size is then 1.  Proof sketch:

    * ``t^s K_n t^-s = K_{n+s}``, so ``g K_n = w K_{n+s} t^s`` and the orbit
      of ``g K_n`` under ``K_n`` is in bijection with the cosets
      ``h w K_{n+s}``, ``h`` in ``K_n``.
    * If ``s <= 0`` then ``K_n <= K_{n+s}``.  When ``w`` lies in ``K_{n+s}``
      every ``h w K_{n+s}`` equals ``K_{n+s}``: one coset.  Otherwise
      ``h w K_{n+s} = h' w K_{n+s}`` forces ``h'^-1 h`` into
      ``K_{n+s} and w K_{n+s} w^-1``, which is trivial because ``K_{n+s}``
      is a malnormal free factor of the base; the orbit is as large as
      ``K_n``, hence infinite.
    * If ``s > 0`` then ``K_{n+s}`` has infinite index in ``K_n``, and the
      stabilizer ``K_n and w K_{n+s} w^-1`` is either conjugate to
      ``K_{n+s}`` inside ``K_n`` (``w`` in ``K_n``) or trivial by
      malnormality of ``K_n``: again an infinite orbit.

    Cross-checks: a positive answer must close the orbit search at budget 1
    and its certificate is replayed; a negative answer must leave the search
    open at budget 2 (the listed generators already move the coset).
    """
    n = spec.n
    word, shift = g.payload
    tail = letter(n + shift)  # the least letter of a generator of index >= n + shift
    if shift <= 0 and all(x >= tail for x in word):
        orbit = orbit_bfs(spec, g, 1)
        if not orbit.closed:
            raise GroupValidationError("shift-tail rule says cover size 1 but the orbit grows")
        return _certified_in(spec, g, orbit, budget)
    probe = orbit_bfs(spec, g, 2)
    if probe.closed:
        raise GroupValidationError(
            f"shift-tail rule refutes but the orbit closed at size {probe.size}"
        )
    if shift > 0:
        reason = f"K{n + shift} has infinite index in K{n}"
    else:
        reason = f"word leaves K{n + shift}, a malnormal free factor: the orbit is free"
    return MembershipVerdict(status=CERTIFIED_OUT, reason=reason, budget=budget,
                             orbit_explored=probe.explored)


def _decide_product(spec: ProductSubgroup, g: GroupElement, budget: int) -> MembershipVerdict:
    """Product subgroups ``H1 x H2``: the orbit of ``(g1, g2)`` is the product
    of the component orbits, so the cover size is ``k1 k2`` and a refutation
    of either component refutes the pair."""
    g1, g2 = g.payload
    return product_verdict(qn1_membership(spec.left, g1, budget),
                           qn1_membership(spec.right, g2, budget), spec)


# spec class -> exact decider; other families fall back to the orbit search
_EXACT_DECIDERS = {
    FreeSubgroup: _decide_free,
    ShiftTailSubgroup: _decide_shift_tail,
    ProductSubgroup: _decide_product,
}


def qn1_membership(spec: SubgroupSpec, g: GroupElement, budget: int = 1000) -> MembershipVerdict:
    """Certified three-valued membership of ``g`` in the one-sided
    quasi-normalizer semigroup of the subgroup.

    Families with an exact decider are answered by it; otherwise a closed
    orbit yields a replay-validated certificate whose cover is the orbit
    representative list, and finite table groups always certify.
    """
    spec.group.check_same(g)
    decide = _EXACT_DECIDERS.get(type(spec))
    if decide is not None:
        return decide(spec, g, budget)
    orbit = orbit_bfs(spec, g, budget)
    if orbit.closed:
        return _certified_in(spec, g, orbit, budget)
    if isinstance(spec.group, FiniteTableGroup):
        # orbits in a finite group always close once the budget allows
        return _certified_in(spec, g, orbit_bfs(spec, g, spec.group.order), budget)
    return MembershipVerdict(status=UNKNOWN, budget=budget, orbit_explored=orbit.explored)


def h1_status(forward: MembershipVerdict, backward: MembershipVerdict) -> str:
    """Two-sided status from the verdicts for ``g`` and ``g^-1``.

    Certified when both sides certify; one exact refutation on either side
    refutes; otherwise Unknown.
    """
    if forward.certified_in and backward.certified_in:
        return CERTIFIED_IN
    if forward.certified_out or backward.certified_out:
        return CERTIFIED_OUT
    return UNKNOWN


def product_verdict(v1: MembershipVerdict, v2: MembershipVerdict,
                    product_spec=None) -> MembershipVerdict:
    """Combine componentwise verdicts over a product subgroup.

    Componentwise certificates compose; a single exact refutation refutes the
    pair because the cover condition projects onto each factor.
    """
    if v1.certified_in and v2.certified_in:
        cert = product_compose(v1.certificate, v2.certificate, product_spec)
        return MembershipVerdict(status=CERTIFIED_IN, certificate=cert)
    if v1.certified_out or v2.certified_out:
        side = v1 if v1.certified_out else v2
        return MembershipVerdict(
            status=CERTIFIED_OUT,
            reason=f"component refutation: {side.reason}",
        )
    return MembershipVerdict(status=UNKNOWN)
