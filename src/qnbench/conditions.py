"""Group-level structure conditions and the inclusion diagnosis report.

For an inclusion ``H <= G`` the engine checks, over a finite ball of the
ambient group:

* condition C1 -- every element outside ``H`` has at least ``threshold``
  distinct ``H``-conjugates (or provably finitely many).  Free, finite-table,
  shift-tail and product subgroups have the class in closed form; finitely
  presented and generator-given subgroups grow it by a conjugate search;
* condition C2 -- some ``h`` in ``H`` keeps all products ``g_i h g_j``
  outside ``H`` for a supplied family of outside elements;
* condition C3 -- no element outside ``H`` carries a certified finite coset
  cover (a counterexample comes with its replayable certificate);
* normality -- whether every ambient generator conjugates ``H`` onto itself.

When ``H`` is abelian these are the group-side hypotheses for the
operator-algebra dichotomy between a singular and a Cartan position of the
subgroup algebra, so the report phrases its flags as evidence at an explicit
tier: "exact" when every ingredient came from an exact backend, otherwise
"ball-limited".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .certificates import QnCertificate, translate_certificate
from .errors import GroupValidationError, IndeterminateResultError
from .groups import BALL_CAP, GroupElement, Trit, enumerate_ball
from .orbits import MembershipVerdict, h1_status, qn1_membership
from .subgroups import (
    INFINITE,
    SubgroupSpec,
    is_subgroup_member,
    subgroup_ball,
)


# -- condition C1 -------------------------------------------------------------


C1_CROSS_CHECK = 4  # threshold of the search that cross-checks a closed-form class


@dataclass(frozen=True)
class C1Result:
    element: GroupElement
    kind: str  # "at_least" | "finite"
    count: int
    conjugates: Optional[tuple] = None

    @property
    def infinite_evidence(self) -> bool:
        return self.kind == "at_least"


def check_c1(spec: SubgroupSpec, g: GroupElement, threshold: int = 100) -> C1Result:
    """Count the ``H``-conjugates of ``g`` up to ``threshold``.

    ``at_least`` reports ``threshold`` distinct conjugates; ``finite`` the
    whole class, sorted.  The class comes from the family's closed form
    (``SubgroupSpec.conjugacy_class``) and is cross-checked against the
    search at ``C1_CROSS_CHECK`` wherever the search is sound, that is,
    wherever the listed generators generate ``H``: shift tails and products
    containing one are exempt.  Families without a closed form (finitely
    presented and generator-given subgroups) run the search.  Requires
    ``threshold >= 2``, an exact-equality family and ``g`` outside the
    subgroup.
    """
    if threshold < 2:
        raise GroupValidationError(f"threshold must be at least 2, got {threshold}")
    membership = is_subgroup_member(spec, g)
    if membership is Trit.YES:
        raise GroupValidationError("conjugacy growth is only defined outside the subgroup")
    if membership is Trit.UNKNOWN:
        raise IndeterminateResultError("membership of the base element is undecided")
    if not spec.group.equality_is_exact():
        raise IndeterminateResultError("conjugate counting needs exact equality")
    conjugates = spec.conjugacy_class(g)
    if conjugates is None:
        return _c1_search(spec, g, threshold)
    if spec.generators_generate:
        expected = _c1_from_class(g, conjugates, C1_CROSS_CHECK)
        found = _c1_search(spec, g, C1_CROSS_CHECK)
        if found != expected:
            raise GroupValidationError(
                f"C1 backend disagreement: search {found.kind, found.count} "
                f"vs closed form {expected.kind, expected.count}"
            )
    return _c1_from_class(g, conjugates, threshold)


def _c1_from_class(g: GroupElement, conjugates, threshold: int) -> C1Result:
    """The search's answer for a known class (``threshold >= 2``)."""
    if conjugates is INFINITE or len(conjugates) >= threshold:
        return C1Result(element=g, kind="at_least", count=threshold)
    return C1Result(element=g, kind="finite", count=len(conjugates),
                    conjugates=tuple(sorted(conjugates, key=g.group.sort_key)))


def _c1_search(spec: SubgroupSpec, g: GroupElement, threshold: int) -> C1Result:
    """Grow the conjugate set ``{h g h^-1}`` over subgroup balls.

    ``finite`` is returned only when the set is closed under conjugation by
    every listed generator, which decides finiteness exactly when the listed
    generators generate the subgroup.  Each conjugate is one
    ``GroupDescriptor.conjugate``: with a rewriting system, one rewrite of
    ``h g h^-1`` that reads only the last ``L - 1`` letters of the normal
    form ``h`` (``L`` the longest left-hand side) and the letters after it.
    """
    group = spec.group
    max_radius = max(threshold, 8)
    moves = spec.generator_moves()
    conjugates = {group.element(g.payload)}
    ball_seen = {group.identity()}
    frontier = [group.identity()]
    for _ in range(max_radius + 1):
        grew = False
        next_frontier = []
        for h in frontier:
            for m in moves:
                nh = group.multiply(h, m)
                if nh in ball_seen:
                    continue
                if len(ball_seen) >= BALL_CAP:
                    raise IndeterminateResultError(
                        "conjugate search exhausted the subgroup ball cap"
                    )
                ball_seen.add(nh)
                next_frontier.append(nh)
                conj = group.conjugate(nh, g)
                if conj not in conjugates:
                    conjugates.add(conj)
                    grew = True
                    if len(conjugates) >= threshold:
                        return C1Result(element=g, kind="at_least", count=len(conjugates))
        frontier = next_frontier
        if not grew:
            # growth stalled: run the exact closure test
            closed = all(
                group.conjugate(s, x) in conjugates
                for s in moves
                for x in conjugates
            )
            if closed:
                return C1Result(element=g, kind="finite", count=len(conjugates),
                                conjugates=tuple(sorted(conjugates, key=group.sort_key)))
    raise IndeterminateResultError(
        f"conjugate set neither closed nor at threshold within radius {max_radius}"
    )


# -- condition C2 -------------------------------------------------------------


@dataclass(frozen=True)
class C2Result:
    kind: str  # "witness" | "not_found"
    witness: Optional[GroupElement] = None
    candidates_tested: int = 0


def check_c2(spec: SubgroupSpec, outside: Sequence[GroupElement],
             search_window: int = 3) -> C2Result:
    """Search the subgroup ball for ``h`` with every ``g_i h g_j`` outside.

    A witness is exact (each exclusion is a certified No).  ``not_found`` is
    inconclusive by design: the condition quantifies over the whole subgroup
    and a finite window cannot refute it.
    """
    group = spec.group
    for g in outside:
        verdict = is_subgroup_member(spec, g)
        if verdict is Trit.YES:
            raise GroupValidationError("outside elements must avoid the subgroup")
        if verdict is Trit.UNKNOWN:
            raise IndeterminateResultError("membership of an outside element is undecided")
    candidates = subgroup_ball(spec, search_window)
    for tested, h in enumerate(candidates, start=1):
        good = True
        for gi in outside:
            for gj in outside:
                product = group.multiply(group.multiply(gi, h), gj)
                verdict = is_subgroup_member(spec, product)
                if verdict is Trit.UNKNOWN:
                    raise IndeterminateResultError(
                        "product membership undecided during the witness search"
                    )
                if verdict is Trit.YES:
                    good = False
                    break
            if not good:
                break
        if good:
            return C2Result(kind="witness", witness=h, candidates_tested=tested)
    return C2Result(kind="not_found", candidates_tested=len(candidates))


# -- condition C3 -------------------------------------------------------------


@dataclass(frozen=True)
class C3Result:
    kind: str  # "counterexample" | "no_counterexample"
    counterexample: Optional[GroupElement] = None
    certificate: Optional[QnCertificate] = None
    unknowns: tuple = ()
    scanned: int = 0

    @property
    def exact(self) -> bool:
        return self.kind == "counterexample" or not self.unknowns


def _qn1_or_none(spec: SubgroupSpec, g: GroupElement, budget: int) -> Optional[MembershipVerdict]:
    """The membership verdict, or None when a coset comparison is undecided."""
    try:
        return qn1_membership(spec, g, budget)
    except IndeterminateResultError:
        return None


def _c3_from_verdicts(ball, memberships, verdicts) -> C3Result:
    """The C3 scan over ball memberships and the verdicts of non-members."""
    unknowns = []
    for g in ball:
        membership = memberships[g]
        if membership is Trit.YES:
            continue
        if membership is Trit.UNKNOWN:
            unknowns.append(g)
            continue
        verdict = verdicts[g]
        if verdict is None or verdict.unknown:
            unknowns.append(g)
            continue
        if verdict.certified_in:
            return C3Result(kind="counterexample", counterexample=g,
                            certificate=verdict.certificate, scanned=len(ball))
    return C3Result(kind="no_counterexample", unknowns=tuple(unknowns), scanned=len(ball))


# -- normalizer ---------------------------------------------------------------


def normality_test(spec: SubgroupSpec) -> Trit:
    """Whether the subgroup is normal: every generator of ``spec.group`` normalizes."""
    return Trit.conjunction([spec.normalizes(g) for g in spec.group.generators()])


# -- diagnosis ------------------------------------------------------------------


C2_SAMPLE = 6  # outside elements fed to the witness search
C1_SAMPLE = 32  # outside elements whose conjugate growth is tested


def check_search_settings(radius: int, budget: int, threshold: int) -> None:
    """Reject settings under which a search proves nothing: a negative ball
    radius, an orbit budget below one coset, or a C1 threshold below 2 (the
    conjugate ``g`` alone would count as evidence of infinitely many)."""
    if radius < 0:
        raise GroupValidationError(f"radius must be nonnegative, got {radius}")
    if budget < 1:
        raise GroupValidationError(f"budget must be at least 1, got {budget}")
    if threshold < 2:
        raise GroupValidationError(f"threshold must be at least 2, got {threshold}")


@dataclass
class DiagnosisConfig:
    radius: int = 3
    budget: int = 1000
    threshold: int = 100
    claim_abelian: bool = False

    def __post_init__(self):
        check_search_settings(self.radius, self.budget, self.threshold)


@dataclass(frozen=True)
class GammaEntry:
    element: GroupElement
    in_subgroup: Trit
    verdict: Optional[MembershipVerdict]
    h1_status: Optional[str]


@dataclass
class InclusionReport:
    group_family: str
    subgroup: str
    config: DiagnosisConfig
    gamma: list = field(default_factory=list)
    h2_witnesses: list = field(default_factory=list)
    c1_results: list = field(default_factory=list)
    c1_indeterminate: list = field(default_factory=list)
    c1_holds: Optional[bool] = None
    c2: Optional[C2Result] = None
    c2_inputs: list = field(default_factory=list)
    c2_indeterminate: Optional[str] = None
    c3: Optional[C3Result] = None
    normality: Trit = Trit.UNKNOWN
    abelian_verified: Optional[bool] = None
    masa_evidence: bool = False
    singular_evidence: bool = False
    cartan_evidence: bool = False
    tier: str = "ball-limited"
    inconsistencies: list = field(default_factory=list)

    def to_dict(self) -> dict:
        def render(e: GroupElement) -> str:
            return e.group.format_element(e)

        gamma_rows = []
        for entry in self.gamma:
            verdict = entry.verdict
            gamma_rows.append(
                {
                    "element": render(entry.element),
                    "in_subgroup": entry.in_subgroup.value,
                    "qn1_status": verdict.status if verdict else "skipped",
                    "cover_size": verdict.certificate.cover_size
                    if verdict and verdict.certificate
                    else None,
                    "h1_status": entry.h1_status,
                    "tier": verdict.evidence_tier if verdict else "ball-limited",
                }
            )
        return {
            "inclusion": {"family": self.group_family, "subgroup": self.subgroup},
            "config": {
                "radius": self.config.radius,
                "budget": self.config.budget,
                "threshold": self.config.threshold,
            },
            "gamma_ball": gamma_rows,
            "h2_witnesses": [render(e) for e in self.h2_witnesses],
            "c1": {
                "holds_on_ball": self.c1_holds,
                "results": [
                    {"element": render(r.element), "kind": r.kind, "count": r.count}
                    for r in self.c1_results
                ],
                "indeterminate": [render(e) for e in self.c1_indeterminate],
                "tier": "exact" if not self.c1_indeterminate else "ball-limited",
            },
            "c2": {
                "kind": self.c2.kind if self.c2 else self.c2_indeterminate,
                "witness": render(self.c2.witness) if self.c2 and self.c2.witness else None,
                "inputs": [render(e) for e in self.c2_inputs],
                "tier": "exact" if self.c2 and self.c2.kind == "witness" else "ball-limited",
            },
            "c3": {
                "kind": self.c3.kind,
                "counterexample": render(self.c3.counterexample)
                if self.c3.counterexample
                else None,
                "cover_size": self.c3.certificate.cover_size if self.c3.certificate else None,
                "unknowns": [render(e) for e in self.c3.unknowns],
                "tier": "exact" if self.c3.exact else "ball-limited",
            },
            "normality": {
                "verdict": self.normality.value,
                "tier": "exact" if self.normality is not Trit.UNKNOWN else "ball-limited",
            },
            "abelian_verified": self.abelian_verified,
            "diagnosis": {
                "masa_evidence": self.masa_evidence,
                "singular_evidence": self.singular_evidence,
                "cartan_evidence": self.cartan_evidence,
                "tier": self.tier,
            },
            "inconsistencies": list(self.inconsistencies),
        }


def _shared_verdict(spec: SubgroupSpec, g: GroupElement,
                    cached: Optional[MembershipVerdict], budget: int) -> Optional[MembershipVerdict]:
    """Verdict for ``g`` from a cached verdict of a double-coset mate."""
    if cached is None:
        return None
    if cached.certified_in:
        cert = translate_certificate(cached.certificate, g)
        return MembershipVerdict(status=cached.status, certificate=cert, budget=budget,
                                 orbit_explored=cached.orbit_explored)
    return MembershipVerdict(status=cached.status, reason=cached.reason, budget=budget,
                             orbit_explored=cached.orbit_explored)


def verify_abelian(spec: SubgroupSpec) -> Optional[bool]:
    """Pairwise commutation of the generators; None when undecided."""
    group = spec.group
    gens = spec.generators
    decided = True
    for i, x in enumerate(gens):
        for y in gens[i + 1 :]:
            verdict = group.elements_equal(group.multiply(x, y), group.multiply(y, x))
            if verdict is Trit.NO:
                return False
            if verdict is Trit.UNKNOWN:
                decided = False
    return True if decided else None


def diagnose_inclusion(spec: SubgroupSpec,
                       config: Optional[DiagnosisConfig] = None) -> InclusionReport:
    """Assemble ball verdicts, the three conditions, normality and the
    evidence flags for the inclusion ``H <= G`` a subgroup spec holds."""
    config = config or DiagnosisConfig()
    group = spec.group
    report = InclusionReport(
        group_family=group.family, subgroup=spec.describe(), config=config
    )
    abelian = verify_abelian(spec)
    if config.claim_abelian and abelian is False:
        raise GroupValidationError("subgroup was claimed abelian but generators do not commute")
    report.abelian_verified = abelian

    ball = enumerate_ball(group, config.radius)
    verdicts: dict[GroupElement, Optional[MembershipVerdict]] = {}
    memberships: dict[GroupElement, Trit] = {}
    # elements of one double coset share their orbit, so verdicts are cached
    shared: dict = {}
    for g in ball:
        memberships[g] = is_subgroup_member(spec, g)
        key = spec.double_coset_key(g)
        if key is not None and key in shared:
            verdicts[g] = _shared_verdict(spec, g, shared[key], config.budget)
            continue
        verdict = _qn1_or_none(spec, g, config.budget)
        verdicts[g] = verdict
        if key is not None:
            shared[key] = verdict

    for g in ball:
        verdict = verdicts[g]
        backward = verdicts.get(group.invert(g))
        status = None if verdict is None or backward is None else h1_status(verdict, backward)
        report.gamma.append(
            GammaEntry(element=g, in_subgroup=memberships[g], verdict=verdict, h1_status=status)
        )
        if verdict is not None and verdict.certified_in:
            report.h2_witnesses.append(g)

    outsiders = [g for g in ball if memberships[g] is Trit.NO]
    for g in outsiders[:C1_SAMPLE]:
        try:
            report.c1_results.append(check_c1(spec, g, config.threshold))
        except IndeterminateResultError:
            report.c1_indeterminate.append(g)
    if outsiders:
        if report.c1_results and all(r.infinite_evidence for r in report.c1_results) \
                and not report.c1_indeterminate:
            report.c1_holds = True
        elif any(r.kind == "finite" for r in report.c1_results):
            report.c1_holds = False

    report.c2_inputs = [g for g in enumerate_ball(group, min(config.radius, 2))
                        if memberships.get(g) is Trit.NO][:C2_SAMPLE]
    if report.c2_inputs:
        try:
            report.c2 = check_c2(spec, report.c2_inputs)
        except IndeterminateResultError as err:
            report.c2_indeterminate = str(err)
    else:
        report.c2 = C2Result(kind="witness", witness=group.identity(), candidates_tested=0)

    report.c3 = _c3_from_verdicts(ball, memberships, verdicts)
    report.normality = normality_test(spec)

    c3_clean = report.c3.kind == "no_counterexample" and report.c3.exact
    if abelian and report.c1_holds:
        report.masa_evidence = True
        if c3_clean:
            report.singular_evidence = True
        if report.normality is Trit.YES:
            report.cartan_evidence = True

    if report.singular_evidence and report.cartan_evidence:
        report.inconsistencies.append(
            "normal subgroup together with an empty certified cover scan"
        )
        report.singular_evidence = False
    if report.normality is Trit.YES and outsiders and report.c3.kind == "no_counterexample" \
            and report.c3.exact:
        report.inconsistencies.append(
            "exact normality forces coset covers for ball elements outside the subgroup"
        )

    exact = (
        all(m is not Trit.UNKNOWN for m in memberships.values())
        and all(v is not None and not v.unknown for v in verdicts.values())
        and not report.c1_indeterminate
        and report.c3.exact
        and report.normality is not Trit.UNKNOWN
    )
    report.tier = "exact" if exact else "ball-limited"
    return report
