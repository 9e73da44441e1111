import itertools

import pytest

from qnbench import orbits
from qnbench.conditions import (
    DiagnosisConfig,
    _c1_search,
    check_c1,
    check_c2,
    diagnose_inclusion,
    normality_test,
    verify_abelian,
)
from qnbench.errors import GroupValidationError, IndeterminateResultError
from qnbench.files import load_group_inclusion, parse_group_inclusion
from qnbench.groups import (
    DirectProductDescriptor,
    FpGroupDescriptor,
    FreeGroupDescriptor,
    ShiftExtensionDescriptor,
    Trit,
    enumerate_ball,
    identity,
    infinite_dihedral,
    invert,
    multiply,
)
from qnbench.orbits import qn1_membership
from qnbench.rewriting import RewritingSystem
from qnbench.subgroups import (
    INFINITE,
    FreeSubgroup,
    ProductSubgroup,
    product_subgroup,
    shift_tail_subgroup,
    subgroup,
)
from qnbench.words import concat, gen_of, generator
from test_groups import all_elements, free_abelian_of_rank_two, from_permutations

F2 = FreeGroupDescriptor.of_rank(2)
A = F2.element(generator(0))
B = F2.element(generator(1))


def cyclic_a():
    return subgroup(F2, [A], label="<a>")


# -- C1 -------------------------------------------------------------------------


def test_c1_free_group_at_least_100():
    result = check_c1(cyclic_a(), B, threshold=100)
    assert result.kind == "at_least"
    assert result.count >= 100


def test_c1_abelian_ambient_finite():
    Z2 = free_abelian_of_rank_two()
    a, b = Z2.generators()
    H = subgroup(Z2, [a])
    result = check_c1(H, b, threshold=50)
    assert result.kind == "finite"
    assert result.conjugates == (b,)


def test_c1_infinite_dihedral():
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    result = check_c1(H, r, threshold=50)
    assert result.kind == "at_least"
    assert result.count >= 50


def test_c1_rejects_subgroup_element():
    with pytest.raises(GroupValidationError):
        check_c1(cyclic_a(), A, threshold=10)


@pytest.mark.parametrize("threshold", [1, 0, -5])
def test_c1_rejects_vacuous_threshold(threshold):
    # g alone is one conjugate, so a threshold below 2 would count every
    # element as evidence of infinitely many
    with pytest.raises(GroupValidationError, match="threshold"):
        check_c1(cyclic_a(), B, threshold=threshold)


@pytest.mark.parametrize("settings", [{"threshold": 1}, {"budget": 0}, {"radius": -1}])
def test_diagnosis_config_rejects_vacuous_settings(settings):
    with pytest.raises(GroupValidationError):
        DiagnosisConfig(**settings)


# the free subgroups of the benchmark's group-exact templates
FREE_TEMPLATES = [
    (2, ["a b a^-1 b^-1"]),
    (2, ["a^3", "b", "a b a^-1", "a^2 b a^-2"]),
    (2, ["a^2", "b^2"]),
    (3, ["a", "b"]),
    (3, ["a^2", "b", "c", "a b a^-1", "a c a^-1"]),
]


def free_template(rank, words):
    doc = parse_group_inclusion({"family": "free", "generators": list("abc"[:rank]),
                                 "subgroup_generators": words})
    return doc.subgroup.group, doc.subgroup


def symmetric_group(degree):
    cycle = tuple(range(1, degree)) + (0,)
    return from_permutations([(1, 0) + tuple(range(2, degree)), cycle])


def small_table_subgroups(group):
    """Every subgroup generated by one or two elements, once each."""
    specs = {}
    for x, y in itertools.combinations_with_replacement(all_elements(group), 2):
        spec = subgroup(group, [x, y])
        specs.setdefault(spec.subset, spec)
    return list(specs.values())


def assert_closed_form_matches_search(group, spec, elements):
    outside = [g for g in elements if spec.member(g) is Trit.NO]
    assert outside
    for g in outside:
        for threshold in (2, 5, 100):
            assert check_c1(spec, g, threshold) == _c1_search(spec, g, threshold), (
                spec.describe(), g, threshold)


@pytest.mark.parametrize("rank, words", FREE_TEMPLATES,
                         ids=[" ".join(words) for _, words in FREE_TEMPLATES])
def test_c1_closed_form_matches_search_on_free_templates(rank, words):
    group, spec = free_template(rank, words)
    assert isinstance(spec, FreeSubgroup)
    assert_closed_form_matches_search(group, spec, enumerate_ball(group, 3))


@pytest.mark.parametrize("degree", [3, 4])
def test_c1_closed_form_matches_search_on_symmetric_groups(degree):
    group = symmetric_group(degree)
    specs = small_table_subgroups(group)
    assert len(specs) == {3: 6, 4: 30}[degree]
    for spec in specs:
        if len(spec.subset) < group.order:
            assert_closed_form_matches_search(group, spec, all_elements(group))


def test_c1_closed_form_matches_search_on_products():
    s3 = symmetric_group(3)
    table_specs = small_table_subgroups(s3)
    free_specs = [free_template(2, ["a"]), free_template(*FREE_TEMPLATES[2])]
    cyclic_specs = [subgroup(s3, [g]) for g in s3.generators()]  # orders 2 and 3
    for (free_group, free_spec), table_spec in itertools.product(free_specs, cyclic_specs):
        group = DirectProductDescriptor(free_group, s3)
        spec = product_subgroup(group, free_spec, table_spec)
        assert_closed_form_matches_search(group, spec, enumerate_ball(group, 2))
    group = DirectProductDescriptor(s3, s3)
    for left, right in itertools.product(table_specs[:3], table_specs[-3:]):
        spec = product_subgroup(group, left, right)
        assert_closed_form_matches_search(group, spec, group_pairs(group))


def group_pairs(group):
    return [group.pair(x, y) for x in all_elements(group.left)
            for y in all_elements(group.right)]


def test_c1_shift_tail_product_counterexample_to_the_search():
    # K1 lists only g1 in window 1, so the search closes {(g1, (012)), (g1, (021))}
    # under the listed generators, while g2 in K1 moves g1 to infinitely many
    shift = ShiftExtensionDescriptor(window=1)
    s3 = symmetric_group(3)
    transposition, three_cycle = s3.generators()
    group = DirectProductDescriptor(shift, s3)
    spec = product_subgroup(group, shift_tail_subgroup(shift, 1), subgroup(s3, [transposition]))
    g = group.pair(shift.base_generator(1), three_cycle)
    searched = _c1_search(spec, g, 100)
    assert (searched.kind, searched.count) == ("finite", 2)
    closed = check_c1(spec, g, 100)
    assert (closed.kind, closed.count, closed.conjugates) == ("at_least", 100, None)
    assert spec.conjugacy_class(g) is INFINITE


def test_c1_shift_tail_classes():
    G = ShiftExtensionDescriptor(window=1)
    K0 = shift_tail_subgroup(G, 0)
    assert K0.conjugacy_class(G.identity()) == frozenset({G.identity()})
    for g in (G.base_generator(1), G.base_generator(-1), G.stable_letter()):
        assert K0.conjugacy_class(g) is INFINITE
    assert check_c1(K0, G.stable_letter(-1), 100).kind == "at_least"


def test_c1_free_class_of_members_for_products():
    # a power of the cyclic generator commutes with it; a free generator of a
    # rank-two subgroup does not commute with the other one
    assert cyclic_a().conjugacy_class(F2.word((0, 3))) == frozenset({F2.word((0, 3))})
    assert subgroup(F2, [A, B]).conjugacy_class(A) is INFINITE


def test_c1_cross_check_catches_a_wrong_closed_form(monkeypatch):
    monkeypatch.setattr(FreeSubgroup, "conjugacy_class", lambda self, g: frozenset({g}))
    with pytest.raises(GroupValidationError, match="C1 backend disagreement"):
        check_c1(cyclic_a(), B, threshold=100)


def test_c1_fp_family_keeps_the_search():
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    assert H.conjugacy_class(r) is None
    assert check_c1(H, r, threshold=50) == _c1_search(H, r, 50)


def test_c1_search_rewrites_only_new_letters(monkeypatch):
    # the radius-5 diagnosis of the dihedral sample, 98% of whose rewriting
    # is the C1 search: re-reading the normal-form left factors of each
    # product and conjugate fed about 139 000 letters, the new letters alone
    # about 28 000
    fed = [0]
    normal_form = RewritingSystem.normal_form

    def counting(self, word, irreducible=0):
        fed[0] += len(word) - irreducible
        return normal_form(self, word, irreducible)

    spec = load_group_inclusion("sample_inputs/infinite_dihedral.json").subgroup
    monkeypatch.setattr(RewritingSystem, "normal_form", counting)
    report = diagnose_inclusion(spec, DiagnosisConfig(radius=5))
    assert report.c1_holds
    assert fed[0] <= 30000


# -- C2 -------------------------------------------------------------------------


def test_c2_free_group_witness():
    result = check_c2(cyclic_a(), [B, invert(B)], search_window=2)
    assert result.kind == "witness"
    # a itself separates: b a b, b a b^-1, ... all fall outside <a>
    assert result.witness is not None


def test_c2_abelian_witness_is_identity():
    Z2 = free_abelian_of_rank_two()
    a, b = Z2.generators()
    H = subgroup(Z2, [a])
    result = check_c2(H, [b], search_window=2)
    assert result.kind == "witness"
    assert result.witness == identity(Z2)


def test_c2_empty_input_vacuous():
    result = check_c2(cyclic_a(), [], search_window=1)
    assert result.kind == "witness"
    assert result.witness == identity(F2)


def test_c2_not_found_is_inconclusive():
    # in the infinite dihedral group r h r always lands in <a> for h in <a>,
    # so no witness exists for the pair {r, r^-1}
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    result = check_c2(H, [r], search_window=3)
    assert result.kind == "not_found"


def test_c2_rejects_member_inputs():
    with pytest.raises(GroupValidationError):
        check_c2(cyclic_a(), [A], search_window=1)


# -- C3 -------------------------------------------------------------------------


def test_c3_free_group_no_counterexample():
    result = diagnose_inclusion(cyclic_a(), DiagnosisConfig(radius=3, budget=200)).c3
    assert result.kind == "no_counterexample"
    assert result.unknowns == ()
    assert result.exact


def test_c3_shift_extension_finds_stable_letter_inverse():
    G = ShiftExtensionDescriptor(window=1)
    K0 = shift_tail_subgroup(G, 0)
    result = diagnose_inclusion(K0, DiagnosisConfig(radius=1, budget=64)).c3
    assert result.kind == "counterexample"
    assert result.counterexample == G.stable_letter(-1)
    assert result.certificate.cover_size == 1


def test_c3_infinite_dihedral_counterexample():
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    result = diagnose_inclusion(H, DiagnosisConfig(radius=2, budget=50)).c3
    assert result.kind == "counterexample"
    assert result.counterexample == r
    assert result.certificate.cover_size == 1


# -- normalizers -----------------------------------------------------------------


def test_normalizer_free_group():
    H = cyclic_a()
    assert H.normalizes(B) is Trit.NO
    assert H.normalizes(multiply(A, A)) is Trit.YES


def test_normalizer_infinite_dihedral_reflection():
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    assert H.normalizes(r) is Trit.YES
    assert normality_test(H) is Trit.YES


def test_normalizer_membership_trivial():
    H = cyclic_a()
    assert H.normalizes(multiply(A, invert(A))) is Trit.YES


def test_normalizer_shift_tail():
    G = ShiftExtensionDescriptor(window=1)
    K0 = shift_tail_subgroup(G, 0)
    assert K0.normalizes(G.base_generator(1)) is Trit.YES
    assert K0.normalizes(G.stable_letter()) is Trit.NO
    assert K0.normalizes(G.base_generator(-1)) is Trit.NO
    assert normality_test(K0) is Trit.NO


def test_normalizer_finite_table():
    # S3: transpositions do not normalize a 2-element subgroup they avoid
    s = (1, 0, 2)
    t = (0, 2, 1)
    G = from_permutations([s, t])
    gens = G.generators()
    H = subgroup(G, [gens[0]])
    assert H.normalizes(gens[0]) is Trit.YES
    assert H.normalizes(gens[1]) is Trit.NO


# -- diagnosis --------------------------------------------------------------------


# the free jobs of the benchmark's group-exact workload: (rank, words, radius)
FREE_JOBS = [(2, ["a"], 5), (2, ["a^2", "b", "a b a^-1"], 4)] + [
    (rank, words, radius) for (rank, words), radius in zip(FREE_TEMPLATES, (5, 4, 5, 3, 3))]


@pytest.mark.parametrize("rank, words, radius", FREE_JOBS,
                         ids=[" ".join(words) for _, words, _ in FREE_JOBS])
def test_free_double_coset_keys_leave_the_report_unchanged(monkeypatch, rank, words, radius):
    # mates of one H g H take the cached verdict; the report must equal the
    # one where every element runs its own decision
    group, spec = free_template(rank, words)
    config = DiagnosisConfig(radius=radius)
    decisions = []
    original = orbits.free_qn1_decide
    monkeypatch.setattr(orbits, "free_qn1_decide",
                        lambda graph, word: decisions.append(word) or original(graph, word))
    shared = diagnose_inclusion(spec, config).to_dict()
    with_keys = len(decisions)
    monkeypatch.setattr(FreeSubgroup, "double_coset_key", lambda self, g: None)
    assert diagnose_inclusion(spec, config).to_dict() == shared
    assert with_keys < len(decisions) - with_keys


@pytest.mark.parametrize("words", [["a"], ["a^2", "b", "a b a^-1"]], ids=["cyclic", "index_two"])
def test_product_double_coset_keys_leave_every_row_unchanged(monkeypatch, words):
    # F2 x S3 over H1 x <(01)> at radius 2; with H1 = <a> it is the
    # benchmark's f2_x_s3 shape, and at index two every element is keyed and
    # certified.  H1 x H2 (g1, g2) H1 x H2 is the product of the component
    # double cosets, so mates share a verdict; each row must match its own
    # decision
    S3 = from_permutations([(1, 0, 2), (0, 2, 1)])
    left = parse_group_inclusion({"family": "free", "generators": ["a", "b"],
                                  "subgroup_generators": words})
    spec = product_subgroup(DirectProductDescriptor(left.subgroup.group, S3), left.subgroup,
                            subgroup(S3, [S3.generators()[0]]))
    group = spec.group
    config = DiagnosisConfig(radius=2)
    ball = enumerate_ball(group, 2)
    keys = [spec.double_coset_key(g) for g in ball]
    assert len({k for k in keys if k is not None}) < sum(k is not None for k in keys)
    shared = diagnose_inclusion(spec, config).to_dict()
    for g, row in zip(ball, shared["gamma_ball"]):
        own = qn1_membership(spec, g, config.budget)
        assert row["qn1_status"] == own.status, row
        assert row["cover_size"] == (own.certificate.cover_size if own.certificate else None), row
    monkeypatch.setattr(ProductSubgroup, "double_coset_key", lambda self, g: None)
    assert diagnose_inclusion(spec, config).to_dict() == shared


def test_diagnose_free_group_singular_masa_evidence():
    report = diagnose_inclusion(cyclic_a(), DiagnosisConfig(radius=3, budget=200))
    assert report.abelian_verified is True
    assert report.c1_holds is True
    assert report.c3.kind == "no_counterexample"
    assert report.normality is Trit.NO
    assert report.singular_evidence and report.masa_evidence
    assert not report.cartan_evidence
    assert report.tier == "exact"
    assert not report.inconsistencies
    # the certified part of the ball is exactly the powers of a
    for entry in report.gamma:
        word = entry.element.payload
        is_power_of_a = all(gen_of(x) == 0 for x in word)
        assert (entry.verdict is not None and entry.verdict.certified_in) == is_power_of_a


def test_diagnose_infinite_dihedral_cartan():
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    report = diagnose_inclusion(H, DiagnosisConfig(radius=2, budget=100, claim_abelian=True))
    assert report.abelian_verified is True
    assert report.c1_holds is True
    assert report.normality is Trit.YES
    assert report.cartan_evidence
    assert not report.singular_evidence
    assert report.tier == "exact"


def test_diagnose_abelian_ambient_neither():
    Z2 = free_abelian_of_rank_two()
    a, _ = Z2.generators()
    H = subgroup(Z2, [a])
    report = diagnose_inclusion(H, DiagnosisConfig(radius=2, budget=50))
    assert report.c1_holds is False
    assert not report.masa_evidence
    assert not report.singular_evidence and not report.cartan_evidence


def test_diagnose_normal_subgroup_certifies_ball():
    # index-two (normal) subgroup of F2: every ball element certified, cover 1
    gens = [
        F2.element(concat(generator(0), generator(0))),
        B,
        F2.element(concat(generator(0), generator(1), generator(0, -1))),
    ]
    H = subgroup(F2, gens)
    report = diagnose_inclusion(H, DiagnosisConfig(radius=3, budget=50))
    for entry in report.gamma:
        assert entry.verdict.certified_in
        assert entry.verdict.certificate.cover_size <= 2
        assert entry.h1_status == "certified_in"
    assert report.normality is Trit.YES


def test_diagnose_shift_extension_is_exact():
    G = ShiftExtensionDescriptor(window=1)
    K0 = shift_tail_subgroup(G, 0)
    report = diagnose_inclusion(K0, DiagnosisConfig(radius=2, budget=100))
    t_inv = G.stable_letter(-1)
    t = G.stable_letter()
    by_element = {e.element: e for e in report.gamma}
    assert by_element[t_inv].verdict.certified_in
    assert by_element[t_inv].verdict.certificate.cover_size == 1
    assert by_element[t].verdict.certified_out
    assert by_element[t].verdict.reason == "K1 has infinite index in K0"
    assert by_element[t_inv].h1_status == "certified_out"
    assert all(e.verdict is not None and not e.verdict.unknown for e in report.gamma)
    assert report.tier == "exact"
    assert report.c3.kind == "counterexample"


def test_skipped_rows_are_ball_limited():
    # coset comparisons for <a> in the relator-free presentation come back
    # Unknown, so the membership verdict of b cannot be computed
    F = FpGroupDescriptor(2, [], names=("a", "b"))
    a, b = F.generators()
    H = subgroup(F, [a])
    with pytest.raises(IndeterminateResultError):
        qn1_membership(H, b, budget=16)
    report = diagnose_inclusion(H, DiagnosisConfig(radius=1, budget=16))
    rows = {row["element"]: row for row in report.to_dict()["gamma_ball"]}
    assert rows["b"]["qn1_status"] == "skipped"
    assert rows["b"]["tier"] == "ball-limited"
    assert report.tier == "ball-limited"


def test_diagnose_claim_abelian_rejected_when_false():
    gens = [A, B]
    H = subgroup(F2, gens)
    with pytest.raises(GroupValidationError):
        diagnose_inclusion(H, DiagnosisConfig(radius=1, budget=10, claim_abelian=True))


def test_report_serializes_with_stable_fields():
    report = diagnose_inclusion(cyclic_a(), DiagnosisConfig(radius=2, budget=50))
    doc = report.to_dict()
    assert list(doc.keys()) == [
        "inclusion",
        "config",
        "gamma_ball",
        "h2_witnesses",
        "c1",
        "c2",
        "c3",
        "normality",
        "abelian_verified",
        "diagnosis",
        "inconsistencies",
    ]
    assert doc["diagnosis"]["tier"] == "exact"


def test_verify_abelian():
    assert verify_abelian(cyclic_a()) is True
    assert verify_abelian(subgroup(F2, [A, B])) is False
