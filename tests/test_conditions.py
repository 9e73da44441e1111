import pytest

from qnbench.conditions import (
    DiagnosisConfig,
    check_c1,
    check_c2,
    check_c3,
    diagnose_inclusion,
    normality_test,
    normalizer_test,
    verify_abelian,
)
from qnbench.errors import GroupValidationError, IndeterminateResultError
from qnbench.groups import (
    FiniteTableGroup,
    FpGroupDescriptor,
    FreeGroupDescriptor,
    ShiftExtensionDescriptor,
    Trit,
    free_abelian_of_rank_two,
    identity,
    infinite_dihedral,
    invert,
    multiply,
)
from qnbench.orbits import qn1_membership
from qnbench.subgroups import shift_tail_subgroup, subgroup
from qnbench.words import concat, generator

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
    result = check_c3(F2, cyclic_a(), ball_radius=3, budget=200)
    assert result.kind == "no_counterexample"
    assert result.unknowns == ()
    assert result.exact


def test_c3_shift_extension_finds_stable_letter_inverse():
    G = ShiftExtensionDescriptor(window=1)
    K0 = shift_tail_subgroup(G, 0)
    result = check_c3(G, K0, ball_radius=1, budget=64)
    assert result.kind == "counterexample"
    assert result.counterexample == G.stable_letter(-1)
    assert result.certificate.cover_size == 1


def test_c3_infinite_dihedral_counterexample():
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    result = check_c3(D, H, ball_radius=2, budget=50)
    assert result.kind == "counterexample"
    assert result.counterexample == r
    assert result.certificate.cover_size == 1


# -- normalizers -----------------------------------------------------------------


def test_normalizer_free_group():
    H = cyclic_a()
    assert normalizer_test(H, B) is Trit.NO
    assert normalizer_test(H, multiply(A, A)) is Trit.YES


def test_normalizer_infinite_dihedral_reflection():
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    assert normalizer_test(H, r) is Trit.YES
    assert normality_test(D, H) is Trit.YES


def test_normalizer_membership_trivial():
    H = cyclic_a()
    assert normalizer_test(H, multiply(A, invert(A))) is Trit.YES


def test_normalizer_shift_tail():
    G = ShiftExtensionDescriptor(window=1)
    K0 = shift_tail_subgroup(G, 0)
    assert normalizer_test(K0, G.base_generator(1)) is Trit.YES
    assert normalizer_test(K0, G.stable_letter()) is Trit.NO
    assert normalizer_test(K0, G.base_generator(-1)) is Trit.NO
    assert normality_test(G, K0) is Trit.NO


def test_normalizer_finite_table():
    # S3: transpositions do not normalize a 2-element subgroup they avoid
    s = (1, 0, 2)
    t = (0, 2, 1)
    G = FiniteTableGroup.from_permutations([s, t], )
    gens = G.generators()
    H = subgroup(G, [gens[0]])
    assert normalizer_test(H, gens[0]) is Trit.YES
    assert normalizer_test(H, gens[1]) is Trit.NO


# -- diagnosis --------------------------------------------------------------------


def test_diagnose_free_group_singular_masa_evidence():
    report = diagnose_inclusion(F2, cyclic_a(), DiagnosisConfig(radius=3, budget=200))
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
        is_power_of_a = all(gen == 0 for gen, _ in word)
        assert (entry.verdict is not None and entry.verdict.certified_in) == is_power_of_a


def test_diagnose_infinite_dihedral_cartan():
    D = infinite_dihedral()
    a, r = D.generators()
    H = subgroup(D, [a])
    report = diagnose_inclusion(D, H, DiagnosisConfig(radius=2, budget=100, claim_abelian=True))
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
    report = diagnose_inclusion(Z2, H, DiagnosisConfig(radius=2, budget=50))
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
    report = diagnose_inclusion(F2, H, DiagnosisConfig(radius=3, budget=50))
    for entry in report.gamma:
        assert entry.verdict.certified_in
        assert entry.verdict.certificate.cover_size <= 2
        assert entry.h1_status == "certified_in"
    assert report.normality is Trit.YES


def test_diagnose_shift_extension_is_exact():
    G = ShiftExtensionDescriptor(window=1)
    K0 = shift_tail_subgroup(G, 0)
    report = diagnose_inclusion(G, K0, DiagnosisConfig(radius=2, budget=100))
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
    report = diagnose_inclusion(F, H, DiagnosisConfig(radius=1, budget=16))
    rows = {row["element"]: row for row in report.to_dict()["gamma_ball"]}
    assert rows["b"]["qn1_status"] == "skipped"
    assert rows["b"]["tier"] == "ball-limited"
    assert report.tier == "ball-limited"


def test_diagnose_claim_abelian_rejected_when_false():
    gens = [A, B]
    H = subgroup(F2, gens)
    with pytest.raises(GroupValidationError):
        diagnose_inclusion(F2, H, DiagnosisConfig(radius=1, budget=10, claim_abelian=True))


def test_report_serializes_with_stable_fields():
    report = diagnose_inclusion(F2, cyclic_a(), DiagnosisConfig(radius=2, budget=50))
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
