import itertools
import re
from dataclasses import replace

import pytest

from qnbench import certificates
from qnbench.certificates import (
    QnCertificate,
    certificate_from_cover,
    compose_certificates,
    product_compose,
    replay_certificate,
    translate_certificate,
)
from qnbench.errors import CertificateError, IndeterminateResultError
from qnbench.groups import (
    DirectProductDescriptor,
    FpGroupDescriptor,
    FreeGroupDescriptor,
    ShiftExtensionDescriptor,
    enumerate_ball,
    identity,
    infinite_dihedral,
)
from qnbench.orbits import (
    CERTIFIED_IN,
    CERTIFIED_OUT,
    MembershipVerdict,
    UNKNOWN,
    h1_status,
    orbit_bfs,
    product_verdict,
    qn1_membership,
)
from qnbench.subgroups import ProductSubgroup, product_subgroup, shift_tail_subgroup, subgroup
from qnbench.words import concat, generator
from test_groups import all_elements, cyclic, free_abelian_of_rank_two, from_permutations
from test_stallings import stabilizer_generators

F2 = FreeGroupDescriptor.of_rank(2)
A = F2.element(generator(0))
B = F2.element(generator(1))
INDEX_TWO_GENS = [
    F2.element(concat(generator(0), generator(0))),
    B,
    F2.element(concat(generator(0), generator(1), generator(0, -1))),
]


def shift_setup(window=2):
    G = ShiftExtensionDescriptor(window=window)
    return G, shift_tail_subgroup(G, 0)


def identity_certificate(spec, member):
    """Certificate of cover size one for an element of the subgroup itself."""
    return certificate_from_cover(spec, member, [member])


def h1_membership(spec, g, budget=1000):
    """Two-sided variant: ``h1_status`` of the verdicts for ``g`` and ``g^-1``."""
    forward = qn1_membership(spec, g, budget)
    backward = qn1_membership(spec, spec.group.invert(g), budget)
    status = h1_status(forward, backward)
    if status == CERTIFIED_IN:
        return MembershipVerdict(
            status=CERTIFIED_IN,
            certificate=forward.certificate,
            budget=budget,
            orbit_explored=forward.orbit_explored,
        )
    if status == CERTIFIED_OUT:
        side = forward if forward.certified_out else backward
        return MembershipVerdict(
            status=CERTIFIED_OUT,
            reason=side.reason,
            budget=budget,
            orbit_explored=side.orbit_explored,
        )
    explored = max(forward.orbit_explored or 0, backward.orbit_explored or 0)
    return MembershipVerdict(status=UNKNOWN, budget=budget, orbit_explored=explored)


# -- orbit enumeration -----------------------------------------------------------


def test_orbit_of_stable_letter_inverse_closes_immediately():
    G, K0 = shift_setup()
    orbit = orbit_bfs(K0, G.stable_letter(-1), budget=100)
    assert orbit.closed and orbit.size == 1 and orbit.explored == 1


def test_orbit_of_identity_is_single_coset():
    G, K0 = shift_setup()
    orbit = orbit_bfs(K0, identity(G), budget=1)
    assert orbit.closed and orbit.size == 1


def test_orbit_of_b_over_cyclic_a_does_not_close():
    H = subgroup(F2, [A])
    orbit = orbit_bfs(H, B, budget=50)
    assert not orbit.closed
    assert orbit.explored >= 50


def test_orbit_of_stable_letter_explodes_at_every_budget():
    G, K0 = shift_setup()
    t = G.stable_letter()
    for budget in (10, 100, 1000):
        orbit = orbit_bfs(K0, t, budget=budget)
        assert not orbit.closed
        assert orbit.explored >= budget


def test_orbit_representative_order_deterministic():
    H = subgroup(F2, INDEX_TWO_GENS)
    o1 = orbit_bfs(H, A, budget=10)
    o2 = orbit_bfs(H, A, budget=10)
    assert o1.representatives == o2.representatives
    assert o1.closed and o1.size == 1  # H is normal of index 2


def test_orbit_indeterminate_propagates():
    F = FpGroupDescriptor(2, [], names=("a", "b"))
    a, b = F.generators()
    H = subgroup(F, [a])
    with pytest.raises(IndeterminateResultError):
        orbit_bfs(H, b, budget=16)


# -- membership verdicts -----------------------------------------------------------


def test_qn1_certifies_stable_letter_inverse_with_cover_one():
    G, K0 = shift_setup()
    verdict = qn1_membership(K0, G.stable_letter(-1), budget=100)
    assert verdict.certified_in
    assert verdict.certificate.cover_size == 1
    replay_certificate(verdict.certificate)


def test_qn1_refutes_b_over_cyclic_a():
    H = subgroup(F2, [A])
    verdict = qn1_membership(H, B, budget=40)
    assert verdict.certified_out
    assert "infinite index" in verdict.reason


def test_qn1_refutes_stable_letter_while_its_orbit_stays_open():
    G, K0 = shift_setup()
    verdict = qn1_membership(K0, G.stable_letter(), budget=64)
    assert verdict.certified_out
    assert verdict.reason == "K1 has infinite index in K0"
    assert verdict.evidence_tier == "exact"
    # the orbit search itself stays budget-honest: it never closes
    orbit = orbit_bfs(K0, G.stable_letter(), budget=64)
    assert not orbit.closed and orbit.explored >= 64


@pytest.mark.parametrize(
    "window, radius, n",
    [(1, 3, n) for n in range(-1, 2)] + [(2, 2, n) for n in range(-2, 3)],
)
def test_shift_tail_rule_matches_orbit_search(window, radius, n):
    G = ShiftExtensionDescriptor(window=window)
    K = shift_tail_subgroup(G, n)
    for g in enumerate_ball(G, radius):
        verdict = qn1_membership(K, g, budget=150)
        orbit = orbit_bfs(K, g, budget=150)
        assert verdict.certified_in == orbit.closed, G.format_element(g)
        if orbit.closed:
            assert orbit.size == verdict.certificate.cover_size == 1
        else:
            assert verdict.certified_out and orbit.explored > 150


def test_product_decision_matches_orbit_search():
    S3 = from_permutations([(1, 0, 2), (0, 2, 1)])
    left, right = subgroup(F2, [A]), subgroup(S3, [S3.generators()[0]])
    P = DirectProductDescriptor(F2, S3)
    spec = product_subgroup(P, left, right)
    decided = 0
    for g in enumerate_ball(P, 2):
        verdict = qn1_membership(spec, g, budget=40)
        orbit = orbit_bfs(spec, g, budget=40)
        if not orbit.closed:
            assert verdict.certified_out
            continue
        decided += 1
        g1, g2 = g.payload
        k1 = qn1_membership(left, g1).certificate.cover_size
        k2 = qn1_membership(right, g2).certificate.cover_size
        assert verdict.certified_in
        assert verdict.certificate.cover_size == orbit.size == k1 * k2
        replay_certificate(verdict.certificate)
    assert decided > 0


def test_qn1_monotone_in_budget():
    G, K0 = shift_setup()
    t_inv = G.stable_letter(-1)
    for budget in (1, 10, 1000):
        assert qn1_membership(K0, t_inv, budget).certified_in
    H = subgroup(F2, [A])
    for budget in (5, 50, 500):
        assert qn1_membership(H, B, budget).certified_out


def test_qn1_subgroup_elements_have_cover_one():
    H = subgroup(F2, INDEX_TWO_GENS)
    for h in INDEX_TWO_GENS:
        verdict = qn1_membership(H, h, budget=10)
        assert verdict.certified_in and verdict.certificate.cover_size == 1


def test_qn1_finite_index_certifies_everything():
    H = subgroup(F2, INDEX_TWO_GENS)
    from qnbench.groups import enumerate_ball

    for g in enumerate_ball(F2, 3):
        verdict = qn1_membership(H, g, budget=10)
        assert verdict.certified_in
        assert verdict.certificate.cover_size <= 2


def test_qn1_exact_backend_recovers_cover_beyond_budget():
    # orbit needs 2 cosets; budget 1 still certifies through the exact index
    H = subgroup(F2, INDEX_TWO_GENS)
    verdict = qn1_membership(H, A, budget=1)
    assert verdict.certified_in


def test_qn1_finite_table_always_certifies():
    G = cyclic(6)
    H = subgroup(G, [G.element(2)])
    for g in all_elements(G):
        verdict = qn1_membership(H, g, budget=1)
        assert verdict.certified_in


def test_h1_membership_of_stable_letter_inverse_is_refuted():
    # t^-1 certifies with cover one, but its inverse t is refuted exactly
    G, K0 = shift_setup()
    verdict = h1_membership(K0, G.stable_letter(-1), budget=200)
    assert verdict.certified_out
    assert verdict.reason == "K1 has infinite index in K0"
    orbit = orbit_bfs(K0, G.stable_letter(), budget=200)
    assert not orbit.closed and orbit.explored >= 200


def test_h1_membership_subgroup_element():
    G, K0 = shift_setup()
    verdict = h1_membership(K0, G.base_generator(1), budget=50)
    assert verdict.certified_in


def test_h1_membership_finite_index():
    H = subgroup(F2, INDEX_TWO_GENS)
    verdict = h1_membership(H, A, budget=10)
    assert verdict.certified_in
    replay_certificate(qn1_membership(H, F2.invert(A), budget=10).certificate)


def test_h1_refutation_from_either_side():
    H = subgroup(F2, [A])
    assert h1_membership(H, B, budget=20).certified_out


# -- certificate algebra -------------------------------------------------------------


def test_identity_certificate_replay():
    H = subgroup(F2, INDEX_TWO_GENS)
    cert = identity_certificate(H, B)
    assert cert.cover_size == 1
    replay_certificate(cert)


def test_compose_certificates_stable_letter():
    G, K0 = shift_setup()
    t_inv = G.stable_letter(-1)
    cert = qn1_membership(K0, t_inv, budget=10).certificate
    squared = compose_certificates(cert, cert)
    assert squared.element == G.stable_letter(-2)
    assert squared.cover_size == 1
    replay_certificate(squared)


def test_compose_with_subgroup_element_keeps_cover_size():
    H = subgroup(F2, INDEX_TWO_GENS)
    cert_h = identity_certificate(H, H.generators[1])
    cert_g = qn1_membership(H, A, budget=10).certificate
    composed = compose_certificates(cert_h, cert_g)
    assert composed.cover_size <= cert_g.cover_size
    replay_certificate(composed)


def test_compose_with_identity_certificate():
    H = subgroup(F2, INDEX_TWO_GENS)
    cert_e = identity_certificate(H, identity(F2))
    cert_g = qn1_membership(H, A, budget=10).certificate
    composed = compose_certificates(cert_g, cert_e)
    assert composed.element == A
    assert composed.cover_size == cert_g.cover_size


def test_compose_rejects_mismatched_subgroups():
    H1 = subgroup(F2, [A])
    H2 = subgroup(F2, [B])
    c1 = identity_certificate(H1, A)
    c2 = identity_certificate(H2, B)
    with pytest.raises(CertificateError):
        compose_certificates(c1, c2)


def test_tampered_certificate_fails_replay():
    H = subgroup(F2, INDEX_TWO_GENS)
    cert = qn1_membership(H, A, budget=10).certificate
    bad = QnCertificate(
        subgroup=cert.subgroup,
        element=B,  # certified element swapped out
        cover=cert.cover,
        element_index=cert.element_index,
        transitions=cert.transitions,
    )
    with pytest.raises(CertificateError):
        replay_certificate(bad)



def test_tampered_transition_fails_replay_with_its_message():
    # S3 on three points: the stabilizer of 0 meets b's coset orbit in two cosets
    F = FreeGroupDescriptor.of_rank(2)
    H = subgroup(F, [F.element(w) for w in stabilizer_generators([(1, 0, 2), (1, 2, 0)])])
    cert = qn1_membership(H, F.element(generator(1)), budget=10).certificate
    assert cert.cover_size == 2
    row = cert.transitions[0]
    bad = replace(cert, transitions=(row[1:] + row[:1],) + cert.transitions[1:])
    name = F.format_element(H.generators[0])
    with pytest.raises(CertificateError,
                       match=rf"transition {re.escape(name)} on cover 0 does not land in cover"):
        replay_certificate(bad)

def test_translated_certificate_replays_for_double_coset_mates():
    S4 = from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
    H = subgroup(S4, [S4.generators()[0]])
    g = S4.generators()[1]
    cert = qn1_membership(H, g, budget=100).certificate
    members = [S4.element(i) for i in H.subset]
    mates = {S4.multiply(S4.multiply(h1, g), h2) for h1 in members for h2 in members}
    assert len(mates) > cert.cover_size
    for mate in mates:
        moved = translate_certificate(cert, mate)
        assert (moved.cover, moved.transitions) == (cert.cover, cert.transitions)
        replay_certificate(moved)
    outside = [x for x in all_elements(S4)
               if all(S4.multiply(S4.invert(c), x).payload not in H.subset for c in cert.cover)]
    assert outside
    for x in outside:
        with pytest.raises(CertificateError):
            translate_certificate(cert, x)


def test_product_compose_replays_only_the_composed_certificate(monkeypatch):
    G, K0 = shift_setup()
    t_inv_cert = qn1_membership(K0, G.stable_letter(-1), budget=10).certificate
    free_cert = qn1_membership(subgroup(F2, INDEX_TWO_GENS), A, budget=10).certificate
    replayed = []
    original = certificates.replay_certificate
    monkeypatch.setattr(certificates, "replay_certificate",
                        lambda cert: replayed.append(cert) or original(cert))
    pair_cert = product_compose(t_inv_cert, free_cert)
    assert replayed == [pair_cert]


def test_product_compose_rejects_tampered_component():
    G, K0 = shift_setup()
    t_inv_cert = qn1_membership(K0, G.stable_letter(-1), budget=10).certificate
    cert = qn1_membership(subgroup(F2, INDEX_TWO_GENS), A, budget=10).certificate
    bad = QnCertificate(subgroup=cert.subgroup, element=B, cover=cert.cover,
                        element_index=cert.element_index, transitions=cert.transitions)
    with pytest.raises(CertificateError):
        product_compose(t_inv_cert, bad)
    with pytest.raises(CertificateError):
        compose_certificates(bad, cert)


def test_product_compose_pairs():
    G, K0 = shift_setup()
    t_inv_cert = qn1_membership(K0, G.stable_letter(-1), budget=10).certificate
    pair_cert = product_compose(t_inv_cert, t_inv_cert)
    assert pair_cert.cover_size == 1
    replay_certificate(pair_cert)


def test_product_compose_mixed_families():
    G, K0 = shift_setup()
    H2 = subgroup(F2, INDEX_TWO_GENS)
    c1 = qn1_membership(K0, G.stable_letter(-1), budget=10).certificate
    c2 = qn1_membership(H2, A, budget=10).certificate
    cert = product_compose(c1, c2)
    assert cert.cover_size <= c1.cover_size * c2.cover_size
    replay_certificate(cert)


def test_product_verdict_out_dominates():
    HA = subgroup(F2, [A])
    v_in = qn1_membership(HA, A, budget=10)
    v_out = qn1_membership(HA, B, budget=10)
    P = DirectProductDescriptor(F2, F2)
    spec = product_subgroup(P, HA, HA)
    combined = product_verdict(v_in, v_out, spec)
    assert combined.certified_out
    combined_in = product_verdict(v_in, v_in, spec)
    assert combined_in.certified_in
    replay_certificate(combined_in.certificate)


# -- closed orbits hand their rows to the certificate ------------------------------

S4 = from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])


def s4(*perm):
    """The S4 element of a permutation tuple (``from_permutations`` sorts them)."""
    elements = sorted(itertools.permutations(range(4)))
    return S4.element(elements.index(perm))


SWAP01, SWAP23, CYCLE3, CYCLE4 = s4(1, 0, 2, 3), s4(0, 1, 3, 2), s4(1, 2, 0, 3), s4(1, 2, 3, 0)
D_INF = infinite_dihedral()
D_A, D_R = D_INF.generators()
F2_STAB = [F2.element(w) for w in stabilizer_generators([(1, 2, 3, 0), (1, 0, 2, 3)])]
Z2 = free_abelian_of_rank_two()
Z2_A = Z2.generators()[0]


def _cube(x):
    return D_INF.multiply(D_INF.multiply(x, x), x)


# name -> (group, subgroup generators, elements, largest cover); repeated
# generators, a generator listed with its inverse and involutions make
# generator_moves drop moves, so the k-th listed generator is not the k-th move
ORBIT_ROW_CASES = {
    "free_stabilizer": (F2, F2_STAB, enumerate_ball(F2, 3), 3),
    "free_repeats": (F2, F2_STAB + [F2_STAB[0], F2.invert(F2_STAB[1])], enumerate_ball(F2, 2), 3),
    "free_a_a": (F2, [A, A], enumerate_ball(F2, 2), 1),
    "free_a_a_inverse": (F2, [A, F2.invert(A)], enumerate_ball(F2, 2), 1),
    "table_cycle4_twice": (S4, [CYCLE4, CYCLE4], all_elements(S4), 4),
    "table_cycle4_and_inverse": (S4, [CYCLE4, S4.invert(CYCLE4)], all_elements(S4), 4),
    "table_cycle3_then_involution": (S4, [CYCLE3, SWAP01], all_elements(S4), 3),
    "table_involution_then_cycle3": (S4, [SWAP01, CYCLE3], all_elements(S4), 3),
    "table_two_involutions": (S4, [SWAP01, SWAP23], all_elements(S4), 4),
    "coset_table": (D_INF, [_cube(D_A), D_R, D_R], enumerate_ball(D_INF, 4), 2),
    # an infinite-index subgroup of an abelian group: no coset table, and
    # membership is decided by the abelianization
    "fp_no_coset_table": (Z2, [Z2_A, Z2_A, Z2.invert(Z2_A)], enumerate_ball(Z2, 3), 1),
}


@pytest.mark.parametrize("name", sorted(ORBIT_ROW_CASES))
def test_orbit_certificate_equals_the_recomputed_certificate(name):
    group, gens, elements, largest = ORBIT_ROW_CASES[name]
    spec = subgroup(group, gens)
    covers = []
    for g in elements:
        verdict = qn1_membership(spec, g, budget=50)
        if not verdict.certified_in:
            continue
        cert = verdict.certificate
        expected = certificate_from_cover(spec, g, cert.cover)
        assert cert.subgroup is expected.subgroup
        assert cert.element == expected.element
        assert cert.cover == expected.cover
        assert cert.element_index == expected.element_index == 0
        assert cert.transitions == expected.transitions
        covers.append(cert.cover_size)
    assert max(covers) == largest


def test_orbit_rows_over_shift_tails_and_products():
    G, K0 = shift_setup(window=1)
    H = subgroup(F2, F2_STAB)
    P = DirectProductDescriptor(F2, G)
    spec = product_subgroup(P, H, K0)
    assert isinstance(spec, ProductSubgroup)
    cases = [(K0, g) for g in enumerate_ball(G, 2)]
    cases += [(spec, P.pair(x, y)) for x in enumerate_ball(F2, 2)
              for y in (G.identity(), G.stable_letter(-1), G.base_generator(1))]
    closed = 0
    for sub, g in cases:
        orbit = orbit_bfs(sub, g, budget=30)
        if not orbit.closed:
            assert orbit.transitions is None
            continue
        closed += 1
        expected = certificate_from_cover(sub, g, orbit.representatives)
        assert orbit.representatives == expected.cover
        assert orbit.transitions == expected.transitions
    assert closed > 10


def test_open_orbits_keep_no_rows():
    orbit = orbit_bfs(subgroup(F2, [A]), B, budget=5)
    assert not orbit.closed and orbit.transitions is None
