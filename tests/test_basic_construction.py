import numpy as np
import pytest

from qnbench.acceptance import _random_inclusion
from qnbench.basic import (
    basic_construction,
    left_operator,
    module_projection,
    qn1_module_test,
    right_operator,
)
from qnbench.bimodule import BimoduleBasis, orthonormal_basis
from qnbench.errors import RepresentationError
from qnbench.expectations import (
    conditional_expectation,
    diagonal_subalgebra,
    full_subalgebra,
    scalar_subalgebra,
    subalgebra_closure,
)
from qnbench.matrixalg import build_algebra
from test_block_stacks import remove_component, span_projector


def m2_diag():
    M = build_algebra([2], [0.5])
    B = diagonal_subalgebra(M)
    return M, B, basic_construction(B)


def random_inclusion(seed):
    rng = np.random.default_rng(seed)
    M = build_algebra([2, 2], [1 / 8, 3 / 8])
    B = subalgebra_closure(M, [M.random_selfadjoint(rng)])
    return rng, M, B, basic_construction(B)


# -- operators -------------------------------------------------------------------


def test_left_right_operators_commute():
    M = build_algebra([2, 1], [1 / 3, 1 / 3])
    rng = np.random.default_rng(0)
    x, y = M.random_element(rng), M.random_element(rng)
    lx, ry = left_operator(x), right_operator(y)
    assert np.linalg.norm(lx @ ry - ry @ lx) < 1e-12


def test_operators_realize_multiplication():
    M = build_algebra([2, 2], [1 / 8, 3 / 8])
    rng = np.random.default_rng(1)
    x, z = M.random_element(rng), M.random_element(rng)
    np.testing.assert_allclose(left_operator(x) @ M.to_vector(z), M.to_vector(x @ z), atol=1e-12)
    np.testing.assert_allclose(right_operator(x) @ M.to_vector(z), M.to_vector(z @ x), atol=1e-12)


def test_left_adjoint_matches_star():
    M = build_algebra([3], [1 / 3])
    rng = np.random.default_rng(2)
    x = M.random_element(rng)
    np.testing.assert_allclose(left_operator(x).conj().T, left_operator(x.adjoint()), atol=1e-12)


def test_conjugation_properties():
    # the canonical conjugation J of the GNS space is the adjoint map
    M, B, c = m2_diag()
    rng = np.random.default_rng(3)
    x, y = M.random_element(rng), M.random_element(rng)
    # isometric conjugate-linear involution with <x, y> = <Jy, Jx>
    assert (x.adjoint().adjoint() - x).norm2() < 1e-13
    assert abs(x.inner(y) - y.adjoint().inner(x.adjoint())) < 1e-12


# -- the projection ---------------------------------------------------------------


def test_projection_implements_expectation():
    M, B, c = m2_diag()
    E = conditional_expectation(B)
    rng = np.random.default_rng(4)
    x = M.random_element(rng)
    np.testing.assert_allclose(c.e_sub @ M.to_vector(x), M.to_vector(E(x)), atol=1e-12)


def test_projection_rank_of_diagonal_inclusion():
    M, B, c = m2_diag()
    assert M.dim == 4
    assert int(round(np.trace(c.e_sub).real)) == 2


def test_compression_identity():
    # e x e = E(x) e as operators, to near machine precision
    for seed in range(3):
        rng, M, B, c = random_inclusion(seed)
        E = conditional_expectation(B)
        x = M.random_element(rng)
        lhs = c.e_sub @ left_operator(x) @ c.e_sub
        rhs = left_operator(E(x)) @ c.e_sub
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_full_subalgebra_gives_identity_projection():
    M = build_algebra([2], [0.5])
    B = full_subalgebra(M)
    c = basic_construction(B)
    np.testing.assert_allclose(c.e_sub, np.eye(4), atol=1e-12)
    rng = np.random.default_rng(5)
    x = M.random_element(rng)
    assert abs(c.extension_trace(left_operator(x)) - x.trace()) < 1e-12


# -- canonical trace ---------------------------------------------------------------


def test_trace_of_projection_is_one():
    for seed in range(3):
        _, _, _, c = random_inclusion(seed)
        assert abs(c.extension_trace(c.e_sub) - 1.0) < 1e-10


def test_trace_identity_on_spanning_set():
    M, B, c = m2_diag()
    worst = 0.0
    for x in M.basis():
        for y in M.basis():
            lhs = c.extension_trace(c.basic_operator(x, y))
            worst = max(worst, abs(lhs - (x @ y).trace()))
    assert worst < 1e-10


def test_trace_invariant_under_module_basis_choice():
    # a module basis of the whole algebra, read from the identity projector,
    # differs from the trace vectors (1, then the complement of B) but gives
    # the same canonical trace
    rng, M, B, c = random_inclusion(7)
    E = conditional_expectation(B)
    other = orthonormal_basis(B, E, np.eye(M.dim))
    for _ in range(6):
        x, y = M.random_element(rng), M.random_element(rng)
        op = c.basic_operator(x, y)
        alt = sum(
            complex(np.vdot(M.to_vector(eta), op @ M.to_vector(eta)))
            for eta in other.vectors
        )
        assert abs(alt - c.extension_trace(op)) < 1e-9


def test_vector_norm_matches_operator_norm():
    # |w e|_Tr = |w(trace vector)|_tau for random w in the extension algebra
    rng, M, B, c = random_inclusion(8)
    for _ in range(20):
        x, y = M.random_element(rng), M.random_element(rng)
        w = c.basic_operator(x, y) + left_operator(M.random_element(rng))
        assert c.vector_norm_residuals(w[None])[0] < 1e-9


# -- vector operators ----------------------------------------------------------------
# the operator attached to a vector eta of the GNS space is x -> eta x, that is
# left_operator(eta)


def test_vector_operator_of_element_vector_is_left_multiplication():
    M, B, c = m2_diag()
    x, z = M.matrix_unit(0, 0, 1), M.random_element(np.random.default_rng(8))
    np.testing.assert_allclose(left_operator(x) @ M.to_vector(z), M.to_vector(x @ z), atol=1e-13)


def test_vector_operator_of_trace_vector_is_identity():
    M, B, c = m2_diag()
    np.testing.assert_allclose(left_operator(M.one()), np.eye(4), atol=1e-13)


def test_vector_operator_commutes_with_right_action():
    rng, M, B, c = random_inclusion(9)
    eta = M.random_element(rng)
    for b in B.basis:
        assert np.linalg.norm(
            left_operator(eta) @ right_operator(b)
            - right_operator(b) @ left_operator(eta)
        ) < 1e-10


# -- pull-down ------------------------------------------------------------------------


def test_pull_down_on_matrix_units():
    M, B, c = m2_diag()
    e12, e21 = M.matrix_unit(0, 0, 1), M.matrix_unit(0, 1, 0)
    out = c.pull_down(c.basic_operator(e12, e21))
    assert (out - M.matrix_unit(0, 0, 0)).norm2() < 1e-10


def test_pull_down_of_projection_is_identity():
    M, B, c = m2_diag()
    out = c.pull_down(c.basic_operator(M.one(), M.one()))
    assert (out - M.one()).norm2() < 1e-10


def test_pull_down_factorizes_vector_operators():
    # pull-down of w e w* equals (w vector)(w vector)*
    rng, M, B, c = random_inclusion(10)
    for _ in range(10):
        w = c.basic_operator(M.random_element(rng), M.random_element(rng))
        eta = M.from_vector(w @ M.to_vector(M.one()))
        out = c.pull_down(w @ c.e_sub @ w.conj().T)
        assert (out - eta @ eta.adjoint()).norm2() < 1e-9


def test_pull_down_rejects_operators_outside_span():
    M, B, c = m2_diag()
    # a right multiplication generically lies outside the x e y span
    bad = right_operator(M.matrix_unit(0, 0, 1))
    with pytest.raises(RepresentationError):
        c.pull_down(bad)


def test_pull_down_linear():
    rng, M, B, c = random_inclusion(11)
    w1 = c.basic_operator(M.random_element(rng), M.random_element(rng))
    w2 = c.basic_operator(M.random_element(rng), M.random_element(rng))
    combined = c.pull_down(w1 + 2j * w2)
    assert (combined - (c.pull_down(w1) + 2j * c.pull_down(w2))).norm2() < 1e-9


# -- module bases -----------------------------------------------------------------------


def test_module_basis_of_off_diagonal_corner():
    M, B, c = m2_diag()
    E = conditional_expectation(B)
    basis = orthonormal_basis(B, E, span_projector(B, [M.matrix_unit(0, 0, 1)]))
    assert basis.length == 1
    assert (basis.vectors[0] - M.matrix_unit(0, 0, 1)).norm2() < 1e-12
    assert (basis.supports[0] - M.matrix_unit(0, 1, 1)).norm2() < 1e-12


def test_module_basis_of_subalgebra_is_trace_vector():
    M, B, c = m2_diag()
    E = conditional_expectation(B)
    basis = orthonormal_basis(B, E, span_projector(B, [M.one()]))
    assert basis.length == 1
    assert (basis.vectors[0] - M.one()).norm2() < 1e-12
    assert (basis.supports[0] - M.one()).norm2() < 1e-12


def test_module_basis_of_everything_has_length_two():
    M, B, c = m2_diag()
    E = conditional_expectation(B)
    basis = orthonormal_basis(B, E, span_projector(B, [M.one()] + M.basis()))
    assert basis.length == 2
    rng = np.random.default_rng(12)
    x = M.random_element(rng)
    assert basis.reconstruction_residual(x) < 1e-9
    assert basis.gram_defect() < 1e-10


def test_module_reconstruction_on_random_inclusions():
    for seed in range(3):
        rng, M, B, c = random_inclusion(20 + seed)
        E = conditional_expectation(B)
        basis = orthonormal_basis(B, E, span_projector(B, [M.one()] + M.basis()))
        for _ in range(5):
            x = M.random_element(rng)
            assert basis.reconstruction_residual(x) < 1e-9
        assert basis.gram_defect() < 1e-9


def test_module_projection_of_subalgebra_is_e():
    M, B, c = m2_diag()
    E = conditional_expectation(B)
    basis = orthonormal_basis(B, E, span_projector(B, [M.one()]))
    np.testing.assert_allclose(module_projection(basis), c.e_sub, atol=1e-10)


def test_module_projection_of_everything_is_identity():
    M, B, c = m2_diag()
    E = conditional_expectation(B)
    basis = orthonormal_basis(B, E, span_projector(B, [M.one()] + M.basis()))
    np.testing.assert_allclose(module_projection(basis), np.eye(4), atol=1e-9)


def test_module_projection_properties():
    rng, M, B, c = random_inclusion(30)
    E = conditional_expectation(B)
    x = M.random_element(rng)
    basis = orthonormal_basis(
        B, E, span_projector(B, [b1 @ x @ b2 for b1 in B.basis for b2 in B.basis]))
    p = module_projection(basis)
    assert np.linalg.norm(p @ p - p) < 1e-9
    assert np.linalg.norm(p - p.conj().T) < 1e-9
    for b in B.basis:
        # commutes with the right action always, and with the left action
        # here because the module is a two-sided module
        assert np.linalg.norm(p @ right_operator(b) - right_operator(b) @ p) < 1e-9
        assert np.linalg.norm(p @ left_operator(b) - left_operator(b) @ p) < 1e-9


# -- reference: the B-valued Gram-Schmidt ----------------------------------------------


def gram_schmidt_basis(sub, expectation, module_generators, cutoff=1e-10):
    """Module basis by a B-valued Gram-Schmidt sweep, the construction the
    closed form replaced: subtract the components along earlier vectors, then
    polar-normalize the remainder through the pseudo inverse square root of
    its Gram element, and merge vectors whose supports are orthogonal."""
    vectors, supports = [], []
    for zeta in [g @ b for g in module_generators for b in sub.basis]:
        remainder = zeta
        for eta in vectors:
            remainder = remainder - eta @ expectation(eta.adjoint() @ remainder)
        roots = gram_root_inverse(expectation(remainder.adjoint() @ remainder), cutoff)
        if roots is None:  # Gram rank zero: the remainder is noise
            continue
        root_inv, support = roots
        vectors.append(remainder @ root_inv)
        supports.append(support)
    vectors, supports = _merge_orthogonal_supports(vectors, supports, cutoff)
    return BimoduleBasis(subalgebra=sub, expectation=expectation,
                         vectors=vectors, supports=supports)


def gram_root_inverse(gram, cutoff):
    """Pseudo inverse square root and support of a Gram element, or ``None``.

    Only eigenvalues above ``cutoff`` count: ``E_B(r* r)`` is positive, so a
    negative eigenvalue is rounding noise whose root would be NaN.
    """
    spectra = [np.linalg.eigh(block) for block in gram.blocks]
    if not any((vals > cutoff).any() for vals, _ in spectra):
        return None

    def apply(func):
        return gram.algebra.element([
            (vecs * (func(np.where(vals > cutoff, vals, 1.0)) * (vals > cutoff)))
            @ vecs.conj().T for vals, vecs in spectra])

    return apply(lambda v: 1.0 / np.sqrt(v)), apply(np.ones_like)


def _merge_orthogonal_supports(vectors, supports, cutoff):
    # if p_i p_j = 0, eta_i + eta_j has Gram p_i + p_j and the mixed
    # reconstruction terms vanish
    out_vecs, out_sups = [], []
    for eta, p in zip(vectors, supports):
        for i in range(len(out_vecs)):
            if (out_sups[i] @ p).norm2() <= cutoff:
                out_vecs[i], out_sups[i] = out_vecs[i] + eta, out_sups[i] + p
                break
        else:
            out_vecs.append(eta)
            out_sups.append(p)
    return out_vecs, out_sups


def test_gram_root_inverse_drops_negative_noise():
    # a Gram element E_B(r* r) whose rounding noise went below -cutoff: the
    # root inverse must skip it rather than take the root of a negative number
    M = build_algebra([2, 1], [1 / 3, 1 / 3])
    gram = M.element([np.diag([4.0, -3e-10]), np.array([[-2e-10]])])
    root_inv, support = gram_root_inverse(gram, cutoff=1e-10)
    assert all(np.isfinite(b).all() for b in root_inv.blocks)
    assert (root_inv - M.element([np.diag([0.5, 0.0]), np.zeros((1, 1))])).norm2() < 1e-15
    assert (support - M.element([np.diag([1.0, 0.0]), np.zeros((1, 1))])).norm2() < 1e-15
    noise = M.element([np.diag([5e-11, -3e-10]), np.array([[-2e-10]])])
    assert gram_root_inverse(noise, cutoff=1e-10) is None


def _units(n):
    return [np.eye(n)[:, [i]] @ np.eye(n)[[j], :] for i in range(n) for j in range(n)]


def _pad(x, n):
    out = np.zeros((n, n), dtype=complex)
    out[:len(x), :len(x)] = x
    return out


def _non_abelian(name):
    """Inclusions with a non-abelian subalgebra, named by ``B < M``."""
    if name == "m2x1<m4":
        M = build_algebra([4], [1 / 4])
        gens = [M.element([np.kron(u, np.eye(2))]) for u in _units(2)]
    elif name == "m2<m2+m2":
        M = build_algebra([2, 2], [0.2, 0.3])
        gens = [M.element([u, u]) for u in _units(2)]
    elif name == "m2+c<m3":
        M = build_algebra([3], [1 / 3])
        gens = [M.element([_pad(u, 3)]) for u in _units(2)]
        gens.append(M.matrix_unit(0, 2, 2))
    elif name == "m2+c<m3+m2":
        M = build_algebra([3, 2], [0.2, 0.2])
        gens = [M.element([_pad(u, 3), u]) for u in _units(2)]
        gens.append(M.matrix_unit(0, 2, 2))
    else:  # "m3x1<m6"
        M = build_algebra([6], [1 / 6])
        gens = [M.element([np.kron(u, np.eye(2))]) for u in _units(3)]
    return M, subalgebra_closure(M, gens)


NON_ABELIAN = ["m2x1<m4", "m2<m2+m2", "m2+c<m3", "m2+c<m3+m2", "m3x1<m6"]
SUBALGEBRA_DIMS = {"m2x1<m4": 4, "m2<m2+m2": 4, "m2+c<m3": 5, "m2+c<m3+m2": 5, "m3x1<m6": 9}


def _inclusion(case):
    if case in NON_ABELIAN:
        return _non_abelian(case)
    M, B, _ = _random_inclusion(np.random.default_rng(case), with_mid=False)
    return M, B


@pytest.mark.parametrize("case", list(range(20)) + NON_ABELIAN)
def test_module_basis_matches_gram_schmidt_reference(case):
    # the closed-form basis against the B-valued Gram-Schmidt on the trace
    # vectors, the whole algebra, a two-sided and a one-sided module: same
    # module projection, and both basis identities hold
    M, B = _inclusion(case)
    if case in NON_ABELIAN:
        assert B.dim == SUBALGEBRA_DIMS[case]
    c = basic_construction(B)
    E = conditional_expectation(B)
    rng = np.random.default_rng(77)
    x = M.random_element(rng)
    for gens in (remove_component(M.basis(), E), [M.one()] + M.basis(),
                 [b1 @ x @ b2 for b1 in B.basis for b2 in B.basis], [x]):
        basis = orthonormal_basis(B, E, span_projector(B, gens))
        reference = gram_schmidt_basis(B, E, gens)
        assert np.linalg.norm(module_projection(basis)
                              - module_projection(reference), 2) <= 1e-10
        assert basis.gram_defect() <= 1e-9
        v = M.zero()
        for g in gens:
            v = v + g @ B.project(M.random_element(rng))
        assert basis.reconstruction_residual(v) <= 1e-9


# -- expectation removal -------------------------------------------------------------------


def test_remove_component_examples():
    M, B, c = m2_diag()
    E = conditional_expectation(B)
    inside = B.basis[1]
    off = M.matrix_unit(0, 0, 1)
    outs = remove_component([inside, off], E)
    assert outs[0].norm2() < 1e-12
    assert (outs[1] - off).norm2() < 1e-12
    rng = np.random.default_rng(40)
    x, y = M.random_element(rng), M.random_element(rng)
    r1, r2 = remove_component([x + y], E)[0], remove_component([x], E)[0] + remove_component([y], E)[0]
    assert (r1 - r2).norm2() < 1e-12
    assert E(remove_component([x], E)[0]).norm2() < 1e-12


# -- module reports --------------------------------------------------------------------------


def test_qn1_module_of_subalgebra_element_sits_under_e():
    M, B, c = m2_diag()
    report = qn1_module_test(B, B.basis[1])
    p = report.projection
    assert np.linalg.norm(c.e_sub @ p - p) < 1e-9


def test_qn1_module_of_matrix_unit():
    M, B, c = m2_diag()
    unit = M.matrix_unit(0, 0, 1)
    report = qn1_module_test(B, unit)
    assert report.module_dim == 1
    v = M.to_vector(unit)
    expected = np.outer(v, v.conj()) / np.vdot(v, v).real
    assert np.linalg.norm(report.projection - expected, 2) < 1e-10


@pytest.mark.parametrize("seed", range(30))
def test_qn1_module_matches_gram_schmidt_reference(seed):
    # the column-span projector against module_projection of the B-valued
    # Gram-Schmidt basis of the same module, on the acceptance suite's pool
    rng = np.random.default_rng(seed)
    M, B, _ = _random_inclusion(rng, with_mid=False)
    c = basic_construction(B)
    x = M.random_element(rng)
    report = qn1_module_test(B, x)
    E = conditional_expectation(B)
    basis = gram_schmidt_basis(B, E, [b1 @ x @ b2 for b1 in B.basis for b2 in B.basis])
    reference = module_projection(basis)
    assert report.module_dim == round(float(np.trace(reference).real))
    assert np.linalg.norm(report.projection - reference, 2) <= 1e-10


def test_qn1_module_over_scalars():
    M = build_algebra([2], [0.5])
    B = scalar_subalgebra(M)
    rng = np.random.default_rng(50)
    x = M.random_element(rng)
    report = qn1_module_test(B, x)
    assert report.module_dim == 1  # the line through x
