import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from qnbench import acceptance, basic, expectations, matrixalg
from qnbench.basic import basic_construction, qn1_module_test
from qnbench.bimodule import module_dimension
from qnbench.corners import cutdown, cutdown_comparison, tensor_module_check
from qnbench.errors import GroupValidationError
from qnbench.expectations import (
    SubalgebraHandle,
    central_projections,
    diagonal_subalgebra,
    full_subalgebra,
    matrix_units,
    scalar_subalgebra,
    subalgebra_closure,
)
from qnbench.matrixalg import build_algebra
from test_block_stacks import inclusions


def m2_diag():
    M = build_algebra([2], [0.5])
    return M, diagonal_subalgebra(M)


def m2_m3_diag():
    M = build_algebra([2, 3], [1 / 10, 4 / 15])
    return M, diagonal_subalgebra(M)


def test_cutdown_by_identity_is_everything():
    M, B = m2_diag()
    cut = cutdown(B, M.one())
    assert cut.corner.block_dims == (2,)
    rng = np.random.default_rng(0)
    x = M.random_element(rng)
    assert (cut.compress(x) - cut.corner.element([x.blocks[0]])).norm2() < 1e-12


def test_cutdown_one_dimensional_corner():
    M, B = m2_diag()
    e = M.matrix_unit(0, 0, 0)
    cut = cutdown(B, e)
    assert cut.corner.block_dims == (1,)
    assert abs(cut.corner.one().trace() - 1.0) < 1e-12
    assert cut.sub_corner.dim == 1


def test_cutdown_renormalizes_trace():
    M, B = m2_m3_diag()
    e = M.element([np.diag([1.0, 0.0]), np.diag([1.0, 1.0, 0.0])])
    cut = cutdown(B, e)
    assert cut.corner.block_dims == (1, 2)
    rng = np.random.default_rng(1)
    x = M.random_element(rng)
    compressed = cut.compress(e @ x @ e)
    assert abs(compressed.trace() - (e @ x @ e).trace() / e.trace().real) < 1e-10


def test_cutdown_weights_are_ambient_weights_over_trace_of_projection():
    # three blocks of unequal weight; e drops the middle block and cuts the
    # others down, so each kept block k carries w_k / tau(e)
    M = build_algebra([2, 1, 3], [0.05, 0.3, 0.2])
    B = diagonal_subalgebra(M)
    e = M.element([np.diag([0.0, 1.0]), np.zeros((1, 1)), np.diag([1.0, 0.0, 1.0])])
    tau_e = 0.05 + 2 * 0.2
    assert abs(e.trace().real - tau_e) < 1e-15
    cut = cutdown(B, e)
    assert cut.kept_blocks == [0, 2]
    assert cut.corner.block_dims == (1, 2)
    np.testing.assert_allclose(cut.corner.block_weights, [0.05 / tau_e, 0.2 / tau_e],
                               rtol=1e-14)


def test_cutdown_rejects_non_projection():
    M, B = m2_diag()
    with pytest.raises(GroupValidationError):
        cutdown(B, 2.0 * M.one())
    with pytest.raises(GroupValidationError):
        cutdown(B, M.matrix_unit(0, 0, 1))


def test_cutdown_rejects_projection_outside_subalgebra():
    M = build_algebra([2], [0.5])
    B = scalar_subalgebra(M)
    with pytest.raises(GroupValidationError):
        cutdown(B, M.matrix_unit(0, 0, 0))


def test_central_projections_of_diagonal():
    M, B = m2_diag()
    projections = central_projections(B)
    assert len(projections) == 2
    total = projections[0] + projections[1]
    assert (total - M.one()).norm2() < 1e-9


def test_central_projections_of_full_algebra():
    M = build_algebra([2, 3], [1 / 10, 4 / 15])
    projections = central_projections(full_subalgebra(M))
    assert len(projections) == 2  # one per block


def test_central_projections_of_skew_basis():
    # an abelian handle whose basis past the identity is i times self-adjoint:
    # the central element must not be built from Hermitian parts of the basis
    M, B = m2_m3_diag()
    skew = [B.basis[0]] + [1j * b for b in B.basis[1:]]
    handle = SubalgebraHandle(ambient=M,
                              coordinates=np.stack([M.to_vector(b) for b in skew], axis=1))
    projections = central_projections(handle)
    assert len(projections) == 5
    assert all((p @ p - p).norm2() < 1e-12 for p in projections)


def test_cutdown_comparison_identity_projection():
    M, B = m2_diag()
    rng = np.random.default_rng(2)
    report = cutdown_comparison(B, M.one(), [M.random_element(rng)])
    assert report.worst_residual < 1e-9


def test_cutdown_comparison_central_projection():
    M, B = m2_m3_diag()
    rng = np.random.default_rng(3)
    e = M.element([np.eye(2), np.zeros((3, 3))])  # central in B (block cut)
    # zero has an empty module: its compressed generator list is empty
    samples = [M.random_element(rng) for _ in range(3)] + [M.zero()]
    report = cutdown_comparison(B, e, samples)
    assert report.worst_residual < 1e-9


def test_cutdown_comparison_minimal_central_pieces():
    M, B = m2_m3_diag()
    rng = np.random.default_rng(4)
    pieces = central_projections(B)
    e = pieces[0] + pieces[2] if len(pieces) > 2 else pieces[0]
    report = cutdown_comparison(B, e, [M.random_element(rng) for _ in range(2)])
    assert report.worst_residual < 1e-9


def test_tensor_module_dimensions_multiply():
    M1, B1 = m2_diag()
    M2 = build_algebra([2], [0.5])
    B2 = scalar_subalgebra(M2)
    rng = np.random.default_rng(5)
    x1, x2 = M1.random_element(rng), M2.random_element(rng)
    check = tensor_module_check(B1, x1, B2, x2)
    assert check.multiplicative
    assert check.left_dim == qn1_module_test(B1, x1).module_dim
    assert check.product_dim == check.left_dim * check.right_dim


def test_tensor_module_structured_example():
    M1, B1 = m2_diag()
    check = tensor_module_check(B1, M1.matrix_unit(0, 0, 1), B1, M1.matrix_unit(0, 1, 0))
    assert check.left_dim == 1 and check.right_dim == 1 and check.product_dim == 1


def test_tensor_module_check_never_decomposes_the_product(monkeypatch):
    # the product handle takes its factors' Kronecker units, so no spectral
    # decomposition may run on an element of M1 (x) M2
    M1, B1 = m2_m3_diag()
    M2 = build_algebra([2, 1], [1 / 3, 1 / 3])
    B2 = subalgebra_closure(M2, [M2.random_selfadjoint(np.random.default_rng(2))])
    product = M1.tensor(M2)
    algebras = []
    real = matrixalg.spectral_frames

    def counted(x):
        algebras.append(x.algebra)
        return real(x)

    monkeypatch.setattr(matrixalg, "spectral_frames", counted)
    monkeypatch.setattr(expectations, "spectral_frames", counted)
    rng = np.random.default_rng(7)
    for _ in range(3):
        check = tensor_module_check(B1, M1.random_element(rng), B2, M2.random_element(rng))
        assert check.multiplicative
    assert product not in algebras
    # the wrapper sees a decomposition where one runs
    matrix_units(SubalgebraHandle(ambient=M2, coordinates=B2.coordinates))
    assert algebras.count(M2) == 1


@settings(max_examples=40, deadline=None)
@given(inclusions(), st.data())
def test_basic_construction_builds_on_corners_cut_by_central_projections(case, data):
    # criterion 9 cuts by sums of minimal central projections; the corner
    # inclusion, with its renormalized weights, passes the build's trace
    # identity and Pimsner-Popa checks
    _, M, B = case
    pieces = central_projections(B)
    keep = sorted(data.draw(st.sets(st.integers(0, len(pieces) - 1), min_size=1)))
    cut = cutdown(B, sum((pieces[i] for i in keep[1:]), pieces[keep[0]]))
    assert abs(cut.corner.one().trace() - 1.0) < 1e-12
    c = basic_construction(cut.sub_corner)
    assert c.trace_residual <= c.algebra.tolerances.construction_identity
    assert c.pimsner_popa_defect <= c.algebra.tolerances.reconstruction


def test_module_checks_build_no_basic_construction(monkeypatch):
    # the corner comparison, the tensor check and criterion 9 read modules
    # over B alone: no basic construction, for an inclusion or its corner
    calls = []
    real = basic.basic_construction

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("qnbench") and getattr(module, "basic_construction", None) is real:
            monkeypatch.setattr(module, "basic_construction", counted)
    assert acceptance.criterion_9(acceptance.AcceptanceConfig(seed=42)).passed
    assert len(calls) == 0
    M, B = m2_m3_diag()
    rng = np.random.default_rng(8)
    report = cutdown_comparison(B, central_projections(B)[0], [M.random_element(rng)])
    assert report.worst_residual < 1e-9
    M1, B1 = m2_diag()
    assert tensor_module_check(B1, M1.random_element(rng), B1, M1.random_element(rng)) \
        .multiplicative
    assert len(calls) == 0
    # the wrapper sees a build where one runs
    basic.basic_construction(B)
    assert len(calls) == 1


def test_module_checks_reject_an_element_of_another_algebra():
    # a foreign element used to be zipped block by block with the handle's
    # stacks: qn1_module_test reported module_dim 4 and module_dimension
    # failed with a bare IndexError
    M = build_algebra([2, 2], [1 / 8, 3 / 8])
    B = diagonal_subalgebra(M)
    x = build_algebra([2], [0.5]).random_element(np.random.default_rng(0))
    calls = [
        lambda: qn1_module_test(B, x),
        lambda: module_dimension(B, [x]),
        lambda: cutdown_comparison(B, M.one(), [x]),
        lambda: tensor_module_check(B, x, B, M.one()),
        lambda: tensor_module_check(B, M.one(), B, x),
    ]
    for call in calls:
        with pytest.raises(GroupValidationError, match="elements of different algebras"):
            call()
    # an equal algebra built apart is the same algebra
    twin = build_algebra([2, 2], [1 / 8, 3 / 8])
    y = twin.random_element(np.random.default_rng(1))
    assert qn1_module_test(B, y).module_dim == 8  # B y B is all of M
    assert module_dimension(B, [y]) == 4  # y B
