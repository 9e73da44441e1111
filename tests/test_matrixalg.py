import numpy as np
import pytest

from qnbench.bimodule import module_frame
from qnbench.corners import cutdown, tensor_subalgebra
from qnbench.errors import ConstructionError, GroupValidationError, InputFormatError
from qnbench.expectations import cache_units, diagonal_subalgebra, scalar_subalgebra
from qnbench.matrixalg import (
    build_algebra,
    eigenvalue_clusters,
    spectral_calculus,
    spectral_projections,
)
from qnbench.tolerances import Tolerances


def test_build_m2_normalized():
    M = build_algebra([2], [0.5])
    assert not M.rescaled
    assert abs(M.one().trace() - 1) < 1e-14
    assert M.dim == 4


def test_build_two_scalars():
    M = build_algebra([1, 1], [0.5, 0.5])
    x = M.element([[[2.0]], [[4.0]]])
    assert abs(x.trace() - 3.0) < 1e-14


def test_build_m2_plus_c():
    M = build_algebra([2, 1], [1 / 3, 1 / 3])
    assert abs(M.one().trace() - 1) < 1e-14


def test_rescale_flag():
    M = build_algebra([2], [1.0])  # sums to 2, rescaled to 1/2
    assert M.rescaled
    assert abs(M.block_weights[0] - 0.5) < 1e-14


def test_a_loose_weight_sum_keeps_no_unnormalized_trace():
    # weight_sum = 1 would keep tau(1) = 2, which the closure cannot use
    with pytest.raises(GroupValidationError, match=r"weight_sum = 1 .* tau\(1\) = 2"):
        build_algebra([2], [1.0], Tolerances(weight_sum=1.0))
    # a drift the default keeps stays kept
    assert not build_algebra([2], [0.5 + 1e-13], Tolerances(weight_sum=1.0)).rescaled


def test_invalid_weights():
    with pytest.raises(GroupValidationError):
        build_algebra([2], [-0.5])
    with pytest.raises(GroupValidationError):
        build_algebra([0], [1.0])


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weights_rejected(weight):
    # NaN passes both `w <= 0` and the normalization test, since every
    # comparison with it is false
    with pytest.raises(GroupValidationError, match="finite"):
        build_algebra([2], [weight])
    with pytest.raises(GroupValidationError, match="finite"):
        build_algebra([1, 1], [0.5, weight])


def test_norm_matches_trace_formula():
    M = build_algebra([2, 1], [1 / 3, 1 / 3])
    rng = np.random.default_rng(0)
    x = M.random_element(rng)
    assert abs(x.norm2() ** 2 - (x.adjoint() @ x).trace().real) < 1e-12


def test_trace_is_tracial():
    M = build_algebra([2, 3], [0.1, 0.8 / 3])
    rng = np.random.default_rng(1)
    x, y = M.random_element(rng), M.random_element(rng)
    assert abs((x @ y).trace() - (y @ x).trace()) < 1e-12


def test_vector_roundtrip_and_isometry():
    M = build_algebra([2, 2], [1 / 8, 3 / 8])
    rng = np.random.default_rng(2)
    x, y = M.random_element(rng), M.random_element(rng)
    assert (M.from_vector(M.to_vector(x)) - x).norm2() < 1e-13
    assert abs(np.vdot(M.to_vector(y), M.to_vector(x)) - x.inner(y)) < 1e-12


def test_adjoint_is_conjugate_transpose_blockwise():
    M = build_algebra([2], [0.5])
    x = M.element([[[1, 2j], [3, 4]]])
    np.testing.assert_allclose(x.adjoint().blocks[0], np.array([[1, 3], [-2j, 4]]))


def test_tensor_dims_and_trace():
    A = build_algebra([2], [0.5])
    B = build_algebra([1, 1], [0.5, 0.5])
    T = A.tensor(B)
    assert T.block_dims == (2, 2)
    assert abs(sum(w * n for w, n in zip(T.block_weights, T.block_dims)) - 1) < 1e-14
    rng = np.random.default_rng(3)
    x, y = A.random_element(rng), B.random_element(rng)
    t = A.tensor_element(T, x, y)
    assert abs(t.trace() - x.trace() * y.trace()) < 1e-12


def test_spectral_calculus_pseudo_inverse_sqrt():
    M = build_algebra([2], [0.5])
    q = M.element([[[4.0, 0], [0, 0]]])
    s = spectral_calculus(q, lambda v: 1 / np.sqrt(v), cutoff=1e-10)
    np.testing.assert_allclose(s.blocks[0], [[0.5, 0], [0, 0]], atol=1e-12)
    p = spectral_calculus(q, lambda v: 1.0, cutoff=1e-10)
    np.testing.assert_allclose(p.blocks[0], [[1, 0], [0, 0]], atol=1e-12)


def test_tolerances_override():
    t = Tolerances().override(reconstruction=1e-8)
    assert t.reconstruction == 1e-8
    assert "reconstruction" in Tolerances.field_names()
    with pytest.raises(InputFormatError):
        Tolerances().override(unitary=float("nan"))
    with pytest.raises(InputFormatError, match="weight_sum"):
        Tolerances().override(weight_sum=-5.0)
    assert Tolerances().override(weight_sum=0.0).weight_sum == 0.0
    with pytest.raises(InputFormatError, match="subalgebra_closure must be positive"):
        Tolerances().override(subalgebra_closure=0.0)  # the path of documents and --tolerance


def loose_m2():
    """``M_2`` whose unit check and rank cutoffs are far above the defaults."""
    return build_algebra([2], [0.5], Tolerances().override(construction_identity=1e-3,
                                                           subalgebra_closure=1e-4))


def test_matrix_units_are_checked_within_the_algebra_tolerance():
    # E_11 scaled by 1 + 1e-6 misses E_11 E_11* = E_11 by 7.07e-07
    def units(M):
        return [[[(1 + 1e-6) * M.matrix_unit(0, 0, 0)]], [[M.matrix_unit(0, 1, 1)]]]

    M = build_algebra([2], [0.5])
    with pytest.raises(ConstructionError, match="7.07e-07 exceeds 1.00e-08"):
        cache_units(diagonal_subalgebra(M), units(M))
    M = loose_m2()
    loose = units(M)
    assert cache_units(diagonal_subalgebra(M), loose).units is loose


def test_module_frame_cuts_at_the_algebra_tolerance():
    # over the scalars, 1 + 1e-6 E_11 and 1 are one direction at cutoff 1e-4
    for M, rank in ((build_algebra([2], [0.5]), 2), (loose_m2(), 1)):
        generators = M.stack([M.one() + 1e-6 * M.matrix_unit(0, 0, 0), M.one()])
        assert module_frame(scalar_subalgebra(M), generators).shape[1] == rank


def test_corners_and_tensor_products_inherit_the_tolerances():
    M = loose_m2()
    B = diagonal_subalgebra(M)
    cut = cutdown(B, M.matrix_unit(0, 0, 0))
    assert cut.corner.tolerances is M.tolerances
    assert cut.sub_corner.ambient.tolerances is M.tolerances
    assert M.tensor(build_algebra([1], [1.0])).tolerances is M.tolerances
    assert tensor_subalgebra(B, B).ambient.tolerances is M.tolerances


def test_spectral_projections_share_an_eigenvalue_across_blocks():
    # eigenvalue 1 sits in both blocks: one projection covers both
    M = build_algebra([2, 1], [1 / 3, 1 / 3])
    u = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    x = M.element([u @ np.diag([1.0, 2.0]) @ u.conj().T, [[1.0 + 1e-13]]])
    low, high = spectral_projections(x)
    assert (low + high - M.one()).norm2() < 1e-14
    np.testing.assert_allclose(low.blocks[0], u[:, [0]] @ u[:, [0]].conj().T, atol=1e-14)
    np.testing.assert_allclose(low.blocks[1], [[1.0]])
    np.testing.assert_allclose(high.blocks[1], [[0.0]])


def test_eigenvalue_clusters_split_at_the_relative_gap():
    vals = np.array([3.0, 1.0, 1.0 + 1e-12, 1.0 + 1e-6])
    assert [list(c) for c in eigenvalue_clusters(vals)] == [[1, 2], [3], [0]]
    assert [list(c) for c in eigenvalue_clusters(1e9 * vals[:3])] == [[1, 2], [0]]
