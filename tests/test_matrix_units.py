"""Matrix units of a subalgebra, the structure every other reader relies on."""

from itertools import permutations, product

import numpy as np
import pytest

from qnbench.acceptance import _DIM_POOL, _random_inclusion
from qnbench.errors import ConstructionError
from qnbench.expectations import (
    SubalgebraHandle,
    diagonal_subalgebra,
    full_subalgebra,
    matrix_units,
)
from qnbench.matrixalg import build_algebra
from test_basic_construction import NON_ABELIAN, SUBALGEBRA_DIMS, _non_abelian

TOL = 1e-12


def assert_matrix_units(sub):
    """``E_ab E_cd = delta_bc E_ad``, ``E_ab* = E_ba``, units in ``B``, equal
    traces on the diagonal, orthogonal summands, ``sum E_aa = 1`` and
    ``sum d_j^2 = dim B``."""
    ambient = sub.ambient
    units = matrix_units(sub)
    assert sum(len(grid) ** 2 for grid in units) == sub.dim
    total = ambient.zero()
    for grid in units:
        d = len(grid)
        for a, b in product(range(d), repeat=2):
            e = grid[a][b]
            assert sub.contains(e, tol=TOL)
            assert (e.adjoint() - grid[b][a]).norm2() <= TOL
            for c, f in product(range(d), repeat=2):
                target = grid[a][f] if b == c else ambient.zero()
                assert (e @ grid[c][f] - target).norm2() <= TOL
        for a in range(d):
            assert abs(grid[a][a].trace() - grid[0][0].trace()) <= TOL
            total = total + grid[a][a]
    for left, right in permutations(units, 2):
        assert (left[0][0] @ right[0][0]).norm2() <= TOL
    assert (total - ambient.one()).norm2() <= TOL
    return units


@pytest.mark.parametrize("dims", _DIM_POOL, ids=str)
def test_units_of_the_criterion_six_pool(dims):
    # criterion 6 draws B as the closure of one self-adjoint element; the
    # whole algebra adds a non-abelian B of every shape in the pool
    algebra, sub, _ = _random_inclusion(np.random.default_rng(len(dims)), False, pool=[dims])
    assert [len(g) for g in assert_matrix_units(sub)] == [1] * sub.dim
    units = assert_matrix_units(full_subalgebra(algebra))
    assert sorted(len(g) for g in units) == sorted(dims)


@pytest.mark.parametrize("case", NON_ABELIAN)
def test_units_of_non_abelian_subalgebras(case):
    _, sub = _non_abelian(case)
    units = assert_matrix_units(sub)
    assert sum(len(g) ** 2 for g in units) == SUBALGEBRA_DIMS[case]
    assert max(len(g) for g in units) > 1


def test_units_of_a_skew_basis_handle():
    # a handle whose basis past the identity is i times self-adjoint
    M = build_algebra([2, 3], [1 / 10, 4 / 15])
    B = diagonal_subalgebra(M)
    skew = [B.basis[0]] + [1j * b for b in B.basis[1:]]
    handle = SubalgebraHandle(ambient=M,
                              coordinates=np.stack([M.to_vector(b) for b in skew], axis=1))
    assert len(assert_matrix_units(handle)) == 5


def test_a_span_that_is_not_an_algebra_is_rejected():
    # span{1, e12} is not closed under adjoints: its generic element links
    # two minimal projections into a 2 x 2 summand, which does not fit
    M = build_algebra([2], [0.5])
    span = [M.one(), np.sqrt(2) * M.matrix_unit(0, 0, 1)]
    handle = SubalgebraHandle(ambient=M,
                              coordinates=np.stack([M.to_vector(b) for b in span], axis=1))
    with pytest.raises(ConstructionError):
        matrix_units(handle)
