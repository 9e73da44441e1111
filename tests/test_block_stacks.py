"""Per-block basis stacks against the element-at-a-time forms they replaced.

The references below form every product, Kronecker operator, tensor element
and closure round one at a time; they live here only, as oracles for the
batched module frames, left and right operators, product bases and
subalgebra closures.  ``reference_module_dimension`` is the single SVD over
every ``g b`` that the per-summand module dimension replaced, and
``reference_orthonormal_basis`` the span-built module basis that the
projector-built one replaced.
"""

from unittest import mock

import hypothesis.strategies as st
import numpy as np
from hypothesis import find, given, settings

from qnbench import expectations
from qnbench.acceptance import _DIM_POOL
from qnbench.basic import (
    basic_construction,
    left_operator,
    left_operators,
    module_projection,
    qn1_module_test,
    right_operator,
    right_operators,
)
from qnbench.bimodule import (
    BimoduleBasis,
    _products,
    module_dimension,
    module_frame,
    orthonormal_basis,
)
from qnbench.corners import cutdown, tensor_subalgebra
from qnbench.expectations import (
    SubalgebraHandle,
    _orthonormalize,
    central_projections,
    conditional_expectation,
    diagonal_subalgebra,
    full_subalgebra,
    matrix_units,
    scalar_subalgebra,
    subalgebra_closure,
)
from qnbench.matrixalg import build_algebra, spectral_projections
from qnbench.tolerances import Tolerances


def reference_frame(sub, generators):
    ambient = sub.ambient
    columns = np.array([ambient.to_vector(g @ b) for g in generators for b in sub.basis],
                       dtype=complex).reshape(-1, ambient.dim).T
    frame, svals, _ = np.linalg.svd(columns, full_matrices=False)
    cutoff = Tolerances().subalgebra_closure * np.max(svals, initial=1.0)
    return frame[:, svals > cutoff]


def reference_module_dimension(sub, generators):
    """Rank of the stacked ``vec(g b)`` for every generator and every basis
    element of ``B``, one SVD over the whole span."""
    svals = np.linalg.svd(_products(sub, sub.ambient.stack(generators)), compute_uv=False)
    return int(np.count_nonzero(svals > Tolerances().subalgebra_closure
                                * np.max(svals, initial=1.0)))


def remove_component(ys, expectation):
    """Subtract the conditional expectation: results are expectation-null."""
    return [y - expectation(y) for y in ys]


def span_projector(sub, generators):
    """Projector ``F F*`` onto the right module the generators span."""
    frame = module_frame(sub, sub.ambient.stack(generators))
    return frame @ frame.conj().T


def reference_orthonormal_basis(sub, expectation, generators):
    """Module basis of the generators' right module from its span: per
    ``p = E_11``, the left singular vectors of the ``x p`` over a frame ``x``
    of the module above the relative cutoff, phase-fixed, scaled by
    ``tau(p)^(1/2)`` and summed index by index."""
    ambient = sub.ambient
    frame = module_frame(sub, ambient.stack(generators))
    total = np.zeros((ambient.dim, 0), dtype=complex)
    supports = []
    for grid in expectations.matrix_units(sub):
        p = grid[0][0]
        columns = np.stack([ambient.to_vector(x @ p)
                            for x in ambient.elements(ambient.stacks_of(frame))] or
                           [np.zeros(ambient.dim)], axis=1)
        u, svals, _ = np.linalg.svd(columns, full_matrices=False)
        u = u[:, svals > Tolerances().subalgebra_closure * np.max(svals, initial=1.0)]
        peaks = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        u = u * (np.sqrt(p.trace().real) * peaks.conj() / np.abs(peaks))
        width = u.shape[1]
        total = np.pad(total, ((0, 0), (0, max(0, width - total.shape[1]))))
        total[:, :width] += u
        supports = [q + p for q in supports[:width]] + supports[width:] \
            + [p] * (width - len(supports))
    return BimoduleBasis(subalgebra=sub, expectation=expectation,
                         vectors=ambient.elements(ambient.stacks_of(total)), supports=supports)


def reference_closure(ambient, generators):
    """Closure coordinates with every adjoint and product formed one element at a time."""
    tol = Tolerances().subalgebra_closure
    columns = [ambient.to_vector(ambient.one())]
    for g in generators:
        for part in (0.5 * (g + g.adjoint()), complex(0, -0.5) * (g - g.adjoint())):
            columns += [ambient.to_vector(p) for p in spectral_projections(part)]
    coords = _orthonormalize(ambient, np.stack(columns, axis=1), tol)
    while True:
        basis = [ambient.from_vector(c) for c in coords.T]
        new_columns = list(coords.T)
        for x in basis:
            new_columns.append(ambient.to_vector(x.adjoint()))
            for y in basis:
                new_columns.append(ambient.to_vector(x @ y))
        refreshed = _orthonormalize(ambient, np.stack(new_columns, axis=1), tol)
        if refreshed.shape[1] == coords.shape[1]:
            return refreshed
        coords = refreshed


def block_diag(blocks):
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def reference_left(x):
    return block_diag([np.kron(b, np.eye(len(b))) for b in x.blocks])


def reference_right(y):
    return block_diag([np.kron(np.eye(len(b)), b.T) for b in y.blocks])


@st.composite
def inclusions(draw, kinds=("scalar", "diagonal", "generic", "generic", "projections", "full")):
    dims = draw(st.sampled_from(_DIM_POOL))
    # weights off normalization exercise the rescaled algebras
    weights = draw(st.lists(st.floats(0.2, 5.0), min_size=len(dims), max_size=len(dims)))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    M = build_algebra(dims, weights)
    if kind == "scalar":
        B = scalar_subalgebra(M)
    elif kind == "diagonal":
        B = diagonal_subalgebra(M)
    elif kind == "full":
        B = full_subalgebra(M)
    elif kind == "projections":
        # two projections in general position generate a non-abelian algebra,
        # proper for instance in M_3, where it is M_2 + C
        B = subalgebra_closure(M, [random_projection(M, rng) + 1j * random_projection(M, rng)])
    else:  # generic: a maximal abelian subalgebra
        B = subalgebra_closure(M, [M.random_selfadjoint(rng)])
    return rng, M, B


def test_inclusions_reach_a_non_abelian_proper_subalgebra():
    def non_abelian_proper(case):
        _, M, B = case
        return B.dim < M.dim and max(len(grid) for grid in matrix_units(B)) >= 2

    # raises NoSuchExample when no draw qualifies
    find(inclusions(), non_abelian_proper, settings=settings(max_examples=200))


@settings(max_examples=40, deadline=None)
@given(inclusions(), st.integers(0, 3))
def test_module_frame_matches_element_products(case, count):
    rng, M, B = case
    gens = [M.random_element(rng) for _ in range(count)]
    if count:
        gens.append(gens[0] @ B.basis[-1])  # a dependent generator
    frame, reference = module_frame(B, M.stack(gens)), reference_frame(B, gens)
    assert frame.shape == reference.shape
    assert module_dimension(B, gens) == frame.shape[1] == reference_module_dimension(B, gens)
    assert np.linalg.norm(frame @ frame.conj().T - reference @ reference.conj().T, 2) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(inclusions(kinds=("projections",)), st.lists(st.sampled_from(
    ["generic", "corner", "inside", "rank_one"]), max_size=4))
def test_module_dimension_matches_one_svd_over_non_abelian_subalgebras(case, draws):
    # generators of every rank: generic ones span all of M, x E_11 a corner,
    # elements of B the module B, matrix units of M thin modules
    rng, M, B = case
    units = [u for grid in matrix_units(B) for row in grid for u in row]
    gens = []
    for draw in draws:
        x = M.random_element(rng)
        if draw == "corner":
            x = x @ units[rng.integers(len(units))]
        elif draw == "inside":
            x = B.project(x)
        elif draw == "rank_one":
            k = rng.integers(len(M.block_dims))
            x = M.matrix_unit(k, *rng.integers(M.block_dims[k], size=2))
        gens.append(x)
    assert module_dimension(B, gens) == reference_module_dimension(B, gens)


def test_module_frame_of_no_generators_is_empty():
    M = build_algebra([2, 1], [1 / 3, 1 / 3])
    assert module_frame(diagonal_subalgebra(M), M.stack([])).shape == (M.dim, 0)


@settings(max_examples=40, deadline=None)
@given(inclusions())
def test_left_operators_match_kronecker_stack(case):
    rng, M, B = case
    xs = B.basis + [M.random_element(rng) for _ in range(3)]
    lefts, rights = left_operators(M, M.stack(xs)), right_operators(M, M.stack(xs))
    assert lefts.shape == rights.shape == (len(xs), M.dim, M.dim)
    for op, right, x in zip(lefts, rights, xs):
        np.testing.assert_array_equal(op, left_operator(x))
        np.testing.assert_allclose(op, reference_left(x), rtol=0, atol=1e-13)
        np.testing.assert_array_equal(right, right_operator(x))
        np.testing.assert_allclose(right, reference_right(x), rtol=0, atol=1e-13)
    assert left_operators(M, M.stack([])).shape == (0, M.dim, M.dim)


def random_projection(M, rng):
    """Per block, the projection onto a random subspace of half the block's
    dimension (all of a 1 x 1 block)."""
    blocks = []
    for n in M.block_dims:
        k = max(1, n // 2)
        q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        blocks.append(q @ q.conj().T)
    return M.element(blocks)


@settings(max_examples=40, deadline=None)
@given(inclusions(), st.sampled_from(["inside", "projections"]),
       st.sampled_from(["inside", "ambient", None]))
def test_closure_matches_element_products(case, first, second):
    # the first generator is not self-adjoint: an element of B, or P + iQ for
    # two projections in general position, whose closure needs words longer
    # than one round of products (P Q P); the optional second one is in B
    # too or a generic self-adjoint element of M
    rng, M, B = case
    if first == "inside":
        gens = [B.project(M.random_element(rng))]
    else:
        gens = [random_projection(M, rng) + 1j * random_projection(M, rng)]
    if second == "inside":
        gens.append(B.project(M.random_selfadjoint(rng)))
    elif second == "ambient":
        gens.append(M.random_selfadjoint(rng))
    assert (gens[0] - gens[0].adjoint()).norm2() > 1e-6
    coords, reference = subalgebra_closure(M, gens).coordinates, reference_closure(M, gens)
    assert coords.shape == reference.shape
    assert np.linalg.norm(coords @ coords.conj().T - reference @ reference.conj().T, 2) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(inclusions(), st.sampled_from(["ambient", "inside", "skew", "shifted"]))
def test_closure_shortcut_matches_product_rounds(case, kind):
    # one part with more than one spectral projection: the span of 1 and its
    # projections is C*(h), the same algebra the product rounds reach, and no
    # product round runs
    rng, M, B = case
    h = M.random_selfadjoint(rng)
    gens = {"ambient": [h], "inside": [B.project(h)], "skew": [1j * h],
            "shifted": [h + 2j * M.one(), M.one()]}[kind]
    with mock.patch.object(expectations, "_adjoints_and_products",
                           side_effect=AssertionError("a product round ran")):
        coords = subalgebra_closure(M, gens).coordinates
    reference = reference_closure(M, gens)
    assert coords.shape == reference.shape
    assert np.linalg.norm(coords @ coords.conj().T - reference @ reference.conj().T, 2) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(inclusions(), st.integers(0, 2))
def test_projector_basis_spans_the_span_built_module(case, count):
    # the basis read from the module's projector against the span-built one:
    # the complement of B, as basic_construction takes it, and the right
    # module of a few random elements
    rng, M, B = case
    c = basic_construction(B)
    E = conditional_expectation(B)
    for gens in (remove_component(M.basis(), E), [M.random_element(rng) for _ in range(count)]):
        basis = orthonormal_basis(B, E, span_projector(B, gens))
        reference = reference_orthonormal_basis(B, E, gens)
        assert basis.length == reference.length
        assert np.linalg.norm(module_projection(basis) - module_projection(reference),
                              2) <= 1e-10
        assert basis.gram_defect() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(inclusions(), inclusions())
def test_tensor_stacks_match_tensor_elements(first, second):
    _, M1, B1 = first
    _, M2, B2 = second
    sub = tensor_subalgebra(B1, B2)
    product = sub.ambient
    assert sub.dim == B1.dim * B2.dim
    for index, (b1, b2) in enumerate((b1, b2) for b1 in B1.basis for b2 in B2.basis):
        expected = M1.tensor_element(product, b1, b2)
        for block, stack, want in zip(sub.basis[index].blocks, sub.stacks, expected.blocks):
            np.testing.assert_allclose(block, want, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(stack[index], want, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(sub.coordinates[:, index], product.to_vector(expected),
                                   rtol=1e-13, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(inclusions(), inclusions())
def test_tensor_units_are_kronecker_products_of_the_factor_units(first, second):
    # the product handle takes its factors' units; a handle with the same
    # coordinates decomposes itself spectrally and finds the same summands
    _, M1, B1 = first
    _, M2, B2 = second
    sub = tensor_subalgebra(B1, B2)
    units = matrix_units(sub)
    fresh = SubalgebraHandle(ambient=sub.ambient, coordinates=sub.coordinates)
    assert sorted(map(len, units)) == sorted(map(len, matrix_units(fresh)))
    assert sorted(map(len, units)) == sorted(
        len(g1) * len(g2) for g1 in matrix_units(B1) for g2 in matrix_units(B2))
    assert all(sub.contains(u) for grid in units for row in grid for u in row)


@settings(max_examples=25, deadline=None)
@given(inclusions(kinds=("full",)))
def test_empty_modules_over_the_whole_algebra(case):
    # over B = M the complement of B is zero: a module basis with no vectors
    # and the zero projection
    _, M, B = case
    c = basic_construction(B)
    E = conditional_expectation(B)
    basis = orthonormal_basis(B, E, span_projector(B, remove_component(M.basis(), E)))
    assert basis.length == 0
    assert np.linalg.norm(module_projection(basis)) == 0.0


def test_engine_records_compare_by_identity():
    # equality on these records is identity, as for the units cache; the
    # generated field-wise == compared arrays and raised ValueError
    M = build_algebra([2, 1], [1 / 3, 1 / 3])
    B = diagonal_subalgebra(M)
    twin = SubalgebraHandle(ambient=M, coordinates=B.coordinates.copy())
    c = basic_construction(B)
    x = M.random_element(np.random.default_rng(0))
    for record, copy in ((B, twin), (c, basic_construction(B)),
                         (qn1_module_test(B, x), qn1_module_test(B, x)),
                         (cutdown(B, M.one()), cutdown(B, M.one()))):
        assert record == record and record != copy
        assert len({record, copy}) == 2


@settings(max_examples=40, deadline=None)
@given(inclusions(kinds=("scalar", "diagonal", "generic", "full")))
def test_matrix_units_are_cached_per_handle_object(case):
    # each of these handles arrives with its units; a twin handle with the
    # same coordinates finds the same summands by the link search, in its
    # own order: matched by size and central projection, which for the
    # 1 x 1 summands of an abelian B is the unit itself
    _, M, sub = case
    assert sub.units is not None
    assert matrix_units(sub) is matrix_units(sub) is sub.units
    twin = SubalgebraHandle(ambient=M, coordinates=sub.coordinates.copy())
    units, twin_units = matrix_units(sub), matrix_units(twin)
    assert twin_units is not units
    unmatched = list(zip(map(len, twin_units), central_projections(twin)))
    for size, z in zip(map(len, units), central_projections(sub)):
        match = [m for m in unmatched if m[0] == size and (m[1] - z).norm2() < 1e-12]
        assert len(match) == 1
        unmatched.remove(match[0])
    assert not unmatched


def test_a_closure_that_spans_the_algebra_stops_after_one_round(monkeypatch):
    # the spectral projections of the real and imaginary parts of a generic
    # non-normal element of M_3 + M_2 span 8 dimensions (each part's span
    # holds 1 and the central projections); one round of products spans all
    # 13, and no second round confirms it
    M = build_algebra([3, 2], [1 / 5, 1 / 5])
    products, rounds = expectations._adjoints_and_products, []

    def counted(ambient, coords):
        rounds.append(coords.shape[1])
        return products(ambient, coords)

    monkeypatch.setattr(expectations, "_adjoints_and_products", counted)
    sub = subalgebra_closure(M, [M.random_element(np.random.default_rng(5))])
    assert rounds == [8]
    assert sub.dim == M.dim and sub.units is not None
    assert [len(g) for g in sub.units] == [3, 2]
    for k, grid in enumerate(sub.units):
        for a, row in enumerate(grid):
            for b, unit in enumerate(row):
                assert all(np.array_equal(x, y) for x, y in
                           zip(unit.blocks, M.matrix_unit(k, a, b).blocks))
