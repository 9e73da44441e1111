"""The closed-form basic construction against the span-matrix solve it replaced.

The reference below builds every ``lambda(x) e lambda(y)`` over pairs of
matrix units as one ``dim^2 x dim^2`` matrix and pulls down by least squares;
it lives here only, as the oracle for small algebras.  So does the pair loop
``Tr(x e y) - tau(x y)`` over all matrix units, the oracle of the trace
residual that the build reads off the Pimsner-Popa operator.
"""

import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from qnbench.basic import (
    PULL_DOWN,
    basic_construction,
    left_operator,
    module_projection,
    right_operator,
    trace_identity_residual,
)
from qnbench.errors import RepresentationError
from qnbench.expectations import (
    diagonal_subalgebra,
    full_subalgebra,
    scalar_subalgebra,
    subalgebra_closure,
)
from qnbench.matrixalg import build_algebra


def reference_span(c):
    basis = c.algebra.basis()
    ops = np.stack([c.basic_operator(x, y).reshape(-1) for x in basis for y in basis], axis=1)
    products = [x @ y for x in basis for y in basis]
    return ops, products


def reference_pull_down(c, span, op):
    ops, products = span
    target = op.reshape(-1)
    coeffs, _, _, _ = np.linalg.lstsq(ops, target, rcond=None)
    err = float(np.linalg.norm(ops @ coeffs - target))
    if err > PULL_DOWN * max(1.0, float(np.linalg.norm(target))):
        raise RepresentationError(f"outside the span (residual {err:.2e})")
    out = c.algebra.zero()
    for coef, prod in zip(coeffs, products):
        out = out + complex(coef) * prod
    return out


def pair_loop_trace_residual(c) -> float:
    basis = c.algebra.basis()
    return max(abs(c.extension_trace(c.basic_operator(x, y)) - (x @ y).trace())
               for x in basis for y in basis)


def pimsner_popa(c):
    """The operator ``P`` of the construction's current trace vectors."""
    return module_projection(c.trace_vectors)


def rejects(pull_down, op) -> bool:
    try:
        pull_down(op)
    except RepresentationError:
        return True
    return False


block_dims = st.lists(st.integers(1, 3), min_size=1, max_size=5).filter(
    lambda dims: sum(n * n for n in dims) <= 9)


@st.composite
def inclusions(draw):
    dims = draw(block_dims)
    weights = draw(st.lists(st.floats(0.2, 5.0), min_size=len(dims), max_size=len(dims)))
    kind = draw(st.sampled_from(["scalar", "diagonal", "generic", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    M = build_algebra(dims, weights)
    if kind == "scalar":
        B = scalar_subalgebra(M)
    elif kind == "diagonal":
        B = diagonal_subalgebra(M)
    elif kind == "full":
        B = full_subalgebra(M)
    else:
        B = subalgebra_closure(M, [M.random_selfadjoint(rng)])
    return rng, M, basic_construction(B)


@settings(max_examples=30, deadline=None)
@given(inclusions())
def test_pull_down_matches_reference_solve(case):
    rng, M, c = case
    span = reference_span(c)
    for _ in range(3):
        op = sum(c.basic_operator(M.random_element(rng), M.random_element(rng))
                 for _ in range(2))
        assert (c.pull_down(op) - reference_pull_down(c, span, op)).norm2() < 1e-9


@settings(max_examples=30, deadline=None)
@given(inclusions())
def test_rejection_matches_reference_solve(case):
    rng, M, c = case
    span = reference_span(c)
    for m in M.basis() + [M.one(), M.random_element(rng)]:
        op = right_operator(m)
        assert rejects(c.pull_down, op) == rejects(lambda t: reference_pull_down(c, span, t), op)


@settings(max_examples=30, deadline=None)
@given(inclusions())
def test_trace_identity_residual_matches_pair_loop(case):
    _, M, c = case
    assert abs(trace_identity_residual(M, pimsner_popa(c)) - pair_loop_trace_residual(c)) < 1e-13


@pytest.mark.parametrize("dims, weights", [
    ([3, 2], [0.25, 0.125]),
    ([4, 2, 1], [0.15, 0.1, 0.2]),
    ([3], [1 / 3]),
])
@pytest.mark.parametrize("mutation", ["drop", "scale"])
def test_trace_identity_residual_keeps_its_power_on_a_broken_basis(dims, weights, mutation):
    # the identity <v(y*), (P - 1) v(x)> = Tr(x e y) - tau(x y) holds for any
    # vectors eta_i, so a broken module basis moves both forms alike
    M = build_algebra(dims, weights)
    c = basic_construction(diagonal_subalgebra(M))
    vectors = c.trace_vectors.vectors
    if mutation == "drop":
        vectors.pop()
    else:
        vectors[-1] = 1.001 * vectors[-1]
    frame = np.stack([M.to_vector(eta) for eta in vectors], axis=1)
    c.trace_form = frame @ frame.conj().T
    reference = pair_loop_trace_residual(c)
    assert reference > 1e-4
    assert abs(trace_identity_residual(M, pimsner_popa(c)) - reference) <= 1e-9 * reference


def test_pimsner_popa_residual_detects_a_short_basis():
    M = build_algebra([2], [0.5])
    c = basic_construction(diagonal_subalgebra(M))
    assert c.pimsner_popa_defect < 1e-12
    c.trace_vectors.vectors.pop()
    assert np.linalg.norm(pimsner_popa(c) - np.eye(M.dim), 2) > 0.5


def test_pull_down_inverts_left_multiplication_over_full_subalgebra():
    M = build_algebra([2, 1], [1 / 3, 1 / 3])
    c = basic_construction(full_subalgebra(M))
    # with B = M the span is lambda(M), which contains no noncentral right action
    assert (c.pull_down(left_operator(M.matrix_unit(0, 0, 1)))
            - M.matrix_unit(0, 0, 1)).norm2() < 1e-12
    with pytest.raises(RepresentationError):
        c.pull_down(right_operator(M.matrix_unit(0, 0, 1)))


def test_basic_construction_memory_stays_below_span_matrix():
    # M_8 over its diagonal has dim 64: the span matrix alone took
    # dim^4 * 16 bytes = 268 MB
    M = build_algebra([8], [1 / 8])
    B = diagonal_subalgebra(M)
    tracemalloc.start()
    try:
        c = basic_construction(B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert M.dim == 64
    assert peak < 32 * 2**20
    assert c.trace_residual < 1e-10


def test_basic_construction_memory_stays_below_matrix_unit_operators():
    # M_12 over its diagonal has dim 144: lambda of every matrix unit, a
    # dim^3 array, took 138 MB at peak; read off P the build stays near 12 MB
    M = build_algebra([12], [1 / 12])
    tracemalloc.start()
    try:
        c = basic_construction(diagonal_subalgebra(M))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert M.dim == 144
    assert peak < 32 * 2**20
    assert c.trace_residual < 1e-10
