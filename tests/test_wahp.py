import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qnbench import wahp
from qnbench.acceptance import _dichotomy_inclusions
from qnbench.basic import left_operator, right_operator
from qnbench.errors import GroupValidationError
from qnbench.expectations import (
    conditional_expectation,
    diagonal_subalgebra,
    full_subalgebra,
    scalar_subalgebra,
    subalgebra_closure,
)
from qnbench.matrixalg import build_algebra
from qnbench.wahp import (
    OptimizerConfig,
    _objective_matrix,
    _oracle_search,
    _unit_form,
    _values,
    hermitian_basis,
    wahp_gap,
    wahp_witness_search,
)

CFG = OptimizerConfig(seed=42, restarts=6, oracle_points=10000)


def m2():
    return build_algebra([2], [0.5])


def test_hermitian_basis_spans_selfadjoint_part():
    M = m2()
    B = diagonal_subalgebra(M)
    herm = hermitian_basis(B)
    assert len(herm) == 2
    for s in herm:
        assert (s - s.adjoint()).norm2() < 1e-12


@pytest.mark.parametrize("dims", [[2], [2, 3], [3, 1, 2]])
def test_hermitian_basis_is_real_orthonormal_of_length_dim_b(dims):
    M = build_algebra(dims, [1.0] * len(dims))
    for B in (full_subalgebra(M), diagonal_subalgebra(M)):
        herm = hermitian_basis(B)
        assert len(herm) == B.dim
        vecs = np.array([M.to_vector(h) for h in herm])
        gram = (vecs.conj() @ vecs.T).real
        assert np.abs(gram - np.eye(B.dim)).max() < 1e-12
        for h in herm:
            assert (h - h.adjoint()).norm2() < 1e-12
            assert B.contains(h)


def closed_form_diag_pair_gap():
    """Hand oracle for B = N = diag in M2 with the off-diagonal unit pair.

    E_B(e12 u e21) = u_22 e11 for diagonal u, and the inner term vanishes,
    so the objective is |u_22|^2 tau(e11) = 1/2 for every diagonal unitary.
    """
    return 0.5


def test_gap_diag_pair_is_half():
    M = m2()
    B = diagonal_subalgebra(M)
    pair = (M.matrix_unit(0, 0, 1), M.matrix_unit(0, 1, 0))
    report = wahp_gap(B, B, [pair], config=CFG)
    assert report.converged
    assert abs(report.objective_value - closed_form_diag_pair_gap()) < 1e-6
    assert abs(report.oracle_value - closed_form_diag_pair_gap()) < 1e-6
    assert report.unitary_defect < 1e-10


def closed_form_scalar_gap(x, y):
    """Hand oracle for B = N = C1 in M2: the only unitaries are phases.

    E_B(x u y) = tau(x u y) 1 = phase * tau(x y) 1 and E_B(x) = tau(x) 1 = 0
    for trace-zero witnesses, so the objective equals |tau(x y)|^2.
    """
    return abs((x @ y).trace()) ** 2


def test_gap_scalar_subalgebra_closed_form():
    M = m2()
    B = scalar_subalgebra(M)
    x = M.element([[[0, 1], [1, 0]]])  # trace zero
    report = wahp_gap(B, B, [(x, x)], config=CFG)
    expected = closed_form_scalar_gap(x, x)
    assert abs(expected - 1.0) < 1e-12  # tau(x^2) = tau(1) = 1
    assert abs(report.objective_value - expected) < 1e-6


def test_gap_scalar_normalized_witness_quarter():
    M = m2()
    B = scalar_subalgebra(M)
    x = M.element([np.array([[0, 1], [1, 0]]) / np.sqrt(2)])
    report = wahp_gap(B, B, [(x, x)], config=CFG)
    expected = closed_form_scalar_gap(x, x)
    assert abs(expected - 0.25) < 1e-12
    assert abs(report.objective_value - expected) < 1e-6


def test_gap_zero_when_mid_is_everything():
    M = m2()
    B = diagonal_subalgebra(M)
    N = full_subalgebra(M)
    rng = np.random.default_rng(0)
    pairs = [(M.random_element(rng), M.random_element(rng)) for _ in range(4)]
    report = wahp_gap(B, N, pairs, config=CFG)
    assert report.exact_zero
    assert report.objective_value == 0.0
    assert report.oracle_value == 0.0


def test_witness_search_zero_for_full_mid():
    M = build_algebra([2, 1], [1 / 3, 1 / 3])
    B = subalgebra_closure(M, [M.matrix_unit(0, 0, 0)])
    N = full_subalgebra(M)
    report = wahp_witness_search(B, N, CFG)
    assert report.exact_zero and report.objective_value == 0.0


def test_witness_search_positive_for_proper_mid():
    M = m2()
    B = diagonal_subalgebra(M)
    report = wahp_witness_search(B, B, CFG)
    assert not report.exact_zero
    assert report.objective_value > 0.01
    assert report.converged


def test_witness_search_scalar_to_diag_positive():
    M = m2()
    B = scalar_subalgebra(M)
    N = diagonal_subalgebra(M)
    report = wahp_witness_search(B, N, CFG)
    assert report.objective_value > 0.01


def test_determinism_same_seed():
    M = m2()
    B = diagonal_subalgebra(M)
    r1 = wahp_witness_search(B, B, OptimizerConfig(seed=7, restarts=4))
    r2 = wahp_witness_search(B, B, OptimizerConfig(seed=7, restarts=4))
    assert r1.objective_value == r2.objective_value
    assert r1.oracle_value == r2.oracle_value
    assert (r1.minimizer - r2.minimizer).norm2() == 0.0


def test_optimizer_beats_oracle():
    M = build_algebra([3], [1 / 3])
    B = diagonal_subalgebra(M)
    rng = np.random.default_rng(3)
    pairs = [(M.random_element(rng), M.random_element(rng)) for _ in range(3)]
    report = wahp_gap(B, B, pairs,
                      config=OptimizerConfig(seed=1, restarts=8, oracle_points=4000))
    assert report.objective_value <= report.oracle_value + 1e-8
    assert report.unitary_defect < 1e-10


def test_tie_rule_keeps_the_value_of_a_non_constant_gap():
    # restarts replace the best unitary only when lower by more than
    # VALUE_FLOOR |Q|; on a functional with a strict minimum the reported
    # value is the one the descent reached before that rule
    M = build_algebra([3], [1 / 3])
    B = diagonal_subalgebra(M)
    rng = np.random.default_rng(3)
    pairs = [(M.random_element(rng), M.random_element(rng)) for _ in range(3)]
    report = wahp_gap(B, B, pairs,
                      config=OptimizerConfig(seed=1, restarts=8, oracle_points=4000))
    assert abs(report.objective_value - 23.274812634668045) <= 1e-9


def weight_swapped_handles():
    """``B``, the diagonal copy of ``M_2`` closed from two ``(x, x)`` with ``x``
    real symmetric, in ``M = M_2 + M_2`` with weights (1/8, 3/8) and in ``N``
    with weights (3/8, 1/8), and two witness pairs drawn in ``N``."""
    M = build_algebra([2, 2], [1 / 8, 3 / 8])
    N = build_algebra([2, 2], [3 / 8, 1 / 8])
    rng = np.random.default_rng(3)
    xs = []
    for _ in range(2):
        a = rng.normal(size=(2, 2))
        xs.append((a + a.T) / 2)
    pairs = [(N.random_element(rng), N.random_element(rng)) for _ in range(2)]
    b_of_m, b_of_n = (subalgebra_closure(A, [A.element([x, x]) for x in xs]) for A in (M, N))
    assert b_of_m.dim == b_of_n.dim == 4
    return b_of_m, b_of_n, pairs


def test_gap_rejects_handles_and_pairs_of_another_ambient():
    # B in M and B in N share block sizes and basis but not weights: the
    # operators of N against the projection of B in M give a gap of 3.277
    # that belongs to neither inclusion (B in N gives 1.758), so it raises.
    b_of_m, b_of_n, pairs = weight_swapped_handles()
    with pytest.raises(GroupValidationError):
        wahp_gap(b_of_m, b_of_n, pairs)
    with pytest.raises(GroupValidationError):
        wahp_witness_search(b_of_m, b_of_n)
    with pytest.raises(GroupValidationError):  # the pairs lie in N, the handles in M
        wahp_gap(b_of_m, b_of_m, pairs)
    assert abs(wahp_gap(b_of_n, b_of_n, pairs).objective_value - 1.7579531066324705) <= 1e-9


def test_gap_compares_ambients_by_value():
    # a second algebra with the same blocks and weights is the same ambient,
    # as it is for element arithmetic
    _, b_of_n, pairs = weight_swapped_handles()
    twin = build_algebra([2, 2], [3 / 8, 1 / 8])
    assert twin is not b_of_n.ambient
    mid = subalgebra_closure(twin, b_of_n.basis)
    expected = wahp_gap(b_of_n, b_of_n, pairs).objective_value
    assert abs(wahp_gap(b_of_n, mid, pairs).objective_value - expected) <= 1e-9


def random_form(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a.conj().T @ a / dim


def _exponential(ambient, herm, theta):
    """``exp(i sum_d theta_d h_d)`` one block and one direction at a time."""
    blocks = []
    for k, n in enumerate(ambient.block_dims):
        h = np.zeros((n, n), dtype=complex)
        for coef, s in zip(theta, herm):
            h += coef * s.blocks[k]
        vals, vecs = np.linalg.eigh(h)
        blocks.append((vecs * np.exp(1j * vals)) @ vecs.conj().T)
    return ambient.element(blocks)


def _value_at(ambient, q, u):
    v = ambient.to_vector(u)
    return float((v.conj() @ (q @ v)).real)


def scalar_value(M, herm, q, theta):
    """The one-point reference the batched evaluator must reproduce."""
    return _value_at(M, q, _exponential(M, herm, theta))


@pytest.mark.parametrize("seed", range(3))
def test_batched_values_match_scalar_path(seed, monkeypatch):
    # a small chunk makes the 25 rows span several chunks and a ragged tail
    monkeypatch.setattr(wahp, "ORACLE_CHUNK", 7)
    rng = np.random.default_rng(seed)
    M = build_algebra([2, 2, 1], [0.1, 0.2, 0.2])
    B = full_subalgebra(M)
    herm = hermitian_basis(B)
    assert len(herm) == 9
    q = random_form(M.dim, rng)
    for dim_h in range(10):
        subset = herm[:dim_h]
        thetas = rng.normal(size=(25, dim_h)) * rng.choice([0.3, 1.0, 3.0], size=(25, 1))
        batched = _values(_unit_form(B, subset, q), thetas)
        for theta, value in zip(thetas, batched):
            expected = scalar_value(M, subset, q, theta)
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def loop_oracle(fun, dim_h, config, rng):
    """The one-call-per-point oracle the batched search replaced."""
    best_value, best_theta = fun(np.zeros(dim_h)), np.zeros(dim_h)
    if dim_h <= 2:
        side = max(2, int(round(config.oracle_points ** (1.0 / dim_h))))
        axes = [np.linspace(0.0, 2 * np.pi, side, endpoint=False) for _ in range(dim_h)]
        mesh = np.meshgrid(*axes, indexing="ij")
        thetas = np.stack([m.reshape(-1) for m in mesh], axis=1)
    else:
        scales = np.array([0.3, 1.0, 3.0])[rng.integers(0, 3, size=config.oracle_points)]
        thetas = rng.normal(size=(config.oracle_points, dim_h)) * scales[:, None]
    for theta in thetas:
        value = fun(theta)
        if value < best_value:
            best_value, best_theta = value, theta
    return float(best_value), best_theta


@pytest.mark.parametrize(
    "dims, weights, sub_of",
    [
        ([2], [0.5], scalar_subalgebra),          # grid, one direction
        ([2], [0.5], diagonal_subalgebra),        # grid, two directions
        ([3], [1 / 3], diagonal_subalgebra),      # seeded sampling, three directions
        ([2, 1], [1 / 3, 1 / 3], full_subalgebra),  # seeded sampling, five directions
    ],
)
def test_batched_oracle_matches_loop(dims, weights, sub_of):
    rng = np.random.default_rng(11)
    M = build_algebra(dims, weights)
    B = sub_of(M)
    herm = hermitian_basis(B)
    q = random_form(M.dim, rng)
    config = OptimizerConfig(seed=5, oracle_points=400)
    value, theta = _oracle_search(_unit_form(B, herm, q), config, np.random.default_rng(5))
    expected, _ = loop_oracle(lambda t: scalar_value(M, herm, q, t), len(herm), config,
                              np.random.default_rng(5))
    assert abs(value - expected) <= 1e-12 * max(1.0, expected)
    assert abs(scalar_value(M, herm, q, theta) - value) <= 1e-12 * max(1.0, value)


PROPER_MID = [row for row in _dichotomy_inclusions() if row[3] is not None]
EXACT_GAPS = {
    "m2/diag/diag": Fraction(1), "m2/scalars/scalars": Fraction(3, 4),
    "m2/scalars/diag": Fraction(1, 2), "m3/diag/diag": Fraction(2),
    "m3/scalars/scalars": Fraction(8, 9), "m2+c/diag/diag": Fraction(2, 3),
    "c2/scalars/scalars": Fraction(1, 4), "m2+m2/diag/diag": Fraction(1),
    "m2+c/scalars/diag": Fraction(2, 9), "m2/diag/m2+scalars": Fraction(5, 16),
}


def reference_objective_matrix(sub, pairs, expect_mid):
    """``Q`` from one pair's left and right operators at a time, in pair order."""
    proj = sub.coordinates @ sub.coordinates.conj().T
    q = np.zeros((sub.ambient.dim, sub.ambient.dim), dtype=complex)
    for x, y in pairs:
        xm, ym = expect_mid(x), expect_mid(y)
        if xm is x and ym is y:
            continue
        filtered = proj @ (left_operator(x) @ right_operator(y)
                           - left_operator(xm) @ right_operator(ym))
        q += filtered.conj().T @ filtered
    return q


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mid_of", [None, diagonal_subalgebra], ids=["mid_b", "mid_diag"])
def test_descent_reaches_the_two_projection_closed_form(mid_of, seed):
    # B = span{p, 1 - p} in M_3 with p = E_00: its unitaries are
    # e^{ia} p + e^{ib} (1 - p), so F = alpha + 2 Re(beta e^{i(b - a)}) and the
    # exact minimum is alpha - 2|beta|.  The 3 x 3 grid oracle misses it, so
    # only the descent can reach it.
    M = build_algebra([3], [1 / 3])
    p = M.matrix_unit(0, 0, 0)
    B = subalgebra_closure(M, [p])
    N = B if mid_of is None else mid_of(M)
    rng = np.random.default_rng(seed)
    pairs = [(M.random_element(rng), M.random_element(rng)) for _ in range(3)]
    q = reference_objective_matrix(B, pairs, conditional_expectation(N))
    p_hat, q_hat = M.to_vector(p), M.to_vector(M.one() - p)
    alpha = (p_hat.conj() @ q @ p_hat + q_hat.conj() @ q @ q_hat).real
    beta = p_hat.conj() @ q @ q_hat
    report = wahp_gap(B, N, pairs, config=OptimizerConfig(seed=seed, oracle_points=9))
    assert abs(report.objective_value - (alpha - 2 * abs(beta))) <= 1e-9
    assert report.iterations > 0

@pytest.mark.parametrize("chunk", [5, 10**6])
def test_objective_matrix_matches_pair_by_pair_reference(chunk, monkeypatch):
    # chunk 5 splits every pair list into several stacks with a ragged tail;
    # the pairs repeat element objects, and an element may pair with itself
    monkeypatch.setattr(wahp, "PAIR_CHUNK", chunk)
    rng = np.random.default_rng(0)
    for name, algebra, sub, mid in _dichotomy_inclusions():
        x = algebra.random_element(rng)
        basis = algebra.basis()
        pairs = [(b, c) for b in basis for c in basis] + [(x, x), (basis[-1], x)]
        for handle in (mid if mid is not None else full_subalgebra(algebra), sub):
            expect = conditional_expectation(handle)
            np.testing.assert_array_equal(
                _objective_matrix(sub, pairs, expect),
                reference_objective_matrix(sub, pairs, expect), err_msg=name)


@pytest.mark.parametrize("name, algebra, sub, mid", PROPER_MID, ids=[r[0] for r in PROPER_MID])
def test_witness_functional_is_constant_on_unitaries(name, algebra, sub, mid):
    basis = algebra.basis()
    pairs = [(x, y) for x in basis for y in basis]
    q = _objective_matrix(sub, pairs, conditional_expectation(mid))
    herm = hermitian_basis(sub)
    thetas = np.random.default_rng(0).normal(scale=np.pi, size=(50, len(herm)))
    at_one = _value_at(algebra, q, algebra.one())
    assert np.max(np.abs(_values(_unit_form(sub, herm, q), thetas) - at_one)) <= 1e-12


@pytest.mark.parametrize("name, algebra, sub, mid", PROPER_MID, ids=[r[0] for r in PROPER_MID])
def test_witness_search_exact_gaps(name, algebra, sub, mid):
    report = wahp_witness_search(sub, mid, CFG)
    assert abs(report.objective_value - float(EXACT_GAPS[name])) <= 1e-12
    assert abs(report.oracle_value - report.objective_value) <= 1e-12
    assert report.converged and not report.exact_zero
    assert report.restarts == report.iterations == 0
    assert (report.minimizer - algebra.one()).norm2() == 0.0


def test_chunked_oracle_memory_is_bounded():
    # B = M_6 in M_6: 36 directions, 10 000 points.  Measured peak 5.9 MB
    # chunked (the sampled thetas are 2.9 MB of it) against 38.5 MB when the
    # whole (10 000, 6, 6) stack goes through one eigh.
    M = build_algebra([6], [1 / 6])
    B = full_subalgebra(M)
    herm = hermitian_basis(B)
    assert len(herm) == 36
    form = _unit_form(B, herm, random_form(M.dim, np.random.default_rng(0)))
    config = OptimizerConfig(seed=1, oracle_points=10000)
    tracemalloc.start()
    try:
        _oracle_search(form, config, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6
