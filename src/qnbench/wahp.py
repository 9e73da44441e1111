"""Homomorphism-gap optimization over the unitary group of a subalgebra.

For a triple ``B <= N <= M`` and witness pairs ``(x_j, y_j)`` the gap
functional is

    f(u) = sum_j | E_B(x_j u y_j) - E_B(E_N(x_j) u E_N(y_j)) |_2^2 ,

minimized over unitaries ``u`` of ``B``.  The unitary group of a
finite-dimensional algebra is compact and connected, so the infimum is
attained and the exponential parametrization ``u = exp(i h)`` with ``h``
self-adjoint in ``B`` reaches every unitary.

Each map ``u -> x u y - E_N(x) u E_N(y)`` is linear on the GNS space, so the
whole functional is a positive-semidefinite quadratic form ``v* Q v`` in the
coordinates ``v = vec(u)``; ``Q`` is assembled once and every evaluation is a
single matrix-vector product.  A seeded multi-restart quasi-Newton descent is
cross-checked against a grid or random-search oracle, and the report carries
both values.  A vanishing family (``N = M`` makes every term cancel exactly)
yields the exact gap ``0.0`` with no optimization at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basic import left_operator, right_operator
from .errors import GroupValidationError
from .expectations import SubalgebraHandle, conditional_expectation
from .matrixalg import AlgebraElement, MultiMatrixAlgebra
from .tolerances import Tolerances


MAX_ITERATIONS = 200  # L-BFGS iterations per restart


@dataclass
class OptimizerConfig:
    seed: int = 42
    restarts: int = 16
    oracle_points: int = 10000


@dataclass
class WahpGapReport:
    witness_pairs: list
    objective_value: float
    oracle_value: float
    minimizer: Optional[AlgebraElement]
    unitary_defect: float
    converged: bool
    restarts: int
    iterations: int
    seed: int
    exact_zero: bool = False

    def to_dict(self) -> dict:
        return {
            "objective_value": self.objective_value,
            "oracle_value": self.oracle_value,
            "unitary_defect": self.unitary_defect,
            "converged": self.converged,
            "restarts": self.restarts,
            "iterations": self.iterations,
            "seed": self.seed,
            "exact_zero": self.exact_zero,
            "num_pairs": len(self.witness_pairs),
        }


def hermitian_basis(ambient: MultiMatrixAlgebra, sub: SubalgebraHandle) -> list:
    """Real-orthonormal basis of the self-adjoint part of the subalgebra."""
    candidates = []
    for b in sub.basis:
        candidates.append(0.5 * (b + b.adjoint()))
        candidates.append(complex(0, -0.5) * (b - b.adjoint()))
    out: list[AlgebraElement] = []
    vecs: list[np.ndarray] = []
    for c in candidates:
        vec = ambient.to_vector(c)
        real = np.concatenate([vec.real, vec.imag])
        for v in vecs:
            real = real - (v @ real) * v
        norm = float(np.linalg.norm(real))
        if norm > 1e-10:
            real /= norm
            vecs.append(real)
            half = real.shape[0] // 2
            out.append(ambient.from_vector(real[:half] + 1j * real[half:]))
    return out


def _exponential(ambient: MultiMatrixAlgebra, herm: Sequence[AlgebraElement],
                 theta: np.ndarray) -> AlgebraElement:
    blocks = []
    for k, n in enumerate(ambient.block_dims):
        h = np.zeros((n, n), dtype=complex)
        for coef, s in zip(theta, herm):
            h += coef * s.blocks[k]
        vals, vecs = np.linalg.eigh(h)
        blocks.append((vecs * np.exp(1j * vals)) @ vecs.conj().T)
    return ambient.element(blocks)


def _objective_matrix(ambient, sub, pairs, expect_mid) -> np.ndarray:
    proj = sub.coordinates @ sub.coordinates.conj().T
    dim = ambient.dim
    q = np.zeros((dim, dim), dtype=complex)
    for x, y in pairs:
        xm, ym = expect_mid(x), expect_mid(y)
        pair_map = left_operator(x) @ right_operator(y)
        if xm is x and ym is y:
            continue  # the two terms cancel identically
        pair_map = pair_map - left_operator(xm) @ right_operator(ym)
        filtered = proj @ pair_map
        q += filtered.conj().T @ filtered
    return q


def wahp_gap(
    ambient: MultiMatrixAlgebra,
    sub: SubalgebraHandle,
    mid: SubalgebraHandle,
    witness_pairs: Sequence,
    config: Optional[OptimizerConfig] = None,
    tolerances: Optional[Tolerances] = None,
) -> WahpGapReport:
    """Minimize the gap functional; report optimizer and oracle values."""
    from scipy.optimize import minimize  # only the gap optimizer needs scipy

    config = config or OptimizerConfig()
    tolerances = tolerances or Tolerances()
    expect_mid = conditional_expectation(ambient, mid)
    pairs = [(x, y) for x, y in witness_pairs]
    q = _objective_matrix(ambient, sub, pairs, expect_mid)

    herm = hermitian_basis(ambient, sub)
    rng = np.random.default_rng(config.seed)

    def unitary_of(theta: np.ndarray) -> AlgebraElement:
        return _exponential(ambient, herm, theta)

    def value_at(u: AlgebraElement) -> float:
        v = ambient.to_vector(u)
        return float((v.conj() @ (q @ v)).real)

    def fun(theta: np.ndarray) -> float:
        return value_at(unitary_of(theta))

    if not q.any():
        # every pair cancelled exactly: the gap is identically zero
        one = ambient.one()
        return WahpGapReport(
            witness_pairs=pairs, objective_value=0.0, oracle_value=0.0,
            minimizer=one, unitary_defect=0.0, converged=True,
            restarts=0, iterations=0, seed=config.seed, exact_zero=True,
        )

    dim_h = len(herm)
    best_theta = np.zeros(dim_h)
    best_value = fun(best_theta)
    iterations = 0
    for restart in range(config.restarts):
        if restart == 0:
            theta0 = np.zeros(dim_h)
        else:
            scale = 0.5 + (restart % 3)
            theta0 = rng.normal(scale=scale, size=dim_h)
        result = minimize(fun, theta0, method="L-BFGS-B",
                          options={"maxiter": MAX_ITERATIONS})
        iterations += int(result.nit)
        if result.fun < best_value:
            best_value = float(result.fun)
            best_theta = result.x

    oracle_value, oracle_theta = _oracle_search(fun, dim_h, config, rng)
    converged = best_value <= oracle_value + tolerances.oracle_slack
    if not converged:
        best_value, best_theta = oracle_value, oracle_theta

    u = unitary_of(best_theta)
    defect = (u.adjoint() @ u - ambient.one()).norm2()
    if defect > tolerances.unitary:
        raise GroupValidationError(f"minimizer drifted off the unitary group ({defect:.2e})")
    return WahpGapReport(
        witness_pairs=pairs,
        objective_value=float(best_value),
        oracle_value=float(oracle_value),
        minimizer=u,
        unitary_defect=float(defect),
        converged=converged,
        restarts=config.restarts,
        iterations=iterations,
        seed=config.seed,
    )


def _oracle_search(fun, dim_h: int, config: OptimizerConfig, rng) -> tuple:
    """Independent search: a torus grid in low dimension, else seeded sampling."""
    best_value, best_theta = fun(np.zeros(dim_h)), np.zeros(dim_h)
    if dim_h == 0:
        return best_value, best_theta
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


def wahp_witness_search(
    ambient: MultiMatrixAlgebra,
    sub: SubalgebraHandle,
    mid: SubalgebraHandle,
    config: Optional[OptimizerConfig] = None,
    tolerances: Optional[Tolerances] = None,
) -> WahpGapReport:
    """Gap over the full family of basis pairs.

    The functional vanishes for some unitary exactly when the homomorphism
    identity holds for all of the algebra (it is bilinear in the pair), so a
    positive minimum here witnesses the failure for the whole inclusion.
    """
    basis = ambient.basis()
    pairs = [(x, y) for x in basis for y in basis]
    return wahp_gap(ambient, sub, mid, pairs, config, tolerances)
