"""Homomorphism-gap optimization over the unitary group of a subalgebra.

For a triple ``B <= N <= M`` and witness pairs ``(x_j, y_j)`` the gap
functional is

    f(u) = sum_j | E_B(x_j u y_j) - E_B(E_N(x_j) u E_N(y_j)) |_2^2 ,

minimized over unitaries ``u`` of ``B``.  The unitary group of a
finite-dimensional algebra is compact and connected, so the infimum is
attained and the exponential parametrization ``u = exp(i h)`` with ``h``
self-adjoint in ``B`` reaches every unitary.  The coordinates of ``h`` are
taken in the real-orthonormal basis that the matrix units of ``B`` give
(``hermitian_basis``).

Each map ``u -> x u y - E_N(x) u E_N(y)`` is linear on the GNS space, so the
whole functional is a positive-semidefinite quadratic form ``v* Q v`` in the
coordinates ``v = vec(u)``; ``Q`` is assembled once, from stacked left and
right multiplication operators.  The optimizer then works in ``B``'s own
coordinates: with the matrix units ``E^j_ab``, a unitary of ``B`` is ``u =
sum_j sum_ab U^j_ab E^j_ab`` with ``U^j`` unitary of size ``n_j``, so ``vec(u)
= E w`` for the units' coordinate columns ``E`` and the entries ``w`` of the
``U^j``, the form is ``w* (E* Q E) w``, and ``exp(i h)`` is ``exp(i H^j)``
summand by summand.  Its slope along ``exp(i t h) u`` is ``-2 Im <Qv,
vec(h u)>``, so a seeded multi-restart steepest descent on the unitaries of
``B`` needs no numerical derivative; it is cross-checked against a grid or
random-search oracle, and the report carries both values.  Every evaluation
is batched and costs ``O(dim B^2)`` per row: per summand size, one stacked
``eigh`` (a plain ``exp`` for ``1 x 1`` summands) gives ``exp(i h)`` for a
stack of parameter rows, and one ``einsum`` the form of the whole stack; a
descent step scores its whole ladder of step lengths in one such call.  A
vanishing family (``N = M`` makes every term cancel exactly) yields the exact
gap ``0.0`` with no optimization at all.

Over the full family of basis pairs the functional is constant on the
unitaries of ``B`` (see ``wahp_witness_search``), so the witness search
reports its value at ``u = 1`` and checks it at a few seeded random
unitaries instead of optimizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basic import left_operators, right_operators
from .errors import GroupValidationError
from .expectations import SubalgebraHandle, conditional_expectation, matrix_units
from .matrixalg import AlgebraElement


MAX_ITERATIONS = 200  # descent steps per restart
STEP_LADDER = 0.5 ** np.arange(32)  # the step lengths each descent step tries, as angles
GRADIENT_FLOOR = 1e-10  # a slope below this times |Q| is rounding: the descent stops
VALUE_FLOOR = 1e-12  # a restart lower by at most this times |Q| ties: the earlier unitary stays
ORACLE_CHUNK = 512  # oracle rows per stacked eigh, which bounds the oracle's memory
PAIR_CHUNK = 16  # witness pairs per stacked operator product, which bounds Q's memory
CROSS_CHECK_POINTS = 8  # random unitaries behind the witness search's invariance check


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


def hermitian_basis(sub: SubalgebraHandle) -> list:
    """Real-orthonormal basis of the self-adjoint part of the subalgebra.

    Read off the matrix units of each summand: ``E_aa``, and for ``a < b``
    ``E_ab + E_ba`` and ``i (E_ab - E_ba)``, each scaled to unit 2-norm
    (``|E_ab|_2^2 = tau(E_11)``), so the list has ``dim B`` elements.
    """
    out = []
    for grid in matrix_units(sub):
        scale = 1.0 / np.sqrt(grid[0][0].trace().real)
        for a, row in enumerate(grid):
            out.append(scale * row[a])
            for b in range(a + 1, len(grid)):
                out.append(scale / np.sqrt(2) * (row[b] + grid[b][a]))
                out.append(1j * scale / np.sqrt(2) * (row[b] - grid[b][a]))
    return out


@dataclass
class _UnitForm:
    """The gap's form in the coordinates ``w`` of the matrix units of ``B``
    (the entries of the ``U^j``, summand by summand and row by row), where
    ``vec(u) = E w`` and ``v* Q v = w* (E* Q E) w``."""

    units: np.ndarray  # (dim, dim B): vec(E^j_ab)
    herm: np.ndarray  # (directions, dim B): the h_d in the coordinates of the units
    slots: list  # per summand size n: (n, index array (summands, n * n) of their coordinates)
    q: np.ndarray  # E* Q E


def _unit_form(sub: SubalgebraHandle, herm: Sequence[AlgebraElement], q: np.ndarray) -> _UnitForm:
    """``Q`` and the directions ``herm`` (self-adjoint elements of ``B``) in
    the coordinates of the units; the columns of ``E`` are orthogonal with
    squared norm ``tau(E^j_11)``."""
    ambient, grids = sub.ambient, matrix_units(sub)
    units = ambient.vectors_of(ambient.stack([u for g in grids for row in g for u in row]))
    sizes = [len(g) for g in grids]
    starts = np.cumsum([0] + [n * n for n in sizes])
    norms = np.repeat([g[0][0].trace().real for g in grids], [n * n for n in sizes])
    slots = [(n, np.array([np.arange(start, start + n * n)
                           for start, m in zip(starts, sizes) if m == n]))
             for n in sorted(set(sizes))]
    herm_vectors = ambient.vectors_of(ambient.stack(herm))
    return _UnitForm(units=units, herm=(units.conj().T @ herm_vectors).T / norms, slots=slots,
                     q=units.conj().T @ q @ units)


def _unitaries(form: _UnitForm, thetas: np.ndarray) -> np.ndarray:
    """Coordinates ``(rows, dim B)`` of ``u = exp(i sum_d theta_d h_d)`` per row
    of ``thetas``: per summand size, a plain ``exp`` of the ``1 x 1``
    summands or one stacked ``eigh`` of the larger ones."""
    h = thetas @ form.herm
    out = np.empty_like(h)
    for n, slots in form.slots:
        if n == 1:
            out[:, slots[:, 0]] = np.exp(1j * h[:, slots[:, 0]].real)
            continue
        vals, vecs = np.linalg.eigh(h[:, slots].reshape(len(h), -1, n, n))
        exp = (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
        out[:, slots] = exp.reshape(len(h), -1, n * n)
    return out


def _multiply(form: _UnitForm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coordinates of the products ``a b`` of two coordinate stacks (rows
    broadcast), one stacked ``matmul`` per summand size."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for n, slots in form.slots:
        product = a[:, slots].reshape(len(a), -1, n, n) @ b[:, slots].reshape(len(b), -1, n, n)
        out[:, slots] = product.reshape(len(out), -1, n * n)
    return out


def _values(form: _UnitForm, thetas: np.ndarray) -> np.ndarray:
    """``v* Q v`` at ``u = exp(i sum_d theta_d h_d)`` for every row of ``thetas``.

    ``ORACLE_CHUNK`` rows at a time, so peak memory stays
    ``O(ORACLE_CHUNK * dim B)`` however many rows are asked for.
    """
    out = np.empty(len(thetas))
    for start in range(0, len(thetas), ORACLE_CHUNK):
        chunk = thetas[start:start + ORACLE_CHUNK]
        out[start:start + len(chunk)] = _evaluate(form, _unitaries(form, chunk))
    return out


def _evaluate(form: _UnitForm, w: np.ndarray) -> np.ndarray:
    """``w* (E* Q E) w`` for each row of a coordinate stack."""
    return np.sum((w.conj() @ form.q) * w, axis=1).real


def _descend(form: _UnitForm, floor: float, w: np.ndarray) -> tuple:
    """Steepest descent of the form from the unitary with coordinates ``w`` (one row).

    The slope along ``exp(i t h_d) u`` is ``g_d = -2 Im <Qv, vec(h_d u)>``; a
    step is ``u <- exp(-i s G) u`` with ``G = sum_d g_d h_d``, where ``s|g|``
    runs over ``STEP_LADDER`` and the lowest value wins.  It stops when
    ``|g| <= floor``, when no step length lowers the value, or after
    ``MAX_ITERATIONS`` steps.  Returns the value, ``w`` and the step count.
    """
    value = float(_evaluate(form, w)[0])
    for steps in range(MAX_ITERATIONS):
        g = -2 * ((form.q @ w[0]).conj() @ _multiply(form, form.herm, w).T).imag
        norm = np.linalg.norm(g)
        if norm <= floor:
            return value, w, steps
        trials = _multiply(form, _unitaries(form, np.outer(-STEP_LADDER / norm, g)), w)
        values = _evaluate(form, trials)
        best = int(np.argmin(values))
        if values[best] >= value:
            return value, w, steps
        value, w = float(values[best]), trials[best:best + 1]
    return value, w, MAX_ITERATIONS


def _objective_matrix(sub, pairs, expect_mid) -> np.ndarray:
    """``Q = sum_j A_j* A_j`` with ``A_j = P_B (L_x R_y - L_{E_N x} R_{E_N y})``.

    Pairs whose two terms cancel identically are dropped.  The operators of
    the distinct elements and of their images are built as one stack; the
    ``A_j`` are formed ``PAIR_CHUNK`` pairs at a time, and ``Q`` is summed
    pair by pair in order.
    """
    ambient = sub.ambient
    q = np.zeros((ambient.dim, ambient.dim), dtype=complex)
    # the distinct element objects (elements hash by identity) and their images
    image = {e: expect_mid(e) for e in dict.fromkeys(e for pair in pairs for e in pair)}
    at = {e: i for i, e in enumerate(image)}
    index = np.array([(at[x], at[y]) for x, y in pairs
                      if not (image[x] is x and image[y] is y)],  # else the terms cancel
                     dtype=int).reshape(-1, 2)
    stacks = ambient.stack(list(image) + list(image.values()))
    left, right = left_operators(ambient, stacks), right_operators(ambient, stacks)
    mid = len(image)  # where the images start in the stacks
    for start in range(0, len(index), PAIR_CHUNK):
        ix, iy = index[start:start + PAIR_CHUNK].T
        maps = left[ix] @ right[iy] - left[mid + ix] @ right[mid + iy]
        for filtered in sub.projector @ maps:
            q += filtered.conj().T @ filtered
    return q


def _exact_zero_report(sub, pairs, config: OptimizerConfig) -> WahpGapReport:
    """Every pair cancelled exactly: the gap is identically zero."""
    return WahpGapReport(
        witness_pairs=pairs, objective_value=0.0, oracle_value=0.0,
        minimizer=sub.ambient.one(), unitary_defect=0.0, converged=True,
        restarts=0, iterations=0, seed=config.seed, exact_zero=True,
    )


def _check_triple(sub: SubalgebraHandle, mid: SubalgebraHandle, pairs: Sequence) -> None:
    """``B <= N <= M`` lie in one ``M``: ``mid`` and every witness element
    must belong to ``sub.ambient``, compared by value as elements compare."""
    ambient = sub.ambient
    if mid.ambient != ambient or any(e.algebra != ambient for pair in pairs for e in pair):
        raise GroupValidationError("handles and witness pairs of different ambient algebras")


def wahp_gap(
    sub: SubalgebraHandle,
    mid: SubalgebraHandle,
    witness_pairs: Sequence,
    *,
    config: Optional[OptimizerConfig] = None,
) -> WahpGapReport:
    """Minimize the gap functional for ``B <= N <= M``, with ``B = sub``,
    ``N = mid`` and ``M = sub.ambient``; report optimizer and oracle values.
    The optimizer must come within ``oracle_slack`` of the oracle, and the
    minimizer within ``unitary`` of the unitary group, both tolerances of ``M``.

    A restart replaces the best unitary only when its value is lower by more
    than ``VALUE_FLOOR * |Q|``, so on a functional that is constant on
    ``U(B)`` the minimizer is the restart-0 unitary ``1``, not whichever
    restart rounding favoured.
    """
    config = config or OptimizerConfig()
    ambient, pairs = sub.ambient, [(x, y) for x, y in witness_pairs]
    tolerances = ambient.tolerances
    _check_triple(sub, mid, pairs)
    q = _objective_matrix(sub, pairs, conditional_expectation(mid))
    if not q.any():
        return _exact_zero_report(sub, pairs, config)

    form = _unit_form(sub, hermitian_basis(sub), q)
    q_norm = np.linalg.norm(q)
    floor = GRADIENT_FLOOR * q_norm
    rng = np.random.default_rng(config.seed)
    dim_h = len(form.herm)
    best_w = _unitaries(form, np.zeros((1, dim_h)))
    best_value = float(_evaluate(form, best_w)[0])
    iterations = 0
    for restart in range(config.restarts):
        if restart == 0:
            theta0 = np.zeros(dim_h)
        else:
            scale = 0.5 + (restart % 3)
            theta0 = rng.normal(scale=scale, size=dim_h)
        value, w, steps = _descend(form, floor, _unitaries(form, theta0[None]))
        iterations += steps
        if value < best_value - VALUE_FLOOR * q_norm:
            best_value, best_w = value, w

    oracle_value, oracle_theta = _oracle_search(form, config, rng)
    converged = best_value <= oracle_value + tolerances.oracle_slack
    if not converged:
        best_value, best_w = oracle_value, _unitaries(form, oracle_theta[None])

    u = ambient.elements(ambient.stacks_of(form.units @ best_w.T))[0]
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


def _oracle_search(form: _UnitForm, config: OptimizerConfig, rng) -> tuple:
    """Independent search: a torus grid in low dimension, else seeded sampling.

    Row 0 is ``theta = 0``; a later row wins only with a strictly smaller
    value, and ``argmin`` keeps the first of equal minima.
    """
    dim_h = len(form.herm)
    if dim_h == 0:
        thetas = np.zeros((0, 0))
    elif dim_h <= 2:
        side = max(2, int(round(config.oracle_points ** (1.0 / dim_h))))
        axes = [np.linspace(0.0, 2 * np.pi, side, endpoint=False) for _ in range(dim_h)]
        mesh = np.meshgrid(*axes, indexing="ij")
        thetas = np.stack([m.reshape(-1) for m in mesh], axis=1)
    else:
        scales = np.array([0.3, 1.0, 3.0])[rng.integers(0, 3, size=config.oracle_points)]
        thetas = rng.normal(size=(config.oracle_points, dim_h)) * scales[:, None]
    thetas = np.concatenate([np.zeros((1, dim_h)), thetas])
    values = _values(form, thetas)
    best = int(np.argmin(values))
    return float(values[best]), thetas[best]


def wahp_witness_search(
    sub: SubalgebraHandle,
    mid: SubalgebraHandle,
    config: Optional[OptimizerConfig] = None,
) -> WahpGapReport:
    """Gap over the full family of basis pairs, in closed form.

    The functional vanishes for some unitary exactly when the homomorphism
    identity holds for all of the algebra (it is bilinear in the pair), so a
    positive minimum here witnesses the failure for the whole inclusion.

    Over this family the functional is constant on the unitaries of ``B``,
    so its minimum is its value at ``u = 1``.  Write ``T_u(x, y) = E_B(x u y)
    - E_B(E_N(x) u E_N(y))``.  For ``u`` in ``B <= N`` the expectation is
    ``N``-bimodular, so ``E_N(x) u = E_N(x u)`` and ``T_u(x, y) = T_1(x u,
    y)``.  The matrix units are orthogonal with ``|e|_2^2`` the weight ``w_k``
    of their block, so ``F(u) = sum_{x,y} |T_1(x u, y)|_2^2`` is the squared
    Hilbert-Schmidt norm of ``y -> T_1(R_u W^(1/2) ., y)``, with ``R_u`` right
    multiplication by ``u`` and ``W`` the block weights.  ``R_u`` is unitary
    on the GNS space and preserves every block, so it commutes with
    ``W^(1/2)`` and drops out of the norm: ``F(u) = F(1)``.

    The report carries ``F(1)`` with minimizer ``1`` and no optimizer run.
    As a cross-check, ``F`` is evaluated at ``CROSS_CHECK_POINTS`` seeded
    random unitaries; ``oracle_value`` is their minimum, and ``converged``
    says that every one lies within ``M``'s ``oracle_slack`` of ``F(1)``.
    """
    config = config or OptimizerConfig()
    _check_triple(sub, mid, ())
    basis = sub.ambient.basis()
    pairs = [(x, y) for x in basis for y in basis]
    q = _objective_matrix(sub, pairs, conditional_expectation(mid))
    if not q.any():
        return _exact_zero_report(sub, pairs, config)

    form = _unit_form(sub, hermitian_basis(sub), q)
    dim_h = len(form.herm)
    rng = np.random.default_rng(config.seed)
    thetas = rng.normal(scale=np.pi, size=(CROSS_CHECK_POINTS, dim_h))
    values = _values(form, np.concatenate([np.zeros((1, dim_h)), thetas]))
    value, samples = float(values[0]), values[1:]  # row 0 is u = 1
    spread = float(np.max(np.abs(samples - value)))
    return WahpGapReport(
        witness_pairs=pairs,
        objective_value=value,
        oracle_value=float(samples.min()),
        minimizer=sub.ambient.one(),
        unitary_defect=0.0,
        converged=spread <= sub.ambient.tolerances.oracle_slack,
        restarts=0,
        iterations=0,
        seed=config.seed,
    )
