"""The basic construction ``<M, e_B>`` of an inclusion at finite dimension.

It depends on ``B <= M`` alone (Jones), which the subalgebra handle holds.
Everything lives on the GNS space of the ambient trace: elements become
coordinate vectors, left and right multiplications ``lambda``/``rho`` become
square block-diagonal matrices (the orthonormal scaling cancels), and the
projection ``e`` is the handle's ``projector``.  ``left_operators`` and
``right_operators`` build ``lambda`` and ``rho`` for a whole stack of elements
at once, per block the stack broadcast against the identity; ``module_projection`` (all ``eta_i``)
and the pull-down's span check (all of ``rho(B)``) use them directly, and
``left_operator`` and ``right_operator`` are their one-element cases.

The rest is closed form in a module basis ``eta_i`` of the ambient algebra
over the subalgebra ``B``: the trace vector, then the closed-form basis of
the complement ``M - B`` read from its projector ``1 - e``
(``bimodule.orthonormal_basis``), whose reconstruction ``v = sum_i eta_i
E_B(eta_i* v)`` is, as operators, the Pimsner-Popa identity ``sum_i
lambda(eta_i) e lambda(eta_i)* = 1``.

* Canonical trace ``Tr(T) = sum_i <eta_i, T eta_i>``: on ``x e y`` it is
  ``tau(y sum_i eta_i E_B(eta_i* x)) = tau(x y)``.
* Membership: the span of the ``x e y`` is the commutant ``(JBJ)'`` of
  ``rho(B)`` (Jones).  Each ``x e y`` commutes with ``rho(B)`` as ``e`` does.
  If ``T`` does, ``T lambda(eta) e`` and ``lambda(T eta) e`` agree on ``B``
  (``T (eta b) = (T eta) b``) and vanish on its complement, so
  ``T = sum_i lambda(T eta_i) e lambda(eta_i)*`` lies in the span.
* Pull-down: hence ``x e y -> x y`` is ``T -> sum_i (T eta_i) eta_i*``,
  well defined as it depends on ``T`` alone; on ``x e y`` it gives
  ``x sum_i E_B(y eta_i) eta_i* = x y`` by reconstruction of ``y*``.

The build checks the Pimsner-Popa identity as ``P = 1`` in operator norm, with
``P`` that operator sum, and reads ``Tr(x e y) = tau(x y)`` on all pairs of
matrix units off ``P`` (``trace_identity_residual``); the record keeps the
trace residual, ``P`` and ``|P - 1|``.  Its bounds are the ambient algebra's
``tolerances``; the pull-down's span check is relative, at ``PULL_DOWN``.

``qn1_module_test`` needs none of this: the right module ``B x`` generates
over ``B`` depends on ``B <= M`` alone, so it takes the subalgebra handle and
reads the module off one frame of the ``b1 x b2`` (``bimodule.module_frame``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bimodule import BimoduleBasis, module_frame, orthonormal_basis
from .errors import ConstructionError, RepresentationError
from .expectations import SubalgebraHandle, conditional_expectation
from .matrixalg import AlgebraElement, MultiMatrixAlgebra

PULL_DOWN = 1e-10  # span membership: right-action commutator, relative to max(1, |T|)


def _block_operators(ambient: MultiMatrixAlgebra, stacks: Sequence[np.ndarray], place
                     ) -> np.ndarray:
    count = len(stacks[0])
    out = np.zeros((count, ambient.dim, ambient.dim), dtype=complex)
    for part, n, s in zip(ambient.block_slices, ambient.block_dims, stacks):
        out[:, part, part] = place(s, np.eye(n)).reshape(count, n * n, n * n)
    return out


def left_operators(ambient: MultiMatrixAlgebra, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Matrices ``(count, dim, dim)`` of left multiplication on the GNS space by
    the elements of per-block stacks ``(count, n_k, n_k)``.

    Per block, ``vec(x z) = (x (x) 1) vec(z)``: the stack broadcast against the
    identity, placed on the block's diagonal range.
    """
    return _block_operators(ambient, stacks,
                            lambda s, one: s[:, :, None, :, None] * one[:, None, :])


def right_operators(ambient: MultiMatrixAlgebra, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Matrices ``(count, dim, dim)`` of right multiplication on the GNS space.

    Per block, ``vec(z y) = (1 (x) y^T) vec(z)``.
    """
    return _block_operators(ambient, stacks, lambda s, one: one[:, None, :, None]
                            * s.transpose(0, 2, 1)[:, None, :, None, :])


def left_operator(x: AlgebraElement) -> np.ndarray:
    """Matrix of left multiplication on the GNS space."""
    return left_operators(x.algebra, [b[None] for b in x.blocks])[0]


def right_operator(y: AlgebraElement) -> np.ndarray:
    """Matrix of right multiplication on the GNS space."""
    return right_operators(y.algebra, [b[None] for b in y.blocks])[0]


@dataclass(eq=False)
class BasicConstruction:
    subalgebra: SubalgebraHandle
    trace_vectors: BimoduleBasis
    trace_form: np.ndarray  # sum of |eta_i><eta_i|
    pimsner_popa: np.ndarray = field(repr=False)  # P = sum_i lambda(eta_i) e lambda(eta_i)*
    pimsner_popa_defect: float  # |P - 1| in operator norm, which bounds the pull-down defect
    trace_residual: float  # trace_identity_residual of P

    @property
    def algebra(self) -> MultiMatrixAlgebra:
        return self.subalgebra.ambient

    @property
    def e_sub(self) -> np.ndarray:
        """The projection ``e`` onto the subalgebra's span."""
        return self.subalgebra.projector

    # -- operators -----------------------------------------------------------

    def basic_operator(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        """The spanning operator ``lambda(x) e lambda(y)``."""
        return left_operator(x) @ self.e_sub @ left_operator(y)

    # -- canonical trace --------------------------------------------------------

    def extension_trace(self, op: np.ndarray):
        """Canonical trace of the extension algebra, of one operator or of
        each operator of a stack: ``Tr(T) = sum_ab T_ab F_ba`` with ``F`` the
        trace form."""
        return np.einsum("...ab,ba->...", op, self.trace_form)

    # -- pull-down ---------------------------------------------------------------

    def pull_down(self, op: np.ndarray) -> AlgebraElement:
        """Linear extension of ``x e y -> x y``: ``sum_i (T eta_i) eta_i*``.

        The input must lie in the span, that is commute with the right
        action of the subalgebra.
        """
        bound = PULL_DOWN * max(1.0, float(np.linalg.norm(op)))
        algebra = self.algebra
        rights = right_operators(algebra, self.subalgebra.stacks)
        errs = np.linalg.norm(op @ rights - rights @ op, axis=(1, 2))
        if np.any(errs > bound):
            raise RepresentationError("operator is outside the x e y span "
                                      f"(commutator {errs[np.argmax(errs > bound)]:.2e})")
        etas = algebra.stack(self.trace_vectors.vectors)
        images = algebra.stacks_of(op @ algebra.vectors_of(etas))  # T eta_i
        return AlgebraElement(algebra, tuple(
            np.einsum("aij,akj->ik", t, e.conj()) for t, e in zip(images, etas)))

    # -- identity checks -----------------------------------------------------------

    def compression_residuals(self, lefts: np.ndarray) -> np.ndarray:
        """Operator norms of ``e lambda(x) e - lambda(E_B(x)) e`` for each
        ``lambda(x)`` of a stack ``(count, dim, dim)``; ``x`` is read back as
        ``lambda(x)`` applied to the trace vector."""
        algebra = self.algebra
        xs = lefts @ algebra.to_vector(algebra.one())
        expected = algebra.stacks_of(self.subalgebra.project_vector(xs.T))
        rhs = left_operators(algebra, expected) @ self.e_sub
        return np.linalg.norm(self.e_sub @ lefts @ self.e_sub - rhs, 2, axis=(1, 2))

    def vector_norm_residuals(self, ws: np.ndarray) -> np.ndarray:
        """``| |w e|_Tr - |w (trace vector)|_tau |`` for each operator of a
        stack ``(count, dim, dim)``."""
        we = ws @ self.e_sub
        traces = self.extension_trace(we.conj().swapaxes(1, 2) @ we).real
        vectors = ws @ self.algebra.to_vector(self.algebra.one())
        return np.abs(np.sqrt(np.maximum(traces, 0.0)) - np.linalg.norm(vectors, axis=1))


def basic_construction(subalgebra: SubalgebraHandle) -> BasicConstruction:
    """Build and verify the extension data of the inclusion a handle holds,
    within the ambient algebra's tolerances."""
    algebra = subalgebra.ambient
    tolerances = algebra.tolerances
    expect = conditional_expectation(subalgebra)
    rest = orthonormal_basis(subalgebra, expect, np.eye(algebra.dim) - subalgebra.projector)
    trace_vectors = BimoduleBasis(subalgebra=subalgebra, expectation=expect,
                                  vectors=[algebra.one()] + rest.vectors,
                                  supports=[algebra.one()] + rest.supports)
    frame = np.stack([algebra.to_vector(eta) for eta in trace_vectors.vectors], axis=1)
    tol = tolerances.construction_identity
    if np.any(np.linalg.norm(subalgebra.projector @ frame[:, 1:], axis=0) > tol):
        raise ConstructionError("module basis vector has a nonzero subalgebra component")
    p = module_projection(trace_vectors)
    defect = float(np.linalg.norm(p - np.eye(algebra.dim), 2))
    worst = trace_identity_residual(algebra, p)
    if worst > tol:
        raise ConstructionError(f"trace identity residual {worst:.2e} exceeds {tol:.2e}")
    if defect > tolerances.reconstruction:
        raise ConstructionError(
            f"Pimsner-Popa residual {defect:.2e} exceeds {tolerances.reconstruction:.2e}")
    return BasicConstruction(subalgebra=subalgebra, trace_vectors=trace_vectors,
                             trace_form=frame @ frame.conj().T, pimsner_popa=p,
                             pimsner_popa_defect=defect, trace_residual=worst)


def trace_identity_residual(algebra: MultiMatrixAlgebra, p: np.ndarray) -> float:
    """Largest ``|Tr(x e y) - tau(x y)|`` over all pairs of matrix units,
    read off the operator ``P = sum_i lambda(eta_i) e lambda(eta_i)*``
    (``module_projection`` of the trace vectors).

    The defect is ``<v(y*), (P - 1) v(x)>``: both sides equal ``sum_i
    tau(E_B(y eta_i) E_B(eta_i* x)) - tau(x y)`` for any vectors ``eta_i``.
    At ``x = E^k_ab``, ``y = E^l_cd`` it is ``(w_k w_l)^(1/2) (P - 1)`` at
    ``((l, d, c), (k, a, b))``, and these run over all coordinate pairs.
    """
    roots = np.repeat(np.sqrt(algebra.block_weights), [n * n for n in algebra.block_dims])
    defect = np.abs(p - np.eye(algebra.dim))
    return float(np.max(roots[:, None] * defect * roots))


def module_projection(basis: BimoduleBasis) -> np.ndarray:
    """Projection onto the closed module a basis over ``B`` spans: ``sum w_i
    w_i*`` with ``w_i = lambda(eta_i) e``."""
    sub, algebra = basis.subalgebra, basis.subalgebra.ambient
    # the w_i side by side: (dim, count * dim)
    w = (left_operators(algebra, algebra.stack(basis.vectors)) @ sub.projector) \
        .transpose(1, 0, 2).reshape(algebra.dim, -1)
    return w @ w.conj().T


@dataclass(eq=False)
class ModuleReport:
    module_dim: int
    generators: list  # orthonormal vectors spanning the module
    projection: np.ndarray


def qn1_module_test(sub: SubalgebraHandle, x: AlgebraElement) -> ModuleReport:
    """The right module generated by ``B x`` over the subalgebra ``B``.

    At finite dimension it is finitely generated, so ``x`` always carries a
    finite coset-style cover.  ``B`` is unital and closed under products, so
    the module is the linear span of the ``b1 x b2`` and its projection is
    the orthogonal projector onto that column span; the report's generators
    are an orthonormal frame of it.
    """
    algebra = sub.ambient
    algebra.check_members((x,))
    frame = module_frame(sub, [s @ b for s, b in zip(sub.stacks, x.blocks)])
    return ModuleReport(module_dim=frame.shape[1],
                        generators=algebra.elements(algebra.stacks_of(frame)),
                        projection=frame @ frame.conj().T)
