"""The basic construction of an inclusion at finite dimension.

Everything lives on the GNS space of the ambient trace: elements become
coordinate vectors, left and right multiplications ``lambda``/``rho`` become
square matrices (blockwise Kronecker products; the orthonormal scaling
cancels), and the projection ``e`` of the construction is the orthogonal
projection onto the subalgebra's vector span.

The rest is closed form in a module basis ``eta_i`` of the ambient algebra
over the subalgebra ``B``: the trace vector, then the closed-form basis of
the complement ``M - B`` (``bimodule.orthonormal_basis``), whose
reconstruction ``v = sum_i eta_i E_B(eta_i* v)`` is, as operators, the
Pimsner-Popa identity ``sum_i lambda(eta_i) e lambda(eta_i)* = 1``.

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

The build checks ``Tr(x e y) = tau(x y)`` on all pairs of matrix units and
the Pimsner-Popa identity in operator norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bimodule import BimoduleBasis, module_frame, orthonormal_basis, remove_component
from .errors import ConstructionError, RepresentationError
from .expectations import SubalgebraHandle, conditional_expectation
from .matrixalg import AlgebraElement, MultiMatrixAlgebra
from .tolerances import Tolerances


def _block_diag(blocks: list) -> np.ndarray:
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def left_operator(x: AlgebraElement) -> np.ndarray:
    """Matrix of left multiplication on the GNS space."""
    return _block_diag([np.kron(b, np.eye(b.shape[0], dtype=complex)) for b in x.blocks])


def right_operator(y: AlgebraElement) -> np.ndarray:
    """Matrix of right multiplication on the GNS space."""
    return _block_diag([np.kron(np.eye(b.shape[0], dtype=complex), b.T) for b in y.blocks])


@dataclass
class BasicConstruction:
    algebra: MultiMatrixAlgebra
    subalgebra: SubalgebraHandle
    tolerances: Tolerances
    e_sub: np.ndarray
    trace_vectors: BimoduleBasis
    trace_form: np.ndarray  # sum of |eta_i><eta_i|

    # -- operators -----------------------------------------------------------

    def vector_of(self, x: AlgebraElement) -> np.ndarray:
        return self.algebra.to_vector(x)

    def element_of(self, vec: np.ndarray) -> AlgebraElement:
        return self.algebra.from_vector(vec)

    def conjugation(self, x: AlgebraElement) -> AlgebraElement:
        """The canonical conjugation of the GNS space: the adjoint map."""
        return x.adjoint()

    def vector_operator(self, eta: AlgebraElement) -> np.ndarray:
        """Operator attached to a vector of the GNS space.

        On ``x`` (as a vector) it returns ``eta x``; identifying vectors
        with elements this is left multiplication by ``eta``, and the
        operator attached to ``x (trace vector)`` is exactly ``left_operator(x)``.
        """
        return left_operator(eta)

    def basic_operator(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        """The spanning operator ``lambda(x) e lambda(y)``."""
        return left_operator(x) @ self.e_sub @ left_operator(y)

    # -- canonical trace --------------------------------------------------------

    def extension_trace(self, op: np.ndarray) -> complex:
        """Canonical trace of the extension algebra."""
        return complex(np.sum(op * self.trace_form.T))

    def extension_norm(self, op: np.ndarray) -> float:
        return float(np.sqrt(max(self.extension_trace(op.conj().T @ op).real, 0.0)))

    # -- pull-down ---------------------------------------------------------------

    def pull_down(self, op: np.ndarray) -> AlgebraElement:
        """Linear extension of ``x e y -> x y``: ``sum_i (T eta_i) eta_i*``.

        The input must lie in the span, that is commute with the right
        action of the subalgebra.
        """
        bound = self.tolerances.pull_down * max(1.0, float(np.linalg.norm(op)))
        for b in self.subalgebra.basis:
            rb = right_operator(b)
            err = float(np.linalg.norm(op @ rb - rb @ op))
            if err > bound:
                raise RepresentationError(
                    f"operator is outside the x e y span (commutator {err:.2e})")
        out = self.algebra.zero()
        for eta in self.trace_vectors.vectors:
            out = out + self.element_of(op @ self.vector_of(eta)) @ eta.adjoint()
        return out

    # -- identity checks -----------------------------------------------------------

    def trace_identity_residual(self) -> float:
        """Largest ``|Tr(x e y) - tau(x y)|`` over all pairs of matrix units."""
        dim = self.algebra.dim
        units = self.algebra.basis()
        lefts = np.stack([left_operator(u) for u in units])
        # Tr(L_x e L_y) = sum_ab (L_x)_ab (e L_y F)_ba with F the trace form
        factors = (self.e_sub @ lefts @ self.trace_form).transpose(0, 2, 1)
        traces = lefts.reshape(dim, -1) @ factors.reshape(dim, -1).T
        one = self.vector_of(self.algebra.one())
        products = (one.conj() @ lefts) @ (lefts @ one).T  # tau(x y) = <1, x y 1>
        return float(np.max(np.abs(traces - products)))

    def compression_residual(self, x: AlgebraElement) -> float:
        """Operator norm of ``e lambda(x) e - lambda(E_B(x)) e``."""
        expect = conditional_expectation(self.algebra, self.subalgebra)
        lhs = self.e_sub @ left_operator(x) @ self.e_sub
        rhs = left_operator(expect(x)) @ self.e_sub
        return float(np.linalg.norm(lhs - rhs, 2))

    def vector_norm_residual(self, w: np.ndarray) -> float:
        """``| |w e|_Tr - |w (trace vector)|_tau |`` for an operator ``w``."""
        eta = self.element_of(w @ self.vector_of(self.algebra.one()))
        return abs(self.extension_norm(w @ self.e_sub) - eta.norm2())

    def pimsner_popa_residual(self) -> float:
        """Operator norm of ``sum_i lambda(eta_i) e lambda(eta_i)* - 1``.

        Pull-down of ``x e y`` is ``x`` times the adjoint of the
        reconstruction of ``y*``, so this bounds the pull-down defect.
        """
        projection = module_projection(self, self.trace_vectors)
        return float(np.linalg.norm(projection - np.eye(self.algebra.dim), 2))


def basic_construction(
    algebra: MultiMatrixAlgebra,
    subalgebra: SubalgebraHandle,
    tolerances: Optional[Tolerances] = None,
) -> BasicConstruction:
    """Build and verify the extension data for an inclusion."""
    tolerances = tolerances or Tolerances()
    coords = subalgebra.coordinates
    e_sub = coords @ coords.conj().T

    expect = conditional_expectation(algebra, subalgebra)
    rest = orthonormal_basis(subalgebra, expect, remove_component(algebra.basis(), expect),
                             tolerances)
    trace_vectors = BimoduleBasis(subalgebra=subalgebra, expectation=expect,
                                  vectors=[algebra.one()] + rest.vectors,
                                  supports=[algebra.one()] + rest.supports)
    frame = np.stack([algebra.to_vector(eta) for eta in trace_vectors.vectors], axis=1)

    construction = BasicConstruction(
        algebra=algebra,
        subalgebra=subalgebra,
        tolerances=tolerances,
        e_sub=e_sub,
        trace_vectors=trace_vectors,
        trace_form=frame @ frame.conj().T,
    )
    _verify_construction(construction)
    return construction


def _verify_construction(c: BasicConstruction) -> None:
    tol = c.tolerances.construction_identity
    if (c.trace_vectors.vectors[0] - c.algebra.one()).norm2() > tol:
        raise ConstructionError("module basis does not start at the trace vector")
    for eta in c.trace_vectors.vectors[1:]:
        if float(np.linalg.norm(c.e_sub @ c.vector_of(eta))) > tol:
            raise ConstructionError("module basis vector has a nonzero subalgebra component")
    worst = c.trace_identity_residual()
    if worst > tol:
        raise ConstructionError(f"trace identity residual {worst:.2e} exceeds {tol:.2e}")
    defect, bound = c.pimsner_popa_residual(), c.tolerances.reconstruction
    if defect > bound:
        raise ConstructionError(f"Pimsner-Popa residual {defect:.2e} exceeds {bound:.2e}")


def module_projection(construction: BasicConstruction, basis: BimoduleBasis) -> np.ndarray:
    """Projection onto the closed module a basis spans: ``sum w_i w_i*`` with
    ``w_i = lambda(eta_i) e``."""
    dim = construction.algebra.dim
    out = np.zeros((dim, dim), dtype=complex)
    for eta in basis.vectors:
        w = left_operator(eta) @ construction.e_sub
        out += w @ w.conj().T
    return out


@dataclass
class ModuleReport:
    module_dim: int
    generators: list  # orthonormal vectors spanning the module
    projection: np.ndarray


def qn1_module_test(construction: BasicConstruction, x: AlgebraElement) -> ModuleReport:
    """The right module generated by ``B x`` over the subalgebra ``B``.

    At finite dimension it is finitely generated, so ``x`` always carries a
    finite coset-style cover.  ``B`` is unital and closed under products, so
    the module is the linear span of the ``b1 x b2`` and its projection is
    the orthogonal projector onto that column span; the report's generators
    are an orthonormal frame of it.
    """
    sub = construction.subalgebra
    frame = module_frame(sub, [b @ x for b in sub.basis], construction.tolerances)
    return ModuleReport(module_dim=frame.shape[1],
                        generators=[construction.element_of(col) for col in frame.T],
                        projection=frame @ frame.conj().T)
