"""Module bases over a subalgebra and the projections they induce.

Over a subalgebra ``B`` of a multi-matrix algebra, every right-``B``-module
of vectors admits a basis ``eta_i`` with ``E_B(eta_i* eta_j) = delta_ij p_i``
for support projections ``p_i`` in ``B``, and every module vector
reconstructs as ``sum_i eta_i E_B(eta_i* v)`` (Pimsner-Popa).  The basis is
in closed form, from the minimal projection ``E_11`` of each simple summand
of ``B`` (``expectations.matrix_units``, used by ``orthonormal_basis``).

When only the module itself is needed, the basis is not: ``B`` is unital
and closed under products, so the linear span of the ``g b`` (``g`` a
generator, ``b`` in ``B``) is already a right-``B``-module.  Its projection
is the orthogonal projector onto a column span, read off one SVD
(``module_frame``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expectations import SubalgebraHandle, matrix_units
from .matrixalg import AlgebraElement
from .tolerances import Tolerances

Expectation = Callable[[AlgebraElement], AlgebraElement]


@dataclass
class BimoduleBasis:
    subalgebra: SubalgebraHandle
    expectation: Expectation
    vectors: list  # eta_i
    supports: list  # p_i = E_B(eta_i* eta_i), projections in B

    @property
    def length(self) -> int:
        return len(self.vectors)

    def component(self, v: AlgebraElement) -> list:
        return [self.expectation(eta.adjoint() @ v) for eta in self.vectors]

    def reconstruct(self, v: AlgebraElement) -> AlgebraElement:
        out = v.algebra.zero()
        for eta, coef in zip(self.vectors, self.component(v)):
            out = out + eta @ coef
        return out

    def reconstruction_residual(self, v: AlgebraElement) -> float:
        return (v - self.reconstruct(v)).norm2()

    def gram_defect(self) -> float:
        """Largest violation of the orthogonality and support identities."""
        worst = 0.0
        for i, ei in enumerate(self.vectors):
            for j, ej in enumerate(self.vectors):
                gram = self.expectation(ei.adjoint() @ ej)
                target = self.supports[i] if i == j else gram.algebra.zero()
                worst = max(worst, (gram - target).norm2())
        for eta, p in zip(self.vectors, self.supports):
            worst = max(worst, (eta @ p - eta).norm2())
            worst = max(worst, (p @ p - p).norm2())
        return worst


def orthonormal_basis(
    sub: SubalgebraHandle,
    expectation: Expectation,
    module_generators: Sequence[AlgebraElement],
    tolerances: Optional[Tolerances] = None,
) -> BimoduleBasis:
    """Module basis of the right-``B`` span ``X`` of the generators.

    Take ``p = E_11`` of each simple summand of ``B``.  A minimal
    projection has ``p B p = C p``, so any
    trace-orthonormal frame ``xi_j`` of ``X p`` has
    ``E_B(xi_i* xi_j) = delta_ij p / tau(p)``; scaled by ``tau(p)^(1/2)`` the
    frame has support ``p`` and generates ``X z`` for the central support
    ``z`` of ``p``.  Vectors from different summands have orthogonal
    supports, so they are summed index by index.
    """
    tolerances = tolerances or Tolerances()
    ambient = sub.ambient
    module = [ambient.from_vector(col)
              for col in module_frame(sub, module_generators, tolerances).T]
    vectors: list[AlgebraElement] = []
    supports: list[AlgebraElement] = []
    for p in (grid[0][0] for grid in matrix_units(sub)):
        frame = _frame(ambient, [x @ p for x in module], tolerances)
        # fix the phase: the largest entry of each column is real positive
        peaks = frame[np.argmax(np.abs(frame), axis=0), np.arange(frame.shape[1])]
        frame = frame * (np.sqrt(p.trace().real) * peaks.conj() / np.abs(peaks))
        for i, col in enumerate(frame.T):
            eta = ambient.from_vector(col)
            if i < len(vectors):
                vectors[i], supports[i] = vectors[i] + eta, supports[i] + p
            else:
                vectors.append(eta)
                supports.append(p)
    return BimoduleBasis(subalgebra=sub, expectation=expectation,
                         vectors=vectors, supports=supports)


def remove_component(ys: Sequence[AlgebraElement], expectation: Expectation) -> list:
    """Subtract the conditional expectation: results are expectation-null."""
    return [y - expectation(y) for y in ys]


def module_frame(sub: SubalgebraHandle, generators: Sequence[AlgebraElement],
                 tolerances: Optional[Tolerances] = None) -> np.ndarray:
    """Orthonormal frame of the right module the generators span.

    The left singular vectors of the stacked ``vec(g b)`` whose singular
    values exceed ``subalgebra_closure * max(1, s_max)``.
    """
    return _frame(sub.ambient, [g @ b for g in generators for b in sub.basis],
                  tolerances or Tolerances())


def _frame(ambient, elements: list, tolerances: Tolerances) -> np.ndarray:
    columns = np.array([ambient.to_vector(x) for x in elements], dtype=complex)
    frame, svals, _ = np.linalg.svd(columns.reshape(-1, ambient.dim).T, full_matrices=False)
    return frame[:, svals > tolerances.subalgebra_closure * np.max(svals, initial=1.0)]


def module_dimension(sub: SubalgebraHandle, generators: Sequence[AlgebraElement],
                     tolerances: Optional[Tolerances] = None) -> int:
    """Linear dimension of the right module the generators span."""
    return module_frame(sub, generators, tolerances).shape[1]
