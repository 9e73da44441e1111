"""Module bases over a subalgebra and the projections they induce.

Over a subalgebra ``B`` of a multi-matrix algebra, every right-``B``-module
of vectors admits a basis ``eta_i`` with ``E_B(eta_i* eta_j) = delta_ij p_i``
for support projections ``p_i`` in ``B``, and every module vector
reconstructs as ``sum_i eta_i E_B(eta_i* v)``.  The basis comes from a
``B``-valued Gram-Schmidt sweep: subtract the components along earlier
vectors, then polar-normalize the remainder through the spectral pseudo
inverse square root of its Gram element ``E_B(r* r)``.

When only the module itself is needed, the sweep is not: ``B`` is unital
and closed under products, so the linear span of the ``g b`` (``g`` a
generator, ``b`` in ``B``) is already a right-``B``-module.  Its projection
is the orthogonal projector onto a column span, read off one SVD
(``module_frame``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expectations import SubalgebraHandle
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
    """Module basis of the right-``B`` span of the generators.

    The span is closed under the right action first, then swept in order;
    remainders with vanishing Gram element are dropped (a zero Gram trace
    forces a zero remainder, so nothing is lost).
    """
    tolerances = tolerances or Tolerances()
    cutoff = tolerances.gram_cutoff
    closed = [g @ b for g in module_generators for b in sub.basis]
    vectors: list[AlgebraElement] = []
    supports: list[AlgebraElement] = []
    for zeta in closed:
        remainder = zeta
        for eta in vectors:
            remainder = remainder - eta @ expectation(eta.adjoint() @ remainder)
        roots = gram_root_inverse(expectation(remainder.adjoint() @ remainder), cutoff)
        if roots is None:  # Gram rank zero: the remainder is noise
            continue
        root_inv, support = roots
        vectors.append(remainder @ root_inv)
        supports.append(support)
    vectors, supports = _merge_orthogonal_supports(vectors, supports, cutoff)
    return BimoduleBasis(subalgebra=sub, expectation=expectation,
                         vectors=vectors, supports=supports)


def gram_root_inverse(gram: AlgebraElement, cutoff: float):
    """Pseudo inverse square root and support of a Gram element, or ``None``.

    Only eigenvalues above ``cutoff`` count: ``E_B(r* r)`` is positive, so a
    negative eigenvalue is rounding noise whose root would be NaN.
    """
    spectra = [np.linalg.eigh(block) for block in gram.blocks]
    if not any((vals > cutoff).any() for vals, _ in spectra):
        return None

    def apply(func) -> AlgebraElement:
        return AlgebraElement(gram.algebra, tuple(
            (vecs * (func(np.where(vals > cutoff, vals, 1.0)) * (vals > cutoff)))
            @ vecs.conj().T for vals, vecs in spectra))

    return apply(lambda v: 1.0 / np.sqrt(v)), apply(np.ones_like)


def _merge_orthogonal_supports(vectors, supports, cutoff):
    """Combine basis vectors whose supports are orthogonal.

    If ``p_i p_j = 0`` then ``eta_i + eta_j`` has Gram ``p_i + p_j`` and the
    mixed reconstruction terms vanish (each coefficient lands under y = own
    support), so merging preserves the basis identities while shortening the
    list towards full supports.
    """
    out_vecs: list = []
    out_sups: list = []
    for eta, p in zip(vectors, supports):
        merged = False
        for i in range(len(out_vecs)):
            if (out_sups[i] @ p).norm2() <= cutoff:
                out_vecs[i] = out_vecs[i] + eta
                out_sups[i] = out_sups[i] + p
                merged = True
                break
        if not merged:
            out_vecs.append(eta)
            out_sups.append(p)
    return out_vecs, out_sups


def remove_component(ys: Sequence[AlgebraElement], expectation: Expectation) -> list:
    """Subtract the conditional expectation: results are expectation-null."""
    return [y - expectation(y) for y in ys]


def module_frame(sub: SubalgebraHandle, generators: Sequence[AlgebraElement],
                 tolerances: Optional[Tolerances] = None) -> np.ndarray:
    """Orthonormal frame of the right module the generators span.

    The left singular vectors of the stacked ``vec(g b)`` whose singular
    values exceed ``subalgebra_closure * max(1, s_max)``.
    """
    tolerances = tolerances or Tolerances()
    ambient = sub.ambient
    rows = np.array([ambient.to_vector(g @ b) for g in generators for b in sub.basis],
                    dtype=complex).reshape(-1, ambient.dim)
    frame, svals, _ = np.linalg.svd(rows.T, full_matrices=False)
    return frame[:, svals > tolerances.subalgebra_closure * np.max(svals, initial=1.0)]


def module_dimension(sub: SubalgebraHandle, generators: Sequence[AlgebraElement],
                     tolerances: Optional[Tolerances] = None) -> int:
    """Linear dimension of the right module the generators span."""
    return module_frame(sub, generators, tolerances).shape[1]
