"""Module bases over a subalgebra and the projections they induce.

Over a subalgebra ``B`` of a multi-matrix algebra, every right-``B``-module
of vectors admits a basis ``eta_i`` with ``E_B(eta_i* eta_j) = delta_ij p_i``
for support projections ``p_i`` in ``B``, and every module vector
reconstructs as ``sum_i eta_i E_B(eta_i* v)`` (Pimsner-Popa).  The basis is
in closed form, from the module's orthogonal projector ``P`` and the minimal
projection ``p = E_11`` of each simple summand of ``B``
(``expectations.matrix_units``, used by ``orthonormal_basis``): right
multiplication ``R_p`` commutes with ``P``, so ``X p`` is the range of the
Hermitian ``P R_p P``, whose spectrum is 0 and 1.

When only the module itself is needed, the basis is not: ``B`` is unital
and closed under products, so the linear span of the ``g b`` (``g`` a
generator, ``b`` in ``B``) is already a right-``B``-module.  Its projection
is the orthogonal projector onto a column span, read off one SVD
(``module_frame``).  Its dimension needs no span over all of ``B``: the
module splits over the summands, ``X = sum_j (X E^j_11) (x) C^(n_j)``, so
``dim X = sum_j n_j rank[g E^j_a1 : g, a]``, each rank counted with the
relative singular-value cutoff of its own summand (``module_dimension``).

Both work on per-block stacks: ``module_frame``, the one frame entry point,
takes its generators as stacks and forms all ``g b`` as one broadcast
``matmul`` against the handle's basis stacks per block, and all ``x p`` over
the columns of a projector are one ``matmul`` per block on its coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .expectations import SubalgebraHandle, matrix_units
from .matrixalg import AlgebraElement

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
    projector: np.ndarray,
) -> BimoduleBasis:
    """Module basis of the right-``B`` module ``X`` with orthogonal projector
    ``projector`` on the GNS coordinates.

    Take ``p = E_11`` of each simple summand of ``B``.  ``X`` and its
    complement are right-``B``-modules, so ``R_p`` commutes with ``P`` and
    ``X p`` is the range of ``P R_p P = (R_p P)* (R_p P)``: its eigenvectors
    above 1/2, from one batched ``eigh`` over the summands (the spectrum is 0
    and 1, so no relative cutoff is needed).  A minimal projection has
    ``p B p = C p``, so any trace-orthonormal frame ``xi_j`` of ``X p`` has
    ``E_B(xi_i* xi_j) = delta_ij p / tau(p)``; scaled by ``tau(p)^(1/2)`` the
    frame has support ``p`` and generates ``X z`` for the central support
    ``z`` of ``p``.  Vectors from different summands have orthogonal
    supports, so they are summed index by index.
    """
    ambient = sub.ambient
    # the projector's columns as per-block stacks: vec(x p) = vec(x) p per
    # block, as the block scaling commutes with right multiplication
    chunks = [projector[part].T.reshape(-1, n, n)
              for part, n in zip(ambient.block_slices, ambient.block_dims)]
    minimal = [grid[0][0] for grid in matrix_units(sub)]
    # (R_p P)^T for every p: row i is vec(x_i p) for the i-th column x_i of P
    images = np.stack([np.concatenate([(c @ b).reshape(len(c), b.size)
                                       for c, b in zip(chunks, p.blocks)], axis=1)
                       for p in minimal])
    values, vectors = np.linalg.eigh(images.conj() @ images.transpose(0, 2, 1))
    total = np.zeros((ambient.dim, 0), dtype=complex)
    supports: list[AlgebraElement] = []
    for p, frame, kept in zip(minimal, vectors, values > 0.5):
        frame = frame[:, kept]
        # fix the phase: the largest entry of each column is real positive
        peaks = frame[np.argmax(np.abs(frame), axis=0), np.arange(frame.shape[1])]
        frame = frame * (np.sqrt(p.trace().real) * peaks.conj() / np.abs(peaks))
        width = frame.shape[1]
        if width > total.shape[1]:
            total = np.pad(total, ((0, 0), (0, width - total.shape[1])))
        total[:, :width] += frame
        supports = [q + p for q in supports[:width]] + supports[width:] \
            + [p] * (width - len(supports))
    return BimoduleBasis(subalgebra=sub, expectation=expectation,
                         vectors=ambient.elements(ambient.stacks_of(total)),
                         supports=supports)


def module_frame(sub: SubalgebraHandle, generators: Sequence[np.ndarray]) -> np.ndarray:
    """Orthonormal frame of the right module spanned by generators given as
    per-block stacks ``(count, n_k, n_k)``.

    The left singular vectors of the stacked ``vec(g b)``, in ``(g, b)``
    order, whose singular values exceed ``subalgebra_closure * max(1,
    s_max)`` (``_kept``).
    """
    frame, svals, _ = np.linalg.svd(_products(sub, generators), full_matrices=False)
    return frame[:, _kept(sub, svals)]


def _products(sub: SubalgebraHandle, generators: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate columns of every ``g b`` in ``(g, b)`` order: per block, one
    broadcast ``matmul`` of the generator stack against the handle's ``stacks``."""
    ambient = sub.ambient
    return ambient.vectors_of([(g[:, None] @ s).reshape(-1, n, n)
                               for g, s, n in zip(generators, sub.stacks, ambient.block_dims)])


def _kept(sub: SubalgebraHandle, svals: np.ndarray) -> np.ndarray:
    """The singular values above ``subalgebra_closure * max(1, s_max)``, per
    row of a batch, with the cutoff of ``sub.ambient``."""
    return svals > sub.ambient.tolerances.subalgebra_closure * np.max(
        svals, axis=-1, initial=1.0, keepdims=True)


def module_dimension(sub: SubalgebraHandle, generators: Sequence[AlgebraElement]) -> int:
    """Linear dimension of the right module ``X`` the generators span:
    ``sum_j n_j rank[g E^j_a1 : g, a]`` over the summands ``j`` of ``B``
    (``E_1a`` maps ``X E_11`` onto ``X E_aa``), each rank under its own
    summand's relative cutoff; summands of one size share a batched SVD."""
    ambient, gens = sub.ambient, sub.ambient.stack(generators)
    columns: dict = {}  # summand size n -> the E_a1 of every summand of that size
    for grid in matrix_units(sub):
        columns.setdefault(len(grid), []).extend(row[0] for row in grid)
    total = 0
    for n, units in columns.items():
        # columns vec(g E_a1) in (g, summand, a) order, regrouped per summand
        products = ambient.vectors_of([(g[:, None] @ u).reshape(-1, k, k) for g, u, k
                                       in zip(gens, ambient.stack(units), ambient.block_dims)])
        count = len(units) // n
        spans = products.reshape(ambient.dim, len(generators), count, n).transpose(2, 0, 1, 3)
        svals = np.linalg.svd(spans.reshape(count, ambient.dim, -1), compute_uv=False)
        total += n * int(np.count_nonzero(_kept(sub, svals)))
    return total
