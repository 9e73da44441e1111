"""Unital *-subalgebras and trace-preserving conditional expectations.

A subalgebra handle stores a trace-orthonormal linear basis whose first
vector is the identity.  The conditional expectation onto the subalgebra is
the orthogonal projection in the trace inner product; at full dimension it
short-circuits to the literal identity map so that downstream differences
vanish exactly rather than to rounding error.

Closures start from the spectral projections of the generators' real and
imaginary parts, which span the same algebra with a well conditioned basis
where powers of a generator would not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GroupValidationError
from .matrixalg import AlgebraElement, MultiMatrixAlgebra, spectral_projections
from .tolerances import Tolerances


@dataclass
class SubalgebraHandle:
    ambient: MultiMatrixAlgebra
    basis: list  # tau-orthonormal AlgebraElements, basis[0] = identity
    coordinates: np.ndarray  # dim x len(basis), orthonormal columns

    @property
    def dim(self) -> int:
        return len(self.basis)

    def project_vector(self, vec: np.ndarray) -> np.ndarray:
        return self.coordinates @ (self.coordinates.conj().T @ vec)

    def project(self, x: AlgebraElement) -> AlgebraElement:
        return self.ambient.from_vector(self.project_vector(self.ambient.to_vector(x)))

    def contains(self, x: AlgebraElement, tol: float = 1e-10) -> bool:
        vec = self.ambient.to_vector(x)
        return float(np.linalg.norm(vec - self.project_vector(vec))) <= tol * max(1.0, x.norm2())

    def closure_defect(self, sample: Optional[Sequence[AlgebraElement]] = None) -> float:
        """Largest residual of products and adjoints falling back into the span."""
        items = list(sample) if sample is not None else self.basis
        worst = 0.0
        for x in items:
            vec = self.ambient.to_vector(x.adjoint())
            worst = max(worst, float(np.linalg.norm(vec - self.project_vector(vec))))
            for y in items:
                vec = self.ambient.to_vector(x @ y)
                worst = max(worst, float(np.linalg.norm(vec - self.project_vector(vec))))
        return worst


def _orthonormalize(ambient: MultiMatrixAlgebra, vectors: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column span, keeping the first column direction.

    The first input column must be the identity's coordinate vector; it has
    unit norm already, so it survives as the first output column.
    """
    if vectors.size == 0:
        raise GroupValidationError("cannot orthonormalize an empty span")
    first = vectors[:, :1]
    rest = vectors[:, 1:] - first @ (first.conj().T @ vectors[:, 1:])
    if rest.size:
        u, s, _ = np.linalg.svd(rest, full_matrices=False)
        keep = u[:, s > tol]
    else:
        keep = rest
    return np.concatenate([first, keep], axis=1)


def subalgebra_closure(
    ambient: MultiMatrixAlgebra,
    generators: Sequence[AlgebraElement],
    tolerances: Optional[Tolerances] = None,
) -> SubalgebraHandle:
    """Smallest unital *-subalgebra containing the generators.

    Starts from the spectral projections of each generator's real and
    imaginary parts, then alternates span-with-products-and-adjoints and
    re-orthonormalization until the dimension stabilizes, which takes at
    most ``ambient.dim`` rounds.
    """
    tolerances = tolerances or Tolerances()
    tol = tolerances.subalgebra_closure
    columns = [ambient.to_vector(ambient.one())]
    for g in generators:
        for part in (0.5 * (g + g.adjoint()), complex(0, -0.5) * (g - g.adjoint())):
            columns += [ambient.to_vector(p) for p in spectral_projections(part)]
    coords = _orthonormalize(ambient, np.stack(columns, axis=1), tol)
    while True:
        basis = [ambient.from_vector(coords[:, j]) for j in range(coords.shape[1])]
        new_columns = list(coords.T)
        for x in basis:
            new_columns.append(ambient.to_vector(x.adjoint()))
            for y in basis:
                new_columns.append(ambient.to_vector(x @ y))
        refreshed = _orthonormalize(ambient, np.stack(new_columns, axis=1), tol)
        if refreshed.shape[1] == coords.shape[1]:
            coords = refreshed
            break
        coords = refreshed
    basis = [ambient.from_vector(coords[:, j]) for j in range(coords.shape[1])]
    return SubalgebraHandle(ambient=ambient, basis=basis, coordinates=coords)


def full_subalgebra(ambient: MultiMatrixAlgebra, tolerances: Optional[Tolerances] = None
                    ) -> SubalgebraHandle:
    """Handle for the whole algebra."""
    columns = [ambient.to_vector(ambient.one())]
    columns += [ambient.to_vector(b) for b in ambient.basis()]
    coords = _orthonormalize(ambient, np.stack(columns, axis=1),
                             (tolerances or Tolerances()).subalgebra_closure)
    basis = [ambient.from_vector(coords[:, j]) for j in range(coords.shape[1])]
    return SubalgebraHandle(ambient=ambient, basis=basis, coordinates=coords)


def scalar_subalgebra(ambient: MultiMatrixAlgebra) -> SubalgebraHandle:
    one = ambient.to_vector(ambient.one())
    return SubalgebraHandle(ambient=ambient, basis=[ambient.one()],
                            coordinates=one.reshape(-1, 1))


def diagonal_subalgebra(ambient: MultiMatrixAlgebra,
                        tolerances: Optional[Tolerances] = None) -> SubalgebraHandle:
    gens = [
        ambient.matrix_unit(k, i, i)
        for k, n in enumerate(ambient.block_dims)
        for i in range(n)
    ]
    return subalgebra_closure(ambient, gens, tolerances)


def conditional_expectation(
    ambient: MultiMatrixAlgebra, sub: SubalgebraHandle
) -> Callable[[AlgebraElement], AlgebraElement]:
    """Trace-preserving conditional expectation onto the subalgebra.

    This is the orthogonal projection in the trace inner product, which is
    automatically bimodular, idempotent, adjoint-preserving and positive.
    When the subalgebra is the whole algebra the map is the identity
    function, exact to the last bit.
    """
    if sub.ambient is not ambient:
        raise GroupValidationError("subalgebra handle belongs to a different ambient algebra")
    if sub.dim == ambient.dim:
        return lambda x: x
    return sub.project


def central_projections(sub: SubalgebraHandle) -> list:
    """Minimal central projections of a subalgebra.

    The center is the null space of ``c -> (b c - c b)_b`` over the basis.
    The expectation onto it of a fixed seeded Gaussian self-adjoint element
    is a generic self-adjoint central element, whose spectral projections
    are the minimal central projections.
    """
    ambient = sub.ambient
    stacked = np.concatenate([
        np.stack([ambient.to_vector(b @ c - c @ b) for c in sub.basis], axis=1)
        for b in sub.basis
    ])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(svals > 1e-9 * max(1.0, float(svals[0]))))
    center = sub.coordinates @ vh[rank:].conj().T  # orthonormal frame of the center
    h = ambient.to_vector(ambient.random_selfadjoint(np.random.default_rng(0)))
    return spectral_projections(ambient.from_vector(center @ (center.conj().T @ h)))
