"""Unital *-subalgebras and trace-preserving conditional expectations.

A subalgebra handle is its coordinates: the orthonormal coordinate columns
of a trace-orthonormal linear basis whose first vector is the identity.  The
conditional expectation onto the subalgebra is the orthogonal projection in
the trace inner product; at full dimension it short-circuits to the literal
identity map so that downstream differences vanish exactly rather than to
rounding error.

Everything else is read from the coordinates and cached: the basis as
per-block stacks ``(dim B, n_k, n_k)`` (``SubalgebraHandle.stacks``), so
module and construction code forms every product with the basis as one
batched ``matmul`` per block, the basis elements (``basis``) as views of
those stacks, and the projection onto the span (``projector``).  A handle
holds ``B <= M``: functions that take one read ``M`` as ``sub.ambient``.

Closures start from the spectral projections of the generators' real and
imaginary parts, which span the same algebra with a well conditioned basis
where powers of a generator would not.  When at most one of those parts is
not scalar, that span is already ``C*(h)`` of the one part ``h`` (spectral
theorem) and the closure stops there.  Otherwise each round forms the
adjoints and all pairwise products of the current basis as one broadcast
``matmul`` per block of its stacks, until a round adds nothing or the span
is all of ``M``; a round that spans ``M`` ends the closure at once.

The Wedderburn structure of a subalgebra, its matrix units, has five
sources, all checked by ``cache_units``: a closure (the spectral
projections of ``h`` at a ``C*(h)`` stop, the ``E^k_ab`` once the span is
``M``), the whole algebra (the ``E^k_ab``; the scalars take ``[[1]]``), the
diagonal subalgebra (the ``E^k_ii``), a tensor product handle
(``corners.tensor_subalgebra``, the Kronecker products of its factors'
units), and for every other handle the link search of ``matrix_units``: the
minimal projections of one seeded generic element and the links between
them.  Minimal central projections, the module basis supports
(``bimodule``), the self-adjoint basis of the gap optimizer (``wahp``) and
the irreducible blocks of a group algebra (``group_algebra``) are all read
from them.  The units are found once per handle object and cached beside
the stacks (``SubalgebraHandle.units``); handles, like the other
matrix-engine records, compare by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConstructionError, GroupValidationError
from .matrixalg import (
    SPECTRAL_GAP,
    AlgebraElement,
    MultiMatrixAlgebra,
    spectral_frames,
    spectral_projections,
)


@dataclass(eq=False)
class SubalgebraHandle:
    ambient: MultiMatrixAlgebra
    coordinates: np.ndarray  # dim x dim B, orthonormal columns, column 0 = vec(1)
    # matrix units of this handle object, set by its constructor or on first use
    units: Optional[list] = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.coordinates.shape[1]

    @cached_property
    def stacks(self) -> list:
        """The basis as per-block stacks ``(dim B, n_k, n_k)``, read from ``coordinates``."""
        return self.ambient.stacks_of(self.coordinates)

    @cached_property
    def basis(self) -> list:
        """The tau-orthonormal basis elements, views of ``stacks``; ``basis[0] = 1``."""
        return self.ambient.elements(self.stacks)

    @cached_property
    def projector(self) -> np.ndarray:
        """``coords coords*``: the projection ``e`` onto the span, on the GNS space."""
        return self.coordinates @ self.coordinates.conj().T

    def project_vector(self, vec: np.ndarray) -> np.ndarray:
        return self.coordinates @ (self.coordinates.conj().T @ vec)

    def project(self, x: AlgebraElement) -> AlgebraElement:
        return self.ambient.from_vector(self.project_vector(self.ambient.to_vector(x)))

    def contains(self, x: AlgebraElement, tol: float = 1e-10) -> bool:
        vec = self.ambient.to_vector(x)
        return float(np.linalg.norm(vec - self.project_vector(vec))) <= tol * max(1.0, x.norm2())

def _adjoints_and_products(ambient: MultiMatrixAlgebra, coords: np.ndarray) -> np.ndarray:
    """Coordinate columns of ``x*`` and then ``x y`` for every ``y``, per basis
    element ``x`` of the coordinates: one broadcast ``matmul`` per block."""
    return ambient.vectors_of([
        np.concatenate([s.conj().transpose(0, 2, 1)[:, None], s[:, None] @ s], axis=1)
        .reshape(-1, n, n) for s, n in zip(ambient.stacks_of(coords), ambient.block_dims)])


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


def subalgebra_closure(ambient: MultiMatrixAlgebra,
                       generators: Sequence[AlgebraElement]) -> SubalgebraHandle:
    """Smallest unital *-subalgebra containing the generators.

    Starts from the spectral projections of each generator's real and
    imaginary parts.  When at most one part has more than one, their span
    with 1 is ``C*(h)`` of that part and is returned as it is, with those
    projections as its ``1 x 1`` units (``[[1]]`` when every part is
    scalar).  Otherwise it alternates span-with-products-and-adjoints and
    re-orthonormalization until the dimension stabilizes, which takes at most
    ``ambient.dim`` rounds, or until the span is all of ``M``, whose units
    are the ``E^k_ab`` (``_block_units``).  Spans are cut at the ambient's
    ``subalgebra_closure`` tolerance.
    """
    tol = ambient.tolerances.subalgebra_closure
    spectra = [spectral_projections(part) for g in generators
               for part in (0.5 * (g + g.adjoint()), complex(0, -0.5) * (g - g.adjoint()))]
    columns = [ambient.to_vector(ambient.one())] + [ambient.to_vector(p) for ps in spectra
                                                      for p in ps]
    coords = _orthonormalize(ambient, np.stack(columns, axis=1), tol)
    parts = [ps for ps in spectra if len(ps) > 1]
    if len(parts) <= 1:
        return cache_units(SubalgebraHandle(ambient=ambient, coordinates=coords),
                           [[[p]] for p in (parts[0] if parts else [ambient.one()])])
    while coords.shape[1] < ambient.dim:
        refreshed = _orthonormalize(
            ambient, np.concatenate([coords, _adjoints_and_products(ambient, coords)], axis=1), tol)
        if refreshed.shape[1] == coords.shape[1]:
            return SubalgebraHandle(ambient=ambient, coordinates=refreshed)
        coords = refreshed
    return cache_units(SubalgebraHandle(ambient=ambient, coordinates=coords),
                       _block_units(ambient))


def span_subalgebra(ambient: MultiMatrixAlgebra, columns: np.ndarray) -> SubalgebraHandle:
    """Handle of the span of 1 and the coordinate columns, for a span already
    known to be a unital *-subalgebra: orthonormalized after the identity."""
    one = ambient.to_vector(ambient.one())
    return SubalgebraHandle(ambient=ambient, coordinates=_orthonormalize(
        ambient, np.concatenate([one[:, None], columns], axis=1),
        ambient.tolerances.subalgebra_closure))


def _block_units(ambient: MultiMatrixAlgebra) -> list:
    """The matrix units ``E^k_ab`` of the whole algebra, one grid per block."""
    return [[[ambient.matrix_unit(k, a, b) for b in range(n)] for a in range(n)]
            for k, n in enumerate(ambient.block_dims)]


def full_subalgebra(ambient: MultiMatrixAlgebra) -> SubalgebraHandle:
    """Handle for the whole algebra: the coordinate axes orthonormalized after
    the identity, with the units ``E^k_ab``."""
    return cache_units(span_subalgebra(ambient, np.eye(ambient.dim)),
                       _block_units(ambient))


def scalar_subalgebra(ambient: MultiMatrixAlgebra) -> SubalgebraHandle:
    return cache_units(SubalgebraHandle(
        ambient=ambient, coordinates=ambient.to_vector(ambient.one()).reshape(-1, 1)),
        [[[ambient.one()]]])


def diagonal_subalgebra(ambient: MultiMatrixAlgebra) -> SubalgebraHandle:
    """The span of the diagonal units ``E^k_ii``, which is already a
    *-subalgebra and has them as its ``1 x 1`` units."""
    diagonal = [ambient.matrix_unit(k, i, i)
                for k, n in enumerate(ambient.block_dims) for i in range(n)]
    return cache_units(
        span_subalgebra(ambient, ambient.vectors_of(ambient.stack(diagonal))),
        [[[e]] for e in diagonal])


def conditional_expectation(sub: SubalgebraHandle) -> Callable[[AlgebraElement], AlgebraElement]:
    """Trace-preserving conditional expectation of ``sub.ambient`` onto ``sub``.

    This is the orthogonal projection in the trace inner product, which is
    automatically bimodular, idempotent, adjoint-preserving and positive.
    When the subalgebra is the whole algebra the map is the identity
    function, exact to the last bit.
    """
    if sub.dim == sub.ambient.dim:
        return lambda x: x
    return sub.project


def matrix_units(sub: SubalgebraHandle) -> list:
    """Matrix units of the subalgebra, one ``d x d`` nested list per simple summand.

    ``units[j][a][b]`` is ``E_ab`` of summand ``j``.  One seeded generic
    element ``x = E_B(g)`` gives them: the spectral projections ``p_i`` of
    ``(x + x*)/2`` are minimal projections of ``B``, and a link
    ``p_i x p_j`` is nonzero (2-norm above ``SPECTRAL_GAP * max(1, |x|_2)``)
    exactly when ``p_i`` and ``p_j`` lie in one summand.  There
    ``p_1 x p_a = c e_1a``, so ``E_1a = (p_1 x p_a) tau(p_a)^(1/2) /
    |p_1 x p_a|_2`` and ``E_ab = E_1a* E_1b``, computed in the eigenvector
    frames; ``E_ba`` is stored as the adjoint of ``E_ab``.

    A degenerate draw raises ``ConstructionError`` (``cache_units``): the
    summands must fill ``B`` and ``E_1a E_1b* = delta_ab E_11`` must hold
    within ``construction_identity``.  That makes each ``E_1a*`` a partial
    isometry with initial projection ``E_11``, so ``E_ab E_cd = E_1a* (E_1b
    E_1c*) E_1d = delta_bc E_ad`` follows.

    The units are decomposed once per handle object and cached on it
    (``SubalgebraHandle.units``); handles whose constructor already knows
    their structure arrive with them set, and the link search runs only for
    the others.  A second handle with equal contents decomposes again.
    Callers must not mutate the grids.
    """
    if sub.units is not None:
        return sub.units
    ambient = sub.ambient
    weights = ambient.block_weights
    x = sub.project(ambient.random_element(np.random.default_rng(0)))
    frames = spectral_frames(0.5 * (x + x.adjoint()))
    cutoff = SPECTRAL_GAP * max(1.0, x.norm2())
    summands: list = []  # per summand: (cluster, normalized link from its first cluster)
    for j, frame in enumerate(frames):
        trace = sum(w * f.shape[1] for w, f in zip(weights, frame))  # tau(p_j)
        for summand in summands:
            link = [f.conj().T @ xb @ g for f, xb, g in zip(frames[summand[0][0]], x.blocks, frame)]
            size = np.sqrt(sum(w * np.sum(np.abs(b) ** 2) for w, b in zip(weights, link)))
            if size > cutoff:
                summand.append((j, [np.sqrt(trace) / size * b for b in link]))
                break
        else:
            summands.append([(j, [np.eye(f.shape[1]) for f in frame])])
    units = []
    for summand in summands:
        grid = [[None] * len(summand) for _ in summand]
        for (a, (i, la)), (b, (j, lb)) in combinations_with_replacement(enumerate(summand), 2):
            grid[a][b] = AlgebraElement(ambient, tuple(
                fa @ (ma.conj().T @ mb) @ fb.conj().T
                for fa, ma, mb, fb in zip(frames[i], la, lb, frames[j])))
            grid[b][a] = grid[a][b].adjoint() if a < b else grid[a][b]
        units.append(grid)
    return cache_units(sub, units).units


def cache_units(sub: SubalgebraHandle, units: list) -> SubalgebraHandle:
    """Cache matrix units on ``sub`` once they fill ``B`` and satisfy
    ``E_1a E_1b* = delta_ab E_11`` within the ambient's
    ``construction_identity``; returns ``sub``."""
    filled = sum(len(g) ** 2 for g in units)
    if filled != sub.dim:
        raise ConstructionError(f"matrix units fill dimension {filled}, not {sub.dim}")
    ambient, bound, defect = sub.ambient, sub.ambient.tolerances.construction_identity, 0.0
    for n in {len(g) for g in units}:
        grids = [g for g in units if len(g) == n]
        # per block, the E_1a and the E_a1 of those summands as (summand, a) stacks
        first, column = ([s.reshape(-1, n, *s.shape[1:]) for s in ambient.stack(us)] for us in
                         ([u for g in grids for u in g[0]], [r[0] for g in grids for r in g]))
        # every E_1a E_b1 - delta_ab E_11 as one broadcast matmul per block
        delta = np.eye(n)[:, :, None, None]
        squares = sum(w * np.sum(np.abs(f[:, :, None] @ c[:, None] - delta * f[:, :1, None]) ** 2,
                                 axis=(3, 4))
                      for w, f, c in zip(ambient.block_weights, first, column))
        defect = max(defect, float(np.sqrt(np.max(squares))))
    if defect > bound:
        raise ConstructionError(f"matrix unit residual {defect:.2e} exceeds {bound:.2e}")
    sub.units = units
    return sub


def central_projections(sub: SubalgebraHandle) -> list:
    """Minimal central projections of a subalgebra: ``sum_a E_aa`` per summand."""
    return [sum((g[a][a] for a in range(1, len(g))), g[0][0]) for g in matrix_units(sub)]
