"""Multi-matrix algebras: finite direct sums of complex matrix blocks with a
normalized faithful trace.

An algebra is a list of block dimensions ``n_k`` and positive weights
``w_k`` with ``sum(w_k n_k) = 1``, giving the trace
``tau(x) = sum_k w_k tr(x_k)`` with ``tau(1) = 1``.  Elements are tuples of
complex blocks; the 2-norm is ``tau(x* x)^(1/2)``.  An algebra also carries
the ``Tolerances`` that every numerical check on it reads; its tensor
products and corners inherit them.

Coordinates: scaling the matrix units of block ``k`` by ``w_k^(1/2)`` gives
an orthonormal basis of the trace inner product, so every element maps to a
flat complex vector (``to_vector``/``from_vector``) and operators on the
GNS space become ordinary square matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import GroupValidationError
from .tolerances import Tolerances

SPECTRAL_GAP = 1e-8  # relative eigenvalue gap that separates two clusters


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    block_dims: tuple
    block_weights: tuple
    rescaled: bool = False
    tolerances: Tolerances = Tolerances()

    @property
    def dim(self) -> int:
        """Linear dimension, which is also the GNS space dimension."""
        return int(sum(n * n for n in self.block_dims))

    # -- element constructors ------------------------------------------------

    def element(self, blocks: Iterable[np.ndarray]) -> "AlgebraElement":
        mats = []
        for n, raw in zip(self.block_dims, blocks, strict=True):
            mat = np.asarray(raw, dtype=complex)
            if mat.shape != (n, n):
                raise GroupValidationError(f"block of shape {mat.shape}, expected {(n, n)}")
            mats.append(mat)
        return AlgebraElement(self, tuple(mats))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.zeros((n, n), dtype=complex) for n in self.block_dims))

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.eye(n, dtype=complex) for n in self.block_dims))

    def matrix_unit(self, block: int, i: int, j: int) -> "AlgebraElement":
        mats = [np.zeros((n, n), dtype=complex) for n in self.block_dims]
        mats[block][i, j] = 1.0
        return AlgebraElement(self, tuple(mats))

    def basis(self) -> list:
        """Matrix units in canonical (block, row, column) order."""
        return [
            self.matrix_unit(k, i, j)
            for k, n in enumerate(self.block_dims)
            for i in range(n)
            for j in range(n)
        ]

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> "AlgebraElement":
        mats = [
            scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for n in self.block_dims
        ]
        return AlgebraElement(self, tuple(mats))

    def random_selfadjoint(self, rng: np.random.Generator, scale: float = 1.0) -> "AlgebraElement":
        x = self.random_element(rng, scale)
        return 0.5 * (x + x.adjoint())

    # -- coordinates -----------------------------------------------------------

    def to_vector(self, x: "AlgebraElement") -> np.ndarray:
        parts = [
            np.sqrt(w) * block.reshape(-1)
            for w, block in zip(self.block_weights, x.blocks)
        ]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)

    def from_vector(self, vec: np.ndarray) -> "AlgebraElement":
        mats = []
        at = 0
        for n, w in zip(self.block_dims, self.block_weights):
            chunk = vec[at : at + n * n]
            mats.append(np.asarray(chunk, dtype=complex).reshape(n, n) / np.sqrt(w))
            at += n * n
        return AlgebraElement(self, tuple(mats))

    # -- batched coordinates ---------------------------------------------------

    @cached_property
    def block_slices(self) -> list:
        """The coordinate range of each block in a vector."""
        ends = accumulate(n * n for n in self.block_dims)
        return [slice(end - n * n, end) for end, n in zip(ends, self.block_dims)]

    def check_members(self, elements: Iterable["AlgebraElement"]) -> None:
        """Raise unless every element belongs to this algebra or an equal one."""
        for x in elements:
            if x.algebra is not self and x.algebra != self:
                raise GroupValidationError("elements of different algebras")

    def stack(self, elements: Sequence["AlgebraElement"]) -> list:
        """Per block ``k``, the ``(len(elements), n_k, n_k)`` stack of the elements' blocks."""
        self.check_members(elements)
        return [np.array([x.blocks[k] for x in elements], dtype=complex).reshape(-1, n, n)
                for k, n in enumerate(self.block_dims)]

    def elements(self, stacks: Sequence[np.ndarray]) -> list:
        """The elements of per-block stacks, in stack order."""
        return [AlgebraElement(self, blocks) for blocks in zip(*stacks)]

    def vectors_of(self, stacks: Sequence[np.ndarray]) -> np.ndarray:
        """Coordinate columns ``(dim, count)`` of per-block stacks: ``to_vector`` batched."""
        return np.concatenate([
            np.sqrt(w) * s.reshape(len(s), n * n)
            for n, w, s in zip(self.block_dims, self.block_weights, stacks)
        ], axis=1).T

    def stacks_of(self, columns: np.ndarray) -> list:
        """Per-block stacks of the elements with the given coordinate columns:
        ``from_vector`` batched."""
        return [
            np.asarray(columns[part], dtype=complex).T.reshape(-1, n, n) / np.sqrt(w)
            for part, n, w in zip(self.block_slices, self.block_dims, self.block_weights)
        ]

    # -- tensor products ---------------------------------------------------------

    def tensor(self, other: "MultiMatrixAlgebra") -> "MultiMatrixAlgebra":
        dims = tuple(n * m for n in self.block_dims for m in other.block_dims)
        weights = tuple(w * v for w in self.block_weights for v in other.block_weights)
        return MultiMatrixAlgebra(block_dims=dims, block_weights=weights,
                                  tolerances=self.tolerances)

    def tensor_element(self, product: "MultiMatrixAlgebra", x: "AlgebraElement",
                       y: "AlgebraElement") -> "AlgebraElement":
        return product.elements(kron_stacks(self.stack([x]), y.algebra.stack([y])))[0]


def kron_stacks(first: Sequence[np.ndarray], second: Sequence[np.ndarray]) -> list:
    """All ``a (x) b`` of two per-block stack lists: per block pair, the broadcast
    product ``a[i, j] b[k, l]`` at row ``(i, k)`` and column ``(j, l)``, in ``(a, b)`` order."""
    return [(s1[:, None, :, None, :, None] * s2[None, :, None, :, None, :])
            .reshape(len(s1) * len(s2), s1.shape[1] * s2.shape[1], -1)
            for s1 in first for s2 in second]


def build_algebra(block_dims: Sequence[int], block_weights: Sequence[float],
                  tolerances: Tolerances = Tolerances()) -> MultiMatrixAlgebra:
    """Validated constructor; weights off normalization are rescaled with a
    flag.  The algebra carries ``tolerances``."""
    if len(block_dims) != len(block_weights) or not block_dims:
        raise GroupValidationError("need matching nonempty dimension and weight lists")
    if any(n <= 0 or int(n) != n for n in block_dims):
        raise GroupValidationError("block dimensions must be positive integers")
    if any(not (0 < w < math.inf) for w in block_weights):
        raise GroupValidationError("block weights must be positive and finite")
    total = float(sum(w * n for w, n in zip(block_weights, block_dims)))
    rescaled = abs(total - 1.0) > tolerances.weight_sum
    # closures and identities assume tau(1) = 1; a looser weight_sum keeps no larger drift
    if not rescaled and abs(total - 1.0) > Tolerances.weight_sum:
        raise GroupValidationError(
            f"weight_sum = {tolerances.weight_sum:g} keeps the weights with tau(1) = {total:.12g}, "
            f"but tau(1) must be 1 within {Tolerances.weight_sum:g}")
    weights = tuple(float(w) / total for w in block_weights) if rescaled \
        else tuple(float(w) for w in block_weights)
    # a minimal projection's trace norm sqrt(w) must clear the closure's cutoff
    # (squared by a product: a huge cutoff gives inf where ``** 2`` would raise)
    floor = tolerances.subalgebra_closure * tolerances.subalgebra_closure
    for k, w in enumerate(weights):
        if w < floor:
            raise GroupValidationError(
                f"block {k} has normalized weight {w:.3g}, below subalgebra_closure^2 = "
                f"{floor:.3g}")
    return MultiMatrixAlgebra(block_dims=tuple(int(n) for n in block_dims),
                              block_weights=weights, rescaled=rescaled, tolerances=tolerances)


class AlgebraElement:
    """Immutable element of a multi-matrix algebra."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: MultiMatrixAlgebra, blocks: tuple):
        self.algebra = algebra
        for b in blocks:
            b.setflags(write=False)
        self.blocks = blocks

    def __add__(self, other):
        self.algebra.check_members((other,))
        return AlgebraElement(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other):
        self.algebra.check_members((other,))
        return AlgebraElement(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self):
        return AlgebraElement(self.algebra, tuple(-a for a in self.blocks))

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, tuple(complex(scalar) * a for a in self.blocks))

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def __matmul__(self, other):
        self.algebra.check_members((other,))
        return AlgebraElement(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(a.conj().T for a in self.blocks))

    def trace(self) -> complex:
        return complex(
            sum(w * np.trace(b) for w, b in zip(self.algebra.block_weights, self.blocks))
        )

    def inner(self, other: "AlgebraElement") -> complex:
        """Trace inner product ``tau(other* self)``."""
        self.algebra.check_members((other,))
        return complex(
            sum(
                w * np.sum(o.conj() * s)
                for w, s, o in zip(self.algebra.block_weights, self.blocks, other.blocks)
            )
        )

    def norm2(self) -> float:
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def sup_norm(self) -> float:
        return max(
            (float(np.linalg.norm(b, 2)) for b in self.blocks if b.size), default=0.0
        )

    def __repr__(self) -> str:
        dims = "+".join(str(n) for n in self.algebra.block_dims)
        return f"<element of M[{dims}], |.|_2 = {self.norm2():.4g}>"


def spectral_calculus(x: AlgebraElement, func, cutoff: float = 0.0) -> AlgebraElement:
    """Apply a real function to a self-adjoint element blockwise.

    Eigenvalues with absolute value at most ``cutoff`` are sent to zero, so
    pseudo-inverse powers stay bounded.  The result lies in every subalgebra
    containing ``x`` because it is a limit of polynomials in ``x`` and ``1``;
    with ``f(0) = 0`` it is a polynomial in ``x`` alone.
    """
    out = []
    for block in x.blocks:
        if block.size == 0:
            out.append(block.copy())
            continue
        vals, vecs = np.linalg.eigh(block)
        mapped = np.array([func(v) if abs(v) > cutoff else 0.0 for v in vals])
        out.append((vecs * mapped) @ vecs.conj().T)
    return AlgebraElement(x.algebra, tuple(out))


def eigenvalue_clusters(vals: np.ndarray) -> list:
    """Index arrays of the eigenvalue clusters, in increasing order.

    The sorted values are split wherever consecutive ones differ by more
    than ``SPECTRAL_GAP * max(1, max |vals|)``.
    """
    order = np.argsort(vals, kind="stable")
    scale = SPECTRAL_GAP * np.max(np.abs(vals), initial=1.0)
    cuts = np.flatnonzero(np.diff(vals[order]) > scale) + 1
    return np.split(order, cuts)


def spectral_frames(x: AlgebraElement) -> list:
    """Per eigenvalue cluster of a self-adjoint element, one orthonormal
    eigenvector frame per block (``n_k x m``, ``m`` possibly 0).

    Eigenvalues are clustered across all blocks, so an eigenvalue shared by
    two blocks gives one cluster; the list follows increasing eigenvalues.
    """
    spectra = [np.linalg.eigh(block) for block in x.blocks]
    vals = np.concatenate([v for v, _ in spectra])
    owner = np.repeat(np.arange(len(spectra)), [v.size for v, _ in spectra])
    column = np.concatenate([np.arange(v.size) for v, _ in spectra])
    return [
        tuple(vecs[:, column[cluster[owner[cluster] == k]]] for k, (_, vecs) in enumerate(spectra))
        for cluster in eigenvalue_clusters(vals)
    ]


def spectral_projections(x: AlgebraElement) -> list:
    """One spectral projection per eigenvalue cluster of a self-adjoint element.

    The projections of ``spectral_frames``: they follow increasing
    eigenvalues and sum to the identity.
    """
    return [AlgebraElement(x.algebra, tuple(f @ f.conj().T for f in frames))
            for frames in spectral_frames(x)]
