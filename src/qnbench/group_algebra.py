"""Group algebras of finite groups as multi-matrix algebras.

The left regular representation of a finite group decomposes into matrix
blocks, one per irreducible representation, with the normalized permutation
trace turning into block weights ``d_i / |G|``.  The decomposition is
computed numerically:

* central idempotents are the clustered eigenprojections of a generic
  self-adjoint central element (central = constant on conjugacy classes);
* inside an isotypic component, a generic self-adjoint element acts as
  ``a (x) 1``, so the eigenvectors of its top eigenvalue cluster are simple
  tensors; the orbit of one of them under the group spans a single
  irreducible copy, read off in an orthonormal basis.

The result is verified: block dimensions square-sum to the order, images
are unitary, the map is multiplicative on a generating set, and the block
trace reproduces the group trace (1 at the identity, 0 elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GroupValidationError
from .expectations import (
    SubalgebraHandle,
    conditional_expectation,
    full_subalgebra,
    subalgebra_closure,
)
from .groups import FiniteTableGroup, GroupElement
from .matrixalg import AlgebraElement, MultiMatrixAlgebra, build_algebra, eigenvalue_clusters
from .tolerances import Tolerances


@dataclass
class GroupAlgebraInclusion:
    group: FiniteTableGroup
    subgroup_elements: tuple
    algebra: MultiMatrixAlgebra
    full: SubalgebraHandle
    sub: SubalgebraHandle
    images: dict  # element index -> AlgebraElement

    def image(self, g: GroupElement) -> AlgebraElement:
        return self.images[g.payload]


def _conjugacy_classes(group: FiniteTableGroup) -> list:
    seen = set()
    classes = []
    for i in range(group.order):
        if i in seen:
            continue
        orbit = set()
        for h in range(group.order):
            orbit.add(group.table[group.table[h][i]][group.inverse[h]])
        classes.append(sorted(orbit))
        seen |= orbit
    return classes


def _regular_matrices(group: FiniteTableGroup) -> list:
    n = group.order
    mats = []
    for g in range(n):
        mat = np.zeros((n, n))
        for h in range(n):
            mat[group.table[g][h], h] = 1.0
        mats.append(mat)
    return mats


def decompose_regular_representation(group: FiniteTableGroup, seed: int = 42,
                                     attempts: int = 8) -> tuple:
    """Irreducible representations of a finite table group.

    Returns ``(dims, reps)`` where ``reps[i]`` maps an element index to a
    ``dims[i]`` square unitary matrix.
    """
    n = group.order
    reg = _regular_matrices(group)
    classes = _conjugacy_classes(group)
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        # complex class coefficients, hermitian-symmetrized: real coefficients
        # cannot separate complex-conjugate representations
        coeffs = rng.standard_normal(len(classes)) + 1j * rng.standard_normal(len(classes))
        z = np.zeros((n, n), dtype=complex)
        for c, cls in zip(coeffs, classes):
            for g in cls:
                z += c * reg[g]
        z = 0.5 * (z + z.conj().T)
        vals, vecs = np.linalg.eigh(z)
        clusters = eigenvalue_clusters(vals)
        dims = []
        for cluster in clusters:
            d = np.sqrt(len(cluster))
            if abs(d - round(d)) > 1e-9:
                dims = None
                break
            dims.append(int(round(d)))
        if dims is None or sum(d * d for d in dims) != n or len(dims) != len(classes):
            continue
        reps = []
        ok = True
        for cluster, d in zip(clusters, dims):
            basis = vecs[:, cluster]
            rep = _single_copy(group, reg, basis, d, rng)
            if rep is None:
                ok = False
                break
            reps.append(rep)
        if ok:
            order = np.argsort([r[group.identity_index].shape[0] for r in reps], kind="stable")
            return [reps[i][group.identity_index].shape[0] for i in order], [reps[i] for i in order]
    raise GroupValidationError("failed to split the regular representation")


def _single_copy(group: FiniteTableGroup, reg, isotypic: np.ndarray, d: int, rng):
    """One irreducible copy inside an isotypic component.

    A self-adjoint element of the group algebra acts on the component as
    ``a (x) 1``, so eigenvectors of a simple eigenvalue cluster are simple
    tensors and the group orbit of one of them spans a single copy.
    """
    n = group.order
    weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = np.zeros((n, n), dtype=complex)
    for g in range(n):
        a += weights[g] * reg[g]
    a = 0.5 * (a + a.conj().T)
    compressed = isotypic.conj().T @ a @ isotypic
    compressed = 0.5 * (compressed + compressed.conj().T)
    vals, vecs = np.linalg.eigh(compressed)
    # the top eigenvalue of the first tensor factor appears with multiplicity
    # d; its eigenvectors are simple tensors
    top = vecs[:, -1]
    psi = isotypic @ top
    orbit = np.stack([reg[g] @ psi for g in range(n)], axis=1)
    q, r = np.linalg.qr(orbit)
    rank_cols = [j for j in range(r.shape[0]) if abs(r[j, j]) > 1e-8]
    basis = q[:, rank_cols]
    if basis.shape[1] != d:
        return None
    rep = {}
    for g in range(n):
        mat = basis.conj().T @ reg[g] @ basis
        if np.linalg.norm(mat.conj().T @ mat - np.eye(d)) > 1e-8:
            return None
        rep[g] = mat
    return rep


def group_algebra_inclusion(
    group: FiniteTableGroup,
    subgroup_elements: Sequence[GroupElement],
    seed: int = 42,
    tolerances: Optional[Tolerances] = None,
) -> GroupAlgebraInclusion:
    """Decomposed group algebra of ``G`` with the span of a subgroup inside.

    The trace is the group trace (block weights ``d_i/|G|``); the expectation
    onto the subgroup span restricts coefficients to subgroup elements, which
    is verified on the basis.
    """
    tolerances = tolerances or Tolerances()
    from .subgroups import SubgroupSpec, TableSubgroup

    if isinstance(subgroup_elements, SubgroupSpec):
        spec = subgroup_elements
        if spec.group is not group or not isinstance(spec, TableSubgroup):
            raise GroupValidationError("subgroup spec does not describe a finite table subgroup")
        subgroup_elements = [group.element(i) for i in sorted(spec.subset)]
    indices = sorted({g.payload for g in subgroup_elements} | {group.identity_index})
    for g in subgroup_elements:
        group.check_same(g)
    subset = set(indices)
    for i in indices:
        if group.inverse[i] not in subset:
            raise GroupValidationError("subgroup set is not closed under inverses")
        for j in indices:
            if group.table[i][j] not in subset:
                raise GroupValidationError("subgroup set is not closed under products")

    dims, reps = decompose_regular_representation(group, seed=seed)
    weights = [d / group.order for d in dims]
    algebra = build_algebra(dims, weights, tolerances)
    images = {
        g: algebra.element([rep[g] for rep in reps]) for g in range(group.order)
    }
    # trace check: the block trace must reproduce the group trace
    for g in range(group.order):
        expected = 1.0 if g == group.identity_index else 0.0
        if abs(images[g].trace() - expected) > 1e-8:
            raise GroupValidationError("block trace does not match the group trace")
    # multiplicativity on a generating set
    for g in group.generator_indices:
        for h in range(group.order):
            prod = images[group.table[g][h]]
            if (images[g] @ images[h] - prod).norm2() > 1e-8:
                raise GroupValidationError("decomposition is not multiplicative")

    full = full_subalgebra(algebra, tolerances)
    sub = subalgebra_closure(algebra, [images[i] for i in indices], tolerances)
    if sub.dim != len(indices):
        raise GroupValidationError("subgroup span has the wrong dimension")
    # restriction property of the expectation on the group basis
    expect = conditional_expectation(algebra, sub)
    for g in range(group.order):
        target = images[g] if g in subset else algebra.zero()
        if (expect(images[g]) - target).norm2() > 1e-8:
            raise GroupValidationError("expectation does not restrict coefficients")
    return GroupAlgebraInclusion(
        group=group,
        subgroup_elements=tuple(group.element(i) for i in indices),
        algebra=algebra,
        full=full,
        sub=sub,
        images=images,
    )
