"""Group algebras of finite groups as multi-matrix algebras.

The left regular representation of a finite group decomposes into matrix
blocks, one per irreducible representation, with the normalized permutation
trace turning into block weights ``d_i / |G|``.  The decomposition is read
off the matrix units of the group algebra: the regular matrices
``lambda(g)`` are trace-orthonormal, so they form a subalgebra handle as
they stand, and ``expectations.matrix_units`` splits it into simple
summands.  With ``E_ab`` the units of one summand,
``rho(g)_ab = tau(E_ab* lambda(g)) / tau(E_11)`` is an irreducible unitary
representation, and every irreducible one appears once.

The result is verified: block dimensions square-sum to the order, images
are unitary, the map is multiplicative on a generating set, and the block
trace reproduces the group trace (1 at the identity, 0 elsewhere).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import GroupValidationError
from .expectations import (
    SubalgebraHandle,
    conditional_expectation,
    full_subalgebra,
    matrix_units,
    subalgebra_closure,
)
from .groups import FiniteTableGroup
from .matrixalg import MultiMatrixAlgebra, build_algebra
from .subgroups import TableSubgroup


@dataclass
class GroupAlgebraInclusion:
    group: FiniteTableGroup
    subgroup_elements: tuple
    algebra: MultiMatrixAlgebra
    full: SubalgebraHandle
    sub: SubalgebraHandle
    images: dict  # element index -> AlgebraElement


def decompose_regular_representation(group: FiniteTableGroup) -> tuple:
    """Irreducible representations of a finite table group.

    Returns ``(dims, reps)`` where ``reps[i]`` maps an element index to a
    ``dims[i]`` square unitary matrix, in increasing order of dimension.
    With ``E_ab`` the matrix units of one summand of the span of ``lambda(G)``,
    ``rho(g)_ab = tau(E_ab* lambda(g)) / tau(E_11)``.
    """
    n = group.order
    ambient = build_algebra([n], [1.0 / n])
    order = [group.identity_index] + [g for g in range(n) if g != group.identity_index]
    # lambda(g) sends e_h to e_gh; lambda(G) is tau-orthonormal, so it is the
    # handle's basis as it stands
    coords = ambient.vectors_of([np.array([np.eye(n)[:, list(group.table[g])] for g in order],
                                          dtype=complex)])
    handle = SubalgebraHandle(ambient=ambient, coordinates=coords)
    summands = sorted(matrix_units(handle), key=len)
    reps = []
    for grid in summands:
        d = len(grid)
        flat = np.stack([ambient.to_vector(e) for row in grid for e in row])
        coeffs = (flat.conj() @ coords / grid[0][0].trace().real).reshape(d, d, n)
        reps.append({g: coeffs[:, :, col] for col, g in enumerate(order)})
    return [len(grid) for grid in summands], reps


# group -> (algebra, full handle, images), see _regular_algebra
_REGULAR: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _regular_algebra(group: FiniteTableGroup) -> tuple:
    """The checked decomposition of ``L(G)``: its algebra, full handle and
    the images ``lambda(g)`` by element index.  It depends on the group
    alone, so it is computed once per group object and shared by all of its
    subgroups.
    """
    if group in _REGULAR:
        return _REGULAR[group]
    dims, reps = decompose_regular_representation(group)
    weights = [d / group.order for d in dims]
    algebra = build_algebra(dims, weights)
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
    _REGULAR[group] = algebra, full_subalgebra(algebra), images
    return _REGULAR[group]


def group_algebra_inclusion(spec: TableSubgroup) -> GroupAlgebraInclusion:
    """Decomposed group algebra of ``G = spec.group`` with the span of the
    subgroup inside.

    A table subgroup's subset is the closure of its generators, so it is a
    subgroup as given.  The trace is the group trace (block weights
    ``d_i/|G|``); the expectation onto the subgroup span restricts
    coefficients to subgroup elements, which is verified on the basis.  The
    decomposition of ``L(G)`` is made once per group (``_regular_algebra``).
    """
    if not isinstance(spec, TableSubgroup):
        raise GroupValidationError("subgroup spec does not describe a finite table subgroup")
    group, subset = spec.group, spec.subset
    indices = sorted(subset)
    algebra, full, images = _regular_algebra(group)
    sub = subalgebra_closure(algebra, [images[i] for i in indices])
    if sub.dim != len(indices):
        raise GroupValidationError("subgroup span has the wrong dimension")
    # restriction property of the expectation on the group basis
    expect = conditional_expectation(sub)
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
        images=dict(images),
    )
