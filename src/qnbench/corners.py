"""Corner compressions and tensor-product module comparisons.

Cutting an inclusion down by a projection ``e`` in the subalgebra gives the
corner inclusion ``eBe <= eMe`` with the renormalized trace
``tau_e = tau(e . e) / tau(e)``.  The comparison report checks, per sample
element, that the compressed generators of its module span the module of the
compressed element, in both directions.  Central projections make that
module-level statement exact, so samples are drawn from sums of minimal
central projections of the subalgebra.  For a projection ``e`` in ``B``,
``eBe`` is already a unital *-subalgebra of ``eMe``, so the corner
subalgebra is the span of the corner's identity and the compressed basis,
with no closure.

Both checks read modules over ``B`` only, so they take subalgebra handles:
no basic construction is built, for the inclusion or for its corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basic import qn1_module_test
from .bimodule import module_dimension, module_frame
from .errors import GroupValidationError
from .expectations import SubalgebraHandle, cache_units, matrix_units, span_subalgebra
from .matrixalg import AlgebraElement, MultiMatrixAlgebra, build_algebra, kron_stacks


@dataclass(eq=False)
class Cutdown:
    corner: MultiMatrixAlgebra
    kept_blocks: list
    isometries: list  # per kept block: ambient_dim x rank frame of e
    sub_corner: SubalgebraHandle
    projection: AlgebraElement

    def compress(self, x: AlgebraElement) -> AlgebraElement:
        blocks = [
            v.conj().T @ x.blocks[k] @ v for k, v in zip(self.kept_blocks, self.isometries)
        ]
        return self.corner.element(blocks)


def cutdown(sub: SubalgebraHandle, e: AlgebraElement) -> Cutdown:
    """Corner algebra of a projection in the subalgebra, weighted ``w_k / tau(e)``,
    with the tolerances of ``sub.ambient``."""
    if (e - e.adjoint()).norm2() > 1e-10 or (e @ e - e).norm2() > 1e-10:
        raise GroupValidationError("cutdown requires a projection")
    if not sub.contains(e, 1e-9):
        raise GroupValidationError("projection must lie in the subalgebra")
    trace = e.trace().real
    if trace <= 0:
        raise GroupValidationError("cutdown by the zero projection")
    kept, isometries, dims, weights = [], [], [], []
    for k, block in enumerate(e.blocks):
        vals, vecs = np.linalg.eigh(block)
        frame = vecs[:, vals > 0.5]
        if frame.shape[1] == 0:
            continue
        kept.append(k)
        isometries.append(frame)
        dims.append(frame.shape[1])
        weights.append(sub.ambient.block_weights[k] / trace)
    corner = build_algebra(dims, weights, sub.ambient.tolerances)
    # eBe, one compression per kept block of the basis stacks
    compressed = corner.vectors_of([v.conj().T @ sub.stacks[k] @ v
                                    for k, v in zip(kept, isometries)])
    return Cutdown(corner=corner, kept_blocks=kept, isometries=isometries,
                   sub_corner=span_subalgebra(corner, compressed), projection=e)


@dataclass
class CutdownComparison:
    cut: Cutdown
    containment_residuals: list  # per sample: (compressed in corner, corner in compressed)

    @property
    def worst_residual(self) -> float:
        return max((max(a, b) for a, b in self.containment_residuals), default=0.0)


def cutdown_comparison(sub: SubalgebraHandle, e: AlgebraElement,
                       samples: Sequence[AlgebraElement]) -> CutdownComparison:
    """Module comparison between an inclusion and its corner.

    For each sample ``x``, the compressed module generators of ``x`` must
    span the module of ``e x e`` over the corner subalgebra, and conversely.
    """
    cut = cutdown(sub, e)
    residuals = []
    for x in samples:
        compressed = [cut.compress(e @ eta @ e) for eta in qn1_module_test(sub, x).generators]
        frame = module_frame(cut.sub_corner, cut.corner.stack(compressed))
        p_compressed = frame @ frame.conj().T
        p_corner = qn1_module_test(cut.sub_corner, cut.compress(e @ x @ e)).projection
        r1 = float(np.linalg.norm(p_compressed - p_corner @ p_compressed, 2))
        r2 = float(np.linalg.norm(p_corner - p_compressed @ p_corner, 2))
        residuals.append((r1, r2))
    return CutdownComparison(cut=cut, containment_residuals=residuals)


@dataclass
class TensorModuleCheck:
    left_dim: int
    right_dim: int
    product_dim: int

    @property
    def multiplicative(self) -> bool:
        return self.product_dim == self.left_dim * self.right_dim


def tensor_module_check(sub1: SubalgebraHandle, x1: AlgebraElement,
                        sub2: SubalgebraHandle, x2: AlgebraElement) -> TensorModuleCheck:
    """Exact dimension count: the module of a simple tensor over the tensor
    subalgebra is the tensor product of the component modules."""
    # the component modules first: they check that each x_i is in sub_i's ambient
    left_dim = qn1_module_test(sub1, x1).module_dim
    right_dim = qn1_module_test(sub2, x2).module_dim
    sub = tensor_subalgebra(sub1, sub2)
    # the product module is computed from x1 (x) x2 alone, independently of
    # both component modules
    product = sub.ambient
    x = sub1.ambient.tensor_element(product, x1, x2)
    product_dim = module_dimension(
        sub, product.elements([s @ b for s, b in zip(sub.stacks, x.blocks)]))
    return TensorModuleCheck(left_dim=left_dim, right_dim=right_dim, product_dim=product_dim)


def tensor_subalgebra(sub1: SubalgebraHandle, sub2: SubalgebraHandle) -> SubalgebraHandle:
    """The handle of ``B1 (x) B2`` inside ``M1 (x) M2``.

    tau is multiplicative on the product, so the products of the two
    tau-orthonormal bases are a tau-orthonormal basis, and the first one is
    the identity.  The products are the ``kron_stacks`` of the two handles'
    stacks, in ``(b1, b2)`` order.

    Its summands are the pairs of factor summands, with units
    ``E_(a1 a2)(b1 b2) = E_a1b1 (x) E_a2b2`` (one ``kron_stacks`` of all
    factor units), so the product is never decomposed spectrally.
    """
    product = sub1.ambient.tensor(sub2.ambient)
    sub = SubalgebraHandle(ambient=product,
                           coordinates=product.vectors_of(kron_stacks(sub1.stacks, sub2.stacks)))
    units1, units2 = matrix_units(sub1), matrix_units(sub2)
    flat1, flat2 = ([u for g in units for row in g for u in row] for units in (units1, units2))
    kron = product.elements(kron_stacks(sub1.ambient.stack(flat1), sub2.ambient.stack(flat2)))
    # kron[index[i, j]] is the product of flat1[i] and flat2[j]; cut per pair of summands
    index = np.arange(len(kron)).reshape(len(flat1), len(flat2))
    ends1, ends2 = (np.cumsum([len(g) ** 2 for g in units])[:-1] for units in (units1, units2))
    units = []
    for rows, n1 in zip(np.split(index, ends1), map(len, units1)):
        for block, n2 in zip(np.split(rows, ends2, axis=1), map(len, units2)):
            grid = block.reshape(n1, n1, n2, n2).transpose(0, 2, 1, 3).reshape(n1 * n2, -1)
            units.append([[kron[i] for i in row] for row in grid])
    return cache_units(sub, units)
