"""Verifiable coset-cover certificates.

A certificate for ``g`` over a subgroup ``H`` is a finite list of cover
elements whose left cosets contain ``H g``, together with a transition table
recording, for every listed subgroup generator ``s`` and cover element
``c_i``, the index ``j`` with ``s c_i H = c_j H``.  Because left translation
by ``s`` is injective on cosets, each row is a permutation of the cover, so
closure under the generators implies closure under their inverses and hence
under the whole subgroup they generate.

Replay re-checks every claim with the subgroup's membership backend and is
the only notion of certificate validity used anywhere.  A replayed
certificate is reused for another element ``g'`` of the covered union
(``translate_certificate``): the cover and the transition table stand
unchanged, since the union is closed under ``H`` and contains ``g' H``, so
translation re-checks the one claim it changes, the coset of ``g'``.
Compositions are replayed as a whole, so their inputs are not replayed
again.

A closed coset orbit (``orbits.orbit_bfs``) is its own certificate: the
search applied every generator move to every representative and looked up
the coset of each product, so its rows for the listed generators are the
transition table, and the orbit starts at the coset of ``g`` (index 0).
``certificate_from_cover`` derives the table from a bare cover instead; it
serves the compositions, whose covers come from no search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .errors import CertificateError, DescriptorMismatchError, IndeterminateResultError
from .groups import DirectProductDescriptor, GroupElement, Trit
from .subgroups import ProductSubgroup, SubgroupSpec, coset_equal, coset_key, product_subgroup


class CosetIndex:
    """Mutable registry of pairwise distinct left cosets of one subgroup."""

    def __init__(self, spec: SubgroupSpec):
        self.spec = spec
        self.reps: list[GroupElement] = []
        self._use_keys = coset_key(spec, spec.group.identity()) is not None
        self._by_key: dict = {}

    def find(self, e: GroupElement) -> Optional[int]:
        """Index of the registered coset containing ``e``, or None."""
        if self._use_keys:
            return self._by_key.get(coset_key(self.spec, e))
        for i, rep in enumerate(self.reps):
            verdict = coset_equal(self.spec, rep, e)
            if verdict is Trit.YES:
                return i
            if verdict is Trit.UNKNOWN:
                raise IndeterminateResultError(
                    "coset comparison returned Unknown during exploration",
                    partial=tuple(self.reps),
                )
        return None

    def add(self, e: GroupElement) -> int:
        if self._use_keys:
            self._by_key[coset_key(self.spec, e)] = len(self.reps)
        self.reps.append(e)
        return len(self.reps) - 1


@dataclass(frozen=True)
class QnCertificate:
    """Replayable proof that ``H element`` sits inside finitely many ``c H``."""

    subgroup: SubgroupSpec
    element: GroupElement
    cover: tuple
    element_index: int
    transitions: tuple  # one row per subgroup generator

    @property
    def cover_size(self) -> int:
        return len(self.cover)


def replay_certificate(cert: QnCertificate) -> None:
    """Validate every claim of the certificate; raise CertificateError if any fails."""
    spec = cert.subgroup
    group = spec.group
    cover = cert.cover
    if not cover:
        raise CertificateError("empty cover")
    if not (0 <= cert.element_index < len(cover)):
        raise CertificateError("element index out of range")
    _expect_yes(
        coset_equal(spec, cover[cert.element_index], cert.element),
        "certified element does not lie in its claimed cover coset",
    )
    for i in range(len(cover)):
        for j in range(i + 1, len(cover)):
            verdict = coset_equal(spec, cover[i], cover[j])
            if verdict is Trit.YES:
                raise CertificateError(f"cover cosets {i} and {j} coincide")
            if verdict is Trit.UNKNOWN:
                raise IndeterminateResultError("cover distinctness is undecided")
    if len(cert.transitions) != len(spec.generators):
        raise CertificateError("one transition row per subgroup generator is required")
    for s, row in zip(spec.generators, cert.transitions):
        if sorted(row) != list(range(len(cover))):
            raise CertificateError("transition row is not a permutation of the cover")
        for i, j in enumerate(row):
            verdict = coset_equal(spec, group.multiply(s, cover[i]), cover[j])
            if verdict is not Trit.YES:  # the message is formatted only on failure
                _expect_yes(verdict, f"transition {group.format_element(s)} on cover {i} "
                                     f"does not land in cover {j}")


def _expect_yes(verdict: Trit, message: str) -> None:
    if verdict is Trit.NO:
        raise CertificateError(message)
    if verdict is Trit.UNKNOWN:
        raise IndeterminateResultError(message + " (membership undecided)")


def certificate_from_cover(spec: SubgroupSpec, element: GroupElement, cover) -> QnCertificate:
    """Assemble and validate a certificate from a closed cover."""
    group = spec.group
    index = CosetIndex(spec)
    reps = []
    for c in cover:
        if index.find(c) is None:
            index.add(c)
            reps.append(c)
    at = index.find(element)
    if at is None:
        raise CertificateError("element coset missing from cover")
    transitions = []
    for s in spec.generators:
        row = []
        for c in reps:
            j = index.find(group.multiply(s, c))
            if j is None:
                raise CertificateError("cover is not closed under the subgroup generators")
            row.append(j)
        transitions.append(tuple(row))
    cert = QnCertificate(
        subgroup=spec,
        element=element,
        cover=tuple(reps),
        element_index=at,
        transitions=tuple(transitions),
    )
    replay_certificate(cert)
    return cert


def translate_certificate(cert: QnCertificate, element: GroupElement) -> QnCertificate:
    """The certificate of ``element``, for instance a double-coset mate of
    ``cert.element``, with the same cover and transitions."""
    spec = cert.subgroup
    for i, c in enumerate(cert.cover):
        verdict = coset_equal(spec, c, element)
        if verdict is Trit.YES:
            return replace(cert, element=element, element_index=i)
        if verdict is Trit.UNKNOWN:
            raise IndeterminateResultError("cover coset of the translated element is undecided")
    raise CertificateError("translated element lies in no cover coset")


def compose_certificates(c1: QnCertificate, c2: QnCertificate) -> QnCertificate:
    """Certificate for the product of two certified elements.

    ``H x y`` is covered by ``{a_i b_j H}``: each ``h x`` lies in some
    ``a_i H``, and each ``a_i h' y`` in some ``a_i b_j H``.  The cover is
    deduplicated, so its size is at most the product of the input sizes.
    """
    if c1.subgroup is not c2.subgroup:
        raise CertificateError("certificates must share a subgroup")
    group = c1.subgroup.group
    element = group.multiply(c1.element, c2.element)
    cover = [group.multiply(a, b) for a in c1.cover for b in c2.cover]
    return certificate_from_cover(c1.subgroup, element, cover)


def product_compose(
    c1: QnCertificate,
    c2: QnCertificate,
    product_spec: Optional[SubgroupSpec] = None,
) -> QnCertificate:
    """Certificate for ``(x1, x2)`` over the product subgroup, in ``product_spec.group``.

    The cover is the set of componentwise pairs, so its size is at most the
    product of the component cover sizes.
    """
    left, right = c1.subgroup, c2.subgroup
    if product_spec is None:
        product_spec = product_subgroup(DirectProductDescriptor(left.group, right.group),
                                        left, right)
    elif not isinstance(product_spec, ProductSubgroup):
        raise DescriptorMismatchError("product certificate needs a product subgroup spec")
    product_group = product_spec.group
    element = product_group.pair(c1.element, c2.element)
    cover = [product_group.pair(a, b) for a in c1.cover for b in c2.cover]
    return certificate_from_cover(product_spec, element, cover)
