"""Exception types shared across the workbench."""


class QnbenchError(Exception):
    """Base class for all workbench errors."""


class DescriptorMismatchError(QnbenchError):
    """Elements or subgroups from different group descriptors were mixed."""


class GroupValidationError(QnbenchError):
    """A group, subgroup or algebra failed a construction-time check."""


class ResourceLimitError(QnbenchError):
    """An enumeration exceeded a configured hard cap."""


class IndeterminateResultError(QnbenchError):
    """A search needed an exact answer but only got Unknown.

    Carries whatever partial state the caller may want to inspect.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CertificateError(QnbenchError):
    """A coset-cover certificate failed replay validation."""


class RepresentationError(QnbenchError):
    """An operator was not representable in the expected spanning set."""


class ConstructionError(QnbenchError):
    """A build-time identity check (basic construction, matrix units) failed."""


class InputFormatError(QnbenchError):
    """An inclusion input document is malformed."""
