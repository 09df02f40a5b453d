"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: format/IO problems are
distinct from numerical-stage failures.
"""


class FringeprocError(Exception):
    """Base class for all package-specific errors."""


class FormatError(FringeprocError):
    """A file does not conform to one of the binary container formats."""


class BadMagicError(FormatError):
    pass


class VersionMismatchError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class NonFiniteSampleError(FormatError):
    pass


class HeaderError(FormatError):
    """A JSON header is unreadable or does not describe a valid configuration."""


class ShapeAuditError(FormatError):
    """Stored tensors disagree with the configuration embedded in the file."""


class NumericalError(FringeprocError):
    """A numerical stage cannot proceed (degenerate input, empty pixel set...)."""
