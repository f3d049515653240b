"""Error hierarchy shared by the library and the CLI.

Each error class carries a stable exit code so the CLI can map failures to
distinct, documented process exit statuses.
"""


class TriradError(Exception):
    exit_code = 1


class ParseError(TriradError):
    """Bad word/matrix syntax.  Carries a byte offset when known."""

    exit_code = 3

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class DomainError(TriradError):
    """Input outside the mathematical domain of an operation."""

    exit_code = 4


class PreconditionError(TriradError):
    """A theorem hypothesis required by the requested formula fails."""

    exit_code = 5


class NumericError(TriradError):
    """The floating-point verification layer could not certify a result."""

    exit_code = 6


class NotInGroupError(TriradError):
    """A matrix was not recognized as a group element."""

    exit_code = 7


class InternalInconsistencyError(TriradError):
    """Cross-checked quantities disagree; signals an implementation bug."""

    exit_code = 8


class VerificationError(TriradError):
    """A randomized invariant check of `trirad verify` failed."""

    exit_code = 9
