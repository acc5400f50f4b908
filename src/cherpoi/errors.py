"""Shared error types; the CLI maps these onto exit codes."""


class ResourceError(RuntimeError):
    """Requested computation exceeds the configured resource bounds.

    `partial` optionally carries whatever was finished before the budget
    tripped, for callers that want to report partial results.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class CertificationError(RuntimeError):
    """A constructive certificate (basis extraction, saturation) failed."""
