"""Exception hierarchy for chanstruct."""

__all__ = ["ChanstructError", "ArgumentError", "ParseError", "DecompositionError"]


class ChanstructError(Exception):
    """Base class for all chanstruct errors."""


class ArgumentError(ChanstructError):
    """Raised when an operation receives invalid arguments or data
    that violates a documented precondition."""


class ParseError(ChanstructError):
    """Raised when a JSON document does not match the expected schema."""


class DecompositionError(ChanstructError):
    """Raised when a stage of the structure pipeline fails.

    Parameters
    ----------
    stage : str
        Name of the pipeline stage that failed.
    message : str
        Human-readable description.
    diagnostics : dict, optional
        Machine-readable details (eigenvalue clusters, residuals, ...).
    """

    def __init__(self, stage, message, diagnostics=None):
        self.stage = stage
        self.diagnostics = diagnostics or {}
        super().__init__(f"{stage}: {message}")
