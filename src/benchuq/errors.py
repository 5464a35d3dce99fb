"""Exception and warning types shared across the package."""

from __future__ import annotations


class BenchuqError(Exception):
    """Base class for all benchuq errors."""


class ValidationError(BenchuqError):
    """Input data violates the documented schema or an invariant.

    Carries enough context (row/column/task names) to locate the offending
    cell in the source file.
    """


class CapacityError(BenchuqError):
    """A requested allocation exceeds what the host can provide."""

    def __init__(self, requested_bytes, available_bytes=None):
        self.requested_bytes = requested_bytes
        self.available_bytes = available_bytes
        avail = "unknown" if available_bytes is None else f"{available_bytes:,}"
        super().__init__(
            f"replicate store needs {requested_bytes:,} bytes "
            f"but only {avail} are available"
        )


class DegenerateBoundsError(BenchuqError):
    """Normalization bounds collapsed (high == low) for a task."""

    def __init__(self, task_id):
        self.task_id = task_id
        super().__init__(
            f"task {task_id!r}: all scores identical, high == low leaves "
            "the normalization map undefined"
        )


class SliceSamplerError(BenchuqError):
    """The slice sampler exhausted its shrinkage budget.

    Diagnostics record the state that triggered the failure so the caller
    can report it.
    """

    def __init__(self, message, diagnostics=None):
        self.diagnostics = dict(diagnostics or {})
        super().__init__(message)


class ConvergenceWarning(UserWarning):
    """BHM diagnostics (R-hat, grid edge mass) exceed their recommended thresholds."""
