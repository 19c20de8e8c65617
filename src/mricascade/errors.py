"""Exception types shared across the package, and :func:`naming_file`, which
puts a file's name on the input errors raised while reading it."""

import contextlib


class InvalidShapeError(ValueError):
    """An array argument has the wrong shape or dimensionality."""


class InvalidParameterError(ValueError):
    """A scalar or configuration argument is outside its valid range."""


class InvalidStateError(RuntimeError):
    """An operation was called with stale or mismatched internal state."""


class CheckpointFormatError(ValueError):
    """A checkpoint file is malformed or inconsistent with its header."""


# what malformed input from outside the program raises
INPUT_ERRORS = (InvalidShapeError, InvalidParameterError, CheckpointFormatError)


@contextlib.contextmanager
def naming_file(path, as_type=None):
    """Re-raise an input error from the block as ``f"{path}: {exc}"``, of the
    same type, or of ``as_type`` when one is given."""
    try:
        yield
    except INPUT_ERRORS as exc:
        raise (as_type or type(exc))(f"{path}: {exc}") from exc


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss.

    Carries a ``diagnostics`` dict (epoch, step, loss, parameter norms) so
    the failure point can be inspected.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
