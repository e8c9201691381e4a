"""Exception hierarchy.

Two broad families matter for the CLI exit codes: anything rooted at
InputDataError exits with code 2, anything rooted at NumericalError with
code 3. Usage problems (bad flags, bad config keys) are raised as
UsageError and exit with code 1.
"""


class GpgsError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(GpgsError):
    """Bad command line, bad config file, bad parameter combination."""


class InputDataError(GpgsError):
    """The input data (files, datasets, point sets) is unusable."""


class NumericalError(GpgsError):
    """A numerical procedure failed beyond recovery."""


# --- SfM / file ingestion -------------------------------------------------

class MissingFile(InputDataError):
    pass


class MalformedLine(InputDataError):
    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


class DanglingReference(InputDataError):
    pass


class UnknownImage(InputDataError):
    pass


class NoCorrespondences(InputDataError):
    pass


class EmptyDataset(InputDataError):
    pass


# --- depth maps (PFM) -----------------------------------------------------

class BadMagic(InputDataError):
    pass


class BadDims(InputDataError):
    pass


class TruncatedPayload(InputDataError):
    pass


# --- point-cloud files (PLY) ----------------------------------------------

class IoFailure(InputDataError):
    pass


# --- GP engine --------------------------------------------------------------

class DimensionMismatch(InputDataError):
    pass


class NotPositiveDefinite(NumericalError):
    """Cholesky factorisation failed even after jitter escalation."""

    def __init__(self, message, jitter):
        super().__init__(f"{message} (escalated jitter {jitter:g})")
        self.jitter = jitter


# --- densifier --------------------------------------------------------------

class EmptyPredictionSet(InputDataError):
    pass


# --- metrics ----------------------------------------------------------------

class EmptySet(InputDataError):
    pass


class ShapeMismatch(InputDataError):
    pass


class ConstantTruth(InputDataError):
    pass
