"""Exception hierarchy: one class per kind of failure.

Two broad families matter for the CLI exit codes: anything rooted at
InputDataError exits with code 2, anything rooted at NumericalError with
code 3. Usage problems (bad flags, bad config keys and values) are raised
as UsageError and exit with code 1. The only class caught by name inside
the package is ConstantTruth, which held-out scoring turns into an absent
per-output r2.
"""


class GpgsError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(GpgsError):
    """Bad command line, bad config file, bad parameter combination."""


class InputDataError(GpgsError):
    """The input data (files, datasets, point sets) is unusable."""


class NumericalError(GpgsError):
    """A numerical procedure failed beyond recovery."""


# --- files ----------------------------------------------------------------

class MissingFile(InputDataError):
    pass


class MalformedLine(InputDataError):
    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


class IoFailure(InputDataError):
    """An artifact or output directory that cannot be written."""


# --- depth maps (PFM) -----------------------------------------------------

class BadMagic(InputDataError):
    pass


class BadDims(InputDataError):
    pass


class TruncatedPayload(InputDataError):
    """A payload other than exactly the bytes its header gives: cut short,
    or followed by more."""


# --- data sets --------------------------------------------------------------

class DanglingReference(InputDataError):
    """An id (camera, image, 3D point, track entry) that names nothing."""


class NoCorrespondences(InputDataError):
    pass


class EmptyDataset(InputDataError):
    """No sample, candidate, prediction or point left to work on."""


class DimensionMismatch(InputDataError):
    """Arrays, inputs or images whose shapes or sizes do not fit together."""


class NonFinitePrediction(InputDataError):
    """A retained prediction that a PLY float cannot hold: the model file's
    values are out of range."""


class ConstantTruth(InputDataError):
    """Truth values too few or too constant for an r2."""


# --- GP engine --------------------------------------------------------------

class NotPositiveDefinite(NumericalError):
    """Cholesky factorisation failed even after jitter escalation."""

    def __init__(self, message, jitter):
        super().__init__(f"{message} (escalated jitter {jitter:g})")
        self.jitter = jitter
