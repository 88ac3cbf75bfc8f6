"""Exception hierarchy for shapealign."""


class ShapeAlignError(Exception):
    """Base class for all errors raised by this package."""


# --- sampling grid / Fourier analysis ---

class EvenSampleCount(ShapeAlignError):
    """The sampling grid must have an odd number of points."""


class TooSmall(ShapeAlignError):
    """The sampling grid needs at least 3 points."""


class BandTooWide(ShapeAlignError):
    """Requested frequency band violates 2*m < n."""


class LengthMismatch(ShapeAlignError):
    """Sample vector length does not match the grid."""


class NonHermitianSpectrum(ShapeAlignError):
    """Spectrum coefficients break c[-l] == conj(c[l]) beyond tolerance."""


# --- model / parameters ---

class ConstraintViolation(ShapeAlignError):
    """A parameter set breaks its constraint regime's invariants."""


class DegenerateAmplitude(ShapeAlignError):
    """Amplitude vector is (numerically) zero."""


class ZeroReferenceAmplitude(ShapeAlignError):
    """The reference curve's amplitude is exactly zero after rescaling."""


# --- estimation ---

class DegenerateSpectrum(ShapeAlignError):
    """The cross-coefficient matrix carries no spectral energy."""


class NonFiniteData(ShapeAlignError):
    """Panel values, their moments or their DFT coefficients are not finite."""


# --- inference ---

class ZeroAmplitudeCoordinate(ShapeAlignError):
    """Information-matrix blocks need every amplitude to be nonzero."""


class EmptySpectrum(ShapeAlignError):
    """Information-matrix blocks need a nonempty shape spectrum."""


class DegenerateShape(ShapeAlignError):
    """Shape is (numerically) constant, so the alternative-regime
    covariance is singular."""


class NotConverged(ShapeAlignError):
    """Confidence intervals require a converged fit."""


# --- I/O ---

class ParseError(ShapeAlignError):
    """Malformed panel file; carries line/column context in the message."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class GridMismatch(ShapeAlignError):
    """Time column is not an equidistant odd-n grid on [0, 2pi)."""


class RaggedColumns(ShapeAlignError):
    """Panel rows do not all have the same number of cells."""


class ConfigInvalid(ShapeAlignError):
    """A study or fit configuration fails validation."""
