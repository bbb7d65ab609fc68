"""Exception types shared across the toolkit.

Class names double as the error labels the CLI writes into CSV cells,
so renaming one is a file-format change, not a refactor.
"""

__all__ = [
    "GazeKitError",
    "AllZeroGrid",
    "ZeroVariance",
    "NoFixations",
    "AllFixated",
    "InsufficientNegatives",
    "DegenerateNorm",
    "ShapeMismatch",
    "LengthMismatch",
    "TooShort",
    "EmptyCorpus",
    "CaptionError",
    "MissingField",
    "OrderViolation",
    "EmptyField",
    "InvalidCharacter",
]


class GazeKitError(Exception):
    """Base class for every toolkit-specific error."""


class AllZeroGrid(GazeKitError):
    """A grid held no mass, so it cannot be normalized to a distribution."""


class ZeroVariance(GazeKitError):
    """A metric that needs spread was given a constant map."""


class NoFixations(GazeKitError):
    """A fixation-based metric was given a map with no fixated cells."""


class AllFixated(GazeKitError):
    """Every cell is fixated, leaving no negatives to rank against."""


class InsufficientNegatives(GazeKitError):
    """Fewer non-fixated cells than fixations, so negatives cannot be sampled."""


class DegenerateNorm(GazeKitError):
    """A vector norm fell below the safe threshold for cosine similarity."""


class ShapeMismatch(GazeKitError):
    """Array arguments do not agree on their dimensions."""


class LengthMismatch(GazeKitError):
    """Sequence lengths that must agree do not."""


class TooShort(GazeKitError):
    """A frame sequence is too short for the requested operation."""


class EmptyCorpus(GazeKitError):
    """Document-frequency statistics were requested over an empty corpus."""


class CaptionError(GazeKitError):
    """Base class for structured-caption parse and validation errors."""


class MissingField(CaptionError):
    """A labeled caption field is absent."""


class OrderViolation(CaptionError):
    """Caption fields are present but not in the canonical order."""


class EmptyField(CaptionError):
    """A caption field is empty after trimming."""


class InvalidCharacter(CaptionError):
    """A caption field contains a character the format reserves."""
