"""Exception types raised across the package."""


class BregmanConsensusError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BregmanConsensusError, ValueError):
    """A point lies outside a divergence's domain beyond the clamping floor."""


class RangeError(BregmanConsensusError, ValueError):
    """A dual point lies outside the range of the gradient map."""


class ShapeError(BregmanConsensusError, ValueError):
    """Array dimensions do not match the operation's contract."""


class EmptyEnsembleError(BregmanConsensusError, ValueError):
    """An ensemble aggregation was asked to average zero models."""


class ArgumentError(BregmanConsensusError, ValueError):
    """A scalar argument is out of its admissible range."""


class MissingClassError(BregmanConsensusError, ValueError):
    """A training split contains no examples for some class."""


class UnsupportedDivergenceError(BregmanConsensusError, ValueError):
    """The requested analysis has closed forms only for a subset of divergences."""


class DivisionDegenerateError(BregmanConsensusError, ArithmeticError):
    """A ratio's denominator vanished while its inputs were reported distinct."""


class InsufficientTraceError(BregmanConsensusError, ValueError):
    """Too few solver snapshots were captured for a rate estimate."""


class InputFormatError(BregmanConsensusError, ValueError):
    """A data file failed to parse; carries the file and line of the failure."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class NonFiniteObjectiveError(BregmanConsensusError, ArithmeticError):
    """The solver's objective turned non-finite; the message names the iteration."""
