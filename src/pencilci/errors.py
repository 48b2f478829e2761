"""Exception and warning types shared across the package."""


class PencilError(Exception):
    """Base class for errors raised by this package."""


class NotPositiveDefinite(PencilError):
    """A matrix required to be symmetric positive definite is not."""


class NonFiniteInput(PencilError):
    """A pencil evaluation produced a NaN or infinite entry."""


class EvaluationFailed(PencilError):
    """A pencil's own eval raised an exception that is not a PencilError.

    The message names the original exception's type and message and the
    point (x, y); the original is chained as the cause.
    """


class SeriesDiverged(PencilError):
    """Square-root series terms stopped contracting.

    Raised when the scaling precondition gamma > ||B|| is violated, or when
    term norms fail to decrease monotonically after the third term.
    """


class DispersionOutOfRange(PencilError, ValueError):
    """Ensemble dispersion outside the open interval (0, sqrt((n+1)/(n+5)))."""


class BandwidthOutOfRange(PencilError, ValueError):
    """Bandwidth outside the admissible range 1..n-1."""


class SpectrumOverlap(PencilError):
    """Embedding spectrum not separated from the inner block's eigenvalues."""


class DegenerateStart(PencilError):
    """Eigenvalues tie at the starting point of a trace."""


class GapTooSmall(PencilError):
    """Eigenvalue gap too small for the Euler predictor.

    Only direct callers of ``predict`` meet it; ``trace`` never predicts there.
    """


class StepUnderflow(PencilError):
    """Stepsize fell below its floor.

    An un-continuable feature (an eigenvalue coalescence on or numerically
    indistinguishable from the path) blocks further progress.
    """


class TripleDegeneracy(PencilError):
    """Two pairs of adjacent eigenvalues nearly coalesce at once.

    Veering follows one pair at a time; traces abort rather than guess.
    """


class LoopUnresolvable(PencilError):
    """A closed-loop trace could not produce a clean sign signature."""


class OddSignCount(PencilError):
    """A signature with an odd number of -1 entries.

    Valid signatures have determinant +1; an odd count indicates a corrupted
    trace, never valid input.
    """


class RefinementInconsistent(PencilError):
    """Refinement cannot go on: its start box does not flag the pair, or a half stays unresolved."""


class NonPositiveCount(UserWarning):
    """A nonpositive count was excluded from a log-log fit."""
