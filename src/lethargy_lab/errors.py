"""Exception types shared across the package."""


class LethargyLabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(LethargyLabError):
    """Vector length does not match the ambient dimension."""


class HorizonTooLarge(LethargyLabError):
    """Requested chain length does not fit in the ambient space."""


class RankDeficientBasis(LethargyLabError):
    """Basis vectors are linearly dependent (or numerically so)."""


class NotNested(LethargyLabError):
    """Some subspace is not contained in its successor."""


class NotStrict(LethargyLabError):
    """Consecutive subspaces span the same set."""


class BadStaircase(LethargyLabError):
    """A staircase vector fails its membership requirements."""


class TooManyBasisVectors(LethargyLabError):
    """Brute-force grid search is limited to three basis vectors."""


class SimplexCycleGuard(LethargyLabError):
    """The simplex iteration cap was hit before optimality."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class EmptySpan(LethargyLabError):
    """No staircase vectors available for the requested span."""


class NotGeometricSequence(LethargyLabError):
    """Idealized-geometric checking requires a geometric sequence."""


class InvariantViolation(LethargyLabError):
    """A structural invariant that should hold by construction failed."""


class PlanStalled(LethargyLabError):
    """A stalled literal-mode plan cannot drive the step construction."""


class HorizonExhausted(LethargyLabError):
    """Dropping out-of-horizon steps left no usable step targets."""


class TargetsNotMonotonic(LethargyLabError):
    """Witness targets must be positive and non-increasing."""


class NotNonIncreasing(LethargyLabError):
    """Prescribed error values must be non-increasing."""


class NoProgress(LethargyLabError):
    """The witness anchor equations have no real root."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NoContributors(LethargyLabError):
    """No in-horizon indices contribute to the upper constant."""


class MismatchedInputs(LethargyLabError):
    """Report inputs were built from different underlying objects."""


class ConfigInvalid(LethargyLabError, ValueError):
    """Scenario or chain configuration failed validation."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


class DegreeExceedsGrid(LethargyLabError):
    """Polynomial degree must stay below the grid resolution."""
