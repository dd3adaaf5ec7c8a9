"""Exception types shared across the package."""


class InattentionError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(InattentionError):
    """An array does not have the shape required by the operation."""


class NotStochastic(InattentionError):
    """A probability vector or matrix row is too far from summing to one."""


class TooFewAgents(InattentionError):
    """Rationality tests need at least two agents; one agent passes trivially."""


class EmptyClass(InattentionError):
    """A ground-truth class has no records, so its prior mass is undefined."""


class RaggedAgents(InattentionError):
    """Agents were scored on different record sets; they must share one test set."""


class NumericalFailure(InattentionError):
    """The solver could not certify a result at its working tolerances."""


class DegenerateDataset(InattentionError):
    """The max-margin test returned (numerically) zero, so the requested
    refinement (sparsity, prediction) is undefined."""


class ProfileMismatch(DimensionMismatch):
    """A fitted profile does not match the dataset it is being applied to.

    A :class:`DimensionMismatch`, since the residual kernel's shape check
    raises it wherever a fitted model meets its dataset."""


class ShapeMismatch(InattentionError):
    """Two arrays that must agree in shape do not."""


class NonSquare(InattentionError):
    """Per-class accuracy needs as many actions as states."""


class RejectionExhausted(InattentionError):
    """A rejection-sampling generator ran out of attempts for this seed."""


class InfeasibleCosts(InattentionError):
    """No cost vector inside the unit box rationalizes these utilities at the
    requested margin."""


class NegativeCycle(InfeasibleCosts):
    """The value-difference graph has a negative cycle, so no cost vector at
    all rationalizes these utilities at the requested margin."""


class InstanceTooLarge(InattentionError):
    """The brute-force oracle only runs on tiny two-agent instances."""


class OutOfRange(InattentionError):
    """A query point lies outside the fitted grid; no extrapolation."""


class IoFailure(InattentionError):
    """Reading or writing an artifact file failed."""
