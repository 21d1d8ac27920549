"""Exception taxonomy shared by all tailward modules.

The split matters for the CLI exit codes: user-input problems, violated
mathematical hypotheses, and numerical failures are reported differently.
"""


class TailwardError(Exception):
    """Base class for all tailward errors."""


class SpecError(TailwardError):
    """Malformed distribution/tail/model specification."""


class DomainError(TailwardError):
    """Evaluation requested outside a tail's or oracle's valid region."""


class AssumptionError(TailwardError):
    """A hypothesis of the closed-form result does not hold."""


class ConditionError(TailwardError):
    """Neither domination condition could be certified for the pair."""


class Unsupported(TailwardError):
    """Tail-family combination outside the implemented classification."""


class DivergentMoment(TailwardError):
    """The requested moment does not exist for the declared tail."""


class QuadratureFailure(TailwardError):
    """Adaptive quadrature did not reach tolerance within the node budget."""

    def __init__(self, message: str, achieved: float = float("nan")):
        super().__init__(message)
        self.achieved = achieved


class MissingPickands(TailwardError):
    """No Pickands constant known or supplied for this stationarity index."""


class MissingEConstant(TailwardError):
    """No sup-ratio moment constant available for the zero-lower-edge case."""


class BoundaryCase(TailwardError):
    """The two competing tails have equal decay; no asymptotic is claimed."""


class EmbeddingFailure(TailwardError):
    """Circulant spectrum went negative beyond round-off."""
