"""Exception taxonomy shared by all tailward modules, its refusal rule and readers.

The split matters for the CLI exit codes, which each class carries as
``exit_code``: user-input problems (2), violated mathematical hypotheses
(3) and numerical failures (4) are reported differently.
"""

import json
import math
import operator

import numpy as np


class TailwardError(Exception):
    """Base class for all tailward errors."""
    exit_code = 4


class SpecError(TailwardError):
    """Malformed distribution/tail/model specification."""
    exit_code = 2


class DomainError(TailwardError):
    """Evaluation requested outside a tail's or oracle's valid region."""
    exit_code = 2


class AssumptionError(TailwardError):
    """A hypothesis of the closed-form result does not hold."""
    exit_code = 3


class ConditionError(TailwardError):
    """Neither domination condition could be certified for the pair."""
    exit_code = 3


class Unsupported(TailwardError):
    """Tail-family combination outside the implemented classification."""
    exit_code = 3


class DivergentMoment(TailwardError):
    """The requested moment does not exist for the declared tail."""
    exit_code = 3


class QuadratureFailure(TailwardError):
    """Adaptive quadrature did not reach tolerance within the node budget."""


class MissingPickands(TailwardError):
    """No Pickands constant known or supplied for this stationarity index."""
    exit_code = 3


class MissingEConstant(TailwardError):
    """No sup-ratio moment constant available for the zero-lower-edge case."""
    exit_code = 3


class BoundaryCase(TailwardError):
    """The two competing tails have equal decay; no asymptotic is claimed."""
    exit_code = 3


class EmbeddingFailure(TailwardError):
    """Circulant spectrum went negative beyond round-off."""


def as_double(name: str, compute, positive: bool = True, log_compute=None) -> float:
    """compute() if it is a finite double, and > 0 when ``positive``.

    Inputs that fit in doubles can combine to a value that does not: a
    power overflows (raising), underflows to 0 or raises 0 to a negative
    power (raising), and 0 * inf gives NaN.  Each is a DomainError naming
    the value.  This is the one place a computed value's OverflowError or
    ZeroDivisionError is caught; log values and ratios pass positive=False.

    A product whose factor overflows (Gamma(176), say) can still fit, and
    one whose factor is subnormal (76**-170) keeps only a few digits:
    ``log_compute``, the value's log assembled term by term (math.lgamma
    for a Gamma function), gives the value unless compute()'s log agrees
    with it to 1e-9; a direct value that agrees keeps its bits.
    """
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if log_compute is not None:
        try:
            log_value = log_compute()
            if not 0.0 < value < math.inf or abs(math.log(value) - log_value) > 1e-9:
                value = math.exp(log_value)
        except OverflowError:
            value = math.inf
    if not (0.0 < value < math.inf if positive else math.isfinite(value)):
        kind = "positive finite" if positive else "finite"
        raise DomainError(f"{name} is not a {kind} double (got {value!r})")
    return value


def _spelled(value) -> str:
    """A refused value as JSON spells it (true, "1", null), else its repr."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def as_number(name: str, value, finite: bool = True) -> float:
    """A caller's number as a float: the one reader of a law parameter, trend
    field, slope, level or limit.  A boolean, a string, None, anything float()
    cannot read, NaN, and +-inf unless ``finite`` is False are a SpecError."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise SpecError(f"{name} must be a number, got {_spelled(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the doubles
        raise SpecError(f"{name} is beyond the doubles, got {value}") from None
    except (TypeError, ValueError):
        raise SpecError(f"{name} must be a number, got {_spelled(value)}") from None
    if not (math.isfinite(number) if finite else number == number):
        raise SpecError(f"{name} must be {'finite' if finite else 'a number'}, got {number}")
    return number


def as_integer(name: str, value) -> int:
    """A caller's count or seed as an int: an integer (Python or numpy), never a
    boolean, a float or a string; anything else is a SpecError naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise SpecError(f"{name} must be an integer, got {_spelled(value)}")
