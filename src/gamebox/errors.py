"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the CLI's exit codes):

* usage problems -- bad arguments, violated preconditions
  (:class:`ValidationError` and subclasses);
* computational outcomes -- an optimisation or simulation that cannot
  deliver a result (infeasible LP, exhausted enumeration or leakage
  budget, unsupported structure).

It also holds the two checks every module uses on its input:
:func:`check_range` for a numeric parameter and
:func:`check_distribution` for a probability table.
"""

import math
import numbers

import numpy as np


class GameboxError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GameboxError, ValueError):
    """An argument or parameter set violates a documented precondition."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible shapes or subsystem dimensions."""


class CapabilityError(GameboxError):
    """The requested instance is outside the implemented capability range."""


class BudgetExceededError(GameboxError):
    """An enumeration, memory, or leakage budget would be exceeded."""


class LPInfeasibleError(GameboxError):
    """The linear program has an empty feasible region."""


class LPUnboundedError(GameboxError):
    """The linear program's objective is unbounded over the feasible region."""


class GateViolationError(GameboxError):
    """A bound's applicability gate does not hold for the supplied parameters."""


class ProtocolViolationError(GameboxError):
    """A device interaction happened outside the allowed window."""


def check_range(
    name: str, value, lo, hi, *, lo_open: bool = False, hi_open: bool = False, integer: bool = False
) -> float:
    """Return ``value`` after checking that it is a finite real number from
    ``lo`` to ``hi``; each end is closed unless ``lo_open`` / ``hi_open``,
    and an infinite end bounds nothing.  Integers come back unchanged,
    anything else as a float.  With ``integer`` (counts, seeds, budgets)
    the value must be a ``numbers.Integral`` other than ``bool``: ``2.0``
    and ``True`` are refused too.

    Raises :class:`ValidationError` for a value outside the interval, for
    NaN and +-inf (a bare ``value < lo`` lets NaN through) and for a
    non-number.
    """
    integral = isinstance(value, numbers.Integral)
    if integer and (not integral or isinstance(value, bool)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        finite = integral or math.isfinite(value)
    except TypeError:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None
    if not finite or (value <= lo if lo_open else value < lo) or (value >= hi if hi_open else value > hi):
        left = "(" if lo_open or lo == -math.inf else "["
        right = ")" if hi_open or hi == math.inf else "]"
        raise ValidationError(f"{name} must lie in {left}{lo}, {hi}{right}, got {value}")
    return value if integral else float(value)


def check_distribution(name: str, table, *, neg_tol: float, sum_tol: float) -> np.ndarray:
    """Return ``table`` as a float array after checking that it is
    non-empty and finite, that no entry is below ``-neg_tol`` and that its
    entries sum to 1 within ``sum_tol``; raises :class:`ValidationError`
    otherwise."""
    check_range("negative-entry tolerance", neg_tol, 0.0, math.inf)
    check_range("sum tolerance", sum_tol, 0.0, math.inf)
    t = np.asarray(table, dtype=float)
    if t.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(t)):
        raise ValidationError(f"{name} has non-finite entries")
    if np.min(t) < -neg_tol:
        raise ValidationError(f"{name} has negative entry {float(np.min(t))}")
    if abs(float(t.sum()) - 1.0) > sum_tol:
        raise ValidationError(f"{name} sums to {float(t.sum())}, not 1")
    return t
