"""Nonlocal games, partition bounds, direct-product bounds, and
device-independent key-rate estimates.

The submodules load on first use (PEP 562): ``import gamebox`` runs only
``errors``, and ``gamebox.bounds`` or ``from gamebox import bounds``
imports ``bounds`` (and what it imports) when it is first asked for.
"""

import sys as _sys

from .errors import (
    BudgetExceededError,
    CapabilityError,
    DimensionMismatchError,
    GameboxError,
    GateViolationError,
    LPInfeasibleError,
    LPUnboundedError,
    ProtocolViolationError,
    ValidationError,
)

_SUBMODULES = ("bounds", "diqkd", "dpt", "games", "qcore")

__all__ = [
    *_SUBMODULES,
    "GameboxError",
    "ValidationError",
    "DimensionMismatchError",
    "CapabilityError",
    "BudgetExceededError",
    "LPInfeasibleError",
    "LPUnboundedError",
    "GateViolationError",
    "ProtocolViolationError",
]

__version__ = "0.1.0"


def __getattr__(name):
    # Only called for a name the package does not hold yet; importing the
    # submodule also binds it here, so each is imported once.  __import__
    # (not importlib) keeps the import visible to ``python -X importtime``.
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return _sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
