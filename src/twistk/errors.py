"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for programming errors at the API
boundary (wrong shapes, unsupported arguments).
"""

from __future__ import annotations


def describe(err: BaseException) -> str:
    """A failure as "<class>: <message>", the form every artifact records."""
    return f"{type(err).__name__}: {err}"


class TwistkError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(TwistkError, ValueError):
    """A field or matrix does not match the grid or dimension it claims."""


class UnsupportedOrderError(TwistkError, ValueError):
    """A correction-ladder order outside [0, MAX_LADDER_ORDER]."""


class SolvabilityError(TwistkError, ValueError):
    """Right-hand side violates the compatibility condition of a solve."""


class DomainError(TwistkError, ValueError):
    """An input matrix or parameter lies outside the admissible domain."""


class DegenerateMetricError(TwistkError):
    """A candidate metric loses positivity somewhere on the grid."""

    def __init__(self, message: str, point: tuple[int, ...], eigenvalue: float):
        super().__init__(message)
        self.point = point
        self.eigenvalue = eigenvalue


class PreconditionError(TwistkError):
    """A documented hypothesis of an operation fails on the given data."""


class IterationLimitError(TwistkError):
    """An iterative solver ran out of iterations before reaching tolerance."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


class StagnationError(TwistkError):
    """Damped Newton could not make progress above the step-size floor."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


class RefusalError(TwistkError):
    """A dense assembly or similar request exceeds the safety cap."""


class ConfigError(TwistkError):
    """Configuration text failed validation; carries all diagnostics."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics
