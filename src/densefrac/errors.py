"""Exception hierarchy for the construction pipeline.

Every pipeline error carries a machine-readable code, the failing parameter
and a remediation hint, so the CLI can emit structured diagnostics and map
errors onto its fixed exit-code table.
"""

from __future__ import annotations


class DensefracError(Exception):
    """Base class; carries structured diagnostic fields."""

    code = "error"
    exit_code = 1

    def __init__(self, message, *, failing_parameter=None, suggestion=None):
        super().__init__(message)
        self.failing_parameter = failing_parameter
        self.suggestion = suggestion

    def as_dict(self):
        return {
            "code": self.code,
            "message": str(self),
            "failing_parameter": self.failing_parameter,
            "suggestion": self.suggestion,
        }


class ParameterError(DensefracError):
    """A precondition on operation arguments was violated."""

    code = "parameter"
    exit_code = 64


class DivisibilityError(DensefracError):
    """An element does not divide the modulus it was promised to divide."""

    code = "divisibility"
    exit_code = 1


class InfeasibleMass(DensefracError):
    """The available reciprocal mass cannot reach the requested value."""

    code = "infeasible_mass"
    exit_code = 2


class UnsupportedDenominator(DensefracError):
    """The target's denominator cannot be accommodated by any allowed k/w."""

    code = "unsupported_denominator"
    exit_code = 3


class EliminationFailed(DensefracError):
    """No subset of the available multiples hits the required residue."""

    code = "elimination_failed"
    exit_code = 4

    def __init__(self, message, *, prime=None, power=1, **kw):
        super().__init__(message, **kw)
        self.prime = prime
        self.power = power

    def as_dict(self):
        d = super().as_dict()
        d["prime"] = self.prime
        d["power"] = self.power
        return d


class BreuschPreconditionFailed(DensefracError):
    """Residual too large for the terminal odd expansion."""

    code = "breusch_precondition"
    exit_code = 5


class BoundExceeded(DensefracError):
    """A constructed denominator exceeds the allowed bound."""

    code = "bound_exceeded"
    exit_code = 6


class SieveBoundExceeded(DensefracError):
    """The request needs a sieve above the memory bound MAX_SIEVE_X."""

    code = "sieve_bound"
    exit_code = 7


class RemainderNonPositive(DensefracError):
    """The running remainder left the open interval (0, r)."""

    code = "remainder_nonpositive"
    exit_code = 1
