"""Exception taxonomy shared by every module.

The names are part of the public contract: callers dispatch on them to decide
whether a failure means "fix your input" (DslError), "the model is singular,
use the constraint machinery" (SingularHessian, SingularR) or "the integrator
gave up" (OdeError subclasses).
"""

from __future__ import annotations


class AmechError(Exception):
    """Base class for every error raised by this package."""


class DslError(AmechError):
    """Problem in a system-description document.

    Carries the 1-based source position so front ends can point at the
    offending token.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class DslSyntaxError(DslError):
    """Input does not conform to the document grammar."""


class UndeclaredNameError(DslError):
    """An expression references a name that is not declared in its context."""


class DimensionMismatchError(DslError):
    """A table has the wrong number of entries for the declared dimensions."""


class DuplicateIndexError(DslError):
    """The same fiber element appears twice where it must be unique."""


class UnknownPresetError(AmechError, KeyError):
    """A preset id that is not in the catalogue."""


class UnboundVariableError(AmechError):
    """Evaluation met a variable with no binding."""

    def __init__(self, name: str, path: str):
        self.name = name
        self.path = path
        super().__init__(f"unbound variable '{name}' at node {path}")


class EvalDomainError(AmechError):
    """Evaluation left the domain of a primitive (ln, sqrt, division, pow)."""

    def __init__(self, message: str, path: str):
        self.path = path
        super().__init__(f"{message} at node {path}")


class SingularHessian(AmechError):
    """The velocity Hessian of the Lagrangian is rank deficient at the point.

    Regular Euler-Lagrange dynamics is undefined there; the presymplectic
    constraint machinery is the intended route.
    """


class SingularR(AmechError):
    """The vakonomic regularity matrix is rank deficient at the state."""


class RankAmbiguous(AmechError):
    """A rank decision fell inside the ambiguity band and was refused.

    Constraint algorithms are brittle against misjudged ranks, so values that
    straddle the threshold are reported instead of guessed.
    """

    def __init__(self, values, band):
        self.values = tuple(float(v) for v in values)
        self.band = band
        super().__init__(
            f"singular values {self.values} fall inside the ambiguity band {band}"
        )


class MaxLevelsExceeded(AmechError):
    """The constraint algorithm did not stabilize within the level budget."""


class NotOnFinalManifold(AmechError):
    """A point handed to a final-manifold operation violates its constraints."""


class InconsistentDynamics(AmechError):
    """No tangent solution exists where the algorithm claimed stabilization."""


class LinearSolveResidualTooLarge(AmechError):
    """A least-squares solve left a residual above the accepted tolerance."""


class NewtonFailed(AmechError):
    """A Newton iteration did not converge within its budget."""


class MuSolveFailed(NewtonFailed):
    """The implicit solve for the free velocities in terms of momenta diverged."""


class OdeError(AmechError):
    """Base class for integration failures."""


class StepFailure(OdeError):
    """The right-hand side produced a non-finite value during a step."""


class MaxStepsExceeded(OdeError):
    """The integrator hit its step budget before reaching the end time."""


class ToleranceUnreachable(OdeError):
    """Adaptive step control drove the step size below the useful minimum."""
