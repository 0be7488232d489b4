"""Error taxonomy shared across the toolkit."""


class ParaposError(Exception):
    """Base class for all toolkit errors."""


class CoefficientError(ParaposError):
    """Coefficient evaluator returned non-finite, wrongly shaped, or asymmetric data."""


class SpecError(ParaposError):
    """Problem definition is internally inconsistent (domain, grid, components)."""


class SolverError(ParaposError):
    """A time step could not be completed (linear solve breakdown, bad state)."""


class NonConvergence(ParaposError):
    """An iterative limit process failed to settle (nested boxes, steady state)."""


class NonContraction(ParaposError):
    """Successive-substitution iteration expanded instead of contracting."""


class DegenerateRefinement(ParaposError):
    """Refinement differences are below noise; no order can be estimated."""


class DomainError(ParaposError):
    """A point or region lies outside the configured spatial domain."""


class DivisionDomainError(ParaposError):
    """A ratio bound was requested where the denominator is not positive."""


class IntegrabilityError(ParaposError):
    """A time integral did not converge below the tail tolerance."""


class ConfigError(ParaposError):
    """Scenario configuration is invalid; carries a JSON-pointer style path."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer else message)
        self.pointer = pointer


class WriterError(ParaposError):
    """An artifact writer failed; the message names the writer's own error."""
