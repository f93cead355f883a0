"""Exception hierarchy for the engine.

Every numerically-detected failure mode gets its own class so callers
(and the CLI) can map them to diagnostics without string matching.
"""


class EngineError(Exception):
    """Base class for all engine failures."""


class BranchPointError(EngineError):
    """Inverse branch evaluated at (or enclosing) the branch point z = c."""


class DomainError(EngineError):
    """An argument lies outside the region where an operation is defined
    (escape region, non-contracting spec, ...)."""


class HyperbolicityError(EngineError):
    """The expansion certificate failed: the parameter is not certifiably
    expanding on its Julia set at the requested depth."""


class ConvergenceError(EngineError):
    """An iteration (contraction or Newton) did not converge."""


class DegeneracyError(EngineError):
    """Catalog bookkeeping fails an identity: the pairwise separation
    guard, or the prime-orbit or fixed-point counts."""


class WordLimitError(EngineError):
    """Requested word length exceeds the configured hard cap."""


class CoverError(EngineError):
    """A backward cover does not satisfy a required containment margin."""


class ResolutionError(EngineError):
    """Component statistics requested at a scale the cover cannot resolve."""


class RadiusCapError(EngineError):
    """A cover element is so large that the branch-weight logarithm would
    touch its cut."""


class DivergenceRegionError(EngineError):
    """Cycle expansion requested outside its convergence half-plane."""


class TruncationError(EngineError):
    """A truncation-error estimate is not finite, so the evaluation cannot
    report how far its value may be off."""


class BoundaryZeroError(EngineError):
    """A contour passes too close to a zero for phase tracking."""


class NoZeroError(EngineError):
    """Zero refinement started from a seed whose neighbourhood winds zero."""


class CompletenessError(EngineError):
    """A zero list does not account for the winding of its region."""


class CoverageError(EngineError):
    """Orbit catalog does not exhaust the support of a test function."""


class TraceError(EngineError):
    """A pullback trace fails an identity it must satisfy (the
    two-variable trace is real by conjugate pairing)."""


class ConfigError(EngineError):
    """A job configuration failed validation."""


class ClusterWarning(UserWarning):
    """Subdivision hit its depth limit on a cell with winding > 1."""
