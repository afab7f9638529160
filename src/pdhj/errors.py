"""Exception hierarchy shared across the toolkit."""


class PdhjError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PdhjError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ContractError(PdhjError, RuntimeError):
    """A declared bound or invariant was violated at runtime."""


class SolverError(PdhjError, RuntimeError):
    """An inner nonlinear solve failed to converge.

    Attributes
    ----------
    step_index : int or None
        Time-step index at which the failure occurred, when known.
    """

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class AuditError(PdhjError, RuntimeError):
    """An operator audit hit a non-finite evaluation; carries the sample."""

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class EvaluationError(PdhjError, RuntimeError):
    """A game ingredient (f, running cost, terminal cost) returned a non-finite value."""


class ParameterError(PdhjError, ValueError):
    """A numeric parameter violates its admissible range."""


class LatticeCoverageError(PdhjError, RuntimeError):
    """A state left the value lattice; reports the margin that would be needed.

    Attributes
    ----------
    margin : float
        How far outside the lattice the offending state landed.
    margins : numpy.ndarray or None
        Every row's margin (0 inside), when a lattice read refused its rows.
    """

    margins = None

    def __init__(self, message, margin=0.0):
        super().__init__(message)
        self.margin = margin


class ConfigurationError(PdhjError, ValueError):
    """A runtime object was assembled inconsistently (empty library, side mismatch, ...)."""


class UsageError(PdhjError, ValueError):
    """An experiment config violates the schema; names the offending field path."""

    def __init__(self, message, field_path=None):
        super().__init__(message)
        self.field_path = field_path
