"""Typed error signals.

Numerical code below never returns Inf/NaN for a recognized singular
configuration; it raises one of these so callers can steer around the
singularity deterministically.
"""


class RectisingError(Exception):
    """Base class for all package errors."""


class DomainError(RectisingError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class CriticalModulusError(DomainError):
    """Modulus k = 1: the quarter period diverges and the spectral
    parametrization degenerates.  Only configuration-sum and block-transfer
    routes run at the critical point."""


class PoleError(RectisingError, ArithmeticError):
    """Evaluation requested within the pole tolerance of a simple pole
    (e.g. sn at u = i K' modulo the period lattice)."""

    def __init__(self, msg, where=None):
        super().__init__(msg)
        self.where = where


class BranchMissError(RectisingError, ArithmeticError):
    """An inverse function has no solution on the requested branch.

    Carries the candidate values found on every branch so the caller can
    decide how to continue.
    """

    def __init__(self, msg, candidates=()):
        super().__init__(msg)
        self.candidates = tuple(candidates)


class JointDiagonalizationError(RectisingError, ArithmeticError):
    """Eigenvectors of the tridiagonal matrix failed to simultaneously
    diagonalize the full transfer-matrix family within tolerance."""


class PhaseLeakError(RectisingError, ArithmeticError):
    """A quantity that must be real (up to tolerance) came out with a
    residual complex phase.  Reported instead of silently normalized."""

    def __init__(self, msg, value=None):
        super().__init__(msg)
        self.value = value


class NonFiniteError(RectisingError, ArithmeticError):
    """A NaN or an infinity where a finite value is required: an entry of
    a matrix handed to a factorization, or a log Z whose value is zero or
    not finite."""


class RouteInfeasibleError(RectisingError):
    """The requested partition-function route cannot run for the given
    system (size cap exceeded, odd transverse extent, critical modulus...)."""


class ConvergenceError(RectisingError, ArithmeticError):
    """An iterative procedure (contour sample doubling) failed to
    reach its tolerance."""

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}
