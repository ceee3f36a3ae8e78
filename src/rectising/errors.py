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
    """Modulus k = 1: the quarter period diverges and the torus
    parametrization degenerates, so the elliptic kernel, the frame and
    `couplings_from_modulus` raise it.  The routes read no torus: all but
    the Pfaffian run at the critical point."""


class PoleError(RectisingError, ArithmeticError):
    """Evaluation requested within the pole tolerance of a simple pole
    (e.g. sn at u = i K' modulo the period lattice)."""

    def __init__(self, msg, where=None):
        super().__init__(msg)
        self.where = where


class JointDiagonalizationError(RectisingError, ArithmeticError):
    """Eigenvectors of the tridiagonal matrix failed to simultaneously
    diagonalize the full transfer-matrix family within tolerance."""


class PhaseLeakError(RectisingError, ArithmeticError):
    """A quantity that must be positive came out non-positive: a Pfaffian
    or det H of sign -1 or 0, a negative spectral weight, a singular
    half-power matrix.  Reported instead of silently taking its modulus."""


class NonFiniteError(RectisingError, ArithmeticError):
    """A NaN or an infinity where a finite value is required: an entry of
    a matrix handed to a factorization, or a log Z whose value is zero or
    not finite."""


class RouteInfeasibleError(RectisingError):
    """The requested partition-function route cannot run for the given
    system (size cap exceeded, odd transverse extent, critical modulus...)."""


class ConvergenceError(RectisingError, ArithmeticError):
    """An iterative procedure (contour sample doubling, Carlson's RF, the
    Landen chain) failed to reach its tolerance."""

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}
