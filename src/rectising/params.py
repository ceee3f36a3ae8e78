"""Coupling-constant algebra.

Duals, plus/minus splits, the (z, t) weights, the temperature-like elliptic
modulus, the purely imaginary anisotropy point on the u-torus, and the
direction-swap transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .elliptic import (EllipticKernel, _scalar_fns, carlson_rf, get_kernel,
                       is_critical)
from .errors import CriticalModulusError, DomainError
from .precision import FLOAT64, Precision, as_precision


# ----------------------------------------------------------------------
# scalar algebra
# ----------------------------------------------------------------------

def dual(a):
    """The involution a* = (1 - a)/(1 + a)."""
    if a == -1:
        raise DomainError("dual pole: a = -1")
    return (1 - a) / (1 + a)


def plus_minus_split(a):
    """The split a_pm = (a +- 1/a)/2, so that a = a_plus + a_minus."""
    if a == 0:
        raise DomainError("split pole: a = 0")
    inv = 1 / a
    return (a + inv) / 2, (a - inv) / 2


def dual_and_split(a):
    """(a*, a_plus, a_minus); raises on either pole."""
    a_star = dual(a)
    a_plus, a_minus = plus_minus_split(a)
    return a_star, a_plus, a_minus


# ----------------------------------------------------------------------
# system definition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Couplings:
    """Reduced couplings of an L x M open rectangle.

    K_h acts along the L direction (length L-1 bonds per row), K_v along
    the M direction.  Systems with odd M (e.g. swaps of odd-L systems) run
    the configuration-sum routes; the structured routes refuse them with
    RouteInfeasibleError("odd M").
    """

    K_h: float
    K_v: float
    L: int
    M: int

    def __post_init__(self):
        if not (self.K_h > 0 and self.K_v > 0):
            raise DomainError("couplings must be strictly positive")
        if self.L < 1 or self.M < 1:
            raise DomainError("geometry must be at least 1 x 1")

    @property
    def sites(self) -> int:
        return self.L * self.M


def swap_system(c: Couplings) -> Couplings:
    """Exchange the two lattice directions; an involution on systems."""
    return Couplings(K_h=c.K_v, K_v=c.K_h, L=c.M, M=c.L)


@dataclass(frozen=True)
class Weights:
    """Derived scalar weights of a coupling pair (all context scalars)."""

    z: object
    t: object
    z_star: object
    t_star: object
    z_plus: object
    z_minus: object
    t_plus: object
    t_minus: object
    lambda_n: object
    lambda_s: object
    lambda_c: object
    lambda_d: object
    zeta_n: object
    zeta_s: object
    zeta_c: object
    zeta_d: object
    prec: Precision = field(compare=False)

    @property
    def k(self):
        """Temperature-like elliptic modulus t_minus/z_minus."""
        return self.t_minus / self.z_minus

    @property
    def tz_minus(self):
        return self.t_minus * self.z_minus

    @property
    def tz_plus(self):
        return self.t_plus * self.z_plus


def weights_from_couplings(c: Couplings, prec: Precision = FLOAT64) -> Weights:
    """All scalar weights of a system."""
    prec = as_precision(prec)
    fn = _scalar_fns(prec)
    Kh, Kv = fn.mpf(c.K_h), fn.mpf(c.K_v)
    z = fn.tanh(Kh)
    t = fn.exp(-2 * Kv)
    z_star, z_plus, z_minus = dual_and_split(z)
    t_star, t_plus, t_minus = dual_and_split(t)
    if z_star == 0 or t_star == 0:
        raise DomainError(f"a dual weight rounds to 0 at {prec.bits} bits "
                          f"(z* = {float(z_star)!r}, t* = {float(t_star)!r})")
    lam_n = t * z
    zet_n = z_star * t_star
    return Weights(
        z=z, t=t, z_star=z_star, t_star=t_star,
        z_plus=z_plus, z_minus=z_minus, t_plus=t_plus, t_minus=t_minus,
        lambda_n=lam_n, lambda_s=1 / lam_n, lambda_c=t / z, lambda_d=z / t,
        zeta_n=zet_n, zeta_s=1 / zet_n, zeta_c=z_star / t_star,
        zeta_d=t_star / z_star,
        prec=prec,
    )


# ----------------------------------------------------------------------
# the elliptic frame
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticFrame:
    """Geometry of the u-torus for one non-critical system.

    Carries the Jacobi kernel at the modulus k, both quarter periods, the
    purely imaginary anisotropy point eta and its swap image.  The Jacobi
    functions are read through ``kernel``.
    """

    k: object
    K: object
    K_prime: object
    eta: object
    eta_tilde: object
    kernel: EllipticKernel
    prec: Precision = field(compare=False)

    @cached_property
    def eta_triple(self):
        """(sn, cn, dn) at eta, evaluated once per frame."""
        return self.kernel.sncndn(self.eta)

    def swap_u(self, u):
        """Point reflection of the torus at i K'/4: u -> i K'/2 - u."""
        mpc = _scalar_fns(self.prec).mpc
        return mpc(0, 1) * self.K_prime / 2 - mpc(u)


def eta_over_Kprime(w: Weights):
    """Im(eta)/K' of the anisotropy point, in closed form, at the
    precision of ``w``; the modulus must not be critical.

    sn(i y, k) = i sc(y, k') turns sn(2 eta) = 1/(i t_minus) into
    sc(2 Im eta, k') = s with s = -1/t_minus = 1/sinh 2K_v, so
    2 Im eta = F(arctan s, k') = s R_F(1, 1 + k^2 s^2, 1 + s^2) and
    K' = R_F(0, k^2, 1).  Above the transition sn(u, k) = sn(k u, 1/k)/k
    gives the same form in the reciprocal modulus, with s = -1/z_minus =
    sinh 2K_h.
    """
    k = w.k
    m, s = (k, -1 / w.t_minus) if k < 1 else (1 / k, -1 / w.z_minus)
    return (s * carlson_rf(1, 1 + (m * s) ** 2, 1 + s * s, w.prec)
            / (2 * carlson_rf(0, m * m, 1, w.prec))).real


def elliptic_frame(w: Weights) -> EllipticFrame:
    """Build the u-torus frame from the weights, at their precision.

    The anisotropy point eta = i (eta/K') K' solves sn(2 eta) =
    1/(i t_minus) on [0, i K'/2], with eta/K' from `eta_over_Kprime`.
    The torus does not exist at the critical modulus: there the kernel
    raises `CriticalModulusError`.
    """
    prec = w.prec
    kern = get_kernel(w.k, prec)
    Kp = kern.K_prime
    i = _scalar_fns(prec).mpc(0, 1)
    eta = i * eta_over_Kprime(w) * Kp
    return EllipticFrame(k=kern.k, K=kern.K, K_prime=Kp, eta=eta,
                         eta_tilde=i * Kp / 2 - eta, kernel=kern, prec=prec)


def couplings_from_modulus(k, eta_fraction, L, M,
                           prec: Precision = FLOAT64) -> Couplings:
    """System with prescribed modulus and anisotropy.

    ``eta_fraction`` scales the isotropic point: eta = fraction * i K'/4,
    so fraction 1 is the isotropic system.  The fraction lies in (0, 2):
    K_h -> 0 as it goes to 0 and K_v -> 0 as it goes to 2, where eta
    reaches the upper end i K'/2 of its strip.
    """
    prec = as_precision(prec)
    fn = _scalar_fns(prec)
    if not 0 < eta_fraction < 2:
        raise DomainError("eta_fraction must lie in (0, 2)")
    k = fn.mpf(k)
    if is_critical(k):
        raise CriticalModulusError(
            "critical modulus has no anisotropy parametrization")
    kern = get_kernel(k, prec)
    eta = fn.mpc(0, 1) * fn.mpf(eta_fraction) * kern.K_prime / 4
    s = kern.sncndn(2 * eta)[0].imag
    if not s > 0:
        raise DomainError("eta does not correspond to positive couplings")

    def arsinh(x):
        return fn.log(x + fn.sqrt(x * x + 1))

    K_v = arsinh(1 / s) / 2
    K_h = arsinh(k * s) / 2
    return Couplings(K_h=float(K_h), K_v=float(K_v), L=int(L), M=int(M))
