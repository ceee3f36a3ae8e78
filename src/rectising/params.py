"""Coupling-constant algebra.

Duals, plus/minus splits, the (z, t) weights, the temperature-like elliptic
modulus, the purely imaginary anisotropy point on the u-torus, and the
direction-swap transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .elliptic import (
    EllipticKernel,
    Modulus,
    get_kernel,
    incomplete_F,
    is_critical,
)
from .errors import CriticalModulusError, DomainError, EtaSolveError
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
    the M direction.  The spectral routes additionally require even M;
    systems with odd M (e.g. swaps of odd-L systems) still support the
    configuration-sum routes and are flagged, not rejected.
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
    def spectral_ok(self) -> bool:
        return self.M % 2 == 0

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
    ctx = prec.ctx
    Kh, Kv = ctx.mpf(c.K_h), ctx.mpf(c.K_v)
    z = ctx.tanh(Kh)
    t = ctx.exp(-2 * Kv)
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
    """Geometry of the u-torus for one system.

    Carries the modulus, both quarter periods, the purely imaginary
    anisotropy point eta, its swap image, and the isotropic fixed point
    i K'/4 of the direction swap.  ``kernel`` is None exactly at the
    critical modulus, where the parametrization degenerates.
    """

    modulus: Modulus
    K: object
    K_prime: object
    eta: object
    eta_tilde: object
    eta_iso: object
    kernel: EllipticKernel | None
    prec: Precision = field(compare=False)

    @property
    def is_critical(self) -> bool:
        return self.modulus.phase_flag == "critical"

    @property
    def k(self):
        return self.modulus.k

    # -- kernel passthroughs (physical modulus, any phase) --------------
    def _need_kernel(self):
        if self.kernel is None:
            raise CriticalModulusError(
                "critical modulus: elliptic parametrization unavailable")
        return self.kernel

    def sncndn(self, u):
        return self._need_kernel().sncndn(u)

    def sn(self, u):
        return self._need_kernel().sncndn(u)[0]

    def cn(self, u):
        return self._need_kernel().sncndn(u)[1]

    def am(self, u):
        return self._need_kernel().am(u)

    @cached_property
    def eta_triple(self):
        """(sn, cn, dn) at eta, evaluated once per frame."""
        return self.sncndn(self.eta)

    def swap_u(self, u):
        """Point reflection of the torus at i K'/4: u -> i K'/2 - u."""
        ctx = self.prec.ctx
        return ctx.mpc(0, 1) * self.K_prime / 2 - ctx.mpc(u)

    def eta_fraction(self):
        """Im(eta) measured in units of Im(eta_iso) = K'/4."""
        ctx = self.prec.ctx
        return float(ctx.im(self.eta) / (self.K_prime / 4))


def elliptic_frame(w: Weights, prec: Precision | None = None) -> EllipticFrame:
    """Build the u-torus frame from the weights.

    The anisotropy point solves sn(2 eta) = 1/(i t_minus) with eta purely
    imaginary in [0, i K'/2]; a deterministic incomplete-integral seed is
    polished by a complex Newton iteration on the defining equation.
    """
    prec = as_precision(prec if prec is not None else w.prec)
    ctx = prec.ctx
    k = w.k
    modulus = Modulus.create(k, prec)
    if modulus.phase_flag == "critical":
        z = ctx.mpf(0)
        return EllipticFrame(modulus=modulus, K=z, K_prime=z, eta=z,
                             eta_tilde=z, eta_iso=z, kernel=None, prec=prec)

    kern = get_kernel(modulus.k, prec)
    K, Kp = kern.K, kern.K_prime
    i = ctx.mpc(0, 1)
    target = 1 / (i * w.t_minus)

    # deterministic seed for 2*eta
    if modulus.phase_flag == "disordered":
        two_eta = incomplete_F(-i * ctx.log(w.t_star), modulus.k, prec)
    else:
        kap = kern.kappa
        phi = ctx.asin(target / kap)
        two_eta = kap * incomplete_F(phi, kap, prec)

    # Newton polish of g(2eta) = sn(2eta) - target
    ok = False
    for _ in range(60):
        sn, cn, dn = kern.sncndn(two_eta)
        g = sn - target
        if abs(g) <= 64 * prec.eps * max(1.0, abs(target)):
            ok = True
            break
        two_eta = two_eta - g / (cn * dn)
    if not ok:
        raise EtaSolveError(
            "eta solve failure: Newton did not converge",
            diagnostics={"two_eta": complex(two_eta),
                         "residual": abs(complex(g))})

    eta = two_eta / 2
    if abs(ctx.re(eta)) > 1e-9 * max(1.0, abs(ctx.im(eta))):
        raise EtaSolveError(
            "eta solve failure: solution not purely imaginary",
            diagnostics={"eta": complex(eta)})
    eta = i * ctx.im(eta)  # snap the rounding dust off the real part
    h = ctx.im(eta)
    if not (0 <= h <= Kp / 2 * (1 + 1e-12)):
        raise EtaSolveError(
            "eta solve failure: outside the strip [0, i K'/2]",
            diagnostics={"eta": complex(eta), "K_prime": float(Kp)})

    return EllipticFrame(
        modulus=modulus, K=K, K_prime=Kp, eta=eta,
        eta_tilde=i * Kp / 2 - eta, eta_iso=i * Kp / 4,
        kernel=kern, prec=prec)


def couplings_from_modulus(k, eta_fraction, L, M,
                           prec: Precision = FLOAT64) -> Couplings:
    """System with prescribed modulus and anisotropy.

    ``eta_fraction`` scales the isotropic point: eta = fraction * i K'/4,
    so fraction 1 is the isotropic system and fraction 2 puts eta at the
    upper end i K'/2 of its strip.
    """
    prec = as_precision(prec)
    ctx = prec.ctx
    if not 0 < eta_fraction <= 2:
        raise DomainError("eta_fraction must lie in (0, 2]")
    k = ctx.mpf(k)
    if is_critical(k):
        raise CriticalModulusError(
            "critical modulus has no anisotropy parametrization")
    kern = get_kernel(k, prec)
    eta = ctx.mpc(0, 1) * ctx.mpf(eta_fraction) * kern.K_prime / 4
    s = ctx.im(kern.sncndn(2 * eta)[0])
    if not s > 0:
        raise DomainError("eta does not correspond to positive couplings")

    def arsinh(x):
        return ctx.log(x + ctx.sqrt(x * x + 1))

    K_v = arsinh(1 / s) / 2
    K_h = arsinh(k * s) / 2
    return Couplings(K_h=float(K_h), K_v=float(K_v), L=int(L), M=int(M))
