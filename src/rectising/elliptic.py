"""Complex-capable Jacobi elliptic kernel.

Provides amplitudes, sn/cn/dn, the full Glaisher two-letter family,
complete and incomplete integrals of the first kind, the inverse of dn on
its two relevant branches, and period-lattice reduction.

Algorithms
----------
* real-argument sn/cn/dn and the continuous real amplitude come from the
  descending Landen transformation seeded by an arithmetic-geometric-mean
  chain (cached per modulus),
* complex arguments split u = x + iy and combine real evaluations at the
  modulus and its complement through the sn addition formulas,
* incomplete integrals use the Carlson symmetric form RF with the standard
  duplication iteration, which is well behaved for complex amplitudes,
* moduli k > 1 route through the reciprocal modulus; the exposed quarter
  period is then the real part of the analytically continued one.

Branch convention for the complex amplitude: the argument is first reduced
by full periods (each adding a fixed winding), then by imaginary
half-periods (each reflecting the amplitude about pi/2), and the remaining
core value is pinned to the continuous real-axis amplitude on its
horizontal line.  Identity tests are the arbiter of this choice.

All operations are pure; the module-level kernel cache is a benign
idempotent memo (concurrent misses at worst rebuild an identical kernel).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BranchMissError, CriticalModulusError, DomainError, PoleError
from .precision import FLOAT64, Precision, as_precision

#: proximity radius around simple poles; callers get a typed signal inside it
POLE_TOL = 1e-12

#: |k - 1| below this counts as the critical modulus (`is_critical`)
CRITICAL_TOL = 1e-12

_KERNELS: dict = {}


def is_critical(k) -> bool:
    return abs(k - 1) < CRITICAL_TOL


def _nint(ctx, x):
    """Nearest integer of a real ctx scalar (half-up), as Python int."""
    return int(ctx.floor(x + ctx.mpf("0.5")))


# ----------------------------------------------------------------------
# Carlson symmetric integral RF
# ----------------------------------------------------------------------

def carlson_rf(x, y, z, prec: Precision = FLOAT64):
    """Carlson's symmetric elliptic integral of the first kind.

    Accepts complex arguments off the negative real axis; the duplication
    iteration converges linearly and the sixth-order tail keeps the result
    at working precision.
    """
    ctx = prec.ctx
    x, y, z = ctx.mpc(x), ctx.mpc(y), ctx.mpc(z)
    errtol = (ctx.mpf(6) * prec.eps) ** (1.0 / 6.0)
    third = ctx.mpf(1) / 3
    for _ in range(200):
        sx, sy, sz = ctx.sqrt(x), ctx.sqrt(y), ctx.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
        ave = (x + y + z) * third
        if abs(ave) == 0:
            break
        delx = (ave - x) / ave
        dely = (ave - y) / ave
        delz = (ave - z) / ave
        if max(abs(delx), abs(dely), abs(delz)) < errtol:
            e2 = delx * dely - delz * delz
            e3 = delx * dely * delz
            s = 1 + (e2 / 24 - ctx.mpf("0.1") - 3 * e3 / 44) * e2 + e3 / 14
            return s / ctx.sqrt(ave)
    raise ArithmeticError("carlson_rf did not converge")


# ----------------------------------------------------------------------
# modulus bookkeeping
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Modulus:
    """Validated elliptic modulus with its complement and phase class."""

    k: object
    k_prime: object          # imaginary above the transition
    phase_flag: str          # 'disordered' | 'critical' | 'ordered'

    @staticmethod
    def create(k, prec: Precision = FLOAT64) -> "Modulus":
        ctx = prec.ctx
        k = ctx.mpf(k)
        if not k > 0:
            raise DomainError(f"modulus must be positive, got {k}")
        if is_critical(k):
            return Modulus(k, ctx.mpf(0), "critical")
        if k < 1:
            return Modulus(k, ctx.sqrt(1 - k * k), "disordered")
        return Modulus(k, ctx.mpc(0, 1) * ctx.sqrt(k * k - 1), "ordered")


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------

class EllipticKernel:
    """Jacobi function engine at one fixed modulus and precision.

    The Landen/AGM chain is precomputed once; every evaluation reuses it.
    All methods are pure; instances are safe to share across threads.
    """

    def __init__(self, k, prec: Precision = FLOAT64):
        prec = as_precision(prec)
        ctx = prec.ctx
        self.prec = prec
        self.ctx = ctx
        self.modulus = Modulus.create(k, prec)
        if self.modulus.phase_flag == "critical":
            raise CriticalModulusError("critical modulus: K diverges")
        self.k = self.modulus.k
        self.ordered = self.modulus.phase_flag == "ordered"
        #: modulus actually fed to the Landen machinery (always < 1)
        self.kappa = 1 / self.k if self.ordered else self.k
        # the stable product form keeps the complement away from 1 even for
        # tiny moduli, where 1 - kappa^2 rounds to 1
        self.kappa_prime = ctx.sqrt((1 - self.kappa) * (1 + self.kappa))
        self._chain = self._landen_chain(self.kappa, self.kappa_prime)
        self._chain_c = self._landen_chain(self.kappa_prime, self.kappa)
        base_K = self._complete(self._chain)
        base_Kp = self._complete(self._chain_c)
        if self.ordered:
            self.K = self.kappa * base_K
            self.K_prime = self.kappa * base_Kp
        else:
            self.K = base_K
            self.K_prime = base_Kp

    # -- chain ----------------------------------------------------------
    def _landen_chain(self, kk, kkp):
        """Descending chain (a_n, b_n, c_n) seeded by the AGM of (1, k')."""
        ctx = self.ctx
        a = ctx.mpf(1)
        b = ctx.mpf(kkp)
        c = kk
        chain = [(a, b, c)]
        for _ in range(80):
            a, b, c = (a + b) / 2, ctx.sqrt(a * b), (a - b) / 2
            chain.append((a, b, c))
            if abs(c) <= self.prec.eps * abs(a):
                break
        else:
            raise ArithmeticError("Landen chain did not converge")
        return chain

    def _complete(self, chain):
        ctx = self.ctx
        return ctx.pi / (2 * chain[-1][0])

    # -- real argument ---------------------------------------------------
    def _phase_real(self, x, chain):
        """Backward Landen phase recursion; returns the continuous amplitude."""
        ctx = self.ctx
        n = len(chain) - 1
        phi = (2 ** n) * chain[n][0] * x
        for j in range(n, 0, -1):
            a, _b, c = chain[j]
            s = (c / a) * ctx.sin(phi)
            if s > 1:
                s = ctx.mpf(1)
            elif s < -1:
                s = ctx.mpf(-1)
            phi = (phi + ctx.asin(s)) / 2
        return phi

    def _sncndn_base(self, x, chain, kk):
        """sn, cn, dn at real x for the base modulus of `chain` (< 1)."""
        ctx = self.ctx
        phi0 = self._phase_real(x, chain)
        sn = ctx.sin(phi0)
        cn = ctx.cos(phi0)
        dn = ctx.sqrt(1 - (kk * sn) ** 2)
        return sn, cn, dn

    def am_real(self, x):
        """Continuous real-axis amplitude.

        Below the transition this winds by 2 pi per full period; above it
        the amplitude librates and stays in (-pi/2, pi/2).
        """
        ctx = self.ctx
        x = ctx.mpf(x)
        if not self.ordered:
            return self._phase_real(x, self._chain)
        sn, cn, _dn = self.sncndn(x)
        return ctx.asin(sn) if cn >= 0 else ctx.pi - ctx.asin(sn)

    def _sncndn_base_c(self, y):
        """Base-complement triple used by the complex split."""
        return self._sncndn_base(y, self._chain_c, self.kappa_prime)

    # -- complex argument --------------------------------------------------
    def sncndn(self, u):
        """sn, cn, dn at complex u; raises PoleError within POLE_TOL of
        the common pole lattice."""
        ctx = self.ctx
        u = ctx.mpc(u)
        if self.ordered:
            s, c, d = self._sncndn_split(u / self.kappa)
            return self.kappa * s, d, c
        return self._sncndn_split(u)

    def _sncndn_split(self, u):
        """Addition-formula split at the base modulus (< 1)."""
        ctx = self.ctx
        x, y = ctx.re(u), ctx.im(u)
        if y == 0:
            return self._sncndn_base(x, self._chain, self.kappa)
        s, c, d = self._sncndn_base(x, self._chain, self.kappa)
        s1, c1, d1 = self._sncndn_base_c(y)
        kk2 = self.kappa * self.kappa
        den = c1 * c1 + kk2 * (s * s1) ** 2
        if abs(den) < POLE_TOL * POLE_TOL:
            raise PoleError("pole of sn: u on the i K' lattice", where=complex(u))
        i = ctx.mpc(0, 1)
        sn = (s * d1 + i * c * d * s1 * c1) / den
        cn = (c * c1 - i * s * d * s1 * d1) / den
        dn = (d * c1 * d1 - i * kk2 * s * c * s1) / den
        return sn, cn, dn

    # -- amplitude ----------------------------------------------------------
    def am(self, u):
        """Complex Jacobi amplitude with the documented branch convention."""
        ctx = self.ctx
        u = ctx.mpc(u)
        x, y = ctx.re(u), ctx.im(u)
        if y == 0:
            return ctx.mpc(self.am_real(x))
        K, Kp = self.K, self.K_prime
        # imaginary half-period reflections: am(v + 2iK') = pi - am(v)
        n2 = _nint(ctx, y / (2 * Kp))
        v = ctx.mpc(x, y - 2 * Kp * n2)
        inner = self._am_strip(v)
        if n2 % 2:
            return ctx.pi - inner
        return inner

    def _am_strip(self, v):
        """Amplitude for Im v in [-K', K']; winds with the real period."""
        ctx = self.ctx
        x, y = ctx.re(v), ctx.im(v)
        winding = 0 if self.ordered else 1
        m = _nint(ctx, x / (4 * self.K))
        x0 = x - 4 * self.K * m
        core = self._am_core(ctx.mpc(x0, y))
        return core + 2 * ctx.pi * winding * m

    def _am_core(self, v):
        """Principal-log amplitude pinned to the real-axis branch."""
        ctx = self.ctx
        x0, y = ctx.re(v), ctx.im(v)
        if y == 0:
            return ctx.mpc(self.am_real(x0))
        sn, cn, _dn = self.sncndn(v)
        w = cn + ctx.mpc(0, 1) * sn
        c = ctx.mpc(0, -1) * ctx.log(w)
        anchor = self.am_real(x0)
        c += 2 * ctx.pi * _nint(ctx, (anchor - ctx.re(c)) / (2 * ctx.pi))
        return c

    # -- lattice reduction ---------------------------------------------------
    def reduce(self, u):
        """Representative of u with Re in [-K, K), Im in [-K', K').

        Returns (u_reduced, sign_sn, sign_cn, sign_dn): the signs restore the
        original function values after the half-period shifts,
        f(u) = sign_f * f(u_reduced).
        """
        ctx = self.ctx
        u = ctx.mpc(u)
        K, Kp = self.K, self.K_prime
        m = int(ctx.floor((ctx.re(u) + K) / (2 * K)))
        n = int(ctx.floor((ctx.im(u) + Kp) / (2 * Kp)))
        red = u - ctx.mpc(2 * K * m, 2 * Kp * n)
        s_sn = -1 if m % 2 else 1
        s_dn = -1 if n % 2 else 1
        s_cn = s_sn * s_dn
        return red, s_sn, s_cn, s_dn


def get_kernel(k, prec: Precision = FLOAT64) -> EllipticKernel:
    """Cached kernel lookup; construction costs one AGM chain."""
    prec = as_precision(prec)
    key = (repr(k), prec.bits)
    kern = _KERNELS.get(key)
    if kern is None:
        kern = EllipticKernel(k, prec)
        _KERNELS[key] = kern
    return kern


# ----------------------------------------------------------------------
# operation surface
# ----------------------------------------------------------------------

def complete_integrals(k, prec: Precision = FLOAT64):
    """Quarter periods (K, K') for modulus k > 0, k != 1.

    Above the transition both are the standard reciprocal-modulus real
    parts, keeping the periodicity rectangle un-tilted.
    """
    kern = get_kernel(k, prec)
    return kern.K, kern.K_prime


def incomplete_F(phi, k, prec: Precision = FLOAT64):
    """Incomplete elliptic integral of the first kind, complex amplitude.

    Arguments outside the principal strip reduce through the
    quasi-periodicity F(phi + pi) = F(phi) + 2K.
    """
    prec = as_precision(prec)
    ctx = prec.ctx
    k = ctx.mpf(k)
    if not (0 < k < 1):
        raise DomainError("incomplete_F requires modulus in (0, 1)")
    phi = ctx.mpc(phi)
    kern = get_kernel(k, prec)
    n = _nint(ctx, ctx.re(phi) / ctx.pi)
    phi0 = phi - n * ctx.pi
    s = ctx.sin(phi0)
    val = s * carlson_rf(ctx.cos(phi0) ** 2, 1 - (k * s) ** 2, 1, prec)
    return val + 2 * n * kern.K


def amplitude(u, k, prec: Precision = FLOAT64):
    """Jacobi amplitude am(u, k), continuous along the real axis with
    am(0) = 0 and am(K) = pi/2."""
    return get_kernel(k, prec).am(u)


def jacobi_sncndn(u, k, prec: Precision = FLOAT64):
    """The triple (sn, cn, dn) at complex u."""
    return get_kernel(k, prec).sncndn(u)


_LETTERS = ("s", "c", "d", "n")


def glaisher(p, q, u, k, prec: Precision = FLOAT64):
    """Two-letter Jacobi function pq(u, k) = pr(u)/qr(u) = 1/qp(u)."""
    if p not in _LETTERS or q not in _LETTERS:
        raise DomainError(f"letters must be among {_LETTERS}, got {p!r}{q!r}")
    if p == q:
        return as_precision(prec).ctx.mpc(1)
    sn, cn, dn = jacobi_sncndn(u, k, prec)
    one = as_precision(prec).ctx.mpc(1)
    vals = {"s": sn, "c": cn, "d": dn, "n": one}
    num, den = vals[p], vals[q]
    if abs(den) < POLE_TOL:
        raise PoleError(f"pole of {p}{q} at u = {u}", where=u)
    return num / den


def arcsn(s, k, prec: Precision = FLOAT64):
    """The u near the origin with sn(u, k) = s, in Carlson form."""
    s2 = s * s
    return s * carlson_rf(1 - s2, 1 - k * k * s2, 1, prec)


def invert_dn(w, k, branch="real_axis", prec: Precision = FLOAT64):
    """Inverse of dn on one of its two physically relevant branches.

    ``real_axis`` solves on the segment [0, K]; ``shifted_iKprime`` on its
    shift [0, K] + iK'.  The result is always verified by a forward
    evaluation; on failure both branch candidates are reported.
    """
    prec = as_precision(prec)
    ctx = prec.ctx
    kern = get_kernel(k, prec)
    k = kern.k
    w = ctx.mpc(w)
    if branch not in ("real_axis", "shifted_iKprime"):
        raise DomainError(f"unknown branch {branch!r}")

    K, Kp = kern.K, kern.K_prime
    shift = ctx.mpc(0, 1) * Kp if branch == "shifted_iKprime" else 0
    if branch == "real_axis":
        base = arcsn(ctx.sqrt((1 - w * w) / (k * k)), k, prec)
    else:
        base = arcsn(ctx.sqrt(1 / (1 - w * w)), k, prec)

    tol = 1e-11 * max(1.0, abs(w))
    slack = 1e-7 * float(Kp)

    def on_branch(u):
        return (abs(ctx.im(u - shift)) <= slack
                and -slack <= ctx.re(u) <= float(K) + slack)

    verified = []
    for cand in (base + shift, -base + shift, 2 * K - base + shift,
                 ctx.conj(base) + shift):
        try:
            dn = kern.sncndn(cand)[2]
        except PoleError:
            continue
        if abs(dn - w) <= tol:
            verified.append(cand)
            if on_branch(cand):
                return cand
    raise BranchMissError(
        f"no inverse of dn = {w} on branch {branch}", candidates=verified)


def reduce_to_fundamental(u, frame):
    """Reduce u into the rectangle [-K, K) x [-K', K') of ``frame``.

    ``frame`` is anything exposing a kernel-compatible ``reduce`` (an
    EllipticKernel or a params.EllipticFrame).  Half-period shifts flip
    signs of individual Jacobi functions; the reduced point reproduces
    them up to those documented signs.
    """
    kern = getattr(frame, "kernel", frame)
    red, _ss, _sc, _sd = kern.reduce(u)
    return red
