"""Complex-capable Jacobi elliptic kernel.

Provides amplitudes, sn/cn/dn, the complete and incomplete integrals of
the first kind, and the inverse of sn near the origin.

Algorithms
----------
* real-argument sn/cn/dn and the continuous real amplitude come from the
  descending Landen transformation seeded by an arithmetic-geometric-mean
  chain, kept per modulus as a_n, 2^n a_n and c_j / a_j in backward order,
* complex arguments split u = x + iy and combine real evaluations at the
  modulus and its complement through the sn addition formulas (in
  binary64 also over numpy arrays of nodes x_j + i y_j),
* incomplete integrals use the Carlson symmetric form RF with the standard
  duplication iteration, which is well behaved for complex amplitudes,
* moduli k > 1 route through the reciprocal modulus; the exposed quarter
  period is then the real part of the analytically continued one,
* scalar operations call the functions `_scalar_fns` binds per precision:
  in binary64 `math`, `cmath` and the float and complex types, which
  ``mpmath.fp`` would dispatch to, so the floats are the same.

Branch convention for the complex amplitude: the argument is first reduced
by full periods (each adding a fixed winding), then by imaginary
half-periods (each reflecting the amplitude about pi/2), and the remaining
core value is pinned to the continuous real-axis amplitude on its
horizontal line.  Identity tests are the arbiter of this choice.

All operations are pure; the module-level kernel cache is a benign
idempotent memo (concurrent misses at worst rebuild an identical kernel).
"""

from __future__ import annotations

import cmath
import functools
import math
from types import SimpleNamespace

import numpy as np

from .errors import CriticalModulusError, DomainError, PoleError
from .precision import FLOAT64, Precision, as_precision

#: proximity radius around simple poles; callers get a typed signal inside it
POLE_TOL = 1e-12

#: |k - 1| below this counts as the critical modulus (`is_critical`)
CRITICAL_TOL = 1e-12

_KERNELS: dict = {}


def is_critical(k) -> bool:
    return abs(k - 1) < CRITICAL_TOL


def any_true(flags) -> bool:
    """Outcome of a comparison on a scalar, or on any entry of an array."""
    return flags if isinstance(flags, bool) else bool(flags.any())


def _nint(floor, x):
    """Nearest integer (half-up) of a real scalar by ``floor``, as int."""
    return int(floor(x + 0.5))


@functools.cache
def _scalar_fns(prec: Precision) -> SimpleNamespace:
    """Constructors, pi and elementary functions at ``prec``, of complex
    numbers with a ``c`` in front (``csqrt``): the float and complex
    types, `math` and `cmath` in binary64, else the context's own."""
    if prec.is_float:
        real, cplx, mpf, mpc = math, cmath, float, complex
    else:
        real = cplx = prec.ctx
        mpf, mpc = real.mpf, real.mpc
    names = ("sqrt", "exp", "log", "sin", "cos", "tan", "asin", "acos",
             "sinh", "cosh", "tanh")
    return SimpleNamespace(mpf=mpf, mpc=mpc, pi=real.pi, floor=real.floor,
                           **{f: getattr(real, f) for f in names},
                           **{"c" + f: getattr(cplx, f) for f in names})


# ----------------------------------------------------------------------
# Carlson symmetric integral RF
# ----------------------------------------------------------------------

def carlson_rf(x, y, z, prec: Precision = FLOAT64):
    """Carlson's symmetric elliptic integral of the first kind.

    Accepts complex arguments off the negative real axis; the duplication
    iteration converges linearly and the sixth-order tail keeps the result
    at working precision.
    """
    fn = _scalar_fns(prec)
    mpc, sqrt = fn.mpc, fn.csqrt
    x, y, z = mpc(x), mpc(y), mpc(z)
    errtol = (fn.mpf(6) * prec.eps) ** (1.0 / 6.0)
    third = fn.mpf(1) / 3
    for _ in range(200):
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
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
            s = 1 + (e2 / 24 - fn.mpf("0.1") - 3 * e3 / 44) * e2 + e3 / 14
            return s / sqrt(ave)
    raise ArithmeticError("carlson_rf did not converge")


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
        self.prec = prec
        self.ctx = prec.ctx
        self._fn = fn = _scalar_fns(prec)
        self.k = k = fn.mpf(k)
        if not k > 0:
            raise DomainError(f"modulus must be positive, got {k}")
        if is_critical(k):
            raise CriticalModulusError("critical modulus: K diverges")
        self.ordered = k > 1
        #: modulus actually fed to the Landen machinery (always < 1)
        self.kappa = 1 / self.k if self.ordered else self.k
        # the stable product form keeps the complement away from 1 even for
        # tiny moduli, where 1 - kappa^2 rounds to 1
        self.kappa_prime = fn.sqrt((1 - self.kappa) * (1 + self.kappa))
        self._chain = self._landen_chain(self.kappa_prime)
        self._chain_c = self._landen_chain(self.kappa)
        scale = self.kappa if self.ordered else 1
        self.K = scale * self._complete(self._chain)
        self.K_prime = scale * self._complete(self._chain_c)

    # -- chain ----------------------------------------------------------
    def _landen_chain(self, kkp):
        """Descending chain seeded by the AGM of (1, k') as the table
        (a_n, 2^n a_n, [c_j / a_j for j = n, ..., 1])."""
        fn = self._fn
        a, b = fn.mpf(1), fn.mpf(kkp)
        ratios = []
        for _ in range(80):
            a, b, c = (a + b) / 2, fn.sqrt(a * b), (a - b) / 2
            ratios.append(c / a)
            if abs(c) <= self.prec.eps * abs(a):
                break
        else:
            raise ArithmeticError("Landen chain did not converge")
        return a, (2 ** len(ratios)) * a, ratios[::-1]

    def _complete(self, chain):
        return self._fn.pi / (2 * chain[0])

    # -- real argument ---------------------------------------------------
    def _phase_real(self, x, chain):
        """Backward Landen phase recursion, unclamped (|c_n / a_n| <= 1
        after rounding); returns the continuous amplitude."""
        sin, asin = self._fn.sin, self._fn.asin
        _a, start, ratios = chain
        phi = start * x
        for r in ratios:
            phi = (phi + asin(r * sin(phi))) / 2
        return phi

    def _sncndn_base(self, x, chain, kk):
        """(sn, cn, dn) and their phase at real x, base modulus < 1."""
        fn, phi = self._fn, self._phase_real(x, chain)
        sn = fn.sin(phi)
        return (sn, fn.cos(phi), fn.sqrt(1 - (kk * sn) ** 2)), phi

    def _anchor(self, phi):
        """`am_real` from the base phase of `_sncndn_phase`; above the
        transition cn(x, k) = dn(k x, 1/k) > 0 puts it on asin's branch."""
        fn = self._fn
        return fn.asin(self.kappa * fn.sin(phi)) if self.ordered else phi

    def am_real(self, x):
        """Continuous real-axis amplitude.

        Below the transition this winds by 2 pi per full period; above it
        the amplitude librates and stays in (-pi/2, pi/2).
        """
        u = self._fn.mpc(x)
        u = u / self.kappa if self.ordered else u
        return self._anchor(self._phase_real(u.real, self._chain))

    # -- complex argument --------------------------------------------------
    def sncndn(self, u):
        """sn, cn, dn at complex u; raises PoleError within POLE_TOL of
        the common pole lattice."""
        return self._sncndn_phase(self._fn.mpc(u))[0]

    def _sncndn_phase(self, u):
        """`sncndn` at complex u, split at the base modulus, and its phase."""
        v = u / self.kappa if self.ordered else u
        (s, c, d), phi = self._sncndn_base(v.real, self._chain, self.kappa)
        if v.imag != 0:
            s, c, d = self._add_imaginary((s, c, d), self._sncndn_base(
                v.imag, self._chain_c, self.kappa_prime)[0], (u.real, u.imag))
        return ((self.kappa * s, d, c) if self.ordered else (s, c, d)), phi

    def sncndn_line(self, xs, y, rows=False):
        """Binary64 sn, cn, dn as arrays at the nodes x + iy, where ``y``
        is one level (a horizontal line), an array that broadcasts
        against ``xs``, or with ``rows`` a sequence of levels, one row of
        nodes each: one numpy Landen pass over ``xs`` serves every level,
        each level takes the scalar complement triple (an array ``y`` a
        numpy pass of its own), combined as in `sncndn`; PoleError if any
        node is a pole."""
        if not self.prec.is_float:
            raise DomainError("sncndn_line is binary64 only")
        xs = np.asarray(xs, dtype=float)
        if rows:
            y = np.array(y, dtype=float)[:, None]
        elif np.ndim(y):
            y = np.asarray(y, dtype=float)
        xb, yb = (xs / self.kappa, y / self.kappa) if self.ordered else (xs, y)
        chain, kk = self._chain_c, self.kappa_prime
        if rows:        # the scalar triple of each level, as columns
            comp = [np.array(f)[:, None] for f in zip(*(
                self._sncndn_base(v, chain, kk)[0] for v in yb[:, 0].tolist()))]
        elif isinstance(yb, np.ndarray):
            comp = self._base_line(yb, chain, kk)
        else:
            comp = self._sncndn_base(yb, chain, kk)[0]
        s, c, d = self._add_imaginary(
            self._base_line(xb, self._chain, self.kappa), comp, (xs, y))
        return (self.kappa * s, d, c) if self.ordered else (s, c, d)

    @staticmethod
    def _base_line(xs, chain, kk):
        """The triple of `_sncndn_base` over a real array."""
        _a, start, ratios = chain
        phi = start * xs
        for r in ratios:
            phi = (phi + np.arcsin(r * np.sin(phi))) / 2
        sn = np.sin(phi)
        return sn, np.cos(phi), np.sqrt(1 - (kk * sn) ** 2)

    def _add_imaginary(self, triple, comp, at):
        """The base-modulus triple at x + iy from the base triple at real x
        and the complement triple ``comp`` at y (scalars or arrays); ``at``
        is the caller's (x, y), which names a pole."""
        s, c, d = triple
        s1, c1, d1 = comp
        x, y = at
        kk2 = self.kappa * self.kappa
        den = c1 * c1 + kk2 * (s * s1) ** 2
        if any_true(abs(den) < POLE_TOL * POLE_TOL):
            if isinstance(den, np.ndarray):
                x, y = (np.broadcast_to(v, den.shape).flat[np.argmin(den)]
                        for v in (x, y))
            raise PoleError("pole of sn: u on the i K' lattice",
                            where=complex(x, y))
        # real and imaginary parts divided apart: numpy would divide a
        # complex array by a real one through its reciprocal
        i = self._fn.mpc(0, 1)
        sn = s * d1 / den + i * (c * d * s1 * c1 / den)
        cn = c * c1 / den - i * (s * d * s1 * d1 / den)
        dn = d * c1 * d1 / den - i * (kk2 * s * c * s1 / den)
        return sn, cn, dn

    # -- amplitude ----------------------------------------------------------
    def am(self, u, known=None):
        """Complex Jacobi amplitude with the documented branch convention;
        ``known`` = (v, `sncndn(v)`) replaces the evaluation at v (binary64
        `sncndn_line` may round that triple differently)."""
        fn = self._fn
        u = fn.mpc(u)
        x, y = u.real, u.imag
        if y == 0:
            return fn.mpc(self.am_real(x))
        # imaginary half-period reflections, am(v + 2iK') = pi - am(v), to
        # Im v in [-K', K']; there the amplitude winds with the real period
        n2 = _nint(fn.floor, y / (2 * self.K_prime))
        m = _nint(fn.floor, x / (4 * self.K))
        v = fn.mpc(x - 4 * self.K * m, y - 2 * self.K_prime * n2)
        winding = 0 if self.ordered else 1
        inner = self._am_core(v, known) + 2 * fn.pi * winding * m
        return fn.pi - inner if n2 % 2 else inner

    def _am_core(self, v, known):
        """Principal-log amplitude pinned to the real-axis branch, whose
        anchor comes from the Landen pass of the evaluation at v; raises
        PoleError where cn + i sn, whose log it takes, comes out 0."""
        fn = self._fn
        x0, y = v.real, v.imag
        if y == 0:
            return fn.mpc(self.am_real(x0))
        if known is not None and v == known[0]:
            (sn, cn, _dn), anchor = known[1], self.am_real(x0)
        else:
            (sn, cn, _dn), phi = self._sncndn_phase(v)
            anchor = self._anchor(phi)
        e_i_am = cn + fn.mpc(0, 1) * sn
        if not e_i_am:
            raise PoleError("log singularity of am: cn + i sn = 0",
                            where=complex(v))
        c = fn.mpc(0, -1) * fn.clog(e_i_am)
        c += 2 * fn.pi * _nint(fn.floor, (anchor - c.real) / (2 * fn.pi))
        return c


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

def incomplete_F(phi, k, prec: Precision = FLOAT64):
    """Incomplete elliptic integral of the first kind, complex amplitude.

    Arguments outside the principal strip reduce through the
    quasi-periodicity F(phi + pi) = F(phi) + 2K.
    """
    prec = as_precision(prec)
    fn = _scalar_fns(prec)
    k = fn.mpf(k)
    if not (0 < k < 1):
        raise DomainError("incomplete_F requires modulus in (0, 1)")
    phi = fn.mpc(phi)
    kern = get_kernel(k, prec)
    n = _nint(fn.floor, phi.real / fn.pi)
    phi0 = phi - n * fn.pi
    s = fn.csin(phi0)
    val = s * carlson_rf(fn.ccos(phi0) ** 2, 1 - (k * s) ** 2, 1, prec)
    return val + 2 * n * kern.K


def arcsn(s, k, prec: Precision = FLOAT64):
    """The u near the origin with sn(u, k) = s, in Carlson form."""
    s2 = s * s
    return s * carlson_rf(1 - s2, 1 - k * k * s2, 1, prec)
