"""Transfer-matrix family and its joint spectrum.

Builds the four real symmetric M x M matrices (the tridiagonal half-sum,
the anti-tridiagonal half-difference, the transfer matrix itself and the
shifted tridiagonal core), diagonalizes them on a common eigenbasis, and
maps every eigenvalue to its angles on the u-torus.

The closed characteristic-polynomial forms are evaluated branch-free: a
consistent Jacobi triple is reconstructed algebraically from the argument,
and all trigonometric factors reduce to integer powers of the unimodular
vertical eigenvalue.
"""

from __future__ import annotations

import decimal
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

import numpy as np

from .elliptic import _scalar_fns, any_true, arcsn
from .errors import DomainError, JointDiagonalizationError, PoleError
from .params import (
    Couplings,
    EllipticFrame,
    Weights,
    elliptic_frame,
    weights_from_couplings,
)
from .precision import FLOAT64, Precision, as_precision

#: joint-diagonalization residual tolerance (relative to matrix scale)
JOINT_TOL = 1e-9

#: branch tolerance of a spectrum point's zeta and torus point, any phi
BRANCH_TOL = 1e-9

#: largest move of a refined core eigenvalue from its binary64 seed,
#: relative to the scale of the core matrix
SEED_TOL = 1e-12

#: Rayleigh-quotient steps allowed per refined eigenpair
RQI_MAX_STEPS = 8


# ----------------------------------------------------------------------
# matrix construction
# ----------------------------------------------------------------------

@dataclass
class MatrixBundle:
    """The four symmetric matrices of one system.

    ``core_bands`` (the tridiagonal core's diagonal and off-diagonal) and
    ``minus_bands`` (T_minus's anti-bands i + j = M - 1, M - 2, each from
    i = 0, and M, from i = 1) are lists of context scalars, usable at any
    precision.  ``family`` stacks T, T_plus, T_minus and C in read-only
    binary64, once per bundle; the uppercase attributes are its blocks.
    """

    M: int
    minus_bands: tuple
    core_bands: tuple
    prec: Precision
    family: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)
    T_plus: np.ndarray = field(repr=False)
    T_minus: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)


def build_matrices(w: Weights, M: int) -> MatrixBundle:
    """Assemble the transfer-matrix family for even M >= 2, at the
    precision of ``w``.

    The tridiagonal core carries 2 on the diagonal with the two boundary
    corners shifted by the dual-weight ratios; the anti-tridiagonal part
    carries the dual weights on three anti-bands.  Only the O(M) band
    entries are formed; every entry off them is the value a dense sum
    gives there (a signed zero in binary64).  Symmetry is exact by
    construction.
    """
    if M < 2 or M % 2:
        raise DomainError("matrix construction requires even M >= 2")
    prec, ctx = w.prec, w.prec.ctx
    zero, one = ctx.mpf(0), ctx.mpf(1)
    ts, zs = w.t_star, w.z_star
    tzm = w.t_minus * w.z_minus
    pref = -tzm / 2
    shift = w.t_plus * w.z_plus + tzm

    diag = [ctx.mpf(2)] * M
    diag[0], diag[M - 1] = 2 + ts / zs, 2 + ts * zs
    # anti-bands i + j = M - 1 (interior -2 t*_plus, corners -1/t*),
    # M - 2 (z*) and M (1/z*), from i = 0, 0 and 1
    main = [-2 * ((ts + 1 / ts) / 2)] * M
    main[0] = main[M - 1] = -1 / ts
    bands = tuple([pref * x for x in band]
                  for band in (main, [zs] * (M - 1), [1 / zs] * (M - 1)))

    family = np.empty((4, M, M))
    # entry (i, j) of a flat row is i M + j: a diagonal steps by M + 1, an
    # anti-diagonal by M - 1.  The core, and T_plus = pref C + shift I
    T, Tp, Tm, C = family.reshape(4, M * M)
    for a, fill, d, off in ((C, zero, diag, one),
                            (Tp, pref * zero + zero,
                             [pref * x + shift for x in diag],
                             pref * one + zero)):
        a.fill(float(fill))
        a[::M + 1] = d
        a[1::M + 1] = a[M::M + 1] = float(off)
    Tm.fill(float(pref * zero))
    for start, band in zip((M - 1, M - 2, 2 * M - 1), bands):
        Tm[start::M - 1][:len(band)] = band
    np.add(Tp, Tm, out=T)
    family.flags.writeable = False
    return MatrixBundle(M, bands, (diag, [one] * (M - 1)), prec,
                        family.reshape(4 * M, M), *family)


# ----------------------------------------------------------------------
# joint diagonalization
# ----------------------------------------------------------------------

def _anti_quotients(bands, V):
    """v^T A v for every row v of the array ``V`` (binary64, or Decimals
    in the current context), where A is symmetric with the three
    anti-bands ``bands`` of `MatrixBundle.minus_bands`."""
    main, low, high = bands
    R = V[:, ::-1]                   # R[:, i] = V[:, M - 1 - i]
    return ((V * R) @ main + (V[:, :-1] * R[:, 1:]) @ low
            + (V[:, 1:] * R[:, :-1]) @ high)


def _tridiag_solve(d, e, sigma, b, tiny):
    """Solve (T - sigma I) y = b for the symmetric tridiagonal T with
    diagonal d and off-diagonal e, by Gaussian elimination with partial
    pivoting (row swaps fill a second superdiagonal).  A zero pivot is
    replaced by ``tiny``, as inverse iteration allows."""
    n = len(d)
    piv = [x - sigma for x in d]
    up = list(e) + [0]
    up2 = [0] * n
    y = list(b)
    for i in range(n - 1):
        low = e[i]
        if abs(piv[i]) >= abs(low):
            if low:
                f = low / piv[i]
                piv[i + 1] -= f * up[i]
                y[i + 1] -= f * y[i]
        else:
            f = piv[i] / low
            mid, right = piv[i + 1], up[i + 1]
            piv[i + 1] = up[i] - f * mid
            up[i + 1] = -f * right
            piv[i], up[i], up2[i] = low, mid, right
            y[i], y[i + 1] = y[i + 1], y[i] - f * y[i + 1]
    for i in range(n - 1, -1, -1):
        s = y[i]
        if i + 1 < n:
            s -= up[i] * y[i + 1]
        if i + 2 < n:
            s -= up2[i] * y[i + 2]
        y[i] = s / (piv[i] or tiny)
    return y


def _tridiag_rayleigh(d, e, v):
    """v^T T v for the symmetric tridiagonal T and a unit vector v."""
    return (sum(map(mul, d, map(mul, v, v)))
            + 2 * sum(map(mul, e, map(mul, v, v[1:]))))


def _core_eig(bundle: MatrixBundle, w: Weights, prec: Precision):
    """Eigenpairs of the family at the working precision: chi and
    lambda_plus lists, tied by T_plus = -tzm/2 C + (tzp + tzm) I, and the
    eigenvectors, in binary64 the transposed ``eigh`` matrix (a row is a
    column view of it), at extended precision a list of Decimal tuples.

    Binary64 takes ``eigh`` of the half-sum T_plus.  Extended precision
    refines binary64 ``eigh`` seeds of the tridiagonal core C pair by pair
    by Rayleigh-quotient iteration, one pivoted tridiagonal solve per
    step, so the whole eigensystem costs O(M^2) operations; the iteration
    converges cubically on symmetric tridiagonal matrices.  It runs on
    ``decimal`` at the precision's decimal context (C arithmetic, unit
    roundoff below 2^-bits), and returns Decimals.  A refined pair that
    does not converge, moves from its seed by more than binary64 error, or
    is not orthogonal to its neighbour raises.
    """
    tzp = w.t_plus * w.z_plus
    tzm = w.t_minus * w.z_minus
    try:
        seeds, seed_vecs = np.linalg.eigh(
            bundle.T_plus if prec.is_float else bundle.C)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise JointDiagonalizationError(
            f"eigensolver failed: {exc}") from exc
    if prec.is_float:
        lam_plus = seeds.tolist()
        return ([2 * (tzp + tzm - lp) / tzm for lp in lam_plus], lam_plus,
                seed_vecs.T)
    d, e = bundle.core_bands
    scale = (max(abs(float(x)) for x in d)
             + 2 * max(abs(float(x)) for x in e))     # bounds |C|
    vals, vecs = [], []
    with decimal.localcontext(prec.decimal) as dc:
        d, e = ([prec.to_decimal(x) for x in xs] for xs in (d, e))
        tol = prec.to_decimal(prec.ctx.ldexp(prec.ctx.mpf(scale),
                                             6 - prec.bits))
        for j, column in enumerate(seed_vecs.T.tolist()):
            seed = [dc.create_decimal_from_float(x) for x in column]
            inv = 1 / sum(map(mul, seed, seed)).sqrt()
            v = [x * inv for x in seed]
            chi = _tridiag_rayleigh(d, e, v)
            for _step in range(RQI_MAX_STEPS):
                y = _tridiag_solve(d, e, chi, v, tol)
                if sum(map(mul, y, seed)) < 0:
                    y = [-a for a in y]
                inv = 1 / sum(map(mul, y, y)).sqrt()    # = |(C - old chi) v|
                v = [a * inv for a in y]
                chi = _tridiag_rayleigh(d, e, v)
                if inv <= tol:
                    break
            else:
                raise JointDiagonalizationError(
                    f"eigenpair {j} of the core did not converge in "
                    f"{RQI_MAX_STEPS} Rayleigh-quotient steps")
            if abs(float(chi) - seeds[j]) > SEED_TOL * scale:
                raise JointDiagonalizationError(
                    f"eigenpair {j} of the core moved "
                    f"{float(chi) - seeds[j]:.3e} from its binary64 seed")
            if vecs and abs(sum(map(mul, v, vecs[-1]))) > JOINT_TOL:
                raise JointDiagonalizationError(
                    f"eigenpairs {j - 1} and {j} of the core converged "
                    f"together")
            vals.append(chi)
            vecs.append(tuple(v))
    # the map runs on the mpf weights, as T_plus is built
    return vals, [prec.to_decimal(-tzm / 2 * prec.from_decimal(chi)
                                  + (tzp + tzm)) for chi in vals], vecs


@dataclass
class SpectrumPoint:
    """One eigenvalue with its angles.

    ``lam`` is the positive transfer-matrix eigenvalue.  ``eigvec`` is a
    row of a binary64 array, or a tuple of Decimals at extended
    precision, where the eigenvalues and gamma are Decimals too
    until ``spectrum_for`` makes them context scalars.  Only
    ``spectrum_for`` fills phi, zeta, the Jacobi triple
    (`enrich_spectrum`), u, branch, omega, theta, psi and quant_residual;
    no route reads them.  `exp_theta` and `exp_psi` read
    the context and modulus that `enrich_spectrum` sets with the triple.
    """

    mu: int
    lam: float
    lam_plus: float
    lam_minus: float
    gamma: float
    chi: float
    eigvec: object
    zeta: complex = None
    phi: complex = None
    u: complex = None
    omega: complex = None
    theta: complex = None
    psi: complex = None
    branch: str = None
    quant_residual: float = None
    sn_u: complex = field(default=None, repr=False)
    cn_u: complex = field(default=None, repr=False)
    dn_u: complex = field(default=None, repr=False)
    _binary64: tuple = field(default=None, repr=False)

    def eigvec64(self):
        """``eigvec`` in binary64, converted once per vector object."""
        if self._binary64 is None or self._binary64[0] is not self.eigvec:
            self._binary64 = self.eigvec, np.array(self.eigvec, dtype=float)
        return self._binary64[1]

    def exp_theta(self):
        """e^theta = k sn u cn u / (i dn u), single-valued in the triple."""
        return self._k * self.sn_u * self.cn_u / (self._ctx.mpc(0, 1)
                                                  * self.dn_u)

    def exp_minus_theta(self):
        return 1 / self.exp_theta()

    def exp_psi(self):
        """e^psi = -cot(phi/2), single-valued given the angle branch."""
        ctx = self._ctx
        return -ctx.cos(self.phi / 2) / ctx.sin(self.phi / 2)


def joint_spectrum(bundle: MatrixBundle, w: Weights,
                   prec: Precision | None = None) -> list:
    """Simultaneous spectrum of the transfer-matrix family, unchecked and
    without angles, at any modulus, the critical one included.

    Eigenvectors and lambda_+ come from `_core_eig`; q = v^T T_minus v
    gives lambda_minus its sign, and its size where the root
    sqrt((lambda_+ - 1)(lambda_+ + 1)) is worse conditioned (as an
    ordered-phase edge mode's is, ROADMAP D8): lambda_+^2 / (lambda_+^2 -
    1) against q's |v|^T |T_minus| |v| / |q|.  q is taken at the working
    precision, or in binary64 where its rounding decides neither.  lambda
    is s = lambda_+ + |lambda_minus| or 1/s.  `check_joint` checks the
    cross-residuals against every family member.
    """
    prec = as_precision(prec if prec is not None else bundle.prec)
    chis, lam_plus, vecs = _core_eig(bundle, w, prec)
    V64 = np.array(vecs, dtype=float, order="C")   # its sums round by layout
    bands64 = [np.array(b, dtype=float) for b in bundle.minus_bands]
    size = _anti_quotients([np.abs(b) for b in bands64], np.abs(V64))
    quots = _anti_quotients(bands64, V64)
    pts = []
    if prec.is_float:
        for chi, lp, v, q, a in zip(chis, lam_plus, V64, quots.tolist(),
                                    size.tolist()):
            sq = (lp - 1) * (lp + 1)
            # the root is worse conditioned: lambda_+^2 / sq > a / |q|
            lm = (abs(q) if lp ** 2 * abs(q) > sq * a
                  else math.sqrt(max(sq, 0 * sq)))
            s = lp + lm
            lam, gamma = (s, math.log(s)) if q >= 0 else (1 / s, -math.log(s))
            pts.append(SpectrumPoint(
                mu=0, lam=lam, lam_plus=lp, lam_minus=lm if q >= 0 else -lm,
                gamma=gamma, chi=chi, eigvec=v, _binary64=(v, v)))
    else:
        with decimal.localcontext(prec.decimal):
            bands = [np.array([prec.to_decimal(x) for x in b], dtype=object)
                     for b in bundle.minus_bands]
            for chi, lp, v, v64, q, a in zip(chis, lam_plus, vecs, V64,
                                             quots.tolist(), size.tolist()):
                sq = (lp - 1) * (lp + 1)
                lp2, sq64 = float(lp) ** 2, float(sq)
                slack = 2.0 ** -50 * bundle.M * a   # bounds binary64 q's error
                if abs(q) <= slack or lp2 * (abs(q) + slack) > sq64 * a:
                    q = _anti_quotients(bands, np.array([v], dtype=object))[0]
                lm = (abs(q) if lp2 * abs(float(q)) > sq64 * a
                      else max(sq, 0 * sq).sqrt())
                s = lp + lm
                lam, gamma = (s, s.ln()) if q >= 0 else (1 / s, -s.ln())
                pts.append(SpectrumPoint(
                    mu=0, lam=lam, lam_plus=lp,
                    lam_minus=lm if q >= 0 else -lm, gamma=gamma, chi=chi,
                    eigvec=v, _binary64=(v, v64)))
    pts.sort(key=lambda p: -float(p.gamma))
    for i, p in enumerate(pts):
        p.mu = i + 1
    return pts


def check_joint(bundle: MatrixBundle, pts: list):
    """Check that every eigenvector of ``pts`` diagonalizes each member
    of the family within JOINT_TOL, at any modulus, in binary64 at every
    precision (its rounding, ~M eps, is far below the tolerance), by one
    product of the stacked family with the eigenvectors.  A NaN residual
    fails."""
    V = np.array([p.eigvec64() for p in pts]).T
    vals = np.array([(p.lam, p.lam_plus, p.lam_minus, p.chi) for p in pts],
                    dtype=float).T
    worst = np.abs((bundle.family @ V).reshape(4, bundle.M, -1)
                   - V * vals[:, None, :]).max()
    worst /= max(1.0, np.abs(bundle.T).max())
    if not worst <= JOINT_TOL:
        raise JointDiagonalizationError(
            f"joint diagonalization failure: residual {worst:.3e}")


def chi_poly_derivatives(roots) -> list:
    """P'(x_i) at every root x_i of the monic P = prod_j (x - x_j): row
    products over the difference matrix (of floats, or of objects), whose
    unit diagonal leaves them rounded as the scalar loop rounds them."""
    x = np.array(roots)
    diff = np.subtract.outer(x, x)
    np.fill_diagonal(diff, 1)
    return np.prod(diff, axis=1).tolist()


# ----------------------------------------------------------------------
# angle enrichment
# ----------------------------------------------------------------------

def _acos_upper(fn, x):
    """Principal arccos continued with nonnegative imaginary part."""
    v = fn.cacos(fn.mpc(x))
    return v.conjugate() if v.imag < 0 else v


def triple_from_lambda(lam, w: Weights, frame: EllipticFrame):
    """Consistent Jacobi triple (sn, cn, dn) of some preimage of the
    horizontal eigenvalue, reconstructed from the four spectral bounds.

    Every closed-form expression used downstream is invariant under the
    choice of preimage, so principal square roots suffice.
    """
    fn = _scalar_fns(frame.prec)
    sn_e, cn_e, dn_e = frame.eta_triple
    q_n = fn.csqrt(fn.mpc(w.lambda_n - lam))
    sn_u = sn_e * fn.csqrt(fn.mpc(w.lambda_s - lam)) / q_n
    cn_u = cn_e * fn.csqrt(fn.mpc(w.lambda_c - lam)) / q_n
    dn_u = dn_e * fn.csqrt(fn.mpc(w.lambda_d - lam)) / q_n
    return sn_u, cn_u, dn_u


def sn_add(triple_a, triple_b, k):
    """sn(u + v) from the triples at u and v, by the addition formula;
    the triples may hold numpy arrays, and any pole entry raises."""
    sn_a, cn_a, dn_a = triple_a
    sn_b, cn_b, dn_b = triple_b
    den = 1 - (k * sn_a * sn_b) ** 2
    if any_true(abs(den) < 1e-14):
        raise PoleError("addition formula pole", where=None)
    return (sn_a * cn_b * dn_b + sn_b * cn_a * dn_a) / den


def sn_pm_eta(triple, frame):
    """sn(u + eta) and sn(u - eta) from the triple at u."""
    sn_e, cn_e, dn_e = frame.eta_triple
    return (sn_add(triple, (sn_e, cn_e, dn_e), frame.k),
            sn_add(triple, (-sn_e, cn_e, dn_e), frame.k))


def _matched_triple(lam, target, w: Weights, frame: EllipticFrame):
    """Triple of the preimage of ``lam`` whose vertical eigenvalue is the
    one of zeta, 1/zeta nearer ``target`` (sn flips sign for 1/zeta);
    returns (triple, zeta)."""
    triple = triple_from_lambda(lam, w, frame)
    sp, sm = sn_pm_eta(triple, frame)
    zeta_t = sp / sm
    if abs(zeta_t - target) > abs(1 / zeta_t - target):
        triple = (-triple[0], triple[1], triple[2])
        zeta_t = 1 / zeta_t
    return triple, zeta_t


def double_argument(triple, k):
    """(sn 2u, cn 2u, dn 2u) from the triple at u."""
    sn, cn, dn = triple
    den = 1 - (k * sn * sn) ** 2
    sn2 = 2 * sn * cn * dn / den
    cn2 = (cn * cn - (sn * dn) ** 2) / den
    dn2 = (dn * dn - (k * sn * cn) ** 2) / den
    return sn2, cn2, dn2


def lambda_zeta(u, frame: EllipticFrame):
    """Horizontal and vertical eigenvalue functions at a torus point."""
    sp = frame.kernel.sncndn(u + frame.eta)[0]
    sm = frame.kernel.sncndn(u - frame.eta)[0]
    lam = 1 / (frame.k * sp * sm)
    return lam, sp / sm


def dispersion_residual(gamma, phi, w: Weights):
    """Residual of the dispersion relation linking the two angle families:
    cosh(gamma) + t_minus z_minus cos(phi) - t_plus z_plus."""
    fn = _scalar_fns(w.prec)
    return fn.ccosh(fn.mpc(gamma)) + w.tz_minus * fn.ccos(fn.mpc(phi)) \
        - w.tz_plus


def _locate_u(p, frame):
    """Torus point with the point's eigenvalue pair, from its triple: of
    the candidates +-u0 and +-conj(u0), u0 = arcsn(sn u), the best match.
    sn is odd and real on the real axis and eta imaginary, so sn(u0 +-
    eta) give sn(candidate +- eta) of all four exactly."""
    fn = _scalar_fns(frame.prec)
    u0 = arcsn(p.sn_u, frame.k, frame.prec)
    best = None
    try:
        sp = frame.kernel.sncndn(u0 + frame.eta)[0]
        sm = frame.kernel.sncndn(u0 - frame.eta)[0]
        cands = ((u0, sp, sm), (-u0, -sm, -sp),
                 (u0.conjugate(), sm.conjugate(), sp.conjugate()),
                 (-u0.conjugate(), -sp.conjugate(), -sm.conjugate()))
    except PoleError:
        cands = ()
    for cand, sp_c, sm_c in cands:
        lam_c, zeta_c = 1 / (frame.k * sp_c * sm_c), sp_c / sm_c
        err = abs(lam_c - p.lam) / max(1.0, abs(p.lam)) + abs(zeta_c - p.zeta)
        if best is None or err < best[0]:
            best = (err, cand)
    if best is None or best[0] > BRANCH_TOL:
        raise JointDiagonalizationError(
            f"branch inconsistency: no torus point matches mu={p.mu} "
            f"(best residual {best[0] if best else float('inf'):.3e})")
    u = best[1]
    K, Kp = frame.K, frame.K_prime
    re = u.real - 2 * K * int(fn.floor((u.real + K) / (2 * K)))
    im = u.imag - 2 * Kp * int(fn.floor((u.imag + Kp) / (2 * Kp)))
    if im < -float(Kp) / 2:
        im = im + 2 * Kp  # present reciprocal-line points at +iK'
    return fn.mpc(re, im)


def enrich_spectrum(points, frame: EllipticFrame, w: Weights):
    """The torus angles of a whole spectrum, for `spectrum_for` (in place;
    the same list is returned): phi on the principal arccos branch with
    nonnegative imaginary part, zeta = e^{i phi}, and the Jacobi triple of
    the preimage of lam whose vertical eigenvalue is zeta, checked against
    it."""
    fn = _scalar_fns(frame.prec)
    for p in points:
        p._ctx, p._k = frame.prec.ctx, w.k
        p.phi = _acos_upper(fn, p.chi / 2 - 1)
        p.zeta = fn.cexp(fn.mpc(0, 1) * p.phi)
        (p.sn_u, p.cn_u, p.dn_u), zeta_t = _matched_triple(p.lam, p.zeta, w,
                                                           frame)
        if abs(zeta_t - p.zeta) > BRANCH_TOL * max(1.0, abs(p.zeta)):
            raise JointDiagonalizationError(
                f"branch inconsistency: vertical eigenvalue mismatch "
                f"{abs(zeta_t - p.zeta):.3e} at mu={p.mu}")
    return points


def spectrum_for(c: Couplings, prec: Precision = FLOAT64):
    """Weights, frame, matrices and enriched spectrum of one system, its
    eigenvalues and gamma as context scalars, each point also with the
    angles of the spectrum table: the torus point u, reduced so that
    reciprocal-eigenvalue points sit on the upper torus line, its branch,
    omega = am 2u, theta, psi and the residual of the quantization
    M phi = omega (mod 2 pi)."""
    pipe = SystemPipeline(c, prec)
    w, bundle, pts = pipe.checked()
    frame = pipe.frame()
    fn = _scalar_fns(pipe.prec)
    if not pipe.prec.is_float:
        for p in pts:
            for name in ("lam", "lam_plus", "lam_minus", "gamma", "chi"):
                setattr(p, name, pipe.prec.from_decimal(getattr(p, name)))
    two_pi = 2 * fn.pi
    for p in enrich_spectrum(pts, frame, w):
        p.u = _locate_u(p, frame)
        p.branch = ("complex" if abs(float(p.phi.imag)) > 1e-9 else
                    ("shifted_iKprime"
                     if abs(float(p.u.imag)) > float(frame.K_prime) / 2
                     else "real_axis"))
        p.omega = frame.kernel.am(2 * p.u)
        p.theta = fn.clog(p.exp_theta())
        p.psi = -fn.clog(-fn.ctan(p.phi / 2))
        q = c.M * p.phi - p.omega
        r = q.real - two_pi * fn.floor(q.real / two_pi + 0.5)
        p.quant_residual = abs(complex(r + fn.mpc(0, 1) * q.imag))
    return w, frame, bundle, pts


# ----------------------------------------------------------------------
# the shared pipeline
# ----------------------------------------------------------------------

class SystemPipeline:
    """The work every spectral quantity of one system shares, at one
    precision: weights, elliptic frame, family (matrices and the unchecked
    eigensystem) and checked (the family after `check_joint`), the last
    two at any modulus.  Only `spectrum_for`, the contour and the
    identities build the frame, which raises `CriticalModulusError` at
    the critical modulus; no route and not `partition.assemble_logZ`
    builds it, and the route eigenpairs carry no torus state.  The
    structured routes keep one stage of their own here, the spectral
    measure (`partition._checked_measure`).

    Each stage is built on first use and kept; a stage that raised raises
    again without being rebuilt.  ``seconds`` is the time spent building.
    """

    def __init__(self, c: Couplings, prec: Precision | None = None):
        self.c, self.prec = c, as_precision(prec)
        self.seconds = 0.0
        self._stages = {}

    def _stage(self, name, build):
        if name not in self._stages:
            t0, seconds0 = time.perf_counter(), self.seconds
            try:
                self._stages[name] = (build(), None)
            except ArithmeticError as exc:
                self._stages[name] = (None, exc)
            finally:
                # inner stages add their own time; count the outer once
                self.seconds = seconds0 + time.perf_counter() - t0
        value, exc = self._stages[name]
        if exc is not None:
            raise exc
        return value

    def weights(self) -> Weights:
        return self._stage(
            "weights", lambda: weights_from_couplings(self.c, self.prec))

    def frame(self) -> EllipticFrame:
        return self._stage(
            "frame", lambda: elliptic_frame(self.weights()))

    def family(self):
        """(weights, bundle, points): the unchecked family eigensystem, at
        any modulus."""
        w = self.weights()

        def build():
            bundle = build_matrices(w, self.c.M)
            return bundle, joint_spectrum(bundle, w, self.prec)
        bundle, pts = self._stage("family", build)
        return w, bundle, pts

    def checked(self):
        """(weights, bundle, points): the family after `check_joint`."""
        w, bundle, pts = self.family()
        self._stage("checked", lambda: check_joint(bundle, pts))
        return w, bundle, pts


# ----------------------------------------------------------------------
# closed characteristic polynomials
# ----------------------------------------------------------------------

@dataclass
class CharPolyContext:
    """Everything the closed-form evaluators need."""

    weights: Weights
    frame: EllipticFrame
    M: int
    points: list = None

    @property
    def prec(self):
        return self.frame.prec

    @cached_property
    def sn_eta_points(self):
        """sn(eta + u_mu) at every point: `_cp_zeta`'s fixed factors."""
        eta_triple, k = self.frame.eta_triple, self.frame.k
        return [sn_add(eta_triple, (q.sn_u, q.cn_u, q.dn_u), k)
                for q in self.points]


CP_KINDS = ("lambda_plus", "chi", "lambda", "lambda_at_inverse",
            "lambda_minus", "zeta", "zeta_at_inverse")


def char_poly_eval(kind: str, x, cpc: CharPolyContext):
    """Closed-form characteristic polynomial values.

    ``lambda_at_inverse`` (``zeta_at_inverse``) evaluates the polynomial at
    the reciprocal of the eigenvalue function while sharing the torus point
    of the plain kind, matching the factorized forms they appear in.
    Raises PoleError where the parametrization degenerates (the closed
    form divides by zero or meets a pole of the Jacobi functions).
    """
    if kind not in CP_KINDS:
        raise DomainError(f"unknown characteristic polynomial kind {kind!r}")
    x = _scalar_fns(cpc.prec).mpc(x)
    try:
        return _cp_dispatch(kind, x, cpc)
    except ZeroDivisionError as exc:
        raise PoleError(f"{kind} characteristic polynomial: the closed "
                        f"form divides by zero at {complex(x)}",
                        where=complex(x)) from exc


def _cp_dispatch(kind, x, cpc):
    sqrt = _scalar_fns(cpc.prec).csqrt
    w, M = cpc.weights, cpc.M
    if kind == "lambda_plus":
        lam = x + sqrt(x * x - 1)
        pref = (1 - w.t_star ** 2) * (w.tz_minus / 2) ** M
        return pref * _full_angle_ratio(lam, cpc)
    if kind == "chi":
        lam_plus = w.tz_plus + w.tz_minus * (1 - x / 2)
        lam = lam_plus + sqrt(lam_plus * lam_plus - 1)
        return (1 - w.t_star ** 2) * _full_angle_ratio(lam, cpc)
    if kind == "lambda_minus":
        lam = x + sqrt(x * x + 1)
        a = _cp_lambda(lam, cpc, inverse=False)
        b = _cp_lambda(-1 / lam, cpc, inverse=False)
        return a * b / (2 ** M * w.t)
    # lambda, zeta and their _at_inverse forms
    return (_cp_zeta if kind.startswith("zeta") else _cp_lambda)(
        x, cpc, inverse=kind.endswith("_at_inverse"))


def _angle_data(lam, cpc):
    """Triple, vertical eigenvalue and double-argument values for a
    preimage of ``lam``."""
    triple = triple_from_lambda(lam, cpc.weights, cpc.frame)
    sp, sm = sn_pm_eta(triple, cpc.frame)
    zeta = sp / sm
    sn2, cn2, dn2 = double_argument(triple, cpc.frame.k)
    return triple, zeta, sn2, cn2, dn2


def _full_angle_ratio(lam, cpc):
    """[sin(M phi) cos w - cos(M phi) sin w] / (-sin w) at the preimage."""
    _t, zeta, sn2, cn2, _d = _angle_data(lam, cpc)
    zM = zeta ** cpc.M
    sin_m = (zM - 1 / zM) / _scalar_fns(cpc.prec).mpc(0, 2)
    cos_m = (zM + 1 / zM) / 2
    if abs(sn2) < 1e-13:
        raise ZeroDivisionError("vanishing sine of the boundary phase")
    return (sin_m * cn2 - cos_m * sn2) / (-sn2)


def _cp_lambda(x, cpc, inverse):
    w, M = cpc.weights, cpc.M
    triple, zeta, _s2, _c2, _d2 = _angle_data(x, cpc)
    sn_u, cn_u, dn_u = triple
    zh = zeta ** (M // 2)
    cos_h = (zh + 1 / zh) / 2
    sin_h = (zh - 1 / zh) / _scalar_fns(cpc.prec).mpc(0, 2)
    if inverse:
        tan_half = sn_u * dn_u / cn_u
        bracket = cos_h + tan_half * sin_h
        pref = (-w.tz_minus / x) ** (M // 2)
    else:
        cot_half = cn_u / (sn_u * dn_u)
        bracket = cos_h - cot_half * sin_h
        pref = (-w.tz_minus * x) ** (M // 2)
    return (1 - w.t_star) * pref * bracket


def _cp_zeta(x, cpc, inverse):
    if cpc.points is None:
        raise DomainError("vertical characteristic polynomials need the "
                          "enriched spectrum in the context")
    fn = _scalar_fns(cpc.prec)
    w, M, frame = cpc.weights, cpc.M, cpc.frame
    cos_phi = (x + 1 / x) / 2
    lam_plus = w.tz_plus - w.tz_minus * cos_phi
    lam = lam_plus + fn.csqrt(lam_plus * lam_plus - 1)
    triple, zeta_t = _matched_triple(lam, x, w, frame)
    sn2, cn2, _d2 = double_argument(triple, frame.k)
    e_miw = cn2 - fn.mpc(0, 1) * sn2   # e^{-i omega}
    zM = zeta_t ** M
    # products over the spectrum use the addition formula on stored triples
    prod_num = fn.mpc(1)
    for q, s_eta_umu in zip(cpc.points, cpc.sn_eta_points):
        s_u_umu = sn_add(triple, (q.sn_u, q.cn_u, q.dn_u), frame.k)
        if inverse:
            prod_num = prod_num * (frame.k * s_eta_umu * s_u_umu)
        else:
            prod_num = prod_num * (s_eta_umu / s_u_umu)
    if inverse:
        ratio = (1 + (1 / zM) * (1 / e_miw)) / (1 + 1 / e_miw)
        return (1 - w.t_star) * ratio * prod_num
    ratio = (1 - zM * e_miw) / (1 - e_miw)
    return (1 - w.t_star) * ratio * prod_num
