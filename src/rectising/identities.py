"""Residual-reporting identity suite.

Single entry point that evaluates the full catalogue of parametrization
identities (weights, anisotropy point, eigenvalue maps, half angles,
derivatives, characteristic polynomials, spectral products, and the
Vandermonde/Hankel block structure) at one system configuration and a
deterministic set of random torus points, and reports per-identity
residuals.

Each entry states its comparisons to a ``Residuals`` recorder, which owns
the residual convention: |lhs - rhs| / max(1, |rhs|), i.e. absolute for
order-unity quantities and relative for scaled ones, and keeps the worst
value per part.  Parts are gated; details are reported but never gated.

Square roots: several catalogue identities express square roots of
spectral differences through Jacobi-function ratios.  The ratios define
the branch; pointwise principal square roots agree only up to sign on half
the torus.  The suite therefore checks the branch-free content (squared
ratios and the constructive triple consistency) and, where the catalogue
fixes relative signs (the tangent forms), those exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .contour import ContourContext
from .errors import DomainError, PoleError, RectisingError
from .elliptic import _scalar_fns, arcsn, incomplete_F
from .params import Couplings, dual
from .partition import hankel_logZ
from .precision import Precision, as_precision
from .spectrum import (
    SystemPipeline,
    char_poly_eval,
    chi_poly_derivatives,
    dispersion_residual,
    double_argument,
    spectrum_for,
)

#: default gating tolerance for the scaled residuals
GATING_TOL = 1e-9

#: step of the central finite differences, where the rounding (~eps/h) and
#: truncation (~h^4) of the stencil balance, and how many samples take them
FD_STEP, FD_SAMPLES = 2e-5, 8


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TorusSample:
    """A generic torus point u with what the sampler evaluated there: the
    (sn, cn, dn) triples at u, 2u, the swapped point ut = i K'/2 - u and
    2ut, and the eigenvalue functions lam = 1/(k sn(u+eta) sn(u-eta)) and
    zeta = sn(u+eta)/sn(u-eta)."""

    u: object
    ut: object
    at_u: tuple
    at_2u: tuple
    at_ut: tuple
    at_2ut: tuple
    lam: object
    zeta: object


@dataclass
class IdentityEnv:
    """One suite run: the system, its enriched spectrum (`spectrum_for`'s
    copies), the pipeline whose checked points they copy (the chain's
    Hankel route reads it as it would a fresh one), and the samples."""

    c: Couplings
    w: object
    frame: object
    points: list
    prec: Precision
    pipeline: SystemPipeline
    rng: random.Random
    samples: list     # generic torus samples, TorusSample
    pairs: list       # (sample, sample) pairs for addition laws

    @property
    def fn(self):
        return _scalar_fns(self.prec)

    @property
    def kern(self):
        return self.frame.kernel

    @property
    def ordered(self):
        return float(self.w.k) > 1

    @cached_property
    def eta2_triple(self):
        """(sn, cn, dn) at 2 eta, evaluated once per suite run."""
        return self.kern.sncndn(2 * self.frame.eta)

    @cached_property
    def eta_tilde_triple(self):
        """(sn, cn, dn) at eta~, evaluated once per suite run."""
        return self.kern.sncndn(self.frame.eta_tilde)

    @cached_property
    def am2(self):
        """(am(2 eta), am(2 eta~)), evaluated once per suite run."""
        return tuple(self.kern.am(2 * x)
                     for x in (self.frame.eta, self.frame.eta_tilde))

    @cached_property
    def am_2u(self):
        """am(2u) at each sample, or the PoleError it raised there."""
        out = []
        for s in self.samples:
            try:
                out.append(self.kern.am(2 * s.u))
            except PoleError as exc:
                out.append(exc)
        return out

    def lambda_zeta_at(self, us):
        """lambda_zeta at each point of ``us`` from one `_triples` call, or
        the PoleError it raised there."""
        eta, k = self.frame.eta, self.frame.k
        return [at if isinstance(at, PoleError) else
                (1 / (k * at[0][0] * at[1][0]), at[0][0] / at[1][0])
                for at in _triples(self.kern, [[u + eta, u - eta]
                                               for u in us])]

    @cached_property
    def fd_derivatives(self):
        """(log lam)', zeta' and (zeta + 1/zeta)' at each of the first
        FD_SAMPLES samples from lambda_zeta at u +- h and u +- 2h (h =
        FD_STEP, one call) by the fourth-order central stencil (Fornberg,
        Math. Comp. 51, 699 (1988)); raises the first PoleError."""
        vals = _raise_pole(self.lambda_zeta_at([
            s.u + d * FD_STEP for s in self.samples[:FD_SAMPLES]
            for d in (1, -1, 2, -2)]))
        f = [(self.fn.clog(lam), zet, zet + 1 / zet) for lam, zet in vals]
        return [[(8 * (p - m) - (p2 - m2)) / (12 * FD_STEP)
                 for p, m, p2, m2 in zip(*f[j:j + 4])]
                for j in range(0, len(f), 4)]

    @cached_property
    def cpc(self):
        return ContourContext(frame=self.frame, weights=self.w, L=self.c.L,
                              M=self.c.M, points=self.points)


class Residuals:
    """Worst residual per named part of one catalogue entry.

    ``detail=True`` records into ``details``: reported, never gated.
    """

    def __init__(self):
        self.parts = {}
        self.details = {}

    def add(self, name, value, detail=False):
        """Record a raw residual; NaN (value != value) is the worst."""
        store = self.details if detail else self.parts
        old = store.get(name, 0.0)
        store[name] = value if value > old or value != value else old

    def compare(self, name, lhs, rhs, detail=False):
        """Record the scaled residual of lhs against rhs."""
        self.add(name, float(abs(lhs - rhs) / max(1.0, abs(rhs))), detail)

    def compare_up_to_sign(self, name, lhs, rhs, detail=False):
        """Record the smaller scaled residual of lhs against +rhs and -rhs."""
        scale = max(1.0, abs(rhs))
        self.add(name, min(float(abs(lhs - rhs) / scale),
                           float(abs(lhs + rhs) / scale)), detail)

    @property
    def worst(self) -> float:
        """Worst gated residual, 0.0 when there is none, NaN if one is."""
        return max(self.parts.values(), key=lambda v: (v != v, v), default=0.0)


def _raise_pole(vals):
    """``vals``, or the first PoleError among them raised."""
    for v in vals:
        if isinstance(v, PoleError):
            raise v
    return vals


def _triples(kern, rows):
    """Per row of torus points, their (sn, cn, dn) triples or the PoleError
    the row raised: one `sncndn_line` call, row by row if one is a pole."""
    try:
        triples = np.swapaxes(kern.sncndn_line(
            [[u.real for u in row] for row in rows],
            [[u.imag for u in row] for row in rows]), 0, 1)
        return [list(zip(*row)) for row in triples.tolist()]
    except PoleError as exc:
        if len(rows) == 1:
            return [exc]
    return [at for row in rows for at in _triples(kern, [row])]


def _draw_samples(frame, rng, count):
    """Random torus samples rejected away from poles and zeros so that all
    catalogue expressions stay well scaled.  A batch draws as many
    candidates as samples are missing, never one past the last sample."""
    K, Kp = float(frame.K), float(frame.K_prime)
    ctx = frame.prec.ctx
    out, drawn = [], 0
    while len(out) < count and drawn < 400 * count:
        batch = min(count - len(out), 400 * count - drawn)
        drawn += batch
        us = [ctx.mpc(rng.uniform(-K, K), rng.uniform(-Kp, Kp))
              for _ in range(batch)]
        uts = [frame.swap_u(u) for u in us]
        for u, ut, at in zip(us, uts, _triples(frame.kernel, [
                [u, u + frame.eta, u - frame.eta, 2 * u, ut, 2 * ut]
                for u, ut in zip(us, uts)])):
            if isinstance(at, PoleError):
                continue
            at_u, (sp, _, _), (sm, _, _), at_2u, at_ut, at_2ut = at
            mags = [*at_u, sp, sm, *at_2u, at_ut[0], at_2ut[0]]
            if any(not (1e-2 < abs(m) < 1e2) for m in mags):
                continue
            lam = 1 / (frame.k * sp * sm)
            if not (1e-3 < abs(lam) < 1e3) or abs(lam - 1) < 1e-3:
                continue
            out.append(TorusSample(u, ut, at_u, at_2u, at_ut, at_2ut, lam,
                                   sp / sm))
    if len(out) < count:
        raise RectisingError("torus sampling starved by rejection")
    return out


def build_env(c: Couplings, samples: int = 16, seed: int = 0,
              prec: Precision | None = None) -> IdentityEnv:
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    prec = as_precision(prec)
    w, frame, pipeline, points = spectrum_for(c, prec)
    rng = random.Random(seed)
    us = _draw_samples(frame, rng, samples)
    vs = _draw_samples(frame, rng, samples)
    return IdentityEnv(c=c, w=w, frame=frame, points=points, prec=prec,
                       pipeline=pipeline, rng=rng, samples=us,
                       pairs=list(zip(us, vs)))


# ----------------------------------------------------------------------
# catalogue entries
# ----------------------------------------------------------------------

CATALOGUE = []


def entry(identity_id, group, gating=True):
    """Register a catalogue entry ``fn(env, r)`` that records its
    comparisons to the ``Residuals`` recorder ``r``."""
    def wrap(fn):
        CATALOGUE.append((identity_id, group, gating, fn))
        return fn
    return wrap


def _monic(x, roots, fn):
    """Product of (x - root) over the roots."""
    out = fn.mpc(1)
    for root in roots:
        out = out * (x - root)
    return out


@entry("weights-coupling-forms", "weights")
def _e_weights(env, r):
    fn, w, c = env.fn, env.w, env.c
    Kh, Kv = fn.mpf(c.K_h), fn.mpf(c.K_v)
    r.compare("t", w.t, fn.exp(-2 * Kv))
    r.compare("t_plus", w.t_plus, fn.cosh(2 * Kv))
    r.compare("t_minus", w.t_minus, -fn.sinh(2 * Kv))
    r.compare("z", w.z, fn.tanh(Kh))
    r.compare("z_plus", w.z_plus, 1 / fn.tanh(2 * Kh))
    r.compare("z_minus", w.z_minus, -1 / fn.sinh(2 * Kh))
    r.compare("z_star", w.z_star, fn.exp(-2 * Kh))
    r.compare("z_star_plus", (w.z_star + 1 / w.z_star) / 2, fn.cosh(2 * Kh))
    r.compare("z_star_minus", (w.z_star - 1 / w.z_star) / 2,
              -fn.sinh(2 * Kh))
    r.compare("t_star", w.t_star, fn.tanh(Kv))
    r.compare("t_star_plus", (w.t_star + 1 / w.t_star) / 2,
              1 / fn.tanh(2 * Kv))
    r.compare("t_star_minus", (w.t_star - 1 / w.t_star) / 2,
              -1 / fn.sinh(2 * Kv))


@entry("anisotropy-defining-equation", "frame")
def _e_eta_def(env, r):
    sn2e = env.eta2_triple[0]
    r.compare("sn2eta", sn2e * env.fn.mpc(0, 1) * env.w.t_minus, 1)


@entry("anisotropy-squares", "frame")
def _e_eta_squares(env, r):
    w = env.w
    k = env.frame.k
    sn, cn, dn = env.frame.eta_triple
    ln = w.lambda_n
    ln_minus = (ln - 1 / ln) / 2
    r.compare("sn_sq", sn * sn, -ln / k)
    r.compare("cn_sq", cn * cn, 1 + ln / k)
    r.compare("cn_sq_alt", cn * cn, ln * ln_minus / (w.t * w.t_minus))
    r.compare("dn_sq", dn * dn, 1 + ln * k)
    r.compare("dn_sq_alt", dn * dn, ln * ln_minus / (w.z * w.z_minus))


@entry("weights-at-anisotropy-point", "frame")
def _e_weights_eta(env, r):
    w, fr = env.w, env.frame
    i = env.fn.mpc(0, 1)
    k = fr.k
    sn, cn, dn = fr.eta_triple
    s2, c2, d2 = env.eta2_triple
    r.compare("t", w.t, sn * dn / (i * cn))
    r.compare("t_plus", w.t_plus, i * c2 / s2)
    r.compare("t_minus", w.t_minus, -i / s2)
    r.compare("z", w.z, k * sn * cn / (i * dn))
    r.compare("z_plus", w.z_plus, i * d2 / (k * s2))
    r.compare("z_minus", w.z_minus, -i / (k * s2))


@entry("dual-weights-at-anisotropy-point", "frame")
def _e_dual_eta(env, r):
    w = env.w
    i = env.fn.mpc(0, 1)
    s2, c2, d2 = env.eta2_triple
    ts_p = (w.t_star + 1 / w.t_star) / 2
    ts_m = (w.t_star - 1 / w.t_star) / 2
    zs_p = (w.z_star + 1 / w.z_star) / 2
    zs_m = (w.z_star - 1 / w.z_star) / 2
    r.compare("t_star_plus", ts_p, c2)
    r.compare("t_star_plus_alt", ts_p, -w.t_plus / w.t_minus)
    r.compare("t_star_minus", ts_m, i * s2)
    r.compare("z_star_plus", zs_p, d2)
    r.compare("z_star_plus_alt", zs_p, -w.z_plus / w.z_minus)
    r.compare("z_star_minus", zs_m, i * env.frame.k * s2)


@entry("amplitude-exponential-forms", "frame")
def _e_am_forms(env, r):
    fn, w = env.fn, env.w
    i = fn.mpc(0, 1)
    am2e, am2et = env.am2
    r.compare("t_star", w.t_star, fn.cexp(i * am2e))
    r.compare("t", w.t, -i * fn.ctan(am2e / 2))
    r.compare("z", w.z, fn.cexp(i * am2et))
    r.compare("z_star", w.z_star, -i * fn.ctan(am2et / 2))


@entry("dual-coupling-amplitudes", "frame")
def _e_dual_K(env, r):
    fn, fr, c = env.fn, env.frame, env.c
    i = fn.mpc(0, 1)
    Ktil_v = -fn.log(fn.tanh(fn.mpf(c.K_v))) / 2
    Ktil_h = -fn.log(fn.tanh(fn.mpf(c.K_h))) / 2
    r.compare("vertical", env.am2[0], 2 * i * Ktil_v)
    r.compare("horizontal", env.am2[1], 2 * i * Ktil_h)
    if not env.ordered:
        f1 = incomplete_F(2 * i * Ktil_v, fr.k, env.prec)
        f2 = incomplete_F(2 * i * Ktil_h, fr.k, env.prec)
        r.compare("integral_v", 2 * fr.eta, f1)
        r.compare("integral_h", 2 * fr.eta, i * fr.K_prime - f2)


@entry("eigenvalue-map-squares", "eigenvalue-map")
def _e_root_squares(env, r):
    """Squared root systematics at kernel-evaluated points: branch-free."""
    one, w, fr = env.fn.mpc(1), env.w, env.frame
    sn_e, cn_e, dn_e = fr.eta_triple
    vals_e = {"n": one, "s": sn_e, "c": cn_e, "d": dn_e}
    lam_p = {"n": w.lambda_n, "s": w.lambda_s, "c": w.lambda_c,
             "d": w.lambda_d}
    for s in env.samples:
        sn, cn, dn = s.at_u
        lam = s.lam
        vals_u = {"n": one, "s": sn, "c": cn, "d": dn}
        for p in "nscd":
            r.compare(p, (lam_p[p] - lam) * vals_e[p] ** 2,
                      (w.lambda_n - lam) * vals_u[p] ** 2)


@entry("eigenvalue-map-triple", "eigenvalue-map")
def _e_root_triple(env, r):
    """Principal-root triple lands on the Jacobi graph and reproduces the
    eigenvalue pair: the constructive content of the root systematics."""
    k = env.frame.k
    _s2e, cn2e, dn2e = env.eta2_triple
    for p in env.points:
        sn, cn, dn = p.sn_u, p.cn_u, p.dn_u
        r.compare("triple", sn * sn + cn * cn, 1)
        r.compare("triple", (k * sn) ** 2 + dn * dn, 1)
        _s2, c2, d2 = double_argument((sn, cn, dn), k)
        r.compare("triple", -k * (c2 + cn2e) / (d2 - dn2e), p.lam)


@entry("vertical-map-squares", "eigenvalue-map")
def _e_zeta_squares(env, r):
    one, w = env.fn.mpc(1), env.w
    sn_e, cn_e, dn_e = env.eta_tilde_triple
    vals_e = {"n": one, "s": sn_e, "c": cn_e, "d": dn_e}
    zet_p = {"n": w.zeta_n, "s": w.zeta_s, "c": w.zeta_c, "d": w.zeta_d}
    for s in env.samples:
        snt, cnt, dnt = s.at_ut
        zet = s.zeta
        vals_u = {"n": one, "s": snt, "c": cnt, "d": dnt}
        for p in "nscd":
            r.compare(p, (zet_p[p] - zet) * vals_e[p] ** 2,
                      (w.zeta_n - zet) * vals_u[p] ** 2)


@entry("eigenvalue-dual-forms", "eigenvalue-map")
def _e_lambda_dual(env, r):
    fr = env.frame
    k = fr.k
    sn_e = fr.eta_triple[0]
    sn_et = env.eta_tilde_triple[0]
    r.add("lambda", 0.0)
    r.add("zeta", 0.0)
    for s in env.samples:
        lam, zet = s.lam, s.zeta
        sn, snt = s.at_u[0], s.at_ut[0]
        if abs(lam + 1) < 1e-6 or abs(zet + 1) < 1e-6:
            continue
        r.compare("lambda", dual(lam),
                  -dual(k * sn * sn) / dual(k * sn_e * sn_e))
        r.compare("zeta", dual(zet),
                  -dual(k * snt * snt) / dual(k * sn_et * sn_et))


@entry("double-argument-eigenvalue-forms", "eigenvalue-map")
def _e_lambda_2u(env, r):
    fr = env.frame
    k = fr.k
    s2e, c2e, d2e = env.eta2_triple
    for s in env.samples:
        lam, zet = s.lam, s.zeta
        lam_p, lam_m = (lam + 1 / lam) / 2, (lam - 1 / lam) / 2
        zet_p, zet_m = (zet + 1 / zet) / 2, (zet - 1 / zet) / 2
        s2, c2, d2 = s.at_2u
        r.compare("lambda_a", lam, -k * (c2 + c2e) / (d2 - d2e))
        r.compare("lambda_b", lam, -(d2 + d2e) / (k * (c2 - c2e)))
        r.compare("lambda_plus", lam_p, -k * (c2 * d2 + c2e * d2e)
                  / (d2 * d2 - d2e * d2e))
        r.compare("lambda_minus", lam_m, -k * (c2 * d2e + c2e * d2)
                  / (d2 * d2 - d2e * d2e))
        r.compare("zeta_a", zet,
                  -(d2 / s2 + d2e / s2e) / (c2 / s2 - c2e / s2e))
        r.compare("zeta_b", zet,
                  -(c2 / s2 + c2e / s2e) / (d2 / s2 - d2e / s2e))
        r.compare("zeta_plus", zet_p,
                  -((d2 * c2) / (s2 * s2) + (d2e * c2e) / (s2e * s2e))
                  / ((c2 / s2) ** 2 - (c2e / s2e) ** 2))
        r.compare("zeta_minus", zet_m,
                  -((d2 / s2) * (c2e / s2e) + (d2e / s2e) * (c2 / s2))
                  / ((c2 / s2) ** 2 - (c2e / s2e) ** 2))


@entry("half-angle-forms", "half-angle")
def _e_half_angle(env, r):
    fn, w, fr = env.fn, env.w, env.frame
    i = fn.mpc(0, 1)
    sn_e, cn_e, dn_e = fr.eta_triple
    for s in env.samples:
        sn, cn, dn = s.at_u
        lam, zet = s.lam, s.zeta
        Q2 = w.lambda_n - lam
        root = fn.csqrt(lam * w.tz_minus)
        s_half = -Q2 / (2 * root) * (cn / cn_e) * (dn / dn_e)
        c_half = Q2 / (2 * i * root) * (sn / sn_e)
        sin_phi = (zet - 1 / zet) / (2 * i)
        cos_phi = (zet + 1 / zet) / 2
        t_half = (1 / i) * (sn_e / sn) * (cn / cn_e) * (dn / dn_e)
        r.compare("unit", s_half ** 2 + c_half ** 2, 1)
        r.compare("double_sin", 2 * s_half * c_half, sin_phi)
        r.compare("double_cos", c_half ** 2 - s_half ** 2, cos_phi)
        r.compare("tan", s_half / c_half, t_half)


@entry("eigen-half-angle-forms", "half-angle")
def _e_eigen_half(env, r):
    """Half angles of M phi at the eigenvalues; sines and cosines carry an
    undetermined overall sign, the tangent is exact."""
    fn, w = env.fn, env.w
    i = fn.mpc(0, 1)
    sn_e, cn_e, dn_e = env.frame.eta_triple
    for p in env.points:
        zh = p.zeta ** (env.c.M // 2)
        sin_m = (zh - 1 / zh) / (2 * i)
        cos_m = (zh + 1 / zh) / 2
        Q2 = w.lambda_n - p.lam
        lam_mm = (p.lam - 1 / p.lam) / 2
        root = fn.csqrt(fn.mpc(p.lam * w.t_minus * lam_mm))
        rhs_sin = fn.sqrt(w.t) / 2 * Q2 / root * (p.sn_u / sn_e) \
            * (p.dn_u / dn_e)
        rhs_cos = 1 / (2 * i * fn.sqrt(w.t)) * Q2 / root \
            * (p.cn_u / cn_e)
        r.compare_up_to_sign("sin", sin_m, rhs_sin)
        r.compare_up_to_sign("cos", cos_m, rhs_cos)
        r.compare("tan", sin_m / cos_m, p.sn_u * p.dn_u / p.cn_u)


@entry("sine-product-forms", "half-angle")
def _e_sin_forms(env, r):
    w, fr = env.w, env.frame
    i = env.fn.mpc(0, 1)
    sn_e, cn_e, dn_e = fr.eta_triple
    lsp = (w.lambda_s + 1 / w.lambda_s) / 2
    ldp = (w.lambda_d + 1 / w.lambda_d) / 2
    for s in env.samples:
        sn, cn, dn = s.at_u
        lam, zet = s.lam, s.zeta
        lam_p = (lam + 1 / lam) / 2
        sin_phi = (zet - 1 / zet) / (2 * i)
        lhs = w.tz_minus * i * sin_phi
        Q2 = w.lambda_n - lam
        r.compare("elliptic", lhs, -(Q2 * Q2) / (2 * lam) * (sn / sn_e)
                  * (cn / cn_e) * (dn / dn_e))
        r.compare("spectral_sq", lhs * lhs, (lsp - lam_p) * (ldp - lam_p))


@entry("addition-theorem", "addition")
def _e_addition(env, r):
    k = env.frame.k
    r.add("cn_form", 0.0)
    r.add("dn_form", 0.0)
    for (su, sv), at in zip(env.pairs, _triples(env.kern, [
            [su.u - sv.u, su.u + sv.u] for su, sv in env.pairs])):
        if isinstance(at, PoleError):
            continue
        (_sm, cm, dm), (_sp, cp, dp) = at
        lhs = k * su.at_u[0] * sv.at_u[0]
        if abs(dm + dp) > 1e-3:
            r.compare("cn_form", lhs, k * (cm - cp) / (dm + dp))
        if abs(cm + cp) > 1e-3:
            r.compare("dn_form", lhs, (dm - dp) / (k * (cm + cp)))


@entry("angle-derivatives", "derivatives")
def _e_derivatives(env, r):
    """Closed derivative forms against central finite differences."""
    fn, w, fr = env.fn, env.w, env.frame
    i = fn.mpc(0, 1)
    k = fr.k
    s2e = env.eta2_triple[0]
    for s, (dgam_fd, dzeta_fd, _) in zip(env.samples, env.fd_derivatives):
        lam, zet = s.lam, s.zeta
        lam_m = (lam - 1 / lam) / 2
        dphi_fd = dzeta_fd / (i * zet)
        s2 = s.at_2u[0]
        sin_phi = (zet - 1 / zet) / (2 * i)
        sn, cn, dn = s.at_u
        e_t = k * sn * cn / (i * dn)
        sinh_t = (e_t - 1 / e_t) / 2
        r.compare("phi_sn", 2 * i * k * s2e * lam_m, dphi_fd)
        r.compare("phi_sinh", 2 * lam_m / w.z_minus, dphi_fd)
        r.compare("phi_ratio", -2 * sin_phi / s2, dphi_fd)
        r.compare("gamma_sn", -2 * k * s2 * lam_m, dgam_fd)
        r.compare("gamma_sin", 2 * w.t_minus * sin_phi, dgam_fd)
        r.compare("gamma_sinh", 2 * i * lam_m / sinh_t, dgam_fd)


@entry("derivative-chain", "derivatives")
def _e_chain(env, r):
    """gamma-phi chain rule and the core-variable derivative.

    The core-variable derivative is gated in the reading consistent with
    the shifted core chi = 2(zeta_plus + 1): chi' = chi(4 - chi)/sin(omega).
    The unshifted-core reading (chi^2 - 4)/sin(omega) is reported as a
    diagnostic; it corresponds to chi = -2 zeta_plus.
    """
    i, w, fr = env.fn.mpc(0, 1), env.w, env.frame
    for s, (_, _, chi_fd) in zip(env.samples, env.fd_derivatives):
        lam, zet = s.lam, s.zeta
        lam_m = (lam - 1 / lam) / 2
        sin_phi = (zet - 1 / zet) / (2 * i)
        s2 = s.at_2u[0]
        dgam = -2 * fr.k * s2 * lam_m
        dphi = 2 * lam_m / w.z_minus
        chi = zet + 1 / zet + 2
        r.compare("gamma_phi_a", dgam / dphi, -w.t_minus * s2)
        r.compare("gamma_phi_b", dgam / dphi, w.tz_minus * sin_phi / lam_m)
        r.compare("chi_shifted", chi * (4 - chi) / s2, chi_fd)
        r.compare("chi_unshifted_reading", (chi * chi - 4) / s2, chi_fd,
                  detail=True)


@entry("boundary-phase-identities", "boundary-phase")
def _e_omega_theta(env, r):
    """The two boundary amplitudes against the Jacobi values, exercising
    the complex-amplitude branch rules."""
    fn, fr = env.fn, env.frame
    k = fr.k
    i = fn.mpc(0, 1)
    for s, om in zip(env.samples, env.am_2u):
        if isinstance(om, PoleError):
            raise om
        sn, cn, dn = s.at_u
        s2, c2, d2 = s.at_2u
        s2t, c2t, d2t = s.at_2ut
        th = i * env.kern.am(2 * s.ut)
        r.compare("sin_omega", s2, fn.csin(om))
        r.compare("cos_omega", c2, fn.ccos(om))
        r.compare("dn_coth", d2, -fn.ccosh(th) / fn.csinh(th))
        r.compare("sn_swap", s2t, -i * fn.csinh(th))
        r.compare("sn_swap_ns", s2t, -1 / (k * s2))
        r.compare("cn_swap", c2t, fn.ccosh(th))
        r.compare("cn_swap_ds", c2t, i * d2 / (k * s2))
        r.compare("dn_swap_cot", d2t, i * fn.ccos(om) / fn.csin(om))
        r.compare("dn_swap_cs", d2t, i * c2 / s2)
        r.compare("tan_half", fn.ctan(om / 2), sn * dn / cn)
        r.compare("exp_theta", fn.cexp(th), k * sn * cn / (i * dn))
        r.compare("symmetric", i * k * fn.csin(om) * fn.csinh(th), 1)


@entry("inversion-transform", "boundary-phase")
def _e_inversion(env, r):
    fn, fr = env.fn, env.frame
    i = fn.mpc(0, 1)
    for s, om, lz in zip(env.samples, env.am_2u, env.lambda_zeta_at(
            [s.u + i * fr.K_prime for s in env.samples])):
        if isinstance(lz, PoleError) or isinstance(om, PoleError):
            continue
        lam, zet = s.lam, s.zeta
        lam_i, zet_i = lz
        try:
            om_i = env.kern.am(2 * (s.u + i * fr.K_prime))
        except PoleError:
            continue
        r.compare("lambda", lam_i * lam, 1)
        r.compare("zeta", zet_i * zet, 1)
        r.compare("omega", om_i + om, fn.pi)
        r.compare("cot_tan", fn.ccos(om_i / 2) / fn.csin(om_i / 2),
                  fn.csin(om / 2) / fn.ccos(om / 2))


@entry("dispersion-relation", "spectrum")
def _e_dispersion(env, r):
    for p in env.points:
        r.add("onsager",
              float(abs(dispersion_residual(p.gamma, p.phi, env.w))))


@entry("eigenvalue-quantization", "spectrum")
def _e_quant(env, r):
    for p in env.points:
        r.add("quantization", p.quant_residual)


@entry("cp-factorization-halfsum", "char-poly")
def _e_cp_fact(env, r):
    fn, cpc = env.fn, env.cpc
    for j in range(10):
        lam = fn.mpc(0.3 + 0.17 * j, 0.21 + 0.11 * j)
        lp = (lam + 1 / lam) / 2
        r.compare("factorization", char_poly_eval("lambda_plus", lp, cpc),
                  char_poly_eval("lambda", lam, cpc)
                  * char_poly_eval("lambda", 1 / lam, cpc)
                  / (2 ** env.c.M * env.w.t))


@entry("cp-closed-vs-roots", "char-poly")
def _e_cp_roots(env, r):
    fn, cpc = env.fn, env.cpc
    roots = {
        "lambda_plus": [p.lam_plus for p in env.points],
        "chi": [p.chi for p in env.points],
        "lambda": [p.lam for p in env.points],
        "lambda_minus": [p.lam_minus for p in env.points],
        "zeta": [p.zeta for p in env.points],
    }
    for j in range(8):
        x = fn.mpc(0.4 + 0.23 * j, -0.37 + 0.19 * j)
        for kind, rr in roots.items():
            r.compare(kind, char_poly_eval(kind, x, cpc), _monic(x, rr, fn))
        for kind in ("lambda", "zeta"):
            r.compare(f"{kind}_at_inverse",
                      char_poly_eval(f"{kind}_at_inverse", x, cpc),
                      _monic(1 / x, roots[kind], fn))


@entry("cp-at-own-roots", "char-poly")
def _e_cp_own(env, r):
    scale = max(abs(float(p.lam_plus)) for p in env.points) ** env.c.M
    for p in env.points:
        r.add("roots", float(abs(char_poly_eval(
            "lambda_plus", p.lam_plus, env.cpc))) / max(1.0, scale))


@entry("cp-halfsum-at-zero", "char-poly")
def _e_cp_zero(env, r):
    """Determinant of the half-sum matrix and the closed location of the
    vanishing half-sum eigenvalue point."""
    fn, w, fr = env.fn, env.w, env.frame
    prod = fn.mpf(1)
    for p in env.points:
        prod = prod * p.lam_plus
    r.compare("det_halfsum", char_poly_eval("lambda_plus", 0, env.cpc), prod)
    i = fn.mpc(0, 1)
    s = fn.csqrt(dual(i * w.lambda_n) / (i * fr.k))
    (lam0, _zet0), (lam1, _zet1) = _raise_pole(env.lambda_zeta_at(
        [arcsn(s, fr.k, env.prec), fr.K + i * fr.K_prime / 2]))
    r.compare("halfsum_zero_point", (lam0 + 1 / lam0) / 2, 0)
    r.compare("halfdiff_zero_point", (lam1 - 1 / lam1) / 2, 0)


@entry("determinant-family", "products")
def _e_dets(env, r):
    fn, w = env.fn, env.w
    prod_l = prod_m = fn.mpf(1)
    for p in env.points:
        prod_l = prod_l * p.lam
        prod_m = prod_m * p.lam_minus
    ts2 = 1 - w.t_star ** 2
    r.compare("transfer", prod_l, w.t)
    r.compare("halfdiff", prod_m,
              ts2 * (fn.mpc(0, 1) * w.z_minus / ts2) ** env.c.M)


@entry("eigenvalue-point-products", "products")
def _e_point_products(env, r):
    """Products of (bound - eigenvalue) against the closed forms; the
    extent factor M multiplying the split weights is genuine."""
    fn, w, M = env.fn, env.w, env.c.M
    ts = w.t_star
    for name, bound, signp, extra_with, extra_without in (
            ("n", w.lambda_n, +1, None, None),
            ("c", w.lambda_c, -1, None, None),
            ("s", w.lambda_s, +1,
             1 - M * (w.lambda_s - 1 / w.lambda_s) / 2 / w.z_minus,
             1 - (w.lambda_s - 1 / w.lambda_s) / 2 / w.z_minus),
            ("d", w.lambda_d, -1,
             1 + M * (w.lambda_d - 1 / w.lambda_d) / 2 / w.z_minus,
             1 + (w.lambda_d - 1 / w.lambda_d) / 2 / w.z_minus)):
        prod = fn.mpf(1)
        for p in env.points:
            prod = prod * (bound - p.lam)
        base = (1 - ts) * (signp * w.tz_minus * bound) ** (M // 2)
        r.compare(name, prod,
                  base * (extra_with if extra_with is not None else 1))
        if extra_without is not None:
            r.compare(f"{name}_without_extent_factor", prod,
                      base * extra_without, detail=True)


@entry("sine-squared-product", "products")
def _e_sin_sq_product(env, r):
    fn, w, M = env.fn, env.w, env.c.M
    prod = fn.mpc(1)
    for p in env.points:
        sin_phi = (p.zeta - 1 / p.zeta) / (2 * fn.mpc(0, 1))
        prod = prod * (w.tz_minus * fn.mpc(0, 1) * sin_phi) ** 2
    lsm = (w.lambda_s - 1 / w.lambda_s) / 2
    ldm = (w.lambda_d - 1 / w.lambda_d) / 2
    closed = (1 - w.t_star ** 2) ** 2 * (w.tz_minus / 2) ** (2 * M) \
        * (1 - M * lsm / w.z_minus) * (1 + M * ldm / w.z_minus)
    r.compare("product", prod, closed)


@entry("jacobi-products", "products", gating=False)
def _e_jacobi_products(env, r):
    """Diagnostic: products of Jacobi ratios over the spectrum, reported
    with and without the extent factor under the square roots."""
    ctx, fn, w, M = env.prec.ctx, env.fn, env.w, env.c.M
    i = fn.mpc(0, 1)
    sn_e, cn_e, dn_e = env.frame.eta_triple
    ps = pc = pd = fn.mpc(1)
    for p in env.points:    # -t z < 0; below, ctx.sqrt takes either sign
        ps = ps * fn.csqrt(fn.mpc(-w.t * w.z)) * p.sn_u / sn_e
        pc = pc * fn.csqrt(i * w.z) * p.cn_u / cn_e
        pd = pd * fn.csqrt(i * w.t) * p.dn_u / dn_e
    lsm = (w.lambda_s - 1 / w.lambda_s) / 2
    ldm = (w.lambda_d - 1 / w.lambda_d) / 2
    for name, prod, closed_w, closed_wo in (
            ("sn", ps, ctx.sqrt(1 - M * lsm / w.z_minus),
             ctx.sqrt(1 - lsm / w.z_minus)),
            ("cn", pc, ctx.mpc(1), None),
            ("dn", pd, ctx.sqrt(1 + M * ldm / w.z_minus),
             ctx.sqrt(1 + ldm / w.z_minus))):
        r.compare_up_to_sign(name, prod, closed_w)
        r.compare(f"{name}_signed", prod, closed_w, detail=True)
        if closed_wo is not None:
            r.compare_up_to_sign(f"{name}_without_extent_factor", prod,
                                 closed_wo, detail=True)


@entry("half-angle-products", "products", gating=False)
def _e_half_products(env, r):
    """Diagnostic: products of half-angle functions over the spectrum."""
    ctx, fn, w, M = env.prec.ctx, env.fn, env.w, env.c.M
    i = fn.mpc(0, 1)
    psin = pcos = ptan = pth = pps = fn.mpc(1)
    for p in env.points:
        s = fn.csin(p.phi / 2)
        c = fn.ccos(p.phi / 2)
        psin, pcos, ptan = psin * s, pcos * c, ptan * (s / c)
        pth = pth * (1 / p.exp_theta)
        pps = pps * (-fn.ctan(p.phi / 2))
    lsm = (w.lambda_s - 1 / w.lambda_s) / 2
    ldm = (w.lambda_d - 1 / w.lambda_d) / 2
    rt = fn.sqrt(w.t)
    c_tan = (-1) ** (M // 2) * ctx.sqrt(1 + M * ldm / w.z_minus) \
        / ctx.sqrt(1 - M * lsm / w.z_minus)
    r.compare_up_to_sign("sin", psin, (1 - w.t_star) / ((2 * i) ** M * rt)
                         * ctx.sqrt(1 + M * ldm / w.z_minus))
    r.compare_up_to_sign("cos", pcos, (1 - w.t_star) / (2 ** M * rt)
                         * ctx.sqrt(1 - M * lsm / w.z_minus))
    r.compare_up_to_sign("tan", ptan, c_tan)
    r.compare("tan_signed", ptan, c_tan, detail=True)
    r.compare("tan_vs_exp_theta", ptan, pth)
    r.compare("tan_vs_exp_psi", ptan, pps)


@entry("vandermonde-hankel-classical", "hankel-structure")
def _e_vdm_classic(env, r):
    """Classical factorization on random real nodes: the inverse moment
    matrix from the polynomial coefficients, the lower anti-triangular
    moment structure, and the determinant balance."""
    rng = random.Random(env.rng.randint(0, 10 ** 9))
    M = env.c.M
    nodes = sorted(rng.uniform(-2, 2) for _ in range(M))
    while min(abs(a - b) for a, b in zip(nodes, nodes[1:])) < 1e-2:
        nodes = sorted(rng.uniform(-2, 2) for _ in range(M))
    x = np.array(nodes)
    V = np.vander(x, M, increasing=True)
    dP = np.array(chi_poly_derivatives(x))
    D = np.diag(1 / dP)
    H = V.T @ D @ V
    coeffs = np.poly(x)[::-1]          # b_0 .. b_M, b_M = 1
    Hinv = np.array([[coeffs[i + j + 1] if i + j + 1 <= M else 0.0
                      for j in range(M)] for i in range(M)])
    lower = max(abs(H[i, j]) for i in range(M) for j in range(M)
                if i + j + 1 < M)
    anti = max(abs(H[i, j] - 1.0) for i in range(M) for j in range(M)
               if i + j + 1 == M)
    inv_res = np.max(np.abs(H @ Hinv - np.eye(M)))
    detV = np.linalg.det(V)
    balance = detV * detV * np.prod(1 / dP)
    # the derivative product carries the node-pair parity, so the balance
    # is (-1)^(M/2) for even M; the unsigned statement drops the parity
    scale = np.max(np.abs(H))
    r.add("anti_triangular", float(lower / max(1.0, scale)))
    r.add("unit_anti_diagonal", float(anti))
    r.add("inverse_from_coefficients", float(inv_res / max(1.0, scale)))
    r.add("determinant_balance", float(abs(balance - (-1.0) ** (M // 2))))
    r.add("determinant_balance_unsigned", float(abs(balance - 1.0)),
          detail=True)


@entry("block-vandermonde-hankel", "hankel-structure")
def _e_vdm_block(env, r):
    """Two-block generalized factorization on random nodes and weights:
    the upper-left quarter vanishes identically."""
    rng = random.Random(env.rng.randint(0, 10 ** 9))
    M = env.c.M
    N = M // 2
    x = np.array(sorted(rng.uniform(-2, 2) for _ in range(M)))
    while min(abs(a - b) for a, b in zip(x, x[1:])) < 1e-2:
        x = np.array(sorted(rng.uniform(-2, 2) for _ in range(M)))
    g = np.array([rng.uniform(0.5, 2.0) for _ in range(M)])
    dP = np.array(chi_poly_derivatives(x))
    V = np.vander(x, N, increasing=True)
    VG = np.hstack([V, g[:, None] * V])
    H = VG.T @ np.diag(1 / dP) @ VG
    scale = np.max(np.abs(H))
    r.add("vanishing_block",
          float(np.max(np.abs(H[:N, :N])) / max(1.0, scale)))


@entry("spectral-hankel-chain", "hankel-structure")
def _e_physics_chain(env, r):
    """The generalized factorization with the physical weights: vanishing
    block, moment-block equality, and the determinant chain down to the
    partition function, whose log Z is the Hankel route's on the suite's
    own pipeline."""
    fn, w, c = env.fn, env.w, env.c
    M, L, N = c.M, c.L, c.M // 2
    x = np.array([complex(p.chi) for p in env.points])
    # e^psi = -cot(phi/2), single-valued given the angle branch
    g = np.array([complex(p.lam ** L * (1 / p.exp_theta)
                          * (-fn.ccos(p.phi / 2) / fn.csin(p.phi / 2)))
                  for p in env.points])
    d = np.array([complex(w.t_star / w.z_minus / dp) for dp in
                  chi_poly_derivatives([p.chi for p in env.points])])
    V = np.vander(x, N, increasing=True)
    W = np.hstack([V[:, ::-1], g[:, None] * V])
    A = W.T @ np.diag(d) @ W
    H1 = np.array([[np.sum(d * g * x ** (m + n)) for n in range(N)]
                   for m in range(N)])
    S = np.eye(N)[::-1]
    scale = np.max(np.abs(A))
    _sA, ldetA = np.linalg.slogdet(A)
    _sH, ldetH = np.linalg.slogdet(H1)
    r.add("vanishing_block", float(np.max(np.abs(A[:N, :N])) / scale))
    r.add("moment_block", float(np.max(np.abs(A[:N, N:] - S @ H1)) / scale))
    r.add("determinant_squares",
          float(abs(ldetA - 2 * ldetH) / max(1.0, abs(ldetA))))
    # full chain down to the partition function:
    # 2 log Z = log Z0^2 - L log t + log|det(W^T D W)|
    log_z, _diag = hankel_logZ(c, env.prec, env.pipeline)
    log_z0_sq = float(fn.mpf(M) * fn.log(1 - w.z * w.z)
                      + fn.mpf(L) * M * fn.log(-2 / w.z_minus))
    chain = abs(2 * log_z - (log_z0_sq - float(L * fn.log(w.t)) + ldetA)) \
        / max(1.0, abs(2 * log_z))
    r.add("partition_chain", float(chain))


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

@dataclass
class ResidualEntry:
    identity_id: str
    equation_tag: str
    gating: bool
    max_abs_residual: float
    status: str                # 'pass' | 'fail' | 'skip' | 'error'
    parts: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    note: str = ""


def _fields(obj) -> dict:
    """The fields of a dataclass instance, copied shallowly."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass
class ResidualReport:
    entries: list
    tol: float
    parameters: dict
    seed: int
    seconds: float

    @property
    def failed(self) -> bool:
        return any(e.status in ("fail", "error") and e.gating
                   for e in self.entries)

    @property
    def worst(self):
        return max((e for e in self.entries if e.status in ("pass", "fail")),
                   key=lambda e: e.max_abs_residual, default=None)

    def to_dict(self):
        worst = self.worst
        return {**_fields(self),
                "entries": [_fields(e) for e in self.entries],
                "failed": self.failed,
                "worst": (None if worst is None else
                          {"identity_id": worst.identity_id,
                           "max_abs_residual": worst.max_abs_residual})}


def run_identity_suite(c: Couplings, tol: float = GATING_TOL,
                       samples: int = 16, seed: int = 0,
                       prec: Precision | None = None) -> ResidualReport:
    """Run the whole catalogue on the system ``c``.

    Entries never abort the run; evaluation errors are recorded per entry.
    A ``tol`` that is not positive and finite raises `DomainError`.
    """
    if not 0 < tol < float("inf"):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    t0 = time.perf_counter()
    env = build_env(c, samples=samples, seed=seed, prec=prec)
    params = {"L": c.L, "M": c.M, "K_h": c.K_h, "K_v": c.K_v,
              "k": float(env.w.k)}
    entries = []
    for identity_id, tag, gating, fn in CATALOGUE:
        r = Residuals()
        try:
            fn(env, r)
        except RectisingError as exc:
            entries.append(ResidualEntry(
                identity_id=identity_id, equation_tag=tag, gating=gating,
                max_abs_residual=float("nan"), status="error",
                note=f"{type(exc).__name__}: {exc}"))
            continue
        entries.append(ResidualEntry(
            identity_id=identity_id, equation_tag=tag, gating=gating,
            max_abs_residual=r.worst, parts=r.parts, details=r.details,
            status="pass" if r.worst <= tol else "fail"))
    return ResidualReport(entries=entries, tol=tol, parameters=params,
                          seed=seed, seconds=time.perf_counter() - t0)
