"""Partition-function routes.

Five independent ways to log Z for one system:

* ``brute``     exact configuration sum (caps at 24 spins, at 16 in the
                ``all`` fan-out),
* ``spin``      row-to-row transfer over 2^M column states (caps at 12),
* ``block``     determinant of the projected L-th transfer-matrix power,
* ``hankel``    determinant of the half-size Hankel matrix of spectral sums,
* ``pfaffian``  Pfaffian of the skew-symmetric Toeplitz matrix.

All structured linear algebra runs in the log domain with per-row scaling,
so exponential eigenvalue factors never overflow; extended precision kicks
in automatically where binary64 cancellation is expected.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .elliptic import CRITICAL_TOL
from .errors import DomainError, PhaseLeakError, RouteInfeasibleError
from .params import Couplings, EllipticFrame, Weights, swap_system
from .precision import FLOAT64, Precision, as_precision
from .spectrum import SystemPipeline, chi_poly_derivative

#: hard cap on the exact configuration sum
BRUTE_MAX_SPINS = 24

#: largest system the ``route="all"`` fan-out sums by brute force; the
#: spin route covers every system up to BRUTE_MAX_SPINS in under 1 ms
BRUTE_ALL_MAX_SPINS = 16

#: hard cap on the number of column spins in the state-vector transfer
SPIN_MAX_WIDTH = 12

#: relative phase tolerance for quantities that must come out real
REAL_TOL = 1e-8

ROUTES = ("brute", "spin", "block", "hankel", "pfaffian")

#: routes that run at the working precision (the others are binary64)
STRUCTURED_ROUTES = ("block", "hankel", "pfaffian")


# ----------------------------------------------------------------------
# log-scaled scalars and structured factorizations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LogScaledValue:
    """A number stored as phase * exp(log_mag) to survive huge ranges.

    ``phase`` has unit modulus (+-1 for real results).  ``log_mag`` is a
    context real (an exact-precision scalar on the extended path); the
    zero value is encoded as log_mag = -inf.
    """

    log_mag: object
    phase: complex = 1.0

    @classmethod
    def from_value(cls, v) -> "LogScaledValue":
        a = abs(v)
        if a == 0:
            return cls(float("-inf"), 1.0)
        return cls(math.log(a), complex(v) / a)

    @classmethod
    def zero(cls) -> "LogScaledValue":
        return cls(float("-inf"), 1.0)

    def __mul__(self, other: "LogScaledValue") -> "LogScaledValue":
        return LogScaledValue(self.log_mag + other.log_mag,
                              self.phase * other.phase)

    def scaled(self, dlog) -> "LogScaledValue":
        return LogScaledValue(self.log_mag + dlog, self.phase)

    @property
    def is_zero(self) -> bool:
        return float(self.log_mag) == float("-inf")

    def value(self):
        return self.phase * math.exp(float(self.log_mag))

    def real_log(self, tol: float = REAL_TOL):
        """log of a positive real value; raises on residual phase."""
        if abs(self.phase - 1.0) > tol:
            raise PhaseLeakError(
                f"phase leak: expected positive real, phase = {self.phase}",
                value=self)
        return self.log_mag


def logdet_scaled(rows, prec: Precision) -> tuple[LogScaledValue, dict]:
    """LU determinant with partial pivoting and per-row scaling.

    Works on nested lists of context scalars (real or complex).  Returns
    the determinant and a conditioning report: ``loss`` estimates the
    decimal digits destroyed by cancellation.
    """
    ctx = prec.ctx
    n = len(rows)
    A = [[x for x in r] for r in rows]
    log_mag = ctx.mpf(0)
    phase = complex(1.0)
    for i in range(n):
        s = max(abs(x) for x in A[i])
        if s == 0:
            return LogScaledValue.zero(), {"loss": 0.0}
        A[i] = [x / s for x in A[i]]
        log_mag += ctx.log(s)
    min_piv, max_piv = float("inf"), 0.0
    for col in range(n):
        p = max(range(col, n), key=lambda r: abs(A[r][col]))
        piv = A[p][col]
        ap = abs(piv)
        if ap == 0:
            return LogScaledValue.zero(), {"loss": float("inf")}
        if p != col:
            A[p], A[col] = A[col], A[p]
            phase = -phase
        min_piv, max_piv = min(min_piv, float(ap)), max(max_piv, float(ap))
        log_mag += ctx.log(ap)
        phase *= complex(piv / ap)
        # only the trailing columns are read again
        for r in range(col + 1, n):
            f = A[r][col] / piv
            if f != 0:
                Ar, Ac = A[r], A[col]
                Ar[col + 1:] = [Ar[j] - f * Ac[j] for j in range(col + 1, n)]
    loss = math.log10(max_piv / min_piv) if min_piv > 0 else float("inf")
    return LogScaledValue(log_mag, phase), {"loss": loss}


def pfaffian(rows, prec: Precision = FLOAT64) -> LogScaledValue:
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Skew tridiagonalization with partial pivoting (congruence updates keep
    skew-symmetry exact); pivot magnitudes accumulate in the log domain and
    row/column swaps flip the sign.
    """
    n = len(rows)
    if n % 2:
        raise DomainError("Pfaffian requires even dimension")
    skew = max(abs(rows[i][j] + rows[j][i])
               for i in range(n) for j in range(i, n))
    scale = max(1.0, max(abs(x) for r in rows for x in r))
    if float(skew) > 1e-12 * scale:
        raise DomainError("Pfaffian requires a skew-symmetric matrix")
    if n == 0:
        return LogScaledValue(0.0, 1.0)
    ctx = prec.ctx
    A = [[x for x in r] for r in rows]
    log_mag = ctx.mpf(0)
    phase = complex(1.0)
    for k in range(0, n - 2, 2):
        p = max(range(k + 1, n), key=lambda r: abs(A[r][k]))
        if abs(A[p][k]) == 0:
            return LogScaledValue.zero()
        if p != k + 1:
            A[p], A[k + 1] = A[k + 1], A[p]
            for r in range(n):
                A[r][p], A[r][k + 1] = A[r][k + 1], A[r][p]
            phase = -phase
        piv = A[k + 1][k]
        entry = A[k][k + 1]            # = -piv
        ae = abs(entry)
        log_mag += ctx.log(ae)
        phase *= complex(entry / ae)
        # congruence update of the trailing block, which alone is read
        # again: the upper triangle, mirrored (it stays exactly skew)
        f = [0] * (k + 2) + [A[j][k] / piv for j in range(k + 2, n)]
        row = A[k + 1]
        for i in range(k + 2, n):
            Ai, fi, ci = A[i], f[i], A[i][k + 1]
            for j in range(i + 1, n):
                v = Ai[j]
                if fi != 0:
                    v = v - fi * row[j]
                if f[j] != 0:
                    v = v - f[j] * ci
                Ai[j] = v
                A[j][i] = -v
    entry = A[n - 2][n - 1]
    ae = abs(entry)
    if ae == 0:
        return LogScaledValue.zero()
    log_mag += ctx.log(ae)
    phase *= complex(entry / ae)
    return LogScaledValue(log_mag, phase)


# ----------------------------------------------------------------------
# configuration-sum oracles (binary64; these are reference routes)
# ----------------------------------------------------------------------

def _bond_list(c: Couplings):
    """(site_a, site_b, coupling) for every bond; site = l * M + m."""
    bonds = []
    for l in range(c.L - 1):
        for m in range(c.M):
            bonds.append((l * c.M + m, (l + 1) * c.M + m, c.K_h))
    for l in range(c.L):
        for m in range(c.M - 1):
            bonds.append((l * c.M + m, l * c.M + m + 1, c.K_v))
    return bonds


def brute_force_logZ(c: Couplings) -> LogScaledValue:
    """Exact trace over all 2^(L*M) configurations.

    Chunked bit enumeration; chunk sums are combined with compensated
    summation so the only rounding left is in exp itself.
    """
    n = c.sites
    if n > BRUTE_MAX_SPINS:
        raise RouteInfeasibleError(
            f"{n} spins exceed the configuration-sum cap "
            f"{BRUTE_MAX_SPINS}; use the spin-transfer route")
    bonds = _bond_list(c)
    emax = sum(k for _a, _b, k in bonds)
    total = 0.0
    parts = []
    chunk = 1 << 20
    for start in range(0, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        idx = np.arange(start, stop, dtype=np.int64)
        energy = np.zeros(idx.shape, dtype=float)
        for a, b, kk in bonds:
            agree = 1 - 2 * (((idx >> a) ^ (idx >> b)) & 1)
            energy += kk * agree
        parts.append(float(np.sum(np.exp(energy - emax))))
    total = math.fsum(parts)
    return LogScaledValue(emax + math.log(total), 1.0)


def spin_transfer_logZ(c: Couplings) -> LogScaledValue:
    """Row-transfer reference over 2^M column states.

    Swaps the system first if that brings the state width under the cap;
    the partition function is swap invariant.
    """
    if c.M > SPIN_MAX_WIDTH:
        if c.L <= SPIN_MAX_WIDTH:
            return spin_transfer_logZ(swap_system(c))
        raise RouteInfeasibleError(
            f"column height {c.M} exceeds the transfer cap {SPIN_MAX_WIDTH}")
    M = c.M
    states = np.arange(1 << M, dtype=np.int64)
    col_energy = np.zeros(1 << M, dtype=float)
    for m in range(M - 1):
        col_energy += c.K_v * (1 - 2 * (((states >> m) ^ (states >> (m + 1))) & 1))
    cmax = float(col_energy.max())
    w_col = np.exp(col_energy - cmax)
    log_acc = cmax
    v = w_col.copy()
    # horizontal bond factor as a tensor product of 2x2 blocks
    blk = np.array([[math.exp(c.K_h), math.exp(-c.K_h)],
                    [math.exp(-c.K_h), math.exp(c.K_h)]])
    for _step in range(c.L - 1):
        t = v.reshape((2,) * M)
        for axis in range(M):
            t = np.tensordot(blk, t, axes=([1], [axis]))
            t = np.moveaxis(t, 0, axis)
        v = w_col * t.reshape(-1)
        m = v.max()
        log_acc += math.log(m) + cmax
        v /= m
    return LogScaledValue(log_acc + math.log(float(v.sum())), 1.0)


# ----------------------------------------------------------------------
# block-transfer determinant route
# ----------------------------------------------------------------------

def _log_z0(w: Weights, L, M, ctx):
    """Boundary-state prefactor of the squared partition function."""
    return (M / 2) * ctx.log(1 - w.z * w.z) + (L * M / 2) * ctx.log(-2 / w.z_minus)


def block_transfer_logZ(c: Couplings, prec: Precision | None = None,
                        pipeline: SystemPipeline = None):
    """log Z from the projected L-th power of the transfer matrix.

    The determinant argument factorizes exactly through the projector
    algebra into the square of a half-power matrix, whose determinant is
    evaluated with log-scaled rows; the positive square root is physical.
    Runs at any modulus including the critical point, on the unchecked
    family eigensystem of ``pipeline`` (a new one at ``prec`` if None).
    """
    pipeline = pipeline or SystemPipeline(c, prec)
    if c.M % 2:
        raise RouteInfeasibleError("block route requires even M")
    prec = pipeline.prec
    ctx = prec.ctx
    w, _bundle, pts = pipeline.family()
    M, L = c.M, c.L
    half = [[ctx.mpf(0)] * M for _ in range(M)]
    shifts = ctx.mpf(0)
    for i, p in enumerate(pts):
        a = abs(p.gamma) * L / 2
        ep = ctx.exp(L * p.gamma / 2 - a)
        em = ctx.exp(-L * p.gamma / 2 - a)
        v = p.eigvec
        for j in range(M):
            plus = (v[j] + v[M - 1 - j]) / 2
            minus = (v[j] - v[M - 1 - j]) / 2
            half[i][j] = ep * plus + em * minus
        shifts += a
    det, cond = logdet_scaled(half, prec)
    if det.is_zero:
        raise PhaseLeakError("sign anomaly: singular projected determinant",
                             value=det)
    if abs(abs(det.phase) - 1.0) > REAL_TOL or abs(det.phase.imag) > REAL_TOL:
        raise PhaseLeakError(
            f"sign anomaly: projected determinant phase {det.phase}",
            value=det)
    log_z = _log_z0(w, L, M, ctx) + det.log_mag + shifts
    diagnostics = {"det_phase": det.phase, "lu_loss_digits": cond["loss"]}
    return LogScaledValue(log_z, 1.0), diagnostics


# ----------------------------------------------------------------------
# Hankel and skew-Toeplitz routes
# ----------------------------------------------------------------------

@dataclass
class HankelSystem:
    """Half-size Hankel system: moments, matrix and prefactor.

    ``h_scaled[n-1]`` holds h_n * exp(-log_shift); the matrix rows use the
    same shift, so ``det H = exp(M/2 * log_shift) * det(rows)``.
    """

    M: int
    log_shift: object
    h_scaled: list
    rows: list
    log_z1: object
    phase_leak: float = 0.0

    def h(self, n: int):
        return self.h_scaled[n - 1]

    def logdet(self, prec: Precision) -> tuple[LogScaledValue, dict]:
        det, cond = logdet_scaled(self.rows, prec)
        return det.scaled(self.M / 2 * self.log_shift), cond


@dataclass
class SkewToeplitzSystem:
    """Skew-symmetric Toeplitz system sharing the Hankel prefactor."""

    M: int
    log_shift: object
    c_scaled: list            # c_1 .. c_{M-1}, first column below diagonal
    rows: list
    log_z1: object
    small_sin_phi: int = 0

    def log_pfaffian(self, prec: Precision) -> LogScaledValue:
        pf = pfaffian(self.rows, prec)
        return pf.scaled(self.M / 2 * self.log_shift)


def _log_z1_value(w: Weights, L, M, ctx):
    """Prefactor of the structured-determinant representations."""
    return (-(ctx.mpf(L) / 2) * ctx.log(w.t)
            + (ctx.mpf(M) / 2) * ctx.log(w.z)
            + (ctx.mpf(L) * M / 2) * ctx.log(-2 / w.z_minus))


def _spectral_coefficients(points, L, w: Weights, prec: Precision):
    """Shared per-eigenvalue coefficients of the structured matrices."""
    ctx = prec.ctx
    shift = max((L * p.gamma for p in points), key=float)
    coeffs = []
    for i, p in enumerate(points):
        dP = chi_poly_derivative(points, i)
        egl = ctx.exp(L * p.gamma - shift)
        coeffs.append((p, egl, dP))
    return shift, coeffs


def hankel_from_spectrum(points, c: Couplings, w: Weights,
                         frame: EllipticFrame,
                         prec: Precision | None = None) -> HankelSystem:
    """Assemble the Hankel moments from the enriched spectrum.

    Each moment is a spectral sum whose terms carry exp(L*gamma); a common
    log shift keeps them bounded.  The imaginary leakage of the (provably
    real) moments is recorded and gated by the caller.
    """
    prec = as_precision(prec if prec is not None else frame.prec)
    ctx = prec.ctx
    M, L = c.M, c.L
    if M % 2:
        raise RouteInfeasibleError("structured routes require even M")
    shift, coeffs = _spectral_coefficients(points, L, w, prec)
    two_i_ts = ctx.mpc(0, 2) * w.t_star
    base = []
    for p, egl, dP in coeffs:
        base.append(two_i_ts * egl * p.exp_minus_theta() * p.exp_psi() / dP)
    h = []
    leak = 0.0
    for n in range(1, M):
        acc = ctx.mpc(0)
        for (p, _e, _d), b in zip(coeffs, base):
            acc += b * p.chi ** (n - 1)
        mag = abs(acc)
        if mag > 0:
            leak = max(leak, float(abs(ctx.im(acc)) / mag))
        h.append(ctx.re(acc))
    if leak > REAL_TOL:
        raise PhaseLeakError(
            f"phase leak: Hankel moment imaginary fraction {leak:.3e}")
    half = M // 2
    rows = [[h[i + j] for j in range(half)] for i in range(half)]
    return HankelSystem(M=M, log_shift=shift, h_scaled=h, rows=rows,
                        log_z1=_log_z1_value(w, L, M, ctx), phase_leak=leak)


def skew_toeplitz_from_spectrum(points, c: Couplings, w: Weights,
                                frame: EllipticFrame,
                                prec: Precision | None = None
                                ) -> SkewToeplitzSystem:
    """Assemble the skew-symmetric Toeplitz matrix from the spectrum.

    Entries depend on the index difference only and are built from a single
    coefficient vector, so antisymmetry and the Toeplitz structure hold
    exactly by construction.
    """
    prec = as_precision(prec if prec is not None else frame.prec)
    ctx = prec.ctx
    M, L = c.M, c.L
    if M % 2:
        raise RouteInfeasibleError("structured routes require even M")
    shift, coeffs = _spectral_coefficients(points, L, w, prec)
    two_i_ts = ctx.mpc(0, 2) * w.t_star
    base = []
    small_sin = 0
    for p, egl, dP in coeffs:
        sphi = ctx.sin(p.phi)
        if abs(sphi) < 1e-10:
            small_sin += 1
        cot_half = ctx.cos(p.phi / 2) / ctx.sin(p.phi / 2)
        base.append((p, two_i_ts * egl * p.exp_minus_theta()
                     / (dP * sphi) * cot_half))
    cs = []
    for d in range(1, M):
        acc = ctx.mpc(0)
        for p, b in base:
            acc += b * ctx.sin(d * p.phi)
        cs.append(ctx.re(acc))
    zero = ctx.mpf(0)
    rows = [[(cs[i - j - 1] if i > j else (-cs[j - i - 1] if j > i else zero))
             for j in range(M)] for i in range(M)]
    return SkewToeplitzSystem(M=M, log_shift=shift, c_scaled=cs, rows=rows,
                              log_z1=_log_z1_value(w, L, M, ctx),
                              small_sin_phi=small_sin)


def hankel_logZ(c: Couplings, prec: Precision | None = None,
                pipeline: SystemPipeline = None):
    """log Z through the Hankel determinant, on the checked and enriched
    spectrum of ``pipeline`` (a new one at ``prec`` if None)."""
    pipeline = pipeline or SystemPipeline(c, prec)
    prec = pipeline.prec
    w, frame, _bundle, pts = pipeline.spectral()
    sys = hankel_from_spectrum(pts, c, w, frame, prec)
    det, cond = sys.logdet(prec)
    log_z = sys.log_z1 + det.real_log()
    return LogScaledValue(log_z, 1.0), {
        "moment_phase_leak": sys.phase_leak,
        "lu_loss_digits": cond["loss"],
        "det_phase": det.phase,
    }


def pfaffian_logZ(c: Couplings, prec: Precision | None = None,
                  pipeline: SystemPipeline = None):
    """log Z through the Pfaffian of the skew Toeplitz matrix, on the
    spectrum of ``pipeline`` (a new one at ``prec`` if None)."""
    pipeline = pipeline or SystemPipeline(c, prec)
    prec = pipeline.prec
    w, frame, _bundle, pts = pipeline.spectral()
    sys = skew_toeplitz_from_spectrum(pts, c, w, frame, prec)
    pf = sys.log_pfaffian(prec)
    log_z = sys.log_z1 + pf.real_log()
    return LogScaledValue(log_z, 1.0), {
        "pf_phase": pf.phase,
        "small_sin_phi_terms": sys.small_sin_phi,
    }


# ----------------------------------------------------------------------
# route dispatch
# ----------------------------------------------------------------------

@dataclass
class RouteOutcome:
    name: str
    status: str                 # 'ok' | 'skipped' | 'failed'
    logZ: float = None
    seconds: float = 0.0
    precision_bits: int = 53
    reason: str = ""
    diagnostics: dict = field(default_factory=dict)


@dataclass
class PartitionResult:
    """Primary output record of the engine.

    ``pipeline_seconds`` is the time spent on work the structured routes
    share (weights, matrices, eigensystem, joint check, enrichment); the
    routes' own ``seconds`` leave it out.
    """

    couplings: Couplings
    route: str
    logZ: float
    k: float
    eta_im_over_Kprime: float
    outcomes: dict
    checks: dict = field(default_factory=dict)
    pipeline_seconds: float = 0.0

    @property
    def max_pairwise_dev(self):
        vals = [o.logZ for o in self.outcomes.values() if o.status == "ok"]
        if len(vals) < 2:
            return 0.0
        lo, hi = min(vals), max(vals)
        return abs(hi - lo) / max(1.0, abs(hi))


def route_feasibility(c: Couplings, route: str, k: float) -> str:
    """Empty string if the route can run, else the reason it cannot."""
    critical = abs(k - 1) < CRITICAL_TOL
    if route == "brute":
        return ("" if c.sites <= BRUTE_MAX_SPINS
                else f"{c.sites} spins exceed cap {BRUTE_MAX_SPINS}")
    if route == "spin":
        return ("" if min(c.M, c.L) <= SPIN_MAX_WIDTH
                else f"min extent {min(c.M, c.L)} exceeds cap {SPIN_MAX_WIDTH}")
    if route == "block":
        return "" if c.M % 2 == 0 else "odd M"
    if route in ("hankel", "pfaffian"):
        if c.M % 2:
            return "odd M"
        if critical:
            return "critical modulus"
        return ""
    raise DomainError(f"unknown route {route!r}")


def default_precision(c: Couplings, k: float) -> Precision:
    """Binary64 except near criticality or for large systems, where the
    structured determinants are expected to cancel catastrophically."""
    if c.L + c.M > 24:
        return Precision(160)
    if 0.99 < k < 1.01 and abs(k - 1) > CRITICAL_TOL:
        return Precision(160)
    return FLOAT64


def _run_route(c: Couplings, name: str, k: float,
               pipe: SystemPipeline) -> RouteOutcome:
    """Run one route if it is feasible; the structured ones at the
    pipeline's precision and on its shared work, whose build time is left
    out of the route's seconds."""
    bits = pipe.prec.bits if name in STRUCTURED_ROUTES else 53
    reason = route_feasibility(c, name, k)
    if reason:
        return RouteOutcome(name, "skipped", reason=reason,
                            precision_bits=bits)
    t0, shared0 = time.perf_counter(), pipe.seconds
    try:
        if name == "brute":
            lz, diag = brute_force_logZ(c), {}
        elif name == "spin":
            lz, diag = spin_transfer_logZ(c), {}
        elif name == "block":
            lz, diag = block_transfer_logZ(c, pipe.prec, pipe)
        elif name == "hankel":
            lz, diag = hankel_logZ(c, pipe.prec, pipe)
        else:
            lz, diag = pfaffian_logZ(c, pipe.prec, pipe)
        out = RouteOutcome(name, "ok", logZ=float(lz.real_log()),
                           diagnostics=diag)
    except (RouteInfeasibleError, PhaseLeakError, ArithmeticError) as exc:
        out = RouteOutcome(name, "failed", reason=str(exc))
    out.seconds = time.perf_counter() - t0 - (pipe.seconds - shared0)
    out.precision_bits = bits
    return out


def assemble_logZ(c: Couplings, route: str = "all",
                  prec: Precision | None = None) -> PartitionResult:
    """Run one route or every feasible route with cross-deviations.

    With ``route='all'`` a deviation above 1e-6 between any two routes
    triggers one escalated retry of the structured routes at 160 bits,
    and brute runs only up to BRUTE_ALL_MAX_SPINS spins.  The structured
    routes of one precision share one `SystemPipeline`; the binary64 one
    also supplies the modulus and the anisotropy point.
    """
    if route != "all" and route not in ROUTES:
        raise DomainError(f"unknown route {route!r}")
    pipe = SystemPipeline(c, FLOAT64)
    k = float(pipe.weights().k)
    frame = pipe.frame()
    eta_frac = (float(frame.prec.ctx.im(frame.eta)) / float(frame.K_prime)
                if not frame.is_critical else float("nan"))
    chosen = as_precision(prec if prec is not None
                          else default_precision(c, k))
    if not chosen.is_float:
        pipe = SystemPipeline(c, chosen)

    outcomes = {}
    for name in (ROUTES if route == "all" else (route,)):
        if (route == "all" and name == "brute"
                and c.sites > BRUTE_ALL_MAX_SPINS):
            outcomes[name] = RouteOutcome(
                name, "skipped", reason=f"{c.sites} spins exceed the "
                f"route=all cap {BRUTE_ALL_MAX_SPINS}")
        else:
            outcomes[name] = _run_route(c, name, k, pipe)
    pipeline_seconds = pipe.seconds

    result = _finalize(c, route, k, eta_frac, outcomes, pipeline_seconds)
    if (route == "all" and chosen.is_float
            and result.max_pairwise_dev > 1e-6):
        pipe = SystemPipeline(c, Precision(160))
        for name in STRUCTURED_ROUTES:
            outcomes[name] = _run_route(c, name, k, pipe)
        result = _finalize(c, route, k, eta_frac, outcomes,
                           pipeline_seconds + pipe.seconds)
    return result


def _finalize(c, route, k, eta_frac, outcomes, pipeline_seconds):
    ref = None
    for name in ROUTES:
        o = outcomes.get(name)
        if o is not None and o.status == "ok":
            ref = o
            break
    logZ = ref.logZ if ref is not None else float("nan")
    return PartitionResult(
        couplings=c, route=route, logZ=logZ, k=k,
        eta_im_over_Kprime=eta_frac, outcomes=outcomes,
        pipeline_seconds=pipeline_seconds)
