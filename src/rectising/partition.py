"""Partition-function routes.

Five independent ways to log Z for one system:

* ``brute``     exact configuration sum (caps at 24 spins, at 16 in the
                ``all`` fan-out),
* ``spin``      row-to-row transfer over 2^M column states (caps at 12),
* ``block``     determinant of the projected L-th transfer-matrix power,
* ``hankel``    determinant of the half-size Hankel matrix of spectral sums,
* ``pfaffian``  Pfaffian of the skew-symmetric Toeplitz matrix.

All structured linear algebra runs in the log domain with per-row scaling,
so exponential eigenvalue factors never overflow.  Both structured
matrices come from one positive discrete measure on the spectrum
(`_spectral_measure`): the Hankel entries are its moments, the
skew-Toeplitz entries its Chebyshev moments; its weights are rational in
the eigenvalues, so neither route needs the elliptic frame.  The Hankel
determinant is a product of the measure's recurrence coefficients
(Gragg-Harrod), well conditioned where an LU of the moments is not.  Every
system starts in binary64, except near criticality, for a single Pfaffian
route and for a single Hankel route on a large system
(`default_precision`); in ``route="all"``, when two routes disagree by
more than ESCALATION_DEV or a structured route fails, the structured
routes rerun at 160 bits.
"""

from __future__ import annotations

import cmath
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .elliptic import is_critical
from .errors import (DomainError, NonFiniteError, PhaseLeakError,
                     RouteInfeasibleError)
from .params import (Couplings, EllipticFrame, Weights, eta_over_Kprime,
                     swap_system)
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

#: largest pairwise relative deviation a ``route="all"`` result may keep
#: after its retry; the CLI's ``z`` and ``compare`` exit 1 above it
AGREEMENT_DEV = 1e-8

#: pairwise relative deviation above which ``route="all"`` reruns the
#: structured routes at 160 bits: a tenth of AGREEMENT_DEV, so a binary64
#: route off by less than that is caught
ESCALATION_DEV = AGREEMENT_DEV / 10


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
        """log of a positive real value; raises on residual phase and on a
        zero or non-finite value."""
        if abs(self.phase - 1.0) > tol:
            raise PhaseLeakError(
                f"phase leak: expected positive real, phase = {self.phase}",
                value=self)
        if not (math.isfinite(float(self.log_mag))
                and cmath.isfinite(self.phase)):
            raise NonFiniteError(
                f"expected a positive real, got log magnitude "
                f"{self.log_mag} and phase {self.phase}")
        return self.log_mag


def _fsum(prec: Precision):
    """Accurate sum at ``prec``: correctly rounded in binary64
    (`math.fsum`), ``ctx.fsum`` at extended precision."""
    return math.fsum if prec.is_float else prec.ctx.fsum


def _check_square(rows, what: str) -> int:
    """Dimension of ``rows``; raises unless it is square."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError(f"{what} requires a square matrix")
    return n


def _isfinite(prec: Precision):
    """Finiteness test for the scalars of ``prec``, real or complex."""
    return cmath.isfinite if prec.is_float else prec.ctx.isfinite


# The binary64 kernels update whole arrays, and round every entry as
# CPython rounds the scalar operation: numpy's own arithmetic on real
# arrays; on complex ones, products split into real operations and
# quotients taken entry by entry, because numpy's complex multiply and
# divide round differently (np.hypot matches CPython's abs, np.abs not).

def _abs64(a):
    """|a|, entrywise."""
    return np.hypot(a.real, a.imag) if a.dtype.kind == "c" else np.abs(a)


def _quotients(a, d):
    """a / d, with ``d`` broadcast against ``a``."""
    if a.dtype.kind != "c":
        return a / d
    num = a.ravel().tolist()
    den = np.broadcast_to(d, a.shape).ravel().tolist()
    return np.array([x / y for x, y in zip(num, den)],
                    dtype=complex).reshape(a.shape)


def _outer(f, g):
    """f_i g_j for every i, j."""
    if f.dtype.kind != "c":
        return np.multiply.outer(f, g)
    out = np.empty((len(f), len(g)), dtype=complex)
    out.real = np.multiply.outer(f.real, g.real) - np.multiply.outer(
        f.imag, g.imag)
    out.imag = np.multiply.outer(f.real, g.imag) + np.multiply.outer(
        f.imag, g.real)
    return out


def _swap(a, i, j):
    """Swap rows i and j of ``a`` in place (columns, given ``a.T``)."""
    row = a[i].copy()
    a[i] = a[j]
    a[j] = row


def _as_binary64(rows):
    """``rows`` as a binary64 array, real unless an entry is complex: the
    caller's array itself if it already is one."""
    a = np.asarray(rows)
    return a.astype(complex if a.dtype.kind in "cO" else float, copy=False)


def _logdet_binary64(rows) -> tuple[LogScaledValue, dict]:
    """`logdet_scaled` in binary64: the classic right-looking update, one
    rank-1 array update a column."""
    A = _as_binary64(rows)
    if not np.isfinite(A).all():
        raise NonFiniteError("determinant of a matrix with a non-finite entry")
    n = len(A)
    if n == 0:
        return LogScaledValue(0.0, 1.0), {"loss": 0.0}
    scales = _abs64(A).max(axis=1)
    if not scales.all():
        return LogScaledValue.zero(), {"loss": 0.0}
    A = _quotients(A, scales[:, None])
    log_mag = 0.0
    for s in scales.tolist():
        log_mag += math.log(s)
    phase = complex(1.0)
    min_piv, max_piv = float("inf"), 0.0
    for col in range(n):
        p = col + int(_abs64(A[col:, col]).argmax())
        piv = A[p, col].item()
        ap = abs(piv)
        if ap == 0:
            return LogScaledValue.zero(), {"loss": float("inf")}
        if p != col:
            _swap(A, col, p)
            phase = -phase
        min_piv, max_piv = min(min_piv, ap), max(max_piv, ap)
        log_mag += math.log(ap)
        phase *= complex(piv / ap)
        A[col + 1:, col + 1:] -= _outer(_quotients(A[col + 1:, col], piv),
                                        A[col, col + 1:])
    loss = math.log10(max_piv / min_piv) if min_piv > 0 else float("inf")
    return LogScaledValue(log_mag, phase), {"loss": loss}


def logdet_scaled(rows, prec: Precision) -> tuple[LogScaledValue, dict]:
    """LU determinant with partial pivoting and per-row scaling.

    Works on a square matrix of context scalars (real or complex), as
    nested lists or a 2-D array.  Returns the determinant and a
    conditioning report: ``loss`` estimates the decimal digits destroyed
    by cancellation.  Binary64 runs the classic right-looking elimination
    as array updates.  Extended precision runs left-looking (Crout)
    order: each entry of column k is one ``fdot`` over the finished
    columns, with exact products and one rounding.
    """
    n = _check_square(rows, "determinant")
    if prec.is_float:
        return _logdet_binary64(rows)
    ctx = prec.ctx
    isfinite = ctx.isfinite
    scales = []
    for r in rows:
        m = [abs(x) for x in r]
        # a NaN or an infinity makes the sum non-finite; so can an overflow
        # of binary64 entries, which the entrywise test then clears
        if not (isfinite(sum(m)) or all(map(isfinite, r))):
            raise NonFiniteError(
                "determinant of a matrix with a non-finite entry")
        scales.append(max(m))
    if n == 0:
        return LogScaledValue(ctx.mpf(0), 1.0), {"loss": 0.0}
    dot = ctx.fdot
    one = ctx.mpf(1)
    A = []
    log_mag = ctx.mpf(0)
    phase = complex(1.0)
    for r, s in zip(rows, scales):
        if s == 0:
            return LogScaledValue.zero(), {"loss": 0.0}
        A.append([x / s for x in r])
        log_mag += ctx.log(s)
    # L[r] = [slot, L_r0, L_r1, ...]: the slot takes the entry being
    # reduced, so that it meets the 1 that heads neg_u
    L = [[None] for _ in range(n)]
    min_piv, max_piv = float("inf"), 0.0
    for col in range(n):
        neg_u = [one]                   # 1, -U_0col, ..., -U_(i-1)col
        for i in range(col):
            L[i][0] = A[i][col]
            neg_u.append(-dot(L[i], neg_u))
        for r in range(col, n):
            L[r][0] = A[r][col]
        v = [dot(Lr, neg_u) for Lr in L[col:]]
        p = max(range(n - col), key=lambda r: abs(v[r]))
        piv = v[p]
        ap = abs(piv)
        if ap == 0:
            return LogScaledValue.zero(), {"loss": float("inf")}
        if p:
            q = col + p
            A[q], A[col] = A[col], A[q]
            L[q], L[col] = L[col], L[q]
            v[p] = v[0]
            phase = -phase
        min_piv, max_piv = min(min_piv, float(ap)), max(max_piv, float(ap))
        log_mag += ctx.log(ap)
        phase *= complex(piv / ap)
        for Lr, vr in zip(L[col + 1:], v[1:]):
            Lr.append(vr / piv)
    loss = math.log10(max_piv / min_piv) if min_piv > 0 else float("inf")
    return LogScaledValue(log_mag, phase), {"loss": loss}


def _pfaffian_binary64(F) -> LogScaledValue:
    """`pfaffian` in binary64, on the exactly skew matrix of the upper
    triangle of ``F``: the classic right-looking Parlett-Reid update, rows
    and columns swapped together."""
    U = np.triu(F, 1)
    T = U - U.T
    n = len(T)
    log_mag, phase = 0.0, complex(1.0)
    for k in range(0, n, 2):
        q = k + 1 + int(_abs64(T[k, k + 1:]).argmax())
        entry = T[k, q].item()
        ae = abs(entry)
        if ae == 0:
            return LogScaledValue.zero()
        if q != k + 1:
            _swap(T, k + 1, q)
            _swap(T.T, k + 1, q)
            phase = -phase
        log_mag += math.log(ae)
        phase *= complex(entry / ae)
        if k + 2 == n:
            break
        # A_ij += f_i (-R_j), then += R_i f_j; as f_i (-R_j) = -(f_i R_j)
        # and R_i f_j = f_j R_i in every rounding, both come from P
        P = _outer(_quotients(T[k, k + 2:], entry), T[k + 1, k + 2:])
        B = T[k + 2:, k + 2:]
        B -= P
        B += P.T
    return LogScaledValue(log_mag, phase)


def pfaffian(rows, prec: Precision = FLOAT64) -> LogScaledValue:
    """Pfaffian of an even-dimensional skew-symmetric matrix, given as
    nested lists or a 2-D array.

    Skew tridiagonalization with partial pivoting (Parlett-Reid).  Only
    the upper triangle is read past the skew gate, so the reduced matrix
    is exactly skew; pivot magnitudes accumulate in the log domain and
    swaps flip the sign.  Binary64 runs the classic right-looking update
    as array updates.  Extended precision runs left-looking order: step k
    forms only column k and row k+1 of the reduced matrix, each entry as
    one ``fdot`` over the per-index histories of the earlier steps'
    rank-2 congruence updates.
    """
    n = _check_square(rows, "Pfaffian")
    # a binary64 copy flags non-finite entries (and extended ones beyond
    # its range, which the exact test clears) and settles the 1e-12 gate
    F = _as_binary64(rows)
    in_range = np.isfinite(F).all()
    if not (in_range
            or all(map(_isfinite(prec), chain.from_iterable(rows)))):
        raise NonFiniteError("Pfaffian of a matrix with a non-finite entry")
    if n % 2:
        raise DomainError("Pfaffian requires even dimension")
    if not in_range:            # past binary64 range, on the exact entries
        F = np.array(rows, dtype=object)
    scale = max(1.0, np.abs(F).max(initial=0.0))
    if np.abs(F + F.T).max(initial=0.0) > 1e-12 * scale:
        raise DomainError("Pfaffian requires a skew-symmetric matrix")
    if n == 0:
        return LogScaledValue(0.0, 1.0)
    if prec.is_float:
        return _pfaffian_binary64(F)
    ctx = prec.ctx
    dot = ctx.fdot
    one = ctx.mpf(1)
    perm = list(range(n))
    # step s reduces A_ij by f_i^s R_j^s - f_j^s R_i^s.  Index i keeps its
    # history twice, interleaved: G[i] = [1, f_i^0, R_i^0, f_i^1, ...] and
    # H[i] = [slot, -R_i^0, f_i^0, -R_i^1, ...]; with a_tj in the slot of
    # H[j], dot(G[t], H[j]) is the reduced A_tj
    G = [[one] for _ in range(n)]
    H = [[one] for _ in range(n)]

    def strip(t, js):
        """Reduced entries (t, j), j in js, from the upper triangle of
        ``rows`` alone."""
        pt = perm[t]
        for j in js:
            pj = perm[j]
            H[j][0] = rows[pt][pj] if pt < pj else -rows[pj][pt]
        return [dot(G[t], H[j]) for j in js]

    log_mag = ctx.mpf(0)
    phase = complex(1.0)
    for k in range(0, n, 2):
        col = strip(k, range(k + 1, n))        # A_kj; column k is -A_kj
        p = max(range(n - k - 1), key=lambda j: abs(col[j]))
        entry = col[p]
        ae = abs(entry)
        if ae == 0:
            return LogScaledValue.zero()
        if p:
            q = k + 1 + p
            for h in (perm, G, H):
                h[q], h[k + 1] = h[k + 1], h[q]
            col[p] = col[0]
            phase = -phase
        log_mag += ctx.log(ae)
        phase *= complex(entry / ae)
        row = strip(k + 1, range(k + 2, n))
        for j in range(k + 2, n):
            fj, rj = col[j - k - 1] / entry, row[j - k - 2]
            G[j] += (fj, rj)
            H[j] += (-rj, fj)
    return LogScaledValue(log_mag, phase)


def rkpw(nodes, weights, n: int) -> list:
    """Recurrence coefficients beta_0 .. beta_(n-1) of the discrete measure
    sum_i weights_i delta(x - nodes_i), for real nodes and positive weights.

    The rational Gragg-Harrod update (RKPW; Gautschi, *Orthogonal
    Polynomials*, 2004, Algorithm 2.5), truncated to n coefficients: it
    adds one node at a time and chases the bulge down the Jacobi matrix
    in squared quantities, with no square root and no moment.  The n x n
    moment matrix has determinant prod_j beta_j^(n-j).  Runs on the
    scalars it is given: floats, or mpf at any precision.
    """
    alpha, beta = [nodes[0]], [weights[0]]
    for m in range(1, len(nodes)):
        x, pi2 = nodes[m], weights[m]
        if m < n:
            alpha.append(x)
            beta.append(0 * pi2)
        gam2, sig2, tau = 1, 0, 0
        for k in range(min(m + 1, n)):
            rho2 = beta[k] + pi2
            beta_k, beta[k] = beta[k], gam2 * rho2
            sig2_prev = sig2
            if rho2:
                gam2, sig2 = beta_k / rho2, pi2 / rho2
            else:
                gam2, sig2 = 1, 0
            tau_prev = tau
            tau = sig2 * (alpha[k] - x) - gam2 * tau
            alpha[k] -= tau - tau_prev
            pi2 = tau * tau / sig2 if sig2 else sig2_prev * beta_k
    return beta[:n]


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
            f"min extent {min(c.M, c.L)} exceeds cap {SPIN_MAX_WIDTH}")
    M = c.M
    states = np.arange(1 << M, dtype=np.int64)
    col_energy = np.zeros(1 << M, dtype=float)
    for m in range(M - 1):
        col_energy += c.K_v * (1 - 2 * (((states >> m) ^ (states >> (m + 1))) & 1))
    cmax = float(col_energy.max())
    w_col = np.exp(col_energy - cmax)
    log_acc = cmax
    v = w_col
    # horizontal bonds: blk^{⊗M} = B_a ⊗ B_b on the high and low state bits
    # (the same symmetric blk on each), blk scaled by e^{-|K_h|} to <= 1
    blk = np.exp(np.array([[c.K_h, -c.K_h], [-c.K_h, c.K_h]]) - abs(c.K_h))
    a = M // 2
    powers = list(accumulate([blk] * (M - a), np.kron, initial=np.eye(1)))
    B_a, B_b = powers[a], powers[M - a]
    for _step in range(c.L - 1):
        v = w_col * (B_a @ v.reshape(1 << a, -1) @ B_b).ravel()
        m = v.max()
        log_acc += math.log(m) + cmax + M * abs(c.K_h)
        v /= m
    return LogScaledValue(log_acc + math.log(float(v.sum())), 1.0)


# ----------------------------------------------------------------------
# block-transfer determinant route
# ----------------------------------------------------------------------

def _log_z0(w: Weights, L, M, ctx):
    """Boundary-state prefactor of the squared partition function."""
    return (M / 2) * ctx.log(1 - w.z * w.z) + (L * M / 2) * ctx.log(-2 / w.z_minus)


def _route_pipeline(c: Couplings, prec, pipeline) -> SystemPipeline:
    """The pipeline a structured route runs on: ``pipeline``, which must be
    for ``c`` and at ``prec`` if that is given, or else a new one at
    ``prec``.  Refuses odd M, which none of them can run."""
    if c.M % 2:
        raise RouteInfeasibleError("odd M")
    if pipeline is None:
        return SystemPipeline(c, prec)
    if pipeline.c != c:
        raise DomainError("the pipeline was built for another system")
    if prec is not None and as_precision(prec) != pipeline.prec:
        raise DomainError(f"the pipeline runs at {pipeline.prec.bits} bits, "
                          f"not at {as_precision(prec).bits}")
    return pipeline


def block_transfer_logZ(c: Couplings, prec: Precision | None = None,
                        pipeline: SystemPipeline = None):
    """log Z from the projected L-th power of the transfer matrix.

    The determinant argument factorizes exactly through the projector
    algebra into the square of a half-power matrix, whose determinant is
    evaluated with log-scaled rows; the positive square root is physical.
    Runs at any modulus including the critical point, on the unchecked
    family eigensystem of ``pipeline`` (a new one at ``prec`` if None).
    """
    pipeline = _route_pipeline(c, prec, pipeline)
    ctx = pipeline.prec.ctx
    w, _bundle, pts = pipeline.family()
    M, L = c.M, c.L
    ep, em = [], []
    shifts = ctx.mpf(0)
    for p in pts:
        a = abs(p.gamma) * L / 2
        ep.append(ctx.exp(L * p.gamma / 2 - a))
        em.append(ctx.exp(-L * p.gamma / 2 - a))
        shifts += a
    # row i: e^(L gamma_i / 2) times the even part of eigenvector i plus
    # e^(-L gamma_i / 2) times its odd part, both scaled by e^-a_i
    V = np.array([p.eigvec for p in pts])
    half = (np.array(ep)[:, None] * ((V + V[:, ::-1]) / 2)
            + np.array(em)[:, None] * ((V - V[:, ::-1]) / 2))
    det, cond = logdet_scaled(half, pipeline.prec)
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
    same shift, so ``det H = exp(M/2 * log_shift) * det(rows)``; ``rows``
    is a binary64 array, or an object array of context scalars.
    ``phase_leak`` is the worst |Im b|/|b| of the spectral weights.
    """

    M: int
    log_shift: object
    h_scaled: list
    rows: np.ndarray
    log_z1: object
    phase_leak: float = 0.0

    def h(self, n: int):
        return self.h_scaled[n - 1]

    def logdet(self, prec: Precision) -> tuple[LogScaledValue, dict]:
        det, cond = logdet_scaled(self.rows, prec)
        return det.scaled(self.M / 2 * self.log_shift), cond


@dataclass
class SkewToeplitzSystem:
    """Skew-symmetric Toeplitz system sharing the Hankel prefactor;
    ``rows`` is an array like `HankelSystem.rows`."""

    M: int
    log_shift: object
    c_scaled: list            # c_1 .. c_{M-1}, first column below diagonal
    rows: np.ndarray
    log_z1: object

    def log_pfaffian(self, prec: Precision) -> LogScaledValue:
        pf = pfaffian(self.rows, prec)
        return pf.scaled(self.M / 2 * self.log_shift)


def _log_z1_value(w: Weights, L, M, ctx):
    """Prefactor of the structured-determinant representations."""
    return (-(ctx.mpf(L) / 2) * ctx.log(w.t)
            + (ctx.mpf(M) / 2) * ctx.log(w.z)
            + (ctx.mpf(L) * M / 2) * ctx.log(-2 / w.z_minus))


def _spectral_measure(points, c: Couplings, w: Weights):
    """The positive measure of the symbol both structured matrices read, at
    the precision of ``w``: the log shift, the nodes chi_i, the real
    weights b_i and the worst |Im b|/|b|.  Refuses odd M.

    b_i = 2 t* e^(L gamma_i - shift) (lambda_n - lam_i) / ((t - z lam_i)
    P'(chi_i)) with lambda_n = t z: the residue of the symbol at chi_i,
    equal to the angle form 2i t* e^(L gamma_i - shift) e^(-theta_i)
    e^(psi_i) / P'(chi_i).  A weight that is NaN, infinite or zero (a
    binary64 underflow of e^(L gamma - shift)) fails with
    `NonFiniteError`; one that is not real and positive within REAL_TOL,
    with `PhaseLeakError`.
    """
    if c.M % 2:
        raise RouteInfeasibleError("structured routes require even M")
    ctx = w.prec.ctx
    isfinite = _isfinite(w.prec)
    shift = max((c.L * p.gamma for p in points), key=float)
    two_ts = 2 * w.t_star
    weights, leak = [], 0.0
    for i, p in enumerate(points):
        b = (two_ts * ctx.exp(c.L * p.gamma - shift) * (w.lambda_n - p.lam)
             / ((w.t - w.z * p.lam) * chi_poly_derivative(points, i)))
        if not (isfinite(b) and b):
            raise NonFiniteError(f"spectral weight {complex(b)} at chi = "
                                 f"{float(p.chi):.6g} is zero or non-finite")
        frac = float(abs(ctx.im(b)) / abs(b))
        if not (ctx.re(b) > 0 and frac <= REAL_TOL):
            raise PhaseLeakError(
                f"phase leak: spectral weight {complex(b)} is not positive "
                f"real", value=b)
        weights.append(ctx.re(b))
        leak = max(leak, frac)
    return shift, [p.chi for p in points], weights, leak


def hankel_from_spectrum(points, c: Couplings, w: Weights,
                         frame: EllipticFrame) -> HankelSystem:
    """The Hankel moments e^-shift h_n = sum_i b_i chi_i^(n-1) of the
    spectral measure, at the precision of ``w``: real running terms, each
    moment one accurate sum (`_fsum`).  ``frame`` is not read."""
    M = c.M
    shift, chis, terms, leak = _spectral_measure(points, c, w)
    fsum = _fsum(w.prec)
    h = []
    for _n in range(1, M):
        h.append(fsum(terms))
        terms = [t * x for t, x in zip(terms, chis)]
    r = np.arange(M // 2)
    rows = np.array(h)[np.add.outer(r, r)]
    return HankelSystem(M=M, log_shift=shift, h_scaled=h, rows=rows,
                        log_z1=_log_z1_value(w, c.L, M, w.prec.ctx),
                        phase_leak=leak)


def skew_toeplitz_from_spectrum(points, c: Couplings, w: Weights,
                                measure=None) -> SkewToeplitzSystem:
    """Assemble the skew-symmetric Toeplitz matrix from the spectral
    measure, at the precision of ``w``; ``measure`` is the
    `_spectral_measure` of ``points``, formed here if None.

    e^-shift c_d = -sum_i b_i U_(d-1)(chi_i/2 - 1): the terms b_i
    sin(d phi_i)/sin(phi_i) follow the Chebyshev three-term recurrence, so
    no angle is evaluated and nothing is divided by sin(phi).  Entries
    depend on the index difference only and are indexed out of the one
    vector (-c_(M-1), ..., -c_1, 0, c_1, ..., c_(M-1)), so antisymmetry
    and the Toeplitz structure hold exactly.
    """
    M = c.M
    if measure is None:
        measure = _spectral_measure(points, c, w)
    shift, chis, terms, _leak = measure
    fsum = _fsum(w.prec)
    prev = [0] * len(terms)                 # b_i U_(-1); terms: b_i U_0
    twice_cos = [x - 2 for x in chis]       # 2 cos(phi_i)
    cs = []
    for _d in range(1, M):
        cs.append(-fsum(terms))
        terms, prev = [a * t - q
                       for a, t, q in zip(twice_cos, terms, prev)], terms
    signed = np.array([-x for x in reversed(cs)] + [w.prec.ctx.mpf(0)] + cs)
    r = np.arange(M)
    rows = signed[np.subtract.outer(r, r) + (M - 1)]
    return SkewToeplitzSystem(M=M, log_shift=shift, c_scaled=cs, rows=rows,
                              log_z1=_log_z1_value(w, c.L, M, w.prec.ctx))


def _checked_measure(c: Couplings, prec, pipeline):
    """(pipeline, weights, points, measure) of a structured spectral
    route: `_route_pipeline`, refusing the critical modulus from the
    weights, its checked eigensystem and its `_spectral_measure`.  The
    measure is the pipeline's ``measure`` stage, so the Hankel and
    Pfaffian routes form it once, and one that raised raises for both."""
    pipeline = _route_pipeline(c, prec, pipeline)
    if is_critical(pipeline.weights().k):
        raise RouteInfeasibleError("critical modulus")
    w, _bundle, pts = pipeline.checked()
    measure = pipeline._stage("measure",
                              lambda: _spectral_measure(pts, c, w))
    return pipeline, w, pts, measure


def hankel_logZ(c: Couplings, prec: Precision | None = None,
                pipeline: SystemPipeline = None):
    """log Z through the Hankel determinant, on the checked eigensystem of
    ``pipeline`` (a new one at ``prec`` if None).

    H is the moment matrix of the positive measure of `_spectral_measure`,
    so det H = prod_j beta_j^(n-j) over its recurrence coefficients, from
    `rkpw` on the weights scaled by the largest; no moment is formed.  A
    beta that is not positive and finite fails with `NonFiniteError`, and
    in binary64 so does a scaled weight below the normal range (2.2e-308),
    where underflow has eaten its digits: ``route="all"`` then retries at
    160 bits, where exponents are unbounded.
    """
    pipeline, w, _pts, measure = _checked_measure(c, prec, pipeline)
    prec = pipeline.prec
    ctx = prec.ctx
    shift, chis, weights, leak = measure
    log_b = [ctx.log(b) for b in weights]
    top, bottom = max(log_b), min(log_b)
    if prec.is_float and ctx.exp(bottom - top) < sys.float_info.min:
        raise NonFiniteError(
            f"spectral weights span {float(top - bottom):.1f} e-folds, "
            f"past the binary64 range")
    n = c.M // 2
    betas = rkpw(chis, [ctx.exp(lb - top) for lb in log_b], n)
    isfinite = _isfinite(prec)
    if not all(isfinite(b) and b > 0 for b in betas):
        raise NonFiniteError("a recurrence coefficient of the spectral "
                             "measure is not positive and finite")
    log_det = ctx.fsum((n - j) * ctx.log(b) for j, b in enumerate(betas))
    log_z = (_log_z1_value(w, c.L, c.M, ctx) + log_det
             + n * (shift + top))
    return LogScaledValue(log_z, 1.0), {
        "weight_phase_leak": leak,
        "weight_spread_digits": float(top - bottom) / math.log(10),
    }


def pfaffian_logZ(c: Couplings, prec: Precision | None = None,
                  pipeline: SystemPipeline = None):
    """log Z through the Pfaffian of the skew Toeplitz matrix, on the
    checked eigensystem of ``pipeline`` (a new one at ``prec`` if None)."""
    pipeline, w, pts, measure = _checked_measure(c, prec, pipeline)
    st = skew_toeplitz_from_spectrum(pts, c, w, measure)
    pf = st.log_pfaffian(pipeline.prec)
    log_z = st.log_z1 + pf.real_log()
    return LogScaledValue(log_z, 1.0), {"pf_phase": pf.phase}


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
    share (weights, matrices, eigensystem, joint check, spectral
    measure); the routes' own ``seconds`` leave it out.
    """

    couplings: Couplings
    route: str
    k: float
    eta_im_over_Kprime: float
    outcomes: dict
    pipeline_seconds: float = 0.0

    @property
    def logZ(self):
        """The first ``ok`` route's log Z in ROUTES order; NaN if none."""
        for name in ROUTES:
            o = self.outcomes.get(name)
            if o is not None and o.status == "ok":
                return o.logZ
        return float("nan")

    @property
    def max_pairwise_dev(self):
        vals = [o.logZ for o in self.outcomes.values() if o.status == "ok"]
        if len(vals) < 2:
            return 0.0
        lo, hi = min(vals), max(vals)
        return abs(hi - lo) / max(1.0, abs(hi))


def default_precision(c: Couplings, k: float,
                      route: str = "all") -> Precision:
    """Binary64 at every size, except in the window 0.99 < k < 1.01 about
    the critical modulus, where the structured routes are expected to
    lose digits in binary64.

    A single route has no cross-check and no retry, so a single
    ``pfaffian`` route keeps 160 bits at every size (the binary64
    Pfaffian comes back ok but wrong from 10 x 12 on), and a single
    ``hankel`` route on a system with L + M > 24 (the binary64 joint
    diagonalization fails deep in the ordered phase).  ``route="all"``
    catches both; a single ``block`` route holds in binary64.
    """
    if 0.99 < k < 1.01 and not is_critical(k):
        return Precision(160)
    if route == "pfaffian" or (route == "hankel" and c.L + c.M > 24):
        return Precision(160)
    return FLOAT64


def _run_route(c: Couplings, name: str, pipe: SystemPipeline) -> RouteOutcome:
    """Run one route: the structured ones at the pipeline's precision and
    on its shared work, whose build time is left out of the route's
    seconds.  A route that refuses the system is ``skipped``."""
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
    except RouteInfeasibleError as exc:
        out = RouteOutcome(name, "skipped", reason=str(exc))
    except ArithmeticError as exc:
        out = RouteOutcome(name, "failed", reason=str(exc))
    out.seconds = time.perf_counter() - t0 - (pipe.seconds - shared0)
    out.precision_bits = pipe.prec.bits if name in STRUCTURED_ROUTES else 53
    return out


def assemble_logZ(c: Couplings, route: str = "all",
                  prec: Precision | None = None) -> PartitionResult:
    """Run one route or every feasible route with cross-deviations.

    With ``route='all'`` a deviation above ESCALATION_DEV between any two
    routes, or a failed structured route, triggers one escalated retry of
    the structured routes at 160 bits, and brute runs only up to
    BRUTE_ALL_MAX_SPINS spins.  A single route runs once, at ``prec`` or
    at `default_precision` for that route.  The structured routes of one
    precision share one `SystemPipeline`; the binary64 one's weights also
    give the modulus and the anisotropy report (`eta_over_Kprime`, NaN at
    the critical modulus), so no elliptic frame is built.
    """
    if route != "all" and route not in ROUTES:
        raise DomainError(f"unknown route {route!r}")
    pipe = SystemPipeline(c, FLOAT64)
    w = pipe.weights()
    k = float(w.k)
    eta_frac = (float("nan") if is_critical(w.k)
                else float(eta_over_Kprime(w)))
    chosen = as_precision(prec if prec is not None
                          else default_precision(c, k, route))
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
            outcomes[name] = _run_route(c, name, pipe)
    result = PartitionResult(c, route, k, eta_frac, outcomes, pipe.seconds)
    if route == "all" and chosen.is_float and (
            result.max_pairwise_dev > ESCALATION_DEV or any(
                outcomes[n].status == "failed" for n in STRUCTURED_ROUTES)):
        pipe = SystemPipeline(c, Precision(160))
        for name in STRUCTURED_ROUTES:
            outcomes[name] = _run_route(c, name, pipe)
        result.pipeline_seconds += pipe.seconds
    return result
