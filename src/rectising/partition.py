"""Partition-function routes.

Five ways to log Z; ``route="all"`` runs the spin oracle, block and
Hankel, and ``compare`` adds the Pfaffian (and ``swap``, see `_run_route`):

* ``brute``     exact configuration sum (caps at 24 spins),
* ``spin``      flip-even row transfer, met halfway (caps at 12 columns),
* ``block``     determinant of the projected L-th transfer-matrix power,
* ``hankel``    determinant of the half-size Hankel matrix of spectral sums,
* ``pfaffian``  Pfaffian of the skew-symmetric Toeplitz matrix.

All structured linear algebra runs in the log domain with per-row scaling,
so exponential eigenvalue factors never overflow.  Every matrix a route
factors is real, so the LU and the Pfaffian take real entries at every
precision and return a sign and a log magnitude.  Both structured matrices
come from one positive discrete measure on the spectrum
(`_spectral_measure`), rational in the eigenvalues: the Hankel entries are
its moments, the skew-Toeplitz entries its Chebyshev moments.  The Hankel
determinant is a product of the measure's recurrence coefficients
(Gragg-Harrod), well conditioned where an LU of the moments is not.  Block
and Hankel run at any modulus, the critical one included; the Pfaffian
refuses k = 1.  Every run starts in binary64, except a single Pfaffian
route (`default_precision`); `fan_out` reruns its structured routes once
at 160 bits when two outcomes disagree past ESCALATION_DEV or one fails.
The route scalars are floats, or at extended precision Decimals in a
`decimal.localcontext` of ``prec.decimal``; a structured route returns its
log Z (a float, or an mpf at extended precision) and its diagnostics.  A
quantity that must be positive and comes out otherwise fails the route: a
Pfaffian, a spectral weight, a recurrence coefficient, |det| of block's
half-power matrix, and Z, whose log the dispatcher requires to be finite.
"""

from __future__ import annotations

import contextlib
import decimal
import math
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import mul

import numpy as np

from .elliptic import is_critical
from .errors import (DomainError, NonFiniteError, PhaseLeakError,
                     RouteInfeasibleError)
from .params import (Couplings, EllipticFrame, Weights, eta_over_Kprime,
                     swap_system)
from .precision import FLOAT64, Precision, as_precision
from .spectrum import SystemPipeline, chi_poly_derivatives

#: hard cap on the exact configuration sum
BRUTE_MAX_SPINS = 24

#: hard cap on the number of column spins in the state-vector transfer
SPIN_MAX_WIDTH = 12

ROUTES = ("brute", "spin", "block", "hankel", "pfaffian")

#: routes that run at the working precision (the others are binary64)
STRUCTURED_ROUTES = ("block", "hankel", "pfaffian")

#: largest pairwise relative deviation a ``route="all"`` result may keep
#: after its retry; the CLI's ``z`` and ``compare`` exit 1 above it
AGREEMENT_DEV = 1e-8

#: pairwise relative deviation above which a binary64 run reruns its
#: structured routes at 160 bits: a tenth of AGREEMENT_DEV, so a binary64
#: route off by less than that is caught
ESCALATION_DEV = AGREEMENT_DEV / 10


# ----------------------------------------------------------------------
# structured factorizations
# ----------------------------------------------------------------------

def _fsum(prec: Precision):
    """Accurate sum at ``prec``: `math.fsum`, or a sum in ``prec.wide``
    rounded once to ``prec.decimal``."""
    if prec.is_float:
        return math.fsum
    dec, wide = prec.decimal.copy(), prec.wide.copy()
    return lambda terms: dec.plus(reduce(wide.add, terms))


def _check_square(rows, what: str) -> int:
    """Dimension of ``rows``; raises unless it is square."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError(f"{what} requires a square matrix")
    return n


def _isfinite(prec: Precision):
    """Finiteness test for the route scalars of ``prec``."""
    return math.isfinite if prec.is_float else decimal.Decimal.is_finite


def _real_rows(rows, prec: Precision, what: str):
    """``rows`` as real route scalars: a binary64 array (the caller's own,
    if it already is one) or lists of Decimals (`Precision.to_decimal`).
    A complex entry raises `DomainError`, a non-finite one
    `NonFiniteError`."""
    if prec.is_float:
        A = np.asarray(rows)
        if A.dtype.kind != "c":
            with contextlib.suppress(TypeError):
                A = A.astype(float, copy=False)
        if A.dtype != float:
            raise DomainError(f"binary64 runs on real scalars, not {A.dtype}")
        finite = np.isfinite(A).all()
    else:
        A = [[prec.to_decimal(x) for x in r] for r in rows]
        finite = all(x.is_finite() for r in A for x in r)
    if not finite:
        raise NonFiniteError(f"{what} of a matrix with a non-finite entry")
    return A


def _swap(a, i, j):
    """Swap rows i and j of ``a`` in place (columns, given ``a.T``)."""
    row = a[i].copy()
    a[i] = a[j]
    a[j] = row


def _logdet_binary64(A) -> tuple:
    """`logdet_scaled` of a binary64 array: one Householder QR (LAPACK
    ``geqrf``), backward stable with no growth factor; each reflector
    with tau != 0 has determinant -1."""
    n = len(A)
    if n == 0:
        return 1, 0.0, 0.0
    scales = np.abs(A).max(axis=1)
    if not scales.all():
        return 0, -math.inf, 0.0
    A = A / scales[:, None]
    h, tau = np.linalg.qr(A, mode="raw")
    # hypot, so that a column of tiny entries keeps a nonzero norm; the
    # loop over the diagonal costs less than more array calls at small n
    norms = np.hypot.reduce(A, axis=0).tolist()
    tiny = n * np.finfo(float).eps
    sign, logs, ratio = 1, [math.log(s) for s in scales.tolist()], 1.0
    for r, t, a in zip(h.diagonal().tolist(), tau.tolist(), norms):
        if abs(r) <= tiny * a:
            return 0, -math.inf, math.inf
        if (r < 0) != (t != 0):
            sign = -sign
        logs.append(math.log(abs(r)))
        ratio = max(ratio, a / abs(r))
    return sign, math.fsum(logs), math.log10(ratio)


def logdet_scaled(rows, prec: Precision) -> tuple:
    """(sign, log |det|, loss) of a square real matrix, with per-row
    scaling.

    Takes nested lists or a 2-D array of real scalars (`_real_rows`).
    The sign and log |det| come in the order of `numpy.linalg.slogdet`,
    0 and -inf for a singular matrix; ``loss`` estimates the decimal
    digits destroyed by cancellation.  Binary64 runs one Householder QR
    (`_logdet_binary64`); ``loss`` is the most digits a column a_i cancels
    against the columns before it, log10(|a_i| / |R_ii|), and a column
    left with n eps of its norm or less is singular.  Extended precision
    runs LU with partial pivoting in left-looking (Crout) order on
    ``prec.decimal``: each entry of column k is one dot product over the
    finished columns, exact in ``prec.wide`` and rounded once; ``loss`` is
    the spread of the pivots, log10(max |piv| / min |piv|).
    """
    n = _check_square(rows, "determinant")
    A = _real_rows(rows, prec, "determinant")
    if prec.is_float:
        return _logdet_binary64(A)
    if n == 0:
        return 1, prec.ctx.zero, 0.0
    dec = prec.decimal.copy()          # its flags stay local
    with decimal.localcontext(prec.wide):
        scales = [max(map(abs, r)) for r in A]
        if not all(scales):
            return 0, -math.inf, 0.0
        A = [[dec.divide(x, s) for x in r] for r, s in zip(A, scales)]
        mag = math.prod(scales)
        sign = 1
        # L[r] = [slot, L_r0, L_r1, ...]: the slot takes the entry being
        # reduced, so that it meets the 1 that heads neg_u
        L = [[None] for _ in range(n)]
        min_piv, max_piv = float("inf"), 0.0
        for col in range(n):
            neg_u = [decimal.Decimal(1)]    # 1, -U_0col, ..., -U_(i-1)col
            for i in range(col):
                L[i][0] = A[i][col]
                neg_u.append(dec.minus(sum(map(mul, L[i], neg_u))))
            for r in range(col, n):
                L[r][0] = A[r][col]
            v = [dec.plus(sum(map(mul, Lr, neg_u))) for Lr in L[col:]]
            p = max(range(n - col), key=lambda r: abs(v[r]))
            piv = v[p]
            ap = abs(piv)
            if ap == 0:
                return 0, -math.inf, math.inf
            if p:
                q = col + p
                A[q], A[col] = A[col], A[q]
                L[q], L[col] = L[col], L[q]
                v[p] = v[0]
                sign = -sign
            if piv < 0:
                sign = -sign
            min_piv, max_piv = min(min_piv, float(ap)), max(max_piv, float(ap))
            mag *= ap
            for Lr, vr in zip(L[col + 1:], v[1:]):
                Lr.append(dec.divide(vr, piv))
    loss = math.log10(max_piv / min_piv) if min_piv > 0 else float("inf")
    return sign, prec.from_decimal(dec.ln(mag)), loss


def _pfaffian_binary64(F) -> tuple:
    """`pfaffian` in binary64, on the exactly skew matrix of the upper
    triangle of ``F``: the classic right-looking Parlett-Reid update, rows
    and columns swapped together."""
    U = np.triu(F, 1)
    T = U - U.T
    n = len(T)
    log_abs, sign = 0.0, 1
    for k in range(0, n, 2):
        q = k + 1 + int(np.abs(T[k, k + 1:]).argmax())
        entry = T[k, q].item()
        ae = abs(entry)
        if ae == 0:
            return 0, -math.inf
        if q != k + 1:
            _swap(T, k + 1, q)
            _swap(T.T, k + 1, q)
            sign = -sign
        if entry < 0:
            sign = -sign
        log_abs += math.log(ae)
        if k + 2 == n:
            break
        # A_ij += f_i (-R_j), then += R_i f_j; as f_i (-R_j) = -(f_i R_j)
        # and R_i f_j = f_j R_i in every rounding, both come from P
        P = np.multiply.outer(T[k, k + 2:] / entry, T[k + 1, k + 2:])
        B = T[k + 2:, k + 2:]
        B -= P
        B += P.T
    return sign, log_abs


def pfaffian(rows, prec: Precision = FLOAT64) -> tuple:
    """(sign, log |Pf|) of an even-dimensional skew-symmetric matrix, given
    as nested lists or a 2-D array of the entries `logdet_scaled` takes;
    (0, -inf) if it is singular.

    Skew tridiagonalization with partial pivoting (Parlett-Reid).  The
    skew gate is relative to the largest entry; past it only the upper
    triangle is read, so the reduced matrix is exactly skew; swaps flip
    the sign.  Binary64 runs the classic right-looking update as array
    updates.  Extended precision runs left-looking order on
    ``prec.decimal``: step k forms only column k and row k+1 of the
    reduced matrix, each entry one dot product, exact in ``prec.wide``
    and rounded once, over the per-index histories of the earlier steps'
    rank-2 congruence updates.
    """
    n = _check_square(rows, "Pfaffian")
    F = _real_rows(rows, prec, "Pfaffian")
    with decimal.localcontext(prec.decimal):
        if not prec.is_float:
            F = np.array(F, dtype=object).reshape(n, n)
        if n % 2:
            raise DomainError("Pfaffian requires even dimension")
        tol = 1e-12 if prec.is_float else decimal.Decimal("1e-12")
        if np.abs(F + F.T).max(initial=0) > tol * np.abs(F).max(initial=0):
            raise DomainError("Pfaffian requires a skew-symmetric matrix")
    if n == 0:
        return 1, 0.0
    if prec.is_float:
        return _pfaffian_binary64(F)
    A = F.tolist()
    dec = prec.decimal.copy()          # its flags stay local
    one = decimal.Decimal(1)
    perm = list(range(n))
    # step s reduces A_ij by f_i^s R_j^s - f_j^s R_i^s.  Index i keeps its
    # history twice, interleaved: G[i] = [1, f_i^0, R_i^0, f_i^1, ...] and
    # H[i] = [slot, -R_i^0, f_i^0, -R_i^1, ...]; with a_tj in the slot of
    # H[j], G[t] . H[j] is the reduced A_tj
    G = [[one] for _ in range(n)]
    H = [[one] for _ in range(n)]

    def strip(t, js):
        """Reduced entries (t, j), j in js, from the upper triangle of
        ``A`` alone."""
        pt = perm[t]
        for j in js:
            pj = perm[j]
            H[j][0] = A[pt][pj] if pt < pj else -A[pj][pt]
        return [dec.plus(sum(map(mul, G[t], H[j]))) for j in js]

    mag = one
    sign = 1
    with decimal.localcontext(prec.wide):
        for k in range(0, n, 2):
            col = strip(k, range(k + 1, n))    # A_kj; column k is -A_kj
            p = max(range(n - k - 1), key=lambda j: abs(col[j]))
            entry = col[p]
            if entry == 0:
                return 0, -math.inf
            if p:
                q = k + 1 + p
                for h in (perm, G, H):
                    h[q], h[k + 1] = h[k + 1], h[q]
                col[p] = col[0]
                sign = -sign
            if entry < 0:
                sign = -sign
            mag *= abs(entry)
            row = strip(k + 1, range(k + 2, n))
            for j in range(k + 2, n):
                fj, rj = dec.divide(col[j - k - 1], entry), row[j - k - 2]
                G[j] += (fj, rj)
                H[j] += (-rj, fj)
    return sign, prec.from_decimal(dec.ln(mag))


def rkpw(nodes, weights, n: int) -> list:
    """Recurrence coefficients beta_0 .. beta_(n-1) of the discrete measure
    sum_i weights_i delta(x - nodes_i), for real nodes and positive weights.

    The rational Gragg-Harrod update (RKPW; Gautschi, *Orthogonal
    Polynomials*, 2004, Algorithm 2.5), truncated to n coefficients: it
    adds one node at a time and chases the bulge down the Jacobi matrix
    in squared quantities, with no square root and no moment.  The n x n
    moment matrix has determinant prod_j beta_j^(n-j).  Runs on the
    scalars it is given: floats, Decimals in the current decimal context,
    or mpf at any precision.
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


def brute_force_logZ(c: Couplings) -> float:
    """Exact trace over all 2^(L*M) configurations.

    The sites form lines of min(L, M) spins along the longer side; tables
    from `_bond_list` of the energy each line adds, per state of it and of
    the line before, broadcast line by line into the energy of every
    configuration, in chunks of at most 2^20.  Compensated summation of
    the chunk sums leaves rounding only in the energies and in exp.
    """
    n = c.sites
    if n > BRUTE_MAX_SPINS:
        raise RouteInfeasibleError(
            f"{n} spins exceed the configuration-sum cap "
            f"{BRUTE_MAX_SPINS}; use the spin-transfer route")
    bonds = _bond_list(c)
    emax = sum(k for _a, _b, k in bonds)
    width, lines = min(c.L, c.M), max(c.L, c.M)
    spin = [(np.arange(1 << width) >> p) & 1 for p in range(width)]
    # step[j][t, s]: the energy line j adds in state t after line j - 1 in
    # state s, less emax on line 0, which reads column 0.  The newest line
    # leads each energy array, so broadcasts loop over the earlier lines.
    step = np.zeros((lines, 1 << width, 1 << width))
    step[0, :, 0] -= emax
    for a, b, k in bonds:
        # site l * M + m is spin m of line l, or spin l of line m
        (la, pa), (lb, pb) = sorted(divmod(x, c.M)[::1 if c.M <= c.L else -1]
                                    for x in (a, b))
        if la == lb:
            step[la] += k * (1 - 2 * (spin[pa] ^ spin[pb]))[:, None]
        else:
            step[lb] += k * (1 - 2 * (spin[pb][:, None] ^ spin[pa]))

    def grow(e, t):
        return (t[..., None] + e).reshape(1 << width, -1)
    # the head lines' configurations are taken one per chunk of the rest
    head = lines - min(lines, 20 // width)
    energy = reduce(grow, step[1:head + 1], step[0, :, :1])
    return emax + math.log(math.fsum(
        float(np.sum(np.exp(reduce(grow, step[head + 1:], energy[:, [r]]))))
        for r in range(energy.shape[1])))


@lru_cache(maxsize=SPIN_MAX_WIDTH + 1)
def _disagreements(M: int) -> np.ndarray:
    """Read-only table of the disagreeing neighbour pairs of each of the
    2^M column states (bit m is spin m)."""
    # bit m of s ^ (s >> 1) is s_m != s_{m+1}, for m < M - 1
    d = np.array([((s ^ (s >> 1)) & ((1 << (M - 1)) - 1)).bit_count()
                  for s in range(1 << M)])
    d.setflags(write=False)
    return d


@lru_cache(maxsize=SPIN_MAX_WIDTH + 1)
def _hamming(n: int) -> np.ndarray:
    """Read-only 2^n x 2^n table of the Hamming distances of n-bit states."""
    h = np.array([[(s ^ t).bit_count() for t in range(1 << n)]
                  for s in range(1 << n)])
    h.setflags(write=False)
    return h


def spin_transfer_logZ(c: Couplings) -> float:
    """Row-transfer reference over the flip-even half of 2^M column states.

    Z = 1^T D (B D)^(L-1) 1, with D the column weights and B the symmetric
    bond transfer: from u_0 = D 1, r_j = B u_(j-1) and u_j = D r_j, Z is
    u_m^T r_m for L - 1 = 2m and u_m^T B u_m for L - 1 = 2m + 1, ceil((L -
    1) / 2) row products.  B commutes with the global spin flip F, so B(u +
    F u) = B u + F B u carries the half u whose top bit is 0, at 2^(M-1)
    (2^ceil(M/2) + 2^floor(M/2)) multiply-adds a product.  Swaps the system
    first if that brings the state width under the cap; Z is swap invariant.
    """
    if c.M > SPIN_MAX_WIDTH:
        if c.L <= SPIN_MAX_WIDTH:
            return spin_transfer_logZ(swap_system(c))
        raise RouteInfeasibleError(
            f"min extent {min(c.M, c.L)} exceeds cap {SPIN_MAX_WIDTH}")
    M = c.M
    a, b = M - M // 2, M // 2
    h = 1 << (a - 1)
    # the column energy K_v * (agreeing - disagreeing pairs) peaks at
    # |K_v| (M - 1), on the uniform (K_v > 0) or staggered (K_v < 0) column
    cmax = abs(c.K_v) * (M - 1)
    w_col = np.exp(c.K_v * ((M - 1) - 2 * _disagreements(M)[:h << b])
                   - cmax).reshape(h, 1 << b)
    # horizontal bonds: the n-fold Kronecker power of the 2 x 2 bond block
    # scaled by e^{-|K_h|} is e^{K_h (n - 2 H) - n |K_h|} at Hamming
    # distance H, on the high (B_a, carried columns) and low (B_b) bits
    B_a, B_b = (np.exp(c.K_h * (n - 2 * _hamming(n)[:, :m]) - n * abs(c.K_h))
                for n, m in ((a, h), (b, 1 << b)))
    # the weights lie in [e^-2cmax, 1] and [e^-2M|K_h|, 1], so a row moves
    # the log of the largest entry (0 in w_col) at most M ln 2 up and 2 (cmax
    # + M|K_h|) down: rescaled every ``every`` rows, it stays in e^+-300.
    # Z is quadratic in u, so a rescale by s adds 2 log s
    every = max(1, int(300 // max(M * math.log(2),
                                  2 * (cmax + M * abs(c.K_h)))))
    log_z, u, r = c.L * cmax + (c.L - 1) * M * abs(c.K_h), w_col, 1.0
    for row in range(1, c.L // 2 + 1):     # ceil((L - 1) / 2) products
        if row % every == 0:
            s = u.max()
            log_z += 2 * math.log(s)
            u = u / s
        p = B_a @ (u @ B_b)                 # B u on all 2^M states
        r = p[:h] + p[::-1, ::-1][:h]       # B u + F B u
        left, u = u, r * w_col
    # Z = u_m^T r_m or u_m^T B u_m: over u_m's largest entry, in [1, 2^M
    # e^2cmax], as D <= 1 and B holds 1 on its diagonal or flip diagonal
    u = u if c.L % 2 else left
    s = u.max()
    z = 2 * float((u / s * (r / s)).sum())
    return log_z + 2 * math.log(s) + math.log(z)


# ----------------------------------------------------------------------
# block-transfer determinant route
# ----------------------------------------------------------------------

def _log_z0(w: Weights, L, M, ctx):
    """Boundary-state prefactor of the squared partition function."""
    return (M / 2) * ctx.log(1 - w.z * w.z) + (L * M / 2) * ctx.log(-2 / w.z_minus)


def _route_pipeline(c: Couplings, prec, pipeline, below=False):
    """(pipeline, precision) of a structured route: ``pipeline``, which
    must be for ``c`` and at ``prec`` if that is given (or, if ``below``,
    under it), or else a new one at ``prec``; and ``prec``, or the
    pipeline's.  Refuses odd M, which none of them can run."""
    if c.M % 2:
        raise RouteInfeasibleError("odd M")
    if pipeline is None:
        pipeline = SystemPipeline(c, prec)
    elif pipeline.c != c:
        raise DomainError("the pipeline was built for another system")
    prec = pipeline.prec if prec is None else as_precision(prec)
    if prec.bits < pipeline.prec.bits or (prec != pipeline.prec
                                          and not below):
        raise DomainError(f"the pipeline runs at {pipeline.prec.bits} bits, "
                          f"not at {prec.bits}")
    return pipeline, prec


def block_transfer_logZ(c: Couplings, prec: Precision | None = None,
                        pipeline: SystemPipeline = None):
    """log Z from the projected L-th power of the transfer matrix.

    The determinant argument factorizes exactly through the projector
    algebra into the square of a half-power matrix, whose determinant is
    evaluated with log-scaled rows; the positive square root is physical.
    Runs at any modulus including the critical point, on the unchecked
    family eigensystem of ``pipeline`` (a new one at ``prec`` if None).
    Its diagnostics' ``lu_loss_digits`` is `logdet_scaled`'s ``loss``.
    """
    pipeline, prec = _route_pipeline(c, prec, pipeline)
    w, _bundle, pts = pipeline.family()
    M, L = c.M, c.L
    # row i: e^(L gamma_i / 2) times the even part of eigenvector i plus
    # e^(-L gamma_i / 2) times its odd part, both scaled by e^-a_i with
    # a_i = L |gamma_i| / 2: one factor is 1, the other e^(-L |gamma_i|)
    V = np.array([p.eigvec for p in pts])
    with decimal.localcontext(prec.decimal):
        if prec.is_float:
            ep = [math.exp(L * min(p.gamma, 0)) for p in pts]
            em = [math.exp(-L * max(p.gamma, 0)) for p in pts]
            shifts = sum(abs(p.gamma) * L / 2 for p in pts)
        else:
            one = decimal.Decimal(1)
            ep = [min(p.lam, one) ** L for p in pts]
            em = [max(p.lam, one) ** -L for p in pts]
            shifts = prec.from_decimal(
                _fsum(prec)(abs(p.gamma) for p in pts) * L / 2)
        half = (np.array(ep)[:, None] * ((V + V[:, ::-1]) / 2)
                + np.array(em)[:, None] * ((V - V[:, ::-1]) / 2))
    sign, log_det, loss = logdet_scaled(half, prec)
    if not sign:
        raise PhaseLeakError("singular projected determinant")
    log_z = _log_z0(w, L, M, prec.ctx) + log_det + shifts
    return log_z, {"lu_loss_digits": loss}


# ----------------------------------------------------------------------
# Hankel and skew-Toeplitz routes
# ----------------------------------------------------------------------

@dataclass
class HankelSystem:
    """Half-size Hankel system: moments, matrix and prefactor.

    ``h_scaled[n-1]`` holds h_n * exp(-log_shift); the matrix rows use the
    same shift, so ``det H = exp(M/2 * log_shift) * det(rows)``; moments
    and ``rows`` are binary64, or Decimals at extended precision, and the
    two logs context reals.
    """

    M: int
    log_shift: object
    h_scaled: list
    rows: np.ndarray
    log_z1: object

    def h(self, n: int):
        return self.h_scaled[n - 1]

    def logdet(self, prec: Precision) -> tuple:
        """(sign, log |det H|, loss), as `logdet_scaled` gives them."""
        sign, log_abs, loss = logdet_scaled(self.rows, prec)
        return sign, log_abs + self.M / 2 * self.log_shift, loss


@dataclass
class SkewToeplitzSystem:
    """Skew-symmetric Toeplitz system; ``rows`` is an array like
    `HankelSystem.rows`, and the prefactor is the Hankel one."""

    M: int
    log_shift: object
    c_scaled: list            # c_1 .. c_{M-1}, first column below diagonal
    rows: np.ndarray

    def log_pfaffian(self, prec: Precision) -> tuple:
        """(sign, log |Pf|), as `pfaffian` gives them."""
        sign, log_abs = pfaffian(self.rows, prec)
        return sign, log_abs + self.M / 2 * self.log_shift


def _log_z1_value(w: Weights, L, M, ctx):
    """Prefactor of the structured-determinant representations."""
    return (-(ctx.mpf(L) / 2) * ctx.log(w.t)
            + (ctx.mpf(M) / 2) * ctx.log(w.z)
            + (ctx.mpf(L) * M / 2) * ctx.log(-2 / w.z_minus))


def _spectral_measure(points, c: Couplings, w: Weights):
    """The positive measure of the symbol both structured matrices read, on
    the route scalars of the precision of ``w``: the log shift (a context
    real), the nodes chi_i and the weights b_i.  Refuses odd M.

    b_i = 2 t* e^(L gamma_i - shift) (lambda_n - lam_i) / ((t - z lam_i)
    P'(chi_i)) with lambda_n = t z: the residue of the symbol at chi_i,
    equal to the angle form 2i t* e^(L gamma_i - shift) e^(-theta_i)
    e^(psi_i) / P'(chi_i) (`chi_poly_derivatives`).  The shift is L
    gamma_max; at extended precision e^(L gamma_i - shift) is (lam_i /
    lam_max)^L.  A weight that is NaN, infinite or zero (a binary64
    underflow of e^(L gamma - shift)) fails with `NonFiniteError`; a
    negative one, with `PhaseLeakError`.
    """
    if c.M % 2:
        raise RouteInfeasibleError("structured routes require even M")
    prec = w.prec
    isfinite = _isfinite(prec)
    real = (lambda x: x) if prec.is_float else prec.to_decimal
    with decimal.localcontext(prec.decimal):
        lams, chis = ([real(getattr(p, name)) for p in points]
                      for name in ("lam", "chi"))
        shift = c.L * max(real(p.gamma) for p in points)
        if prec.is_float:
            growth = [math.exp(c.L * p.gamma - shift) for p in points]
        else:
            top = max(lams)
            growth = [(lam / top) ** c.L for lam in lams]
            shift = prec.from_decimal(shift)
        t_star, lam_n, t, z = map(real, (w.t_star, w.lambda_n, w.t, w.z))
        weights = []
        derivs = chi_poly_derivatives([p.chi for p in points])
        for i, (lam, g, dp) in enumerate(zip(lams, growth, derivs)):
            b = (2 * t_star * g * (lam_n - lam) / ((t - z * lam) * real(dp)))
            if not (isfinite(b) and b):
                raise NonFiniteError(
                    f"spectral weight {float(b):.6g} at chi = "
                    f"{float(points[i].chi):.6g} is zero or non-finite")
            if b < 0:
                raise PhaseLeakError(
                    f"spectral weight {float(b):.6g} is not positive")
            weights.append(b)
        return shift, chis, weights


def hankel_from_spectrum(points, c: Couplings, w: Weights,
                         frame: EllipticFrame) -> HankelSystem:
    """The Hankel moments e^-shift h_n = sum_i b_i chi_i^(n-1) of the
    spectral measure, on its route scalars: real running terms, each
    moment one accurate sum (`_fsum`).  ``frame`` is not read."""
    M = c.M
    prec = w.prec
    shift, chis, terms = _spectral_measure(points, c, w)
    fsum = _fsum(prec)
    h = []
    with decimal.localcontext(prec.decimal):
        for _n in range(1, M):
            h.append(fsum(terms))
            terms = [t * x for t, x in zip(terms, chis)]
    r = np.arange(M // 2)
    rows = np.array(h)[np.add.outer(r, r)]
    return HankelSystem(M=M, log_shift=shift, h_scaled=h, rows=rows,
                        log_z1=_log_z1_value(w, c.L, M, prec.ctx))


def skew_toeplitz_from_spectrum(points, c: Couplings, w: Weights,
                                measure=None, prec=None) -> SkewToeplitzSystem:
    """Assemble the skew-symmetric Toeplitz matrix from the spectral
    measure, on the route scalars of ``prec`` (of ``w`` if None), which
    ``measure`` (the `_spectral_measure` of ``points`` if None) holds.

    e^-shift c_d = -sum_i b_i U_(d-1)(chi_i/2 - 1): the terms b_i
    sin(d phi_i)/sin(phi_i) follow the Chebyshev three-term recurrence, so
    no angle is evaluated and nothing is divided by sin(phi); on arrays,
    each entry one accurate sum, as the scalar recurrence gives it.  Entries
    depend on the index difference only and are indexed out of the one
    vector (-c_(M-1), ..., -c_1, 0, c_1, ..., c_(M-1)), so antisymmetry
    and the Toeplitz structure hold exactly.
    """
    M = c.M
    prec = prec or w.prec
    if measure is None:
        measure = _spectral_measure(points, c, w)
    shift, chis, terms = measure
    fsum = _fsum(prec)
    with decimal.localcontext(prec.decimal):
        terms, prev = np.array(terms), 0    # b_i U_0 and b_i U_(-1) = 0
        twice_cos = np.array(chis) - 2      # 2 cos(phi_i)
        cs = []
        for _d in range(1, M):
            cs.append(-fsum(terms.tolist()))
            terms, prev = twice_cos * terms - prev, terms
        signed = np.array([-x for x in reversed(cs)] + [type(cs[0])(0)]
                          + cs)
    r = np.arange(M)
    rows = signed[np.subtract.outer(r, r) + (M - 1)]
    return SkewToeplitzSystem(M=M, log_shift=shift, c_scaled=cs, rows=rows)


def _checked_measure(c: Couplings, pipeline: SystemPipeline):
    """(weights, points, measure) of a structured spectral route on
    ``pipeline``, at any modulus: its checked eigensystem and its
    `_spectral_measure`.  The measure is the pipeline's ``measure`` stage,
    so the Hankel and Pfaffian routes form it once, and one that raised
    raises for both."""
    w, _bundle, pts = pipeline.checked()
    measure = pipeline._stage("measure",
                              lambda: _spectral_measure(pts, c, w))
    return w, pts, measure


def hankel_logZ(c: Couplings, prec: Precision | None = None,
                pipeline: SystemPipeline = None):
    """log Z through the Hankel determinant, at any modulus, on the checked
    eigensystem of ``pipeline`` (a new one at ``prec`` if None).

    H is the moment matrix of the positive measure of `_spectral_measure`,
    so det H = prod_j beta_j^(n-j) over its recurrence coefficients, from
    `rkpw` on the weights scaled by the largest; no moment is formed.  A
    beta that is not positive and finite fails with `NonFiniteError`, and
    in binary64 so does a scaled weight below the normal range (2.2e-308),
    where underflow has eaten its digits: `fan_out` then retries at 160
    bits, where exponents are unbounded.  Extended precision scales
    by division, not in the log domain, and takes one log of the product
    of the beta powers.
    """
    pipeline, prec = _route_pipeline(c, prec, pipeline)
    w, _pts, measure = _checked_measure(c, pipeline)
    shift, chis, weights = measure
    n = c.M // 2
    with decimal.localcontext(prec.decimal):
        if prec.is_float:
            log_b = [math.log(b) for b in weights]
            top, bottom = max(log_b), min(log_b)
            if math.exp(bottom - top) < sys.float_info.min:
                raise NonFiniteError(
                    f"spectral weights span {float(top - bottom):.1f} "
                    f"e-folds, past the binary64 range")
            scaled = [math.exp(lb - top) for lb in log_b]
        else:
            big = max(weights)
            scaled = [b / big for b in weights]
            top, bottom = big.ln(), min(weights).ln()
        spread = float(top - bottom) / math.log(10)
        betas = rkpw(chis, scaled, n)
        if not all(_isfinite(prec)(b) and b > 0 for b in betas):
            raise NonFiniteError("a recurrence coefficient of the spectral "
                                 "measure is not positive and finite")
        if prec.is_float:
            log_det = prec.ctx.fsum((n - j) * math.log(b)
                                    for j, b in enumerate(betas))
        else:
            top, log_det = map(prec.from_decimal, (top, math.prod(
                b ** (n - j) for j, b in enumerate(betas)).ln()))
    log_z = _log_z1_value(w, c.L, c.M, prec.ctx) + log_det + n * (shift + top)
    return log_z, {"weight_spread_digits": spread}


def pfaffian_logZ(c: Couplings, prec: Precision | None = None,
                  pipeline: SystemPipeline = None):
    """log Z through the Pfaffian of the skew Toeplitz matrix, on the
    checked eigensystem of ``pipeline`` (a new one at ``prec`` if None),
    whose measure a pipeline below ``prec`` converts exactly: the entries
    and Parlett-Reid, where the route loses digits (D10), run at ``prec``.
    Refuses the critical modulus, where its binary64 and 160-bit
    factorizations lose digits with the size, before the eigensystem."""
    pipeline, prec = _route_pipeline(c, prec, pipeline, below=True)
    if is_critical(pipeline.weights().k):
        raise RouteInfeasibleError("critical modulus")
    w, pts, measure = _checked_measure(c, pipeline)
    if prec != pipeline.prec:
        shift, chis, weights = measure
        measure = (prec.ctx.mpf(shift),
                   *([decimal.Decimal(x) for x in xs] for xs in (chis, weights)))
    st = skew_toeplitz_from_spectrum(pts, c, w, measure, prec)
    sign, log_pf = st.log_pfaffian(prec)
    if sign <= 0:
        raise PhaseLeakError(f"the Pfaffian has sign {sign}, not +1")
    return _log_z1_value(w, c.L, c.M, prec.ctx) + log_pf, {}


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

    ``pipeline_seconds`` is the time the structured routes spent on shared
    work (weights, matrices, eigensystem, joint check, spectral measure),
    left out of their ``seconds``; ``pipeline`` is the last they ran on.
    """

    couplings: Couplings
    route: str
    k: float
    eta_im_over_Kprime: float
    outcomes: dict
    pipeline_seconds: float = 0.0
    pipeline: SystemPipeline = field(default=None, repr=False, compare=False)

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
        """Relative spread of the ``ok`` outcomes, ``swap`` included."""
        vals = [o.logZ for o in self.outcomes.values() if o.status == "ok"]
        if len(vals) < 2:
            return 0.0
        lo, hi = min(vals), max(vals)
        return abs(hi - lo) / max(1.0, abs(hi))


def default_precision(route: str = "all") -> Precision:
    """Binary64 at every size and modulus, the critical one and its
    neighbourhood included, except for a single ``pfaffian`` route.

    A single route has no cross-check, and `fan_out` retries it only when
    it fails; the binary64 Pfaffian can come out ok but wrong (from 10 x 12
    on, D10), so a single ``pfaffian`` route keeps 160 bits at every size.
    """
    return Precision(160) if route == "pfaffian" else FLOAT64


def _run_route(c: Couplings, name: str, pipe: SystemPipeline,
               prec: Precision) -> RouteOutcome:
    """Run one route: the structured ones at ``prec`` and on the shared
    work of ``pipe``, whose build time is left out of the route's seconds.
    A route that refuses the system is ``skipped``; one that raises an
    `ArithmeticError`, or whose log Z is not finite (Z zero or beyond
    every range), ``failed``.  ``swap`` is the outcome of the first of
    spin, block and brute that runs alone on `swap_system` (c), named as
    its ``reference_route``; spin over its cap would repeat itself there."""
    if name == "swap":
        refs = ("spin", "block", "brute")[max(c.L, c.M) > SPIN_MAX_WIDTH:]
        for ref in refs:
            out = assemble_logZ(swap_system(c), ref).outcomes[ref]
            if out.status != "skipped":
                out.name, out.diagnostics["reference_route"] = name, ref
                return out
        return RouteOutcome(name, "skipped", reason="no reference route runs")
    t0, shared0 = time.perf_counter(), pipe.seconds
    try:
        if name in STRUCTURED_ROUTES:
            route = {"block": block_transfer_logZ, "hankel": hankel_logZ,
                     "pfaffian": pfaffian_logZ}[name]
            lz, diag = route(c, prec, pipe)
        else:
            oracle = brute_force_logZ if name == "brute" else spin_transfer_logZ
            lz, diag = oracle(c), {}
        lz = float(lz)
        if not math.isfinite(lz):
            raise NonFiniteError(f"log Z came out {lz}, not finite")
        out = RouteOutcome(name, "ok", logZ=lz, diagnostics=diag)
    except RouteInfeasibleError as exc:
        out = RouteOutcome(name, "skipped", reason=str(exc))
    except ArithmeticError as exc:
        out = RouteOutcome(name, "failed", reason=str(exc))
    out.seconds = time.perf_counter() - t0 - (pipe.seconds - shared0)
    out.precision_bits = prec.bits if name in STRUCTURED_ROUTES else 53
    return out


def fan_out(result: PartitionResult, names) -> None:
    """Run the routes ``names`` into ``result`` on its pipeline.  If that
    is binary64 and the outcomes of ``result`` then disagree by more than
    ESCALATION_DEV, or a structured one of ``names`` failed, the
    structured ones of ``names`` rerun once at 160 bits, on a new pipeline
    that the result keeps; the Pfaffian alone reruns on the binary64 one.
    A single route climbs on failure alone; ``("swap",)`` never climbs."""
    c, pipe = result.couplings, result.pipeline
    prec = pipe.prec
    while True:
        shared0 = pipe.seconds
        for name in names:
            result.outcomes[name] = _run_route(c, name, pipe, prec)
        result.pipeline_seconds += pipe.seconds - shared0
        names = [n for n in names if n in STRUCTURED_ROUTES]
        if not (names and prec.is_float and (
                result.max_pairwise_dev > ESCALATION_DEV or any(
                    result.outcomes[n].status == "failed" for n in names))):
            return
        prec = Precision(160)
        if names != ["pfaffian"]:
            result.pipeline = pipe = SystemPipeline(c, prec)


def assemble_logZ(c: Couplings, route: str = "all",
                  prec: Precision | None = None) -> PartitionResult:
    """Run one route, or with ``route='all'`` the spin oracle, block and
    Hankel, through `fan_out`, at ``prec`` or at `default_precision` for
    the route.  The structured routes of one precision share one
    `SystemPipeline`; the binary64 one's weights also give the modulus and
    the anisotropy report (`eta_over_Kprime`, NaN at the critical
    modulus), so no elliptic frame is built.
    """
    if route != "all" and route not in ROUTES:
        raise DomainError(f"unknown route {route!r}")
    pipe = SystemPipeline(c, FLOAT64)
    w = pipe.weights()
    k = float(w.k)
    eta_frac = (float("nan") if is_critical(w.k)
                else float(eta_over_Kprime(w)))
    chosen = default_precision(route) if prec is None else as_precision(prec)
    if not chosen.is_float:
        pipe = SystemPipeline(c, chosen)
    result = PartitionResult(c, route, k, eta_frac, {}, pipe.seconds, pipe)
    fan_out(result, ["spin", "block", "hankel"] if route == "all" else [route])
    return result
