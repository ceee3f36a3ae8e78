"""Acceptance criteria.

Every criterion runs at its stated tolerance and prints one pass/fail
line.  The couplings grid pairs the isotropic point (modulus below the
transition) with the anisotropic pair in both orientations (modulus above
it), so both phases are exercised throughout.
"""

import math
import random
import time

import numpy as np

from rectising.contour import ContourContext, contour_coefficients, default_contour
from rectising.elliptic import EllipticKernel, get_kernel, incomplete_F
from rectising.errors import PoleError
from rectising.identities import run_identity_suite
from rectising.params import Couplings, couplings_from_modulus, swap_system
from rectising.partition import (
    assemble_logZ,
    block_transfer_logZ,
    hankel_from_spectrum,
    hankel_logZ,
    pfaffian_logZ,
    skew_toeplitz_from_spectrum,
)
from rectising.precision import FLOAT64, Precision
from rectising.spectrum import spectrum_for

GEOMETRIES = [(2, 2), (3, 4), (4, 4), (5, 6), (4, 8)]
COUPLING_SET = [(0.3, 0.3), (0.4, 0.7), (0.7, 0.4)]

_CACHE = {}


def _grid():
    return [Couplings(kh, kv, L, M)
            for (L, M) in GEOMETRIES for (kh, kv) in COUPLING_SET]


def _assemble(c):
    key = (c.K_h, c.K_v, c.L, c.M)
    if key not in _CACHE:
        _CACHE[key] = assemble_logZ(c, "all")
    return _CACHE[key]


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_1_route_equality():
    t0 = time.perf_counter()
    worst = 0.0
    ks = set()
    for c in _grid():
        res = _assemble(c)
        ks.add(res.k < 1)
        ok_routes = [o for o in res.outcomes.values() if o.status == "ok"]
        assert len(ok_routes) >= 3
        assert any(o.name in ("brute", "spin") for o in ok_routes)
        worst = max(worst, res.max_pairwise_dev)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10 and ks == {True, False}
    assert _report(1, ok,
                   f"route equality over {len(_grid())} systems, both "
                   f"phases: worst pairwise rel dev {worst:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_2_pfaffian_equals_determinant():
    worst = 0.0
    systems = _grid() + [Couplings(0.4, 0.7, 10, 6), Couplings(0.4, 0.7, 6, 10),
                         Couplings(0.3, 0.3, 10, 6), Couplings(0.3, 0.3, 6, 10)]
    checked = escalated = 0
    for c in systems:
        if c.M % 2:
            continue
        prec = FLOAT64
        for attempt in range(2):
            w, fr, _b, pts = spectrum_for(c, prec)
            hs = hankel_from_spectrum(pts, c, w, fr)
            ss = skew_toeplitz_from_spectrum(pts, c, w)
            det_sign, det, loss = hs.logdet(prec)
            pf_sign, pf = ss.log_pfaffian(prec)
            # the check is only as good as the determinant conditioning:
            # if cancellation eats past the demanded digits, measure at
            # extended precision instead (the identity itself is exact)
            if attempt == 0 and loss > 6.5:
                prec = Precision(160)
                escalated += 1
                continue
            break
        dev = abs(float(det - pf)) / max(1.0, abs(float(det)))
        dev = max(dev, abs(det_sign - pf_sign))
        worst = max(worst, dev)
        checked += 1
    ok = worst < 1e-9
    assert _report(2, ok, f"Pfaffian equals Hankel determinant on "
                          f"{checked} systems ({escalated} needed extended "
                          f"precision): worst rel dev {worst:.2e}")


def test_criterion_3_contour_sum_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for (k, frac, L, M) in ((0.6, 0.9, 5, 6), (0.3, 0.7, 7, 4),
                            (0.95, 0.5, 3, 8)):
        c = couplings_from_modulus(k, frac, L, M)
        cctx = ContourContext.from_couplings(c, with_spectrum=True)
        hs = hankel_from_spectrum(cctx.points, c, cctx.weights, cctx.frame)
        spec = default_contour(cctx.frame)
        res = contour_coefficients(list(range(1, M)), spec, cctx, "chi")
        for n in range(1, M):
            want = complex(hs.h(n)) * math.exp(float(hs.log_shift))
            dev = abs(complex(res[n]) - want) / abs(want)
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5
    assert _report(3, ok, f"contour vs spectral-sum moments, all orders at "
                          f"3 configurations: worst rel dev {worst:.2e}, "
                          f"{elapsed:.1f}s")


def test_criterion_4_swap_invariance():
    worst = 0.0
    for c in _grid():
        res = _assemble(c)
        res_s = _assemble(swap_system(c))
        for o in res.outcomes.values():
            if o.status != "ok":
                continue
            dev = abs(o.logZ - res_s.logZ) / max(1.0, abs(res_s.logZ))
            worst = max(worst, dev)
    ok = worst < 1e-9
    assert _report(4, ok, f"swap invariance of every feasible route on the "
                          f"grid: worst rel dev {worst:.2e}")


def test_criterion_5_identity_suite():
    t0 = time.perf_counter()
    failed = []
    worst = 0.0
    for k in (0.6, 0.95):
        for frac in (0.5, 0.9):
            for M in (4, 6, 8):
                c = couplings_from_modulus(k, frac, 5, M)
                rep = run_identity_suite(c, tol=1e-9, samples=12, seed=1)
                if rep.failed:
                    failed.append((k, frac, M))
                worst = max(worst, rep.worst.max_abs_residual)
    c = couplings_from_modulus(1.66, 0.9, 5, 6)
    rep = run_identity_suite(c, tol=1e-8, samples=12, seed=1)
    if rep.failed:
        failed.append((1.66, 0.9, 6))
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed < 20
    assert _report(5, ok, f"identity suite on 12 disordered + 1 ordered "
                          f"configurations: failures {failed}, worst gated "
                          f"residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_quantization():
    worst_dis, worst_ord = 0.0, 0.0
    for c in _grid():
        if c.M % 2:
            continue
        w, _fr, _b, pts = spectrum_for(c)
        q = max(p.quant_residual for p in pts)
        if float(w.k) < 1:
            worst_dis = max(worst_dis, q)
        else:
            worst_ord = max(worst_ord, q)
    ok = worst_dis < 1e-9 and worst_ord < 1e-6
    assert _report(6, ok, f"eigenvalue quantization: worst residual "
                          f"{worst_dis:.2e} below / {worst_ord:.2e} above "
                          f"the transition")


def test_criterion_7_elliptic_kernel():
    rng = random.Random(123)
    worst_sq = 0.0
    worst_scaled = 0.0
    for k in (0.3, 0.6, 0.95):
        kern = EllipticKernel(k)
        K, Kp = float(kern.K), float(kern.K_prime)
        count = 0
        while count < 1000:
            u = complex(rng.uniform(-K, K), rng.uniform(-Kp, Kp))
            try:
                sn, cn, dn = kern.sncndn(u)
            except PoleError:
                continue
            count += 1
            r = max(abs(sn * sn + cn * cn - 1),
                    abs((k * sn) ** 2 + dn * dn - 1))
            # the absolute tolerance presumes order-unity function values;
            # the residual of the exact identity scales as |sn|^2 eps, so
            # points closer than 3e-2 K' to the pole lattice are checked
            # through the scaled residual instead
            if min(abs(u - 1j * Kp), abs(u + 1j * Kp)) > 3e-2 * Kp:
                worst_sq = max(worst_sq, r)
            worst_scaled = max(worst_scaled, r / max(1.0, abs(sn) ** 2))
    worst_rt = 0.0
    for j in range(100):
        phi = -math.pi / 2 + math.pi * (j + 0.5) / 101
        u = incomplete_F(phi, 0.6)
        worst_rt = max(worst_rt, abs(complex(get_kernel(0.6).am(u)) - phi))
    worst_add = 0.0
    kern = EllipticKernel(0.6)
    for _ in range(200):
        u = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        v = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        try:
            lhs = 0.6 * kern.sncndn(u)[0] * kern.sncndn(v)[0]
            _, cm, dm = kern.sncndn(u - v)
            _, cp, dp = kern.sncndn(u + v)
        except PoleError:
            continue
        if abs(dm + dp) > 1e-3:
            worst_add = max(worst_add, abs(lhs - 0.6 * (cm - cp) / (dm + dp))
                            / max(1.0, abs(lhs)))
    ok = (worst_sq < 1e-12 and worst_scaled < 1e-14
          and worst_rt < 1e-11 and worst_add < 1e-10)
    assert _report(7, ok, f"kernel: squares {worst_sq:.2e} "
                          f"(scaled {worst_scaled:.2e}) over 3x1000 points, "
                          f"roundtrip {worst_rt:.2e}, addition theorem "
                          f"{worst_add:.2e}")


def test_criterion_8_block_identity():
    rng = np.random.default_rng(17)
    worst_block, worst_classic = 0.0, 0.0
    for M in (4, 6, 8):
        for _ in range(3):
            x = np.sort(rng.uniform(-2, 2, size=M))
            while np.min(np.diff(x)) < 5e-2:
                x = np.sort(rng.uniform(-2, 2, size=M))
            g = rng.uniform(0.5, 2.0, size=M)
            dP = np.array([np.prod([xi - xj for xj in x if xj != xi])
                           for xi in x])
            N = M // 2
            V = np.vander(x, N, increasing=True)
            VG = np.hstack([V, g[:, None] * V])
            H = VG.T @ np.diag(1 / dP) @ VG
            scale = np.max(np.abs(H))
            worst_block = max(worst_block,
                              float(np.max(np.abs(H[:N, :N])) / scale))
            Vf = np.vander(x, M, increasing=True)
            Hf = Vf.T @ np.diag(1 / dP) @ Vf
            coeffs = np.poly(x)[::-1]
            Hinv = np.array([[coeffs[i + j + 1] if i + j + 1 <= M else 0.0
                              for j in range(M)] for i in range(M)])
            res = np.max(np.abs(Hf @ Hinv - np.eye(M))) / max(1.0,
                                                              np.max(np.abs(Hf)))
            bal = abs(np.linalg.det(Vf) ** 2 * np.prod(1 / dP)
                      - (-1.0) ** (M // 2))
            worst_classic = max(worst_classic, float(res), float(bal))
    ok = worst_block < 1e-10 and worst_classic < 1e-9
    assert _report(8, ok, f"block factorization: vanishing quarter "
                          f"{worst_block:.2e}, classical factorization "
                          f"{worst_classic:.2e}")


def test_criterion_9_precision_escalation():
    t0 = time.perf_counter()
    c = couplings_from_modulus(0.9, 1.0, 24, 16)
    p = Precision(160)
    hi_h, _ = hankel_logZ(c, p)
    hi_b, _ = block_transfer_logZ(c, p)
    dev = abs(float(hi_h - hi_b)) / abs(float(hi_b))
    # the binary64 Pfaffian is permitted to fail here; record its
    # deviation and the digits it loses
    lo_p, _ = pfaffian_logZ(c, FLOAT64)
    lo_dev = abs(float(lo_p - hi_b)) / abs(float(hi_b))
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-15 and elapsed < 60
    assert _report(9, ok, f"24x16 near criticality: 160-bit routes agree to "
                          f"{dev:.2e}; the binary64 Pfaffian deviates by "
                          f"{lo_dev:.2e}, losing "
                          f"{math.log10(lo_dev / FLOAT64.eps):.0f} digits, "
                          f"{elapsed:.1f}s")
