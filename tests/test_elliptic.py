"""Elliptic kernel tests.

Oracles used here are independent of the kernel code paths: a local AGM
iteration for the complete integral, adaptive quadrature of the defining
integral for the incomplete one, and mpmath's theta-function based Jacobi
functions for complex-argument cross-checks.
"""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from rectising.elliptic import (
    EllipticKernel,
    carlson_rf,
    get_kernel,
    incomplete_F,
)
from rectising.errors import CriticalModulusError, DomainError, PoleError
from rectising.contour import ContourContext, default_contour
from rectising.params import couplings_from_modulus
from rectising.precision import Precision

# frozen from a 30-digit evaluation of the independent oracles
K_06 = 1.750753802915752529
KP_06 = 1.9953027776647293877
F_03_06 = 0.30161415103409025741


def agm_oracle(a, b):
    """Plain arithmetic-geometric mean, written here as the test oracle."""
    for _ in range(60):
        a, b = (a + b) / 2, math.sqrt(a * b)
        if abs(a - b) < 1e-17 * a:
            break
    return a


def quad_oracle_F(phi, k):
    """Adaptive quadrature of the defining first-kind integral."""
    val, err = quad(lambda t: 1 / math.sqrt(1 - (k * math.sin(t)) ** 2),
                    0, phi, epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-12
    return val


class TestCompleteIntegrals:
    def test_small_modulus_limit(self):
        K = get_kernel(1e-10).K
        assert abs(K - math.pi / 2) < 1e-14

    def test_self_complementary(self):
        kern = get_kernel(1 / math.sqrt(2))
        K, Kp = kern.K, kern.K_prime
        assert abs(K - Kp) < 1e-14 * K

    def test_agm_oracle(self):
        kern = get_kernel(0.6)
        K, Kp = kern.K, kern.K_prime
        kp = math.sqrt(1 - 0.36)
        assert abs(K - math.pi / (2 * agm_oracle(1, kp))) <= 1e-14 * K
        assert abs(Kp - math.pi / (2 * agm_oracle(1, 0.6))) <= 1e-14 * Kp
        assert abs(K - K_06) < 1e-14 * K_06
        assert abs(Kp - KP_06) < 1e-14 * KP_06

    def test_critical_signals(self):
        with pytest.raises(CriticalModulusError):
            get_kernel(1.0)
        with pytest.raises(DomainError):
            get_kernel(-0.5)
        with pytest.raises(DomainError):
            get_kernel(0.0)

    def test_ordered_phase_real_parts(self):
        kern = get_kernel(1.66)
        K, Kp = kern.K, kern.K_prime
        kap = 1 / 1.66
        assert abs(K - kap * float(mpmath.ellipk(kap ** 2))) < 1e-14 * K
        assert abs(Kp - kap * float(mpmath.ellipk(1 - kap ** 2))) < 1e-14 * Kp

    def test_extended_precision(self):
        p = Precision(200)
        K = get_kernel(p.ctx.mpf("0.6"), p).K
        with mpmath.workdps(70):
            ref = mpmath.ellipk(mpmath.mpf("0.36"))
            assert abs(mpmath.mpf(K) - ref) < mpmath.mpf("1e-55")


class TestIncompleteF:
    def test_zero(self):
        assert abs(incomplete_F(0.0, 0.6)) == 0

    def test_quarter(self):
        K = get_kernel(0.6).K
        assert abs(incomplete_F(math.pi / 2, 0.6) - K) < 1e-14 * K

    def test_quadrature_oracle(self):
        val = incomplete_F(0.3, 0.6)
        assert abs(val - quad_oracle_F(0.3, 0.6)) < 1e-12
        assert abs(val - F_03_06) < 1e-13

    def test_quasi_periodicity(self):
        K = get_kernel(0.6).K
        f = incomplete_F(0.4 + math.pi, 0.6)
        assert abs(f - (incomplete_F(0.4, 0.6) + 2 * K)) < 1e-12

    def test_imaginary_amplitude(self):
        val = incomplete_F(0.7j, 0.6)
        assert abs(val.real) < 1e-14
        ref = quad(lambda t: 1 / math.sqrt(1 + (0.6 * math.sinh(t)) ** 2),
                   0, 0.7)[0]
        assert abs(val.imag - ref) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_F(0.3, 1.4)

    def test_roundtrip_with_amplitude(self):
        for phi in (-1.2, -0.3, 0.05, 0.8, 1.4):
            u = incomplete_F(phi, 0.6)
            assert abs(get_kernel(0.6).am(u) - phi) < 1e-12


def _line_nodes(k):
    """Kernel of a 5x6 system at modulus k, the default contour levels and
    five off them (past the strip too), and real parts over several
    periods."""
    frame = ContourContext.from_couplings(
        couplings_from_modulus(k, 0.9, 5, 6)).frame
    kern = frame.kernel
    K, Kp = float(kern.K), float(kern.K_prime)
    levels = [y for y, _sign in default_contour(frame).lines(frame)]
    levels += [f * Kp for f in (0.37, -0.81, 1.3, 2.6, -3.7)]
    return kern, levels, -3 * K + np.arange(96) * (K / 16) + 0.013


class TestJacobiFunctions:
    def test_origin(self):
        sn, cn, dn = get_kernel(0.6).sncndn(0.0)
        assert (abs(sn), abs(cn - 1), abs(dn - 1)) == (0, 0, 0)

    def test_trigonometric_degeneration(self):
        sn, cn, dn = get_kernel(1e-9).sncndn(1.1)
        assert abs(sn - math.sin(1.1)) < 1e-12
        assert abs(cn - math.cos(1.1)) < 1e-12
        assert abs(dn - 1) < 1e-12

    def test_square_identities_real(self):
        sn, cn, dn = get_kernel(0.6).sncndn(1.1)
        assert abs(sn ** 2 + cn ** 2 - 1) < 1e-13
        assert abs((0.6 * sn) ** 2 + dn ** 2 - 1) < 1e-13

    @pytest.mark.parametrize("k", [0.3, 0.6, 0.95, 1.66])
    def test_against_mpmath(self, k):
        kern = EllipticKernel(k)
        for u in (0.7 + 0.2j, -0.4 + 1.1j, 1.3 - 0.8j):
            sn, cn, dn = kern.sncndn(u)
            m = k * k
            assert abs(sn - complex(mpmath.ellipfun("sn", u, m))) < 5e-13
            assert abs(cn - complex(mpmath.ellipfun("cn", u, m))) < 5e-13
            assert abs(dn - complex(mpmath.ellipfun("dn", u, m))) < 5e-13

    def test_double_periodicity(self):
        kern = EllipticKernel(0.6)
        u = 0.37 + 0.21j
        K, Kp = kern.K, kern.K_prime
        s0 = kern.sncndn(u)[0]
        assert abs(kern.sncndn(u + 4 * K)[0] - s0) < 1e-10
        assert abs(kern.sncndn(u + 2j * Kp)[0] - s0) < 1e-10

    def test_pole_signal(self):
        kern = get_kernel(0.6)
        with pytest.raises(PoleError):
            kern.sncndn(1j * kern.K_prime)

    @pytest.mark.parametrize("k", [0.3, 0.8, 1.66])
    def test_line_matches_scalar_nodes(self, k):
        # one array evaluation per line gives the scalar triple at every
        # node: on the default contour lines, and off them, past the strip
        # and over several real periods
        kern, levels, xs = _line_nodes(k)
        for y in levels:
            line = kern.sncndn_line(xs, y)
            for j, x in enumerate(xs):
                for got, want in zip(line, kern.sncndn(complex(x, y))):
                    assert abs(got[j] - want) <= 1e-14 * abs(want)
        # a level per node: the levels broadcast against the real parts
        grid = kern.sncndn_line(xs[:, None], np.array(levels))
        for j, x in enumerate(xs):
            for m, y in enumerate(levels):
                for got, want in zip(grid, kern.sncndn(complex(x, y))):
                    assert abs(got[j, m] - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("k", [0.3, 0.8, 1.66])
    def test_line_rows_match_single_levels(self, k):
        # the levels as rows, one Landen pass over the real parts for all
        # of them, give bit for bit one single-level call per level
        kern, levels, xs = _line_nodes(k)
        rows = kern.sncndn_line(xs, levels, rows=True)
        for m, y in enumerate(levels):
            for got, want in zip(rows, kern.sncndn_line(xs, y)):
                assert got.shape == (len(levels), len(xs))
                assert got[m].tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [0.6, 1.66])
    def test_line_rows_pole_signal(self, k):
        # the middle row runs through the pole i K' of sn at x = 0
        kern = EllipticKernel(k)
        Kp = float(kern.K_prime)
        with pytest.raises(PoleError) as info:
            kern.sncndn_line([-0.5, 0.0, 0.5], [Kp / 2, Kp, -Kp / 3],
                             rows=True)
        assert info.value.where == complex(0.0, Kp)

    @pytest.mark.parametrize("k", [0.6, 1.66])
    def test_line_pole_signal_at_a_node_level(self, k):
        # with a level per node, the pole is the last node, (0, K')
        kern = EllipticKernel(k)
        Kp = float(kern.K_prime)
        with pytest.raises(PoleError) as info:
            kern.sncndn_line([-0.5, 0.0, 0.5, 0.0], [Kp / 2, Kp / 2, Kp, Kp])
        assert info.value.where == complex(0.0, Kp)

    @pytest.mark.parametrize("k", [0.6, 1.66])
    def test_line_pole_signal(self, k):
        # Im u = K' runs through the pole i K' of sn; K'/2 misses the lattice
        kern = EllipticKernel(k)
        Kp = float(kern.K_prime)
        with pytest.raises(PoleError) as info:
            kern.sncndn_line([-0.5, 0.0, 0.5], Kp)
        assert info.value.where.real == 0     # the node x = 0
        assert all(np.isfinite(f).all()
                   for f in kern.sncndn_line([-0.5, 0.0, 0.5], Kp / 2))

    def test_line_is_binary64_only(self):
        with pytest.raises(DomainError):
            EllipticKernel(0.6, Precision(160)).sncndn_line([0.1], 0.2)

    def test_extended_precision_complex(self):
        p = Precision(160)
        sn = get_kernel(p.ctx.mpf("0.6"), p).sncndn(p.ctx.mpc("0.7", "0.2"))[0]
        with mpmath.workdps(60):
            ref = mpmath.ellipfun("sn", mpmath.mpc("0.7", "0.2"),
                                  mpmath.mpf("0.36"))
            assert abs(mpmath.mpc(sn) - ref) < mpmath.mpf("1e-40")

    @pytest.mark.parametrize("k", [0.6, 1.66])
    def test_return_types(self, k):
        # binary64 returns Python floats on the real axis and complex
        # numbers off it, extended precision the context's mpf and mpc
        kern = EllipticKernel(k)
        assert all(type(v) is float for v in kern.sncndn(0.7))
        assert all(type(v) is complex for v in kern.sncndn(0.7 + 0.2j))
        assert type(kern.am(0.7 + 0.2j)) is complex
        assert type(kern.am(0.7)) is complex
        p = Precision(160)
        kern = EllipticKernel(p.ctx.mpf(k), p)
        assert all(type(v) is p.ctx.mpf
                   for v in kern.sncndn(p.ctx.mpf("0.7")))
        assert all(type(v) is p.ctx.mpc
                   for v in kern.sncndn(p.ctx.mpc("0.7", "0.2")))
        assert type(kern.am(p.ctx.mpc("0.7", "0.2"))) is p.ctx.mpc


@pytest.mark.parametrize("k", [0.6, 1.66])
def test_binary64_kernel_makes_no_mpmath_call(monkeypatch, k):
    # in binary64 the scalar kernel calls math and cmath itself; every
    # function of mpmath.fp it used to dispatch through now raises
    u = 0.7 + 0.2j
    kern = EllipticKernel(k)
    want = [kern.sncndn(0.7), kern.sncndn(u), kern.am(u), kern.am_real(0.7),
            carlson_rf(u, 0.8, 1.0)]

    def refuse(*args, **kwargs):
        raise AssertionError("binary64 kernel reached mpmath.fp")

    for name in ("sin", "cos", "asin", "sqrt", "log", "floor", "re", "im",
                 "mpc", "convert"):
        monkeypatch.setattr(mpmath.fp, name, refuse)
    kern = EllipticKernel(k)
    got = [kern.sncndn(0.7), kern.sncndn(u), kern.am(u), kern.am_real(0.7),
           carlson_rf(u, 0.8, 1.0)]
    assert got == want


MODULI = (0.3, 0.6, 0.95)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(MODULI),
       st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
@example(k=0.3, fx=1 / 64, fy=0.99)     # |sn| ~ 92, next to the iK' pole
def test_square_identities_complex(k, fx, fy):
    kern = EllipticKernel(k)
    u = complex(fx * float(kern.K), fy * float(kern.K_prime))
    try:
        sn, cn, dn = kern.sncndn(u)
    except PoleError:
        return
    # rounding the squares alone costs ~|sn|^2 eps, so the bounds scale
    # with the size of the terms
    assert abs(sn * sn + cn * cn - 1) \
        < 1e-12 * max(1, abs(sn) ** 2 + abs(cn) ** 2)
    assert abs((k * sn) ** 2 + dn * dn - 1) \
        < 1e-12 * max(1, abs(k * sn) ** 2 + abs(dn) ** 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MODULI), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
       st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_addition_theorem(k, ax, ay, bx, by):
    kern = EllipticKernel(k)
    u, v = complex(ax, ay), complex(bx, by)
    try:
        snu = kern.sncndn(u)[0]
        snv = kern.sncndn(v)[0]
        _, cm, dm = kern.sncndn(u - v)
        _, cp, dp = kern.sncndn(u + v)
    except PoleError:
        return
    lhs = k * snu * snv
    if abs(dm + dp) > 1e-3:
        assert abs(lhs - k * (cm - cp) / (dm + dp)) < 1e-10 * max(1, abs(lhs))
    if abs(cm + cp) > 1e-3:
        assert abs(lhs - (dm - dp) / (k * (cm + cp))) < 1e-10 * max(1, abs(lhs))


class TestAmplitude:
    def test_anchors(self):
        kern = EllipticKernel(0.6)
        assert abs(kern.am(0.0)) == 0
        assert abs(kern.am(kern.K) - math.pi / 2) < 1e-14

    def test_continuity_along_real_axis(self):
        kern = EllipticKernel(0.6)
        K = float(kern.K)
        vals = [float(kern.am_real(x)) for x in
                [K * j / 10 for j in range(-25, 26)]]
        steps = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert max(steps) < 0.8  # no branch jumps
        for x in (-1.3, 0.0, 0.4, 2.2):
            assert abs(float(kern.am_real(x + 4 * K))
                       - float(kern.am_real(x)) - 2 * math.pi) < 1e-10

    def test_matches_sn_cn(self):
        for k in (0.6, 0.95, 1.66):
            kern = EllipticKernel(k)
            for u in (0.7 + 0.2j, -0.9 + 0.8j, 0.3 - 1.2j):
                a = kern.am(u)
                sn, cn, _ = kern.sncndn(u)
                assert abs(cmath.sin(complex(a)) - complex(sn)) < 1e-12
                assert abs(cmath.cos(complex(a)) - complex(cn)) < 1e-12

    def test_pole_signal(self):
        kern = EllipticKernel(0.6)
        with pytest.raises(PoleError):
            kern.am(1j * kern.K_prime)

    def test_cot_of_double_amplitude(self):
        # cs(2u) equals the cotangent of the amplitude of 2u
        kern = EllipticKernel(0.6)
        u = 0.31 + 0.12j
        om = complex(kern.am(2 * u))
        sn, cn, _dn = kern.sncndn(2 * u)
        cs = complex(cn / sn)
        assert abs(cs - cmath.cos(om) / cmath.sin(om)) < 1e-11

    def test_ordered_real_amplitude_is_asin_of_sn(self):
        # above the transition cn(x, k) = dn(k x, 1/k) >= k' > 0, so the
        # librating amplitude is asin(sn) on every real period
        kern = EllipticKernel(1.66)
        K = float(kern.K)
        for x in [K * j / 16 for j in range(-96, 97)]:
            sn, cn, _dn = kern.sncndn(x)
            assert cn > 0
            assert kern.am_real(x) == math.asin(sn)

    def test_symmetric_boundary_relation(self):
        # i k sin(omega) sinh(theta) = 1 with omega, theta the two
        # boundary amplitudes at a generic point
        import random
        rng = random.Random(5)
        kern = EllipticKernel(0.6)
        K, Kp = float(kern.K), float(kern.K_prime)
        for _ in range(25):
            u = complex(rng.uniform(-K, K), rng.uniform(-Kp, Kp))
            try:
                om = kern.am(2 * u)
                th = 1j * complex(kern.am(2 * (1j * Kp / 2 - u)))
            except PoleError:
                continue
            val = 1j * 0.6 * cmath.sin(complex(om)) * cmath.sinh(th)
            assert abs(val - 1) < 1e-11


    @pytest.mark.parametrize("bits", [53, 160])
    @pytest.mark.parametrize("k", [0.6, 1.66])
    def test_known_triple_stands_in_for_the_evaluation(self, k, bits):
        # the caller's triple at the reduced argument gives the amplitude
        # of the kernel's own evaluation there, whose Landen pass also
        # gives the real-axis anchor; a triple at another point is unread
        prec = Precision(bits)
        ctx = prec.ctx
        kern = EllipticKernel(ctx.mpf(k), prec)
        i = ctx.mpc(0, 1)
        for u in (ctx.mpc(0.3, 0.2), ctx.mpc(-0.9, 0.8), ctx.mpc(0.4, -1.1)):
            v = 2 * u
            triple = kern.sncndn(v)
            want = kern.am(v)
            assert kern.am(v, known=(v, triple)) == want
            assert kern.am(v, known=(v + 1, (0, 0, 0))) == want
            # reduced by 2iK', 2(u + iK') lands on 2u or next to it
            w = 2 * (u + i * kern.K_prime)
            assert kern.am(w, known=(v, triple)) == kern.am(w)


EXTREME_MODULI = (1e-12, 1e-6, 1 - 1e-9, 1 + 1e-9, 1e3, 1e8)


@pytest.mark.parametrize("bits", [53, 160])
@pytest.mark.parametrize("k", EXTREME_MODULI)
def test_landen_step_needs_no_clamp(k, bits):
    # the step takes asin(r sin(phi)) as it is: every rounded ratio
    # r = c_n / a_n of both chains is at most 1 in size (the last ones
    # can round below 0), and no evaluation warns
    prec = Precision(bits)
    kern = EllipticKernel(prec.ctx.mpf(k), prec)
    for chain in (kern._chain, kern._chain_c):
        assert all(abs(r) <= 1 for r in chain[2])
    K, Kp = float(kern.K), float(kern.K_prime)
    xs = np.linspace(-4 * K, 4 * K, 97)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in xs[::8]:
            assert isinstance(kern.am_real(x), type(prec.ctx.mpf(0)))
            kern.sncndn(x)
            kern.sncndn(complex(x, 0.3 * Kp))
        if prec.is_float:
            kern.sncndn_line(xs, 0.3 * Kp)
            kern.sncndn_line(xs, np.linspace(-0.9, 0.9, 97) * Kp)


def test_carlson_rf_degenerate():
    assert abs(carlson_rf(2.0, 2.0, 2.0) - 1 / math.sqrt(2)) < 1e-15


def test_modulus_classification():
    assert not EllipticKernel(0.5).ordered
    with pytest.raises(CriticalModulusError):
        EllipticKernel(1.0)
    assert EllipticKernel(1.5).ordered
    with pytest.raises(DomainError):
        EllipticKernel(0.0)
