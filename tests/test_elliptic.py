"""Elliptic kernel tests.

Oracles used here are independent of the kernel code paths: a local AGM
iteration for the complete integral, adaptive quadrature of the defining
integral for the incomplete one, and mpmath's theta-function based Jacobi
functions for complex-argument cross-checks.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from rectising.elliptic import (
    EllipticKernel,
    amplitude,
    carlson_rf,
    complete_integrals,
    glaisher,
    incomplete_F,
    invert_dn,
    jacobi_sncndn,
    reduce_to_fundamental,
)
from rectising.errors import (
    BranchMissError,
    CriticalModulusError,
    DomainError,
    PoleError,
)
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
        K, _ = complete_integrals(1e-10)
        assert abs(K - math.pi / 2) < 1e-14

    def test_self_complementary(self):
        K, Kp = complete_integrals(1 / math.sqrt(2))
        assert abs(K - Kp) < 1e-14 * K

    def test_agm_oracle(self):
        K, Kp = complete_integrals(0.6)
        kp = math.sqrt(1 - 0.36)
        assert abs(K - math.pi / (2 * agm_oracle(1, kp))) <= 1e-14 * K
        assert abs(Kp - math.pi / (2 * agm_oracle(1, 0.6))) <= 1e-14 * Kp
        assert abs(K - K_06) < 1e-14 * K_06
        assert abs(Kp - KP_06) < 1e-14 * KP_06

    def test_critical_signals(self):
        with pytest.raises(CriticalModulusError):
            complete_integrals(1.0)
        with pytest.raises(DomainError):
            complete_integrals(-0.5)
        with pytest.raises(DomainError):
            complete_integrals(0.0)

    def test_ordered_phase_real_parts(self):
        K, Kp = complete_integrals(1.66)
        kap = 1 / 1.66
        assert abs(K - kap * float(mpmath.ellipk(kap ** 2))) < 1e-14 * K
        assert abs(Kp - kap * float(mpmath.ellipk(1 - kap ** 2))) < 1e-14 * Kp

    def test_extended_precision(self):
        p = Precision(200)
        K, _ = complete_integrals(p.ctx.mpf("0.6"), p)
        with mpmath.workdps(70):
            ref = mpmath.ellipk(mpmath.mpf("0.36"))
            assert abs(mpmath.mpf(K) - ref) < mpmath.mpf("1e-55")


class TestIncompleteF:
    def test_zero(self):
        assert abs(incomplete_F(0.0, 0.6)) == 0

    def test_quarter(self):
        K, _ = complete_integrals(0.6)
        assert abs(incomplete_F(math.pi / 2, 0.6) - K) < 1e-14 * K

    def test_quadrature_oracle(self):
        val = incomplete_F(0.3, 0.6)
        assert abs(val - quad_oracle_F(0.3, 0.6)) < 1e-12
        assert abs(val - F_03_06) < 1e-13

    def test_quasi_periodicity(self):
        K, _ = complete_integrals(0.6)
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
            assert abs(amplitude(u, 0.6) - phi) < 1e-12


class TestJacobiFunctions:
    def test_origin(self):
        sn, cn, dn = jacobi_sncndn(0.0, 0.6)
        assert (abs(sn), abs(cn - 1), abs(dn - 1)) == (0, 0, 0)

    def test_trigonometric_degeneration(self):
        sn, cn, dn = jacobi_sncndn(1.1, 1e-9)
        assert abs(sn - math.sin(1.1)) < 1e-12
        assert abs(cn - math.cos(1.1)) < 1e-12
        assert abs(dn - 1) < 1e-12

    def test_square_identities_real(self):
        sn, cn, dn = jacobi_sncndn(1.1, 0.6)
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
        _, Kp = complete_integrals(0.6)
        with pytest.raises(PoleError):
            jacobi_sncndn(1j * Kp, 0.6)

    @pytest.mark.parametrize("k", [0.3, 0.8, 1.66])
    def test_line_matches_scalar_nodes(self, k):
        # one array evaluation per line gives the scalar triple at every
        # node: on the default contour lines, and off them, past the strip
        # and over several real periods
        frame = ContourContext.from_couplings(
            couplings_from_modulus(k, 0.9, 5, 6)).frame
        kern = frame.kernel
        K, Kp = float(kern.K), float(kern.K_prime)
        levels = [y for y, _sign in default_contour(frame).lines(frame)]
        levels += [f * Kp for f in (0.37, -0.81, 1.3, 2.6, -3.7)]
        xs = -3 * K + np.arange(96) * (K / 16) + 0.013
        for y in levels:
            line = kern.sncndn_line(xs, y)
            for j, x in enumerate(xs):
                for got, want in zip(line, kern.sncndn(complex(x, y))):
                    assert abs(got[j] - want) <= 1e-14 * abs(want)

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
        sn = jacobi_sncndn(p.ctx.mpc("0.7", "0.2"), p.ctx.mpf("0.6"), p)[0]
        with mpmath.workdps(60):
            ref = mpmath.ellipfun("sn", mpmath.mpc("0.7", "0.2"),
                                  mpmath.mpf("0.36"))
            assert abs(mpmath.mpc(sn) - ref) < mpmath.mpf("1e-40")


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
        assert abs(amplitude(0.0, 0.6)) == 0
        assert abs(amplitude(kern.K, 0.6) - math.pi / 2) < 1e-14

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


class TestGlaisher:
    def test_trivial_letters(self):
        assert glaisher("n", "n", 0.7, 0.6) == 1
        assert glaisher("s", "s", 0.7 + 0.2j, 0.6) == 1

    def test_reciprocal_pairs(self):
        u = 0.7 + 0.2j
        prod = glaisher("s", "c", u, 0.6) * glaisher("c", "s", u, 0.6)
        assert abs(prod - 1) < 1e-13

    def test_ratio_consistency(self):
        u = 0.9 - 0.3j
        sn, cn, dn = jacobi_sncndn(u, 0.6)
        assert abs(glaisher("s", "d", u, 0.6) - sn / dn) < 1e-13

    def test_cot_of_double_amplitude(self):
        # cs(2u) equals the cotangent of the amplitude of 2u
        kern = EllipticKernel(0.6)
        u = 0.31 + 0.12j
        om = complex(kern.am(2 * u))
        cs = complex(glaisher("c", "s", 2 * u, 0.6))
        assert abs(cs - cmath.cos(om) / cmath.sin(om)) < 1e-11

    def test_pole(self):
        with pytest.raises(PoleError):
            glaisher("c", "s", 0.0, 0.6)

    def test_bad_letters(self):
        with pytest.raises(DomainError):
            glaisher("x", "n", 0.7, 0.6)


class TestInvertDn:
    def test_unit_maps_to_origin(self):
        assert abs(invert_dn(1.0, 0.6)) < 1e-11

    def test_complementary_maps_to_quarter(self):
        kern = EllipticKernel(0.6)
        kp = math.sqrt(1 - 0.36)
        got = invert_dn(kp, 0.6)
        # dn is flat at the quarter period, so the preimage carries a
        # square-root condition number; the function value is exact
        assert abs(got - kern.K) < 1e-7
        assert abs(kern.sncndn(got)[2] - kp) < 1e-11

    def test_roundtrip_real_branch(self):
        w = jacobi_sncndn(0.4, 0.6)[2]
        assert abs(invert_dn(w, 0.6, "real_axis") - 0.4) < 1e-12

    def test_roundtrip_shifted_branch(self):
        kern = EllipticKernel(0.6)
        u = 0.4 + 1j * float(kern.K_prime)
        w = kern.sncndn(u)[2]
        got = invert_dn(w, 0.6, "shifted_iKprime")
        assert abs(got - u) < 1e-10

    def test_branch_miss(self):
        kern = EllipticKernel(0.6)
        u = 0.4 + 1j * float(kern.K_prime)
        w = kern.sncndn(u)[2]  # imaginary value unreachable on [0, K]
        with pytest.raises(BranchMissError) as exc:
            invert_dn(w, 0.6, "real_axis")
        assert exc.value.candidates


class TestReduction:
    def test_interior_is_identity(self):
        kern = EllipticKernel(0.6)
        u = 0.3 + 0.4j
        assert reduce_to_fundamental(u, kern) == kern.ctx.mpc(u)

    def test_full_period(self):
        kern = EllipticKernel(0.6)
        u = 0.3 + 0.4j
        red = reduce_to_fundamental(u + 4 * kern.K, kern)
        assert abs(red - u) < 1e-12

    def test_sign_rules(self):
        kern = EllipticKernel(0.6)
        u = 5.3 * float(kern.K) + 3.1j * float(kern.K_prime)
        red, s_sn, s_cn, s_dn = kern.reduce(u)
        a = kern.sncndn(u)
        b = kern.sncndn(red)
        assert abs(a[0] - s_sn * b[0]) < 1e-10
        assert abs(a[1] - s_cn * b[1]) < 1e-10
        assert abs(a[2] - s_dn * b[2]) < 1e-10


def test_carlson_rf_degenerate():
    assert abs(carlson_rf(2.0, 2.0, 2.0) - 1 / math.sqrt(2)) < 1e-15


def test_modulus_classification():
    assert not EllipticKernel(0.5).ordered
    with pytest.raises(CriticalModulusError):
        EllipticKernel(1.0)
    assert EllipticKernel(1.5).ordered
    with pytest.raises(DomainError):
        EllipticKernel(0.0)
