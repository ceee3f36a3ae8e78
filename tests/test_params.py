"""Coupling algebra, weights, anisotropy frame and the direction swap."""

import math

import pytest

from rectising.contour import ContourContext
from rectising.errors import CriticalModulusError, DomainError
from rectising.params import (
    Couplings,
    couplings_from_modulus,
    dual,
    dual_and_split,
    elliptic_frame,
    plus_minus_split,
    swap_system,
    weights_from_couplings,
)
from rectising.partition import assemble_logZ
from rectising.precision import Precision

CRITICAL_K = 0.5 * math.log(1 + math.sqrt(2))

#: moduli on both sides of the transition, and anisotropy fractions
#: across the strip (0, 2)
GRID_K = (0.3, 0.95, 1.66, 6, 30)
GRID_FRAC = (0.1, 0.5, 0.9, 1.4, 1.9)


class TestScalarAlgebra:
    def test_unit(self):
        assert dual_and_split(1.0) == (0.0, 1.0, 0.0)

    def test_zero(self):
        assert dual(0.0) == 1.0
        with pytest.raises(DomainError):
            plus_minus_split(0.0)

    def test_dual_pole(self):
        with pytest.raises(DomainError):
            dual(-1.0)

    def test_involution(self):
        for a in (0.3, 0.8, 2.5):
            assert abs(dual(dual(a)) - a) < 1e-15

    def test_split_recomposes(self):
        p, m = plus_minus_split(0.7)
        assert abs(p + m - 0.7) < 1e-16

    def test_tanh_dual_is_exponential(self):
        assert abs(dual(math.tanh(0.4)) - math.exp(-0.8)) < 1e-15


class TestWeights:
    def test_exponential_weight(self):
        w = weights_from_couplings(Couplings(0.3, 0.5, 2, 2))
        assert abs(w.t - math.exp(-1.0)) < 1e-16
        assert abs(w.t_minus + math.sinh(1.0)) < 1e-15

    def test_saturation(self):
        w = weights_from_couplings(Couplings(12.0, 0.5, 2, 2))
        assert abs(w.z - 1) < 1e-10
        assert -1e-10 < w.z_minus < 0

    def test_isotropic_self_duality(self):
        w = weights_from_couplings(Couplings(0.4, 0.4, 2, 2))
        assert abs(w.t_star - w.z) < 1e-15

    def test_lambda_zeta_constants(self):
        w = weights_from_couplings(Couplings(0.4, 0.7, 3, 4))
        assert abs(w.lambda_n * w.lambda_s - 1) < 1e-15
        assert abs(w.lambda_c * w.lambda_d - 1) < 1e-15
        assert abs(w.zeta_n * w.zeta_s - 1) < 1e-15
        assert abs(w.zeta_c * w.zeta_d - 1) < 1e-15

    def test_modulus_is_sinh_product(self):
        c = Couplings(0.4, 0.7, 3, 4)
        w = weights_from_couplings(c)
        assert abs(w.k - math.sinh(0.8) * math.sinh(1.4)) < 1e-14

    def test_positivity_validation(self):
        with pytest.raises(DomainError):
            Couplings(-0.1, 0.5, 2, 2)
        with pytest.raises(DomainError):
            Couplings(0.1, 0.5, 0, 2)


def grid_frames(k, bits):
    """(weights, frame) of a 4 x 4 system at each fraction of GRID_FRAC."""
    for frac in GRID_FRAC:
        w = weights_from_couplings(couplings_from_modulus(k, frac, 4, 4),
                                   Precision(bits))
        yield w, elliptic_frame(w)


class TestFrame:
    @pytest.mark.parametrize("k", GRID_K)
    @pytest.mark.parametrize("bits", [53, 160])
    def test_defining_equation_residual(self, bits, k):
        # sn(2 eta) = 1/(i t_minus) to 64 eps relative to max(1, |target|)
        for w, fr in grid_frames(k, bits):
            target = 1 / (w.prec.ctx.mpc(0, 1) * w.t_minus)
            res = abs(fr.kernel.sncndn(2 * fr.eta)[0] - target)
            assert res <= 64 * w.prec.eps * max(1, abs(target))

    @pytest.mark.parametrize("k", GRID_K)
    @pytest.mark.parametrize("bits", [53, 160])
    def test_eta_purely_imaginary_in_strip(self, bits, k):
        for w, fr in grid_frames(k, bits):
            ctx = w.prec.ctx
            assert ctx.re(fr.eta) == 0
            assert 0 < ctx.im(fr.eta) < fr.K_prime / 2

    def test_isotropic_fixed_point(self):
        fr = elliptic_frame(weights_from_couplings(Couplings(0.3, 0.3, 4, 4)))
        assert abs(complex(fr.eta) - 0.25j * float(fr.K_prime)) < 1e-13
        assert abs(complex(fr.eta_tilde) - complex(fr.eta)) < 1e-13

    def test_swap_point_relation(self):
        fr = elliptic_frame(weights_from_couplings(Couplings(0.4, 0.7, 3, 4)))
        assert abs(complex(fr.eta_tilde)
                   - (0.5j * float(fr.K_prime) - complex(fr.eta))) == 0

    @pytest.mark.parametrize("bits", [53, 160])
    def test_critical_modulus_refused(self, bits):
        # the torus does not exist at k = 1: every way to a frame raises
        c = Couplings(CRITICAL_K, CRITICAL_K, 4, 4)
        w = weights_from_couplings(c, Precision(bits))
        assert abs(float(w.k) - 1) < 1e-12
        with pytest.raises(CriticalModulusError):
            elliptic_frame(w)
        with pytest.raises(CriticalModulusError):
            ContourContext.from_couplings(c, Precision(bits))

    def test_dual_coupling_values_at_eta(self):
        c = Couplings(0.4, 0.7, 3, 4)
        w = weights_from_couplings(c)
        fr = elliptic_frame(w)
        s2, c2, d2 = fr.kernel.sncndn(2 * fr.eta)
        ts_p = (w.t_star + 1 / w.t_star) / 2
        zs_p = (w.z_star + 1 / w.z_star) / 2
        assert abs(ts_p - c2) < 1e-11
        assert abs(zs_p - d2) < 1e-11

    def test_amplitude_couples_to_dual_couplings(self):
        c = Couplings(0.35, 0.6, 3, 4)
        w = weights_from_couplings(c)
        fr = elliptic_frame(w)
        kt_v = -0.5 * math.log(math.tanh(0.6))
        kt_h = -0.5 * math.log(math.tanh(0.35))
        assert abs(complex(fr.kernel.am(2 * fr.eta)) - 2j * kt_v) < 1e-11
        assert abs(complex(fr.kernel.am(2 * fr.eta_tilde)) - 2j * kt_h) < 1e-11


class TestSwap:
    def test_geometry_exchange(self):
        assert swap_system(Couplings(0.4, 0.7, 3, 4)) == \
            Couplings(0.7, 0.4, 4, 3)

    def test_involution(self):
        c = Couplings(0.4, 0.7, 3, 4)
        assert swap_system(swap_system(c)) == c

    def test_weight_map_to_duals(self):
        c = Couplings(0.4, 0.7, 3, 4)
        w = weights_from_couplings(c)
        ws = weights_from_couplings(swap_system(c))
        assert abs(ws.z - w.t_star) < 1e-15
        assert abs(ws.t - w.z_star) < 1e-15

    def test_modulus_invariant(self):
        c = Couplings(0.4, 0.7, 3, 4)
        k1 = weights_from_couplings(c).k
        k2 = weights_from_couplings(swap_system(c)).k
        assert abs(k1 - k2) < 1e-14

    def test_eta_exchanges_with_swap_image(self):
        c = Couplings(0.4, 0.7, 6, 4)
        fr = elliptic_frame(weights_from_couplings(c))
        frs = elliptic_frame(weights_from_couplings(swap_system(c)))
        assert abs(complex(fr.eta_tilde) - complex(frs.eta)) < 1e-11

    def test_odd_extent_flagging(self):
        cs = swap_system(Couplings(0.4, 0.7, 3, 4))
        assert cs.M == 3 and not cs.spectral_ok


class TestModulusParametrization:
    @pytest.mark.parametrize("k,frac", [(0.6, 0.9)] + [
        (k, frac) for k in GRID_K for frac in GRID_FRAC])
    def test_roundtrip(self, k, frac):
        c = couplings_from_modulus(k, frac, 5, 6)
        w = weights_from_couplings(c)
        fr = elliptic_frame(w)
        assert abs(float(w.k) - k) < 1e-12
        eta_frac = float(w.prec.ctx.im(fr.eta) / (fr.K_prime / 4))
        assert abs(eta_frac - frac) < 1e-13
        report = assemble_logZ(c, "spin").eta_im_over_Kprime
        assert abs(4 * report - frac) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            couplings_from_modulus(0.6, 0.0, 4, 4)
        with pytest.raises(CriticalModulusError):
            couplings_from_modulus(1.0, 0.5, 4, 4)

    @pytest.mark.parametrize("k", [0.6, 3])
    def test_upper_end_of_strip_is_excluded(self, k):
        # eta = i K'/2 would need K_v = 0
        with pytest.raises(DomainError):
            couplings_from_modulus(k, 2.0, 4, 4)
        c = couplings_from_modulus(k, 1.99, 4, 4)
        assert 0 < c.K_v < 0.01 < c.K_h
