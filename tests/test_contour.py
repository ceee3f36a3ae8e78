"""Contour route: line integrals, symbol coefficients, u-plane fields."""

import cmath
import math

import numpy as np
import pytest

from rectising import contour
from rectising.contour import (
    ContourContext,
    ContourSpec,
    _line_sums,
    _node,
    _scale,
    contour_coefficients,
    default_contour,
    integrand_h,
    reduced_contour_a,
    uplane_field,
)
from rectising.elliptic import EllipticKernel
from rectising.errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    RouteInfeasibleError,
)
from rectising.params import couplings_from_modulus, swap_system
from rectising.partition import hankel_from_spectrum
from rectising.precision import Precision
from rectising.spectrum import lambda_zeta, sn_pm_eta, spectrum_for


def _fig_context():
    c = couplings_from_modulus(0.6, 0.9, 5, 6)
    return c, ContourContext.from_couplings(c, with_spectrum=True)


@pytest.fixture(scope="module")
def fig():
    c, cctx = _fig_context()
    hs = hankel_from_spectrum(cctx.points, c, cctx.weights, cctx.frame)
    return c, cctx, hs


class TestIntegrand:
    def test_real_periodicity(self, fig):
        _c, cctx, _hs = fig
        K = float(cctx.frame.K)
        for u in (0.3 - 0.1j, -0.7 + 0.9j):
            a = complex(integrand_h(u, 1, cctx))
            b = complex(integrand_h(u + 2 * K, 1, cctx))
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_para_parity(self, fig):
        # the moment integrand is para-odd: f(u) = -conj(f(-conj u)); the
        # underlying eigenvalue functions themselves are para-even
        _c, cctx, _hs = fig
        for u in (0.37 + 0.11j, -0.6 + 0.4j):
            a = complex(integrand_h(u, 1, cctx))
            b = complex(integrand_h(-u.conjugate(), 1, cctx))
            assert abs(a + b.conjugate()) < 1e-10 * max(1.0, abs(a))
            lam, zet = lambda_zeta(u, cctx.frame)
            lam2, zet2 = lambda_zeta(-u.conjugate(), cctx.frame)
            assert abs(complex(lam) - complex(lam2).conjugate()) < 1e-10
            assert abs(complex(zet) - complex(zet2).conjugate()) < 1e-10

    def test_line_through_counter_pole_raises(self, fig):
        # sn(u + eta) has a pole at u = i K' - eta; the addition formula
        # raises for a line of nodes through it, and not for one beside it
        _c, cctx, _hs = fig
        frame = cctx.frame
        level = float(frame.K_prime) - float(cctx.prec.ctx.im(frame.eta))
        xs = [-0.5, 0.0, 0.5]
        with pytest.raises(PoleError):
            sn_pm_eta(frame.kernel.sncndn_line(xs, level), frame)
        sp, sm = sn_pm_eta(frame.kernel.sncndn_line(xs, level / 2), frame)
        assert np.isfinite(sp).all() and np.isfinite(sm).all()

    def test_pole_orders_at_counter_poles(self, fig):
        _c, cctx, _hs = fig
        Kp = float(cctx.frame.K_prime)
        h = complex(cctx.frame.eta)
        n, L, M = 1, cctx.L, cctx.M
        expected = {
            1j * Kp - h: n + 1 - M,
            h: n + 1 + L - M,
            -h: n + 1 + L,
            -1j * Kp + h: n + 1,
        }
        for p, order in expected.items():
            def mean_log(r):
                tot = 0.0
                for j in range(16):
                    z = p + r * cmath.exp(2j * math.pi * j / 16)
                    tot += math.log(abs(complex(integrand_h(z, n, cctx))))
                return tot / 16
            slope = (mean_log(2e-3) - mean_log(1e-3)) / math.log(2.0)
            assert round(-slope) == order
            assert abs(-slope - order) < 0.05


class TestContourMoments:
    def test_matches_spectral_sums(self, fig):
        c, cctx, hs = fig
        spec = default_contour(cctx.frame)
        res = contour_coefficients(list(range(1, c.M)), spec, cctx, "chi")
        for n in range(1, c.M):
            want = complex(hs.h(n)) * math.exp(float(hs.log_shift))
            got = complex(res[n])
            tol = 1e-8 if n < c.M - 1 else 1e-7
            assert abs(got - want) < tol * abs(want)

    def test_doubling_convergence(self, fig):
        _c, cctx, _hs = fig
        spec = default_contour(cctx.frame)
        lines = spec.lines(cctx.frame)
        a = _scale(_line_sums([1], lines, cctx, "chi", 256), cctx, 256)[1]
        b = _scale(_line_sums([1], lines, cctx, "chi", 512), cctx, 512)[1]
        assert abs(complex(a - b)) < 1e-10 * abs(complex(b))

    @pytest.mark.parametrize("bits", [53, 160])
    def test_nested_doubling_one_kernel_call_per_node(self, bits,
                                                      count_calls):
        # every node of the final ladder is evaluated once: at 160 bits with
        # one kernel call, in binary64 with one line call per ladder level
        # whose rows are the four lines; the nested sums equal the direct
        # trapezoid sum
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        cctx = ContourContext.from_couplings(c, Precision(bits))
        spec = default_contour(cctx.frame)
        lines = spec.lines(cctx.frame)
        calls = count_calls(EllipticKernel, "sncndn")
        line_calls = count_calls(EllipticKernel, "sncndn_line")
        ns = list(range(1, c.M))
        res = contour_coefficients(ns, spec, cctx, "chi")
        if bits == 160:
            assert not line_calls
            final, extra = divmod(len(calls), 4)
        else:
            assert len(calls) <= 1      # the frame's eta triple
            assert all(list(ys) == [y for y, _sign in lines]
                       for _kern, _xs, ys in line_calls)
            sizes = [len(xs) for _kern, xs, _ys in line_calls]
            final, extra = sum(sizes), 0
            levels = (final // spec.samples).bit_length()
            assert len(line_calls) == levels
            assert sizes == [spec.samples] + [
                spec.samples << m for m in range(levels - 1)]
        assert extra <= 1
        assert final % spec.samples == 0 and final > spec.samples
        assert (final // spec.samples) & (final // spec.samples - 1) == 0
        direct = _scale(_line_sums(ns, lines, cctx, "chi", final), cctx,
                        final)
        for n in ns:
            assert abs(complex(res[n] - direct[n])) < 1e-13 * abs(
                complex(direct[n]))

    @pytest.mark.parametrize("k, frac, L, M", [(0.6, 0.9, 5, 6),
                                               (0.8, 0.6, 8, 12)])
    def test_binary64_moments_match_extended_spectral_sums(self, k, frac,
                                                           L, M):
        c = couplings_from_modulus(k, frac, L, M)
        cctx = ContourContext.from_couplings(c)
        ns = list(range(1, M))
        got = contour_coefficients(ns, default_contour(cctx.frame), cctx)
        for n, want in _spectral_moments(c, ns).items():
            assert abs(got[n] - want) <= 5e-13 * abs(want)

    @pytest.mark.xfail(raises=ConvergenceError, strict=True,
                       reason="D7: the doubling test does not settle at "
                       "L=30, M=12 within MAX_SAMPLES")
    def test_moments_match_spectral_sums_on_long_strip(self):
        c = couplings_from_modulus(0.4, 0.5, 30, 12)
        cctx = ContourContext.from_couplings(c)
        ns = list(range(1, c.M))
        got = contour_coefficients(ns, default_contour(cctx.frame), cctx)
        for n, want in _spectral_moments(c, ns).items():
            assert abs(got[n] - want) <= 1e-8 * abs(want)

    def test_sample_cap(self, fig, monkeypatch):
        _c, cctx, _hs = fig
        monkeypatch.setattr(contour, "MAX_SAMPLES", 1024)
        monkeypatch.setattr(contour, "QUAD_TOL", 0)
        with pytest.raises(ConvergenceError) as info:
            contour_coefficients([1], default_contour(cctx.frame), cctx)
        assert info.value.diagnostics["samples"] == 1024

    def test_band_shift_invariance(self, fig):
        _c, cctx, hs = fig
        h_eta = float(cctx.prec.ctx.im(cctx.frame.eta))
        ref = complex(
            contour_coefficients([1], default_contour(cctx.frame), cctx)[1])
        for lo, hi in ((-0.75, 0.25), (-0.4, 0.6)):
            spec = ContourSpec(c_low=lo * h_eta, c_high=hi * h_eta,
                               samples=256)
            got = complex(contour_coefficients([1], spec, cctx)[1])
            assert abs(got - ref) < 1e-10 * abs(ref)

    def test_residue_theorem_consistency(self, fig):
        # numerically fitted residues at the enclosed eigenvalue zeros,
        # one small circle per zero pair member, halved like the bands
        c, cctx, _hs = fig
        ctx = cctx.prec.ctx
        total = 0j
        r = 2e-3
        samples = 64
        for p in cctx.points:
            for u0 in (complex(p.u), -complex(p.u).conjugate()):
                acc = 0j
                for j in range(samples):
                    z = u0 + r * cmath.exp(2j * math.pi * j / samples)
                    fz = complex(integrand_h(ctx.mpc(z.real, z.imag), 1,
                                             cctx))
                    acc += fz * 1j * r * cmath.exp(2j * math.pi * j / samples)
                total += acc * (2 * math.pi / samples) / (2j * math.pi)
        want = complex(contour_coefficients(
            [1], default_contour(cctx.frame), cctx)[1]) * 2
        assert abs(total - want) < 1e-7 * abs(want)

    def test_ordered_phase_refused(self):
        c = couplings_from_modulus(1.66, 0.9, 5, 6)
        cctx = ContourContext.from_couplings(c)
        with pytest.raises(RouteInfeasibleError):
            contour_coefficients([1], ContourSpec(-0.05, 0.05), cctx)

    def test_spec_validation(self, fig):
        _c, cctx, _hs = fig
        h_eta = float(cctx.prec.ctx.im(cctx.frame.eta))
        with pytest.raises(DomainError):
            ContourSpec(c_low=0.1, c_high=-0.1)
        with pytest.raises(DomainError):
            ContourSpec(c_low=-0.1, c_high=0.1, samples=8)
        with pytest.raises(DomainError):
            # line through a counter-pole level
            contour_coefficients([1], ContourSpec(-h_eta / 2, h_eta), cctx)


class TestSymbol:
    def test_even_in_index(self, fig):
        _c, cctx, _hs = fig
        spec = default_contour(cctx.frame)
        for n in (1, 2):
            a = complex(contour_coefficients([n], spec, cctx, "zeta")[n])
            b = complex(contour_coefficients([-n], spec, cctx, "zeta")[-n])
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_reduced_contour_for_small_index(self, fig):
        c, cctx, _hs = fig
        assert cctx.L < cctx.M
        spec = default_contour(cctx.frame)
        for n in (1, 2):
            full = complex(contour_coefficients([n], spec, cctx, "zeta")[n])
            red = complex(reduced_contour_a(n, cctx))
            assert abs(full - red) < 1e-9 * max(1.0, abs(full))

    def test_swap_reciprocity(self, fig):
        # the symbol of the swapped system at the reflected point is the
        # reciprocal of the original symbol
        c, cctx, _hs = fig
        cs = swap_system(c)
        cctx_s = ContourContext.from_couplings(cs)
        ctx = cctx.prec.ctx
        for u in (0.23 + 0.31j, -0.4 + 0.62j):

            def sym(cc, uu):
                common, _chi, _zeta = _node(ctx.mpc(uu.real, uu.imag), cc)
                lam, _zet = lambda_zeta(ctx.mpc(uu.real, uu.imag), cc.frame)
                lam_m = (lam - 1 / lam) / 2
                dphi = 2 * lam_m / cc.weights.z_minus
                return complex(common / (ctx.mpc(0, 1) * dphi))

            ut = complex(cctx.frame.swap_u(ctx.mpc(u.real, u.imag)))
            a = sym(cctx, u)
            b = sym(cctx_s, ut)
            assert abs(a * b - 1) < 1e-9


class TestUPlaneField:
    def test_markers_and_shape(self):
        c = couplings_from_modulus(0.95, 0.75, 5, 4)
        cctx = ContourContext.from_couplings(c, with_spectrum=True)
        field = uplane_field(1, 24, cctx)
        assert len(field.values) == 24 * 24
        assert len(field.markers["eigenvalues"]) == 4
        assert len(field.markers["inverse_eigenvalues"]) == 4
        assert len(field.markers["counter_poles"]) == 4
        assert len(field.markers["corners"]) == 4
        Kp = field.K_prime
        on_lines = sum(1 for z in field.markers["eigenvalues"]
                       if abs(z.imag) < 1e-9 or abs(z.imag - Kp) < 1e-9)
        assert on_lines == 4
        # swap images sit point-symmetric about i K'/4
        for z, zt in zip(field.markers["eigenvalues"],
                         field.markers["swap_eigenvalues"]):
            assert abs((z + zt) / 2 - 1j * Kp / 4) < 1e-9

    def test_census_per_band(self, fig):
        # winding of the denominator around each eigenvalue circle counts
        # M zeros; winding of the numerator around each boundary-phase
        # circle counts L zeros
        c, cctx, _hs = fig
        ctx = cctx.prec.ctx
        frame, w = cctx.frame, cctx.weights
        K, Kp = float(frame.K), float(frame.K_prime)
        h_eta = float(ctx.im(frame.eta))
        kern = frame.kernel

        def winding(fn, lo, hi, samples=1600):
            tot = 0.0
            for level, sign in ((lo, +1), (hi, -1)):
                prev = None
                acc = 0.0
                for j in range(samples + 1):
                    x = -K + 2 * K * j / samples
                    val = fn(ctx.mpc(x, level))
                    ang = cmath.phase(complex(val))
                    if prev is not None:
                        d = ang - prev
                        while d > math.pi:
                            d -= 2 * math.pi
                        while d < -math.pi:
                            d += 2 * math.pi
                        acc += d
                    prev = ang
                tot += sign * acc
            return tot / (2 * math.pi)

        def den(u):
            from rectising.spectrum import double_argument
            sp = kern.sncndn(u + frame.eta)[0]
            sm = kern.sncndn(u - frame.eta)[0]
            zeta = sp / sm
            s2, c2, _ = double_argument(kern.sncndn(u), frame.k)
            return 1 - zeta ** cctx.M * (c2 - ctx.mpc(0, 1) * s2)

        def num(u):
            sp = kern.sncndn(u + frame.eta)[0]
            sm = kern.sncndn(u - frame.eta)[0]
            lam = 1 / (frame.k * sp * sm)
            sn, cn, dn = kern.sncndn(u)
            return 1 - lam ** cctx.L * ctx.mpc(0, 1) * dn / (frame.k * sn * cn)

        # each eigenvalue circle carries the zero pairs of its eigenvalues
        # plus one spectral-edge zero (cancelled by a numerator pole of the
        # full integrand); each boundary circle carries the hypothetical
        # transposed-system zeros plus its edge
        c0 = h_eta / 2
        Kp_line = [p for p in cctx.points
                   if abs(complex(p.u).imag - Kp) < 1e-9]
        axis = [p for p in cctx.points if abs(complex(p.u).imag) < 1e-9]
        assert round(winding(den, -c0, c0)) == 2 * len(axis) + 1
        assert round(winding(den, Kp - c0, Kp + c0)) == 2 * len(Kp_line) + 1
        assert 2 * len(axis) == cctx.M  # the even split of the figure setup
        c1 = (Kp / 2 - h_eta) / 2
        n_up = round(winding(num, Kp / 2 - c1, Kp / 2 + c1)) - 1
        n_dn = round(winding(num, -Kp / 2 - c1, -Kp / 2 + c1)) - 1
        assert n_up == cctx.L and n_dn == cctx.L
        assert n_up + n_dn == 2 * cctx.L

    def test_ordered_phase_field(self):
        c = couplings_from_modulus(1.66, 0.9, 5, 6)
        cctx = ContourContext.from_couplings(c, with_spectrum=True)
        field = uplane_field(1, 16, cctx)
        finite = [v for v in field.values if v == v and abs(v) != float("inf")]
        assert len(finite) > 200

    def test_text_determinism(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        cctx = ContourContext.from_couplings(c, with_spectrum=True)
        a = uplane_field(1, 16, cctx).text()
        b = uplane_field(1, 16, cctx).text()
        assert a == b
        assert a.startswith("# uplane n=1 resolution=16")

    def test_resolution_floor(self, fig):
        _c, cctx, _hs = fig
        with pytest.raises(DomainError):
            uplane_field(1, 4, cctx)


def test_uplane_pole_nodes_emitted_as_infinity():
    # an odd grid hits the pole lattice points (0, +-K') exactly
    c = couplings_from_modulus(0.6, 0.9, 3, 4)
    cctx = ContourContext.from_couplings(c)
    field = uplane_field(1, 17, cctx)
    infs = [v for v in field.values if abs(v.real) == float("inf")]
    assert len(infs) >= 2
    assert "inf" in field.text()


@pytest.mark.parametrize("bits", [53, 160])
def test_uplane_counter_pole_nodes_emitted_as_infinity(bits):
    # at eta-frac 1.0 a grid of 41 puts nodes on u = +-eta, where sn(u -+ eta)
    # is zero up to rounding of the binary64 grid coordinates; the integrand
    # has a pole at both (at +eta because L + n + 1 > M)
    c = couplings_from_modulus(0.3, 1.0, 4, 4)
    cctx = ContourContext.from_couplings(c, Precision(bits))
    field = uplane_field(0, 41, cctx)
    eta = complex(cctx.frame.eta)
    on_pole = [i for i, u in enumerate(_grid_nodes(field))
               if min(abs(u - eta), abs(u + eta)) < 1e-12]
    assert len(on_pole) == 2
    for i in on_pole:
        assert field.values[i] == complex(float("inf"), float("inf"))


def test_uplane_regular_counter_pole_node_kept():
    # with L + n + 1 = M the integrand has a finite limit at u = eta, which
    # the closed form gives from a rounding-noise sn(u - eta); u = -eta
    # stays a pole
    c = couplings_from_modulus(0.3, 1.0, 4, 6)
    cctx = ContourContext.from_couplings(c)
    field = uplane_field(1, 41, cctx)
    eta = complex(cctx.frame.eta)
    nodes = _grid_nodes(field)
    at = {s: next(i for i, u in enumerate(nodes) if abs(u - s * eta) < 1e-12)
          for s in (1, -1)}
    ctx = Precision(160).ctx
    cc160 = ContourContext.from_couplings(c, Precision(160))
    limit = complex(integrand_h(cc160.frame.eta + ctx.mpf(1e-30), 1, cc160))
    assert abs(field.values[at[1]] - limit) < 1e-12
    assert field.values[at[-1]] == complex(float("inf"), float("inf"))


def _spectral_moments(c, ns):
    """h_n from 160-bit spectral sums, on the contour's scale."""
    w, frame, _b, pts = spectrum_for(c, Precision(160))
    hs = hankel_from_spectrum(pts, c, w, frame)
    scale = frame.prec.ctx.exp(hs.log_shift)
    return {n: complex(hs.h(n) * scale) for n in ns}


def _grid_nodes(field):
    n = field.resolution
    return [complex(-field.K + 2 * field.K * ix / (n - 1),
                    -field.K_prime + 2 * field.K_prime * iy / (n - 1))
            for iy in range(n) for ix in range(n)]
