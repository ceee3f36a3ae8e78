"""Transfer-matrix family, joint spectrum and characteristic polynomials."""

import cmath
import decimal
import math

import numpy as np
import pytest

from rectising import spectrum
from rectising.elliptic import EllipticKernel
from rectising.errors import (
    CriticalModulusError,
    DomainError,
    JointDiagonalizationError,
    PoleError,
)
from rectising.params import (
    Couplings,
    couplings_from_modulus,
    elliptic_frame,
    weights_from_couplings,
)
from rectising.precision import Precision
from rectising.spectrum import (
    CharPolyContext,
    SystemPipeline,
    build_matrices,
    char_poly_eval,
    check_joint,
    chi_poly_derivative,
    dispersion_residual,
    enrich_spectrum,
    joint_spectrum,
    lambda_zeta,
    spectrum_for,
)

CRITICAL_K = 0.5 * math.log(1 + math.sqrt(2))


def _grid():
    return [Couplings(0.3, 0.3, 5, 6), Couplings(0.4, 0.7, 5, 6),
            Couplings(0.55, 0.35, 3, 4)]


class TestMatrices:
    def test_two_by_two_entries(self):
        c = Couplings(0.4, 0.7, 2, 2)
        w = weights_from_couplings(c)
        b = build_matrices(w, 2)
        ts, zs = float(w.t_star), float(w.z_star)
        tzm = float(w.t_minus * w.z_minus)
        shift = float(w.t_plus * w.z_plus) + tzm
        expect_p = -tzm / 2 * np.array([[2 + ts / zs, 1.0],
                                        [1.0, 2 + ts * zs]]) \
            + shift * np.eye(2)
        assert np.max(np.abs(b.T_plus - expect_p)) < 1e-15
        tsp = (ts + 1 / ts) / 2
        expect_m = -tzm / 2 * np.array([[zs, -1 / ts], [-1 / ts, 1 / zs]])
        # the interior main anti-diagonal is absent at M = 2
        del tsp
        assert np.max(np.abs(b.T_minus - expect_m)) < 1e-15

    def test_inverse_relation(self):
        w = weights_from_couplings(couplings_from_modulus(0.6, 0.8, 4, 6))
        b = build_matrices(w, 6)
        res = b.T @ (b.T_plus - b.T_minus) - np.eye(6)
        assert np.max(np.abs(res)) < 1e-12

    def test_transfer_determinant(self):
        for c in (Couplings(0.41, 0.23, 3, 4), Couplings(0.8, 0.15, 3, 4)):
            w = weights_from_couplings(c)
            b = build_matrices(w, 4)
            assert abs(np.linalg.det(b.T) - float(w.t)) < 1e-12

    def test_core_matrix_relation(self):
        c = Couplings(0.4, 0.7, 3, 6)
        w = weights_from_couplings(c)
        b = build_matrices(w, 6)
        tzm = float(w.t_minus * w.z_minus)
        shift = float(w.t_plus * w.z_plus) + tzm
        core = -(2 / tzm) * (b.T_plus - shift * np.eye(6))
        assert np.max(np.abs(core - b.C)) == 0

    def test_odd_extent_rejected(self):
        w = weights_from_couplings(Couplings(0.4, 0.7, 3, 4))
        with pytest.raises(DomainError):
            build_matrices(w, 5)


class TestJointSpectrum:
    # the last four have the smallest relative eigenvalue gaps (7e-4 to
    # 5e-3) of a binary64 sweep over k, eta-frac and M up to 64
    @pytest.mark.parametrize("c", _grid() + [
        couplings_from_modulus(k, eta, 4, M)
        for k, eta, M in ((0.05, 0.3, 32), (0.05, 1.5, 32), (30.0, 0.6, 32),
                          (0.3, 0.3, 64))])
    def test_joint_residuals_and_product(self, c):
        w = weights_from_couplings(c)
        b = build_matrices(w, c.M)
        pts = joint_spectrum(b, w)
        check_joint(b, pts)
        assert len(pts) == c.M
        V = np.array([p.eigvec for p in pts]).T
        assert np.max(np.abs(V.T @ V - np.eye(c.M))) < 1e-12
        prod = np.prod([p.lam for p in pts])
        assert abs(prod - float(w.t)) < 1e-9 * float(w.t)
        assert all(p.lam > 0 for p in pts)

    def test_trace_identity(self):
        c = Couplings(0.4, 0.7, 5, 6)
        w = weights_from_couplings(c)
        b = build_matrices(w, c.M)
        pts = joint_spectrum(b, w)
        check_joint(b, pts)
        assert abs(sum(p.lam_plus for p in pts) - np.trace(b.T_plus)) < 1e-11

    def test_halfdiff_product_closed_form(self):
        c = Couplings(0.45, 0.6, 5, 6)
        w = weights_from_couplings(c)
        b = build_matrices(w, c.M)
        pts = joint_spectrum(b, w)
        check_joint(b, pts)
        prod = np.prod([p.lam_minus for p in pts])
        ts2 = 1 - float(w.t_star) ** 2
        closed = ts2 * (1j * float(w.z_minus) / ts2) ** c.M
        assert abs(prod - closed) < 1e-9 * abs(closed)

    def test_critical_refused(self):
        # the joint eigensystem holds at k = 1; only the torus is refused
        c = Couplings(CRITICAL_K, CRITICAL_K, 4, 4)
        w = weights_from_couplings(c)
        b = build_matrices(w, 4)
        pts = joint_spectrum(b, w)
        check_joint(b, pts)
        with pytest.raises(CriticalModulusError):
            elliptic_frame(w)


class TestBinary64Checks:
    """The joint check is decided in binary64; the branch and, where the
    root is worse conditioned, lambda_minus come from v^T T_minus v at the
    working precision."""

    @pytest.mark.parametrize("bits", [53, 160])
    def test_check_catches_perturbed_eigenvector(self, bits):
        p = Precision(bits)
        w = weights_from_couplings(couplings_from_modulus(0.6, 0.8, 4, 64), p)
        b = build_matrices(w, 64)
        pts = joint_spectrum(b, w, p)
        check_joint(b, pts)
        pts[17].eigvec = list(pts[17].eigvec)
        pts[17].eigvec[30] += p.ctx.mpf(1e-7)
        with pytest.raises(JointDiagonalizationError, match="residual"):
            check_joint(b, pts)

    def test_edge_mode_branch_at_working_precision(self):
        p = Precision(160)
        M = 24
        w = weights_from_couplings(couplings_from_modulus(6.0, 1.0, 12, M), p)
        b = build_matrices(w, M)
        pts = joint_spectrum(b, w, p)
        edge = min(pts, key=lambda q: abs(q.gamma))
        assert abs(edge.gamma) < 1e-12
        # against a dense 320-bit T_minus: lambda_minus is the quotient of
        # its own vector, with its sign, to the working precision; the
        # root sqrt((lambda_+ - 1)(lambda_+ + 1)) would be too, except at
        # the edge mode, where lambda_+ - 1 cancels to 1e-26 (D8).  lambda
        # is s = lambda_+ + |lambda_minus| on the upper branch, 1/s on the
        # lower one
        wide = Precision(320).ctx
        Tm = wide.zeros(M, M)
        main, low, high = b.minus_bands
        for i in range(M):
            Tm[i, M - 1 - i] = main[i]
        for i in range(M - 1):
            Tm[i, M - 2 - i] = low[i]
            Tm[i + 1, M - 1 - i] = high[i]
        assert wide.mnorm(Tm - Tm.T, 1) == 0
        tol = wide.ldexp(wide.mnorm(Tm, 1), -150)
        for q in pts:
            v = wide.matrix([p.from_decimal(x) for x in q.eigvec])
            quot = (v.T * Tm * v)[0]
            lp, lm, lam = (wide.mpf(p.from_decimal(getattr(q, name)))
                           for name in ("lam_plus", "lam_minus", "lam"))
            assert (lm >= 0) == (quot >= 0)
            assert abs(lm - quot) <= tol
            root = wide.sqrt((lp - 1) * (lp + 1))
            assert (abs(abs(lm) - root) > tol) == (q is edge)
            s = lp + abs(lm)
            want = s if lm >= 0 else 1 / s
            assert abs(lam - want) <= wide.ldexp(want, -155)

    def test_working_precision_quotient_only_where_binary64_is_open(
            self, monkeypatch):
        # binary64 q settles the sign and the choice of root of most modes;
        # the edge mode of 12x24, k=6 takes q, so it is formed on decimal
        rows = []
        orig = spectrum._anti_quotients

        def recording(bands, V):
            if V.dtype == object:
                rows.extend(V.tolist())
            return orig(bands, V)

        monkeypatch.setattr(spectrum, "_anti_quotients", recording)
        p = Precision(160)
        for k, eta, L, M in ((0.6, 0.8, 64, 64), (6.0, 1.0, 12, 24)):
            w = weights_from_couplings(couplings_from_modulus(k, eta, L, M), p)
            rows.clear()
            pts = joint_spectrum(build_matrices(w, M), w, p)
            assert 0 < len(rows) <= M // 2
        edge = min(pts, key=lambda q: abs(q.gamma))
        assert list(edge.eigvec) in rows

    @pytest.mark.parametrize("bits", [53, 160])
    def test_lower_branch_is_the_reciprocal(self, bits):
        # lambda_+ reaches 111 at k=30, where lambda_+ - sqrt(lambda_+^2 - 1)
        # would lose 2 lambda_+^2 ~ 25000 units of roundoff; 1/s loses few
        p = Precision(bits)
        c = couplings_from_modulus(30, 0.3, 8, 32)
        pts = SystemPipeline(c, p).checked()[2]
        ref = {round(float(q.lam_plus), 6): q
               for q in SystemPipeline(c, Precision(320)).checked()[2]}
        lower = [q for q in pts if q.lam_minus < 0]
        assert max(float(q.lam_plus) for q in lower) > 100
        with decimal.localcontext(Precision(320).decimal):
            for q in lower:
                want = ref[round(float(q.lam_plus), 6)].lam
                assert abs(decimal.Decimal(q.lam) / want - 1) < 50 * p.eps

    def test_binary64_copies_made_once_and_read_only(self):
        w = weights_from_couplings(couplings_from_modulus(0.6, 0.8, 4, 8))
        b = build_matrices(w, 8)
        for name in ("T_plus", "T_minus", "T", "C"):
            a = getattr(b, name)
            assert a is getattr(b, name)
            assert not a.flags.writeable


class TestRefinedEigensystem:
    """Extended precision refines binary64 eigenpairs of the tridiagonal
    core; mpmath's dense eigsy is the independent oracle."""

    @pytest.mark.parametrize("bits", [100, 160, 256])
    @pytest.mark.parametrize("k,eta,M", [(0.6, 0.8, 32), (3.0, 1.0, 24),
                                         (6.0, 1.0, 24), (0.995, 1.0, 16)])
    def test_against_dense_eigensolver(self, k, eta, M, bits):
        p = Precision(bits)
        ctx = p.ctx
        w = weights_from_couplings(couplings_from_modulus(k, eta, 4, M), p)
        b = build_matrices(w, M)
        pts = sorted(joint_spectrum(b, w, p), key=lambda q: q.chi)
        want = sorted(ctx.eigsy(ctx.matrix(b.rows_C))[0])
        tol = ctx.ldexp(1, 10 - bits)
        for q, chi in zip(pts, want):
            got = p.from_decimal(q.chi)
            assert abs(got - chi) <= tol * abs(chi)
            v = [p.from_decimal(x) for x in q.eigvec]
            res = ctx.sqrt(sum(
                (sum(b.rows_C[i][j] * v[j] for j in range(M))
                 - got * v[i]) ** 2 for i in range(M)))
            assert res <= tol


    def test_unconverged_pair_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum, "RQI_MAX_STEPS", 1)
        p = Precision(160)
        w = weights_from_couplings(couplings_from_modulus(0.6, 0.8, 4, 8), p)
        with pytest.raises(JointDiagonalizationError, match="converge"):
            joint_spectrum(build_matrices(w, 8), w, p)

    def test_pair_moved_from_its_seed_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum, "SEED_TOL", 0.0)
        p = Precision(160)
        w = weights_from_couplings(couplings_from_modulus(0.6, 0.8, 4, 8), p)
        with pytest.raises(JointDiagonalizationError,
                           match="moved .* from its binary64 seed"):
            joint_spectrum(build_matrices(w, 8), w, p)

    def test_pairs_converged_together_raise(self, monkeypatch):
        # pair 1 starts from pair 0's seed, so it refines to pair 0
        eigh = np.linalg.eigh

        def collapsed(a):
            vals, vecs = eigh(a)
            vals[1], vecs[:, 1] = vals[0], vecs[:, 0]
            return vals, vecs
        monkeypatch.setattr(np.linalg, "eigh", collapsed)
        p = Precision(160)
        w = weights_from_couplings(couplings_from_modulus(0.6, 0.8, 4, 8), p)
        with pytest.raises(JointDiagonalizationError,
                           match="eigenpairs 0 and 1 of the core converged "
                                 "together"):
            joint_spectrum(build_matrices(w, 8), w, p)

    @pytest.mark.parametrize("bits", [100, 160, 256])
    def test_iteration_runs_on_decimal(self, count_calls, bits):
        # a silent fallback to mpmath scalars inside the RQI fails here;
        # what leaves the kernel stays on decimal
        p = Precision(bits)
        w = weights_from_couplings(couplings_from_modulus(6.0, 1.0, 4, 12), p)
        calls = count_calls(spectrum, "_tridiag_solve")
        pts = joint_spectrum(build_matrices(w, 12), w, p)
        assert len(calls) >= 12
        for d, e, sigma, b, tiny in calls:
            for x in (*d, *e, sigma, *b, tiny):
                assert type(x) is decimal.Decimal
        for q in pts:
            assert type(q.chi) is type(q.lam) is type(q.gamma) is \
                decimal.Decimal
            assert all(type(x) is decimal.Decimal for x in q.eigvec)


class TestAngles:
    @pytest.mark.parametrize("c", _grid())
    def test_dispersion_and_quantization(self, c):
        w, fr, _b, pts = spectrum_for(c)
        ordered = float(w.k) > 1
        for p in pts:
            assert abs(complex(dispersion_residual(p.gamma, p.phi, w))) < 1e-11
            assert p.quant_residual < (1e-6 if ordered else 1e-9)

    @pytest.mark.parametrize("c", _grid())
    def test_eigenvalue_roundtrip_from_torus_point(self, c):
        w, fr, _b, pts = spectrum_for(c)
        for p in pts:
            lam_u, zeta_u = lambda_zeta(p.u, fr)
            assert abs(lam_u - p.lam) < 1e-10 * max(1.0, p.lam)
            assert abs(zeta_u - complex(p.zeta)) < 1e-9

    def test_figure_placement(self):
        # the x-shaped layout of the torus points: half on the real axis,
        # half on the reciprocal line, real parts inside [0, K]
        c = couplings_from_modulus(0.95, 0.75, 4, 4)
        w, fr, _b, pts = spectrum_for(c)
        Kp = float(fr.K_prime)
        real_axis = [p for p in pts if abs(complex(p.u).imag) < 1e-9]
        shifted = [p for p in pts if abs(complex(p.u).imag - Kp) < 1e-9]
        assert len(real_axis) + len(shifted) == 4
        assert len(real_axis) == 2
        for p in pts:
            assert abs(complex(p.u).real) <= float(fr.K) + 1e-9

    def test_ordered_phase_complex_angle(self):
        c = Couplings(0.4, 0.7, 5, 6)   # k > 1
        w, fr, _b, pts = spectrum_for(c)
        complex_pts = [p for p in pts if abs(complex(p.phi).imag) > 1e-9]
        assert len(complex_pts) == 1
        assert complex(complex_pts[0].phi).imag > 0
        assert complex_pts[0].branch == "complex"

    def test_psi_against_defining_half_power(self):
        # e^(theta - psi) = i z cn^2(u) / cn^2(eta): branch-free square of
        # the defining half power
        c = Couplings(0.3, 0.3, 5, 6)
        w, fr, _b, pts = spectrum_for(c)
        cn_e = fr.kernel.sncndn(fr.eta)[1]
        for p in pts:
            lhs = p.exp_theta() / p.exp_psi()
            rhs = 1j * complex(w.z) * complex(p.cn_u) ** 2 / complex(cn_e) ** 2
            assert abs(complex(lhs) - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_exp_psi_matches_angle(self):
        c = Couplings(0.3, 0.3, 5, 6)
        _w, _fr, _b, pts = spectrum_for(c)
        for p in pts:
            assert abs(complex(p.exp_psi())
                       + 1 / cmath.tan(complex(p.phi) / 2)) < 1e-10
            assert abs(cmath.exp(-complex(p.psi))
                       + cmath.tan(complex(p.phi) / 2)) < 1e-10


def test_enrichment_evaluates_eta_once(count_calls):
    # the frame holds its eta triple; enrichment does not re-evaluate it
    # per eigenvalue
    pipe = SystemPipeline(couplings_from_modulus(0.65, 0.5, 6, 6))
    frame = pipe.frame()
    calls = count_calls(EllipticKernel, "sncndn")
    w, _b, pts = pipe.checked()
    enrich_spectrum(pts, frame, w)
    assert len(pts) == 6
    assert sum(1 for _kern, u in calls if u == frame.eta) <= 1


TABLE_ANGLES = ("u", "branch", "omega", "theta", "psi", "quant_residual")

#: what `enrich_spectrum` fills, which no route reads either
TORUS_ANGLES = ("phi", "zeta", "sn_u", "cn_u", "dn_u")


@pytest.mark.parametrize("k,eta,L,M", [(0.6, 0.9, 5, 6), (3, 0.9, 6, 6)])
@pytest.mark.parametrize("bits", [53, 160])
def test_table_angles_only_from_spectrum_for(k, eta, L, M, bits):
    # the routes' spectrum leaves the table's angles, phi, zeta and the
    # Jacobi triple unset; spectrum_for fills them for every point
    c = couplings_from_modulus(k, eta, L, M)
    _w, _b, route_pts = SystemPipeline(c, Precision(bits)).checked()
    _w, _fr, _b, table_pts = spectrum_for(c, Precision(bits))
    assert len(route_pts) == len(table_pts) == M
    for p in route_pts:
        assert all(getattr(p, name) is None
                   for name in TABLE_ANGLES + TORUS_ANGLES)
    for p in table_pts:
        assert all(getattr(p, name) is not None
                   for name in TABLE_ANGLES + TORUS_ANGLES)


@pytest.mark.parametrize("k,eta,L,M", [(0.6, 0.9, 5, 6), (3, 0.9, 6, 6)])
@pytest.mark.parametrize("bits", [53, 160])
def test_route_points_carry_no_torus_state(k, eta, L, M, bits):
    # only enrichment gives a point the context and modulus of e^theta;
    # e^theta from the triple is k sn cn / (i dn) at the located u
    c = couplings_from_modulus(k, eta, L, M)
    _w, _b, route_pts = SystemPipeline(c, Precision(bits)).checked()
    assert not any(hasattr(p, "_ctx") or hasattr(p, "_k")
                   for p in route_pts)
    w, fr, _b, table_pts = spectrum_for(c, Precision(bits))
    ctx = w.prec.ctx
    for p in table_pts:
        assert p._ctx is ctx and p._k == w.k
        sn, cn, dn = fr.kernel.sncndn(p.u)
        want = w.k * sn * cn / (ctx.mpc(0, 1) * dn)
        assert abs(p.exp_theta() - want) <= 64 * w.prec.eps * abs(want)


class TestCharPoly:
    def _cpc(self, c):
        w, fr, b, pts = spectrum_for(c)
        return b, CharPolyContext(w, fr, c.M, pts)

    @pytest.mark.parametrize("kind,matrix", [
        ("lambda_plus", "T_plus"), ("chi", "C"),
        ("lambda", "T"), ("lambda_minus", "T_minus")])
    def test_against_determinant_oracle(self, kind, matrix):
        c = Couplings(0.42, 0.31, 3, 4)
        b, cpc = self._cpc(c)
        A = getattr(b, matrix)
        rng = np.random.default_rng(11)
        for _ in range(6):
            x = complex(rng.normal(), rng.normal())
            got = complex(char_poly_eval(kind, x, cpc))
            want = np.linalg.det(x * np.eye(c.M) - A)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_at_own_roots(self):
        c = Couplings(0.3, 0.3, 5, 6)
        _b, cpc = self._cpc(c)
        scale = max(abs(p.lam_plus) for p in cpc.points) ** c.M
        for p in cpc.points:
            assert abs(complex(char_poly_eval("lambda_plus", p.lam_plus,
                                              cpc))) < 1e-8 * scale

    def test_factorization_through_reciprocal(self):
        c = Couplings(0.38, 0.52, 5, 6)
        _b, cpc = self._cpc(c)
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = complex(rng.normal(), rng.normal())
            if abs(lam) < 0.1:
                continue
            lp = (lam + 1 / lam) / 2
            lhs = complex(char_poly_eval("lambda_plus", lp, cpc))
            rhs = complex(char_poly_eval("lambda", lam, cpc)) \
                * complex(char_poly_eval("lambda", 1 / lam, cpc)) \
                / (2 ** c.M * float(cpc.weights.t))
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_inversion_transform_relations(self):
        c = Couplings(0.3, 0.3, 5, 6)
        w, fr, _b, _pts = spectrum_for(c)
        import random
        rng = random.Random(7)
        K, Kp = float(fr.K), float(fr.K_prime)
        count = 0
        while count < 10:
            u = complex(rng.uniform(-K, K), rng.uniform(-Kp, Kp))
            try:
                lam, zet = lambda_zeta(u, fr)
                lam_i, zet_i = lambda_zeta(u + 1j * Kp, fr)
                om = fr.kernel.am(2 * u)
                om_i = fr.kernel.am(2 * (u + 1j * Kp))
            except Exception:
                continue
            count += 1
            assert abs(lam * lam_i - 1) < 1e-10 * max(1.0, abs(lam))
            assert abs(zet * zet_i - 1) < 1e-10
            assert abs(complex(om + om_i) - math.pi) < 1e-10

    def test_derivative_by_pairwise_differences(self):
        c = Couplings(0.3, 0.3, 3, 4)
        _b, cpc = self._cpc(c)
        pts = cpc.points
        poly = np.poly([p.chi for p in pts])
        dpoly = np.polyder(poly)
        for i, p in enumerate(pts):
            got = complex(chi_poly_derivative(pts, i))
            want = np.polyval(dpoly, p.chi)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_finite_difference_derivatives(self):
        # closed forms of the angle derivatives vs central differences
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        w, fr, _b, _pts = spectrum_for(c)
        h = 1e-5
        for x in (0.31, 0.62, 0.9):
            u = complex(x, 0.4 * float(fr.K_prime))
            lam, zet = lambda_zeta(u, fr)
            lp, zp = lambda_zeta(u + h, fr)
            lm, zm = lambda_zeta(u - h, fr)
            dgam_fd = (cmath.log(complex(lp)) - cmath.log(complex(lm))) / (2 * h)
            dphi_fd = complex((zp - zm) / (2 * h) / (1j * zet))
            lam_m = (lam - 1 / lam) / 2
            sin_phi = complex((zet - 1 / zet)) / 2j
            s2 = complex(fr.kernel.sncndn(2 * u)[0])
            assert abs(complex(-2 * fr.k * s2 * lam_m) - dgam_fd) < 1e-7
            assert abs(complex(2 * lam_m / w.z_minus) - dphi_fd) < 1e-7
            assert abs(complex(2 * w.t_minus * sin_phi) - dgam_fd) < 1e-7

    def test_unknown_kind(self):
        c = Couplings(0.3, 0.3, 3, 4)
        _b, cpc = self._cpc(c)
        with pytest.raises(DomainError):
            char_poly_eval("nope", 1.0, cpc)

    @pytest.mark.parametrize("bits", [53, 160])
    def test_degenerate_point_raises(self, bits):
        # the closed form divides by zero at lambda_n, where
        # det(lambda_n I - T) = 0.0156697...: raise, do not approximate
        c = Couplings(0.42, 0.31, 3, 4)
        w, fr, _b, pts = spectrum_for(c, Precision(bits))
        with pytest.raises(PoleError):
            char_poly_eval("lambda", w.lambda_n, CharPolyContext(
                w, fr, c.M, pts))


def test_halfdiff_antiband_structure():
    # three anti-bands: dual weight above the main anti-diagonal, the
    # dual-split band on it (reciprocal-dual corners), inverse dual below
    c = Couplings(0.4, 0.7, 3, 6)
    w = weights_from_couplings(c)
    b = build_matrices(w, 6)
    Tm = b.T_minus
    M = 6
    pref = -float(w.t_minus * w.z_minus) / 2
    ts, zs = float(w.t_star), float(w.z_star)
    tsp = (ts + 1 / ts) / 2
    for i in range(M):
        for j in range(M):
            s = i + j
            if s == M - 2:
                want = pref * zs
            elif s == M - 1:
                want = pref * (-1 / ts) if i in (0, M - 1) else pref * (-2 * tsp)
            elif s == M:
                want = pref * (1 / zs)
            else:
                want = 0.0
            assert abs(Tm[i, j] - want) < 1e-15, (i, j)
