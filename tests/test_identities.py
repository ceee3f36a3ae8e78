"""The residual-reporting identity suite."""

import json
import math
import random

import numpy as np
import pytest

from rectising import identities, params
from rectising.elliptic import EllipticKernel
from rectising.errors import PoleError
from rectising.identities import CATALOGUE, Residuals, run_identity_suite
from rectising.params import Couplings, couplings_from_modulus
from rectising.precision import Precision
from rectising.spectrum import SystemPipeline


def _ids(report):
    return [e.identity_id for e in report.entries]


def _record_nodes(monkeypatch, pole=None):
    """Record every node the kernel evaluates, by `sncndn` or
    `sncndn_line`, and raise PoleError("pole") wherever ``pole`` is one."""
    nodes = []
    scalar, line = EllipticKernel.sncndn, EllipticKernel.sncndn_line

    def check(new):
        nodes.extend(new)
        if pole in new:
            raise PoleError("pole")

    def sncndn(kern, u):
        check([complex(u)])
        return scalar(kern, u)

    def sncndn_line(kern, xs, y):
        check(list(map(complex, *(a.ravel()
                                  for a in np.broadcast_arrays(xs, y)))))
        return line(kern, xs, y)

    monkeypatch.setattr(EllipticKernel, "sncndn", sncndn)
    monkeypatch.setattr(EllipticKernel, "sncndn_line", sncndn_line)
    return nodes


class TestSuiteRuns:
    def test_disordered_figure_configuration(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        rep = run_identity_suite(c, tol=1e-9, samples=12)
        assert not rep.failed
        gating = [e for e in rep.entries if e.gating]
        assert all(e.status == "pass" for e in gating)

    def test_ordered_phase(self):
        c = couplings_from_modulus(1.66, 0.9, 5, 6)
        rep = run_identity_suite(c, tol=1e-8, samples=12)
        assert not rep.failed

    def test_accepts_couplings(self):
        rep = run_identity_suite(Couplings(0.3, 0.3, 5, 4), samples=8)
        assert not rep.failed

    def test_transfer_determinant_entry(self):
        rep = run_identity_suite(Couplings(0.42, 0.31, 5, 4), samples=8)
        e = {x.identity_id: x for x in rep.entries}["determinant-family"]
        assert e.parts["transfer"] < 1e-11

    def test_no_silent_skips(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 4)
        rep = run_identity_suite(c, samples=8)
        assert len(rep.entries) == len(CATALOGUE)
        for e in rep.entries:
            assert e.status in ("pass", "fail", "skip", "error")
            if e.status == "error":
                assert e.note


class TestSharedBuild:
    def test_weights_built_once(self, count_calls):
        calls = count_calls(params, "weights_from_couplings")
        run_identity_suite(couplings_from_modulus(0.6, 0.9, 8, 8), samples=4)
        assert len(calls) == 1

    def test_eta_triple_evaluated_once(self, count_calls):
        # entries read the frame's eta triple instead of re-evaluating it
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        eta = SystemPipeline(c).frame().eta
        calls = count_calls(EllipticKernel, "sncndn")
        run_identity_suite(c)
        assert sum(1 for _kern, u in calls if u == eta) <= 1

    def test_shared_sample_values_evaluated_once(self, monkeypatch,
                                                 count_calls):
        # am(2u) serves two entries, lambda_zeta(u +- h) and
        # lambda_zeta(u +- 2h) (h = FD_STEP) two others; the latter read sn
        # at u +- h +- eta and u +- 2h +- eta
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        env = identities.build_env(c)
        samples, eta = env.samples, env.frame.eta
        am = count_calls(EllipticKernel, "am")
        nodes = _record_nodes(monkeypatch)
        run_identity_suite(c)
        twice = [2 * s.u for s in samples]
        steps = [s.u + d + e for s in samples[:identities.FD_SAMPLES]
                 for d in (identities.FD_STEP, -identities.FD_STEP,
                           2 * identities.FD_STEP, -2 * identities.FD_STEP)
                 for e in (eta, -eta)]
        assert [sum(1 for _kern, u in am if u == x) for x in twice] \
            == [1] * len(twice)
        assert [nodes.count(x) for x in steps] == [1] * len(steps)

    @pytest.mark.parametrize("where, outcome", [
        ("am", {"boundary-phase-identities": "error",
                "inversion-transform": "pass"}),
        ("lambda_zeta", {"angle-derivatives": "error",
                         "derivative-chain": "error"})])
    def test_a_pole_in_a_shared_value(self, monkeypatch, where, outcome):
        # a PoleError at one sample errors the entries that read the value
        # outside a guard, and skips the sample in those that guard it
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        env = identities.build_env(c)
        u = env.samples[3].u
        if where == "am":
            orig = EllipticKernel.am

            def raising(kern, v, **kwargs):
                if v == 2 * u:
                    raise PoleError("pole")
                return orig(kern, v, **kwargs)

            monkeypatch.setattr(EllipticKernel, "am", raising)
        else:
            # lambda_zeta(u + FD_STEP) reads sn at u + FD_STEP + eta
            _record_nodes(monkeypatch,
                          pole=u + identities.FD_STEP + env.frame.eta)
        entries = {e.identity_id: e for e in run_identity_suite(c).entries}
        for identity_id, status in outcome.items():
            assert entries[identity_id].status == status
            if status == "error":
                assert entries[identity_id].note == "PoleError: pole"


def _scalar_draw(frame, rng, count):
    """The sampler as it was written before batching: one scalar kernel
    call per point, candidate by candidate.  The reference for the
    batched `identities._draw_samples`."""
    kern = frame.kernel
    K, Kp = float(frame.K), float(frame.K_prime)
    out = []
    guard = 0
    while len(out) < count and guard < 400 * count:
        guard += 1
        u = frame.prec.ctx.mpc(rng.uniform(-K, K), rng.uniform(-Kp, Kp))
        try:
            at_u = kern.sncndn(u)
            sp = kern.sncndn(u + frame.eta)[0]
            sm = kern.sncndn(u - frame.eta)[0]
            at_2u = kern.sncndn(2 * u)
            ut = frame.swap_u(u)
            at_ut = kern.sncndn(ut)
            at_2ut = kern.sncndn(2 * ut)
        except PoleError:
            continue
        mags = [*at_u, sp, sm, *at_2u, at_ut[0], at_2ut[0]]
        if any(not (1e-2 < abs(m) < 1e2) for m in mags):
            continue
        lam = 1 / (frame.k * sp * sm)
        if not (1e-3 < abs(lam) < 1e3) or abs(lam - 1) < 1e-3:
            continue
        out.append(identities.TorusSample(u, ut, at_u, at_2u, at_ut, at_2ut,
                                          lam, sp / sm))
    return out


class TestBatchedKernelWork:
    @pytest.mark.parametrize("k", [0.6, 1.66, 3, 30])
    def test_sampler_matches_the_scalar_loop(self, k):
        # the same points in the same order, and the generator left in the
        # same state; values within the rounding of the array kernel (k=30
        # rejects 8 of 72 candidates)
        frame = SystemPipeline(couplings_from_modulus(k, 0.9, 5, 6)).frame()
        rng_ref, rng = random.Random(11), random.Random(11)
        for _ in range(2):
            want = _scalar_draw(frame, rng_ref, 64)
            got = identities._draw_samples(frame, rng, 64)
            assert [s.u for s in got] == [s.u for s in want]
            assert [s.ut for s in got] == [s.ut for s in want]
            assert rng.getstate() == rng_ref.getstate()
            for a, b in zip(got, want):
                for name in ("at_u", "at_2u", "at_ut", "at_2ut"):
                    assert np.allclose(getattr(a, name), getattr(b, name),
                                       rtol=1e-13, atol=0)
                assert abs(a.lam - b.lam) <= 1e-13 * abs(b.lam)
                assert abs(a.zeta - b.zeta) <= 1e-13 * abs(b.zeta)

    def test_sampler_at_extended_precision_is_the_scalar_loop(self):
        frame = SystemPipeline(couplings_from_modulus(0.6, 0.9, 5, 6),
                               Precision(160)).frame()
        rng_ref, rng = random.Random(3), random.Random(3)
        assert identities._draw_samples(frame, rng, 6) \
            == _scalar_draw(frame, rng_ref, 6)
        assert rng.getstate() == rng_ref.getstate()

    def test_a_pole_candidate_is_rejected_alone(self, monkeypatch):
        frame = SystemPipeline(couplings_from_modulus(0.6, 0.9, 5, 6)).frame()
        rng_ref, rng = random.Random(5), random.Random(5)
        want = _scalar_draw(frame, rng_ref, 9)
        # one batch of 8 candidates, the third raising at 2u
        _record_nodes(monkeypatch, pole=2 * want[2].u)
        got = identities._draw_samples(frame, rng, 8)
        assert [s.u for s in got] == [s.u for i, s in enumerate(want)
                                      if i != 2]
        assert rng.getstate() == rng_ref.getstate()

    @pytest.mark.parametrize("bits", [53, 160])
    def test_a_pole_row_leaves_the_other_rows(self, monkeypatch, bits):
        kern = SystemPipeline(couplings_from_modulus(0.6, 0.9, 5, 6),
                              Precision(bits)).frame().kernel
        ctx = kern.prec.ctx
        rows = [[ctx.mpc(0.1 * j, 0.3), ctx.mpc(0.2, 0.1 * j)]
                for j in range(1, 5)]
        want = identities._triples(kern, rows)
        assert not any(isinstance(at, PoleError) for at in want)
        _record_nodes(monkeypatch, pole=complex(rows[2][1]))
        got = identities._triples(kern, rows)
        assert isinstance(got[2], PoleError) and str(got[2]) == "pole"
        assert [got[j] for j in (0, 1, 3)] == [want[j] for j in (0, 1, 3)]

    def test_no_per_sample_scalar_kernel_call(self, monkeypatch):
        # outside am, a binary64 suite run makes the same scalar kernel
        # calls whatever the sample count: the frame triples, the located
        # eigenvalue points and the closed-form entries, none per sample
        scalar, am = EllipticKernel.sncndn, EllipticKernel.am
        depth, calls = [], []

        def counted(kern, u):
            if not depth:
                calls.append(u)
            return scalar(kern, u)

        def am_call(kern, u, **kwargs):
            depth.append(u)
            try:
                return am(kern, u, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(EllipticKernel, "sncndn", counted)
        monkeypatch.setattr(EllipticKernel, "am", am_call)
        c = couplings_from_modulus(0.6, 0.8, 4, 4)
        counts = []
        for samples in (4, 16):
            calls.clear()
            run_identity_suite(c, samples=samples)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 24


    @pytest.mark.parametrize("k, eta, L, M", [(0.6, 0.8, 4, 4),
                                              (2.5, 0.8, 6, 10)])
    def test_no_scalar_evaluation_at_a_sampled_point(self, monkeypatch, k,
                                                     eta, L, M):
        # in extended precision am(2u), am(2ut) and am(2(u + iK')) reduced
        # onto 2u take the sampler's scalar triples: no evaluation of a
        # suite run repeats a point that _draw_samples evaluated in it
        draw, scalar = identities._draw_samples, EllipticKernel._sncndn_phase
        drawing, sampled, repeats = [], set(), []

        def draw_samples(*args):
            drawing.append(True)
            try:
                return draw(*args)
            finally:
                drawing.pop()

        def counted(kern, u):
            if drawing:
                sampled.add(u)
            elif u in sampled:
                repeats.append(u)
            return scalar(kern, u)

        monkeypatch.setattr(identities, "_draw_samples", draw_samples)
        monkeypatch.setattr(EllipticKernel, "_sncndn_phase", counted)
        run_identity_suite(couplings_from_modulus(k, eta, L, M),
                           prec=Precision(160))
        assert sampled and repeats == []

    @pytest.mark.parametrize("k, eta, L, M, seed", [(0.6, 0.8, 4, 4, 38),
                                                    (2.5, 0.8, 6, 10, 11)])
    def test_binary64_amplitudes_are_the_kernels(self, k, eta, L, M, seed):
        # here a sampler triple from sncndn_line differs in the last bit
        # from the scalar kernel's at 2u; the suite's amplitudes do not,
        # so omega is the same here as in spectrum_for
        env = identities.build_env(couplings_from_modulus(k, eta, L, M),
                                   seed=seed)
        kern, i = env.kern, 1j
        assert any(s.at_2u != kern.sncndn(2 * s.u) for s in env.samples)
        for s, om in zip(env.samples, env.am_2u):
            assert om == kern.am(2 * s.u)
            assert env.am_at(2 * s.ut, 2 * s.ut, s.at_2ut) \
                == kern.am(2 * s.ut)
            v = 2 * (s.u + i * env.frame.K_prime)
            assert env.am_at(v, 2 * s.u, s.at_2u) == kern.am(v)


class TestRecorder:
    def test_compare_keeps_worst(self):
        r = Residuals()
        r.compare("x", 1.5, 1.0)
        r.compare("x", 1.0, 1.0)
        r.compare("x", 2.0, 4.0)
        assert r.parts == {"x": 0.5}

    def test_compare_up_to_sign(self):
        r = Residuals()
        r.compare_up_to_sign("x", -2.0, 2.0)
        r.compare_up_to_sign("y", 2.5, 2.0)
        assert r.parts == {"x": 0.0, "y": 0.25}

    def test_nan_is_worst(self):
        r = Residuals()
        r.add("x", 1.0)
        r.add("x", float("nan"))
        r.add("x", 2.0)
        assert math.isnan(r.parts["x"])
        assert math.isnan(r.worst)

    def _suite_of(self, monkeypatch, fn):
        monkeypatch.setattr(identities, "CATALOGUE",
                            [("probe", "test", True, fn)])
        c = couplings_from_modulus(0.6, 0.9, 4, 4)
        rep = run_identity_suite(c, samples=2)
        (e,) = rep.entries
        return rep, e

    def test_details_are_not_gated(self, monkeypatch):
        def probe(env, r):
            r.compare("small", 1.0, 1.0)
            r.add("large", 5.0, detail=True)
        rep, e = self._suite_of(monkeypatch, probe)
        assert e.status == "pass" and not rep.failed
        assert e.parts == {"small": 0.0}
        assert e.details == {"large": 5.0}
        assert e.max_abs_residual == 0.0

    def test_part_recorded_up_front_is_reported(self, monkeypatch):
        def probe(env, r):
            r.add("skipped", 0.0)
            for _u in []:
                r.add("skipped", 1.0)
        _rep, e = self._suite_of(monkeypatch, probe)
        assert e.parts == {"skipped": 0.0}
        assert e.status == "pass"

    def test_nan_part_fails(self, monkeypatch):
        def probe(env, r):
            r.add("bad", float("nan"))
            r.add("bad", 0.0)
        rep, e = self._suite_of(monkeypatch, probe)
        assert e.status == "fail" and rep.failed

    @pytest.mark.parametrize("sign", [-1, 0])
    def test_partition_chain_refuses_det_h_not_positive(self, monkeypatch,
                                                         sign):
        from rectising import partition
        kernel = partition.logdet_scaled

        def signed(rows, prec):
            _sign, log_abs, loss = kernel(rows, prec)
            return sign, log_abs if sign else -math.inf, loss

        monkeypatch.setattr(partition, "logdet_scaled", signed)
        rep, e = self._suite_of(monkeypatch, identities._e_physics_chain)
        assert e.status == "error" and rep.failed
        assert e.note == f"PhaseLeakError: det H has sign {sign}, not +1"

    def test_skipping_entries_report_their_parts(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 4)
        rep = run_identity_suite(c, samples=8)
        by_id = {x.identity_id: x for x in rep.entries}
        assert {"cn_form", "dn_form"} <= set(by_id["addition-theorem"].parts)
        assert {"lambda", "zeta"} <= set(
            by_id["eigenvalue-dual-forms"].parts)


class TestDeterminism:
    def test_same_seed_same_report(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        a = run_identity_suite(c, samples=10, seed=42)
        b = run_identity_suite(c, samples=10, seed=42)
        da, db = a.to_dict(), b.to_dict()
        da.pop("seconds")
        db.pop("seconds")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_report_serializable(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 4)
        rep = run_identity_suite(c, samples=8)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        assert "entries" in json.loads(blob)


class TestExtentFactorReadings:
    """Empirical resolution of the extent-factor question: the closed
    product forms carry the transverse extent as a genuine multiplicative
    factor on the split weights."""

    def test_point_products(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        rep = run_identity_suite(c, samples=8)
        e = {x.identity_id: x for x in rep.entries}[
            "eigenvalue-point-products"]
        assert e.status == "pass"
        assert e.details["s_without_extent_factor"] > 1e-3
        assert e.details["d_without_extent_factor"] > 1e-3

    def test_jacobi_products_diagnostic(self):
        c = couplings_from_modulus(0.95, 0.5, 5, 6)
        rep = run_identity_suite(c, samples=8)
        e = {x.identity_id: x for x in rep.entries}["jacobi-products"]
        assert not e.gating
        assert e.parts["sn"] < 1e-10
        assert e.details["sn_without_extent_factor"] > 1e-3

    def test_unshifted_core_derivative_is_wrong_reading(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        rep = run_identity_suite(c, samples=8)
        e = {x.identity_id: x for x in rep.entries}["derivative-chain"]
        assert e.status == "pass"
        assert e.details["chi_unshifted_reading"] > 1.0


class TestGating:
    def test_impossible_tolerance_marks_failed(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 4)
        rep = run_identity_suite(c, tol=1e-18, samples=8)
        assert rep.failed

    def test_worst_entry_reported(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 4)
        rep = run_identity_suite(c, samples=8)
        assert rep.worst is not None
        assert rep.worst.max_abs_residual >= max(
            e.max_abs_residual for e in rep.entries
            if e.status in ("pass", "fail"))

    def test_ordered_edge_mode_entries_pass_the_gate(self):
        # the edge mode's lambda_minus from T_minus brings these three
        # under GATING_TOL; they were 9.2e-9, 3.7e-9 and 1.8e-9
        rep = run_identity_suite(couplings_from_modulus(3, 0.9, 8, 12))
        entries = {e.identity_id: e for e in rep.entries}
        for name in ("eigenvalue-quantization", "determinant-family",
                     "eigen-half-angle-forms"):
            assert entries[name].gating and entries[name].status == "pass"
            assert entries[name].max_abs_residual <= identities.GATING_TOL

    @pytest.mark.parametrize("M", [4, 6, 8])
    def test_geometry_sweep(self, M):
        c = couplings_from_modulus(0.6, 0.5, 5, M)
        rep = run_identity_suite(c, samples=8)
        assert not rep.failed
