"""The residual-reporting identity suite."""

import json
import math

import pytest

from rectising import identities, params, spectrum
from rectising.elliptic import EllipticKernel
from rectising.errors import PoleError
from rectising.identities import CATALOGUE, Residuals, run_identity_suite
from rectising.params import Couplings, couplings_from_modulus
from rectising.spectrum import SystemPipeline


def _ids(report):
    return [e.identity_id for e in report.entries]


class TestSuiteRuns:
    def test_disordered_figure_configuration(self):
        rep = run_identity_suite((0.6, 0.9, 6, 5), tol=1e-9, samples=12)
        assert not rep.failed
        gating = [e for e in rep.entries if e.gating]
        assert all(e.status == "pass" for e in gating)

    def test_ordered_phase(self):
        rep = run_identity_suite((1.66, 0.9, 6, 5), tol=1e-8, samples=12)
        assert not rep.failed

    def test_accepts_couplings(self):
        rep = run_identity_suite(Couplings(0.3, 0.3, 5, 4), samples=8)
        assert not rep.failed

    def test_transfer_determinant_entry(self):
        rep = run_identity_suite(Couplings(0.42, 0.31, 5, 4), samples=8)
        e = {x.identity_id: x for x in rep.entries}["determinant-family"]
        assert e.parts["transfer"] < 1e-11

    def test_no_silent_skips(self):
        rep = run_identity_suite((0.6, 0.9, 4, 5), samples=8)
        assert len(rep.entries) == len(CATALOGUE)
        for e in rep.entries:
            assert e.status in ("pass", "fail", "skip", "error")
            if e.status == "error":
                assert e.note


class TestSharedBuild:
    def test_weights_built_once(self, count_calls):
        calls = count_calls(params, "weights_from_couplings")
        run_identity_suite((0.6, 0.9, 8, 8), samples=4)
        assert len(calls) == 1

    def test_eta_triple_evaluated_once(self, count_calls):
        # entries read the frame's eta triple instead of re-evaluating it
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        eta = SystemPipeline(c).frame().eta
        calls = count_calls(EllipticKernel, "sncndn")
        run_identity_suite(c)
        assert sum(1 for _kern, u in calls if u == eta) <= 1

    def test_shared_sample_values_evaluated_once(self, count_calls):
        # am(2u) serves two entries, lambda_zeta(u +- FD_STEP) two others
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        samples = identities.build_env(c).samples
        am = count_calls(EllipticKernel, "am")
        lz = count_calls(spectrum, "lambda_zeta")
        run_identity_suite(c)
        twice = [2 * s.u for s in samples]
        steps = [s.u + d for s in samples[:identities.FD_SAMPLES]
                 for d in (identities.FD_STEP, -identities.FD_STEP)]
        assert [sum(1 for _kern, u in am if u == x) for x in twice] \
            == [1] * len(twice)
        assert [sum(1 for u, _frame in lz if u == x) for x in steps] \
            == [1] * len(steps)

    @pytest.mark.parametrize("where, outcome", [
        ("am", {"boundary-phase-identities": "error",
                "inversion-transform": "pass"}),
        ("lambda_zeta", {"angle-derivatives": "error",
                         "derivative-chain": "error"})])
    def test_a_pole_in_a_shared_value(self, monkeypatch, where, outcome):
        # a PoleError at one sample errors the entries that read the value
        # outside a guard, and skips the sample in those that guard it
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        u = identities.build_env(c).samples[3].u
        owner, pole = ((EllipticKernel, 2 * u) if where == "am"
                       else (identities, u + identities.FD_STEP))
        orig = getattr(owner, where)

        def raising(*args):
            if pole in args:
                raise PoleError("pole")
            return orig(*args)

        monkeypatch.setattr(owner, where, raising)
        entries = {e.identity_id: e for e in run_identity_suite(c).entries}
        for identity_id, status in outcome.items():
            assert entries[identity_id].status == status
            if status == "error":
                assert entries[identity_id].note == "PoleError: pole"


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
                            [("probe", "test", True, 1.0, fn)])
        rep = run_identity_suite((0.6, 0.9, 4, 4), samples=2)
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
        rep = run_identity_suite((0.6, 0.9, 4, 5), samples=8)
        by_id = {x.identity_id: x for x in rep.entries}
        assert {"cn_form", "dn_form"} <= set(by_id["addition-theorem"].parts)
        assert {"lambda", "zeta"} <= set(
            by_id["eigenvalue-dual-forms"].parts)


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_identity_suite((0.6, 0.9, 6, 5), samples=10, seed=42)
        b = run_identity_suite((0.6, 0.9, 6, 5), samples=10, seed=42)
        da, db = a.to_dict(), b.to_dict()
        da.pop("seconds")
        db.pop("seconds")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_report_serializable(self):
        rep = run_identity_suite((0.6, 0.9, 4, 5), samples=8)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        assert "entries" in json.loads(blob)


class TestExtentFactorReadings:
    """Empirical resolution of the extent-factor question: the closed
    product forms carry the transverse extent as a genuine multiplicative
    factor on the split weights."""

    def test_point_products(self):
        rep = run_identity_suite((0.6, 0.9, 6, 5), samples=8)
        e = {x.identity_id: x for x in rep.entries}[
            "eigenvalue-point-products"]
        assert e.status == "pass"
        assert e.details["s_without_extent_factor"] > 1e-3
        assert e.details["d_without_extent_factor"] > 1e-3

    def test_jacobi_products_diagnostic(self):
        rep = run_identity_suite((0.95, 0.5, 6, 5), samples=8)
        e = {x.identity_id: x for x in rep.entries}["jacobi-products"]
        assert not e.gating
        assert e.parts["sn"] < 1e-10
        assert e.details["sn_without_extent_factor"] > 1e-3

    def test_unshifted_core_derivative_is_wrong_reading(self):
        rep = run_identity_suite((0.6, 0.9, 6, 5), samples=8)
        e = {x.identity_id: x for x in rep.entries}["derivative-chain"]
        assert e.status == "pass"
        assert e.details["chi_unshifted_reading"] > 1.0


class TestGating:
    def test_impossible_tolerance_marks_failed(self):
        rep = run_identity_suite((0.6, 0.9, 4, 5), tol=1e-18, samples=8)
        assert rep.failed

    def test_worst_entry_reported(self):
        rep = run_identity_suite((0.6, 0.9, 4, 5), samples=8)
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
        rep = run_identity_suite((0.6, 0.5, M, 5), samples=8)
        assert not rep.failed
