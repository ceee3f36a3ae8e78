"""The residual-reporting identity suite."""

import json

import pytest

from rectising import params
from rectising.identities import CATALOGUE, run_identity_suite
from rectising.params import Couplings


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

    @pytest.mark.parametrize("M", [4, 6, 8])
    def test_geometry_sweep(self, M):
        rep = run_identity_suite((0.6, 0.5, M, 5), samples=8)
        assert not rep.failed
