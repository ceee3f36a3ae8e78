"""Command-line surface: subcommands, formats, exit codes, round trips."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rectising
from rectising import cli
from rectising.cli import build_parser, main
from rectising.identities import GATING_TOL
from rectising.partition import AGREEMENT_DEV


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(name):
    """``parse_constant`` of strict JSON: NaN and Infinity are errors."""
    raise ValueError(f"non-strict JSON constant {name}")


def _hankel_off_by(monkeypatch, rel):
    """Make every Hankel log Z, at every precision, off by ``rel``: no
    known system makes the routes of route="all" disagree past its
    retry, so this one does."""
    import rectising.partition as partition
    route = partition.hankel_logZ

    def off(c, prec, pipe):
        lz, diag = route(c, prec, pipe)
        return lz * (1 + rel), diag
    monkeypatch.setattr(partition, "hankel_logZ", off)


class TestZ:
    def test_route_all_deviations(self, capsys):
        code, out, _ = run_cli(capsys, "z", "--L", "3", "--M", "4",
                               "--Kh", "0.4", "--Kv", "0.7", "--route", "all")
        assert code == 0
        rec = json.loads(out)
        assert rec["max_pairwise_rel_dev"] < 1e-9
        # the spin oracle, block and Hankel, at 16 spins and fewer too
        assert set(rec["routes"]) == {"spin", "block", "hankel"}
        assert all(r["status"] == "ok" for r in rec["routes"].values())

    def test_run_record_per_route(self, capsys):
        code, out, _ = run_cli(capsys, "z", "--L", "3", "--M", "4",
                               "--Kh", "0.4", "--Kv", "0.7")
        assert code == 0
        rec = json.loads(out)
        assert rec["pipeline_seconds"] >= 0
        for r in rec["routes"].values():
            assert {"seconds", "precision_bits", "diagnostics"} <= set(r)
            # every diagnostic is a JSON number or string
            assert all(type(v) in (int, float, str)
                       for v in r["diagnostics"].values())
        diag = rec["routes"]["hankel"]["diagnostics"]
        assert diag["weight_spread_digits"] > 0

    def test_single_pfaffian_route_on_large_system(self, capsys):
        # no cross-check catches a binary64 Pfaffian off by 4.7e-4 here,
        # so the single route runs at 160 bits
        from rectising.params import couplings_from_modulus
        from rectising.partition import block_transfer_logZ
        from rectising.precision import Precision
        code, out, _ = run_cli(capsys, "z", "--L", "24", "--M", "16",
                               "--k", "0.9", "--eta-frac", "1.0",
                               "--route", "pfaffian")
        assert code == 0
        r = json.loads(out)["routes"]["pfaffian"]
        assert r["status"] == "ok" and r["precision_bits"] == 160
        c = couplings_from_modulus(0.9, 1.0, 24, 16)
        ref = float(block_transfer_logZ(c, Precision(160))[0])
        assert abs(r["logZ"] - ref) < 1e-12 * abs(ref)

    def test_single_pfaffian_route_on_small_system(self, capsys):
        # binary64 leaves this Pfaffian ok but off by 1.0e-2, so a single
        # Pfaffian route runs at 160 bits at every size
        from rectising.params import couplings_from_modulus
        from rectising.partition import block_transfer_logZ
        from rectising.precision import Precision
        code, out, _ = run_cli(capsys, "z", "--L", "10", "--M", "12",
                               "--k", "1.45", "--eta-frac", "0.3",
                               "--route", "pfaffian")
        assert code == 0
        r = json.loads(out)["routes"]["pfaffian"]
        assert r["status"] == "ok" and r["precision_bits"] == 160
        c = couplings_from_modulus(1.45, 0.3, 10, 12)
        ref = float(block_transfer_logZ(c, Precision(160))[0])
        assert abs(r["logZ"] - ref) < 1e-12 * abs(ref)

    def test_modulus_parametrization(self, capsys):
        code, out, _ = run_cli(capsys, "z", "--L", "5", "--M", "6",
                               "--k", "0.6", "--eta-frac", "0.9")
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["k"] - 0.6) < 1e-10
        assert rec["max_pairwise_rel_dev"] < 1e-9

    def test_json_roundtrip_byte_identical(self, capsys):
        _, out, _ = run_cli(capsys, "z", "--L", "3", "--M", "4",
                            "--Kh", "0.4", "--Kv", "0.7")
        rec = json.loads(out)
        again = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        assert again == out

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "z", "--L", "2", "--M", "2",
                               "--Kh", "0.3", "--Kv", "0.3",
                               "--format", "text")
        assert code == 0
        assert "logZ" in out

    def test_conflicting_parametrizations(self, capsys):
        code, _out, err = run_cli(capsys, "z", "--L", "2", "--M", "2",
                                  "--Kh", "0.3", "--Kv", "0.3",
                                  "--k", "0.6")
        assert code == 1
        assert "error" in json.loads(err)

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["z", "--L", "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("z", "--seed", "1"),
    ("spectrum", "--format", "text"),
    ("scan", "--format", "text", "--k-min", "0.5", "--k-max", "0.9"),
    ("identities", "--format", "json"),
    ("uplane", "--format", "json")])
def test_options_a_subcommand_does_not_read_are_refused(argv):
    cmd, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--L", "2", "--M", "2", "--Kh", "0.3", "--Kv", "0.3",
              *rest])
    assert exc.value.code == 2


class TestCompare:
    def test_checks_present(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--L", "3", "--M", "4",
                               "--Kh", "0.4", "--Kv", "0.7")
        assert code == 0
        rec = json.loads(out)
        assert rec["checks"]["pf_eq_det"] < 1e-9
        assert rec["checks"]["swap_invariance"] < 1e-9
        assert rec["checks"]["swap_reference_route"] == "spin"

    def test_swap_check_is_not_spin_over_the_spin_cap(self, capsys):
        # spin runs along the 4 spins of either orientation of 4 x 14,
        # so it would only repeat itself
        code, out, _ = run_cli(capsys, "compare", "--L", "4", "--M", "14",
                               "--Kh", "0.4", "--Kv", "0.3")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks["swap_reference_route"] != "spin"
        assert checks["swap_invariance"] < 1e-9

    def test_swapped_system_reproduces_logZ(self, capsys):
        _, out1, _ = run_cli(capsys, "compare", "--L", "3", "--M", "4",
                             "--Kh", "0.4", "--Kv", "0.7")
        _, out2, _ = run_cli(capsys, "compare", "--L", "4", "--M", "3",
                             "--Kh", "0.7", "--Kv", "0.4")
        a, b = json.loads(out1), json.loads(out2)
        assert abs(a["logZ"] - b["logZ"]) < 1e-9 * abs(a["logZ"])


KC = repr(0.5 * math.log(1 + math.sqrt(2)))


@pytest.mark.parametrize("argv,routes,reason", [
    (("z", "--L", "4", "--M", "6", "--Kh", KC, "--Kv", KC, "--route",
      "pfaffian"), {"pfaffian"}, "critical modulus"),
    (("z", "--L", "4", "--M", "5", "--k", "0.6", "--route", "pfaffian",
      "--format", "text"), {"pfaffian"}, "odd M"),
    (("compare", "--L", "13", "--M", "13", "--k", "0.6"),
     {"spin", "block", "hankel", "pfaffian"}, None)])
def test_no_log_z_exits_one(capsys, argv, routes, reason):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert diag["message"] == "no route produced a log Z"
    assert set(diag["routes"]) == routes
    for r in diag["routes"].values():
        assert r["status"] == "skipped" and r["reason"]
        if reason:
            assert r["reason"] == reason


@pytest.mark.parametrize("command", ["z", "compare"])
def test_route_disagreement_exits_one(capsys, monkeypatch, command):
    # compare: the retried Pfaffian, factored at 160 bits, is off by 6e-5
    # here (ROADMAP D10); block and Hankel agree, and the retry does not
    # bring the Pfaffian in.  z runs no Pfaffian, so a Hankel route off by
    # 1e-6 at every precision stands in: the retry reruns block and Hankel
    # at 160 bits
    if command == "z":
        _hankel_off_by(monkeypatch, 1e-6)
    code, out, err = run_cli(capsys, command, "--L", "32", "--M", "16",
                             "--k", "0.9", "--eta-frac", "0.3")
    assert code == 1
    assert out == ""
    diag = json.loads(err, parse_constant=_reject_constant)
    assert diag["max_pairwise_rel_dev"] > AGREEMENT_DEV
    routes = diag["routes"]
    block, hankel = routes["block"]["logZ"], routes["hankel"]["logZ"]
    if command == "z":
        assert "pfaffian" not in routes
        assert routes["block"]["precision_bits"] == 160
        assert routes["hankel"]["precision_bits"] == 160
        assert abs(hankel / block - 1 - 1e-6) < 1e-12
    else:
        assert routes["pfaffian"]["status"] == "ok"
        assert routes["pfaffian"]["precision_bits"] == 160
        assert abs(block - hankel) <= 1e-12 * abs(block)


def test_the_pfaffian_disagrees_in_compare_only(capsys):
    # route="all" runs no Pfaffian: z agrees and exits 0 on the system
    # where compare's 160-bit Pfaffian is off by 6e-5 (ROADMAP D10).
    # Spin cannot run at 32 x 16 (both extents exceed 12)
    argv = ("--L", "32", "--M", "16", "--k", "0.9", "--eta-frac", "0.3")
    code, out, _ = run_cli(capsys, "z", *argv)
    assert code == 0
    rec = json.loads(out, parse_constant=_reject_constant)
    routes = rec["routes"]
    assert set(routes) == {"spin", "block", "hankel"}
    assert routes["spin"]["status"] == "skipped"
    assert routes["block"]["precision_bits"] == 53
    assert routes["hankel"]["precision_bits"] == 53
    assert rec["max_pairwise_rel_dev"] < 1e-12
    code, out, err = run_cli(capsys, "compare", *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["max_pairwise_rel_dev"] > AGREEMENT_DEV


def test_compare_exits_one_when_the_pfaffian_fails(capsys):
    # the 160-bit Pfaffian has sign -1 here, so Pf = det H never ran;
    # block and Hankel agree, and z exits 0
    argv = ("--L", "32", "--M", "16", "--k", "30", "--eta-frac", "0.3")
    code, _, _ = run_cli(capsys, "z", *argv)
    assert code == 0
    code, out, err = run_cli(capsys, "compare", *argv)
    assert code == 1 and out == ""
    diag = json.loads(err, parse_constant=_reject_constant)
    assert "Pf = det H" in diag["message"]
    pf = diag["routes"]["pfaffian"]
    assert pf["status"] == "failed" and "sign -1" in pf["reason"]
    assert diag["routes"]["block"]["status"] == "ok"


@pytest.mark.parametrize("argv,reason", [
    # solve-hard's critical system
    (("--L", "4", "--M", "6", "--Kh", repr(math.asinh(1.0) / 2), "--Kv",
      repr(math.asinh(1.0) / 2)), "critical modulus"),
    (("--L", "4", "--M", "5", "--k", "0.6"), "odd M")])
def test_compare_passes_with_a_skipped_pfaffian(capsys, argv, reason):
    code, out, _ = run_cli(capsys, "compare", *argv)
    assert code == 0
    rec = json.loads(out, parse_constant=_reject_constant)
    pf = rec["routes"]["pfaffian"]
    assert pf["status"] == "skipped" and pf["reason"] == reason
    assert "pf_eq_det" not in rec["checks"]


@pytest.mark.parametrize("argv", [
    ("--L", "4", "--M", "6", "--Kh", repr(math.asinh(1.0) / 2), "--Kv",
     repr(math.asinh(1.0) / 2)),
    ("--L", "12", "--M", "64", "--k", "0.6", "--eta-frac", "0.8"),
    ("--L", "12", "--M", "24", "--k", "6"),
    ("--L", "48", "--M", "12", "--k", "0.6", "--eta-frac", "0.953327")],
    ids=["4x6-critical", "12x64", "12x24-k6", "48x12"])
def test_compare_builds_weights_at_53_bits_only(capsys, count_calls, argv):
    # solve-hard's four systems: no 160-bit pipeline, the edge mode's
    # lambda_minus from T_minus and the Pfaffian's retry on binary64 weights
    from rectising import params
    weights = count_calls(params, "weights_from_couplings")
    code, _, _ = run_cli(capsys, "compare", *argv)
    assert code == 0
    assert weights and {args[1].bits for args in weights} == {53}


def test_compare_reruns_only_the_pfaffian(capsys):
    # the binary64 Pfaffian of these two solve-hard systems disagrees, on
    # 12 x 24 just past ESCALATION_DEV; the retry reruns it alone at 160
    # bits, block and Hankel stay binary64, and the swap's block on the
    # transposed system runs after it, in binary64
    for argv in (("--L", "48", "--M", "12", "--k", "0.6",
                  "--eta-frac", "0.953327"),
                 ("--L", "12", "--M", "24", "--k", "6", "--eta-frac", "1.0")):
        code, out, _ = run_cli(capsys, "compare", *argv)
        assert code == 0
        rec = json.loads(out, parse_constant=_reject_constant)
        bits = {name: r["precision_bits"]
                for name, r in rec["routes"].items()}
        assert bits == {"spin": 53, "block": 53, "hankel": 53,
                        "pfaffian": 160, "swap": 53}
        assert all(r["status"] == "ok" for r in rec["routes"].values())
        assert rec["checks"]["pf_eq_det"] < 1e-9


def test_python_dash_m_runs_the_cli():
    src = str(Path(rectising.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "rectising", "z", "--L", "4", "--M", "4",
         "--k", "0.6"], capture_output=True, text=True, env=env,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["routes"]["block"]["status"] == "ok"


@pytest.mark.parametrize("route", ["pfaffian"])
def test_non_finite_log_z_fails(capsys, monkeypatch, route):
    # a Pfaffian that is zero in binary64 and at the 160-bit retry
    import rectising.partition as partition
    monkeypatch.setattr(partition, "pfaffian_logZ",
                        lambda c, prec, pipe: (float("-inf"), {}))
    code, out, err = run_cli(capsys, "z", "--L", "12", "--M", "4", "--k",
                             "6", "--eta-frac", "0.3", "--route", route,
                             "--precision-bits", "53")
    assert code == 1
    assert out == ""
    diag = json.loads(err, parse_constant=_reject_constant)
    assert diag["routes"][route]["status"] == "failed"


def test_binary64_hankel_where_the_pfaffian_vanishes(capsys):
    # the Hankel route factors no matrix, so the system whose binary64
    # Pfaffian vanishes comes out right
    code, out, _ = run_cli(capsys, "z", "--L", "12", "--M", "4", "--k",
                           "6", "--eta-frac", "0.3", "--route", "hankel")
    assert code == 0
    rec = json.loads(out, parse_constant=_reject_constant)
    hankel = rec["routes"]["hankel"]
    assert hankel["status"] == "ok" and hankel["precision_bits"] == 53
    _, out, _ = run_cli(capsys, "z", "--L", "12", "--M", "4", "--k", "6",
                        "--eta-frac", "0.3", "--route", "spin")
    ref = json.loads(out)["logZ"]
    assert abs(rec["logZ"] - ref) < 1e-14 * abs(ref)


def test_successive_calls_parse_independently(capsys):
    # one parser serves every call in the process; no option of one call
    # may reach the next
    assert build_parser() is build_parser()
    geometry = ("--L", "3", "--M", "4", "--Kh", "0.4", "--Kv", "0.7")
    _, out, _ = run_cli(capsys, "z", *geometry, "--route", "spin")
    assert json.loads(out)["route"] == "spin"
    _, out, _ = run_cli(capsys, "compare", *geometry)
    rec = json.loads(out)
    assert rec["route"] == "all" and rec["checks"]
    identities = ("identities", "--k", "0.6", "--eta-frac", "0.9", "--M",
                  "4", "--L", "5", "--samples", "4")
    code, _, _ = run_cli(capsys, *identities, "--tol", "1e-18")
    assert code == 3
    code, out, _ = run_cli(capsys, *identities)
    assert code == 0
    assert json.loads(out)["tol"] == GATING_TOL


class TestSpectrum:
    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--L", "5", "--M", "6",
                               "--k", "0.6", "--eta-frac", "0.9")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        assert {"mu", "lambda", "gamma", "phi", "chi", "u", "omega",
                "theta", "psi"} <= set(rows[0])

    def test_csv_roundtrip(self, capsys, tmp_path):
        f = tmp_path / "spec.csv"
        code, _, _ = run_cli(capsys, "spectrum", "--L", "5", "--M", "6",
                             "--k", "0.6", "--eta-frac", "0.9",
                             "--format", "csv", "--out", str(f))
        assert code == 0
        text = f.read_text()
        rows = list(csv.reader(io.StringIO(text)))
        buf = io.StringIO()
        wtr = csv.writer(buf, lineterminator="\n")
        for r in rows:
            wtr.writerow(r)
        assert buf.getvalue() == text
        assert len(rows) == 7  # header + M

    @pytest.mark.parametrize("bits", ["53", "160"])
    def test_csv_cells_are_the_json_values(self, capsys, bits):
        args = ("spectrum", "--L", "5", "--M", "6", "--k", "1.3",
                "--eta-frac", "0.5", "--precision-bits", bits)
        _, out, _ = run_cli(capsys, *args)
        _, text, _ = run_cli(capsys, *args, "--format", "csv")
        header, *cells = list(csv.reader(io.StringIO(text)))
        assert header == [
            "mu", "lambda", "gamma", "phi_re", "phi_im", "chi", "u_re",
            "u_im", "omega_re", "omega_im", "theta_re", "theta_im",
            "psi_re", "psi_im", "branch", "quantization_residual"]
        rows = json.loads(out)
        assert len(cells) == len(rows) == 6
        for row, line in zip(rows, cells):
            got = dict(zip(header, line))
            for key, v in row.items():
                if isinstance(v, list):
                    assert got[f"{key}_re"] == repr(v[0])
                    assert got[f"{key}_im"] == repr(v[1])
                elif key == "branch":
                    assert got[key] == v
                else:
                    assert got[key] == repr(v)


class TestIdentities:
    def test_exit_zero_on_pass(self, capsys, tmp_path):
        f = tmp_path / "rep.json"
        code, _, _ = run_cli(capsys, "identities", "--k", "0.6",
                             "--eta-frac", "0.9", "--M", "6", "--L", "5",
                             "--samples", "8", "--out", str(f))
        assert code == 0
        rep = json.loads(f.read_text())
        assert not rep["failed"]

    def test_exit_three_on_gating_failure(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--k", "0.6",
                               "--eta-frac", "0.9", "--M", "4", "--L", "5",
                               "--samples", "8", "--tol", "1e-18")
        assert code == 3
        assert json.loads(out)["failed"]

    def test_seed_reaches_the_report(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--k", "0.6",
                               "--eta-frac", "0.9", "--M", "4", "--L", "5",
                               "--samples", "4", "--seed", "7")
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_report_keys(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--k", "0.6",
                               "--eta-frac", "0.9", "--M", "4", "--L", "5",
                               "--samples", "4")
        assert code == 0
        rep = json.loads(out)
        assert set(rep) == {"parameters", "tol", "seed", "seconds",
                            "failed", "worst", "entries"}
        assert set(rep["worst"]) == {"identity_id", "max_abs_residual"}
        for e in rep["entries"]:
            assert set(e) == {"identity_id", "equation_tag", "gating",
                              "max_abs_residual", "status", "parts",
                              "details", "note"}

    @pytest.mark.parametrize("couplings", [
        ("--k", "0.6", "--Kh", "0.3", "--Kv", "0.4"),
        ("--k", "0.6", "--eta-frac", "1.5"),
        ("--k", "0.6", "--Kv", "0.3"),
        ("--Kh", "0.3", "--Kv", "0.4", "--eta-frac", "0.5")])
    def test_couplings_validated_like_z(self, capsys, couplings):
        code, out, err = run_cli(capsys, "identities", "--L", "4", "--M",
                                 "4", *couplings)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_refused(self, capsys, samples):
        # without a torus sample the sample-based entries compare nothing
        code, out, err = run_cli(capsys, "identities", "--L", "4", "--M",
                                 "4", "--k", "0.6", "--eta-frac", "0.8",
                                 "--samples", samples)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_tol_not_positive_and_finite_refused(self, capsys, tol):
        # one JSON error line, not exit 3 with every gating entry failed
        # (or, at inf, exit 0 with none)
        code, out, err = run_cli(capsys, "identities", "--L", "4", "--M",
                                 "4", "--k", "0.6", "--eta-frac", "0.8",
                                 "--tol", tol)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "DomainError"


class TestScan:
    def test_csv_shape_and_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--L", "4", "--M", "4",
                               "--k-min", "0.5", "--k-max", "0.9",
                               "--steps", "3", "--eta-frac", "0.8",
                               "--format", "csv", "--route", "block")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "k"
        assert len(rows) == 4
        buf = io.StringIO()
        wtr = csv.writer(buf, lineterminator="\n")
        for r in rows:
            wtr.writerow(r)
        assert buf.getvalue() == out

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_steps_below_one_is_a_usage_error(self, steps):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--L", "4", "--M", "4", "--k-min", "0.5",
                  "--k-max", "0.9", "--steps", steps, "--eta-frac", "0.8"])
        assert exc.value.code == 2

    def test_one_step_is_k_min(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--L", "4", "--M", "4",
                               "--k-min", "0.5", "--k-max", "0.9",
                               "--steps", "1", "--eta-frac", "0.8",
                               "--format", "csv", "--route", "block")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert float(rows[1][0]) == pytest.approx(0.5, abs=1e-12)

    def test_scan_output_repeats(self, capsys):
        # csv carries the numerical payload without timing metadata
        args = ("scan", "--L", "4", "--M", "4", "--k-min", "0.5",
                "--k-max", "0.9", "--steps", "3", "--eta-frac", "0.8",
                "--route", "spin", "--format", "csv")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_no_log_z_exits_one_with_strict_json(self, capsys):
        # 13 x 13 has no route, and k = 1 no anisotropy parametrization
        code, out, err = run_cli(capsys, "scan", "--L", "13", "--M", "13",
                                 "--k-min", "0.5", "--k-max", "1.0",
                                 "--steps", "2")
        assert code == 1
        rows = json.loads(out, parse_constant=_reject_constant)
        assert [r["logZ"] for r in rows] == [None, None]
        assert rows[1]["K_h"] is None and "error" in rows[1]
        diag = json.loads(err, parse_constant=_reject_constant)
        assert diag["message"] == "no scan point produced a log Z"
        assert len(diag["points"]) == 2

    def test_route_disagreement_exits_one(self, capsys, monkeypatch):
        # the system of test_route_disagreement_exits_one, with a Hankel
        # route off by 1e-6 after the retry
        _hankel_off_by(monkeypatch, 1e-6)
        code, out, err = run_cli(capsys, "scan", "--L", "32", "--M", "16",
                                 "--k-min", "6", "--k-max", "6",
                                 "--steps", "1", "--eta-frac", "0.3")
        assert code == 1
        [row] = json.loads(out, parse_constant=_reject_constant)
        dev = row["max_pairwise_rel_dev"]
        assert dev > AGREEMENT_DEV
        assert row["error"] == (f"the routes disagree by {dev:.3e}, more "
                                f"than {AGREEMENT_DEV:g}")
        diag = json.loads(err, parse_constant=_reject_constant)
        assert diag["message"] == "the routes disagree at some scan points"
        assert diag["points"] == [{"k": row["k"], "error": row["error"],
                                   "max_pairwise_rel_dev": dev}]

    def test_pfaffian_free_points_stay_binary64(self, capsys, count_calls):
        # the 12 x 12, eta-frac 0.8 points at k = 1.7, 2.35 and 3.0 used
        # to escalate only because of the binary64 Pfaffian
        import rectising.spectrum as spectrum
        calls = count_calls(spectrum, "SystemPipeline")
        code, out, _ = run_cli(capsys, "scan", "--L", "12", "--M", "12",
                               "--k-min", "0.4", "--k-max", "3.0",
                               "--steps", "5", "--eta-frac", "0.8")
        assert code == 0
        rows = json.loads(out, parse_constant=_reject_constant)
        assert [round(r["k"], 9) for r in rows[2:]] == [1.7, 2.35, 3.0]
        assert len(calls) == 5
        assert all(args[1].is_float for args in calls)

    def test_single_hankel_route_stays_binary64(self, capsys):
        # L + M = 40: a scan point's single Hankel route runs in binary64
        from rectising.params import couplings_from_modulus
        from rectising.partition import block_transfer_logZ
        from rectising.precision import Precision
        code, out, _ = run_cli(capsys, "scan", "--L", "24", "--M", "16",
                               "--k-min", "0.6", "--k-max", "6",
                               "--steps", "3", "--eta-frac", "0.8",
                               "--route", "hankel")
        assert code == 0
        rows = json.loads(out, parse_constant=_reject_constant)
        assert len(rows) == 3
        for row in rows:
            r = row["routes"]["hankel"]
            assert r["status"] == "ok" and r["precision_bits"] == 53
            c = couplings_from_modulus(row["k"], 0.8, 24, 16)
            ref = float(block_transfer_logZ(c, Precision(160))[0])
            assert abs(r["logZ"] - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("frac", ["1.5", "0", "2.0"])
    def test_eta_fraction_validated_like_z(self, capsys, frac):
        # checked once before the sweep: no rows, one DomainError
        code, out, err = run_cli(capsys, "scan", "--L", "4", "--M", "4",
                                 "--k-min", "0.5", "--k-max", "0.6",
                                 "--steps", "2", "--eta-frac", frac)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_fixed_couplings_are_a_usage_error(self):
        # scan sweeps k; --Kh, --Kv and --k would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--L", "4", "--M", "4", "--k-min", "0.5",
                  "--k-max", "0.6", "--steps", "2", "--Kh", "9", "--Kv",
                  "9", "--k", "7"])
        assert exc.value.code == 2

    def test_one_log_z_is_enough(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--L", "4", "--M", "4",
                               "--k-min", "0.5", "--k-max", "1.0",
                               "--steps", "2")
        assert code == 0
        rows = json.loads(out, parse_constant=_reject_constant)
        assert rows[0]["logZ"] is not None and rows[1]["logZ"] is None


class TestUPlane:
    def test_field_file(self, capsys, tmp_path):
        f = tmp_path / "field.txt"
        code, _, _ = run_cli(capsys, "uplane", "--M", "6", "--L", "5",
                             "--k", "0.6", "--eta-frac", "0.9",
                             "--n", "1", "--grid", "16", "--out", str(f))
        assert code == 0
        text = f.read_text()
        assert text.startswith("# uplane n=1 resolution=16")
        lines = text.splitlines()
        marker_idx = lines.index("markers eigenvalues")
        count = 0
        for line in lines[marker_idx + 1:]:
            if line.startswith("markers"):
                break
            count += 1
        assert count == 6  # one torus point per eigenvalue

    def test_deterministic_bytes(self, capsys):
        args = ("uplane", "--M", "4", "--L", "3", "--k", "0.6",
                "--eta-frac", "0.9", "--grid", "16")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


def test_precision_bits_override(capsys):
    code, out, _ = run_cli(capsys, "z", "--L", "2", "--M", "2",
                           "--Kh", "0.3", "--Kv", "0.3", "--route", "hankel",
                           "--precision-bits", "128")
    assert code == 0
    assert json.loads(out)["routes"]["hankel"]["precision_bits"] == 128


def test_precision_bits_out_of_range(capsys):
    code, out, err = run_cli(capsys, "z", "--L", "4", "--M", "4",
                             "--k", "0.6", "--precision-bits", "80")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_precision_bits_not_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "z", "--L", "4", "--M", "4", "--k", "0.6",
                "--precision-bits", "abc")
    assert exc.value.code == 2
    assert "--precision-bits" in capsys.readouterr().err


def test_z_at_critical_coupling(capsys):
    import math
    kc = repr(0.5 * math.log(1 + math.sqrt(2)))
    code, out, _ = run_cli(capsys, "z", "--L", "4", "--M", "6",
                           "--Kh", kc, "--Kv", kc)
    assert code == 0
    rec = json.loads(out)
    assert rec["eta_im_over_Kprime"] is None
    for name in ("block", "hankel"):
        assert rec["routes"][name]["status"] == "ok"
        assert rec["routes"][name]["precision_bits"] == 53
    assert rec["max_pairwise_rel_dev"] < 1e-9
    # compare adds the Pfaffian, which alone refuses the critical modulus
    code, out, _ = run_cli(capsys, "compare", "--L", "4", "--M", "6",
                           "--Kh", kc, "--Kv", kc)
    assert code == 0
    pf = json.loads(out)["routes"]["pfaffian"]
    assert pf["status"] == "skipped" and pf["reason"] == "critical modulus"


@pytest.mark.parametrize("command,K,error", [
    # lambda_+ ~ 5e8: the binary64 joint check fails (residual 2e-7)
    ("spectrum", "1e-9", "JointDiagonalizationError"),
    # tanh(50) rounds to 1, so the dual weight z* is 0
    ("z", "50", "DomainError"),
    ("spectrum", "50", "DomainError")])
def test_couplings_binary64_cannot_resolve(capsys, command, K, error):
    code, out, err = run_cli(capsys, command, "--L", "4", "--M", "8",
                             "--Kh", K, "--Kv", K)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == error


NAN, INF = float("nan"), float("inf")
RECORDS = [
    {"logZ": 12.5, "routes": {"block": {"status": "ok", "bits": 53}},
     "pair": (1.0, (2, -0.5)), "none": None, "flag": True},
    {"x": np.float64(0.1) * 3, "rows": [np.float64(-2.5e-300), 7]},
    {"residual": NAN, "nested": ((INF, 1.0), [-INF, {"y": NAN}])},
    {"x": np.float64(INF), "tuple": (np.float64(NAN), "text")},
    [1.0, (NAN,), {"b": 2.0, "a": [INF]}],
]


@pytest.mark.parametrize("obj", RECORDS)
def test_json_dumps_matches_finite_encoding(obj):
    # the direct encoding gives the bytes of the walk it skips
    want = json.dumps(cli._finite(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False) + "\n"
    assert cli._json_dumps(obj) == want


@pytest.mark.parametrize("obj", RECORDS[:2])
def test_finite_record_skips_the_walk(monkeypatch, obj):
    want = cli._json_dumps(obj)

    def refuse(obj):
        raise AssertionError("a finite record reached _finite")

    monkeypatch.setattr(cli, "_finite", refuse)
    assert cli._json_dumps(obj) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.integers(1, 14),
       st.one_of(st.floats(0.1, 0.95, exclude_min=True, exclude_max=True),
                 st.floats(1.05, 10, exclude_min=True, exclude_max=True)),
       st.floats(0.05, 1, exclude_min=True),
       st.floats(0.1, 10))
def test_no_subcommand_ends_in_a_traceback(L, M, k, frac, k_max):
    # every subcommand on any system exits 0 or 3, or 1 with one JSON line
    # on stderr; none raises out of main
    geo = ["--L", str(L), "--M", str(M)]
    system = [*geo, "--k", repr(k), "--eta-frac", repr(frac)]
    for argv in (["z", *system], ["compare", *system], ["spectrum", *system],
                 ["identities", *system, "--samples", "4"],
                 ["uplane", *system, "--grid", "16"],
                 ["scan", *geo, "--k-min", repr(k), "--k-max", repr(k_max),
                  "--steps", "2", "--eta-frac", repr(frac)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 3), argv
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, argv
            assert "error" in json.loads(lines[0]), argv


#: couplings where an elliptic iteration does not converge (k = inf, and
#: carlson_rf at Kh = 1e-300) or the spectrum overflows a float
EXTREME_ARGVS = [[cmd, "--L", "4", "--M", "4", *system]
                 for cmd in ("z", "compare", "spectrum", "identities",
                             "uplane")
                 for system in (["--k", "inf"],
                                ["--Kh", "1e-300", "--Kv", "0.3"])] + [
    ["scan", "--L", "4", "--M", "4", "--k-min", "0.5", "--k-max", "inf",
     "--steps", "2"]]


@pytest.mark.parametrize("argv", EXTREME_ARGVS, ids=" ".join)
def test_numerical_failure_exits_with_one_json_line(capsys, argv):
    # an ArithmeticError exits 1 with one JSON line that names its type,
    # not with a traceback
    code, _out, err = run_cli(capsys, *argv)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0], parse_constant=_reject_constant)
    assert "ConvergenceError" in lines[0] or "OverflowError" in lines[0]
