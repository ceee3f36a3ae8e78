"""Command-line surface: subcommands, formats, exit codes, round trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rectising
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


class TestZ:
    def test_route_all_deviations(self, capsys):
        code, out, _ = run_cli(capsys, "z", "--L", "3", "--M", "4",
                               "--Kh", "0.4", "--Kv", "0.7", "--route", "all")
        assert code == 0
        rec = json.loads(out)
        assert rec["max_pairwise_rel_dev"] < 1e-9
        assert set(rec["routes"]) == {"brute", "spin", "block", "hankel",
                                      "pfaffian"}

    def test_run_record_per_route(self, capsys):
        code, out, _ = run_cli(capsys, "z", "--L", "3", "--M", "4",
                               "--Kh", "0.4", "--Kv", "0.7")
        assert code == 0
        rec = json.loads(out)
        assert rec["pipeline_seconds"] >= 0
        for r in rec["routes"].values():
            assert {"seconds", "precision_bits", "diagnostics"} <= set(r)
        diag = rec["routes"]["hankel"]["diagnostics"]
        assert diag["weight_phase_leak"] < 1e-8
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
        ref = float(block_transfer_logZ(c, Precision(160))[0].log_mag)
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
        ref = float(block_transfer_logZ(c, Precision(160))[0].log_mag)
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
        again = json.dumps(rec, sort_keys=True, separators=(",", ": "),
                           indent=1) + "\n"
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
      "hankel"), {"hankel"}, "critical modulus"),
    (("z", "--L", "4", "--M", "5", "--k", "0.6", "--route", "pfaffian",
      "--format", "text"), {"pfaffian"}, "odd M"),
    (("compare", "--L", "13", "--M", "13", "--k", "0.6"),
     {"brute", "spin", "block", "hankel", "pfaffian"}, None)])
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
def test_route_disagreement_exits_one(capsys, command):
    # the 160-bit Pfaffian is off by 4.6e-2 here (ROADMAP D10); block and
    # Hankel agree, and the retry does not bring the Pfaffian in
    code, out, err = run_cli(capsys, command, "--L", "32", "--M", "16",
                             "--k", "30", "--eta-frac", "0.3")
    assert code == 1
    assert out == ""
    diag = json.loads(err, parse_constant=_reject_constant)
    assert diag["max_pairwise_rel_dev"] > AGREEMENT_DEV
    routes = diag["routes"]
    assert routes["pfaffian"]["status"] == "ok"
    assert routes["pfaffian"]["precision_bits"] == 160
    block, hankel = routes["block"]["logZ"], routes["hankel"]["logZ"]
    assert abs(block - hankel) <= 1e-12 * abs(block)


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
def test_non_finite_log_z_fails(capsys, route):
    # the skew-Toeplitz Pfaffian of this system vanishes in binary64
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
        ("--k", "0.6", "--eta-frac", "1.5")])
    def test_couplings_validated_like_z(self, capsys, couplings):
        code, out, err = run_cli(capsys, "identities", "--L", "4", "--M",
                                 "4", *couplings)
        assert code == 1
        assert out == ""
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

    def test_route_disagreement_exits_one(self, capsys):
        # the system of test_route_disagreement_exits_one: the 160-bit
        # Pfaffian is off by 4.6e-2 after the retry (ROADMAP D10)
        code, out, err = run_cli(capsys, "scan", "--L", "32", "--M", "16",
                                 "--k-min", "30", "--k-max", "30",
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
    assert rec["routes"]["hankel"]["status"] == "skipped"
    assert rec["routes"]["block"]["status"] == "ok"
    assert rec["max_pairwise_rel_dev"] < 1e-9


@pytest.mark.parametrize("command,K,error", [
    # lambda_+ ~ 5e8: lambda_+ - sqrt(lambda_+^2 - 1) cancels to 0
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
