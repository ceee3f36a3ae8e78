"""Command-line surface: subcommands, formats, exit codes, round trips."""

import csv
import io
import json

import pytest

from rectising.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        assert len(rec["routes"]["hankel"]["diagnostics"]["det_phase"]) == 2

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

    def test_swapped_system_reproduces_logZ(self, capsys):
        _, out1, _ = run_cli(capsys, "compare", "--L", "3", "--M", "4",
                             "--Kh", "0.4", "--Kv", "0.7")
        _, out2, _ = run_cli(capsys, "compare", "--L", "4", "--M", "3",
                             "--Kh", "0.7", "--Kv", "0.4")
        a, b = json.loads(out1), json.loads(out2)
        assert abs(a["logZ"] - b["logZ"]) < 1e-9 * abs(a["logZ"])


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

    def test_scan_output_repeats(self, capsys):
        # csv carries the numerical payload without timing metadata
        args = ("scan", "--L", "4", "--M", "4", "--k-min", "0.5",
                "--k-max", "0.9", "--steps", "3", "--eta-frac", "0.8",
                "--route", "spin", "--format", "csv")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


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


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RECTISING_PRECISION_BITS", "128")
    code, out, _ = run_cli(capsys, "z", "--L", "2", "--M", "2",
                           "--Kh", "0.3", "--Kv", "0.3", "--route", "hankel")
    assert code == 0
    assert json.loads(out)["routes"]["hankel"]["precision_bits"] == 128


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
