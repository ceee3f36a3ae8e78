"""`tools/cli_snapshot.py diff` on small hand-written snapshot files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"


@pytest.fixture(scope="module")
def snapshot():
    spec = importlib.util.spec_from_file_location("cli_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(argv, output, rc=0):
    return {"argv": argv, "rc": rc, "output": output, "stderr": ""}


Z = ["z", "--L", "4", "--M", "4", "--route", "hankel"]
COMPARE = ["compare", "--L", "4", "--M", "4"]
OLD = [_record(Z, {"logZ": 25.0, "precision_bits": 160, "status": "ok"}),
       _record(COMPARE, {"checks": {"swap_invariance": 0.0},
                         "logZ": 3.0})]


def _diff(snapshot, tmp_path, capsys, new):
    paths = []
    for name, recs in (("old", OLD), ("new", new)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        paths.append(str(path))
    rc = snapshot.diff(*paths)
    return rc, capsys.readouterr().out.splitlines()


def test_identical_snapshots(snapshot, tmp_path, capsys):
    rc, lines = _diff(snapshot, tmp_path, capsys, OLD)
    assert rc == 0
    assert all("values differ" not in line for line in lines)
    assert "z: largest relative difference 0.000e+00" in lines


def test_relative_difference_and_integer_settings(snapshot, tmp_path,
                                                  capsys):
    # log Z moves by 5e-13 while the precision drops from 160 to 53 bits,
    # and a check moves off zero by 1e-16
    new = [_record(Z, {"logZ": 25.0 + 5e-13, "precision_bits": 53,
                       "status": "ok"}),
           _record(COMPARE, {"checks": {"swap_invariance": 1e-16},
                             "logZ": 3.0})]
    rc, lines = _diff(snapshot, tmp_path, capsys, new)
    assert rc == 0
    z_at = lines.index(f"{' '.join(Z)}: 2 numbers and 0 other values differ")
    assert lines[z_at + 1] == "    .output.precision_bits: 160 -> 53"
    assert lines[z_at + 2].startswith("    largest: .output.logZ: 25.0 -> ")
    summary = {line.split(" difference ")[0]: line for line in lines
               if " largest " in line and " difference " in line}
    rel_z = float(summary["z: largest relative"].split()[4])
    assert rel_z == pytest.approx(5e-13 / 25.0, rel=1e-2)
    rel_compare = float(summary["compare: largest relative"].split()[4])
    assert rel_compare == pytest.approx(1e-16)


def test_text_difference_and_missing_record_fail(snapshot, tmp_path,
                                                 capsys):
    new = [_record(Z, {"logZ": 25.0, "precision_bits": 160,
                       "status": "failed"})]
    rc, lines = _diff(snapshot, tmp_path, capsys, new)
    assert rc == 1
    assert "    .output.status: 'ok' -> 'failed'" in lines
    assert any(line.startswith("only in old: ") for line in lines)


def test_contour_records(snapshot):
    # the crosscheck systems with k < 1, and only they, get a contour
    # record: the moments h_1 ... h_{M-1} of the chi base on the default
    # contour, as [real, imag]
    from rectising.contour import (
        ContourContext, contour_coefficients, default_contour)
    from rectising.params import couplings_from_modulus

    argvs = snapshot._argvs([0])
    below = [a[1:] for a in argvs if a[0] == "identities"
             and float(a[a.index("--k") + 1]) < 1]
    assert below and [a[1:] for a in argvs if a[0] == "contour"] == below
    rec = snapshot._run(["contour", "--L", "4", "--M", "4", "--k", "0.6",
                         "--eta-frac", "0.8"])
    assert (rec["rc"], rec["stderr"]) == (0, "")
    cctx = ContourContext.from_couplings(
        couplings_from_modulus(0.6, 0.8, 4, 4), with_spectrum=True)
    want = contour_coefficients([1, 2, 3], default_contour(cctx.frame), cctx)
    assert rec["output"] == {f"h_{n}": [want[n].real, want[n].imag]
                             for n in (1, 2, 3)}
