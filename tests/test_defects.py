"""The defect ledger of ROADMAP.md, one test per D-number.

An open defect is a strict xfail whose reason is its D-number: the test
asserts the correct behaviour, so it fails today, and the change that
mends the defect must remove the mark.  A mended defect is a plain
regression test.
"""

import contextlib
import io
import json

import pytest

import rectising.partition as partition
from rectising import cli
from rectising.contour import (ContourContext, contour_coefficients,
                               default_contour)
from rectising.errors import ConvergenceError, NonFiniteError
from rectising.params import couplings_from_modulus, swap_system
from rectising.partition import (AGREEMENT_DEV, assemble_logZ,
                                 block_transfer_logZ, hankel_logZ,
                                 pfaffian_logZ)
from rectising.precision import FLOAT64, Precision

#: D10 and D11: the 160-bit Pfaffian is ok but 2.9e-2 off block here
PFAFFIAN_OFF = ("--L", "32", "--M", "16", "--k", "6", "--eta-frac", "0.3")


def run_cli(*argv):
    """(exit code, stdout, stderr) of an in-process `rectising` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


# ----------------------------------------------------------------------
# mended
# ----------------------------------------------------------------------

@pytest.mark.parametrize("L, M", [(16, 24), (32, 32)])
def test_d8_binary64_log_z_matches_256_bit_block(L, M):
    # the binary64 edge mode once left block and Hankel 1e-11 off here,
    # in agreement with each other
    c = couplings_from_modulus(3, 0.8, L, M)
    ref = float(block_transfer_logZ(c, Precision(256))[0])
    res = assemble_logZ(c)
    for name in ("block", "hankel"):
        o = res.outcomes[name]
        assert o.precision_bits == 53
        assert _rel(o.logZ, ref) < 1e-14


@pytest.mark.parametrize("route, swapped", [("block_transfer_logZ", True),
                                            ("pfaffian_logZ", False)])
def test_d14_compare_gates_a_moved_orientation(monkeypatch, route, swapped):
    # one route moved by 1e-3 on one orientation: the swapped system's
    # block (compare's swap check), or the Pfaffian on the system itself
    orig = getattr(partition, route)
    shape = (24, 16) if swapped else (16, 24)

    def moved(c, prec, pipe):
        lz, diag = orig(c, prec, pipe)
        return (lz * (1 + 1e-3) if (c.L, c.M) == shape else lz), diag
    monkeypatch.setattr(partition, route, moved)
    code, out, err = run_cli("compare", "--L", "16", "--M", "24", "--k", "3",
                             "--eta-frac", "0.8")
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert diag["max_pairwise_rel_dev"] > AGREEMENT_DEV
    off = "swap" if swapped else "pfaffian"
    assert _rel(diag["routes"][off]["logZ"],
                diag["routes"]["block"]["logZ"]) > 0.9e-3


# ----------------------------------------------------------------------
# open
# ----------------------------------------------------------------------

@pytest.mark.xfail(raises=AssertionError, strict=True, reason="D3")
def test_d3_spectrum_in_the_ordered_phase():
    code, _, err = run_cli("spectrum", "--L", "12", "--M", "24", "--k", "6")
    assert code == 0, err


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="D10")
def test_d10_pfaffian_digits_at_160_bits():
    c = couplings_from_modulus(6, 0.3, 32, 16)
    ref, _ = block_transfer_logZ(c, FLOAT64)
    lz, _ = pfaffian_logZ(c, Precision(160))
    assert _rel(float(lz), ref) < 1e-12


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="D11")
def test_d11_single_pfaffian_route_is_checked():
    code, out, _ = run_cli("z", *PFAFFIAN_OFF, "--route", "pfaffian")
    c = couplings_from_modulus(6, 0.3, 32, 16)
    ref, _ = block_transfer_logZ(c, FLOAT64)
    assert code == 1 or _rel(json.loads(out)["logZ"], ref) < 1e-12


@pytest.mark.xfail(raises=NonFiniteError, strict=True, reason="D12")
def test_d12_binary64_hankel_on_128_squared():
    c = couplings_from_modulus(3, 0.8, 128, 128)
    ref, _ = block_transfer_logZ(c, FLOAT64)
    lz, _ = hankel_logZ(c, FLOAT64)
    assert _rel(lz, ref) < 1e-13


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="D13")
def test_d13_odd_m_takes_the_even_side():
    code, out, err = run_cli("z", "--L", "14", "--M", "13", "--k", "0.6",
                             "--eta-frac", "0.8")
    assert code == 0, err
    c = couplings_from_modulus(0.6, 0.8, 14, 13)
    want = assemble_logZ(swap_system(c)).logZ
    assert _rel(json.loads(out)["logZ"], want) < 1e-13


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="D7")
def test_d7_moment_matrix_determinant_on_48_by_12():
    # spectral-hankel-chain takes det H from a binary64 determinant of the
    # moment matrix, which comes out singular here
    code, _, err = run_cli("identities", "--L", "48", "--M", "12", "--k",
                           "0.6", "--eta-frac", "0.953327")
    assert code == 0, err


@pytest.mark.xfail(raises=ConvergenceError, strict=True, reason="D7")
def test_d7_zeta_base_converges_on_a_short_strip():
    c = couplings_from_modulus(0.2558, 0.8806, 2, 6)
    cctx = ContourContext.from_couplings(c)
    contour_coefficients([3], default_contour(cctx.frame), cctx, "zeta")
