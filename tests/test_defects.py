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
from rectising import cli, identities, spectrum
from rectising.contour import (ContourContext, contour_coefficients,
                               default_contour)
from rectising.errors import (ConvergenceError, JointDiagonalizationError,
                              NonFiniteError, PoleError)
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


@pytest.mark.parametrize("command", ["spectrum", "identities", "uplane"])
@pytest.mark.parametrize("L", [16, 24, 32])
def test_d3_amplitude_log_singularity_is_a_pole_error(command, L):
    # binary64 cn + i sn comes out 0 at an edge-mode point here, and its
    # complex log once escaped as a ValueError traceback
    code, out, err = run_cli(command, "--L", str(L), "--M", "16", "--k", "6",
                             "--eta-frac", "1.0")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "PoleError"


def test_d3_amplitude_pole_error_says_where():
    c = couplings_from_modulus(6, 1.0, 16, 16)
    with pytest.raises(PoleError, match="cn \\+ i sn = 0") as info:
        spectrum.spectrum_for(c)
    assert isinstance(info.value.where, complex)


def test_d7_identities_on_6_by_10_pass():
    # the second-order differences' truncation once failed the two
    # derivative entries here on every run, 1.1e-7 and 3.3e-7 off
    code, _, err = run_cli("identities", "--L", "6", "--M", "10", "--k",
                           "2.5", "--eta-frac", "0.8")
    assert code == 0, err


@pytest.mark.parametrize("k, eta, L, M", [(2.5, 0.8, 6, 10),
                                          (3, 0.9, 8, 12)])
def test_d7_derivative_oracle_at_160_bits(k, eta, L, M):
    # at 160 bits what is left of the derivative entries is the stencil's
    # truncation; the second-order one left 1e-7 here
    env = identities.build_env(couplings_from_modulus(k, eta, L, M),
                               prec=Precision(160))
    for entry in (identities._e_derivatives, identities._e_chain):
        r = identities.Residuals()
        entry(env, r)
        assert r.worst <= 1e-11


def test_d7_complex_phi_zeta_is_gated_at_the_branch_tolerance(monkeypatch):
    # a complex-phi point's zeta moved by 1e-8 relative is a branch
    # inconsistency; the complex-phi gate was 1e-6
    c = couplings_from_modulus(2.5, 0.8, 6, 10)
    assert "complex" in [p.branch for p in spectrum.spectrum_for(c)[3]]
    acos = spectrum._acos_upper

    def moved(fn, x):
        phi = acos(fn, x)
        return phi + 1e-8 if abs(float(phi.imag)) > 1e-9 else phi
    monkeypatch.setattr(spectrum, "_acos_upper", moved)
    with pytest.raises(JointDiagonalizationError, match="vertical eigenvalue"):
        spectrum.spectrum_for(c)


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
    # spectral-hankel-chain takes det H from the Hankel route, but the
    # binary64 complex slogdet of W^T D W that it checks against is off:
    # determinant_squares by 0.037 and partition_chain by 0.099
    code, _, err = run_cli("identities", "--L", "48", "--M", "12", "--k",
                           "0.6", "--eta-frac", "0.953327")
    assert code == 0, err


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="D7")
def test_d7_identities_on_8_by_12():
    # crosscheck's last failing system: spectral-hankel-chain's
    # determinant_squares compares two lossy complex slogdets, 4.1e-8 off
    code, _, err = run_cli("identities", "--L", "8", "--M", "12", "--k",
                           "0.8", "--eta-frac", "0.6")
    assert code == 0, err


@pytest.mark.xfail(raises=ConvergenceError, strict=True, reason="D7")
def test_d7_zeta_base_converges_on_a_short_strip():
    c = couplings_from_modulus(0.2558, 0.8806, 2, 6)
    cctx = ContourContext.from_couplings(c)
    contour_coefficients([3], default_contour(cctx.frame), cctx, "zeta")
