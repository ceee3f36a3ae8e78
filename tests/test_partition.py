"""Partition-function routes and the log-scaled linear algebra."""

import cmath
import itertools
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rectising import params
from rectising.elliptic import EllipticKernel
from rectising.errors import (DomainError, NonFiniteError, PhaseLeakError,
                              RectisingError, RouteInfeasibleError)
from rectising.params import (
    Couplings,
    couplings_from_modulus,
    swap_system,
)
from rectising.partition import (
    LogScaledValue,
    PartitionResult,
    RouteOutcome,
    assemble_logZ,
    block_transfer_logZ,
    brute_force_logZ,
    default_precision,
    hankel_from_spectrum,
    hankel_logZ,
    logdet_scaled,
    pfaffian,
    pfaffian_logZ,
    rkpw,
    skew_toeplitz_from_spectrum,
    spin_transfer_logZ,
)
from rectising.precision import FLOAT64, Precision
from rectising.spectrum import (SystemPipeline, chi_poly_derivative,
                                spectrum_for)

CRITICAL_K = 0.5 * math.log(1 + math.sqrt(2))

# frozen from explicit 16-term enumerations performed independently
Z_2X2_K03 = 19.2426222692975
Z_2X2_K04_K07 = 31.013494188561978


def enumeration_oracle(c: Couplings) -> float:
    """Literal configuration sum, written here as the test oracle."""
    tot = 0.0
    spins = list(itertools.product((1, -1), repeat=c.sites))
    for s in spins:
        e = 0.0
        for l in range(c.L - 1):
            for m in range(c.M):
                e += c.K_h * s[l * c.M + m] * s[(l + 1) * c.M + m]
        for l in range(c.L):
            for m in range(c.M - 1):
                e += c.K_v * s[l * c.M + m] * s[l * c.M + m + 1]
        tot += math.exp(e)
    return math.log(tot)


class TestLogScaled:
    def test_roundtrip(self):
        v = LogScaledValue.from_value(-3.5e10)
        assert abs(v.value() + 3.5e10) < 1e-4
        assert v.phase == -1

    def test_multiplication(self):
        a = LogScaledValue.from_value(2.0)
        b = LogScaledValue.from_value(-4.0)
        prod = a * b
        assert abs(prod.value() + 8.0) < 1e-14

    def test_phase_gate(self):
        from rectising.errors import PhaseLeakError
        with pytest.raises(PhaseLeakError):
            LogScaledValue.from_value(-1.0).real_log()

    def test_zero(self):
        assert LogScaledValue.zero().is_zero

    @pytest.mark.parametrize("value", [
        LogScaledValue.zero(), LogScaledValue(float("inf")),
        LogScaledValue(float("nan")), LogScaledValue(0.0, complex("nan")),
        LogScaledValue(mpmath.mpf("-inf"))])
    def test_real_log_refuses_zero_and_non_finite(self, value):
        with pytest.raises(NonFiniteError):
            value.real_log()


def right_looking_logdet(rows):
    """Binary64 oracle: the classic right-looking elimination, with the
    per-row scaling, pivot order and loss report of `logdet_scaled`."""
    n = len(rows)
    A = [list(r) for r in rows]
    log_mag, phase = 0.0, complex(1.0)
    for i in range(n):
        s = max(abs(x) for x in A[i])
        if s == 0:
            return float("-inf"), 1.0, 0.0
        A[i] = [x / s for x in A[i]]
        log_mag += math.log(s)
    min_piv, max_piv = float("inf"), 0.0
    for col in range(n):
        p = max(range(col, n), key=lambda r: abs(A[r][col]))
        piv = A[p][col]
        ap = abs(piv)
        if ap == 0:
            return float("-inf"), 1.0, float("inf")
        if p != col:
            A[p], A[col] = A[col], A[p]
            phase = -phase
        min_piv, max_piv = min(min_piv, ap), max(max_piv, ap)
        log_mag += math.log(ap)
        phase *= complex(piv / ap)
        for r in range(col + 1, n):
            f = A[r][col] / piv
            if f != 0:
                Ar, Ac = A[r], A[col]
                Ar[col + 1:] = [Ar[j] - f * Ac[j] for j in range(col + 1, n)]
    return log_mag, phase, math.log10(max_piv / min_piv)


def right_looking_pfaffian(rows):
    """Binary64 oracle: the classic right-looking Parlett-Reid reduction of
    the exactly skew matrix of the upper triangle, with the pivot order of
    `pfaffian`; returns (log |Pf|, phase)."""
    n = len(rows)
    A = [[rows[i][j] if i < j else (-rows[j][i] if i > j else 0.0)
          for j in range(n)] for i in range(n)]
    log_mag, phase = 0.0, complex(1.0)
    for k in range(0, n, 2):
        q = max(range(k + 1, n), key=lambda j: abs(A[k][j]))
        entry = A[k][q]
        ae = abs(entry)
        if ae == 0:
            return float("-inf"), 1.0
        if q != k + 1:
            A[q], A[k + 1] = A[k + 1], A[q]
            for r in A:
                r[q], r[k + 1] = r[k + 1], r[q]
            phase = -phase
        log_mag += math.log(ae)
        phase *= complex(entry / ae)
        rest = range(k + 2, n)
        f = {j: A[k][j] / entry for j in rest}
        R = {j: A[k + 1][j] for j in rest}
        for i in rest:
            for j in rest:
                A[i][j] = A[i][j] + f[i] * -R[j]
                A[i][j] = A[i][j] + R[i] * f[j]
    return log_mag, phase


def seeded_skew(rng, n, kind):
    """A real, complex or half-sparse skew test matrix as nested lists,
    its lower triangle off by a relative 1e-14, which `pfaffian` never
    reads."""
    B = rng.normal(size=(n, n)) * np.exp(2 * rng.normal(size=(n, 1)))
    if kind == "complex":
        B = B + 1j * rng.normal(size=(n, n))
    if kind == "sparse":
        B[rng.random((n, n)) < 0.5] = 0
    A = B - B.T
    A[np.tril_indices(n, -1)] *= 1 + 1e-14
    return A.tolist()


def seeded_matrix(rng, n, kind, prec=FLOAT64):
    """A real, complex or Hankel test matrix of context scalars."""
    if kind == "hankel":
        h = rng.normal(size=2 * n) * np.exp(-0.5 * np.arange(2 * n))
        B = np.array([[h[i + j] for j in range(n)] for i in range(n)])
    else:
        B = rng.normal(size=(n, n)) * np.exp(3 * rng.normal(size=(n, 1)))
    if kind == "complex":
        C = rng.normal(size=(n, n))
        return [[prec.ctx.mpc(B[i, j], C[i, j]) for j in range(n)]
                for i in range(n)]
    return [[prec.ctx.mpf(B[i, j]) for j in range(n)] for i in range(n)]


class TestLogDet:
    def test_identity(self):
        det, _ = logdet_scaled([[1.0, 0.0], [0.0, 1.0]], FLOAT64)
        assert det.log_mag == 0.0 and det.phase == 1.0

    def test_against_numpy(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        det, _ = logdet_scaled([list(r) for r in A], FLOAT64)
        want = np.linalg.det(A)
        got = det.phase * math.exp(det.log_mag)
        assert abs(got - want) < 1e-10 * abs(want)

    def test_huge_scale(self):
        A = [[1e200, 2e200], [3e-200, 4e-200]]
        det, _ = logdet_scaled(A, FLOAT64)
        assert abs(det.log_mag - math.log(2.0)) < 1e-12
        assert det.phase == -1

    def test_row_sum_overflow_is_not_a_non_finite_entry(self):
        # the row's sum of magnitudes overflows; every entry is finite
        det, _ = logdet_scaled([[1e308, 1e308], [1.0, -1e308]], FLOAT64)
        assert abs(det.log_mag - 616 * math.log(10)) < 1e-12
        assert det.phase == -1

    @pytest.mark.parametrize("kind", ["real", "complex", "hankel"])
    def test_binary64_equals_right_looking_elimination(self, kind):
        # the array updates round every entry as the scalar update does,
        # so the results are the same floats, from lists and from arrays
        rng = np.random.default_rng({"real": 1, "complex": 2,
                                     "hankel": 3}[kind])
        for _ in range(40):
            rows = seeded_matrix(rng, int(rng.integers(1, 65)), kind)
            want = repr(right_looking_logdet(rows))
            for given in (rows, np.array(rows)):
                det, cond = logdet_scaled(given, FLOAT64)
                assert repr((det.log_mag, det.phase, cond["loss"])) == want

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_extended_against_320_bits(self, kind):
        p, q = Precision(160), Precision(320)
        got, _ = logdet_scaled(
            seeded_matrix(np.random.default_rng(5), 24, kind, p), p)
        want, _ = logdet_scaled(
            seeded_matrix(np.random.default_rng(5), 24, kind, q), q)
        tol = q.ctx.mpf(2) ** -150
        assert abs(q.ctx.mpf(got.log_mag) - want.log_mag) < tol
        if kind == "real":
            assert got.phase == want.phase
        else:
            # a binary64 product of 24 unit factors; after the row scaling
            # several rows can hold a modulus-1 entry in one column, and
            # the rounding decides which of those near ties pivots
            assert abs(got.phase - want.phase) < 1e-14

    @pytest.mark.parametrize("bits", [53, 160])
    def test_zero_leading_entry_swaps(self, bits):
        p = Precision(bits)
        rows = [[p.ctx.mpf(x) for x in r]
                for r in ([0, 2, 1], [3, 1, 0], [1, 0, 4])]
        det, _ = logdet_scaled(rows, p)
        # by cofactors of the first row: det = -2 * 12 + 1 * (-1) = -25
        assert abs(det.log_mag - math.log(25)) < 1e-15
        assert det.phase == -1

    @pytest.mark.parametrize("bits", [53, 160])
    def test_singular(self, bits):
        p = Precision(bits)
        rows = [[p.ctx.mpf(x) for x in r]
                for r in ([1, 2, 3], [2, 4, 6], [0, 1, 5])]
        det, cond = logdet_scaled(rows, p)
        assert det.is_zero and cond["loss"] == float("inf")

    def test_empty(self):
        det, cond = logdet_scaled([], FLOAT64)
        assert det.value() == 1 and cond["loss"] == 0.0

    @pytest.mark.parametrize("rows", [[[1.0, 2.0]], [[1.0, 2.0], [3.0]]])
    def test_not_square(self, rows):
        with pytest.raises(DomainError):
            logdet_scaled(rows, FLOAT64)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     complex(1, float("nan"))])
    def test_non_finite_entry(self, bad):
        with pytest.raises(NonFiniteError) as exc:
            logdet_scaled([[bad, 1.0], [1.0, 2.0]], FLOAT64)
        # typed, and an ArithmeticError, which a route reports as failed
        assert isinstance(exc.value, RectisingError)
        assert isinstance(exc.value, ArithmeticError)
        p = Precision(160)
        with pytest.raises(NonFiniteError):
            logdet_scaled([[p.ctx.mpf(1), p.ctx.nan], [1, 2]], p)


class TestPfaffian:
    @pytest.mark.parametrize("kind", ["real", "complex", "sparse"])
    def test_binary64_equals_right_looking_pfaffian(self, kind):
        rng = np.random.default_rng({"real": 6, "complex": 7,
                                     "sparse": 8}[kind])
        for _ in range(40):
            rows = seeded_skew(rng, 2 * int(rng.integers(1, 33)), kind)
            want = repr(right_looking_pfaffian(rows))
            for given in (rows, np.array(rows)):
                pf = pfaffian(given, FLOAT64)
                assert repr((pf.log_mag, pf.phase)) == want

    def test_two_by_two(self):
        got = pfaffian([[0.0, 3.5], [-3.5, 0.0]])
        assert abs(got.value() - 3.5) < 1e-15

    def test_block_diagonal(self):
        A = np.zeros((6, 6))
        vals = (2.0, -0.5, 4.0)
        for i, v in enumerate(vals):
            A[2 * i, 2 * i + 1] = v
            A[2 * i + 1, 2 * i] = -v
        got = pfaffian([list(r) for r in A])
        want = vals[0] * vals[1] * vals[2]
        assert abs(got.value() - want) < 1e-14 * abs(want)

    def test_square_is_determinant(self):
        rng = np.random.default_rng(9)
        B = rng.normal(size=(6, 6))
        A = B - B.T
        got = pfaffian([list(r) for r in A])
        det = np.linalg.det(A)
        assert abs(got.value() ** 2 - det) < 1e-11 * abs(det)

    def test_square_is_determinant_extended(self):
        p = Precision(160)
        rng = np.random.default_rng(12)
        B = rng.normal(size=(12, 12))
        A = [[p.ctx.mpf(B[i, j]) - p.ctx.mpf(B[j, i]) for j in range(12)]
             for i in range(12)]
        pf = pfaffian(A, p)
        det, _ = logdet_scaled(A, p)
        assert det.phase == 1 and pf.phase in (1, -1)
        assert abs(2 * pf.log_mag - det.log_mag) < p.ctx.mpf(2) ** -140

    def test_odd_dimension(self):
        with pytest.raises(DomainError):
            pfaffian([[0.0]])

    def test_not_skew(self):
        with pytest.raises(DomainError):
            pfaffian([[0.0, 1.0], [1.0, 0.0]])

    def test_not_skew_extended(self):
        # the gate is relative to the largest entry, at any precision
        p = Precision(160)
        one, off = p.ctx.mpf(1), p.ctx.mpf("1e-11")
        with pytest.raises(DomainError):
            pfaffian([[0, one], [-one + off, 0]], p)
        pf = pfaffian([[0, one], [-one + off / 100, 0]], p)
        assert pf.log_mag == 0 and pf.phase == 1

    def test_skew_gate_beyond_binary64_range(self):
        # the binary64 copy of these entries overflows; the gate reads the
        # exact ones
        p = Precision(160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                pfaffian([[0, mpmath.mpf("1e400")],
                          [mpmath.mpf("-2e400"), 0]], p)
            pf = pfaffian([[0, mpmath.mpf("1e400")],
                           [mpmath.mpf("-1e400"), 0]], p)
        assert abs(pf.log_mag - 400 * math.log(10)) < 1e-12
        assert pf.phase == 1

    def test_empty(self):
        assert pfaffian([]).value() == 1

    def test_singular(self):
        A = np.zeros((4, 4))
        assert pfaffian([list(r) for r in A]).is_zero

    @pytest.mark.parametrize("bits", [53, 160])
    def test_singular_after_elimination(self, bits):
        # Pf = a01 a23 - a02 a13 + a03 a12 = 1*6 - 2*3 + 0 = 0
        p = Precision(bits)
        up = {(0, 1): 1, (0, 2): 2, (0, 3): 0, (1, 2): 0, (1, 3): 3,
              (2, 3): 6}
        rows = [[p.ctx.mpf(up[i, j] if i < j else
                           (-up[j, i] if i > j else 0)) for j in range(4)]
                for i in range(4)]
        assert pfaffian(rows, p).is_zero

    @pytest.mark.parametrize("bits", [53, 160])
    def test_zero_leading_entry_swaps(self, bits):
        # a01 = 0 forces the pivot swap; Pf = -a02 a13 + a03 a12 = -7
        p = Precision(bits)
        up = {(0, 1): 0, (0, 2): 2, (0, 3): 1, (1, 2): -1, (1, 3): 3,
              (2, 3): 5}
        rows = [[p.ctx.mpf(up[i, j] if i < j else
                           (-up[j, i] if i > j else 0)) for j in range(4)]
                for i in range(4)]
        pf = pfaffian(rows, p)
        assert abs(pf.log_mag - math.log(7)) < 1e-15
        assert pf.phase == -1

    @pytest.mark.parametrize("n", [24, 64])
    def test_extended_square_is_determinant(self, n):
        p, q = Precision(160), Precision(320)
        B = np.random.default_rng(n).normal(size=(n, n))

        def skew(prec):
            return [[prec.ctx.mpf(B[i, j]) - prec.ctx.mpf(B[j, i])
                     for j in range(n)] for i in range(n)]
        pf = pfaffian(skew(p), p)
        det, _ = logdet_scaled(skew(p), p)
        assert abs(2 * pf.log_mag - det.log_mag) < p.ctx.mpf(2) ** -140
        assert pf.phase == pfaffian(skew(q), q).phase

    @pytest.mark.parametrize("rows", [[[0.0, 1.0]], [[0.0, 1.0], [-1.0]]])
    def test_not_square(self, rows):
        with pytest.raises(DomainError):
            pfaffian(rows)

    def test_non_finite_entry(self):
        nan = float("nan")
        with pytest.raises(NonFiniteError):
            pfaffian([[0.0, nan], [-nan, 0.0]])


class TestRKPW:
    @pytest.mark.parametrize("bits, tol", [(53, 1e-13), (160, 1e-44)])
    def test_against_moment_determinant(self, bits, tol):
        # 2n sorted nodes in [0, 4] with log-weights uniform in
        # [log spread, 0].  The reference factors the moment matrix, whose
        # LU loses about as many digits as the weights spread: 300 bits
        # plus 4 per digit
        ctx = Precision(bits).ctx
        for seed, n, spread in itertools.product(
                range(2), (1, 3, 8, 16), (1.0, 1e-20, 1e-100, 1e-250)):
            rng = random.Random(seed)
            nodes = sorted(rng.uniform(0, 4) for _ in range(2 * n))
            log_w = [rng.uniform(math.log(spread), 0) for _ in range(2 * n)]
            ref_ctx = mpmath.MPContext()
            ref_ctx.prec = 300 + 4 * round(-math.log10(spread))
            x = [ref_ctx.mpf(v) for v in nodes]
            w = [ref_ctx.exp(v) for v in log_w]
            h = [ref_ctx.fsum(b * xi ** j for xi, b in zip(x, w))
                 for j in range(2 * n - 1)]
            ref = ref_ctx.log(ref_ctx.det(ref_ctx.matrix(
                [[h[i + j] for j in range(n)] for i in range(n)])))
            betas = rkpw([ctx.mpf(v) for v in nodes],
                         [ctx.exp(v) for v in log_w], n)
            got = ctx.fsum((n - j) * ctx.log(b) for j, b in enumerate(betas))
            assert abs(got - ref) < tol * max(1, abs(ref)), (seed, n, spread)

    def test_node_at_the_running_mean(self):
        # the third node sits at the mean of the first two, which zeroes
        # the update's sigma^2 on the way down; with 3 nodes det H_3 is
        # the product of the weights and the Vandermonde square (Heine)
        nodes = [Fraction(0), Fraction(2), Fraction(1)]
        betas = rkpw(nodes, [Fraction(1)] * 3, 3)
        assert betas[0] ** 3 * betas[1] ** 2 * betas[2] == 4


class TestConfigurationSums:
    def test_single_spin(self):
        assert abs(brute_force_logZ(Couplings(0.5, 0.5, 1, 1)).log_mag
                   - math.log(2.0)) < 1e-15

    def test_single_bond(self):
        got = brute_force_logZ(Couplings(0.3, 0.5, 2, 1)).log_mag
        assert abs(got - math.log(4 * math.cosh(0.3))) < 1e-14

    def test_two_by_two_isotropic(self):
        got = brute_force_logZ(Couplings(0.3, 0.3, 2, 2)).log_mag
        closed = math.log(2 * math.exp(1.2) + 12 + 2 * math.exp(-1.2))
        assert abs(got - math.log(Z_2X2_K03)) < 1e-13
        assert abs(got - closed) < 1e-13

    def test_against_enumeration_oracle(self):
        c = Couplings(0.45, 0.28, 3, 4)
        assert abs(brute_force_logZ(c).log_mag
                   - enumeration_oracle(c)) < 1e-12

    def test_size_cap(self):
        with pytest.raises(RouteInfeasibleError, match="spin-transfer"):
            brute_force_logZ(Couplings(0.3, 0.3, 5, 6))

    def test_spin_matches_brute(self):
        # even, uneven and empty Kronecker halves (M = 1, 5, 7, 12), a
        # single row, a system over the cap that runs swapped (14 x 1)
        for c in (Couplings(0.41, 0.33, 4, 4), Couplings(0.6, 0.2, 2, 6),
                  Couplings(0.35, 0.5, 2, 12), Couplings(0.3, 0.45, 3, 7),
                  Couplings(0.6, 0.25, 4, 5), Couplings(0.45, 0.3, 5, 1),
                  Couplings(0.5, 0.5, 1, 1), Couplings(0.4, 0.6, 1, 9),
                  Couplings(0.4, 0.3, 1, 14)):
            b = brute_force_logZ(c).log_mag
            s = spin_transfer_logZ(c).log_mag
            assert abs(b - s) < 1e-13 * max(1.0, abs(b)), c

    @pytest.mark.parametrize("K_h, K_v", [(-0.5, 0.3), (0.4, -0.6)])
    def test_spin_matches_brute_at_negative_bonds(self, K_h, K_v):
        # Couplings refuses K <= 0, but both configuration sums hold at
        # any sign; flipping every other row (column) maps -K_h (-K_v)
        # onto +K_h (+K_v) on the open rectangle
        c = object.__new__(Couplings)
        for name, val in (("K_h", K_h), ("K_v", K_v), ("L", 4), ("M", 5)):
            object.__setattr__(c, name, val)
        b = brute_force_logZ(c).log_mag
        assert abs(spin_transfer_logZ(c).log_mag - b) < 1e-13 * abs(b)
        mirror = Couplings(abs(K_h), abs(K_v), 4, 5)
        assert abs(spin_transfer_logZ(mirror).log_mag - b) < 1e-13 * abs(b)

    def test_spin_strong_coupling_stays_finite(self):
        # e^{4 K_h} overflows a product of unscaled blocks
        c = Couplings(200, 0.3, 3, 4)
        b = brute_force_logZ(c).log_mag
        with np.errstate(over="raise", invalid="raise"):
            s = spin_transfer_logZ(c).log_mag
        assert abs(b - s) < 1e-13 * abs(b)

    def test_spin_swap_invariance(self):
        c = Couplings(0.4, 0.7, 3, 4)
        a = spin_transfer_logZ(c).log_mag
        b = spin_transfer_logZ(swap_system(c)).log_mag
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_single_column(self):
        c = Couplings(0.5, 0.37, 1, 4)
        assert abs(spin_transfer_logZ(c).log_mag
                   - brute_force_logZ(c).log_mag) < 1e-13

    def test_spin_swaps_wide_systems(self):
        c = Couplings(0.3, 0.4, 4, 14)   # M over cap, L under it
        got = spin_transfer_logZ(c).log_mag
        ref = spin_transfer_logZ(Couplings(0.4, 0.3, 14, 4)).log_mag
        assert abs(got - ref) < 1e-12 * abs(ref)

    def test_spin_cap(self):
        with pytest.raises(RouteInfeasibleError):
            spin_transfer_logZ(Couplings(0.3, 0.3, 14, 14))


class TestBlockTransfer:
    def test_against_brute(self):
        c = Couplings(0.4, 0.7, 3, 4)
        blk, _ = block_transfer_logZ(c)
        ref = brute_force_logZ(c).log_mag
        assert abs(blk.log_mag - ref) < 1e-10 * max(1.0, abs(ref))

    def test_against_spin_larger(self):
        c = Couplings(0.35, 0.52, 10, 8)
        blk, _ = block_transfer_logZ(c)
        ref = spin_transfer_logZ(c).log_mag
        assert abs(blk.log_mag - ref) < 1e-9 * abs(ref)

    def test_projector_algebra(self):
        S = np.eye(6)[::-1]
        Sp, Sm = (np.eye(6) + S) / 2, (np.eye(6) - S) / 2
        assert np.max(np.abs(Sp @ Sm)) == 0

    def test_projected_determinant_positive(self):
        # the determinant argument equals a perfect square by the
        # projector algebra; form it directly and check positivity
        c = Couplings(0.4, 0.7, 3, 4)
        w, _fr, b, _pts = spectrum_for(c)
        T = b.T
        S = np.eye(4)[::-1]
        Sp, Sm = (np.eye(4) + S) / 2, (np.eye(4) - S) / 2
        TL = np.linalg.matrix_power(T, 3)
        A = Sp @ TL @ Sp + Sm @ np.linalg.inv(TL) @ Sm
        assert np.linalg.det(A) > 0

    def test_runs_at_criticality(self):
        c = Couplings(CRITICAL_K, CRITICAL_K, 4, 6)
        blk, _ = block_transfer_logZ(c)
        ref = spin_transfer_logZ(c).log_mag
        assert abs(blk.log_mag - ref) < 1e-10 * abs(ref)

    def test_odd_extent_refused(self):
        with pytest.raises(RouteInfeasibleError):
            block_transfer_logZ(Couplings(0.4, 0.7, 4, 3))


class TestHankelRoute:
    def test_two_by_two_single_moment(self):
        c = Couplings(0.4, 0.7, 2, 2)
        lz, _ = hankel_logZ(c)
        assert abs(lz.log_mag - math.log(Z_2X2_K04_K07)) < 1e-9

    def test_against_block(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        lz, diag = hankel_logZ(c)
        ref, _ = block_transfer_logZ(c)
        assert abs(lz.log_mag - ref.log_mag) < 1e-9 * abs(ref.log_mag)
        assert diag["weight_phase_leak"] < 1e-8
        assert 0 < diag["weight_spread_digits"] < 30

    @pytest.mark.parametrize("L, M, eta, k", [
        (10, 12, 0.85, 1.45), (10, 12, 0.85, 2.025), (10, 12, 0.85, 2.6),
        (12, 10, 0.95, 1.82), (12, 10, 0.95, 2.31), (12, 10, 0.95, 2.8),
        (12, 12, 0.8, 1.05), (6, 16, 0.7, 0.875), (6, 16, 0.7, 1.45)])
    def test_binary64_against_spin(self, L, M, eta, k):
        # an LU of the moment matrix is off by 7e-8 to 2e-7 here
        c = couplings_from_modulus(k, eta, L, M)
        lz, _ = hankel_logZ(c, FLOAT64)
        ref = spin_transfer_logZ(c).log_mag
        assert abs(lz.log_mag - ref) < 1e-13 * abs(ref)

    @pytest.mark.parametrize("L, reason", [(200, "past the binary64 range"),
                                           (400, "zero or non-finite")],
                             ids=["L200", "L400"])
    def test_binary64_weight_underflow_escalates(self, L, reason):
        # L (gamma_max - gamma_min) puts weights below 2.2e-308, where
        # binary64 loses them; 160 bits has no exponent floor
        c = couplings_from_modulus(2, 1.0, L, 16)
        with pytest.raises(NonFiniteError, match=reason):
            hankel_logZ(c, FLOAT64)
        res = assemble_logZ(c, "all")
        hankel = res.outcomes["hankel"]
        assert hankel.status == "ok" and hankel.precision_bits == 160
        p = Precision(160)
        pipe = SystemPipeline(c, p)
        ref, _ = block_transfer_logZ(c, p, pipe)
        assert abs(hankel.logZ - ref.log_mag) < 1e-15 * abs(ref.log_mag)
        lz, _ = hankel_logZ(c, p, pipe)
        assert abs(lz.log_mag - ref.log_mag) < 1e-30 * abs(ref.log_mag)

    def test_ordered_phase_edge_mode_at_160_bits(self):
        # 2u of the edge mode lies on the i K' lattice, where am has a
        # pole; the routes do not evaluate it
        c = couplings_from_modulus(6, 1.0, 4, 22)
        p = Precision(160)
        pipe = SystemPipeline(c, p)
        ref = block_transfer_logZ(c, p, pipe)[0].log_mag
        for route in (hankel_logZ, pfaffian_logZ):
            lz, _ = route(c, p, pipe)
            assert abs(lz.log_mag - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("k,eta,L,M", [(0.6, 0.9, 5, 6), (3, 0.9, 6, 10),
                                           (6, 0.5, 6, 24)])
    def test_closed_form_weights_are_the_angle_form(self, k, eta, L, M):
        # the weights the routes read, 2 t* e^(L gamma - shift) (t z - lam)
        # / ((t - z lam) P'(chi)), against the angle form 2i t*
        # e^(L gamma - shift) e^(-theta) e^(psi) / P'(chi) of the enriched
        # spectrum; in the ordered phase an edge mode has a complex phi
        import rectising.partition as partition
        p = Precision(160)
        ctx = p.ctx
        c = couplings_from_modulus(k, eta, L, M)
        w, _fr, _b, pts = spectrum_for(c, p)
        shift, _chis, b, _leak = partition._spectral_measure(pts, c, w)
        assert any(ctx.im(q.phi) for q in pts) == (k > 1)
        for i, (bi, q) in enumerate(zip(b, pts)):
            want = (ctx.mpc(0, 2) * w.t_star * ctx.exp(L * q.gamma - shift)
                    * q.exp_minus_theta() * q.exp_psi()
                    / chi_poly_derivative(pts, i))
            assert bi > 0
            assert abs(bi - want) <= 1e-40 * abs(want)

    def test_moments_real(self):
        for kk in (0.6, 1.66):
            c = couplings_from_modulus(kk, 0.9, 5, 6)
            w, fr, _b, pts = spectrum_for(c)
            hs = hankel_from_spectrum(pts, c, w, fr)
            assert hs.phase_leak < 1e-8

    def test_hankel_structure_exact(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        w, fr, _b, pts = spectrum_for(c)
        hs = hankel_from_spectrum(pts, c, w, fr)
        half = c.M // 2
        for i in range(half):
            for j in range(half):
                assert hs.rows[i][j] == hs.h_scaled[i + j]

    def test_moment_balance_normalization(self):
        # product over the spectrum of the inverse half powers equals
        # t^(-L/2): fixes the normalization of the diagonal weights
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        w, fr, _b, pts = spectrum_for(c)
        cn_e = complex(fr.kernel.sncndn(fr.eta)[1])
        prod = 1.0 + 0j
        for p in pts:
            half = (1j * complex(w.z)) ** 0.5 * complex(p.cn_u) / cn_e
            prod *= complex(p.lam) ** (-c.L / 2) * half
        want = float(w.t) ** (-c.L / 2)
        assert abs(prod - want) < 1e-8 * abs(want)


class TestSkewToeplitzRoute:
    def test_diagonal_zero_and_antisymmetry(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        w, fr, _b, pts = spectrum_for(c)
        sys = skew_toeplitz_from_spectrum(pts, c, w)
        M = c.M
        for i in range(M):
            assert sys.rows[i][i] == 0
            for j in range(M):
                assert sys.rows[i][j] == -sys.rows[j][i]
                if i > j:
                    assert sys.rows[i][j] == sys.c_scaled[i - j - 1]

    @pytest.mark.parametrize("k", [0.6, 3])
    def test_chebyshev_form_is_the_angle_sum(self, k):
        # sin(d phi)/sin(phi) = U_(d-1)(chi/2 - 1); at k=3 the edge mode
        # has a complex phi
        import rectising.partition as partition
        p = Precision(160)
        ctx = p.ctx
        c = couplings_from_modulus(k, 0.9, 6, 10)
        w, _fr, _b, pts = spectrum_for(c, p)
        assert any(ctx.im(q.phi) for q in pts) == (k > 1)
        _shift, _chis, b, _leak = partition._spectral_measure(pts, c, w)
        want = [-ctx.fsum(bi * ctx.sin(d * q.phi) / ctx.sin(q.phi)
                          for bi, q in zip(b, pts)) for d in range(1, c.M)]
        got = skew_toeplitz_from_spectrum(pts, c, w).c_scaled
        scale = max(abs(x) for x in want)
        assert max(abs(g - x) for g, x in zip(got, want)) < 1e-40 * scale

    @pytest.mark.parametrize("geom", [(5, 6), (10, 6), (6, 10)])
    def test_pfaffian_equals_determinant(self, geom):
        L, M = geom
        c = couplings_from_modulus(0.6, 0.9, L, M)
        w, fr, _b, pts = spectrum_for(c)
        hs = hankel_from_spectrum(pts, c, w, fr)
        ss = skew_toeplitz_from_spectrum(pts, c, w)
        det, _ = hs.logdet(FLOAT64)
        pf = ss.log_pfaffian(FLOAT64)
        assert abs(det.log_mag - pf.log_mag) < 1e-9 * max(1.0, abs(det.log_mag))
        assert abs(complex(det.phase) - complex(pf.phase)) < 1e-8

    def test_against_brute(self):
        c = Couplings(0.4, 0.7, 3, 4)
        lz, _ = pfaffian_logZ(c)
        ref = brute_force_logZ(c).log_mag
        assert abs(lz.log_mag - ref) < 1e-9 * abs(ref)


class TestAssemble:
    def test_all_routes_agree(self):
        res = assemble_logZ(Couplings(0.4, 0.7, 3, 4), "all")
        assert res.max_pairwise_dev < 1e-9
        assert all(o.status == "ok" for o in res.outcomes.values())

    def test_skip_markers(self):
        res = assemble_logZ(Couplings(0.3, 0.3, 5, 6), "all")
        assert res.outcomes["brute"].status == "skipped"
        assert "cap" in res.outcomes["brute"].reason
        oks = [o for o in res.outcomes.values() if o.status == "ok"]
        assert len(oks) == 4

    def test_all_caps_brute_at_16_spins(self):
        c = Couplings(0.3, 0.3, 4, 5)
        res = assemble_logZ(c, "all")
        assert res.outcomes["brute"].status == "skipped"
        assert "cap" in res.outcomes["brute"].reason
        assert res.outcomes["spin"].status == "ok"
        alone = assemble_logZ(c, "brute")
        assert alone.outcomes["brute"].status == "ok"
        assert abs(alone.logZ - res.logZ) < 1e-12 * abs(res.logZ)
        res16 = assemble_logZ(Couplings(0.3, 0.3, 4, 4), "all")
        assert res16.outcomes["brute"].status == "ok"

    def test_single_route(self):
        res = assemble_logZ(Couplings(0.4, 0.7, 10, 6), "hankel")
        ref = spin_transfer_logZ(Couplings(0.4, 0.7, 10, 6)).log_mag
        assert abs(res.logZ - ref) < 1e-9 * abs(ref)

    def test_swap_invariance_each_route(self):
        c = Couplings(0.4, 0.7, 4, 4)
        res = assemble_logZ(c, "all")
        res_s = assemble_logZ(swap_system(c), "all")
        for name, o in res.outcomes.items():
            if o.status != "ok":
                continue
            assert abs(o.logZ - res_s.logZ) < 1e-9 * abs(res_s.logZ)

    def test_critical_point_routes(self):
        c = Couplings(CRITICAL_K, CRITICAL_K, 5, 6)
        res = assemble_logZ(c, "all")
        assert res.outcomes["hankel"].status == "skipped"
        assert res.outcomes["pfaffian"].status == "skipped"
        assert res.outcomes["block"].status == "ok"
        assert res.outcomes["spin"].status == "ok"
        assert res.max_pairwise_dev < 1e-9

    def test_odd_swap_supports_reference_routes(self):
        c = swap_system(Couplings(0.4, 0.7, 3, 4))
        res = assemble_logZ(c, "all")
        assert res.outcomes["hankel"].status == "skipped"
        assert res.outcomes["spin"].status == "ok"

    def test_logZ_is_the_first_ok_route(self):
        c = Couplings(0.3, 0.3, 2, 2)

        def result(**outcomes):
            return PartitionResult(c, "all", 0.4, 0.5, {
                name: RouteOutcome(name, status, logZ=lz)
                for name, (status, lz) in outcomes.items()})
        res = result(pfaffian=("ok", 3.0), spin=("failed", None),
                     hankel=("ok", 4.0), block=("ok", 2.0))
        assert res.logZ == 2.0
        assert res.max_pairwise_dev == 0.5
        res.outcomes["block"].status = "failed"
        assert res.logZ == 4.0
        res = result(brute=("skipped", None), hankel=("failed", None))
        assert math.isnan(res.logZ)
        assert res.max_pairwise_dev == 0.0

    def test_failed_structured_route_escalates(self):
        # the binary64 Pfaffian of this system vanishes; the retry at 160
        # bits resolves it.  The Hankel route, which factors no matrix, is
        # right in binary64
        c = couplings_from_modulus(6, 0.3, 12, 4)
        alone = assemble_logZ(c, "pfaffian", FLOAT64).outcomes["pfaffian"]
        assert alone.status == "failed" and alone.precision_bits == 53
        alone = assemble_logZ(c, "hankel").outcomes["hankel"]
        assert alone.status == "ok" and alone.precision_bits == 53
        ref = spin_transfer_logZ(c).log_mag
        assert abs(alone.logZ - ref) < 1e-14 * abs(ref)
        res = assemble_logZ(c, "all")
        for name in ("block", "hankel", "pfaffian"):
            assert res.outcomes[name].status == "ok"
            assert res.outcomes[name].precision_bits == 160
        assert res.max_pairwise_dev < 1e-9

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            assemble_logZ(Couplings(0.3, 0.3, 2, 2), "magic")


class TestPrecisionPolicy:
    def test_defaults(self):
        assert default_precision(Couplings(0.3, 0.3, 4, 4), 0.4).is_float
        assert default_precision(Couplings(0.3, 0.3, 24, 16), 0.9).is_float
        assert default_precision(Couplings(0.3, 0.3, 64, 64), 0.6).is_float
        assert default_precision(Couplings(0.3, 0.3, 4, 4), 0.995).bits >= 160
        # a single route has no cross-check and no retry: the Pfaffian
        # keeps 160 bits at every size, Hankel on a large system, block
        # never
        big = Couplings(0.3, 0.3, 24, 16)
        assert default_precision(big, 0.9, "pfaffian").bits >= 160
        assert default_precision(big, 0.9, "hankel").bits >= 160
        assert default_precision(big, 0.9, "block").is_float
        small = Couplings(0.3, 0.3, 4, 4)
        assert default_precision(small, 0.4, "pfaffian").bits >= 160
        assert default_precision(small, 0.4, "hankel").is_float
        assert default_precision(small, 0.4, "block").is_float

    @pytest.mark.parametrize("route, k, eta", [("pfaffian", 0.9, 1.0),
                                               ("hankel", 6, 1.0)])
    def test_single_route_on_large_system(self, route, k, eta):
        # binary64 leaves the Pfaffian ok but off by 4.7e-4 at k=0.9, and
        # fails the joint diagonalization at k=6; route="all" would retry
        c = couplings_from_modulus(k, eta, 24, 16)
        o = assemble_logZ(c, route).outcomes[route]
        assert o.status == "ok" and o.precision_bits == 160
        ref, _ = block_transfer_logZ(c, Precision(160))
        assert abs(o.logZ - ref.log_mag) < 1e-12 * abs(ref.log_mag)

    def test_large_system_stays_binary64(self, count_calls):
        import rectising.spectrum as spectrum
        calls = count_calls(spectrum, "SystemPipeline")
        c = couplings_from_modulus(0.6, 0.8, 12, 64)
        res = assemble_logZ(c, "all")
        ref = spin_transfer_logZ(c).log_mag
        for name in ("block", "hankel", "pfaffian"):
            o = res.outcomes[name]
            assert o.status == "ok" and o.precision_bits == 53
            assert abs(o.logZ - ref) < 1e-11 * abs(ref)
        assert [args[1] for args in calls] == [FLOAT64]

    def test_extended_agreement_small(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        p = Precision(160)
        lz, _ = hankel_logZ(c, p)
        ref, _ = block_transfer_logZ(c, p)
        assert abs(lz.log_mag - ref.log_mag) < 1e-30 * abs(ref.log_mag)

    def test_binary64_documented_failure_regime(self):
        # at (24,16) near criticality the skew-Toeplitz Pfaffian cancels
        # past binary64: it loses more than 8 of its 16 digits
        c = couplings_from_modulus(0.9, 1.0, 24, 16)
        lz, _ = pfaffian_logZ(c, FLOAT64)
        ref, _ = block_transfer_logZ(c, Precision(160))
        assert abs(lz.log_mag - float(ref.log_mag)) > 1e-8 * abs(ref.log_mag)


class TestSharedPipeline:
    def test_one_eigensystem_per_precision(self, count_calls):
        import rectising.spectrum as spectrum
        calls = count_calls(spectrum, "joint_spectrum")
        res = assemble_logZ(couplings_from_modulus(0.6, 0.9, 5, 6), "all",
                            prec=Precision(160))
        assert all(res.outcomes[n].status == "ok"
                   for n in ("block", "hankel", "pfaffian"))
        assert len(calls) == 1

    def test_structured_routes_share_one_spectral_measure(self,
                                                          count_calls):
        import rectising.partition as partition
        calls = count_calls(partition, "_spectral_measure")
        res = assemble_logZ(couplings_from_modulus(0.6, 0.8, 6, 10), "all")
        assert all(res.outcomes[n].status == "ok"
                   and res.outcomes[n].precision_bits == 53
                   for n in ("hankel", "pfaffian"))
        assert len(calls) == 1

    def test_measure_that_raised_fails_both_routes(self, count_calls,
                                                   monkeypatch):
        import rectising.partition as partition

        def refuse(points, c, w):
            raise NonFiniteError("spectral weight refused")
        monkeypatch.setattr(partition, "_spectral_measure", refuse)
        calls = count_calls(partition, "_spectral_measure")
        res = assemble_logZ(couplings_from_modulus(0.6, 0.8, 6, 10), "all")
        # one measure per pipeline: binary64, then the 160-bit retry
        assert len(calls) == 2
        assert res.outcomes["block"].status == "ok"
        for name in ("hankel", "pfaffian"):
            o = res.outcomes[name]
            assert o.status == "failed" and o.precision_bits == 160
            assert o.reason == "spectral weight refused"

    @pytest.mark.parametrize("k, eta, L, M, route, bits, weight_bits", [
        pytest.param(0.6, 0.9, 8, 8, "all", None, [53], id="disordered"),
        pytest.param(3, 0.9, 6, 6, "all", None, [53], id="ordered"),
        pytest.param(0.6, 0.9, 8, 8, "hankel", None, [53],
                     id="single-route"),
        # the binary64 Pfaffian fails; the routes disagree past
        # ESCALATION_DEV; the caller asks for 160 bits
        pytest.param(6, 0.3, 12, 4, "all", None, [53, 160],
                     id="escalated-on-failure"),
        pytest.param(0.9, 1.0, 24, 16, "all", 53, [53, 160],
                     id="escalated-on-disagreement"),
        pytest.param(0.6, 0.9, 5, 6, "all", 160, [53, 160], id="extended"),
    ])
    def test_route_path_builds_no_frame(self, count_calls, k, eta, L, M,
                                        route, bits, weight_bits):
        # the binary64 weights give k and the closed-form eta report;
        # weights are built once per precision and no frame at any
        import rectising.spectrum as spectrum
        weights = count_calls(params, "weights_from_couplings")
        frames = count_calls(params, "elliptic_frame")
        enriched = count_calls(spectrum, "enrich_spectrum")
        res = assemble_logZ(couplings_from_modulus(k, eta, L, M), route,
                            prec=bits)
        o = res.outcomes["hankel"]
        assert o.status == "ok" and o.precision_bits == weight_bits[-1]
        assert [args[1].bits for args in weights] == weight_bits
        assert frames == [] and enriched == []
        assert abs(4 * res.eta_im_over_Kprime - eta) < 1e-13

    def test_critical_route_path_builds_no_frame(self, count_calls):
        frames = count_calls(params, "elliptic_frame")
        res = assemble_logZ(Couplings(CRITICAL_K, CRITICAL_K, 4, 4), "all")
        assert res.outcomes["spin"].status == "ok"
        assert math.isnan(res.eta_im_over_Kprime)
        assert frames == []

    def test_routes_on_one_pipeline_share_the_eigensystem(self, count_calls):
        import rectising.spectrum as spectrum
        calls = count_calls(spectrum, "joint_spectrum")
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        p = Precision(160)
        pipe = spectrum.SystemPipeline(c, p)
        blk, _ = block_transfer_logZ(c, p, pipe)
        hk, _ = hankel_logZ(c, p, pipe)
        assert len(calls) == 1
        assert abs(hk.log_mag - blk.log_mag) < 1e-30 * abs(blk.log_mag)

    @pytest.mark.parametrize("bits", [53, 160])
    def test_routes_never_compute_the_table_angles(self, count_calls, bits):
        # omega = am 2u and the torus point u belong to the spectrum table
        import rectising.spectrum as spectrum
        am_calls = count_calls(EllipticKernel, "am")
        locate_calls = count_calls(spectrum, "_locate_u")
        for c in (couplings_from_modulus(0.6, 0.9, 5, 6),
                  couplings_from_modulus(3, 0.9, 6, 6)):
            res = assemble_logZ(c, "all", prec=Precision(bits))
            assert all(res.outcomes[n].status == "ok"
                       for n in ("block", "hankel", "pfaffian"))
        assert len(am_calls) == 0
        assert len(locate_calls) == 0

    @pytest.mark.parametrize("route", [block_transfer_logZ, hankel_logZ,
                                       pfaffian_logZ])
    def test_route_refuses_a_contradicting_pipeline(self, route):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        pipe = SystemPipeline(c)
        with pytest.raises(DomainError, match="another system"):
            route(couplings_from_modulus(0.6, 0.9, 7, 6), None, pipe)
        with pytest.raises(DomainError, match="53 bits, not at 160"):
            route(c, Precision(160), pipe)
        lz, _ = route(c, FLOAT64, pipe)
        assert route(c, pipeline=pipe)[0] == lz

    def test_block_from_shared_eigensystem_equals_standalone(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        p = Precision(160)
        res = assemble_logZ(c, "all", prec=p)
        alone, _ = block_transfer_logZ(c, p)
        assert res.outcomes["block"].logZ == float(alone.log_mag)

    def test_failed_route_records_its_precision(self, monkeypatch):
        import rectising.partition as partition
        from rectising.errors import PoleError

        def broken(*args):
            raise PoleError("pole")

        monkeypatch.setattr(partition, "hankel_logZ", broken)
        res = assemble_logZ(couplings_from_modulus(0.6, 0.9, 5, 6), "all",
                            prec=Precision(160))
        assert res.outcomes["hankel"].status == "failed"
        assert res.outcomes["hankel"].precision_bits == 160
        assert res.outcomes["pfaffian"].status == "ok"
        assert res.pipeline_seconds > 0

    def test_non_finite_matrix_fails_the_route(self, monkeypatch):
        import rectising.partition as partition
        build = partition.chi_poly_derivative

        def poisoned(points, index):
            out = build(points, index)
            return out * float("nan") if index == 0 else out

        monkeypatch.setattr(partition, "chi_poly_derivative", poisoned)
        res = assemble_logZ(couplings_from_modulus(0.6, 0.9, 5, 6), "all")
        assert res.outcomes["hankel"].status == "failed"
        assert "non-finite" in res.outcomes["hankel"].reason
        assert res.outcomes["block"].status == "ok"

    @pytest.mark.parametrize("turn", [-1, cmath.exp(1e-6j)])
    def test_weight_off_the_positive_axis_fails_the_route(self, monkeypatch,
                                                         turn):
        import rectising.partition as partition
        build = partition.chi_poly_derivative

        def turned(points, index):
            out = build(points, index)
            return out / turn if index == len(points) - 1 else out

        monkeypatch.setattr(partition, "chi_poly_derivative", turned)
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        with pytest.raises(PhaseLeakError, match="not positive real"):
            hankel_logZ(c, FLOAT64)


class TestEscalation:
    def test_forced_binary64_escalates_on_route_disagreement(self):
        # forcing binary64 on a system whose moment determinant cancels
        # past it: the deviation trigger re-runs the spectral routes at
        # 160 bits and restores agreement
        c = couplings_from_modulus(0.9, 1.0, 24, 16)
        res = assemble_logZ(c, "all", prec=FLOAT64)
        assert res.outcomes["hankel"].precision_bits >= 160
        assert res.max_pairwise_dev < 1e-12

    def test_escalated_result_reads_the_160_bit_outcomes(self):
        c = couplings_from_modulus(0.9, 1.0, 24, 16)
        res = assemble_logZ(c, "all", prec=FLOAT64)
        ref = assemble_logZ(c, "all", prec=Precision(160))
        for name in ("block", "hankel", "pfaffian"):
            assert res.outcomes[name].precision_bits == 160
            assert res.outcomes[name].logZ == ref.outcomes[name].logZ
        assert res.logZ == ref.logZ == res.outcomes["block"].logZ
        assert res.max_pairwise_dev == ref.max_pairwise_dev

    def test_binary64_hankel_and_block_agree(self):
        # an LU of the moment matrix loses 10 digits here in binary64; the
        # recurrence coefficients of the spectral measure lose none
        c = couplings_from_modulus(0.9, 1.0, 24, 16)
        hankel, _ = hankel_logZ(c, FLOAT64)
        block, _ = block_transfer_logZ(c, FLOAT64)
        assert abs(hankel.log_mag - block.log_mag) < 1e-13 * abs(block.log_mag)
