"""Partition-function routes and the log-scaled linear algebra."""

import decimal
import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    AGREEMENT_DEV,
    ESCALATION_DEV,
    SPIN_MAX_WIDTH,
    PartitionResult,
    RouteOutcome,
    _disagreements,
    _hamming,
    assemble_logZ,
    block_transfer_logZ,
    brute_force_logZ,
    default_precision,
    fan_out,
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
from rectising.spectrum import (SystemPipeline, chi_poly_derivatives,
                                spectrum_for)

CRITICAL_K = 0.5 * math.log(1 + math.sqrt(2))


def compared(c, prec=None):
    """``compare``'s routes before its swap check: route="all" with the
    Pfaffian added."""
    res = assemble_logZ(c, "all", prec)
    fan_out(res, ("pfaffian",))
    return res

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


def unchecked_couplings(K_h, K_v, L, M) -> Couplings:
    """Couplings without the positivity check: the configuration sums hold
    at any sign."""
    c = object.__new__(Couplings)
    for name, val in (("K_h", K_h), ("K_v", K_v), ("L", L), ("M", M)):
        object.__setattr__(c, name, val)
    return c


def exact_log_z(c: Couplings) -> float:
    """log Z from the exact number of configurations at each pair of
    integer agreement counts (horizontal, vertical), summed at 40 digits."""
    idx = np.arange(1 << c.sites)
    spin = [(idx >> site) & 1 for site in range(c.sites)]
    h = sum(1 - 2 * (spin[l * c.M + m] ^ spin[(l + 1) * c.M + m])
            for l in range(c.L - 1) for m in range(c.M))
    v = sum(1 - 2 * (spin[l * c.M + m] ^ spin[l * c.M + m + 1])
            for l in range(c.L) for m in range(c.M - 1))
    nh, nv = (c.L - 1) * c.M, c.L * (c.M - 1)
    counts = np.bincount((h + nh) * (2 * nv + 1) + v + nv).tolist()
    with mpmath.workdps(40):
        K_h, K_v = mpmath.mpf(c.K_h), mpmath.mpf(c.K_v)
        return float(mpmath.log(mpmath.fsum(
            n * mpmath.exp((key // (2 * nv + 1) - nh) * K_h
                           + (key % (2 * nv + 1) - nv) * K_v)
            for key, n in enumerate(counts) if n)))


def full_space_log_z(c: Couplings) -> float:
    """log Z by the row transfer over all 2^M column states, without the
    flip symmetry or a split of the state bits: each horizontal bond is a
    dense 2 x 2 block on one axis of the (2,) * M state tensor, and the
    vector is normalised by its largest entry after every row."""
    M = c.M
    spin = np.indices((2,) * M)
    vertical = sum((1 - 2 * (spin[m] ^ spin[m + 1]) for m in range(M - 1)),
                   np.zeros((2,) * M))
    w_col = np.exp(c.K_v * vertical)
    bond = np.exp(c.K_h * np.array([[1.0, -1.0], [-1.0, 1.0]]) - abs(c.K_h))
    v, log_z = w_col, (c.L - 1) * M * abs(c.K_h)
    for _row in range(c.L - 1):
        for m in range(M):
            v = np.moveaxis(np.tensordot(bond, v, axes=(1, m)), 0, m)
        v = v * w_col
        top = v.max()
        log_z += math.log(top)
        v = v / top
    return log_z + math.log(v.sum())


def right_looking_pfaffian(rows):
    """Binary64 oracle: the classic right-looking Parlett-Reid reduction of
    the exactly skew matrix of the upper triangle, with the pivot order of
    `pfaffian`; returns (sign, log |Pf|)."""
    n = len(rows)
    A = [[rows[i][j] if i < j else (-rows[j][i] if i > j else 0.0)
          for j in range(n)] for i in range(n)]
    sign, log_abs = 1, 0.0
    for k in range(0, n, 2):
        q = max(range(k + 1, n), key=lambda j: abs(A[k][j]))
        entry = A[k][q]
        ae = abs(entry)
        if ae == 0:
            return 0, float("-inf")
        if q != k + 1:
            A[q], A[k + 1] = A[k + 1], A[q]
            for r in A:
                r[q], r[k + 1] = r[k + 1], r[q]
            sign = -sign
        if entry < 0:
            sign = -sign
        log_abs += math.log(ae)
        rest = range(k + 2, n)
        f = {j: A[k][j] / entry for j in rest}
        R = {j: A[k + 1][j] for j in rest}
        for i in rest:
            for j in rest:
                A[i][j] = A[i][j] + f[i] * -R[j]
                A[i][j] = A[i][j] + R[i] * f[j]
    return sign, log_abs


def seeded_skew(rng, n, kind):
    """A real or half-sparse skew test matrix as nested lists, its lower
    triangle off by a relative 1e-14, which `pfaffian` never reads."""
    B = rng.normal(size=(n, n)) * np.exp(2 * rng.normal(size=(n, 1)))
    if kind == "sparse":
        B[rng.random((n, n)) < 0.5] = 0
    A = B - B.T
    A[np.tril_indices(n, -1)] *= 1 + 1e-14
    return A.tolist()


def seeded_matrix(rng, n, kind, prec=FLOAT64):
    """A real or Hankel test matrix of context scalars."""
    if kind == "hankel":
        h = rng.normal(size=2 * n) * np.exp(-0.5 * np.arange(2 * n))
        B = np.array([[h[i + j] for j in range(n)] for i in range(n)])
    else:
        B = rng.normal(size=(n, n)) * np.exp(3 * rng.normal(size=(n, 1)))
    return [[prec.ctx.mpf(B[i, j]) for j in range(n)] for i in range(n)]


class TestLogDet:
    def test_identity(self):
        sign, log_abs, _ = logdet_scaled([[1.0, 0.0], [0.0, 1.0]], FLOAT64)
        assert sign == 1 and log_abs == 0.0

    def test_against_numpy(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6))
        sign, log_abs, _ = logdet_scaled([list(r) for r in A], FLOAT64)
        want = np.linalg.det(A)
        got = sign * math.exp(log_abs)
        assert abs(got - want) < 1e-10 * abs(want)

    def test_huge_scale(self):
        A = [[1e200, 2e200], [3e-200, 4e-200]]
        sign, log_abs, _ = logdet_scaled(A, FLOAT64)
        assert abs(log_abs - math.log(2.0)) < 1e-12
        assert sign == -1

    def test_row_sum_overflow_is_not_a_non_finite_entry(self):
        # the row's sum of magnitudes overflows; every entry is finite
        sign, log_abs, _ = logdet_scaled([[1e308, 1e308], [1.0, -1e308]],
                                         FLOAT64)
        assert abs(log_abs - 616 * math.log(10)) < 1e-12
        assert sign == -1

    @pytest.mark.parametrize("kind", ["real", "hankel"])
    def test_binary64_against_256_bits(self, kind):
        # the sign of the 256-bit LU, and log |det| within n eps times the
        # 10^loss that the QR reports, relative to max(1, |log |det||);
        # lists and arrays give the same floats
        p = Precision(256)
        eps = np.finfo(float).eps
        rng = np.random.default_rng({"real": 1, "hankel": 3}[kind])
        for _ in range(40):
            n = int(rng.integers(1, 65))
            rows = seeded_matrix(rng, n, kind)
            got = logdet_scaled(rows, FLOAT64)
            assert repr(logdet_scaled(np.array(rows), FLOAT64)) == repr(got)
            sign, log_abs, loss = got
            want_sign, want, _ = logdet_scaled(rows, p)
            assert sign == want_sign
            err = abs(p.ctx.mpf(log_abs) - want) / max(1, abs(want))
            assert err < n * eps * 10 ** loss

    def test_binary64_singular_to_rounding(self):
        # the last column is a combination of the others, rounded once
        rng = np.random.default_rng(11)
        for n in (2, 8, 32, 64):
            A = rng.normal(size=(n, n))
            A[:, -1] = A[:, :-1] @ rng.normal(size=n - 1)
            assert logdet_scaled(A, FLOAT64) == (0, -math.inf, math.inf)

    def test_binary64_column_graded_hankel_is_regular(self):
        # the moments fall by e^-0.5 a step, so the 256-bit LU's pivots
        # spread over 13 digits; no column of the QR cancels them
        p = Precision(256)
        rng = np.random.default_rng(12)
        h = rng.normal(size=120) * np.exp(-0.5 * np.arange(120))
        A = np.array([h[i:i + 60] for i in range(60)])
        want_sign, want, lu_loss = logdet_scaled(A, p)
        assert lu_loss > 12
        sign, log_abs, loss = logdet_scaled(A, FLOAT64)
        assert sign == want_sign != 0
        assert loss < 3
        assert abs(log_abs - float(want)) < 1e-13 * abs(float(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_binary64_permutation_sign(self, n):
        for perm in itertools.permutations(range(n)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            sign, log_abs, _ = logdet_scaled(np.eye(n)[list(perm)], FLOAT64)
            assert sign == (-1) ** inversions
            assert abs(log_abs) < 1e-15

    @pytest.mark.parametrize("rows, want", [
        # a column whose squares underflow: regular, and dependent to
        # rounding; R_22 = 0 exactly; a zero column
        ([[1.0, 1e-200], [1.0, 3e-200]], (1, math.log(2e-200))),
        ([[1.0, 1e-200], [1.0, 1e-200 * (1 + 2 ** -52)]], (0, -math.inf)),
        ([[1.0, 1.0], [1.0, 1.0]], (0, -math.inf)),
        ([[1.0, 0.0], [2.0, 0.0]], (0, -math.inf)),
    ])
    def test_binary64_loss_raises_no_warning(self, rows, want):
        # filterwarnings = error makes a numpy warning fail the test
        sign, log_abs, loss = logdet_scaled(rows, FLOAT64)
        assert sign == want[0]
        assert log_abs == pytest.approx(want[1], rel=1e-15)
        assert loss == (math.inf if not sign else pytest.approx(0.3, abs=0.1))

    @pytest.mark.parametrize("kind", ["real", "hankel"])
    def test_extended_against_320_bits(self, kind):
        p, q = Precision(160), Precision(320)
        got_sign, got, _ = logdet_scaled(
            seeded_matrix(np.random.default_rng(5), 24, kind, p), p)
        want_sign, want, _ = logdet_scaled(
            seeded_matrix(np.random.default_rng(5), 24, kind, q), q)
        tol = q.ctx.mpf(2) ** -150
        assert abs(q.ctx.mpf(got) - want) < tol
        assert got_sign == want_sign

    @pytest.mark.parametrize("kernel", ["logdet_scaled", "pfaffian"])
    @pytest.mark.parametrize("entry", ["mpc", "complex"])
    def test_extended_refuses_complex_entries(self, kernel, entry):
        # both kernels run on real scalars, binary64 and extended alike; no
        # route hands them a complex matrix, and one given is refused,
        # typed, as nested lists (mpmath or Python scalars) and as an array
        z = mpmath.mpc(0, 1) if entry == "mpc" else 1j
        rows = [[mpmath.mpf(0), z], [-z, mpmath.mpf(0)]]
        run = {"logdet_scaled": logdet_scaled, "pfaffian": pfaffian}[kernel]
        for bits in (53, 160):
            for given in (rows, np.array(rows, dtype=complex)):
                with pytest.raises(DomainError, match="real scalars"):
                    run(given, Precision(bits))

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, object])
    def test_extended_takes_any_real_entries(self, dtype):
        # numpy integer and float32 scalars are real too: no DomainError
        p = Precision(160)
        F = np.array([[0, 2], [-2, 0]], dtype=dtype)
        assert pfaffian(F, p) == (1, p.ctx.ln(2))
        assert logdet_scaled(F, p)[:2] == (1, p.ctx.ln(4))

    @pytest.mark.parametrize("bits", [53, 160])
    def test_zero_leading_entry_swaps(self, bits):
        p = Precision(bits)
        rows = [[p.ctx.mpf(x) for x in r]
                for r in ([0, 2, 1], [3, 1, 0], [1, 0, 4])]
        sign, log_abs, _ = logdet_scaled(rows, p)
        # by cofactors of the first row: det = -2 * 12 + 1 * (-1) = -25
        assert abs(log_abs - math.log(25)) < 1e-15
        assert sign == -1

    @pytest.mark.parametrize("bits", [53, 160])
    def test_singular(self, bits):
        p = Precision(bits)
        rows = [[p.ctx.mpf(x) for x in r]
                for r in ([1, 2, 3], [2, 4, 6], [0, 1, 5])]
        assert logdet_scaled(rows, p) == (0, -math.inf, math.inf)

    def test_empty(self):
        assert logdet_scaled([], FLOAT64) == (1, 0.0, 0.0)

    @pytest.mark.parametrize("rows", [[[1.0, 2.0]], [[1.0, 2.0], [3.0]]])
    def test_not_square(self, rows):
        with pytest.raises(DomainError):
            logdet_scaled(rows, FLOAT64)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
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
    @pytest.mark.parametrize("kind", ["real", "sparse"])
    def test_binary64_equals_right_looking_pfaffian(self, kind):
        rng = np.random.default_rng({"real": 6, "sparse": 8}[kind])
        for _ in range(40):
            rows = seeded_skew(rng, 2 * int(rng.integers(1, 33)), kind)
            want = repr(right_looking_pfaffian(rows))
            for given in (rows, np.array(rows)):
                assert repr(pfaffian(given, FLOAT64)) == want

    def test_two_by_two(self):
        sign, log_abs = pfaffian([[0.0, 3.5], [-3.5, 0.0]])
        assert sign == 1 and abs(math.exp(log_abs) - 3.5) < 1e-15

    def test_block_diagonal(self):
        A = np.zeros((6, 6))
        vals = (2.0, -0.5, 4.0)
        for i, v in enumerate(vals):
            A[2 * i, 2 * i + 1] = v
            A[2 * i + 1, 2 * i] = -v
        sign, log_abs = pfaffian([list(r) for r in A])
        want = vals[0] * vals[1] * vals[2]
        assert abs(sign * math.exp(log_abs) - want) < 1e-14 * abs(want)

    def test_square_is_determinant(self):
        rng = np.random.default_rng(9)
        B = rng.normal(size=(6, 6))
        A = B - B.T
        _sign, log_abs = pfaffian([list(r) for r in A])
        det = np.linalg.det(A)
        assert abs(math.exp(2 * log_abs) - det) < 1e-11 * abs(det)

    def test_square_is_determinant_extended(self):
        p = Precision(160)
        rng = np.random.default_rng(12)
        B = rng.normal(size=(12, 12))
        A = [[p.ctx.mpf(B[i, j]) - p.ctx.mpf(B[j, i]) for j in range(12)]
             for i in range(12)]
        pf_sign, pf = pfaffian(A, p)
        det_sign, det, _ = logdet_scaled(A, p)
        assert det_sign == 1 and pf_sign in (1, -1)
        assert abs(2 * pf - det) < p.ctx.mpf(2) ** -140

    def test_odd_dimension(self):
        with pytest.raises(DomainError):
            pfaffian([[0.0]])

    def test_not_skew(self):
        with pytest.raises(DomainError):
            pfaffian([[0.0, 1.0], [1.0, 0.0]])
        # the gate is relative below unit scale too
        with pytest.raises(DomainError):
            pfaffian([[0.0, 1e-20], [5e-20, 0.0]])
        assert pfaffian(np.zeros((2, 2))) == (0, -math.inf)

    def test_not_skew_extended(self):
        # the gate is relative to the largest entry, at any precision
        p = Precision(160)
        one, off = p.ctx.mpf(1), p.ctx.mpf("1e-11")
        with pytest.raises(DomainError):
            pfaffian([[0, one], [-one + off, 0]], p)
        assert pfaffian([[0, one], [-one + off / 100, 0]], p) == (1, 0)
        with pytest.raises(DomainError):
            pfaffian([[0, p.ctx.mpf("1e-20")], [p.ctx.mpf("5e-20"), 0]], p)
        assert pfaffian([[0, 0], [0, 0]], p) == (0, -math.inf)

    def test_skew_gate_beyond_binary64_range(self):
        # the binary64 copy of these entries overflows; the gate reads the
        # exact ones
        p = Precision(160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                pfaffian([[0, mpmath.mpf("1e400")],
                          [mpmath.mpf("-2e400"), 0]], p)
            sign, log_abs = pfaffian([[0, mpmath.mpf("1e400")],
                                      [mpmath.mpf("-1e400"), 0]], p)
        assert abs(log_abs - 400 * math.log(10)) < 1e-12
        assert sign == 1

    def test_empty(self):
        assert pfaffian([]) == (1, 0.0)

    def test_singular(self):
        A = np.zeros((4, 4))
        assert pfaffian([list(r) for r in A]) == (0, -math.inf)

    @pytest.mark.parametrize("bits", [53, 160])
    def test_singular_after_elimination(self, bits):
        # Pf = a01 a23 - a02 a13 + a03 a12 = 1*6 - 2*3 + 0 = 0
        p = Precision(bits)
        up = {(0, 1): 1, (0, 2): 2, (0, 3): 0, (1, 2): 0, (1, 3): 3,
              (2, 3): 6}
        rows = [[p.ctx.mpf(up[i, j] if i < j else
                           (-up[j, i] if i > j else 0)) for j in range(4)]
                for i in range(4)]
        assert pfaffian(rows, p) == (0, -math.inf)

    @pytest.mark.parametrize("bits", [53, 160])
    def test_zero_leading_entry_swaps(self, bits):
        # a01 = 0 forces the pivot swap; Pf = -a02 a13 + a03 a12 = -7
        p = Precision(bits)
        up = {(0, 1): 0, (0, 2): 2, (0, 3): 1, (1, 2): -1, (1, 3): 3,
              (2, 3): 5}
        rows = [[p.ctx.mpf(up[i, j] if i < j else
                           (-up[j, i] if i > j else 0)) for j in range(4)]
                for i in range(4)]
        sign, log_abs = pfaffian(rows, p)
        assert abs(log_abs - math.log(7)) < 1e-15
        assert sign == -1

    @pytest.mark.parametrize("n", [24, 64])
    def test_extended_square_is_determinant(self, n):
        p, q = Precision(160), Precision(320)
        B = np.random.default_rng(n).normal(size=(n, n))

        def skew(prec):
            return [[prec.ctx.mpf(B[i, j]) - prec.ctx.mpf(B[j, i])
                     for j in range(n)] for i in range(n)]
        pf_sign, pf = pfaffian(skew(p), p)
        _det_sign, det, _ = logdet_scaled(skew(p), p)
        assert abs(2 * pf - det) < p.ctx.mpf(2) ** -140
        assert pf_sign == pfaffian(skew(q), q)[0]

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
        assert abs(brute_force_logZ(Couplings(0.5, 0.5, 1, 1))
                   - math.log(2.0)) < 1e-15

    def test_single_bond(self):
        got = brute_force_logZ(Couplings(0.3, 0.5, 2, 1))
        assert abs(got - math.log(4 * math.cosh(0.3))) < 1e-14

    def test_two_by_two_isotropic(self):
        got = brute_force_logZ(Couplings(0.3, 0.3, 2, 2))
        closed = math.log(2 * math.exp(1.2) + 12 + 2 * math.exp(-1.2))
        assert abs(got - math.log(Z_2X2_K03)) < 1e-13
        assert abs(got - closed) < 1e-13

    def test_against_enumeration_oracle(self):
        c = Couplings(0.45, 0.28, 3, 4)
        assert abs(brute_force_logZ(c)
                   - enumeration_oracle(c)) < 1e-12

    def test_size_cap(self):
        with pytest.raises(RouteInfeasibleError, match="spin-transfer"):
            brute_force_logZ(Couplings(0.3, 0.3, 5, 6))

    def test_spin_matches_brute(self):
        # even, uneven and empty Kronecker halves (M = 1, 5, 7, 12), a
        # single row, a system over the cap that runs swapped (14 x 1),
        # and 24-spin systems at brute's cap, of line widths 4, 3 and 1
        for c in (Couplings(0.41, 0.33, 4, 4), Couplings(0.6, 0.2, 2, 6),
                  Couplings(0.35, 0.5, 2, 12), Couplings(0.3, 0.45, 3, 7),
                  Couplings(0.6, 0.25, 4, 5), Couplings(0.45, 0.3, 5, 1),
                  Couplings(0.5, 0.5, 1, 1), Couplings(0.4, 0.6, 1, 9),
                  Couplings(0.4, 0.3, 1, 14), Couplings(0.41, 0.33, 4, 6),
                  Couplings(0.41, 0.33, 6, 4), Couplings(0.3, 0.45, 3, 8),
                  Couplings(0.4, 0.3, 1, 24)):
            b = brute_force_logZ(c)
            s = spin_transfer_logZ(c)
            assert abs(b - s) < 1e-13 * max(1.0, abs(b)), c

    @pytest.mark.parametrize("K_h, K_v", [(-0.5, 0.3), (0.4, -0.6)])
    def test_spin_matches_brute_at_negative_bonds(self, K_h, K_v):
        # Couplings refuses K <= 0, but both configuration sums hold at
        # any sign; flipping every other row (column) maps -K_h (-K_v)
        # onto +K_h (+K_v) on the open rectangle
        c = unchecked_couplings(K_h, K_v, 4, 5)
        b = brute_force_logZ(c)
        assert abs(spin_transfer_logZ(c) - b) < 1e-13 * abs(b)
        mirror = Couplings(abs(K_h), abs(K_v), 4, 5)
        assert abs(spin_transfer_logZ(mirror) - b) < 1e-13 * abs(b)

    @pytest.mark.parametrize("K_h, K_v, L, M", [
        (0.4, 0.3, 1, 16), (0.4, 0.3, 16, 1), (0.6, 0.2, 2, 8),
        (0.41, 0.33, 4, 4), (0.3, 0.45, 3, 5), (-0.5, 0.3, 4, 5),
        (0.4, -0.6, 4, 5)])
    def test_brute_matches_the_exact_count(self, K_h, K_v, L, M):
        c = unchecked_couplings(K_h, K_v, L, M)
        ref = exact_log_z(c)
        assert abs(brute_force_logZ(c) - ref) <= 1e-15 * abs(ref)

    def test_brute_arrays_stay_within_the_chunk_bound(self, monkeypatch):
        # 24 spins: each configuration is exponentiated once, in chunks of
        # at most 2^20, and no more than two chunk-sized float arrays (the
        # energies and their exponentials) are alive at once
        sizes = []
        exp = np.exp

        def recording_exp(x):
            sizes.append(np.size(x))
            return exp(x)

        monkeypatch.setattr(np, "exp", recording_exp)
        tracemalloc.start()
        try:
            brute_force_logZ(Couplings(0.41, 0.33, 4, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sizes) == 1 << 24
        assert max(sizes) <= 1 << 20
        assert peak <= 3 * 8 << 20

    def test_spin_strong_coupling_stays_finite(self):
        # e^{4 K_h} overflows a product of unscaled blocks
        c = Couplings(200, 0.3, 3, 4)
        b = brute_force_logZ(c)
        with np.errstate(over="raise", invalid="raise"):
            s = spin_transfer_logZ(c)
        assert abs(b - s) < 1e-13 * abs(b)

    @pytest.mark.parametrize("K_h, K_v, M", [
        (3.0, -2.5, 1), (3.0, -2.5, 7), (3.0, -2.5, 12), (200.0, 0.3, 4),
        (0.05, 0.05, 12)])
    @pytest.mark.parametrize("L", [300, 301])
    def test_spin_matches_the_full_space_transfer_on_long_strips(
            self, K_h, K_v, M, L):
        # 300 and 301 rows, closed by u^T r and by u^T B u: the half-space
        # vector is rescaled only when its a-priori range could leave
        # e^+-300, at widths odd, even and 1; under weak bonds its largest
        # entry grows by nearly 2^M a row, e^2500 in all
        c = unchecked_couplings(K_h, K_v, L, M)
        ref = full_space_log_z(c)
        with np.errstate(over="raise", invalid="raise"):
            got = spin_transfer_logZ(c)
        assert abs(got - ref) < 1e-13 * abs(ref)

    def test_spin_swap_invariance(self):
        c = Couplings(0.4, 0.7, 3, 4)
        a = spin_transfer_logZ(c)
        b = spin_transfer_logZ(swap_system(c))
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_single_column(self):
        c = Couplings(0.5, 0.37, 1, 4)
        assert abs(spin_transfer_logZ(c)
                   - brute_force_logZ(c)) < 1e-13

    def test_spin_swaps_wide_systems(self):
        c = Couplings(0.3, 0.4, 4, 14)   # M over cap, L under it
        got = spin_transfer_logZ(c)
        ref = spin_transfer_logZ(Couplings(0.4, 0.3, 14, 4))
        assert abs(got - ref) < 1e-12 * abs(ref)

    def test_spin_cap(self):
        with pytest.raises(RouteInfeasibleError):
            spin_transfer_logZ(Couplings(0.3, 0.3, 14, 14))

    @pytest.mark.parametrize("M", range(1, SPIN_MAX_WIDTH + 1))
    def test_spin_matches_brute_at_every_width(self, M):
        c = Couplings(0.43, 0.31, max(1, 16 // M), M)
        b = brute_force_logZ(c)
        assert abs(spin_transfer_logZ(c) - b) < 1e-13 * abs(b)

    def test_spin_tables(self):
        # d counts the unequal neighbours of a column state, H the unequal
        # bits of two states
        assert _disagreements(3).tolist() == [0, 1, 2, 1, 1, 2, 1, 0]
        assert _hamming(2).tolist() == [[0, 1, 1, 2], [1, 0, 2, 1],
                                        [1, 2, 0, 1], [2, 1, 1, 0]]
        for table in (_disagreements(3), _hamming(2)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 5

    def test_spin_tables_are_built_once_per_width(self):
        c = Couplings(0.4, 0.3, 3, 7)
        spin_transfer_logZ(c)
        before = _disagreements.cache_info(), _hamming.cache_info()
        spin_transfer_logZ(c)
        after = _disagreements.cache_info(), _hamming.cache_info()
        for old, new in zip(before, after):
            assert new.misses == old.misses
            assert new.currsize == old.currsize
        assert after[0].hits == before[0].hits + 1
        assert after[1].hits == before[1].hits + 2

    def test_spin_makes_no_kron_call(self, monkeypatch):
        c = Couplings(0.41, 0.33, 4, 5)
        want = spin_transfer_logZ(c)

        def refuse(*args, **kwargs):
            raise AssertionError("spin transfer reached np.kron")

        monkeypatch.setattr(np, "kron", refuse)
        assert spin_transfer_logZ(c) == want


class TestBlockTransfer:
    def test_against_brute(self):
        c = Couplings(0.4, 0.7, 3, 4)
        blk, _ = block_transfer_logZ(c)
        ref = brute_force_logZ(c)
        assert abs(blk - ref) < 1e-10 * max(1.0, abs(ref))

    def test_against_spin_larger(self):
        c = Couplings(0.35, 0.52, 10, 8)
        blk, _ = block_transfer_logZ(c)
        ref = spin_transfer_logZ(c)
        assert abs(blk - ref) < 1e-9 * abs(ref)

    def test_projector_algebra(self):
        S = np.eye(6)[::-1]
        Sp, Sm = (np.eye(6) + S) / 2, (np.eye(6) - S) / 2
        assert np.max(np.abs(Sp @ Sm)) == 0

    def test_projected_determinant_positive(self):
        # the determinant argument equals a perfect square by the
        # projector algebra; form it directly and check positivity
        c = Couplings(0.4, 0.7, 3, 4)
        _w, _fr, pipe, _pts = spectrum_for(c)
        T = pipe.family()[1].T
        S = np.eye(4)[::-1]
        Sp, Sm = (np.eye(4) + S) / 2, (np.eye(4) - S) / 2
        TL = np.linalg.matrix_power(T, 3)
        A = Sp @ TL @ Sp + Sm @ np.linalg.inv(TL) @ Sm
        assert np.linalg.det(A) > 0

    def test_runs_at_criticality(self):
        c = Couplings(CRITICAL_K, CRITICAL_K, 4, 6)
        blk, _ = block_transfer_logZ(c)
        ref = spin_transfer_logZ(c)
        assert abs(blk - ref) < 1e-10 * abs(ref)

    def test_odd_extent_refused(self):
        with pytest.raises(RouteInfeasibleError):
            block_transfer_logZ(Couplings(0.4, 0.7, 4, 3))

    @pytest.mark.parametrize("k, eta, n", [(3, 0.8, 128), (0.6, 0.8, 256)])
    def test_binary64_above_the_harness_sizes(self, k, eta, n):
        # the swapped system has its own eigensystem and its own matrix
        c = couplings_from_modulus(k, eta, n, n)
        got, _ = block_transfer_logZ(c, FLOAT64)
        want, _ = block_transfer_logZ(swap_system(c), FLOAT64)
        assert abs(got - want) < 1e-14 * abs(want)


class TestHankelRoute:
    def test_two_by_two_single_moment(self):
        c = Couplings(0.4, 0.7, 2, 2)
        lz, _ = hankel_logZ(c)
        assert abs(lz - math.log(Z_2X2_K04_K07)) < 1e-9

    def test_against_block(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        lz, diag = hankel_logZ(c)
        ref, _ = block_transfer_logZ(c)
        assert abs(lz - ref) < 1e-9 * abs(ref)
        assert 0 < diag["weight_spread_digits"] < 30

    @pytest.mark.parametrize("L, M, eta, k", [
        (10, 12, 0.85, 1.45), (10, 12, 0.85, 2.025), (10, 12, 0.85, 2.6),
        (12, 10, 0.95, 1.82), (12, 10, 0.95, 2.31), (12, 10, 0.95, 2.8),
        (12, 12, 0.8, 1.05), (6, 16, 0.7, 0.875), (6, 16, 0.7, 1.45)])
    def test_binary64_against_spin(self, L, M, eta, k):
        # an LU of the moment matrix is off by 7e-8 to 2e-7 here
        c = couplings_from_modulus(k, eta, L, M)
        lz, _ = hankel_logZ(c, FLOAT64)
        ref = spin_transfer_logZ(c)
        assert abs(lz - ref) < 1e-13 * abs(ref)

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
        assert abs(hankel.logZ - ref) < 1e-15 * abs(ref)
        lz, _ = hankel_logZ(c, p, pipe)
        assert abs(lz - ref) < 1e-30 * abs(ref)

    def test_ordered_phase_edge_mode_at_160_bits(self):
        # 2u of the edge mode lies on the i K' lattice, where am has a
        # pole; the routes do not evaluate it
        c = couplings_from_modulus(6, 1.0, 4, 22)
        p = Precision(160)
        pipe = SystemPipeline(c, p)
        ref = block_transfer_logZ(c, p, pipe)[0]
        for route in (hankel_logZ, pfaffian_logZ):
            lz, _ = route(c, p, pipe)
            assert abs(lz - ref) < 1e-12 * abs(ref)

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
        shift, _chis, b = partition._spectral_measure(pts, c, w)
        assert any(ctx.im(q.phi) for q in pts) == (k > 1)
        derivs = chi_poly_derivatives([q.chi for q in pts])
        for bi, q, dp in zip(b, pts, derivs):
            want = (ctx.mpc(0, 2) * w.t_star * ctx.exp(L * q.gamma - shift)
                    * (1 / q.exp_theta)
                    * (-ctx.cos(q.phi / 2) / ctx.sin(q.phi / 2)) / dp)
            assert bi > 0
            assert abs(bi - want) <= 1e-40 * abs(want)

    def test_moments_real(self):
        # the measure's weights are positive floats in both phases, so its
        # moments are real
        import rectising.partition as partition
        for kk in (0.6, 1.66):
            c = couplings_from_modulus(kk, 0.9, 5, 6)
            w, fr, _b, pts = spectrum_for(c)
            _shift, _chis, b = partition._spectral_measure(pts, c, w)
            assert all(type(x) is float and x > 0 for x in b)
            hs = hankel_from_spectrum(pts, c, w, fr)
            assert all(type(h) is float and math.isfinite(h)
                       for h in hs.h_scaled)

    def test_hankel_structure_exact(self):
        # the moments h_1 .. h_(M-1), all a Hankel matrix of order M/2
        # reads, each read by its order
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        w, fr, _b, pts = spectrum_for(c)
        hs = hankel_from_spectrum(pts, c, w, fr)
        assert len(hs.h_scaled) == c.M - 1
        assert [hs.h(n) for n in range(1, c.M)] == hs.h_scaled

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


class TestEdgeQuotient:
    """The ordered-phase edge mode's lambda_minus from v^T T_minus v, and
    the lower branch as 1/(lambda_+ + |lambda_minus|) (ROADMAP D8)."""

    @pytest.mark.parametrize("k, eta, L, M", [
        (3, 0.8, 16, 24), (3, 0.8, 32, 32), (30, 0.3, 8, 24),
        (6, 0.8, 24, 24), (6, 1.0, 12, 24),
        # lambda_+ reaches 111, where lambda_+ - sqrt(lambda_+^2 - 1) lost
        # 4e-14 of block
        (30, 0.3, 8, 32)])
    def test_binary64_routes_run_no_160_bit_stage(self, count_calls, k, eta,
                                                  L, M):
        weights = count_calls(params, "weights_from_couplings")
        c = couplings_from_modulus(k, eta, L, M)
        res = assemble_logZ(c, "all")
        assert [args[1].bits for args in weights] == [53]
        spin = res.outcomes["spin"]
        ref = (spin.logZ if spin.status == "ok"
               else block_transfer_logZ(c, Precision(256))[0])
        for name in ("block", "hankel"):
            o = res.outcomes[name]
            assert o.status == "ok" and o.precision_bits == 53
            assert abs(o.logZ - ref) < 1e-14 * abs(ref)

    @pytest.mark.parametrize("L", [12, 8])
    def test_160_bit_routes_against_320_bits(self, L):
        # the root of lambda_+ - 1 ~ 1e-26 left them 8e-27 off
        c = couplings_from_modulus(30, 1.0, L, 24)
        p, wide = Precision(160), Precision(320)
        pipe = SystemPipeline(c, p)
        ref, _ = block_transfer_logZ(c, wide)
        for route in (block_transfer_logZ, hankel_logZ):
            lz, _ = route(c, p, pipe)
            assert abs(wide.ctx.mpf(lz) - ref) < 1e-40 * abs(ref)

    @pytest.mark.parametrize("k, eta, L, M, bound", [
        (6, 1.0, 12, 24, 1e-15),
        # D10: the 160-bit factorization itself moves between 8e-8 and
        # 2.6e-7 off here when the measure moves by a unit in its last bit
        (0.6, 0.8, 64, 64, 1e-6)])
    def test_retried_pfaffian_against_256_bit_block(self, k, eta, L, M,
                                                    bound):
        c = couplings_from_modulus(k, eta, L, M)
        res = compared(c)
        o = res.outcomes["pfaffian"]
        assert o.status == "ok" and o.precision_bits == 160
        assert res.pipeline.prec.bits == 53
        ref, _ = block_transfer_logZ(c, Precision(256))
        assert abs(o.logZ - ref) < bound * abs(ref)


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
                    assert sys.rows[i][j] == sys.rows[i - j][0]

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
        _shift, _chis, b = partition._spectral_measure(pts, c, w)
        want = [-ctx.fsum(bi * ctx.sin(d * q.phi) / ctx.sin(q.phi)
                          for bi, q in zip(b, pts)) for d in range(1, c.M)]
        got = skew_toeplitz_from_spectrum(pts, c, w).rows[1:, 0]
        scale = max(abs(x) for x in want)
        assert max(abs(g - x) for g, x in zip(got, want)) < 1e-40 * scale

    @pytest.mark.parametrize("bits", [53, 160])
    @pytest.mark.parametrize("M", [2, 12, 64])
    def test_arrays_equal_the_scalar_formulas(self, M, bits):
        # the difference-matrix row products and the array recurrence round
        # every term as the scalar loops do, so P'(chi_i) and the entries
        # are the same route scalars
        import rectising.partition as partition
        p = Precision(bits)
        c = couplings_from_modulus(0.6, 0.8, 12, M)
        w, _bundle, pts = SystemPipeline(c, p).checked()
        measure = partition._spectral_measure(pts, c, w)
        _shift, chis, b = measure
        fsum = partition._fsum(p)
        with decimal.localcontext(p.decimal):
            derivs = []
            for i, q in enumerate(pts):
                prod = 1
                for j, other in enumerate(pts):
                    if j != i:
                        prod = prod * (q.chi - other.chi)
                derivs.append(prod)
            entries, terms, prev = [], b, [0] * len(b)
            for _d in range(1, M):
                entries.append(-fsum(terms))
                terms, prev = [(x - 2) * t - u
                               for x, t, u in zip(chis, terms, prev)], terms
            got = chi_poly_derivatives([q.chi for q in pts])
            assert repr(got) == repr(derivs)
        got = skew_toeplitz_from_spectrum(pts, c, w, measure)
        assert repr(got.rows[1:, 0].tolist()) == repr(entries)

    @pytest.mark.parametrize("geom", [(5, 6), (10, 6), (6, 10)])
    def test_pfaffian_equals_determinant(self, geom):
        L, M = geom
        c = couplings_from_modulus(0.6, 0.9, L, M)
        w, fr, _b, pts = spectrum_for(c)
        hs = hankel_from_spectrum(pts, c, w, fr)
        ss = skew_toeplitz_from_spectrum(pts, c, w)
        # det H of the moment matrix, by LU, and Pf of the skew-Toeplitz
        # one, each with its M/2 shifts
        r = np.arange(M // 2)
        det_sign, det, _ = logdet_scaled(
            np.array(hs.h_scaled)[np.add.outer(r, r)], FLOAT64)
        det += M / 2 * hs.log_shift
        pf_sign, pf = pfaffian(ss.rows, FLOAT64)
        pf += M / 2 * ss.log_shift
        assert abs(det - pf) < 1e-9 * max(1.0, abs(det))
        assert det_sign == pf_sign == 1

    def test_against_brute(self):
        c = Couplings(0.4, 0.7, 3, 4)
        lz, _ = pfaffian_logZ(c)
        ref = brute_force_logZ(c)
        assert abs(lz - ref) < 1e-9 * abs(ref)


class TestAssemble:
    def test_all_routes_agree(self):
        res = assemble_logZ(Couplings(0.4, 0.7, 3, 4), "all")
        assert res.max_pairwise_dev < 1e-9
        assert all(o.status == "ok" for o in res.outcomes.values())

    def test_skip_markers(self):
        # one exact oracle: spin above 16 spins, with no record of brute
        res = assemble_logZ(Couplings(0.3, 0.3, 5, 6), "all")
        assert set(res.outcomes) == {"spin", "block", "hankel"}
        oks = [o for o in res.outcomes.values() if o.status == "ok"]
        assert len(oks) == 3
        # spin is recorded as skipped where it is infeasible
        res = assemble_logZ(Couplings(0.3, 0.3, 13, 14), "all")
        assert set(res.outcomes) == {"spin", "block", "hankel"}
        assert res.outcomes["spin"].status == "skipped"
        assert "cap" in res.outcomes["spin"].reason
        assert [o.status for o in res.outcomes.values()].count("ok") == 2

    def test_all_caps_brute_at_16_spins(self):
        # spin is route="all"'s one oracle at every size, 16 spins and
        # fewer included; brute runs only as a single route
        for L, M in ((4, 5), (4, 4)):
            c = Couplings(0.3, 0.3, L, M)
            res = assemble_logZ(c, "all")
            assert "brute" not in res.outcomes
            assert res.outcomes["spin"].status == "ok"
            alone = assemble_logZ(c, "brute")
            assert alone.outcomes["brute"].status == "ok"
            assert abs(alone.logZ - res.logZ) < 1e-12 * abs(res.logZ)

    def test_single_route(self):
        res = assemble_logZ(Couplings(0.4, 0.7, 10, 6), "hankel")
        ref = spin_transfer_logZ(Couplings(0.4, 0.7, 10, 6))
        assert abs(res.logZ - ref) < 1e-9 * abs(ref)

    def test_swap_invariance_each_route(self):
        c = Couplings(0.4, 0.7, 4, 4)
        res = assemble_logZ(c, "all")
        res_s = assemble_logZ(swap_system(c), "all")
        for name, o in res.outcomes.items():
            if o.status != "ok":
                continue
            assert abs(o.logZ - res_s.logZ) < 1e-9 * abs(res_s.logZ)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24),
           st.one_of(st.floats(0.1, 0.95, exclude_min=True, exclude_max=True),
                     st.floats(1.05, 10, exclude_min=True, exclude_max=True)),
           st.floats(0.05, 1, exclude_min=True))
    def test_transpose_gives_the_same_log_z(self, L, M, k, frac):
        # Z of the L x M rectangle is Z of its M x L transpose, wherever
        # both orientations give a log Z
        c = couplings_from_modulus(k, frac, L, M)
        a, b = (assemble_logZ(x).logZ for x in (c, swap_system(c)))
        if a == a and b == b:
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24),
           st.one_of(st.floats(0.1, 0.95, exclude_min=True, exclude_max=True),
                     st.floats(1.05, 10, exclude_min=True, exclude_max=True)),
           st.floats(0.05, 1, exclude_min=True))
    def test_every_route_agrees_with_spin(self, L, M, k, frac):
        # wherever spin runs, every ok outcome of route="all" lies within
        # AGREEMENT_DEV of its log Z
        assume(min(L, M) <= SPIN_MAX_WIDTH)
        res = assemble_logZ(couplings_from_modulus(k, frac, L, M))
        spin = res.outcomes["spin"]
        assert spin.status == "ok"
        for o in res.outcomes.values():
            if o.status == "ok":
                assert abs(o.logZ - spin.logZ) \
                    <= AGREEMENT_DEV * max(1.0, abs(spin.logZ))

    def test_critical_point_routes(self):
        c = Couplings(CRITICAL_K, CRITICAL_K, 5, 6)
        res = compared(c)
        for name in ("block", "hankel"):
            assert res.outcomes[name].status == "ok"
            assert res.outcomes[name].precision_bits == 53
        assert res.outcomes["pfaffian"].status == "skipped"
        assert res.outcomes["pfaffian"].reason == "critical modulus"
        assert res.outcomes["spin"].status == "ok"
        assert res.max_pairwise_dev < 1e-9

    def test_odd_swap_supports_reference_routes(self):
        c = swap_system(Couplings(0.4, 0.7, 3, 4))
        res = assemble_logZ(c, "all")
        assert res.outcomes["hankel"].status == "skipped"
        assert res.outcomes["spin"].status == "ok"
        brute = assemble_logZ(c, "brute")
        assert brute.outcomes["brute"].status == "ok"
        assert abs(brute.logZ - res.logZ) < 1e-12 * abs(res.logZ)

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
        # bits resolves it, for the single route as for compare, and
        # reruns the Pfaffian alone.  The Hankel route, which factors no
        # matrix, is right in binary64
        c = couplings_from_modulus(6, 0.3, 12, 4)
        ref = spin_transfer_logZ(c)
        with pytest.raises(PhaseLeakError):
            pfaffian_logZ(c, FLOAT64)
        alone = assemble_logZ(c, "pfaffian", FLOAT64).outcomes["pfaffian"]
        assert alone.status == "ok" and alone.precision_bits == 160
        assert abs(alone.logZ - ref) < 1e-12 * abs(ref)
        alone = assemble_logZ(c, "hankel").outcomes["hankel"]
        assert alone.status == "ok" and alone.precision_bits == 53
        assert abs(alone.logZ - ref) < 1e-14 * abs(ref)
        res = compared(c)
        for name, bits in (("block", 53), ("hankel", 53), ("pfaffian", 160)):
            assert res.outcomes[name].status == "ok"
            assert res.outcomes[name].precision_bits == bits
        assert res.max_pairwise_dev < 1e-9

    def test_all_never_runs_the_pfaffian(self, count_calls):
        import rectising.partition as partition
        calls = count_calls(partition, "pfaffian_logZ")
        for c, prec in ((couplings_from_modulus(6, 0.3, 12, 4), None),
                        (couplings_from_modulus(0.9, 1.0, 24, 16), FLOAT64),
                        (couplings_from_modulus(6, 1.0, 12, 24), None),
                        (couplings_from_modulus(0.6, 0.9, 5, 6), 160)):
            res = assemble_logZ(c, "all", prec)
            assert "pfaffian" not in res.outcomes
        assert calls == []

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            assemble_logZ(Couplings(0.3, 0.3, 2, 2), "magic")


class TestCriticalPoint:
    """Block and Hankel run k = 1 and its neighbourhood in binary64; the
    Pfaffian alone refuses k = 1 (ROADMAP D10)."""

    def test_corner_free_energy(self):
        # at criticality log Z(L, L) = f_b L^2 + a L + kappa ln L + d +
        # O(1/L), with Onsager's bulk f_b = ln 2 / 2 + 2G/pi and the
        # corner term kappa = c/4 = 1/8 of four right angles (Cardy and
        # Peschel, Nucl. Phys. B 300, 377 (1988); c = 1/2); the fit reads
        # nothing of the route but its log Z
        f_b = math.log(2) / 2 + 2 * float(mpmath.catalan) / math.pi
        sizes = (16, 24, 32, 48, 64, 96, 128, 192)
        rest = [hankel_logZ(Couplings(CRITICAL_K, CRITICAL_K, L, L),
                            FLOAT64)[0] - f_b * L * L for L in sizes]
        basis = [[L, math.log(L), 1, 1 / L, 1 / L ** 2] for L in sizes]
        kappa = np.linalg.lstsq(np.array(basis), np.array(rest),
                                rcond=None)[0][1]
        assert abs(kappa - 1 / 8) <= 1e-4

    @pytest.mark.parametrize("L", [4, 12, 64, 128])
    def test_all_runs_binary64_at_k_one(self, L):
        res = assemble_logZ(Couplings(CRITICAL_K, CRITICAL_K, L, L), "all")
        blk, hk = res.outcomes["block"], res.outcomes["hankel"]
        for o in (blk, hk):
            assert o.status == "ok" and o.precision_bits == 53
        assert abs(hk.logZ - blk.logZ) < 1e-14 * abs(blk.logZ)

    @pytest.mark.parametrize("k", [0.995, 1 - 1e-8, 1 + 1e-8, 1.005])
    def test_window_stays_binary64(self, count_calls, k):
        import rectising.spectrum as spectrum
        calls = count_calls(spectrum, "SystemPipeline")
        c = couplings_from_modulus(k, 1.0, 24, 16)
        res = assemble_logZ(c, "all")
        assert [args[1] for args in calls] == [FLOAT64]
        ref, _ = block_transfer_logZ(c, Precision(160))
        for name in ("block", "hankel"):
            o = res.outcomes[name]
            assert o.status == "ok"
            assert abs(o.logZ - float(ref)) < 1e-14 * abs(ref)

    def test_pfaffian_refuses_before_the_eigensystem(self, count_calls):
        import rectising.spectrum as spectrum
        calls = count_calls(spectrum, "joint_spectrum")
        res = assemble_logZ(Couplings(CRITICAL_K, CRITICAL_K, 4, 6),
                            "pfaffian")
        o = res.outcomes["pfaffian"]
        assert o.status == "skipped" and o.reason == "critical modulus"
        assert calls == []


class TestPrecisionPolicy:
    def test_defaults(self):
        # the policy reads the route alone, so no size and no window about
        # the critical modulus moves it: route="all" starts in binary64
        assert default_precision().is_float
        assert default_precision("all").is_float
        # a single route has no cross-check, and retries only on
        # failure: the Pfaffian keeps 160 bits, block and Hankel never
        assert default_precision("pfaffian").bits >= 160
        assert default_precision("hankel").is_float
        assert default_precision("block").is_float
        # and the engine runs these systems, k = 0.995 among them, in
        # binary64 throughout
        near = couplings_from_modulus(0.995, 1.0, 4, 4)
        for c in (Couplings(0.3, 0.3, 4, 4), Couplings(0.3, 0.3, 24, 16),
                  Couplings(0.3, 0.3, 64, 64), near):
            res = assemble_logZ(c)
            assert res.pipeline.prec.is_float
            assert {o.precision_bits for o in res.outcomes.values()} == {53}

    @pytest.mark.parametrize("route, k, eta", [("pfaffian", 0.9, 1.0),
                                               ("hankel", 6, 1.0)])
    def test_single_route_on_large_system(self, route, k, eta):
        # binary64 leaves the Pfaffian ok but off by 4.7e-4 at k=0.9, so
        # it runs at 160 bits; Hankel holds in binary64
        c = couplings_from_modulus(k, eta, 24, 16)
        o = assemble_logZ(c, route).outcomes[route]
        bits = {"pfaffian": 160, "hankel": 53}[route]
        assert o.status == "ok" and o.precision_bits == bits
        ref, _ = block_transfer_logZ(c, Precision(160))
        assert abs(o.logZ - ref) < 1e-12 * abs(ref)

    def test_single_hankel_climbs_past_the_binary64_range(self,
                                                         count_calls):
        # a binary64 recurrence coefficient of 128 x 128 at k=3 is not
        # positive (D12); the single route climbs once to 160 bits
        import rectising.partition as partition
        calls = count_calls(partition, "hankel_logZ")
        c = couplings_from_modulus(3, 0.8, 128, 128)
        res = assemble_logZ(c, "hankel")
        assert [args[1].bits for args in calls] == [53, 160]
        o = res.outcomes["hankel"]
        assert o.status == "ok" and o.precision_bits == 160
        assert res.pipeline.prec.bits == 160
        ref, _ = block_transfer_logZ(c, FLOAT64)
        assert abs(o.logZ - ref) < 1e-14 * abs(ref)

    def test_failed_single_block_route_climbs(self, monkeypatch):
        import rectising.partition as partition
        kernel = partition.logdet_scaled

        def singular_in_binary64(rows, prec):
            if prec.is_float:
                return 0, -math.inf, 0.0
            return kernel(rows, prec)

        monkeypatch.setattr(partition, "logdet_scaled", singular_in_binary64)
        c = couplings_from_modulus(0.6, 0.9, 8, 8)
        with pytest.raises(PhaseLeakError, match="singular"):
            block_transfer_logZ(c, FLOAT64)
        o = assemble_logZ(c, "block").outcomes["block"]
        assert o.status == "ok" and o.precision_bits == 160
        ref = spin_transfer_logZ(c)
        assert abs(o.logZ - ref) < 1e-12 * abs(ref)

    def test_large_system_stays_binary64(self, count_calls):
        import rectising.spectrum as spectrum
        calls = count_calls(spectrum, "SystemPipeline")
        c = couplings_from_modulus(0.6, 0.8, 12, 64)
        res = compared(c)
        ref = spin_transfer_logZ(c)
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
        assert abs(lz - ref) < 1e-30 * abs(ref)

    @pytest.mark.parametrize("k, eta, L, M", [
        (6, 1.0, 12, 24), (0.6, 0.8, 48, 12), (2.35, 0.8, 12, 12),
        (0.6, 0.8, 12, 64)])
    def test_extended_routes_against_256_bit_block(self, k, eta, L, M):
        # the 160-bit block and Hankel routes each keep 38 digits of a
        # 256-bit block reference (the worst was 8.7e-40, Hankel on
        # 12 x 24, when this pin was set)
        c = couplings_from_modulus(k, eta, L, M)
        q = Precision(256)
        ref = block_transfer_logZ(c, q)[0]
        p = Precision(160)
        pipe = SystemPipeline(c, p)
        for route in (block_transfer_logZ, hankel_logZ):
            lz, _ = route(c, p, pipe)
            assert abs(q.ctx.mpf(lz) - ref) < 1e-38 * abs(ref)

    def test_binary64_documented_failure_regime(self):
        # at (24,16) near criticality the skew-Toeplitz Pfaffian cancels
        # past binary64: it loses more than 8 of its 16 digits
        c = couplings_from_modulus(0.9, 1.0, 24, 16)
        lz, _ = pfaffian_logZ(c, FLOAT64)
        ref, _ = block_transfer_logZ(c, Precision(160))
        assert abs(lz - float(ref)) > 1e-8 * abs(ref)


class TestSharedPipeline:
    def test_one_eigensystem_per_precision(self, count_calls):
        import rectising.spectrum as spectrum
        calls = count_calls(spectrum, "joint_spectrum")
        res = compared(couplings_from_modulus(0.6, 0.9, 5, 6), Precision(160))
        assert all(res.outcomes[n].status == "ok"
                   for n in ("block", "hankel", "pfaffian"))
        assert len(calls) == 1

    def test_structured_routes_share_one_spectral_measure(self,
                                                          count_calls):
        import rectising.partition as partition
        calls = count_calls(partition, "_spectral_measure")
        res = compared(couplings_from_modulus(0.6, 0.8, 6, 10))
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
        res = compared(couplings_from_modulus(0.6, 0.8, 6, 10))
        # one measure per pipeline: binary64, then the 160-bit retry,
        # whose pipeline the Pfaffian runs on
        assert len(calls) == 2
        assert res.outcomes["block"].status == "ok"
        for name in ("hankel", "pfaffian"):
            o = res.outcomes[name]
            assert o.status == "failed" and o.precision_bits == 160
            assert o.reason == "spectral weight refused"

    @pytest.mark.parametrize("k, eta, L, M, route, bits, weight_bits, "
                             "route_bits", [
        pytest.param(0.6, 0.9, 8, 8, "all", None, [53], 53, id="disordered"),
        pytest.param(3, 0.9, 6, 6, "all", None, [53], 53, id="ordered"),
        pytest.param(0.6, 0.9, 8, 8, "hankel", None, [53], 53,
                     id="single-route"),
        # a binary64 weight underflows (ROADMAP D12); compare's binary64
        # Pfaffian disagrees past ESCALATION_DEV, and its retry factors at
        # 160 bits on the binary64 pipeline; the caller asks for 160 bits
        pytest.param(2, 1.0, 200, 16, "all", None, [53, 160], 160,
                     id="escalated-on-failure"),
        pytest.param(0.9, 1.0, 24, 16, "compare", 53, [53], 160,
                     id="escalated-on-disagreement"),
        pytest.param(0.6, 0.9, 5, 6, "all", 160, [53, 160], 160,
                     id="extended"),
    ])
    def test_route_path_builds_no_frame(self, count_calls, k, eta, L, M,
                                        route, bits, weight_bits,
                                        route_bits):
        # the binary64 weights give k and the closed-form eta report;
        # weights are built once per pipeline and no frame at any
        import rectising.spectrum as spectrum
        weights = count_calls(params, "weights_from_couplings")
        frames = count_calls(params, "elliptic_frame")
        enriched = count_calls(spectrum, "enrich_spectrum")
        c = couplings_from_modulus(k, eta, L, M)
        if route == "compare":
            res = compared(c, bits)
            o = res.outcomes["pfaffian"]
        else:
            res = assemble_logZ(c, route, prec=bits)
            o = res.outcomes["hankel"]
        assert o.status == "ok" and o.precision_bits == route_bits
        assert [args[1].bits for args in weights] == weight_bits
        assert res.pipeline.prec.bits == weight_bits[-1]
        assert frames == [] and enriched == []
        assert abs(4 * res.eta_im_over_Kprime - eta) < 1e-13
        ref, _ = block_transfer_logZ(c, Precision(256))
        assert abs(o.logZ - ref) < 1e-14 * abs(ref)

    def test_critical_route_path_builds_no_frame(self, count_calls):
        frames = count_calls(params, "elliptic_frame")
        res = assemble_logZ(Couplings(CRITICAL_K, CRITICAL_K, 4, 6), "all")
        assert res.outcomes["spin"].status == "ok"
        o = res.outcomes["hankel"]
        assert o.status == "ok" and o.precision_bits == 53
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
        assert abs(hk - blk) < 1e-30 * abs(blk)

    @pytest.mark.parametrize("bits", [53, 160])
    def test_routes_never_compute_the_table_angles(self, count_calls, bits):
        # omega = am 2u and the torus point u belong to the spectrum table
        import rectising.spectrum as spectrum
        am_calls = count_calls(EllipticKernel, "am")
        locate_calls = count_calls(spectrum, "_locate_u")
        for c in (couplings_from_modulus(0.6, 0.9, 5, 6),
                  couplings_from_modulus(3, 0.9, 6, 6)):
            res = compared(c, Precision(bits))
            assert all(res.outcomes[n].status == "ok"
                       for n in ("block", "hankel", "pfaffian"))
        assert len(am_calls) == 0
        assert len(locate_calls) == 0

    @pytest.mark.parametrize("route", [block_transfer_logZ, hankel_logZ,
                                       pfaffian_logZ])
    def test_route_refuses_a_contradicting_pipeline(self, route):
        # a pipeline above the precision asked for (only the Pfaffian
        # takes one below it)
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        p = Precision(160)
        pipe = SystemPipeline(c, p)
        with pytest.raises(DomainError, match="another system"):
            route(couplings_from_modulus(0.6, 0.9, 7, 6), None, pipe)
        with pytest.raises(DomainError, match="160 bits, not at 53"):
            route(c, FLOAT64, pipe)
        lz, _ = route(c, p, pipe)
        assert route(c, pipeline=pipe)[0] == lz

    @pytest.mark.parametrize("route", [block_transfer_logZ, hankel_logZ])
    def test_route_refuses_a_pipeline_below_its_precision(self, route):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        with pytest.raises(DomainError, match="53 bits, not at 160"):
            route(c, Precision(160), SystemPipeline(c))

    @pytest.mark.parametrize("k, eta, L, M", [
        (0.6, 0.9, 5, 6), (6, 1.0, 12, 24), (0.6, 0.8, 48, 12)])
    def test_pfaffian_factors_above_its_pipeline(self, count_calls, k, eta,
                                                 L, M):
        # the binary64 measure, converted exactly, through 160-bit
        # skew-Toeplitz entries and Parlett-Reid: Pf = det H on that measure
        import rectising.partition as partition
        c = couplings_from_modulus(k, eta, L, M)
        pipe = SystemPipeline(c)
        hankel, _ = hankel_logZ(c, FLOAT64, pipe)
        factors = count_calls(partition, "pfaffian")
        lz, _ = pfaffian_logZ(c, Precision(160), pipe)
        assert [args[1].bits for args in factors] == [160]
        assert type(pipe.checked()[2][0].lam) is float
        assert abs(lz - hankel) < 1e-14 * abs(hankel)

    def test_block_from_shared_eigensystem_equals_standalone(self):
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        p = Precision(160)
        res = assemble_logZ(c, "all", prec=p)
        alone, _ = block_transfer_logZ(c, p)
        assert res.outcomes["block"].logZ == float(alone)

    def test_extended_route_steps_make_no_mpmath_call(self, monkeypatch):
        # at 160 bits the route steps after the eigensystem run on decimal:
        # inside the LU, the Pfaffian, RKPW, the spectral measure and the
        # Toeplitz assembly no function of the mpmath context is called
        import rectising.partition as partition
        p = Precision(160)
        steps = ("logdet_scaled", "pfaffian", "rkpw", "_spectral_measure",
                 "skew_toeplitz_from_spectrum")
        depth, entered, inside = [0], set(), []

        def step(name, orig):
            def wrapped(*args, **kwargs):
                entered.add(name)
                depth[0] += 1
                try:
                    return orig(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapped

        def counted(name, orig):
            def wrapped(*args, **kwargs):
                if depth[0]:
                    inside.append(name)
                return orig(*args, **kwargs)
            return wrapped

        for name in steps:
            monkeypatch.setattr(partition, name,
                                step(name, getattr(partition, name)))
        for name in ("fdot", "fsum", "fprod", "exp", "log", "ln", "sqrt",
                     "power", "fabs", "isfinite", "re", "im", "convert"):
            monkeypatch.setattr(p.ctx, name,
                                counted(name, getattr(p.ctx, name)))
        decimal.getcontext().clear_flags()
        res = compared(couplings_from_modulus(6, 1.0, 12, 24), p)
        assert all(res.outcomes[n].status == "ok"
                   and res.outcomes[n].precision_bits == 160
                   for n in ("block", "hankel", "pfaffian"))
        assert entered == set(steps)
        assert inside == []
        # the decimal work ran in contexts of its own
        assert not any(decimal.getcontext().flags.values())

    def test_failed_route_records_its_precision(self, monkeypatch):
        import rectising.partition as partition
        from rectising.errors import PoleError

        def broken(*args):
            raise PoleError("pole")

        monkeypatch.setattr(partition, "hankel_logZ", broken)
        res = compared(couplings_from_modulus(0.6, 0.9, 5, 6), Precision(160))
        assert res.outcomes["hankel"].status == "failed"
        assert res.outcomes["hankel"].precision_bits == 160
        assert res.outcomes["pfaffian"].status == "ok"
        assert res.pipeline_seconds > 0

    def test_non_finite_matrix_fails_the_route(self, monkeypatch):
        import rectising.partition as partition
        build = partition.chi_poly_derivatives

        def poisoned(roots):
            out = build(roots)
            # a NaN of the route scalar: float, or Decimal at 160 bits
            out[0] = out[0] * type(out[0])("nan")
            return out

        monkeypatch.setattr(partition, "chi_poly_derivatives", poisoned)
        for bits in (53, 160):
            res = assemble_logZ(couplings_from_modulus(0.6, 0.9, 5, 6), "all",
                                Precision(bits))
            assert res.outcomes["hankel"].status == "failed"
            assert "non-finite" in res.outcomes["hankel"].reason
            assert res.outcomes["block"].status == "ok"

    @pytest.mark.parametrize("turn", [-1])
    def test_weight_off_the_positive_axis_fails_the_route(self, monkeypatch,
                                                         turn):
        import rectising.partition as partition
        build = partition.chi_poly_derivatives

        def turned(roots):
            out = build(roots)
            out[-1] = out[-1] / turn
            return out

        monkeypatch.setattr(partition, "chi_poly_derivatives", turned)
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        for bits in (53, 160):
            with pytest.raises(PhaseLeakError, match="not positive"):
                hankel_logZ(c, Precision(bits))


class TestRouteGates:
    """Every quantity a route takes the log of must be positive: Z itself
    (the dispatcher's gate on a finite log Z), a Pfaffian, and |det| of
    block's half-power matrix."""

    @pytest.mark.parametrize("log_z", [
        float("-inf"), float("inf"), float("nan"), mpmath.mpf("-inf")],
        ids=["zero", "inf", "nan", "mpf-zero"])
    def test_non_finite_log_z_fails_the_route(self, monkeypatch, log_z):
        import rectising.partition as partition
        raised = []

        class Recorded(NonFiniteError):
            def __init__(self, *args):
                super().__init__(*args)
                raised.append(self)

        monkeypatch.setattr(partition, "NonFiniteError", Recorded)
        monkeypatch.setattr(partition, "hankel_logZ",
                            lambda c, prec, pipe: (log_z, {}))
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        o = assemble_logZ(c, "hankel").outcomes["hankel"]
        # non-finite in binary64 and at 160 bits: one gate at each rung
        assert o.status == "failed" and "not finite" in o.reason
        assert o.precision_bits == 160
        assert len(raised) == 2

    def test_non_finite_log_z_fires_the_retry(self, monkeypatch):
        import rectising.partition as partition
        route = partition.hankel_logZ

        def zero_in_binary64(c, prec, pipe):
            lz, diag = route(c, prec, pipe)
            return (float("-inf") if prec.is_float else lz), diag

        monkeypatch.setattr(partition, "hankel_logZ", zero_in_binary64)
        res = compared(couplings_from_modulus(0.6, 0.9, 5, 6))
        assert res.outcomes["hankel"].status == "ok"
        # the Pfaffian runs on the 160-bit pipeline of the retry
        for name in ("block", "hankel", "pfaffian"):
            assert res.outcomes[name].precision_bits == 160
        assert res.max_pairwise_dev < 1e-9

    @pytest.mark.parametrize("sign", [-1, 0])
    def test_pfaffian_not_positive_fails_the_route(self, monkeypatch, sign):
        import rectising.partition as partition
        kernel = partition.pfaffian

        def signed(rows, prec):
            _sign, log_abs = kernel(rows, prec)
            return sign, log_abs if sign else -math.inf

        monkeypatch.setattr(partition, "pfaffian", signed)
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        with pytest.raises(PhaseLeakError, match=f"sign {sign}"):
            pfaffian_logZ(c)
        assert assemble_logZ(c, "pfaffian").outcomes["pfaffian"].status \
            == "failed"

    def test_block_reads_the_modulus_of_its_determinant(self, monkeypatch):
        # det Z^2 is the square of the half-power determinant, so its sign
        # is free; a singular one fails the route
        import rectising.partition as partition
        kernel = partition.logdet_scaled
        c = couplings_from_modulus(0.6, 0.9, 5, 6)
        want, _ = block_transfer_logZ(c)

        def negated(rows, prec):
            sign, log_abs, loss = kernel(rows, prec)
            return -sign, log_abs, loss

        monkeypatch.setattr(partition, "logdet_scaled", negated)
        assert block_transfer_logZ(c)[0] == want
        monkeypatch.setattr(partition, "logdet_scaled",
                            lambda rows, prec: (0, -math.inf, math.inf))
        with pytest.raises(PhaseLeakError, match="singular"):
            block_transfer_logZ(c)


class TestSwapOutcome:
    """``swap``, the log Z of the swapped system, as one more outcome."""

    @pytest.mark.parametrize("L, M, ref", [
        # both extents within spin's cap (block would meet odd M on 6 x 5)
        (5, 6, "spin"),
        # spin would run along the 4 spins of either orientation
        (4, 14, "block"),
        # spin would repeat itself, and block meets odd M on 14 x 1
        (1, 14, "brute")])
    def test_reference_route(self, L, M, ref):
        res = assemble_logZ(Couplings(0.4, 0.3, L, M))
        logZ = res.logZ
        fan_out(res, ("swap",))
        o = res.outcomes["swap"]
        assert (o.status, o.diagnostics["reference_route"]) == ("ok", ref)
        assert o.precision_bits == 53
        assert abs(o.logZ - logZ) < 1e-13 * abs(logZ)
        assert res.logZ == logZ         # never the reported value

    def test_skipped_when_no_reference_runs(self):
        # 14 x 5 is over spin's cap, at odd M and past brute's 24 spins
        res = assemble_logZ(Couplings(0.4, 0.3, 5, 14))
        fan_out(res, ("swap",))
        assert res.outcomes["swap"].status == "skipped"
        assert "reference_route" not in res.outcomes["swap"].diagnostics

    def test_a_swap_deviation_never_climbs(self, monkeypatch, count_calls):
        # the swapped system's block off by 1e-6, ten times ESCALATION_DEV:
        # a call with a structured route would climb to 160 bits here
        import rectising.partition as partition
        import rectising.spectrum as spectrum
        route = partition.block_transfer_logZ

        def off_when_swapped(c, prec, pipe):
            lz, diag = route(c, prec, pipe)
            return (lz * (1 + 1e-6) if (c.L, c.M) == (14, 4) else lz), diag
        monkeypatch.setattr(partition, "block_transfer_logZ",
                            off_when_swapped)
        c = Couplings(0.4, 0.3, 4, 14)
        res = assemble_logZ(c)
        pipe = res.pipeline
        built = count_calls(spectrum, "SystemPipeline")
        fan_out(res, ("swap",))
        assert res.max_pairwise_dev > ESCALATION_DEV
        assert res.pipeline is pipe and pipe.prec == FLOAT64
        # the swapped system's own binary64 pipeline, and no other
        assert [args[:2] for args in built] == [(swap_system(c), FLOAT64)]
        assert {o.precision_bits for o in res.outcomes.values()} == {53}


class TestEscalation:
    def test_forced_binary64_escalates_on_route_disagreement(self,
                                                             monkeypatch):
        # forcing binary64 on a system whose Pfaffian cancels past it:
        # compare's deviation trigger reruns the Pfaffian at 160 bits and
        # restores agreement
        c = couplings_from_modulus(0.9, 1.0, 24, 16)
        res = compared(c, FLOAT64)
        assert res.outcomes["pfaffian"].precision_bits >= 160
        assert res.max_pairwise_dev < 1e-12
        # route="all" has no real system that disagrees without failing
        # (ROADMAP D8 fails the joint check), so a Hankel route off by 1e-6
        # in binary64 stands in: block and Hankel rerun at 160 bits
        import rectising.partition as partition
        route = partition.hankel_logZ

        def off_in_binary64(c, prec, pipe):
            lz, diag = route(c, prec, pipe)
            return (lz * (1 + 1e-6) if prec.is_float else lz), diag

        monkeypatch.setattr(partition, "hankel_logZ", off_in_binary64)
        res = assemble_logZ(c, "all", prec=FLOAT64)
        for name in ("block", "hankel"):
            assert res.outcomes[name].precision_bits >= 160
        assert res.max_pairwise_dev < 1e-12

    def test_escalated_result_reads_the_160_bit_outcomes(self,
                                                         monkeypatch):
        # route="all" on a system whose binary64 joint check is made to
        # fail (no real system fails it since the edge quotient, D8)
        import rectising.spectrum as spectrum
        check = spectrum.check_joint

        def fail_in_binary64(bundle, pts):
            if bundle.prec.is_float:
                raise spectrum.JointDiagonalizationError("made to fail")
            check(bundle, pts)
        monkeypatch.setattr(spectrum, "check_joint", fail_in_binary64)
        c = couplings_from_modulus(6, 1.0, 12, 24)
        res = assemble_logZ(c, "all")
        ref = assemble_logZ(c, "all", prec=Precision(160))
        for name in ("block", "hankel"):
            assert res.outcomes[name].precision_bits == 160
            assert res.outcomes[name].logZ == ref.outcomes[name].logZ
        assert res.logZ == ref.logZ == res.outcomes["spin"].logZ
        assert res.max_pairwise_dev == ref.max_pairwise_dev
        assert res.pipeline.prec.bits == 160
        # compare's retry of the Pfaffian alone factors at 160 bits on the
        # binary64 pipeline, which the result keeps
        monkeypatch.setattr(spectrum, "check_joint", check)
        c = couplings_from_modulus(0.9, 1.0, 24, 16)
        res = compared(c, FLOAT64)
        ref = compared(c, Precision(160))
        assert res.outcomes["pfaffian"].precision_bits == 160
        assert res.pipeline.prec.bits == 53
        want = ref.outcomes["pfaffian"].logZ
        assert abs(res.outcomes["pfaffian"].logZ - want) < 1e-14 * abs(want)

    def test_binary64_hankel_and_block_agree(self):
        # an LU of the moment matrix loses 10 digits here in binary64; the
        # recurrence coefficients of the spectral measure lose none
        c = couplings_from_modulus(0.9, 1.0, 24, 16)
        hankel, _ = hankel_logZ(c, FLOAT64)
        block, _ = block_transfer_logZ(c, FLOAT64)
        assert abs(hankel - block) < 1e-13 * abs(block)
