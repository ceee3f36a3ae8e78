"""Precision settings, the decimal converters, and the runtime imports."""

import decimal
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.libmp import from_rational, round_nearest, to_rational

import rectising
from rectising.errors import DomainError
from rectising.precision import FLOAT64, Precision, as_precision

BITS = (100, 160, 256, 1024)


def _random_mpf(p, rng):
    """A random mpf with a full ``p.bits`` mantissa and an exponent from
    tiny to huge."""
    man = rng.getrandbits(p.bits) | (1 << (p.bits - 1))
    exp = rng.choice((rng.randint(-40, 40), rng.randint(-6000, 6000)))
    return p.ctx.ldexp(p.ctx.mpf(man if rng.random() < 0.5 else -man),
                       exp - p.bits)


def _exact(x):
    return Fraction(*to_rational(x._mpf_))


class TestInstances:
    @pytest.mark.parametrize("bits", [53, 100, 160, 4096])
    def test_one_shared_immutable_instance_per_bit_count(self, bits):
        p = Precision(bits)
        assert Precision(bits) is p
        assert as_precision(bits) is p
        with pytest.raises(AttributeError, match="immutable"):
            p.bits = 256
        with pytest.raises(AttributeError, match="immutable"):
            p.decimal = None
        assert p.bits == bits and p.ctx.prec == bits

    def test_binary64_is_the_shared_float_context(self):
        assert Precision(53) is FLOAT64 is as_precision(None)
        assert FLOAT64.decimal is None

    @pytest.mark.parametrize("bits", [52, 54, 99, 4097])
    def test_gap_and_range_refused(self, bits):
        with pytest.raises(DomainError, match="precision_bits"):
            Precision(bits)

    @pytest.mark.parametrize("bits", [100, 101, 160, 256, 1024, 4096])
    def test_decimal_unit_roundoff_below_binary(self, bits):
        # 10^(1 - digits) / 2 < 2^-bits, with three digits to spare
        dec = Precision(bits).decimal
        assert 5 * 2 ** bits < 10 ** dec.prec
        assert 10 ** (dec.prec - 4) < 2 ** bits
        assert (dec.Emax, dec.Emin) == (decimal.MAX_EMAX, decimal.MIN_EMIN)


class TestConverters:
    @pytest.mark.parametrize("bits", BITS)
    def test_round_trip_is_bit_identical(self, bits):
        p = Precision(bits)
        rng = random.Random(bits)
        for _ in range(300):
            x = _random_mpf(p, rng)
            assert p.from_decimal(p.to_decimal(x)) == x
        for x in (p.ctx.mpf(0), p.ctx.mpf(1), -p.ctx.eps, p.ctx.pi):
            assert p.from_decimal(p.to_decimal(x)) == x

    @pytest.mark.parametrize("bits", BITS)
    def test_to_decimal_rounds_once(self, bits):
        p = Precision(bits)
        rng = random.Random(bits + 1)
        for _ in range(200):
            x = _random_mpf(p, rng)
            d = p.to_decimal(x)
            assert len(d.as_tuple().digits) <= p.decimal.prec
            ulp = Fraction(10) ** (d.adjusted() + 1 - p.decimal.prec)
            assert abs(Fraction(d) - _exact(x)) <= ulp / 2

    @pytest.mark.parametrize("bits", BITS)
    def test_from_decimal_rounds_correctly(self, bits):
        # the reference divides the exact fraction with mpmath's own
        # correctly rounded division
        p = Precision(bits)
        rng = random.Random(bits + 2)
        for _ in range(300):
            digits = rng.randint(1, p.decimal.prec + 5)
            d = decimal.Decimal(rng.randrange(-10 ** digits, 10 ** digits)
                                ).scaleb(rng.randint(-2000, 2000))
            want = p.ctx.make_mpf(from_rational(
                *d.as_integer_ratio(), bits, round_nearest))
            assert p.from_decimal(d) == want, d

    def test_process_decimal_context_untouched(self):
        before = decimal.getcontext().copy()
        p = Precision(160)
        p.to_decimal(p.ctx.mpf(1) / 3)
        now = decimal.getcontext()
        assert (now.prec, now.Emax, now.flags) == (before.prec, before.Emax,
                                                   before.flags)
        assert not any(p.decimal.flags.values())


def test_import_loads_only_numpy_mpmath_and_stdlib():
    # the package may not grow a runtime dependency beyond numpy and mpmath
    src = str(Path(rectising.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys; before = set(sys.modules); import rectising; "
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules}"
            " - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "rectising" in loaded
    extra = loaded - {"rectising", "numpy", "mpmath"} \
        - set(sys.stdlib_module_names)
    assert not extra, sorted(extra)
