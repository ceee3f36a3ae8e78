"""Scalar precision contexts.

Every numerical operation in the package is generic over a context that
supplies elementary functions and number constructors.  Two flavours exist:

* 53 bits: ``mpmath.fp`` on Python floats / complex, whose dispatch the
  elliptic kernel and companion skip for `math` and `cmath` (`_scalar_fns`);
* >= 100 bits, where exponential factors in the structured determinants
  cancel beyond binary64: a private ``mpmath`` context for the weights,
  the elliptic companion and the routes' results, and a ``decimal``
  context (C libmpdec, unit roundoff below 2^-bits) on which every route
  step runs, with converters between the two.

There is one immutable instance per bit count, safe to share across
threads; decimal arithmetic runs in a `decimal.localcontext` copy, which
at 53 bits, where ``decimal`` is None, binary64 code does not read.
"""

from __future__ import annotations

import decimal
import math

import mpmath
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp, round_nearest, to_float

from .errors import DomainError

#: default bits for the fast path (IEEE binary64 mantissa)
FLOAT_BITS = 53

_INSTANCES: dict[int, "Precision"] = {}


class Precision:
    """A frozen scalar precision setting, shared per bit count.

    ``bits`` must be 53 (binary64) or lie in [100, 4096].  The gap is
    deliberate: below ~100 bits extended arithmetic buys nothing over
    binary64 but costs two orders of magnitude in speed.  Extended
    precision also carries ``decimal``, a context of ceil(bits log10 2) + 3
    digits with the widest exponent range, and ``wide``, with twice the
    digits, where a product of two ``decimal`` numbers is exact.
    """

    __slots__ = ("bits", "ctx", "eps", "decimal", "wide")

    def __new__(cls, bits: int = FLOAT_BITS):
        bits = int(bits)
        if bits in _INSTANCES:
            return _INSTANCES[bits]
        if bits != FLOAT_BITS and not (100 <= bits <= 4096):
            raise DomainError(
                f"precision_bits must be 53 or in [100, 4096], got {bits}")
        self = object.__new__(cls)
        if bits == FLOAT_BITS:
            ctx, dec, wide = mpmath.fp, None, None
        else:
            ctx = MPContext()
            ctx.prec = bits
            digits = math.ceil(bits * math.log10(2)) + 3
            dec, wide = (decimal.Context(prec=n, Emax=decimal.MAX_EMAX,
                                         Emin=decimal.MIN_EMIN)
                         for n in (digits, 2 * digits))
        for name, value in (("bits", bits), ("ctx", ctx),
                            ("eps", float(ctx.eps)), ("decimal", dec),
                            ("wide", wide)):
            object.__setattr__(self, name, value)
        return _INSTANCES.setdefault(bits, self)

    def __setattr__(self, *a):
        raise AttributeError("Precision is immutable")

    @property
    def is_float(self) -> bool:
        return self.bits == FLOAT_BITS

    def __repr__(self):
        return f"Precision(bits={self.bits})"

    def to_decimal(self, x) -> decimal.Decimal:
        """A real scalar as a Decimal: an mpf, or any real number mpmath
        converts, rounded once in ``decimal``, a Decimal as it is; anything
        else (a complex) raises `DomainError`."""
        if isinstance(x, decimal.Decimal):
            return x
        value = (getattr(x, "_mpf_", None)
                 or getattr(self.ctx.convert(x), "_mpf_", None))
        if value is None:
            raise DomainError(f"extended precision runs on real scalars, "
                              f"not {x!r}")
        sign, man, exp, _bc = value
        if not man:                       # zero, inf or nan
            return decimal.Decimal(to_float(value))
        if exp < 0:                       # man 2^exp = man 5^-exp 10^exp
            man *= 5 ** -exp
        else:
            man, exp = man << exp, 0
        with decimal.localcontext(self.decimal) as dc:
            return dc.create_decimal(-man if sign else man).scaleb(exp)

    def from_decimal(self, d: decimal.Decimal):
        """A finite Decimal as an mpf of the context, correctly rounded at
        ``bits``."""
        n, q = d.as_integer_ratio()
        # n 2^s / q = a + r / q with a of bits + 3 bits at least, so the
        # sticky bit (r > 0) below a rounds as the exact quotient does
        s = max(0, self.bits + 3 - n.bit_length() + q.bit_length())
        a, r = divmod(n << s, q)
        return self.ctx.make_mpf(
            from_man_exp(2 * a + (r > 0), -s - 1, self.bits, round_nearest))


#: shared binary64 context
FLOAT64 = Precision(FLOAT_BITS)


def as_precision(p) -> Precision:
    """Accept a Precision, an int bit count, or None (binary64)."""
    return p if isinstance(p, Precision) else Precision(
        FLOAT_BITS if p is None else p)
