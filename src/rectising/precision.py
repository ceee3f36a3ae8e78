"""Scalar precision contexts.

Every numerical operation in the package is generic over a context that
supplies elementary functions and number constructors.  Two flavours exist:

* 53 bits: ``mpmath.fp``, backed by Python floats / complex (fast path);
* >= 100 bits: a private ``mpmath`` context at the requested precision,
  used when exponential factors in the structured determinants cancel
  beyond binary64 resolution.

Contexts are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import mpmath
from mpmath.ctx_mp import MPContext

from .errors import DomainError

#: default bits for the fast path (IEEE binary64 mantissa)
FLOAT_BITS = 53


class Precision:
    """A frozen scalar precision setting.

    ``bits`` must be 53 (binary64) or lie in [100, 4096].  The gap is
    deliberate: below ~100 bits extended arithmetic buys nothing over
    binary64 but costs two orders of magnitude in speed.
    """

    __slots__ = ("bits", "ctx", "eps")

    def __init__(self, bits: int = FLOAT_BITS):
        bits = int(bits)
        if bits != FLOAT_BITS and not (100 <= bits <= 4096):
            raise DomainError(
                f"precision_bits must be 53 or in [100, 4096], got {bits}")
        object.__setattr__(self, "bits", bits)
        if bits == FLOAT_BITS:
            ctx = mpmath.fp
        else:
            ctx = MPContext()
            ctx.prec = bits
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "eps", float(ctx.eps))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Precision is immutable")

    @property
    def is_float(self) -> bool:
        return self.bits == FLOAT_BITS

    def __repr__(self):
        return f"Precision(bits={self.bits})"

    def __eq__(self, other):
        return isinstance(other, Precision) and other.bits == self.bits

    def __hash__(self):
        return hash(("Precision", self.bits))


#: shared binary64 context
FLOAT64 = Precision(FLOAT_BITS)


def as_precision(p) -> Precision:
    """Accept a Precision, an int bit count, or None (binary64)."""
    if p is None:
        return FLOAT64
    if isinstance(p, Precision):
        return p
    return Precision(int(p))
