"""q-Pochhammer symbols and the Jacobi triple product.

Everything is exact over the integers on the t = q^(1/2) exponent grid from
:mod:`qident.series`.  Pochhammer arguments are signed monomials +-q^(e/2):
that is the only argument form any specialization in scope requires, and it
makes every divisor a product of binomials 1 -+ t^e for ``QSeries.divide``.

An infinite product, ``poch_infinite`` or the three progressions of
``triple_product``, is multiplied out on one signed big integer
(``_binomials``): the truncated product packed at X = 2^(8*nbytes), one digit
per exponent, and each binomial 1 - s*t^e applied as h - s*(h << 8*nbytes*e),
cut back below t^prec by a mask.  The cut is arithmetic modulo X^prec, so
only the digits of the result need to fit: a binomial at most doubles the
largest coefficient, so n binomials need ``digit_bytes(2**n)``, and
``kron_unpack`` reads them back.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

from .errors import DegenerateTheta, Divergent, NegativeIndex, OutOfRange
from .series import (INF, ONE, QSeries, _as_prec, digit_bytes, digit_count,
                     kron_unpack, monomial)

_MONO_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?:(?P<one>1)|q(?:\^(?:\(\s*(?P<num>-?\d+)\s*/\s*2\s*\)"
    r"|(?P<int>-?\d+)))?)\s*$")


class SignedMonomial(namedtuple("SignedMonomial", "sign e")):
    """The monomial sign * q^(e/2) with sign in {+1, -1}; e is the t-exponent."""

    __slots__ = ()

    def __new__(cls, sign: int, e: int):
        if not (isinstance(sign, int) and sign in (1, -1)
                and isinstance(e, int)):
            raise ValueError("a sign is +1 or -1 and an exponent an int, "
                             f"got {sign!r}, {e!r}")
        return tuple.__new__(cls, (sign, e))

    @classmethod
    def _make(cls, fields):     # for _replace too: namedtuple's skips __new__
        return cls(*fields)

    def __pow__(self, n: int) -> "SignedMonomial":
        return SignedMonomial(self.sign if n % 2 else 1, self.e * n)

    def inverse(self) -> "SignedMonomial":
        return SignedMonomial(self.sign, -self.e)

    def times_qpow(self, k: int) -> "SignedMonomial":
        """Multiply by q^k (k in whole q-powers, i.e. t-exponent 2k)."""
        return SignedMonomial(self.sign, self.e + 2 * k)

    def negate(self) -> "SignedMonomial":
        return SignedMonomial(-self.sign, self.e)

    def as_series(self, prec=INF) -> QSeries:
        return monomial(self.sign, self.e, prec)

    def text(self) -> str:
        s = "-" if self.sign < 0 else ""
        if self.e == 0:
            return s + "1"
        if self.e == 2:
            return s + "q"
        if self.e % 2 == 0:
            return f"{s}q^{self.e // 2}"
        return f"{s}q^({self.e}/2)"

    @staticmethod
    def parse(text: str) -> "SignedMonomial":
        m = _MONO_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse monomial {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("one"):
            return SignedMonomial(sign, 0)
        if m.group("num") is not None:
            return SignedMonomial(sign, int(m.group("num")))
        if m.group("int") is not None:
            return SignedMonomial(sign, 2 * int(m.group("int")))
        return SignedMonomial(sign, 2)  # bare q


SM = SignedMonomial
Q = SM(1, 2)
ONE_M = SM(1, 0)
NEG_ONE = SM(-1, 0)


def _check(x, *ints):
    """Refuse x if not a SignedMonomial, a base or count if not an int."""
    if type(x) is not SignedMonomial:
        raise ValueError(f"a Pochhammer argument is a SignedMonomial, got {x!r}")
    if not {int}.issuperset(map(type, ints)):
        raise ValueError(f"a base and a count are ints, got {ints}")


# The caches below are bounded: most are keyed on prec, and a long session
# that sweeps many orders would otherwise keep every product it ever built.
# They are typed, so 9.0 never finds the entry of 9, nor the tuple (1, 2)
# that of SM(1, 2): an argument of another type always reaches the checks.
@lru_cache(maxsize=1024, typed=True)
def poch_finite(x: SM, base: int, n: int) -> QSeries:
    """(x; q^(base/2))_n = prod_{i<n} (1 - sign * t^(e + i*base)), exact."""
    _check(x, base, n)
    if n < 0:
        raise NegativeIndex("negative Pochhammer index is out of scope")
    out = ONE
    for i in range(n):
        out = out * QSeries([(0, 1), (x.e + i * base, -x.sign)], INF)
    return out


def _binomials(progressions, prec) -> QSeries:
    """The product of 1 - s*t^e over e = e0, e0 + step, ... for each
    (s, e0, step) of progressions, e0 >= 0 and step > 0, truncated at prec:
    one signed big integer (module docstring), the exact zero when a factor
    is 1 - 1."""
    if prec == INF:
        raise Divergent("infinite product needs a finite truncation order")
    prec = _as_prec(prec)
    factors = [(s, e) for s, e0, step in progressions
               for e in range(e0, prec, step)]
    nbytes = digit_bytes(2 ** len(factors))
    width = 8 * nbytes
    mask = (1 << width * digit_count(0, prec)) - 1
    h = 1
    for s, e in factors:
        h = (h - s * (h << width * e)) & mask
    if not h:
        return QSeries._of({}, INF)
    return QSeries._of(kron_unpack(h, nbytes, 0, prec), prec)


@lru_cache(maxsize=1024, typed=True)
def poch_infinite(x: SM, base: int, prec) -> QSeries:
    """(x; q^(base/2))_inf truncated at prec; factors beyond prec are 1."""
    _check(x, base)
    if base <= 0:
        raise Divergent("infinite product needs a positive base step")
    if x.e < 0:
        raise Divergent("argument valuation must be non-negative")
    return _binomials(((x.sign, x.e, base),), prec)


@lru_cache(maxsize=1024, typed=True)
def inv_poch_infinite(x: SM, base: int, prec) -> QSeries:
    """1 / (x; q^(base/2))_inf truncated at prec, a unit for x of positive
    valuation: the reciprocal of the cached ``poch_infinite``, exact below
    prec.  A series s times it is exact below min(prec(s), prec + val(s)),
    as s divided by the product would be."""
    return poch_infinite(x, base, prec).invert(prec)


@lru_cache(maxsize=1024, typed=True)
def inv_poch_finite(x: SM, base: int, n: int, prec) -> QSeries:
    """1 / (x; q^(base/2))_n truncated at prec (a unit product): the cached
    n - 1 value divided by the last factor, kept at prec if that rises."""
    _check(x, base, n)
    _as_prec(prec)
    if n <= 0:
        return poch_finite(x, base, n).truncate(prec)   # 1, or NegativeIndex
    if n > 256:   # cache n - 256 first, so the recursion below stays shallow
        inv_poch_finite(x, base, n - 256, prec)
    last = QSeries([(0, 1), (x.e + (n - 1) * base, -x.sign)], INF)
    return inv_poch_finite(x, base, n - 1, prec).divide(last, prec).truncate(
        prec)


def triple_product(M: int, A: int, prec) -> QSeries:
    """(q^(A/2), q^((M-A)/2), q^(M/2); q^(M/2))_inf, truncated at prec;
    its caller caches it as an operand (``identities._triple``).

    Requires 0 < A < M on the t-grid.  A = 0 (mod M) makes a (1; .)_inf factor
    vanish; that case is flagged rather than silently returned.
    """
    if M <= 0:
        raise OutOfRange("modulus must be positive")
    if A % M == 0:
        raise DegenerateTheta(f"A = {A} vanishes mod M = {M}")
    if not 0 < A < M:
        raise OutOfRange(f"need 0 < A < M, got A={A}, M={M}")
    return _binomials(((1, A, M), (1, M - A, M), (1, M, M)), prec)
