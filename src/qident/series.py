"""Exact truncated Laurent series over the integers.

The series variable is t = q^(1/2): an exponent e stored here means q^(e/2),
so ordinary q-powers live on even exponents and the odd exponents are reserved
for the half-power identities.  Coefficients are arbitrary-precision integers,
never floats.  A series knows its truncation order ``prec``: coefficients at
exponents >= prec are unknown and never stored.  ``prec`` may be ``INF`` for
exact (polynomial) values such as monomials and finite products.

All values are immutable; every operation returns a new series whose ``prec``
is chosen so that no reported coefficient could be altered by the unknown
(>= prec) terms of the operands.

Every series is stored in canonical form: ``coeffs`` maps int exponents below
``prec`` to nonzero ints, and ``prec`` is an int or the ``INF`` object itself
(code tests ``prec is INF``).  The public ``QSeries(coeffs, prec)`` cleans
outside input into that form: pairs with a repeated exponent add up, and
zeros and terms at or above ``prec`` drop out.  It refuses, with a
ValueError, an exponent or coefficient that is not an int and a precision
that is neither an int nor INF, as ``truncate``, ``divide`` and
``equal_up_to`` refuse such a precision and ``shift`` such a shift:
nothing is rounded.  The ring operations build results that are canonical
by construction and hand them to the private ``QSeries._of``, which trusts
them and copies nothing.

Division is long division (``divide``); every divisor in scope is a product
of binomials whose lowest coefficient is +-1, or +-2 where the two terms of
a b - aq^l factor coincide.  ``invert`` divides one.

Kronecker substitution packs a polynomial into one integer, one digit of
nbytes bytes per exponent (``kron_pack``), so that a product of
polynomials is one big-integer product.  Reading a product back is two
steps.  ``kron_digits`` turns the low digits of one or more products into
one buffer of digit words, each digit stored with a bias of half a digit so
that the word is unsigned, in the native word that holds nbytes bytes;
``read_digits`` reads spans of that buffer into coefficient dicts.
``kron_unpack`` is the two in one call, for one value read below a stop
exponent; every read-back counts its digits by ``digit_count``.  A
caller that reads only part of a product, or reads it later, keeps the
buffer, read only through this module: the sum engine's layer products
(``sumeval``).  A factor of many products is an ``Operand``, packed once
per width and grid step (``packed``); ``product_bound`` is the one width
rule.

The per-process memos of the sum engine, the product sides and the Bailey
chains are each a ``Memo``: at most ``Memo.MAX`` entries, the least recently
used dropped first, with a count of the hits and misses of its lookups that
nothing prints.  An entry is ``pack(data, series)``: the stdlib
``marshal`` bytes, at version 2, of plain data and of (prec, coefficient
dict) per series.  ``unpack`` restores ``INF``, which marshal reads back as
a new float.  Version 2 writes no back-references, whose use follows
reference counts, so a series built the same way gives the same bytes, fit
for a key.  marshal keeps a dict's insertion order, so an equal series
built in another order gives other bytes: its lookup only misses.
"""

from __future__ import annotations

import marshal
import math
import struct
import sys
from collections import OrderedDict
from functools import lru_cache

from .errors import EmptySeries, NotAUnit, PrecisionExceeded

INF = math.inf

# Kronecker-substitution multiply kicks in for operand pairs at least this
# dense; below it the plain dict convolution wins.
_PACK_MIN_OPS = 1500

# The memoryview format of each native unsigned word, by its width in bytes;
# the packed digits are little-endian, so a big-endian host has none.
_NATIVE = ({struct.calcsize(f): f for f in "BHILQ"}
           if sys.byteorder == "little" else {})

# The native word each digit width up to 8 bytes is read and written in:
# the narrowest one at least that wide.
_WORD = ({n: min(w for w in _NATIVE if w >= n) for n in range(1, 9)}
         if _NATIVE else {})


def _as_prec(p):
    if p is INF or p == INF:
        return INF
    if type(p) is not int:    # a bool is not an order either
        raise ValueError(f"a precision is an int or INF, got {p!r}")
    return p


class QSeries:
    """A truncated Laurent series with integer coefficients."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs=None, prec=INF):
        prec = _as_prec(prec)
        clean = {}
        if coeffs:
            # pair iterables accumulate duplicate exponents (dicts cannot)
            for e, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if not (isinstance(e, int) and isinstance(c, int)):
                    raise ValueError(f"a term is an int exponent and an int "
                                     f"coefficient, got {e!r}: {c!r}")
                if e >= prec:
                    continue
                s = clean.get(e, 0) + int(c)
                if s:
                    clean[int(e)] = s
                else:
                    clean.pop(e, None)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "prec", prec)

    @staticmethod
    def _of(coeffs: dict, prec) -> "QSeries":
        """The trusted constructor: ``coeffs`` and ``prec`` must already be in
        canonical form (module docstring); nothing is checked or copied."""
        s = _new(QSeries)
        _set_coeffs(s, coeffs)
        _set_prec(s, prec)
        return s

    def __setattr__(self, *_):
        raise AttributeError("QSeries is immutable")

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        """True when no known coefficient is nonzero (unknown tail may differ)."""
        return not self.coeffs

    def equal_up_to(self, other: "QSeries", p):
        """Compare coefficients below p.  Returns (True, None) or (False, e)."""
        p = _as_prec(p)
        if p > self.prec or p > other.prec:
            raise PrecisionExceeded(
                f"compare order {p} exceeds operand precision "
                f"{min(self.prec, other.prec)}")
        if self.coeffs == other.coeffs:
            return True, None
        exps = set(self.coeffs) | set(other.coeffs)
        bad = [e for e in exps
               if e < p and self.coeffs.get(e, 0) != other.coeffs.get(e, 0)]
        if bad:
            return False, min(bad)
        return True, None

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.prec == other.prec

    def __hash__(self):
        return hash((self.prec, tuple(sorted(self.coeffs.items()))))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        p = min(self.prec, other.prec)
        a, b = self.coeffs, other.coeffs
        # the finer operand's terms at or above p are unknown in the sum
        if self.prec > p:
            a = {e: c for e, c in a.items() if e < p}
        elif other.prec > p:
            b = {e: c for e, c in b.items() if e < p}
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return QSeries._of(out, p)

    def __neg__(self) -> "QSeries":
        return QSeries._of({e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, int):
            return self.__rmul__(other)
        # Result is exact below min(prec_a + val_b, prec_b + val_a): the first
        # unknown term of one operand meets the valuation of the other.
        va = min(self.coeffs) if self.coeffs else self.prec
        vb = min(other.coeffs) if other.coeffs else other.prec
        p = min(self.prec + vb, other.prec + va)
        if p == INF:            # INF + v is a new float, not INF itself
            p = INF
        return QSeries._of(_mul_any(self.coeffs, other.coeffs, p), p)

    def __rmul__(self, scalar):
        if isinstance(scalar, int):
            return QSeries._of({e: scalar * c for e, c in self.coeffs.items()}
                               if scalar else {}, self.prec)
        return NotImplemented

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("negative powers: use invert()")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def shift(self, delta: int) -> "QSeries":
        """Multiply by t^delta; a delta that is not an int is refused."""
        if not isinstance(delta, int):
            raise ValueError(f"a shift is an int, got {delta!r}")
        p = self.prec if self.prec is INF else self.prec + delta
        return QSeries._of({e + delta: c for e, c in self.coeffs.items()}, p)

    def truncate(self, prec) -> "QSeries":
        prec = _as_prec(prec)
        if prec >= self.prec:
            return self
        return QSeries._of({e: c for e, c in self.coeffs.items() if e < prec},
                           prec)

    def divide(self, d: "QSeries", prec=None) -> "QSeries":
        """self / d by long division: with m = val(d), q_i = (x_(i+m) -
        sum_(j>0) d_(m+j) q_(i-j)) / d_m, NotAUnit if d_m does not divide a
        step, EmptySeries if d is zero.  Exact below min(prec(self) - m,
        min(prec(d) - 2m, prec) + val(self)), as self times 1/d known below
        min(prec(d) - 2m, prec) would be; ``prec`` is needed if d is exact."""
        if not d.coeffs:
            raise EmptySeries("cannot divide by the zero series")
        m = min(d.coeffs)
        d0 = d.coeffs[m]
        cap = min(d.prec - 2 * m, INF if prec is None else _as_prec(prec))
        if cap == INF:
            raise ValueError("dividing by an exact series needs a prec")
        x = self.coeffs
        vx = min(x) if x else self.prec
        p = min(self.prec - m, cap + vx)
        if p == INF:            # an exact zero numerator
            p = INF
        n = p - vx + m if x else 0      # quotient terms, from t^(vx - m) on
        tail = sorted((e - m, c) for e, c in d.coeffs.items() if 0 < e - m < n)
        quo = []
        for i in range(n):
            s = x.get(vx + i, 0)
            for j, c in tail:
                if j > i:
                    break
                s -= c * quo[i - j]
            q, r = divmod(s, d0)
            if r:
                raise NotAUnit(f"lowest coefficient {d0} is not a unit over Z")
            quo.append(q)
        return QSeries._of({vx - m + i: c for i, c in enumerate(quo) if c}, p)

    def invert(self, prec=None) -> "QSeries":
        """ONE.divide(self, prec), exact below min(P - 2m, prec) for a series
        of valuation m and precision P."""
        return ONE.divide(self, prec)

    # -- rendering ------------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering 'c*q^(e/2) + ... + O(q^(prec/2))'."""
        parts = [f"{c}*q^({e}/2)" for e, c in sorted(self.coeffs.items())]
        if self.prec is not INF:
            parts.append(f"O(q^({self.prec}/2))")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        """JSON form; coefficients as decimal strings (they outgrow 64 bits)."""
        return {
            "prec": None if self.prec is INF else self.prec,
            "terms": [[e, str(c)] for e, c in sorted(self.coeffs.items())],
        }

    def __repr__(self):
        n = len(self.coeffs)
        head = ", ".join(f"{c}*t^{e}" for e, c in sorted(self.coeffs.items())[:4])
        if n > 4:
            head += ", ..."
        return f"QSeries({head or '0'}; prec={self.prec})"


# QSeries._of sets the slots through their descriptors, which is quicker
# than object.__setattr__ on this hot path
_new = object.__new__
_set_coeffs = QSeries.coeffs.__set__
_set_prec = QSeries.prec.__set__


# -- low-level dict arithmetic ----------------------------------------------

def _mul_dict(da: dict, db: dict, cap) -> dict:
    if len(da) > len(db):
        da, db = db, da
    if len(da) == 1:
        (ea, ca), = da.items()
        stop = cap - ea
        return {ea + eb: ca * cb for eb, cb in db.items() if eb < stop}
    out = {}
    items_b = list(db.items())
    for ea, ca in da.items():
        for eb, cb in items_b:
            e = ea + eb
            if e >= cap:
                continue
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def kron_pack(rows, ndigits: int, nbytes: int, step: int = 1) -> int:
    """Kronecker substitution: the polynomial f(x), the sum of
    c * x^((offset + e) / step) over the rows (offset, coeffs, limit) and
    the terms c*t^e of each coeffs dict with e < limit, at X =
    2^(8*nbytes).  Every offset + e must be a multiple of ``step``, so a
    row whose exponents lie on a lattice r + step*Z packs one digit per
    lattice point, not one per exponent.  Digit indices must be distinct
    and lie in [0, ndigits).

    Coefficients may be negative.  Each is stored with a bias of half a
    digit, and the bias pattern is subtracted at the end, so every |c| must
    be below 2^(8*nbytes - 1).  For products of packed integers the same
    must hold for every digit of the result that is read:
    ``digit_bytes(bound)`` bytes are enough when ``bound`` bounds every
    such |digit|.

    Digits of up to 8 bytes are written as native unsigned machine words
    (1, 2, 4 or 8 bytes on a little-endian host) through a ``memoryview``
    cast, one item per digit; a 3-, 5-, 6- or 7-byte digit is written into
    the next wider word, and the buffer narrowed by strided byte copies
    (``_narrow``).  Wider digits write each digit's bytes.
    """
    lift = 1 << (8 * nbytes - 1)
    w = _WORD.get(nbytes)
    if w is not None:
        buf = bytearray(lift.to_bytes(w, "little") * ndigits)
        words = memoryview(buf).cast(_NATIVE[w])
        for offset, coeffs, limit in rows:
            for e, c in coeffs.items():
                if e < limit:
                    words[(offset + e) // step] = c + lift
        buf = _narrow(buf, w, nbytes, ndigits)
    else:
        buf = bytearray(lift.to_bytes(nbytes, "little") * ndigits)
        for offset, coeffs, limit in rows:
            for e, c in coeffs.items():
                if e < limit:
                    k = (offset + e) // step * nbytes
                    buf[k:k + nbytes] = (c + lift).to_bytes(nbytes, "little")
    return (int.from_bytes(buf, "little")
            - int.from_bytes(lift.to_bytes(nbytes, "little") * ndigits,
                             "little"))


def digit_bytes(bound: int, nbytes: int = 1) -> int:
    """The digit width, in bytes, that holds every signed digit of absolute
    value at most ``bound`` (kron_pack), and at least word_bytes(nbytes)."""
    return max(bound.bit_length() // 8 + 1, word_bytes(nbytes))


def digit_count(base: int, stop, step: int = 1, n=INF) -> int:
    """How many of the exponents base + step*i, i >= 0, lie below the int
    stop, at most n: the one digit count of the codec."""
    k = (stop - base - 1) // step + 1
    return n if k > n else k if k > 0 else 0


def kron_pack_one(coeffs: dict, low: int, stop, nbytes: int,
                  step: int = 1) -> int:
    """The terms c*t^e of coeffs with e < stop as one integer at
    X = 2^(8*nbytes), t^(low + step*j) at digit j (kron_pack of one row);
    0 when there are none.  No exponent may lie below low, and every
    e - low must be a multiple of step."""
    if not coeffs:
        return 0
    return kron_pack([(-low, coeffs, stop)],
                     digit_count(low, min(stop, max(coeffs) + 1), step),
                     nbytes, step)


def word_bytes(nbytes: int) -> int:
    """The width, in bytes, of the word that holds one digit of nbytes in
    a buffer of ``kron_digits``: the next native word up to 8 bytes."""
    return _WORD.get(nbytes, nbytes)


class Operand:
    """A series, packed from its valuation ``low`` as ``QSeries.__mul__``
    counts it up to its precision ``stop``, and its ``norms`` (max |c|,
    sum |c|); hashed by identity, as a key of ``packed``."""

    __slots__ = ("series", "low", "stop", "norms")

    def __init__(self, s: QSeries):
        self.series, self.stop = s, s.prec
        self.low = min(s.coeffs) if s.coeffs else s.prec
        size = [abs(c) for c in s.coeffs.values()]
        self.norms = (max(size, default=0), sum(size))

    def pack(self, nbytes: int, step: int = 1) -> int:
        """The terms at X = 2^(8*nbytes), t^(low + step*j) at digit j;
        every exponent less low must be a multiple of step."""
        return kron_pack_one(self.series.coeffs, self.low, self.stop, nbytes,
                             step)


@lru_cache(maxsize=1024)
def packed(op: Operand, nbytes: int, step: int = 1) -> int:
    """``op.pack(nbytes, step)``, kept per cached operand, digit width and
    grid step."""
    return op.pack(nbytes, step)


def product_bound(a, b) -> int:
    """The bound min(max|a| * sum|b|, sum|a| * max|b|) on every coefficient
    of a product, from the norms (max |c|, sum |c|) of its two factors."""
    return min(a[0] * b[1], a[1] * b[0])


def kron_digits(runs, nbytes: int):
    """The digits 0..n-1 of each (value, n) of runs in base X =
    2^(8*nbytes), the runs joined, as one buffer of little-endian words of
    ``word_bytes(nbytes)`` bytes, each word holding its digit plus the bias
    2^(8*nbytes - 1), so every word is unsigned; ``read_digits`` reads
    spans of it.  Digits of a value at or above its n are never taken, so
    they may be arbitrary.  A 3-, 5-, 6- or 7-byte digit is widened to the
    next native word by strided byte copies (``_widen``)."""
    lifts = (1 << (8 * nbytes - 1)).to_bytes(nbytes, "little")
    parts, total, masks = [], 0, {}
    for value, n in runs:
        # Adding the bias turns every digit below n into c + lift, which
        # lies in [0, 2^(8*nbytes)), so the low digits read back unsigned.
        if n not in masks:      # the runs of a layer product share their n
            masks[n] = (int.from_bytes(lifts * n, "little"),
                        (1 << 8 * nbytes * n) - 1)
        bias, mask = masks[n]
        parts.append(((value + bias) & mask).to_bytes(nbytes * n, "little"))
        total += n
    return _widen(b"".join(parts), word_bytes(nbytes), nbytes, total)


def read_digits(buf, nbytes: int, spans, step: int = 1) -> list:
    """The signed digits of a ``kron_digits`` buffer, one dict per
    (start, stop, base) of spans, mapping base + step*(i - start) to each
    nonzero digit i in [start, stop): a span read at ``step`` gives back
    exponents on the lattice base + step*Z.  Words of up to 8 bytes are
    read as native words through a ``memoryview`` cast."""
    lift = 1 << (8 * nbytes - 1)
    w = _WORD.get(nbytes)
    if w is not None:
        words = memoryview(buf).cast(_NATIVE[w])
    else:
        words = [int.from_bytes(buf[k:k + nbytes], "little")
                 for k in range(0, len(buf), nbytes)]
    return [{e: c - lift
             for e, c in zip(range(base, base + step * (stop - start), step),
                             words[start:stop])
             if c != lift}
            for start, stop, base in spans]


def kron_unpack(value: int, nbytes: int, base: int, stop,
                step: int = 1) -> dict:
    """The inverse of kron_pack, read below exponent stop: the nonzero
    signed digits 0..n-1 of value in base X = 2^(8*nbytes), digit i at
    exponent base + step*i, n = digit_count(base, stop, step).  Digits at
    or above n are never read, so they may be arbitrary."""
    n = digit_count(base, stop, step)
    return read_digits(kron_digits([(value, n)], nbytes), nbytes,
                       [(0, n, base)], step)[0]


def read_runs(buf, nbytes: int, runs, width: int = 0,
              spread: int = 1) -> list:
    """The signed digits of each (start, stop) run of a ``kron_digits``
    buffer as one integer, digit start + i times X^(spread*i), X =
    2^(8*width), width at least the buffer's word width (the default), by
    the strided copies of ``_widen`` where it or spread widens the run."""
    w = word_bytes(nbytes)
    stride = spread * (width or w)
    pad = (1 << (8 * nbytes - 1)).to_bytes(w, "little") + bytes(stride - w)
    return [int.from_bytes(buf[a * w:b * w] if stride == w else
                           _widen(buf[a * w:b * w], stride, w, b - a),
                           "little") - int.from_bytes(pad * (b - a), "little")
            for a, b in runs]


def lowest_digit(buf, nbytes: int, start: int, stop: int):
    """The index from start of the lowest nonzero digit of start..stop-1 of
    a ``kron_digits`` buffer, or None when all are zero."""
    t, = read_runs(buf, nbytes, [(start, stop)])
    if t:
        return ((t & -t).bit_length() - 1) // (8 * word_bytes(nbytes))


def _narrow(buf, w, nbytes, ndigits):
    """ndigits words of w bytes holding an nbytes digit each, as nbytes
    digits, by strided byte copies."""
    if w == nbytes:
        return buf
    out = bytearray(ndigits * nbytes)
    for i in range(nbytes):
        out[i::nbytes] = buf[i::w]
    return out


def _widen(buf, w, nbytes, ndigits):
    """The inverse of _narrow: ndigits digits of nbytes as words of w
    bytes."""
    if w == nbytes:
        return buf
    out = bytearray(ndigits * w)
    for i in range(nbytes):
        out[i::w] = buf[i::nbytes]
    return out


def _mul_packed(da: dict, db: dict, cap):
    """Kronecker-substitution product: one signed big-int multiply.

    Returns None when the exponent span is too wide or unbounded (cap is
    INF), in which case the caller falls back to the dict convolution.  The
    digit width comes from a bound on every product coefficient, so no
    coefficient size overflows.
    """
    ma = min(da)
    mb = min(db)
    width = cap - (ma + mb)
    if width <= 0 or width > 1 << 16:
        return None
    amax = max(map(abs, da.values()))
    bmax = max(map(abs, db.values()))
    nbytes = digit_bytes(amax * bmax * min(len(da), len(db)))
    h = (kron_pack_one(da, ma, ma + width, nbytes)
         * kron_pack_one(db, mb, mb + width, nbytes))
    return kron_unpack(h, nbytes, ma + mb, cap)


def _mul_any(da: dict, db: dict, cap) -> dict:
    if not da or not db:
        return {}
    if len(da) * len(db) >= _PACK_MIN_OPS:
        out = _mul_packed(da, db, cap)
        if out is not None:
            return out
    return _mul_dict(da, db, cap)


# -- the memo -----------------------------------------------------------------

def pack(data, series) -> bytes:
    """data and the series as one bytes string (module docstring)."""
    return marshal.dumps((data, [(s.prec, s.coeffs) for s in series]), 2)


def unpack(stored: bytes):
    """(data, [QSeries]) of pack's bytes, with ``INF`` restored."""
    data, series = marshal.loads(stored)
    return data, [QSeries._of(c, INF if p == INF else p) for p, c in series]


class Memo(OrderedDict):
    """A bounded LRU map, key -> pack bytes (module docstring), that counts
    the hits and misses of ``recall``; ``clear`` zeroes the counts too."""

    MAX = 1024

    def __init__(self):
        super().__init__()
        self.hits = self.misses = 0

    def clear(self):
        super().clear()
        self.hits = self.misses = 0

    def recall(self, key):
        """unpack of the entry under key, or None; a hit is now the newest."""
        stored = self.get(key)
        if stored is None:
            self.misses += 1
            return None
        self.hits += 1
        self.move_to_end(key)
        return unpack(stored)

    def store(self, key, data, series):
        self[key] = pack(data, series)
        if len(self) > self.MAX:
            self.popitem(last=False)


# -- constructors -------------------------------------------------------------

def monomial(c: int, e: int, prec=INF) -> QSeries:
    """The series c * t^e (exact by default)."""
    return QSeries({e: c}, prec)


def zero(prec=INF) -> QSeries:
    return QSeries({}, prec)


def one(prec=INF) -> QSeries:
    return QSeries({0: 1}, prec)


ONE = one()
