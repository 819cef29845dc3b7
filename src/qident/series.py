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
"""

from __future__ import annotations

import math

from .errors import EmptySeries, NotAUnit, PrecisionExceeded

INF = math.inf

# Kronecker-substitution multiply kicks in for operand pairs at least this
# dense; below it the plain dict convolution wins.
_PACK_MIN_OPS = 1500


def _as_prec(p):
    if p is INF or p == INF:
        return INF
    return int(p)


class QSeries:
    """A truncated Laurent series with integer coefficients."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs=None, prec=INF):
        prec = _as_prec(prec)
        clean = {}
        if coeffs:
            # pair iterables accumulate duplicate exponents (dicts cannot)
            for e, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if e >= prec:
                    continue
                s = clean.get(e, 0) + int(c)
                if s:
                    clean[int(e)] = s
                else:
                    clean.pop(e, None)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *_):
        raise AttributeError("QSeries is immutable")

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        """True when no known coefficient is nonzero (unknown tail may differ)."""
        return not self.coeffs

    def min_exp(self):
        """Lowest stored exponent; EmptySeries if there is none."""
        if not self.coeffs:
            raise EmptySeries("zero series has no valuation")
        return min(self.coeffs)

    def coeff(self, e: int) -> int:
        """Exact coefficient of t^e.  PrecisionExceeded at or above prec."""
        if e >= self.prec:
            raise PrecisionExceeded(f"exponent {e} >= prec {self.prec}")
        return self.coeffs.get(e, 0)

    def qcoeff(self, n: int) -> int:
        """Coefficient of q^n (= t^(2n))."""
        return self.coeff(2 * n)

    def equal_up_to(self, other: "QSeries", p):
        """Compare coefficients below p.  Returns (True, None) or (False, e)."""
        p = _as_prec(p)
        if p > self.prec or p > other.prec:
            raise PrecisionExceeded(
                f"compare order {p} exceeds operand precision "
                f"{min(self.prec, other.prec)}")
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
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return QSeries(out, p)

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.prec)

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
        if not self.coeffs or not other.coeffs:
            return QSeries({}, p)
        cap = p  # may be INF
        if (len(self.coeffs) * len(other.coeffs) >= _PACK_MIN_OPS
                and cap is not INF):
            out = _mul_packed(self.coeffs, other.coeffs, cap)
            if out is not None:
                return QSeries(out, p)
        return QSeries(_mul_dict(self.coeffs, other.coeffs, cap), p)

    def __rmul__(self, scalar):
        if isinstance(scalar, int):
            return QSeries({e: scalar * c for e, c in self.coeffs.items()},
                           self.prec)
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
        """Multiply by t^delta."""
        p = self.prec if self.prec is INF else self.prec + delta
        return QSeries({e + delta: c for e, c in self.coeffs.items()}, p)

    def truncate(self, prec) -> "QSeries":
        prec = _as_prec(prec)
        if prec >= self.prec:
            return self
        return QSeries({e: c for e, c in self.coeffs.items() if e < prec}, prec)

    def scale_exponents(self, s: int) -> "QSeries":
        """Substitute t -> t^s (s positive); prec scales with the exponents."""
        if s <= 0:
            raise ValueError("scale factor must be positive")
        p = self.prec if self.prec is INF else self.prec * s
        return QSeries({e * s: c for e, c in self.coeffs.items()}, p)

    def invert(self, prec=None) -> "QSeries":
        """Multiplicative inverse.

        The lowest stored coefficient must be +-1 (a unit over the integers).
        For a series of valuation m and precision P the inverse is exact below
        P - 2m; pass ``prec`` to cap the target order (required when the input
        is an exact polynomial with prec = INF).
        """
        if not self.coeffs:
            raise EmptySeries("cannot invert the zero series")
        m = self.min_exp()
        lead = self.coeffs[m]
        if lead not in (1, -1):
            raise NotAUnit(f"lowest coefficient {lead} is not a unit over Z")
        target = self.prec if self.prec is INF else self.prec - 2 * m
        if prec is not None:
            target = min(target, _as_prec(prec))
        if target is INF:
            raise ValueError("invert of an exact series needs an explicit prec")
        # Work on the unit part u = lead * t^-m * self (valuation 0, lead 1),
        # then Newton-iterate.  The inverse has valuation -m, so relative
        # exponents below target + m are needed.
        u = {e - m: lead * c for e, c in self.coeffs.items()}
        cap = max(target + m, 0)
        inv = {0: 1}
        cur = 1
        while cur < cap:
            cur = min(2 * cur, cap)
            uy = _mul_any({e: c for e, c in u.items() if e < cur}, inv, cur)
            corr = {e: -c for e, c in uy.items()}
            corr[0] = corr.get(0, 0) + 2
            inv = _mul_any(inv, corr, cur)
        out = {e - m: lead * c for e, c in inv.items() if e < cap}
        return QSeries(out, target)

    def divexact_scalar(self, d: int) -> "QSeries":
        """Divide every coefficient by the integer d, which must divide exactly."""
        out = {}
        for e, c in self.coeffs.items():
            q, r = divmod(c, d)
            if r:
                raise NotAUnit(f"coefficient {c} at t^{e} not divisible by {d}")
            out[e] = q
        return QSeries(out, self.prec)

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

    @staticmethod
    def from_json(obj: dict) -> "QSeries":
        prec = INF if obj.get("prec") is None else obj["prec"]
        return QSeries({int(e): int(c) for e, c in obj["terms"]}, prec)

    def __repr__(self):
        n = len(self.coeffs)
        head = ", ".join(f"{c}*t^{e}" for e, c in sorted(self.coeffs.items())[:4])
        if n > 4:
            head += ", ..."
        return f"QSeries({head or '0'}; prec={self.prec})"


# -- low-level dict arithmetic ----------------------------------------------

def _mul_dict(da: dict, db: dict, cap) -> dict:
    if len(da) > len(db):
        da, db = db, da
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


def kron_pack(rows, ndigits: int, nbytes: int) -> int:
    """Kronecker substitution: the integer sum of c * X^(offset + e) over the
    rows (offset, coeffs, limit) and the terms c*t^e of each coeffs dict with
    e < limit, where X = 2^(8*nbytes).  Digit indices must be distinct and
    lie in [0, ndigits).

    Coefficients may be negative.  Each is stored with a bias of half a
    digit, and the bias pattern is subtracted at the end, so every |c| must
    be below 2^(8*nbytes - 1).  For products of packed integers the same
    must hold for every digit of the result: ``bound.bit_length() // 8 + 1``
    bytes are enough when ``bound`` bounds every |digit|.
    """
    lift = 1 << (8 * nbytes - 1)
    bias = lift.to_bytes(nbytes, "little") * ndigits
    buf = bytearray(bias)
    for offset, coeffs, limit in rows:
        for e, c in coeffs.items():
            if e < limit:
                k = (offset + e) * nbytes
                buf[k:k + nbytes] = (c + lift).to_bytes(nbytes, "little")
    return int.from_bytes(buf, "little") - int.from_bytes(bias, "little")


def kron_unpack(n: int, nbytes: int, spans) -> list:
    """Signed digits of n in base 2^(8*nbytes), the inverse of kron_pack.

    ``spans`` lists (start, stop, base) digit ranges; the result holds one
    dict per span mapping base + (i - start) to each nonzero digit i in
    [start, stop).  Digits at or above the largest stop are never read, so
    they may be arbitrary.
    """
    ndigits = max((stop for _, stop, _ in spans), default=0)
    lift = 1 << (8 * nbytes - 1)
    bias = int.from_bytes(lift.to_bytes(nbytes, "little") * ndigits, "little")
    nbits = 8 * nbytes * ndigits
    # Adding the bias turns every digit below ndigits into c + lift, which
    # lies in [0, 2^(8*nbytes)), so the low digits read back unsigned.
    buf = ((n + bias) & ((1 << nbits) - 1)).to_bytes(nbits // 8, "little")
    from_bytes = int.from_bytes
    out = []
    for start, stop, base in spans:
        vals = [from_bytes(buf[k:k + nbytes], "little")
                for k in range(start * nbytes, stop * nbytes, nbytes)]
        out.append({base + j: c - lift for j, c in enumerate(vals)
                    if c != lift})
    return out


def _mul_packed(da: dict, db: dict, cap):
    """Kronecker-substitution product: one signed big-int multiply.

    Returns None when the exponent span is too wide, in which case the
    caller falls back to the dict convolution.  The digit width comes from
    a bound on every product coefficient, so no coefficient size overflows.
    """
    ma = min(da)
    mb = min(db)
    width = cap - (ma + mb)
    if width <= 0 or width > 1 << 16:
        return None
    amax = max(map(abs, da.values()))
    bmax = max(map(abs, db.values()))
    nbytes = (amax * bmax * min(len(da), len(db))).bit_length() // 8 + 1
    a = kron_pack([(-ma, da, ma + width)], min(width, max(da) - ma + 1),
                  nbytes)
    b = kron_pack([(-mb, db, mb + width)], min(width, max(db) - mb + 1),
                  nbytes)
    return kron_unpack(a * b, nbytes, [(0, width, ma + mb)])[0]


def _mul_any(da: dict, db: dict, cap) -> dict:
    if not da or not db:
        return {}
    if len(da) * len(db) >= _PACK_MIN_OPS:
        out = _mul_packed(da, db, cap)
        if out is not None:
            return out
    return _mul_dict(da, db, cap)


# -- constructors -------------------------------------------------------------

def monomial(c: int, e: int, prec=INF) -> QSeries:
    """The series c * t^e (exact by default)."""
    return QSeries({e: c}, prec)


def zero(prec=INF) -> QSeries:
    return QSeries({}, prec)


def one(prec=INF) -> QSeries:
    return QSeries({0: 1}, prec)


ONE = one()


def prod(factors, prec=None) -> QSeries:
    """Product of an iterable of series, optionally truncated along the way."""
    out = ONE if prec is None else one(prec)
    for f in factors:
        out = out * (f if prec is None else f.truncate(prec))
    return out
