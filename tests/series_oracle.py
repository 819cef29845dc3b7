"""Series helpers that only tests use, and the Newton-iteration inverse:
the oracle for ``QSeries.divide``.

The inverse is the one the series ring used before long division replaced
it.  It doubles the known order each round through the ring's multiply, so
it shares no step with the long-division recurrence it checks.
"""

from qident.errors import EmptySeries, NotAUnit, PrecisionExceeded
from qident.series import INF, QSeries, _as_prec, _mul_any


def min_exp(s: QSeries) -> int:
    """Lowest stored exponent; EmptySeries if there is none."""
    if not s.coeffs:
        raise EmptySeries("zero series has no valuation")
    return min(s.coeffs)


def coeff(s: QSeries, e: int) -> int:
    """Exact coefficient of t^e.  PrecisionExceeded at or above prec."""
    if e >= s.prec:
        raise PrecisionExceeded(f"exponent {e} >= prec {s.prec}")
    return s.coeffs.get(e, 0)


def qcoeff(s: QSeries, n: int) -> int:
    """Coefficient of q^n (= t^(2n))."""
    return coeff(s, 2 * n)


def scale_exponents(s: QSeries, k: int) -> QSeries:
    """Substitute t -> t^k (k positive); prec scales with the exponents."""
    if k <= 0:
        raise ValueError("scale factor must be positive")
    p = s.prec if s.prec is INF else s.prec * k
    return QSeries._of({e * k: c for e, c in s.coeffs.items()}, p)


def from_json(obj: dict) -> QSeries:
    """The series that ``QSeries.to_json`` wrote."""
    prec = INF if obj.get("prec") is None else obj["prec"]
    return QSeries({int(e): int(c) for e, c in obj["terms"]}, prec)


def newton_invert(self, prec=None) -> QSeries:
    """Multiplicative inverse.

    The lowest stored coefficient must be +-1 (a unit over the integers).
    For a series of valuation m and precision P the inverse is exact below
    P - 2m; pass ``prec`` to cap the target order (required when the input
    is an exact polynomial with prec = INF).
    """
    if not self.coeffs:
        raise EmptySeries("cannot invert the zero series")
    m = min(self.coeffs)
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
