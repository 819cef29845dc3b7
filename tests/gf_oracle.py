"""Generating functions built by direct counting and summation: the oracles
for ``qident.qfunctions``, ``qident.sets`` and the product sides of
``qident.identities``.

The theta sum adds the bilateral series term by term, the partition counts
run a dynamic program or a brute recursion over parts, and the Gaussian
binomial follows q-Pascal.  The ring Pochhammer product multiplies one
binomial at a time, and the ring product side is built from it with series
ring operations only.  None of them goes through the Pochhammer products,
the packed product sides or the enumerators they are compared with.
"""

from functools import lru_cache

from qident.errors import CatalogRangeError, Divergent, OutOfRange
from qident.identities import tgrid
from qident.qfunctions import Q, SignedMonomial as SM, poch_infinite
from qident.series import INF, ONE, QSeries, one, zero


@lru_cache(maxsize=1024)
def qbinom(n: int, m: int, base: int = 2, prec=INF) -> QSeries:
    """Gaussian binomial [n choose m] in the variable q^(base/2)."""
    if not 0 <= m <= n:
        raise OutOfRange(f"qbinom needs 0 <= m <= n, got ({n}, {m})")
    if m == 0 or m == n:
        return one(prec)
    # q-Pascal: [n,m] = [n-1,m-1] + Q^m [n-1,m]
    out = qbinom(n - 1, m - 1, base) + qbinom(n - 1, m, base).shift(base * m)
    return out.truncate(prec)


def theta_sum(M: int, A: int, prec) -> QSeries:
    """Bilateral theta sum: sum over all integers l of (-1)^l t^(M*l(l-1)/2 + A*l).

    Equals triple_product(M, A, prec) by the Jacobi triple product identity
    (tested, never assumed).  The summation range includes every l whose term
    exponent is below prec, with a two-term safety margin on each side.
    """
    if M <= 0:
        raise OutOfRange("modulus must be positive")
    terms = {}

    def expo(l):
        return M * l * (l - 1) // 2 + A * l

    for direction in (1, -1):
        l = 0 if direction == 1 else -1
        margin = 0
        while True:
            e = expo(l)
            if e < prec:
                margin = 0
                terms[e] = terms.get(e, 0) + (1 if l % 2 == 0 else -1)
            else:
                margin += 1
                if margin > 2 and abs(l) > (abs(A) + M) // M + 2:
                    break
            l += direction
    return QSeries(terms, prec)


@lru_cache(maxsize=1024)
def ring_poch_infinite(x, base: int, prec) -> QSeries:
    """(x; q^(base/2))_inf truncated at prec, one binomial 1 - sign*t^e at a
    time through the series ring; an exact zero once a factor is 1 - 1."""
    if base <= 0 or prec == INF or x.e < 0:
        raise Divergent("needs a positive base step, a finite order and "
                        "an argument of valuation >= 0")
    out = one(prec)
    e = x.e
    while e < prec:
        out = out * QSeries([(0, 1), (e, -x.sign)], INF)
        if out.is_zero():
            break
        e += base
    return out


def ring_product_side(side, qprec: int) -> QSeries:
    """The product side through the series ring: the weighted, shifted
    triple products added one at a time, each the ring product of its three
    Pochhammers, then multiplied by each num_inf, by the inverse of each
    den_inf and divided by each den_units polynomial, in turn."""
    tp = tgrid(qprec)
    acc = zero(tp) if side.terms else one(tp)
    M = side.modulus
    for weight, shift, A in side.terms:
        if A % M == 0:
            continue
        if not 0 < A < M:
            raise CatalogRangeError(f"theta exponent {A} outside (0, {M})")
        theta = (ring_poch_infinite(SM(1, A), M, tp)
                 * ring_poch_infinite(SM(1, M - A), M, tp)
                 * ring_poch_infinite(SM(1, M), M, tp))
        acc = acc + weight * theta.shift(shift)
    for sm, base in side.num_inf:
        acc = acc * ring_poch_infinite(sm, base, tp)
    for sm, base in side.den_inf:
        acc = acc * ring_poch_infinite(sm, base, tp).invert(tp)
    for poly in side.den_units:
        acc = acc.divide(QSeries(list(poly)), tp)
    return acc.truncate(tp)


def euler_inverse(prec) -> QSeries:
    """1 / (q; q)_inf: the partition generating function, truncated."""
    return ONE.divide(poch_infinite(Q, 2, prec), prec)


def oracle_mod_partitions(modulus: int, excluded, max_weight: int) -> QSeries:
    """Generating function of partitions avoiding the excluded residues mod
    ``modulus``; direct dynamic programming over allowed part sizes, fully
    independent of the Pochhammer machinery."""
    excl = {x % modulus for x in excluded}
    counts = [1] + [0] * max_weight
    for part in range(1, max_weight + 1):
        if part % modulus in excl:
            continue
        for w in range(part, max_weight + 1):
            counts[w] += counts[w - part]
    return QSeries({2 * w: c for w, c in enumerate(counts)},
                   2 * max_weight + 1)


def count_partitions(n: int, length: int, min_part: int, parity=None) -> int:
    """Brute count of the weakly decreasing tuples of ``length`` parts, each
    >= min_part (and of the given parity when set), that sum to n."""
    parts = [p for p in range(max(min_part, 0), n + 1)
             if parity is None or p % 2 == parity % 2]

    def count(left, length, top):   # the next part is one of parts[:top]
        if length == 0:
            return int(left == 0)
        return sum(count(left - parts[i], length - 1, i + 1)
                   for i in range(top) if parts[i] <= left)
    return count(n, length, len(parts))
