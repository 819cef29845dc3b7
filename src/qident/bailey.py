"""Bailey pairs and the transform engine.

A Bailey pair relative to a parameter monomial a is a pair of series
sequences (alpha_n, beta_n) tied together by

    beta_n = sum_{l=0..n} alpha_l / ((q)_{n-l} (aq)_{n+l}).

The engine carries finite prefixes of both sequences, applies the
specialized lemmas (Bailey lemma with one or both upper parameters sent to
infinity, the two key lemmas, the a -> aq lemma and its b = 0 case, and the
combined "star" step), and checks the defining relation numerically after
every move rather than trusting any closed form.  Two steps are
compositions: the lattice step a -> a/q is key lemma 1 followed by the
Bailey lemma at a/q, and STAR1 is the star step at a = 1.

Every Bailey lemma shares one beta-side sum (``_beta_sum``), which is a
bare layer product of the multisum kernel (``sumeval.layer_product``, the
convolution that ``multisum`` memoises, with no own factor): one sum of
one-slot big-int products per n, here built on every call and not stored.  ``verify`` is the oracle for those sums, so it goes through none
of that: for each n it builds sum_l alpha_l * 1/((q)_{n-l} (aq)_{n+l}) as
one signed big integer, from the alphas packed once per call
and the kernels, cached ``series.Operand``s, packed once per digit width
(``series.packed``), and reads it back once.  It shares only the Kronecker
codec (``series.kron_pack`` and ``kron_unpack``), whose own oracle is plain
int arithmetic, with a width rule of its own, and makes no ring product;
the kernels are cached 1/(aq)_M divided by the polynomial (q)_m.  Its sums
have the coefficients and precision of the ring sums of the products, term
by term.

Memoised across chains.  The star chains BL^(r+1), KEY1, BL^(k-r-j),
STAR1^j on one seed share most of their prefixes, so ``run_chain`` stores
each step it runs in a ``series.Memo`` under (the seed's ``series.pack``
bytes, the order tp, the steps so far): seeds that differ in one
coefficient share nothing.  An entry holds the log so far and the pair the
step made, so a chain reads back one entry, its longest stored prefix's,
stops there if that log ends in a failed step, and otherwise applies and
verifies only the steps past it.  The 102 star chains with k <= 4 on three
seeds at n_max 10 and t-order 101 make 519 steps of which 120 differ: 120
entries in 0.69 MB, which raise the peak RSS of that pass by about 1 MB;
kept as live pairs they raised it by 4.1 MB.

The closed-form alpha of the star chains (``closed_alpha_star_chain``), the
oracle those chains are checked against, divides alpha_n by 1 - q^(2n+1)
and alpha_{n-1} by 1 - q^(2n-1) whatever k, r and j are, so it keeps each
quotient in a ``series.Memo`` of its own, ``_QUOTIENTS``, keyed by the
packed dividend with the divisor exponent and the order tp.  Only that one
series is packed, not the seed: at n_max 10 and t-order 101 packing a
series costs about 1.6 us and a whole seed 9 to 19 us.  The factor
q^(-2rn-1) is applied after the recall, so one entry serves every r; a
shift commutes exactly with the division, precision included (a dividend
of precision P and valuation v gives a quotient of precision
min(P, tp + v), and a shift adds the same to P, v and that).  The memo is
apart from ``_CHAINS`` and reads nothing that ``run_chain`` writes, so the
oracle shares no state with the chains it checks.

The multisum consequence of the double lattice (``check_coro3``, for
a = q^(e/2), k >= 1, j >= 0 and r + j <= k, whose boundary parameters b
and c may each be finite or sent to infinity, with r >= -1 when c is
infinite and r >= 0 when it is finite) and the star-chain limit identity
are evaluated two-sidedly by one skeleton (``_two_sided``), which bounds
every multisum with ``sumeval.summation_bound``.  At j = 0 and
b = c = infinity the double-lattice consequence is the classical
single-lattice one; at b = infinity its bracket over 1 - a q^(2l) is a
polynomial, built as such, so nothing is divided by 1 - a.

Precision arguments here are t-exponent truncation orders (t = q^(1/2)),
``identities.tgrid`` of an order in q-powers.  ``_order`` caps a requested
order at the pair's, and every comparison goes through ``_agree``: below what
both series know, at most that order, returning the order it used.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Callable, Optional

from .errors import (DegenerateDivision, InsufficientDepth, NotStabilized,
                     ParameterOutOfRange, PoleAtParameter, UnsupportedBoundary)
from .qfunctions import (ONE_M, Q, SM, inv_poch_finite, poch_finite,
                         poch_infinite)
from .series import (INF, Memo, Operand, QSeries, _as_prec, digit_bytes,
                     kron_unpack, monomial, one, pack, packed, zero)
from .sumeval import layer_product, multisum, slot_series, summation_bound

# Boundary marker for check_coro3 parameters sent to infinity.
INFINITY = "infinity"


def _unit_check(s: QSeries, what: str) -> QSeries:
    lead = s.coeffs.get(min(s.coeffs)) if s.coeffs else 0
    if lead not in (1, -1):
        raise DegenerateDivision(f"{what} is not a unit (leading term {lead})")
    return s


def _one_minus(m: SM) -> QSeries:
    """1 - m as an exact series (may collapse to 0 or 2 when m = +-1)."""
    return QSeries({0: 1}) + QSeries({m.e: -m.sign})


def _a_pow(a: SM, n: int) -> QSeries:
    p = a ** n if n >= 0 else a.inverse() ** (-n)
    return p.as_series()


def _geom(m: SM, count: int) -> QSeries:
    """1 + m + ... + m^(count-1) as an exact series (0 for count = 0)."""
    out = zero(INF)
    for i in range(count):
        out = out + (m ** i).as_series()
    return out


class BaileyPair(namedtuple("BaileyPair", "a n_max alpha beta prec")):
    """Finite prefix (0..n_max) of a Bailey pair relative to ``a``.

    ``seed`` is the seed function that made the pair, so that a check can
    ask it for the same prefix to a higher order; None for a derived pair.
    It is kept beside the five fields, out of equality, hash and repr.
    """

    def __new__(cls, a, n_max, alpha, beta, prec, seed=None):
        if len(alpha) != n_max + 1 or len(beta) != n_max + 1:
            raise ValueError("alpha/beta must have length n_max + 1")
        self = super().__new__(cls, a, n_max, alpha, beta, prec)
        self._seed = seed
        return self

    @classmethod
    def _make(cls, fields):     # for _replace too: namedtuple's skips __new__
        return cls(*fields)

    _seed = None         # a pair made by _make or _replace is a derived one

    @property
    def seed(self) -> Optional[Callable]:
        return self._seed


class TransformStep(namedtuple("TransformStep", "tag rho b",
                               defaults=(None, None))):
    """One application of a named lemma; rho/b only for the parametrized ones."""

    __slots__ = ()

    def __new__(cls, tag, rho=None, b=None):
        if tag not in _TRANSFORMS:
            raise ValueError(f"unknown transform tag {tag!r}")
        for name, value, owner in (("rho", rho, "BL_RHO"), ("b", b, "LOVEJOY")):
            given = value is not None
            if given != (tag == owner):
                raise ValueError(f"{tag} takes no {name}" if given
                                 else f"{owner} needs {name}")
        return super().__new__(cls, tag, rho, b)

    @classmethod
    def _make(cls, fields):     # for _replace too: namedtuple's skips __new__
        return cls(*fields)


# ok, the first n that fails (None when all hold), and the lowest t-order
# below which an n was compared
VerifyResult = namedtuple("VerifyResult", "ok first_bad_n prec")


# -- seed pairs ---------------------------------------------------------------


def _check_parameter(a: SM):
    # (aq)_m must stay a unit for the defining relation to make sense.
    if a.sign == 1 and a.e + 2 <= 0:
        raise PoleAtParameter(f"(aq)_n vanishes for a = {a.text()}")


def unit_pair(a: SM, n_max: int, prec: int) -> BaileyPair:
    """The seed with beta_n = delta_{n,0}; alpha_0 = 1 is the a = 1 limit value."""
    _check_parameter(a)
    alpha = [one(prec)]
    for n in range(1, n_max + 1):
        # (-1)^n q^C(n,2) (1 - a q^{2n}) (aq)_{n-1} / (q)_n   [(1-a) cancelled]
        s = monomial((-1) ** n, n * (n - 1))
        s = s * QSeries([(0, 1), (a.e + 4 * n, -a.sign)])
        s = s * poch_finite(a.times_qpow(1), 2, n - 1)
        s = s * inv_poch_finite(Q, 2, n, prec)
        alpha.append(s.truncate(prec))
    beta = [one(prec)] + [zero(prec)] * n_max
    return BaileyPair(a, n_max, tuple(alpha), tuple(beta), prec, unit_pair)


def pair_dprime4(a: SM, n_max: int, prec: int) -> BaileyPair:
    """Seed with beta_n = 1/(q^2;q^2)_n and alpha on the q^2 grid."""
    _check_parameter(a)
    a2q2 = SM(1, 2 * a.e + 4)
    alpha = [one(prec)]
    for n in range(1, n_max + 1):
        s = monomial((-1) ** n, 2 * n * n)
        s = s * QSeries([(0, 1), (a.e + 4 * n, -a.sign)])  # 1 - a q^{2n}
        s = s * QSeries([(0, 1), (a.e, a.sign)])           # 1 + a
        s = s * poch_finite(a2q2, 4, n - 1)                # (a^2 q^2; q^2)_{n-1}
        s = s * inv_poch_finite(SM(1, 4), 4, n, prec)
        alpha.append(s.truncate(prec))
    beta = [inv_poch_finite(SM(1, 4), 4, n, prec) for n in range(n_max + 1)]
    return BaileyPair(a, n_max, tuple(alpha), tuple(beta), prec, pair_dprime4)


def pair_dprime1(a: SM, n_max: int, prec: int) -> BaileyPair:
    """Seed with beta_n = q^n/(q^2;q^2)_n."""
    _check_parameter(a)
    a2q2 = SM(1, 2 * a.e + 4)
    alpha = [one(prec)]
    for n in range(1, n_max + 1):
        s = monomial((-1) ** n, 2 * n * n - 2 * n)
        s = s * QSeries([(0, 1), (2 * a.e + 8 * n, -1)])   # 1 - a^2 q^{4n}
        s = s * poch_finite(a2q2, 4, n - 1)
        s = s * inv_poch_finite(SM(1, 4), 4, n, prec)
        alpha.append(s.truncate(prec))
    beta = [inv_poch_finite(SM(1, 4), 4, n, prec).shift(2 * n)
            for n in range(n_max + 1)]
    return BaileyPair(a, n_max, tuple(alpha), tuple(beta), prec, pair_dprime1)


SEEDS = {"unit": unit_pair, "dprime4": pair_dprime4, "dprime1": pair_dprime1}


# -- the defining relation ------------------------------------------------------


def _order(p: BaileyPair, prec: Optional[int]) -> int:
    """The t-order a check on p works to: prec, capped at what p knows; an
    int, so the caches and the chain memo keyed by it see no float."""
    return _as_prec(p.prec if prec is None else min(_as_prec(prec), p.prec))


def _agree(x: QSeries, y: QSeries, tp: int):
    """Compare x and y below the order both are known to, at most tp.
    Returns (equal, first_mismatch_exponent, the order compared)."""
    upto = min(x.prec, y.prec, tp)
    return (*x.equal_up_to(y, upto), upto)


@lru_cache(maxsize=1024)
def _relation_kernel(aq: SM, m: int, M: int, tp: int) -> Operand:
    """1/((q)_m (aq)_M) truncated at tp, the factor of alpha_l in the
    defining relation for beta_n (m = n - l, M = n + l): the cached
    1/(aq)_M divided by the polynomial (q)_m, so no ring product is made.
    Both are units, so it has the precision and coefficients of
    1/(q)_m * 1/(aq)_M, each truncated at tp."""
    return Operand(inv_poch_finite(aq, 2, M, tp).divide(poch_finite(Q, 2, m),
                                                        tp))


def _relation_sums(p: BaileyPair, tp: int):
    """Yield sum_l alpha_l/((q)_{n-l}(aq)_{n+l}) for n = 0..n_max, each with
    the coefficients and precision of the ring sum of the products
    alpha_l * ``_relation_kernel`` truncated at tp.

    Each sum is one signed big integer in base X = 2^(8*nbytes): the sum over
    l of A_l * K_l shifted to its exponent, with A_l packed once per call and
    K_l once per width (``series.packed``), read back once
    (``kron_unpack``).  One width serves the call: every digit of every sum,
    read or not, is at most sum_l sum |alpha_l| * max |K_l| in size, not
    the sum engine's ``series.product_bound``.  The n-th sum is known below
    p_n = min(tp, prec(alpha_l) + val(K_l), prec(K_l) + val(alpha_l)) over
    l, the precision of the ring sum, where an empty series has valuation
    equal to its precision; a term whose lowest exponent val(alpha_l) +
    val(K_l) reaches p_n adds nothing below it and is skipped."""
    aq = p.a.times_qpow(1)
    alphas = [Operand(a) for a in p.alpha]
    rows = [[_relation_kernel(aq, n - l, n + l, tp) for l in range(n + 1)]
            for n in range(p.n_max + 1)]
    nbytes = digit_bytes(max(sum(a.norms[1] * k.norms[0]
                                 for a, k in zip(alphas, row))
                             for row in rows))
    packs = [a.pack(nbytes) for a in alphas]
    digit = 8 * nbytes
    for row in rows:
        pn = tp
        for a, k in zip(alphas, row):
            pn = min(pn, a.stop + k.low, k.stop + a.low)
        terms = [(l, alphas[l].low + k.low) for l, k in enumerate(row)
                 if alphas[l].low + k.low < pn]
        base = min((e for _, e in terms), default=pn)
        h = 0
        for l, e in terms:
            h += packs[l] * packed(row[l], nbytes) << digit * (e - base)
        yield QSeries._of(kron_unpack(h, nbytes, base, pn), pn)


def verify(p: BaileyPair, prec: Optional[int] = None) -> VerifyResult:
    """Check beta_n = sum_l alpha_l/((q)_{n-l}(aq)_{n+l}) for every n <= n_max.

    This is the oracle for the beta-side sums of ``apply``, so it shares none
    of their layer product: each sum comes from ``_relation_sums``, one
    packed big integer per n, which shares only the Kronecker codec
    (``series.kron_pack`` and ``kron_unpack``, whose own oracle is plain
    int arithmetic, with ``Operand``, ``packed``, ``digit_bytes`` and the
    digit count ``digit_count``).
    The sums have the coefficients and precision of the ring sums of alpha_l
    times the cached 1/((q)_{n-l} (aq)_{n+l}).  The result carries the
    lowest order ``_agree`` used."""
    tp = _order(p, prec)
    low = tp
    for n, acc in enumerate(_relation_sums(p, tp)):
        same, _, upto = _agree(acc, p.beta[n], tp)
        low = min(low, upto)
        if not same:
            return VerifyResult(False, n, low)
    return VerifyResult(True, None, low)


# -- single transforms ----------------------------------------------------------


def _beta_sum(p: BaileyPair, lift, star: bool = False) -> list:
    """beta'_n = sum_{l<=n} lift(l) beta_l (q^n + q^-l) / (q)_{n-l} for every
    n <= n_max, the bracket only when ``star``; lift(l) is an exact series.

    This is one multisum layer product (``sumeval.layer_product``), read
    whole (``sumeval.slot_series``), with L_l = lift(l) beta_l, d = 2 and
    no own factor, at working precision p.prec: one sum of one-slot
    products per n, the bracket's second branch a shifted copy of each
    product.  The layer product packs only the terms of L_l below
    tp + b*l (b = 2 with the bracket, 0 without), so beta_l is cut at
    tp + b*l - val(lift(l)) before the lift; every beta'_n keeps the
    precision the uncut layer gives it.  An exact-zero lift stays an exact
    zero.  Every l enters the layer, zero series included: with the bracket
    a zero beta_l known only to p.prec still lowers the precision of
    beta'_n."""
    tp, b = p.prec, 2 if star else 0
    layer = {}
    for l in range(p.n_max + 1):
        x, beta = lift(l), p.beta[l]
        if x.coeffs:
            beta = beta.truncate(tp + b * l - min(x.coeffs))
        layer[l] = x * beta
    return list(slot_series(layer_product(layer, p.n_max, (2, b or None),
                                          tp)).values())


def _bl(p: BaileyPair) -> BaileyPair:
    a, tp = p.a, p.prec
    alpha = tuple((_a_pow(a, n) * p.alpha[n]).shift(2 * n * n).truncate(tp)
                  for n in range(p.n_max + 1))
    beta = _beta_sum(p, lambda l: _a_pow(a, l).shift(2 * l * l))
    return BaileyPair(a, p.n_max, alpha, tuple(beta), tp)


def _bl_rho(p: BaileyPair, rho: SM) -> BaileyPair:
    a, tp = p.a, p.prec
    w = SM(a.sign * rho.sign, a.e + 2 - rho.e)  # aq/rho

    def lift(n):        # (-1)^n q^C(n,2) (rho)_n (aq/rho)^n
        return (monomial((-1) ** n, n * (n - 1))
                * poch_finite(rho, 2, n) * (w ** n).as_series())

    alpha, beta = [], []
    for n, acc in enumerate(_beta_sum(p, lift)):
        wn = _unit_check(poch_finite(w, 2, n), "(aq/rho)_n")
        alpha.append((lift(n).divide(wn, tp) * p.alpha[n]).truncate(tp))
        beta.append(acc.divide(wn, tp).truncate(tp))
    return BaileyPair(a, p.n_max, tuple(alpha), tuple(beta), tp)


def _key_shared(p: BaileyPair, key2: bool) -> BaileyPair:
    """Key lemmas 1 and 2: new pair relative a/q, beta (almost) unchanged."""
    a, tp = p.a, p.prec
    if a == ONE_M:
        raise DegenerateDivision("key lemmas need a != 1 (1 - a vanishes)")
    one_minus_a = _one_minus(a)
    alpha = [p.alpha[0]]
    for n in range(1, p.n_max + 1):
        d1 = _unit_check(_one_minus(a.times_qpow(2 * n)), "1-aq^2n")
        d2 = _unit_check(_one_minus(a.times_qpow(2 * n - 2)), "1-aq^(2n-2)")
        cur, prev = p.alpha[n], p.alpha[n - 1]
        if key2:
            cur, prev = cur.shift(2 * n), prev.shift(2 * n - 2)
        else:
            prev = prev * a.as_series().shift(4 * n - 4)
        t = cur.divide(d1, tp) - prev.divide(d2, tp)
        alpha.append((one_minus_a * t).truncate(tp))
    if key2:
        beta = tuple(p.beta[n].shift(2 * n).truncate(tp)
                     for n in range(p.n_max + 1))
    else:
        beta = p.beta
    return BaileyPair(SM(a.sign, a.e - 2), p.n_max, tuple(alpha), beta, tp)


def _lovejoy_b0(p: BaileyPair) -> BaileyPair:
    """Lovejoy's lemma with b = 0: a -> aq, beta unchanged."""
    a, tp = p.a, p.prec
    one_minus_aq = _unit_check(_one_minus(a.times_qpow(1)), "1-aq")
    ainv = a.inverse()
    alpha = []
    partial = zero(INF)  # sum_{l<=n} a^-l q^-l^2 alpha_l
    for n in range(p.n_max + 1):
        partial = partial + (_a_pow(ainv, n) * p.alpha[n]).shift(-2 * n * n)
        s = _one_minus(a.times_qpow(2 * n + 1)) * _a_pow(a, n).shift(2 * n * n)
        alpha.append((s.divide(one_minus_aq, tp) * partial).truncate(tp))
    return BaileyPair(SM(a.sign, a.e + 2), p.n_max, tuple(alpha), p.beta, tp)


def _lovejoy(p: BaileyPair, b: SM) -> BaileyPair:
    """Lovejoy's full lemma: a -> aq."""
    a, tp = p.a, p.prec
    w = SM(a.sign * b.sign, a.e + 2 - b.e)  # aq/b
    neg_b = b.negate()
    one_minus_aq = _unit_check(_one_minus(a.times_qpow(1)), "1-aq")
    one_minus_b = _one_minus(b)
    alpha, beta = [], []
    partial = zero(INF)
    for n in range(p.n_max + 1):
        t = (poch_finite(b, 2, n).divide(
                 _unit_check(poch_finite(w, 2, n), "(aq/b)_l"), tp)
             * ((neg_b.inverse()) ** n).as_series()).shift(-n * (n - 1))
        partial = partial + t * p.alpha[n]
        s = (_one_minus(a.times_qpow(2 * n + 1))
             * poch_finite(w, 2, n)
             * (neg_b ** n).as_series()).shift(n * (n - 1))
        s = s.divide(_unit_check(poch_finite(b.times_qpow(1), 2, n), "(bq)_n"),
                     tp)
        alpha.append((s.divide(one_minus_aq, tp) * partial).truncate(tp))
        if n == 0:
            beta.append(p.beta[0])
        else:
            d = _unit_check(_one_minus(b.times_qpow(n)), "1-bq^n")
            beta.append((one_minus_b.divide(d, tp) * p.beta[n]).truncate(tp))
    return BaileyPair(SM(a.sign, a.e + 2), p.n_max, tuple(alpha), tuple(beta), tp)


def _star(p: BaileyPair) -> BaileyPair:
    """Combined step (same a): alpha gains (1+q^2n) plus a partial-sum tail."""
    a, tp = p.a, p.prec
    one_minus_ainv = _one_minus(a.inverse())
    alpha = []
    partial = zero(INF)  # sum_{l<n} alpha_l
    for n in range(p.n_max + 1):
        s = QSeries([(0, 1), (4 * n, 1)]) * p.alpha[n]
        if n >= 1:
            s = s + _one_minus(a.times_qpow(2 * n)) * one_minus_ainv * partial
        alpha.append((_a_pow(a, n) * s).shift(2 * n * n - 2 * n).truncate(tp))
        partial = partial + p.alpha[n]
    beta = _beta_sum(p, lambda l: _a_pow(a, l).shift(2 * l * l), star=True)
    return BaileyPair(a, p.n_max, tuple(alpha), tuple(beta), tp)


def _star1(p: BaileyPair) -> BaileyPair:
    """The star step at a = 1, where the factor (1 - 1/a) of the partial-sum
    tail is the exact zero series."""
    if p.a != ONE_M:
        raise DegenerateDivision("STAR1 requires a pair relative to 1")
    return _star(p)


_TRANSFORMS = {
    "BL_INF": lambda p, step: _bl(p),
    "BL_RHO": lambda p, step: _bl_rho(p, step.rho),
    "LATTICE_INF": lambda p, step: _bl(_key_shared(p, key2=False)),
    "KEY1": lambda p, step: _key_shared(p, key2=False),
    "KEY2": lambda p, step: _key_shared(p, key2=True),
    "LOVEJOY_B0": lambda p, step: _lovejoy_b0(p),
    "LOVEJOY": lambda p, step: _lovejoy(p, step.b),
    "STAR": lambda p, step: _star(p),
    "STAR1": lambda p, step: _star1(p),
}


def apply(step, p: BaileyPair) -> BaileyPair:
    """Apply one named transform; callers re-verify if they care."""
    if isinstance(step, str):
        step = TransformStep(step)
    return _TRANSFORMS[step.tag](p, step)


# The chain memo (module docstring): (seed bytes, tp, steps so far) ->
# ((log so far, a, prec), alpha and beta series).
_CHAINS = Memo()


def run_chain(seed: BaileyPair, steps, prec: Optional[int] = None):
    """Apply steps in order, verifying the defining relation after each.

    Returns (pair, log); log rows are (tag, parameter_after, VerifyResult).
    Stops at the first step that fails verification: that row is the last
    one of the log, and pair is the pair that step produced.  The longest
    prefix run before on an equal seed at this order is read back from the
    chain memo (module docstring).
    """
    tp = _order(seed, prec)
    steps = tuple(TransformStep(s) if isinstance(s, str) else s
                  for s in steps)
    seed_key = pack((seed.a.sign, seed.a.e, seed.prec), seed.alpha + seed.beta)
    p, log = seed, []
    for i in range(len(steps), 0, -1):
        hit = _CHAINS.recall((seed_key, tp, steps[:i]))
        if hit is not None:
            (rows, sign, e, p_prec), series = hit
            log = [(tag, a, VerifyResult(*res)) for tag, a, res in rows]
            n = len(series) // 2
            p = BaileyPair(SM(sign, e), n - 1, tuple(series[:n]),
                           tuple(series[n:]), p_prec)
            break
    for i in range(len(log), len(steps)):
        if log and not log[-1][2].ok:
            break
        p = apply(steps[i], p)
        res = verify(p, tp)
        log.append((steps[i].tag, p.a.text(), res))
        _CHAINS.store((seed_key, tp, steps[:i + 1]),
                      ([(tag, a, (r.ok, r.first_bad_n, r.prec))
                        for tag, a, r in log], p.a.sign, p.a.e, p.prec),
                      p.alpha + p.beta)
    return p, log


def commute_check(p: BaileyPair, prec: Optional[int] = None) -> bool:
    """Order independence of BL_INF and STAR1 on a pair relative to 1:
    alpha agreement is syntactic, so the content is the beta comparison."""
    if p.a != ONE_M:
        raise DegenerateDivision("commute check applies to pairs relative to 1")
    tp = _order(p, prec)
    p1 = _star1(_bl(p))
    p2 = _bl(_star1(p))
    return all(_agree(x, y, tp)[0]
               for x, y in zip(p1.alpha + p1.beta, p2.alpha + p2.beta))


def beta_limit(p: BaileyPair, prec: Optional[int] = None) -> QSeries:
    """The n -> infinity value of beta_n, cross-checked against the alpha sum.

    Requires beta_{n_max} and beta_{n_max-1} to agree below the requested
    order (NotStabilized otherwise).  The independent route is the limit of
    the defining relation: beta_inf = (sum_l alpha_l) / ((q)_inf (aq)_inf).
    """
    tp = _order(p, prec)
    if p.n_max < 1:
        raise NotStabilized("n_max too small to witness stabilization")
    last = p.beta[p.n_max]
    same, e, _ = _agree(last, p.beta[p.n_max - 1], tp)
    if not same:
        raise NotStabilized(f"beta still moving at exponent {e}")
    total = zero(tp)
    for l in range(p.n_max + 1):
        total = total + p.alpha[l]
    den = poch_infinite(Q, 2, tp) * poch_infinite(p.a.times_qpow(1), 2, tp)
    direct = total.divide(_unit_check(den, "(q)_inf (aq)_inf"), tp)
    stabilized = last.truncate(tp)
    same, e, _ = _agree(direct, stabilized, tp)
    if not same:
        raise NotStabilized(f"alpha-sum route disagrees at exponent {e}")
    return stabilized


# -- lattice consequences -------------------------------------------------------


def _two_sided(p: BaileyPair, pervar, gaps, term, tp: int):
    """The body shared by the lattice checks: the multisum side (pervar and
    gaps as in ``multisum``, summed up to their ``summation_bound``) against
    1/(aq)_inf times the sum over l <= n_max of term(l), the l-th alpha-side
    term.  Raises InsufficientDepth when the multisum needs beta values past
    n_max, or when the last two alpha-side terms do not vanish below tp.
    Returns (equal, first_mismatch_exponent)."""
    bound = summation_bound(pervar, gaps, tp)
    if bound > p.n_max:
        raise InsufficientDepth(
            f"multisum needs s values up to {bound} but n_max = {p.n_max}")
    lhs = multisum(pervar, gaps, tp, vmax=bound)
    terms = [term(l).truncate(tp) for l in range(p.n_max + 1)]
    if p.n_max < 2:
        raise InsufficientDepth("n_max too small for the alpha-side sum")
    if any(not t.is_zero() for t in terms[-2:]):
        raise InsufficientDepth(
            "alpha sum not converged within n_max at this precision")
    rhs = zero(tp)
    for t in terms:
        rhs = rhs + t
    # a sum of valuation v < 0 needs 1/(aq)_inf to order tp - v
    wp = tp - min(min(rhs.coeffs, default=0), 0)
    rhs = rhs.divide(poch_infinite(p.a.times_qpow(1), 2, wp), wp)
    return _agree(lhs, rhs, tp)[:2]


def _order_lost(pervar, pochs) -> int:
    """How far below t^0 the own factors of the multisum variables reach
    together: the monomials t^(quad v^2 + lin v), times (x; q)_v on each
    variable i that ``pochs`` maps to x.  That is the order a beta
    multiplied by them loses."""
    lost = 0
    for i, (quad, lin, _) in enumerate(pervar):
        x = pochs.get(i)
        # (x)_v stops falling once x q^v has no negative exponent
        top = max(0, -lin // quad, 0 if x is None else (1 - x.e) // 2)
        lost -= min(quad * v * v + lin * v
                    + (0 if x is None else min(poch_finite(x, 2, v).coeffs))
                    for v in range(top + 1))
    return lost


def _lattice_vars(p: BaileyPair, k: int, r: int, j: int) -> list:
    """multisum pervar of the lattice sums over s_1 >= ... >= s_{k+1}: s_i
    carries a^(s_i) q^(s_i^2 - 2 s_i) for i <= j, a^(s_i) q^(s_i^2 - s_i)
    for j < i <= k - r and a^(s_i) q^(s_i^2) after that; beta_{s_{k+1}}
    rides on the last variable."""
    K = k + 1
    return [(2, p.a.e - (4 if i <= j else 2 if i <= k - r else 0),
             (lambda v: p.beta[v]) if i == K else None)
            for i in range(1, K + 1)]


def _check_krj(k: int, r: int, j: int):
    """The (k, r, j) domain of the star chains and their consequences."""
    if not {int}.issuperset(map(type, (k, r, j))):
        raise ParameterOutOfRange(f"k, r and j are integers; got {k=} {r=} {j=}")
    if k < 1 or r < 0 or j < 0 or r + j > k:
        raise ParameterOutOfRange(f"need k>=1, r,j>=0, r+j<=k; got {k=} {r=} {j=}")


def check_coro3(p: BaileyPair, k: int, r: int, j: int, b, c,
                prec: Optional[int] = None):
    """Two-sided check of the double-lattice consequence with boundary
    parameters b and c.

    b and c are SignedMonomial values or the module constant INFINITY.  An
    infinite parameter triggers the standard formal limits
    (x)_l / x^l -> (-1)^l q^(l(l-1)/2), (y/x)_m -> 1, and
    (1 - x q^l)/(x - a q^(l-1)) -> -q^l.  The domain is a = q^(e/2) of
    sign +1, k >= 1, j >= 0, r + j <= k, and r >= -1 when c = INFINITY
    (r >= 0 when c is finite).

    At b = c = INFINITY the LHS is
        sum over s_1 >= ... >= s_{k+1} >= 0 of a^(s_1+...+s_{k+1})
        q^(s_1^2+...+s_{k+1}^2 - 2 s_1 - ... - 2 s_j - s_{j+1} - ... - s_{k-r})
        / prod (q)_{s_i - s_{i+1}} * beta_{s_{k+1}}
    and the RHS carries the telescoped bracket
        sum_{i<=j} q^(-i) z^i - z^m q^(-j) sum_{i<=j} q^i z^i
          = sum_{i<=j} q^(-i) (z^i - z^(m+j-i))
    over 1 - z, with z = a q^(2l) and m = k + 1 - r.  Each difference is
    z^i (1 - z^(m+j-2i)), so the quotient is the polynomial
        sum_{i<=j} q^(-i) z^i (1 + z + ... + z^(m+j-2i-1)),
    each geometric sum with at least one term because m >= j + 1; it is
    built as such and nothing is divided.  At j = 0 this is the classical
    single-lattice consequence, with RHS
        1/(aq)_inf * sum_l a^((k+1)l) q^((k+1)l^2 - (k-r)l)
        * (1 + z + ... + z^(k-r)) * alpha_l.
    A finite b divides the assembled term exactly by 1 - z and the two
    factors b - a q^(l-1) and b - a q^l.
    """
    b_inf = b == INFINITY
    c_inf = c == INFINITY
    r_min = -1 if c_inf else 0
    if k < 1 or j < 0 or not r_min <= r <= k - j:
        raise ParameterOutOfRange(
            f"need k>=1, j>=0, {r_min}<=r, r+j<=k; got {k=} {r=} {j=}")
    a = p.a
    if a.sign != 1:
        raise ParameterOutOfRange(f"a must be q^(e/2) of sign +1, got {a.text()}")
    tp = _order(p, prec)

    if not b_inf:
        if b.sign != -1:
            raise UnsupportedBoundary("finite b must be a negative monomial")
        w = SM(a.sign * b.sign, a.e - b.e - 2)  # a/(bq)
        if w.e < 0:
            raise UnsupportedBoundary(
                f"a/(bq) has negative exponent for b = {b.text()}")
    if not c_inf:
        aq_over_c = SM(a.sign * c.sign, a.e + 2 - c.e)
        if aq_over_c.e <= 0:
            raise UnsupportedBoundary(
                f"(aq/c) must have positive exponent, got c = {c.text()}")

    # ---- left side: an infinite end is a plain lattice variable.  A finite
    # b puts (b)_v (-1/b)^v on s_1 and a finite c puts (c)_v (-1/c)^v on
    # s_{k+1}, halving their quadratics, and 1/(aq/c)_v on s_k; the
    # monomials go into the linear exponents.
    pervar = _lattice_vars(p, k, r, j)
    pochs = {}
    if not b_inf:
        pervar[0] = (1, pervar[0][1] + 1 - b.e, lambda v: poch_finite(b, 2, v))
        pochs[0] = b
    if not c_inf:
        def tail_c(v):
            return (poch_finite(c, 2, v) * monomial((-c.sign) ** v, 0)
                    * p.beta[v])
        pervar[k] = (1, pervar[k][1] + 1 - c.e, tail_c)
        pochs[k] = c
    # A linear exponent below -2 (a.e - 4 on s_1 .. s_j, a.e - 2 on
    # s_{j+1} .. s_{k-r}) costs order: one per such s_i at a = q^(1/2), and
    # as much on the right, where the bracket at l = 0 (x = a q^(-1),
    # z = a) has that valuation; a finite b or c of negative exponent costs
    # the valuation of its Pochhammer.  Both sides work to that much more
    # order, and a seed is asked for the prefix to it.
    wp = tp + _order_lost(pervar, pochs)
    if p.prec < wp and p.seed is not None:
        return check_coro3(p.seed(p.a, p.n_max, wp), k, r, j, b, c, tp)
    if not c_inf:
        quad, lin, own = pervar[k - 1]     # own is b's extra when k = 1

        def with_inv_aqc(v):
            s = inv_poch_finite(aq_over_c, 2, v, wp)
            return s if own is None else own(v) * s
        pervar[k - 1] = (quad, lin, with_inv_aqc)

    # ---- right side ----
    def term(l):
        x = SM(a.sign, a.e + 4 * l - 2)    # a q^(2l-1)
        y = SM(a.sign, a.e + 4 * l + 2)    # a q^(2l+1)
        z = SM(a.sign, a.e + 4 * l)        # a q^(2l)
        divisors = []
        if b_inf:
            bpart = monomial((-1) ** l, l * (l - 1))
            bracket = zero(INF)            # sum_{i<=j} x^i (1 + ... + z^(...))
            for i in range(j + 1):
                bracket = bracket + (x ** i).as_series() * _geom(
                    z, k + 1 - r + j - 2 * i)
        else:
            # (a/bq; q)_inf / (a/bq)_l folded into the term: ((a/bq) q^l)_inf.
            # Its even leading factor is what makes the l with b = -q^l
            # (where b - aq^l is -2 t^e) come out integral, so the divisions
            # must happen after the full product is assembled.
            bpart = (poch_infinite(SM(w.sign, w.e + 2 * l), 2, wp)
                     * poch_finite(b, 2, l) * monomial(b.sign ** l, -b.e * l))
            aql_1 = SM(a.sign, a.e + 2 * l - 2)   # a q^(l-1)
            aql = SM(a.sign, a.e + 2 * l)         # a q^l
            d1 = QSeries({b.e: b.sign}) + QSeries({aql_1.e: -aql_1.sign})
            d2 = QSeries({b.e: b.sign}) + QSeries({aql.e: -aql.sign})
            divisors = [d1, d2, _unit_check(_one_minus(z), "1-aq^2l")]
            p1num = (b.as_series() * _geom(x, j + 1)
                     - aql_1.as_series() * _geom(x, j))
            p2num = (b.as_series() * _geom(y, j + 1)
                     - aql.as_series() * _geom(y, j))
            shift = (a ** (k + 1 - r)).as_series().shift(
                2 * (2 * k + 1 - 2 * r) * l - 2 * j)
            bracket = p1num * d2 + shift * _one_minus(b.times_qpow(l)) * p2num
        if c_inf:
            cpart = monomial((-1) ** l, l * (l - 1))
        else:
            cpart = (poch_finite(c, 2, l) * monomial(c.sign ** l, -c.e * l)
                     * inv_poch_finite(aq_over_c, 2, l, wp))
        t = _a_pow(a, (k + 1) * l).shift(2 * k * l * l + 2 * (r + 1 - j - k) * l)
        out = t * bpart * cpart * bracket * p.alpha[l]
        # the divisors are exact: 1/d known to wp - val(out) keeps every term
        # of the quotient below wp that the product above knows
        for d in divisors:
            out = out.divide(d, wp - min(out.coeffs, default=0))
        return out
    return _two_sided(p, pervar, [(2, None)] * k, term, tp)


def check_common2(p: BaileyPair, k: int, r: int, j: int,
                  prec: Optional[int] = None, subset=None):
    """Two-sided check of the star-chain limit identity for pairs relative q.

    LHS: sum over s_1 >= ... >= s_{k+1} >= 0 of
        q^(sum s^2 + s_{k-r+1} + ... + s_{k+1}) q^(-s_1)
        * prod_{i in subset, i>=2} (q^(s_{i-1}) + q^(-s_i))
        / ((q)_{s_1-s_2} ... (q)_{s_k-s_{k+1}}) * beta_{s_{k+1}},
    RHS: 1/(q^2;q)_inf * sum_l q^((k+1)l^2+(r-j+1)l) / (1-q^(2l+1))
        * ((1+q^(2l))^j - (1+q^(2l+2))^j q^((k-r+1)(2l+1)-j)) * alpha_l.

    ``subset`` picks which j factors appear (default {1, ..., j}); element 1
    stands for the plain q^(-s_1) factor.
    """
    if p.a != Q:
        raise ParameterOutOfRange("this identity is stated for pairs relative q")
    _check_krj(k, r, j)
    T = frozenset(range(1, j + 1)) if subset is None else frozenset(subset)
    universe = {1} | set(range(2, k - r + 1))
    if len(T) != j or not T <= universe:
        raise ParameterOutOfRange(f"subset {sorted(T)} invalid for {k=} {r=} {j=}")
    tp = _order(p, prec)
    # the q^(-s_1) factor of 1 in T is the j = 1 row of the lattice sums at
    # a = q (1 in T needs j >= 1, so r < k and s_1 is not past k - r)
    pervar = _lattice_vars(p, k, r, 1 if 1 in T else 0)
    gaps = [(2, 2 if g in T else None) for g in range(2, k + 2)]

    def term(l):
        big = (QSeries([(0, 1), (4 * l, 1)]) ** j
               - (QSeries([(0, 1), (4 * l + 4, 1)]) ** j)
               .shift(2 * ((k - r + 1) * (2 * l + 1) - j)))
        t = monomial(1, 2 * (k + 1) * l * l + 2 * (r - j + 1) * l)
        t = t.divide(_unit_check(_one_minus(SM(1, 4 * l + 2)), "1-q^(2l+1)"),
                     tp)
        return t * big * p.alpha[l]
    return _two_sided(p, pervar, gaps, term, tp)


# The oracle's own memo (module docstring): (divisor exponent, tp) and the
# dividend's packed content -> the quotient, as one series.
_QUOTIENTS = Memo()


def _seed_quotient(s: QSeries, e: int, tp: int) -> QSeries:
    """s / (1 - t^e) to order tp, each distinct dividend divided once."""
    key = pack((e, tp), (s,))
    hit = _QUOTIENTS.recall(key)
    if hit is not None:
        return hit[1][0]
    out = s.divide(_one_minus(SM(1, e)), tp)
    _QUOTIENTS.store(key, None, (out,))
    return out


@lru_cache(maxsize=256)
def _star_factor(n: int, j: int) -> QSeries:
    """(1-q)(1+q^2n)^j, the exact factor of the closed form."""
    return _one_minus(Q) * (QSeries([(0, 1), (4 * n, 1)]) ** j)


def closed_alpha_star_chain(seed: BaileyPair, k: int, r: int, j: int,
                            n: int, prec: Optional[int] = None) -> QSeries:
    """Closed form of alpha_n after the full star chain on a pair relative q:
    (1-q)(1+q^2n)^j q^((k+1)n^2+(r+1-j)n)
        (alpha_n/(1-q^(2n+1)) - q^(-2rn-1) alpha_{n-1}/(1-q^(2n-1))).

    The two quotients come from the oracle's own memo, and the shift by
    q^(-2rn-1) is applied after the recall (module docstring)."""
    if seed.a != Q:
        raise ParameterOutOfRange("closed form is for seeds relative to q")
    _check_krj(k, r, j)
    if type(n) is not int or not 0 <= n <= seed.n_max:
        raise ParameterOutOfRange(
            f"need 0 <= n <= n_max = {seed.n_max}, got {n=}")
    tp = _order(seed, prec)
    t = _seed_quotient(seed.alpha[n], 4 * n + 2, tp)
    if n >= 1:
        t = t - _seed_quotient(seed.alpha[n - 1], 4 * n - 2,
                               tp).shift(-4 * r * n - 2)
    # the factor has valuation 0, so terms of t at or above tp - shift only
    # reach tp or more
    shift = 2 * (k + 1) * n * n + 2 * (r + 1 - j) * n
    out = _star_factor(n, j) * t.truncate(tp - shift)
    return out.shift(shift).truncate(tp)


def star_chain(k: int, r: int, j: int):
    """Step list for the star route: BL x (r+1), KEY1, BL x (k-r-j), STAR1 x j."""
    _check_krj(k, r, j)
    return (["BL_INF"] * (r + 1) + ["KEY1"] + ["BL_INF"] * (k - r - j)
            + ["STAR1"] * j)


def double_lattice_chain(k: int, r: int, j: int):
    """Step list for the double-lattice route; None when a step count would
    go negative (those corners are covered by the direct two-sided check)."""
    if j == 0:
        if k - r - 1 < 0:
            return None
        return ["BL_INF"] * (r + 1) + ["LATTICE_INF"] + ["BL_INF"] * (k - r - 1)
    if k - r - j - 1 < 0:
        return None
    return (["BL_INF"] * (r + 1) + ["LATTICE_INF"]
            + ["BL_INF"] * (k - r - j - 1) + ["LATTICE_INF"]
            + ["BL_INF"] * (j - 1))


def boundary_double_lattice_chain(k: int, r: int, j: int, b: SM, c: SM):
    """Step list for the boundary route (finite parameter at both ends);
    None outside j >= 2, r >= 1, r + j < k."""
    if j < 2 or r < 1 or k - r - j - 1 < 0:
        return None
    return ([TransformStep("BL_RHO", rho=b)] + ["BL_INF"] * r
            + ["LATTICE_INF"] + ["BL_INF"] * (k - r - j - 1)
            + ["LATTICE_INF"] + ["BL_INF"] * (j - 2)
            + [TransformStep("BL_RHO", rho=c)])
