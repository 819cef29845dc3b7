"""The multisum engine against a brute-force nested loop, and var_bound."""

from hypothesis import example, given, settings, strategies as st

from qident.qfunctions import NEG_ONE, SM, inv_poch_finite, poch_finite
from qident.series import QSeries, monomial, zero
from qident.sumeval import multisum, quad_min, var_bound

# The oracle multiplies every factor exactly, or to this many t-exponents
# beyond the target order; no summand in the drawn shapes dips lower.
ORACLE_SLACK = 80


def _head(v):
    return poch_finite(NEG_ONE, 2, v)          # exact (-1; q)_v


def _tail_factory(prec, neg):
    # 1/(q; q)_v * t^(-neg*v): a Bailey-style extra of negative valuation
    return lambda v: inv_poch_finite(SM(1, 2), 2, v, prec).shift(-neg * v)


def _lowest(pervar, gaps):
    """Per variable, its exponent in the worst binomial branch as a function
    of its value, and the minimum of that by scan."""
    drops = [0] + [b or 0 for _, b in gaps]
    expo = [lambda s, q=q, l=l - d: q * s * s + l * s
            for (q, l), d in zip(pervar, drops)]
    return expo, [min(f(s) for s in range(200)) for f in expo]


def oracle_top(pervar, gaps, tprec):
    """A value no variable of a tuple contributing below tprec reaches."""
    expo, lows = _lowest(pervar, gaps)
    top = 0
    while any(f(top) + sum(lows) - low < tprec for f, low in zip(expo, lows)):
        top += 1
    return top


def brute_multisum(pervar, gaps, tprec, extras, bound_pervar):
    """Sum over every s_1 >= ... >= s_K >= 0 of the summand, built from plain
    series products.  bound_pervar is pervar with the lowest valuation of
    the extras folded into the linear terms: tuples whose lowest possible
    exponent is >= tprec are skipped, and the values stop at oracle_top."""
    K = len(pervar)
    expo, _ = _lowest(bound_pervar, gaps)
    top = oracle_top(bound_pervar, gaps, tprec)
    prec = tprec + ORACLE_SLACK
    total = zero(prec)

    def rec(i, prev, tup):
        nonlocal total
        if i == K:
            if sum(f(s) for f, s in zip(expo, tup)) < tprec:
                total = total + summand(tup)
            return
        for s in range(0, (prev if i else top - 1) + 1):
            rec(i + 1, s, tup + (s,))

    def summand(tup):
        term = monomial(1, sum(q * s * s + l * s
                               for (q, l), s in zip(pervar, tup)))
        for i, s in enumerate(tup):
            if extras[i] is not None:
                term = term * extras[i](s)
        for i, (d, b) in enumerate(gaps):
            term = term * inv_poch_finite(SM(1, d), d, tup[i] - tup[i + 1],
                                          prec)
            if b:
                term = term * QSeries([(b * tup[i], 1), (-b * tup[i + 1], 1)])
        return term.truncate(prec)

    rec(0, 0, ())
    assert total.prec >= tprec
    return total.truncate(tprec)


shapes = st.integers(1, 3).flatmap(lambda K: st.tuples(
    st.lists(st.tuples(st.integers(1, 3), st.integers(-6, 4)),
             min_size=K, max_size=K),
    st.lists(st.tuples(st.sampled_from([2, 4]),
                       st.sampled_from([None, 2, 4])),
             min_size=K - 1, max_size=K - 1),
    st.integers(1, 40),
    st.booleans(),
    st.sampled_from([None, 0, 1, 3])))


@settings(max_examples=200, deadline=None)
@given(shapes)
# stanton_31-like: the binomial drop makes the working precision tprec + 2
@example(([(2, -2), (2, 0)], [(2, 2)], 30, False, 0))
@example(([(1, -6), (1, -6), (1, 4)], [(4, 4), (2, 4)], 40, True, 3))
def test_multisum_matches_brute_force(shape):
    pervar, gaps, tprec, head, tail_neg = shape
    K = len(pervar)
    extras = [None] * K
    bound_pervar = list(pervar)
    vmax = None
    if head:
        extras[0] = _head
    if tail_neg is not None:
        # exact well beyond tprec, for the oracle and the engine alike
        extras[-1] = _tail_factory(tprec + ORACLE_SLACK, tail_neg)
        q, l = pervar[-1]
        bound_pervar[-1] = (q, l - tail_neg)
        if tail_neg:
            # var_bound sees no extras: callers with negative-valuation
            # extras pass their own bound, as the Bailey checks do
            vmax = oracle_top(bound_pervar, gaps, tprec)
    got = multisum([(q, l, extras[i]) for i, (q, l) in enumerate(pervar)],
                   gaps, tprec, vmax=vmax)
    want = brute_multisum(pervar, gaps, tprec, extras, bound_pervar)
    assert got.prec == tprec
    assert got.coeffs == want.coeffs


@given(st.integers(1, 50), st.integers(-2000, 50))
def test_quad_min_is_the_integer_minimum(quad, lin):
    assert quad_min(quad, lin) == min(quad * v * v + lin * v
                                      for v in range(0, 2100))


def test_var_bound_sees_minima_beyond_64():
    # 8v^2 - 1100v is smallest at v = 69 (-37812); a search over v < 64
    # stops at -37548 and returns 194.
    assert var_bound([(8, -1100), (1, 0)], 10) == 195
