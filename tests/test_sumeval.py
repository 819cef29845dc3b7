"""The multisum engine against a brute-force nested loop, and var_bound."""

import marshal
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qident.qfunctions import NEG_ONE, SM, inv_poch_finite, poch_finite
from qident import sumeval
from qident import series
from qident.series import (INF, Memo, QSeries, digit_bytes, monomial,
                           word_bytes, zero)
from qident.sumeval import (_own_pass, _own_sum, layer_product, multisum,
                            quad_min, slot_series, summation_bound, var_bound)

from series_oracle import coeff

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


def _shapes(quad, lin, tail_neg):
    return st.integers(1, 3).flatmap(lambda K: st.tuples(
        st.lists(st.tuples(quad, lin), min_size=K, max_size=K),
        st.lists(st.tuples(st.sampled_from([2, 4]),
                           st.sampled_from([None, 2, 4])),
                 min_size=K - 1, max_size=K - 1),
        st.integers(1, 40),
        st.booleans(),
        st.sampled_from(tail_neg)))


shapes = _shapes(st.integers(1, 3), st.integers(-6, 4), [None, 0, 1, 3])
# Even quad, lin and tail shift, no lower than above (the oracle's slack
# holds): every layer of the pass lies on an even grid, so its product packs
# on the grid step 2 or 4 (sumeval.layer_product).
even_shapes = _shapes(st.sampled_from([2, 4, 6]),
                      st.sampled_from(range(-6, 5, 2)), [None, 0, 2])


@settings(max_examples=400, deadline=None)
@given(shapes | even_shapes)
# stanton_31-like: the binomial drop makes the working precision tprec + 2
@example(([(2, -2), (2, 0)], [(2, 2)], 30, False, 0))
@example(([(1, -6), (1, -6), (1, 4)], [(4, 4), (2, 4)], 40, True, 3))
# stanton_31-like on the grid 4Z: exponents 4v^2 - 4v and 4v^2, the
# difference Pochhammer in q^2 and the binomial step 4, every product at
# grid step 4; the working precision is tprec + 4
@example(([(4, -4), (4, 0)], [(4, 4)], 30, False, None))
@example(([(2, -2), (2, 0)], [(2, 2)], 31, True, 2))
def test_multisum_matches_brute_force(shape):
    pervar, gaps, tprec, head, tail_neg = shape
    K = len(pervar)
    extras, key = [None] * K, [None] * K
    bound_pervar = list(pervar)
    vmax = None
    if head:
        extras[0], key[0] = _head, "head"
    if tail_neg is not None:
        # exact well beyond tprec, for the oracle and the engine alike
        extras[-1] = _tail_factory(tprec + ORACLE_SLACK, tail_neg)
        key[-1] = ("tail", tail_neg)
        q, l = pervar[-1]
        bound_pervar[-1] = (q, l - tail_neg)
        if tail_neg:
            # var_bound sees no extras: callers with negative-valuation
            # extras pass their own bound, as the Bailey checks do
            vmax = oracle_top(bound_pervar, gaps, tprec)
    engine_pervar = [(q, l, extras[i]) for i, (q, l) in enumerate(pervar)]
    if vmax is None:
        # these extras have valuation >= 0, so the bound that sees no
        # extras is enough, as in eval_sum
        vmax = summation_bound(engine_pervar, gaps, tprec)
    want = brute_multisum(pervar, gaps, tprec, extras, bound_pervar)
    # without a key, then with one twice: the second keyed call is served
    # whole from the memo of sums and builds no layer
    sums = [multisum(engine_pervar, gaps, tprec, vmax=vmax, key=k)
            for k in (None, key)]
    real, built = sumeval.layer_product, []
    sumeval.layer_product = lambda *args: built.append(args) or real(*args)
    try:
        sums.append(multisum(engine_pervar, gaps, tprec, vmax=vmax, key=key))
    finally:
        sumeval.layer_product = real
    assert built == []
    for got in sums:
        assert got.prec == tprec
        assert got.coeffs == want.coeffs


@settings(max_examples=60, deadline=None)
@given(shapes, st.sets(st.integers(0, 6), min_size=1),
       st.sampled_from([0, -1]))
# the outer and the inner variable of three, zero at their first values
@example(([(1, 0), (1, -2), (2, 0)], [(2, 2), (2, None)], 30, False, None),
         {0, 1}, 0)
@example(([(1, 0), (1, -2), (2, 0)], [(2, 2), (2, None)], 30, False, None),
         {0, 2}, -1)
def test_an_extra_that_is_exactly_zero_adds_nothing(shape, zeros, at):
    # an own factor that is the exact zero at some values (multisum keeps
    # no entry for them) against the brute-force sum, which multiplies it in
    pervar, gaps, tprec, _, _ = shape
    extras = [None] * len(pervar)
    extras[at] = lambda v: zero() if v in zeros else _head(v)
    engine_pervar = [(q, l, extras[i]) for i, (q, l) in enumerate(pervar)]
    want = brute_multisum(pervar, gaps, tprec, extras, pervar)
    got = multisum(engine_pervar, gaps, tprec,
                   vmax=summation_bound(engine_pervar, gaps, tprec))
    assert (got.coeffs, got.prec) == (want.coeffs, tprec)


@st.composite
def bound_layers(draw):
    """(wp, layer) with every coefficient of one size M: all positive, so
    that the product digits reach the digit bound of sumeval.layer_product, or
    of mixed signs; exponents on the grid 1 or 2, Laurent ones included."""
    wp = draw(st.integers(1, 40))
    size = draw(st.sampled_from([1, 2 ** 7 - 1, 2 ** 31 - 1, 2 ** 62,
                                 2 ** 63 - 1, 2 ** 70]))
    coeff = st.sampled_from([size, -size]) if draw(st.booleans()) \
        else st.just(size)
    grid = draw(st.sampled_from([1, 2]))
    layer = {}
    for u in sorted(draw(st.sets(st.integers(0, 5), min_size=1))):
        terms = draw(st.dictionaries(st.integers(-3, wp // grid + 2), coeff))
        prec = draw(st.integers(1, wp + 3) | st.just(INF))
        layer[u] = QSeries({grid * e: c for e, c in terms.items()}, prec)
    return wp, layer


# own rows of multisum: all 0, and one with every kind of entry, (offset,
# series) pairs of finite and infinite precision among them
_OWN_ROWS = ([0] * 7,
             [3, None, (0, QSeries({0: 2, 2: -1})), -2,
              (4, QSeries({-2: 5}, 9)), 0, (-1, QSeries({1: -(2 ** 70)}))])


@settings(max_examples=150, deadline=None)
@given(bound_layers(), st.sampled_from([1, 2, 4]),
       st.sampled_from([None, 1, 2]), st.sampled_from([0, INF]),
       st.sampled_from(_OWN_ROWS))
@example((12, {0: QSeries({e: 2 ** 70 for e in range(0, 12, 2)}),
               1: QSeries({e: -2 ** 70 for e in range(-2, 14, 2)}, 11)}),
         2, 2, 0, _OWN_ROWS[0])
def test_convolve_layer_matches_the_per_pair_products(case, den_step, b,
                                                      two_point_bytes,
                                                      own_row):
    # layer_product, then the own pass, against own_row[v] * T_v with
    # T_v = sum_{u <= v} L_u * 1/(t^d; t^d)_{v-u} [* (t^(b*v) + t^(-b*u))]
    # as plain series products and sums, both binomial branches included,
    # with every product taken at two points or every one at one point
    wp, layer = case
    n = 7
    want = {}
    for v in range(min(layer), n):
        if own_row[v] is None:
            continue
        t = zero(wp)
        for u, s in layer.items():
            if u <= v:
                term = s * inv_poch_finite(SM(1, den_step), den_step, v - u,
                                           wp)
                if b:
                    term = term * QSeries([(b * v, 1), (-b * u, 1)])
                t = t + term
        o = own_row[v]
        t = (t.shift(o) if isinstance(o, int)
             else o[1].shift(o[0]) * t).truncate(wp)
        if t.coeffs or t.prec < wp:
            want[v] = t
    with mock.patch.object(sumeval, "_TWO_POINT_BYTES", two_point_bytes):
        got = sumeval._own_pass(sumeval.layer_product(
            layer, n - 1, (den_step, b), wp), own_row, wp)
    assert {v: (s.coeffs, s.prec) for v, s in got.items()} == \
        {v: (s.coeffs, s.prec) for v, s in want.items()}


def as_slots(products, g=1, nbytes=None):
    """{v: T_v} for v = v0.. as a packed layer product (sumeval's layout):
    one digit per g exponents from the lowest exponent of any T_v (every
    exponent on that grid), each slot padded with zero digits up to its
    precision as ``layer_product`` leaves it, at the digit width nbytes or
    the least that holds the coefficients, with the largest |coefficient|
    as its digit bound."""
    lo = min((e for t in products.values() for e in t.coeffs), default=0)
    size = max((abs(c) for t in products.values()
                for c in t.coeffs.values()), default=0)
    nbytes = nbytes or digit_bytes(size)
    w, lift = word_bytes(nbytes), 1 << (8 * nbytes - 1)
    buf, slots = b"", []
    for t in products.values():
        top = max(t.coeffs, default=lo - g) + g
        n = max(0, -((lo - (top if t.prec is INF else t.prec)) // g))
        digits = [t.coeffs.get(lo + g * j, 0) for j in range(n)]
        assert sum(1 for c in digits if c) == len(t.coeffs)
        slots.append((len(buf) // w, n, t.prec))
        buf += b"".join((c + lift).to_bytes(w, "little") for c in digits)
    return (buf, nbytes, size, lo, g, min(products, default=0), slots)


def dict_own_pass(products, own_row, wp):
    """The reference for sumeval._own_pass: the own pass on {v: T_v} as
    multisum took it before its layer products stayed packed, each T_v
    shifted and cut at wp, or multiplied by its extra after a cut at wp -
    val(t^o * extra) and then shifted."""
    def shifted(s, o):
        return QSeries._of({e + o: c for e, c in s.coeffs.items()
                            if e < wp - o}, min(s.prec + o, wp))

    nxt = {}
    for v, t in products.items():
        o = own_row[v]
        if o is None:
            continue
        if isinstance(o, int):
            s = shifted(t, o)
        else:
            o, x = o
            low = min(x.coeffs) if x.coeffs else x.prec
            s = shifted(x * t.truncate(wp - o - low), o)
        if s.coeffs or s.prec < wp:
            nxt[v] = s
    return nxt


@st.composite
def own_rows(draw):
    """An own row of 7 entries of every kind: bare offsets of either sign,
    None, and (offset, series) pairs with Laurent, exact and truncated
    series, one with no terms that only bounds the precision."""
    entry = (st.integers(-8, 30)
             | st.none()
             | st.tuples(st.integers(-8, 30),
                         st.builds(QSeries,
                                   st.dictionaries(st.integers(-3, 12),
                                                   st.integers(1, 9)
                                                   | st.integers(-9, -1),
                                                   min_size=1, max_size=5),
                                   st.integers(0, 40) | st.just(INF)))
             | st.tuples(st.integers(-4, 8),
                         st.builds(zero, st.integers(1, 30))))
    return draw(st.lists(entry, min_size=7, max_size=7))


@settings(max_examples=150, deadline=None)
@given(bound_layers(), st.sampled_from([1, 2, 4]),
       st.sampled_from([None, 1, 2]), st.sampled_from([0, INF]),
       own_rows() | st.sampled_from(_OWN_ROWS))
# a layer of negative lo (t^(-4) at u = 0, and t^(-b*u) lowers it to -6)
# under offsets of both signs and a shift past wp
@example((10, {0: QSeries({-4: 3, 2: -1}), 1: QSeries({0: 5}, 9)}), 2, 2,
         INF, [-3, 5, (-2, QSeries({1: 1, 3: 2})), 40, None, 0, 1])
def test_own_pass_on_slots_matches_the_dict_own_pass(case, den_step, b,
                                                      two_point_bytes,
                                                      own_row):
    # the own pass reads each packed slot below where its factor reaches
    # wp; the dict path reads the whole T_v and then cuts
    wp, layer = case
    with mock.patch.object(sumeval, "_TWO_POINT_BYTES", two_point_bytes):
        products = layer_product(layer, 6, (den_step, b), wp)
    got = _own_pass(products, own_row, wp)
    want = dict_own_pass(slot_series(products), own_row, wp)
    assert {v: (s.coeffs, s.prec) for v, s in got.items()} == \
        {v: (s.coeffs, s.prec) for v, s in want.items()}


@given(st.integers(1, 50), st.integers(-2000, 50))
def test_quad_min_is_the_integer_minimum(quad, lin):
    assert quad_min(quad, lin) == min(quad * v * v + lin * v
                                      for v in range(0, 2100))


def test_quad_min_refuses_an_unbounded_quadratic():
    with pytest.raises(ValueError, match="unbounded below"):
        quad_min(0, -1)


def test_var_bound_sees_minima_beyond_64():
    # 8v^2 - 1100v is smallest at v = 69 (-37812); a search over v < 64
    # stops at -37548 and returns 194.
    assert var_bound([(8, -1100), (1, 0)], 10) == 195


def test_default_vmax_refuses_an_extra_of_negative_valuation():
    # there is no default vmax: var_bound sees only (quad, lin) = (1, 0) and
    # sums v <= 5, which misses t^(v^2 - 3v) = t^18 at v = 6
    pervar = [(1, 0, lambda v: monomial(1, -3 * v))]
    with pytest.raises(TypeError, match="vmax"):
        multisum(pervar, [], 20)
    assert coeff(multisum(pervar, [], 20, vmax=12), 18) == 1
    # an extra that turns negative only past that bound, which a check of
    # the valuations up to the bound misses, and one of valuation >= 0: any
    # sum needs vmax
    late = [(1, 0, lambda v: monomial(1, 0 if v < 6 else -18))]
    with pytest.raises(TypeError, match="vmax"):
        multisum(late, [], 20)
    assert coeff(multisum(late, [], 20, vmax=12), 18) == 1
    with pytest.raises(TypeError, match="vmax"):
        multisum([(2, 0, None), (2, 0, lambda v: monomial(1, 0))], [(2, None)],
                 20)


@st.composite
def memo_layers(draw):
    """A layer {v: series}: coefficients of either sign up to 2^70, exact
    series, and zero series that carry only a precision."""
    coeff = st.integers(-2 ** 70, 2 ** 70) | st.integers(-3, 3)
    layer = {}
    for v in sorted(draw(st.sets(st.integers(0, 12), max_size=6))):
        prec = draw(st.integers(-6, 60) | st.just(INF))
        lo = draw(st.integers(-6, 30))
        terms = draw(st.dictionaries(st.integers(0, 16), coeff, max_size=9))
        layer[v] = QSeries({lo + j: c for j, c in terms.items()}, prec)
    return layer


@settings(max_examples=150, deadline=None)
@given(memo_layers())
@example({})
@example({0: zero(7), 3: QSeries({-2: -(2 ** 65), 4: 1}, 9)})
@example({1: QSeries({3: 2 ** 64, 4: -1}), 2: zero(12)})
def test_packed_layers_round_trip(layer):
    # stored and read back as the memos store series, one per v (here with
    # the v themselves as data)
    memo = Memo()
    memo.store("key", list(layer), layer.values())
    back = dict(zip(*memo.recall("key")))
    assert list(back) == list(layer)
    for v, s in layer.items():
        assert (back[v].coeffs, back[v].prec) == (s.coeffs, s.prec), v
        # QSeries tests ``prec is INF``, so INF must come back itself
        assert (back[v].prec is INF) == (s.prec is INF), v


def test_layer_memo_is_bounded(monkeypatch):
    # the products that convolve the layer after s_3 (key: s_3, gap 2) and
    # after s_2 (key: s_2.., gap 1); the first two shapes differ only in s_1
    # and share both, and the last two share only the product after s_3 with
    # them.  At a bound of 2 the memo keeps the most recently used products.
    monkeypatch.setattr(Memo, "MAX", 2)
    memo = sumeval._CONVOLUTIONS
    memo.clear()
    real, built = sumeval.layer_product, []
    monkeypatch.setattr(sumeval, "layer_product",
                        lambda *args: built.append(args) or real(*args))
    gaps = [(2, None), (2, None)]
    shapes = [[(2, lin, None), (2, 0, None), (2, 0, None)]
              for lin in (0, -2)] + [[(2, 0, None), (q, 0, None),
                                       (2, 0, None)] for q in (4, 6)]
    sums = []
    # per shape: (products built, hits, misses) so far
    counts = [(2, 0, 2), (2, 1, 2), (3, 2, 3), (4, 3, 4)]
    for p, want in zip(shapes, counts):
        sums.append(multisum(p, gaps, 30, vmax=6, key=[None] * 3))
        assert (len(built), memo.hits, memo.misses) == want
        assert len(memo) == 2
    # the products after s_2 were pushed out but the last; without the
    # stored sums, each is built again, the same, from the stored product
    # after s_3, and then serves the second shape
    sumeval._SUMS.clear()
    for p, want, n in zip(shapes, sums, (1, 0, 1, 1)):
        built.clear()
        assert multisum(p, gaps, 30, vmax=6, key=[None] * 3) == want
        assert len(built) == n
        assert multisum(p, gaps, 30, vmax=6) == want
    assert len(memo) == 2


@st.composite
def memo_runs(draw):
    """A run of multisum calls on shapes of 2-4 variables that share their
    gaps and draw each variable's (quad, lin) from two choices, so that
    calls share suffixes and with them stored products; each call has its
    own vmax, so a stored product is sometimes restricted and sometimes
    rebuilt.  The innermost variable may carry a Bailey-style extra, whose
    valuation moves the working precision with vmax."""
    K = draw(st.integers(2, 4))
    gaps = draw(st.lists(st.tuples(st.sampled_from([1, 2]),
                                   st.sampled_from([None, 1, 2])),
                         min_size=K - 1, max_size=K - 1))
    choices = draw(st.lists(st.lists(st.tuples(st.integers(1, 3),
                                               st.integers(-3, 3)),
                                     min_size=2, max_size=2),
                            min_size=K, max_size=K))
    calls = draw(st.lists(st.tuples(st.lists(st.integers(0, 1), min_size=K,
                                             max_size=K),
                                    st.integers(0, 9)),
                          min_size=2, max_size=8))
    return (gaps, choices, draw(st.sampled_from([None, 0, 1])),
            draw(st.integers(8, 30)), calls)


@settings(max_examples=100, deadline=None)
@given(memo_runs())
# a product stored at vmax 1 is asked for at vmax 5: it is rebuilt
@example(([(2, None)], [[(1, 0), (2, 0)], [(1, 0), (1, 0)]], None, 20,
          [([0, 0], 1), ([1, 0], 5)]))
# a product stored at vmax 5 is asked for at vmax 1: it is restricted
@example(([(2, 2), (1, None)], [[(2, 0), (3, 0)], [(1, -1), (1, 0)],
                                [(1, 0), (1, 0)]], 1, 20,
          [([0, 0, 0], 5), ([1, 0, 0], 1), ([1, 1, 0], 3)]))
def test_stored_products_equal_a_cold_build(run):
    gaps, choices, tail, tprec, calls = run
    sumeval._CONVOLUTIONS.clear()
    sumeval._SUMS.clear()
    for picks, vmax in calls:
        pervar = [choice[c] + (None,) for choice, c in zip(choices, picks)]
        key = [None] * len(pervar)
        if tail is not None:
            pervar[-1] = pervar[-1][:2] + (
                _tail_factory(tprec + ORACLE_SLACK, tail),)
            key[-1] = ("tail", tail)
        want = multisum(pervar, gaps, tprec, vmax=vmax)
        got = multisum(pervar, gaps, tprec, vmax=vmax, key=key)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec), vmax


def own_pass_then_sum(products, own_row, wp):
    """The reference for sumeval._own_sum: the own pass as multisum took it
    before the outer step was fused, every own series shifted by its
    exponent in full, and then the ring sum of its series."""
    layer = {}
    for v, t in products.items():
        o = own_row[v]
        if o is None:
            continue
        if isinstance(o, int):
            s = QSeries({e + o: c for e, c in t.coeffs.items()
                         if e < wp - o}, min(t.prec + o, wp))
        else:
            x = o[1].shift(o[0])
            low = min(x.coeffs) if x.coeffs else x.prec
            s = (x * t.truncate(wp - low)).truncate(wp)
        if s.coeffs or s.prec < wp:
            layer[v] = s
    out = zero(wp)
    for s in layer.values():
        out = out + s
    return out


_BIG = st.integers(-2 ** 64, 2 ** 64) | st.sampled_from([2 ** 64, -2 ** 64])


@st.composite
def outer_steps(draw):
    """(products, own_row, wp, g, nbytes) as the outermost variable sees
    them: T_v known below wp or less, packed on the grid g (1, or 2 with
    even exponents, which odd offsets and odd exponents of the extras
    leave) at a digit width of nbytes (None for the least that holds
    them), own entries of every kind (bare exponents, (exponent, series)
    pairs with Laurent, exact and truncated series, and None),
    coefficients of either sign up to 2^64."""
    wp = draw(st.integers(1, 40))
    g = draw(st.sampled_from([1, 2]))
    products, own_row = {}, []
    for v in range(draw(st.integers(1, 7))):
        terms = draw(st.dictionaries(st.integers(-4, wp + 4), _BIG,
                                     max_size=12))
        products[v] = QSeries({g * (e // g): c for e, c in terms.items()},
                              wp - draw(st.integers(0, 6)))
        kind = draw(st.sampled_from(["int", "pair", "none"]))
        o = draw(st.integers(-6, 20))
        if kind == "int":
            own_row.append(o)
        elif kind == "pair":
            x = QSeries(draw(st.dictionaries(st.integers(-4, 30), _BIG,
                                             max_size=12)),
                        draw(st.integers(-2, wp + 6) | st.just(INF)))
            own_row.append((o, x) if x.coeffs or x.prec is not INF else None)
        else:
            own_row.append(None)
    return products, own_row, wp, g, draw(st.sampled_from([None, 9, 16]))


_TOP = 2 ** 63 - 1          # the largest digit of a word of 8 bytes


@settings(max_examples=300, deadline=None)
@given(outer_steps())
# every coefficient at 2^64 and no cancellation: the digits of the packed
# sum reach its bound, and a bound without the own factor's sizes is short
@example(({v: QSeries({e: 2 ** 64 for e in range(8)}, 10) for v in range(3)},
          [(0, QSeries({e: 2 ** 64 for e in range(6)})),
           (1, QSeries({e: 2 ** 64 for e in range(-2, 4)}, 12)), 2], 12,
          1, None))
# heads that add no term below wp: one that starts at wp - 1, and an empty
# one known to t^3, which still bounds the precision of the sum
@example(({0: QSeries({0: 1}, 9), 1: QSeries({3: -5}, 7)},
          [(9, QSeries({0: 1})), (2, QSeries({}, 3))], 10, 1, None))
# digits at the full width of their word: the sum of two bare shifts, and
# of one slot times an extra, needs wider digits than the slots hold
@example(({0: QSeries({e: _TOP for e in range(8)}, 12),
           1: QSeries({e: -_TOP for e in range(-2, 8)}, 12)}, [0, 1], 12, 1,
          None))
@example(({0: QSeries({e: _TOP for e in range(0, 10, 2)}, 12)},
          [(0, QSeries({0: 2, 2: 1}))], 12, 2, None))
@example(({0: QSeries({0: 127, 1: 127}, 6), 1: QSeries({0: 127}, 6)},
          [0, 1], 6, 1, None))
# a product on the grid 2: odd offsets, and an extra with an odd exponent,
# put the sum on the grid 1
@example(({0: QSeries({0: 3, 2: -1}, 12), 1: QSeries({-2: 1, 4: 5}, 11)},
          [0, 1], 12, 2, None))
@example(({0: QSeries({0: 3, 2: -1}, 12), 1: QSeries({-2: 1, 4: 5}, 11)},
          [(0, QSeries({0: 1, 1: 1})), (2, QSeries({0: 1}))], 12, 2, None))
def test_outer_step_matches_the_own_pass_and_ring_sum(case):
    products, own_row, wp, g, nbytes = case
    got = _own_sum(as_slots(products, g, nbytes), own_row, wp)
    want = own_pass_then_sum(products, own_row, wp)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
