"""Ring arithmetic, truncation bookkeeping, and rendering of QSeries."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qident.errors import EmptySeries, NotAUnit, PrecisionExceeded
from qident.qfunctions import SignedMonomial as SM, poch_infinite
from qident.series import INF, QSeries, monomial, one, zero
from qident.series import (_NATIVE, _WORD, _mul_dict, _mul_packed,
                           kron_digits, kron_pack, kron_unpack,
                           lowest_digit, pack, read_digits, read_runs, unpack,
                           word_bytes)
from qident import identities as I
from qident import series, sumeval
from qident.sumeval import _ip, _own_pass, layer_product

from series_oracle import (coeff, double_loop_mul, from_json, min_exp,
                           newton_invert, qcoeff, scale_exponents,
                           scan_equal_up_to)


def rand_series(rng, prec=40, laurent=False, terms=12, cmax=9):
    lo = -6 if laurent else 0
    coeffs = {}
    for _ in range(terms):
        e = rng.randint(lo, prec - 1)
        coeffs[e] = rng.randint(-cmax, cmax)
    return QSeries(coeffs, prec)


def test_monomial_examples():
    assert monomial(1, 0).coeffs == {0: 1}
    assert monomial(-1, 2).coeffs == {2: -1}       # -q
    assert monomial(2, 1).coeffs == {1: 2}         # 2 q^(1/2)
    assert monomial(0, 5).is_zero()


def test_basic_ring_examples():
    geom = QSeries({0: 1, 2: -1}).invert(30)       # 1/(1-q)
    assert all(qcoeff(geom, n) == 1 for n in range(15))
    assert (QSeries({0: 1, 2: -1}) * geom).truncate(30).coeffs == {0: 1}
    s = rand_series(random.Random(1))
    assert (s + (-s)).is_zero()
    sq = QSeries({0: 1, 2: 1}) * QSeries({0: 1, 2: 1})
    assert sq.coeffs == {0: 1, 2: 2, 4: 1}         # (1+q)^2
    with pytest.raises(ValueError, match="invert"):
        QSeries({0: 1, 2: 1}) ** -1


def test_pair_list_constructor_accumulates():
    assert QSeries([(0, 1), (0, 1)]).coeffs == {0: 2}
    assert QSeries([(3, 1), (3, -1)]).is_zero()
    # outside input is cleaned: zeros and terms at or above prec; a float
    # prec is refused, even a whole one, and a float infinity is INF
    s = QSeries([(0, 1), (2, 0), (4, 3), (4, -3), (6, 5), (9, 1)], 8)
    assert (s.coeffs, s.prec) == ({0: 1, 6: 5}, 8) and type(s.prec) is int
    with pytest.raises(ValueError, match="precision"):
        QSeries([(0, 1)], 8.0)
    assert QSeries({0: 1}, float("inf")).prec is INF


def test_constructor_refuses_what_is_not_an_int():
    # each of these was once rounded toward zero, or lost a term, in silence
    for coeffs, prec in [({1.5: 1}, INF), ({2: 2.7}, INF),
                         ({0: Fraction(1, 2)}, INF), ([(0, 1), (0.5, 1)], INF),
                         ({0: 1}, 5.5), ({0: 1}, "5"), ({0: 1}, -INF)]:
        with pytest.raises(ValueError):
            QSeries(coeffs, prec)
    s = QSeries({0: 1, 2: 1})
    for use in (lambda: s.truncate(5.5), lambda: s.divide(s, 5.5),
                lambda: s.equal_up_to(s, 0.5)):
        with pytest.raises(ValueError, match="precision"):
            use()
    # a shift by half a step gave exponents 1.5 and 4.5 and precision 10.5
    for delta in (0.5, 2.0, Fraction(1, 2), "1"):
        with pytest.raises(ValueError, match="shift"):
            QSeries({1: 3, 4: -2}, 10).shift(delta)


def test_invert_examples():
    inv = QSeries({0: 1, 2: 1}).invert(20)         # 1/(1+q)
    assert [qcoeff(inv, n) for n in range(6)] == [1, -1, 1, -1, 1, -1]
    lau = QSeries({2: 1, 4: -1}).invert(20)        # 1/(q(1-q))
    assert min_exp(lau) == -2
    assert coeff(lau, -2) == 1 and coeff(lau, 0) == 1
    with pytest.raises(NotAUnit):
        QSeries({0: 2, 2: 1}).invert(10)           # 2+q not invertible over Z
    with pytest.raises(EmptySeries):
        zero(10).invert(10)
    with pytest.raises(ValueError):
        one().invert()                             # exact series needs a cap


def test_invert_two_sided():
    rng = random.Random(7)
    for _ in range(25):
        s = rand_series(rng, laurent=True)
        m = min(s.coeffs) if s.coeffs else 0
        u = QSeries({**s.coeffs, m - 1: 1}, s.prec)  # force unit lead
        inv = u.invert(30)
        p = min(inv.prec, 30)
        assert (u * inv).truncate(p).coeffs == {0: 1}
        assert (inv * u).truncate(p).coeffs == {0: 1}


def test_scale_exponents():
    assert scale_exponents(QSeries({0: 1, 2: 1}), 2).coeffs == {0: 1, 4: 1}
    assert scale_exponents(monomial(1, 1), 2).coeffs == {2: 1}
    s = QSeries({0: 1, 2: -1, 6: 1})
    assert scale_exponents(s, 3).coeffs == {0: 1, 6: -1, 18: 1}
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand_series(rng), rand_series(rng)
        assert (scale_exponents(a * b, 2)
                == scale_exponents(a, 2) * scale_exponents(b, 2))
        assert (scale_exponents(a + b, 2)
                == scale_exponents(a, 2) + scale_exponents(b, 2))
    with pytest.raises(ValueError):
        scale_exponents(s, 0)


def test_coeff_and_equal_up_to():
    s = QSeries({0: 1, 4: 3}, 20)
    assert coeff(s, 4) == 3 and qcoeff(s, 2) == 3
    assert coeff(s, 7) == 0
    with pytest.raises(PrecisionExceeded):
        coeff(s, 20)
    assert s.equal_up_to(s, 20) == (True, None)
    t = s + monomial(1, 6, 20)
    assert s.equal_up_to(t, 20) == (False, 6)
    with pytest.raises(PrecisionExceeded):
        s.equal_up_to(t, 21)


@st.composite
def comparable_pairs(draw):
    """(a, b, p): b is a, a copy of it, or a with terms changed below p, at
    p or above; both known to p at least."""
    a = draw(any_series)
    top = max(a.coeffs, default=0) + 1
    p = draw(st.integers(top - 12, top + 12))
    if a.prec is not INF and p > a.prec:
        p = a.prec
    changes = draw(st.dictionaries(st.integers(p - 10, p + 10),
                                   st.integers(-3, 3), max_size=3))
    b = QSeries({**a.coeffs, **changes}, a.prec if a.prec is INF
                else a.prec + draw(st.integers(0, 5)))
    return draw(st.sampled_from([(a, a, p), (a, b, p), (b, a, p)]))


@settings(max_examples=200, deadline=None)
@given(comparable_pairs(), st.integers(0, 3))
@example((QSeries({0: 1}, 5), QSeries({0: 1, 5: 2}, 6), 5), 0)
@example((QSeries({0: 1, 5: 2}, 6), QSeries({0: 1}, 5), 5), 0)
@example((QSeries({0: 1, 3: 2}, 6), QSeries({0: 1, 3: 1}, 6), 4), 0)
def test_equal_up_to_matches_the_exponent_scan(case, past):
    # equal dicts, dicts that differ only at or above p, and dicts that
    # differ below it; p past an operand's precision raises as the scan does
    a, b, p = case
    p += past
    try:
        want = scan_equal_up_to(a, b, p)
    except PrecisionExceeded:
        with pytest.raises(PrecisionExceeded):
            a.equal_up_to(b, p)
        return
    assert a.equal_up_to(b, p) == want


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-9, 30), st.integers(-2**70, 2**70)
                       .filter(bool), min_size=1, max_size=1),
       st.dictionaries(st.integers(-9, 30), st.integers(-2**70, 2**70)
                       .filter(bool), max_size=12),
       st.none() | st.integers(-12, 40), st.booleans())
@example({-3: 2}, {1: 5, 9: -1, -4: 3}, 4, False)
def test_one_term_operand_matches_the_double_loop(one_term, other, cap, flip):
    # a monomial on either side, negative exponents, a cap that cuts terms
    cap = INF if cap is None else cap
    da, db = (other, one_term) if flip else (one_term, other)
    got = _mul_dict(da, db, cap)
    want = double_loop_mul(da, db, cap)
    assert got == want and list(got) == list(want)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(20):
        a, b, c = (rand_series(rng, laurent=True) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def _series_st(small: bool, unit: bool = False):
    """Laurent series of up to 8 terms, or of 40-60 terms (two of those make
    a product past the packed-multiply threshold of 1500 term pairs), with
    a finite precision above the top term or exact."""
    size = (1, 8) if small else (40, 60)
    coeff = st.integers(-2**70, 2**70).filter(bool)

    def build(lo, coeffs, lead, slack):
        if unit:
            coeffs = {e: c for e, c in coeffs.items() if e > 0}
            coeffs[0] = lead
        coeffs = {e + lo: c for e, c in coeffs.items()}
        top = max(coeffs, default=lo)
        return QSeries(coeffs, INF if slack is None else top + 1 + slack)

    return st.builds(build, st.integers(-6, 6),
                     st.dictionaries(st.integers(0, 90), coeff,
                                     min_size=size[0], max_size=size[1]),
                     st.sampled_from([1, -1]),
                     st.none() | st.integers(0, 30))


any_series = _series_st(True) | _series_st(False)


@settings(max_examples=60, deadline=None)
@given(any_series, any_series, any_series)
def test_ring_laws_hold_on_both_multiply_paths(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    # a cancellation in b + c can raise its valuation, and so the precision
    # of a * (b + c): compare below the lower of the two
    left, right = a * (b + c), a * b + a * c
    assert left.equal_up_to(right, min(left.prec, right.prec)) == (True, None)


@settings(max_examples=40, deadline=None)
@given(_series_st(True, unit=True) | _series_st(False, unit=True),
       st.integers(1, 120))
def test_series_times_its_inverse_is_one(s, prec):
    p = s * s.invert(prec)
    assert p.equal_up_to(one(), p.prec) == (True, None)


def _binomial_product(factors, shift, sign):
    """sign * t^shift * prod (1 - s*t^e) over the (s, e) factors, exact."""
    out = monomial(sign, shift)
    for s, e in factors:
        out = out * QSeries([(0, 1), (e, -s)])
    return out


binomial_divisors = st.builds(
    _binomial_product,
    st.lists(st.tuples(st.sampled_from([1, -1]),
                       st.integers(-8, 12).filter(bool)), max_size=6),
    st.integers(-4, 4), st.sampled_from([1, -1]))


@st.composite
def unit_divisors(draw):
    """Products of binomials with exponents of both signs, exact or
    truncated, and truncated infinite products."""
    if draw(st.booleans()):
        d = draw(binomial_divisors)
        if draw(st.booleans()):
            d = d.truncate(min(d.coeffs) + draw(st.integers(1, 60)))
        return d
    return poch_infinite(SM(draw(st.sampled_from([1, -1])),
                            draw(st.integers(1, 6))),
                         draw(st.integers(1, 6)), draw(st.integers(1, 80)))


@settings(max_examples=150, deadline=None)
@given(any_series, unit_divisors(), st.none() | st.integers(1, 120))
def test_divide_matches_the_newton_inverse(x, d, prec):
    if d.prec is INF and prec is None:
        with pytest.raises(ValueError):
            x.divide(d, prec)
        return
    got = x.divide(d, prec)
    want = x * newton_invert(d, prec)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


@settings(max_examples=80, deadline=None)
@given(any_series, st.sampled_from([2, -2]), st.integers(-5, 5),
       st.booleans(), st.integers(1, 120))
def test_divide_by_two_times_a_monomial(x, c, e, even, prec):
    # the collision case of b - aq^l: exact only where 2 divides every
    # coefficient the quotient reads
    if even:
        x = 2 * x
    unit = x * newton_invert(monomial(c // 2, e), prec)
    if all(v % 2 == 0 for v in unit.coeffs.values()):
        got = x.divide(monomial(c, e), prec)
        assert got.coeffs == {k: v // 2 for k, v in unit.coeffs.items()}
        assert got.prec == unit.prec
    else:
        with pytest.raises(NotAUnit):
            x.divide(monomial(c, e), prec)


def assert_canonical(r):
    """The stored form the ring operations promise (series module
    docstring): cleaning it again changes nothing."""
    assert r.prec is INF or type(r.prec) is int
    assert all(type(e) is int and e < r.prec and type(c) is int and c
               for e, c in r.coeffs.items())
    clean = QSeries(r.coeffs, r.prec)
    assert (clean.coeffs, clean.prec) == (r.coeffs, r.prec)


@settings(max_examples=100, deadline=None)
@given(any_series, any_series, st.integers(-3, 3), st.integers(-9, 9),
       st.integers(1, 3), st.integers(0, 3), st.integers(-10, 100))
# a sum at unequal precisions: the finer operand's t^8 is unknown at prec 4
@example(QSeries({0: 1, 8: 3}, 10), QSeries({0: 2}, 4), 0, 0, 1, 0, 0)
# exact times exact: INF + 0 is a new float, the product's prec is INF
@example(QSeries({0: 1}), QSeries({1: 1}), 0, 0, 1, 2, 0)
def test_ring_results_are_canonical(a, b, scalar, delta, s, n, cut):
    for r in (a + b, b + a, a - b, -a, a * b, b * a, a * a, scalar * a,
              a * scalar, a.shift(delta), a.truncate(cut),
              scale_exponents(a, s), a ** n):
        assert_canonical(r)


@settings(max_examples=100, deadline=None)
@given(any_series, unit_divisors(), st.integers(1, 120))
# (1 - q^2) / (1 - q) = 1 + q: every quotient term from t^3 on is zero
@example(QSeries({0: 1, 4: -1}), QSeries({0: 1, 2: -1}), 20)
@example(zero(), QSeries({0: 1, 2: -1}), 20)
def test_quotients_are_canonical(x, d, prec):
    assert_canonical(x.divide(d, prec))


def _one_layer(layer, own_row, gap, wp):
    """One layer of ``multisum``'s pass: ``layer_product`` up to the last v
    of own_row, then the own pass."""
    return _own_pass(layer_product(layer, len(own_row) - 1, gap, wp),
                     own_row, wp)


def _layer_series(wp):
    return _series_st(True) | st.builds(zero, st.integers(1, wp))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 60), st.sampled_from([1, 2]),
       st.sampled_from([None, 1, 2]))
def test_convolve_layer_results_are_canonical(data, wp, den_step, b):
    n = data.draw(st.integers(1, 6))
    layer = data.draw(st.dictionaries(st.integers(0, n - 1), _layer_series(wp),
                                      min_size=1))
    own_row = data.draw(st.lists(
        st.none() | st.tuples(st.integers(-6, 30), st.none())
        | st.tuples(st.integers(-6, 30), _series_st(True)),
        min_size=n, max_size=n))
    for s in _one_layer(layer, own_row, (den_step, b), wp).values():
        assert_canonical(s)


def test_convolve_layer_claims_no_order_above_wp():
    # an exact L_0 = t + t^3 at wp = 3 under the shift t^-2: T_0 is packed
    # below wp only, so the result is t^-1 + O(t), not t^-1 + O(t^2) with
    # the t^1 term missing; with L_0 = t alone at wp = 1 nothing is read
    assert _one_layer({0: QSeries({1: 1, 3: 1})}, [(-2, None)], (1, None),
                      3) \
        == {0: QSeries({-1: 1}, 1)}
    assert _one_layer({0: QSeries({1: 1})}, [(-1, None)], (1, None), 1) \
        == {0: zero(0)}


def _grid_layers(wp):
    """Two layers, each on the plain grid or with its exponents doubled, so
    that both grid steps 1 and 2 occur."""
    def on_grid(g):
        return _layer_series(wp).map(lambda s: QSeries(
            {g * e: c for e, c in s.coeffs.items()}, s.prec))
    layer = st.sampled_from([1, 2]).flatmap(lambda g: st.dictionaries(
        st.integers(0, 5), on_grid(g), min_size=1))
    return st.tuples(st.just(wp), st.lists(layer, min_size=2, max_size=2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60).flatmap(_grid_layers), st.sampled_from([1, 2]),
       st.sampled_from([None, 1, 2]))
# two layers whose tables share every key part but the grid step (2, then 1)
@example((10, [{0: QSeries({1: 1}, 10)}, {0: QSeries({1: 1, 2: 1}, 10)}]),
         2, None)
def test_convolve_layer_is_the_same_on_a_cold_and_a_warm_cache(case,
                                                              den_step, b):
    # each operand 1/(t^d; t^d)_m, whose norms set the digit width, is
    # built once per (d, m, wp) whatever the grid step; one built for one
    # layer must serve every other layer with that key unchanged
    wp, layers = case
    own_row = [(0, None)] * 6
    cold = []
    for layer in layers:
        _ip.cache_clear()
        cold.append(_one_layer(layer, own_row, (den_step, b), wp))
    for order in (1, -1):       # the second pass finds every operand built
        misses = _ip.cache_info().misses
        warm = [_one_layer(layer, own_row, (den_step, b), wp)
                for layer in layers[::order]][::order]
        assert warm == cold
    assert _ip.cache_info().misses == misses


@pytest.mark.skipif(sys.byteorder != "little", reason="big-endian host")
def test_kron_pack_takes_the_native_path_at_word_widths():
    assert sorted(_NATIVE) == [1, 2, 4, 8]
    # odd widths are widened to the next native word
    assert _WORD == {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 4]))
def test_kron_pack_and_unpack_match_int_arithmetic(data, step):
    # every example checks every width: 1, 2, 4 and 8 read and write native
    # words, 3, 5, 6 and 7 the next wider word, 9 one digit at a time; the
    # extreme digits +-(2^(8n-1) - 1) are drawn often.  Exponents lie on a
    # lattice of the drawn step, one digit per lattice point.
    for nbytes in range(1, 10):
        _check_kron_round_trip(data, nbytes, step)


@settings(max_examples=300, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 80), st.integers(1, 9),
       st.integers(0, 40) | st.just(INF))
# a stop on the grid, one off it, and one below the base with a cap
@example(0, 4, 2, INF)
@example(3, 8, 2, INF)
@example(5, 2, 1, 3)
def test_digit_count_is_the_grid_below_stop(base, stop, step, n):
    # the one digit count of the codec: the exponents base + step*i below
    # stop, at most n, for stops at or below base and off the grid
    want = len(range(base, stop, step))
    assert series.digit_count(base, stop, step, n) == min(n, want)
    if n is INF:
        assert series.digit_count(base, stop, step) == want


def _poly(x, coeffs):
    return sum(c * x ** i for i, c in enumerate(coeffs))


def _check_kron_round_trip(data, nbytes, step):
    top = (1 << (8 * nbytes - 1)) - 1
    digit = st.sampled_from([top, -top, 0, 1, -1]) | st.integers(-top, top)
    digits = data.draw(st.lists(digit, min_size=1, max_size=40))
    nd = len(digits)
    X = 1 << (8 * nbytes)

    # one series from a low that need not be 0 (digit i at exponent low +
    # step*i), with a term at the grid point of digit nd that is left out:
    # the stops in (low + step*(nd - 1), low + step*nd] all leave it out,
    # a stop at or below low packs nothing, and without that term the
    # highest digit is counted from the highest term
    low = data.draw(st.integers(-9, 9))
    coeffs = {low + step * i: d for i, d in enumerate(digits) if d}
    coeffs[low + step * nd] = 1
    end = low + step * (nd - 1) + data.draw(st.integers(1, step))
    assert kron_pack(coeffs, low, end, nbytes, step) == _poly(X, digits)
    del coeffs[low + step * nd]     # the highest term below an INF stop
    assert kron_pack(coeffs, low, INF, nbytes, step) == _poly(X, digits)
    assert kron_pack(coeffs, low, low - data.draw(st.integers(0, 3)),
                     nbytes, step) == 0

    # spans may skip digits, overlap and come in any order; the coefficients
    # at or above the last digit read are arbitrary
    spans = [(start, start + data.draw(st.integers(0, nd - start)),
              data.draw(st.integers(-9, 9)))
             for start in data.draw(st.lists(st.integers(0, nd), max_size=4))]
    stop = max((s for _, s, _ in spans), default=0)
    h = digits[:stop] + data.draw(st.lists(st.integers(-X ** 3, X ** 3),
                                           max_size=3))
    want = [{base + step * (i - start): digits[i]
             for i in range(start, stop) if digits[i]}
            for start, stop, base in spans]
    # several spans are read_digits of the word buffer of kron_digits;
    # kron_unpack reads one span from digit 0, below a stop exponent on the
    # grid or off it: the stops in (base + step*(stop - 1), base +
    # step*stop] all take stop digits
    buf = kron_digits([(_poly(X, h), stop)], nbytes)
    assert len(buf) == stop * word_bytes(nbytes)
    assert read_digits(buf, nbytes, spans, step) == want
    base = data.draw(st.integers(-9, 9))
    end = base + step * (stop - 1) + data.draw(st.integers(1, step))
    assert kron_unpack(_poly(X, h), nbytes, base, end, step) == {
        base + step * i: digits[i] for i in range(stop) if digits[i]}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_runs_of_a_digit_buffer_match_int_arithmetic(data):
    # kron_digits of several runs, read_runs and lowest_digit on its
    # buffers, at every digit width from 1 to 10 bytes: native words,
    # widened words and the byte-wise path
    for nbytes in range(1, 11):
        _check_runs(data, nbytes)


def _check_runs(data, nbytes):
    top = (1 << (8 * nbytes - 1)) - 1
    digit = st.sampled_from([top, -top, 0, 1, -1]) | st.integers(-top, top)
    # a run of zeros at the front, so that some runs are all zero and some
    # start with zeros
    lead = data.draw(st.integers(0, 4))
    digits = [0] * lead + data.draw(st.lists(digit, min_size=1, max_size=30))
    nd = len(digits)
    X = 1 << (8 * nbytes)
    w = word_bytes(nbytes)
    # sorted cuts: adjacent runs, and an empty run at each repeated cut
    cuts = sorted(data.draw(st.lists(st.integers(0, nd), min_size=2,
                                     max_size=6)) + [lead])
    runs = list(zip(cuts, cuts[1:]))
    # a width of 0 (the word), the word, or wider; digits 1, 2 or 4 apart
    width = data.draw(st.sampled_from([0, w]) | st.integers(w + 1, w + 9))
    spread = data.draw(st.sampled_from([1, 2, 4]))
    Z = 1 << (8 * (width or w) * spread)
    # each run taken from its own integer, whose digits from its end on
    # are arbitrary, and the runs joined
    joined = [d for a, b in runs for d in digits[a:b]]
    tails = data.draw(st.lists(st.integers(-X ** 3, X ** 3),
                               min_size=len(runs), max_size=len(runs)))
    assert read_digits(kron_digits([(_poly(X, digits[a:b])
                                      + tail * X ** (b - a), b - a)
                                     for (a, b), tail in zip(runs, tails)],
                                    nbytes), nbytes,
                       [(0, len(joined), 0)]) == [
        {i: d for i, d in enumerate(joined) if d}]
    buf = kron_digits([(_poly(X, digits), nd)], nbytes)
    assert read_runs(buf, nbytes, runs, width, spread) == [
        _poly(Z, digits[a:b]) for a, b in runs]
    assert read_runs(buf, nbytes, runs) == [
        _poly(1 << (8 * w), digits[a:b]) for a, b in runs]
    for a, b in runs + [(0, lead), (0, nd)]:
        assert lowest_digit(buf, nbytes, a, b) == next(
            (i - a for i in range(a, b) if digits[i]), None)


@pytest.mark.parametrize("den_step", [2, 4])
def test_layer_operands_pack_one_digit_per_grid_point(monkeypatch,
                                                      den_step):
    # a layer on the grid den_step*Z: each L_u packs one digit per grid
    # point from its lowest exponent below best_u = wp, and nothing else is
    # packed, as each 1/(t^d; t^d)_m enters by shift-adds, not as an
    # operand, even with the operand caches cold
    wp = 21
    layer = {0: QSeries({0: 1, den_step: 3}, wp),
             1: QSeries({den_step: -1, 2 * den_step: 5}, wp)}
    calls = []
    real = series.kron_pack

    def spy(coeffs, low, stop, nbytes, step=1):
        top = min(stop, max(coeffs) + 1) if coeffs else low
        calls.append((len(range(low, top, step)), step))
        return real(coeffs, low, stop, nbytes, step)

    for module in (series, sumeval):
        monkeypatch.setattr(module, "kron_pack", spy)
    _ip.cache_clear()
    series.packed.cache_clear()
    _one_layer(layer, [(0, None)] * 4, (den_step, None), wp)
    assert series.packed.cache_info().currsize == 0
    # L_0 and L_1, two grid points each
    assert calls == [(2, den_step)] * 2


# What the memos store: plain data and series with coefficients of either
# sign up to 2^70, exact series, and zero series that carry only a precision.
plain_data = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=8)


@st.composite
def memo_series(draw):
    coeff = st.integers(-2 ** 70, 2 ** 70) | st.integers(-3, 3)
    prec = draw(st.integers(-6, 60) | st.just(INF))
    lo = draw(st.integers(-6, 30))
    terms = draw(st.dictionaries(st.integers(0, 16), coeff, max_size=9))
    return QSeries({lo + j: c for j, c in terms.items()}, prec)


@settings(max_examples=150, deadline=None)
@given(plain_data, st.lists(memo_series(), max_size=6))
@example(None, [])
@example([0, 3], [zero(7), QSeries({-2: -(2 ** 65), 4: 1}, 9)])
@example([1, 2], [QSeries({3: 2 ** 64, 4: -1}), zero(12)])
@example((1, 3, 9), [one(), monomial(-1, 3, 9), one(9), zero()])
def test_pack_round_trip(data, series):
    back_data, back = unpack(pack(data, series))
    assert back_data == data and len(back) == len(series)
    for i, (got, s) in enumerate(zip(back, series)):
        assert (got.coeffs, got.prec) == (s.coeffs, s.prec), i
        # QSeries tests ``prec is INF``, so INF must come back itself
        assert (got.prec is INF) == (s.prec is INF), i


def test_divide_edge_cases():
    x = QSeries({-2: 3, 0: 1, 5: -4}, 30)
    for z in (zero(10), zero()):
        with pytest.raises(EmptySeries):
            x.divide(z, 20)
    with pytest.raises(NotAUnit):
        one().divide(QSeries({0: 2, 2: 1}), 10)
    # 2 divides the whole quotient of 2 + 2q by 2 - 2q, not of 1 by it
    two = QSeries({0: 2, 2: -2})
    assert QSeries({0: 2, 2: 2}).divide(two, 9).coeffs == {
        0: 1, 2: 2, 4: 2, 6: 2, 8: 2}
    # an exact zero stays exact; a truncated one keeps its order honest
    assert zero().divide(two, 9) == zero()
    assert zero(6).divide(QSeries({-2: 1, 0: 1}), 20).prec == 8


def test_mul_precision_guards_unknown_terms():
    # 1 + O(q^2): multiplying by q^-1 must not claim exponents >= 2 - 1
    a = QSeries({0: 1}, 4)
    b = monomial(1, -2)
    assert (a * b).prec == 2
    # zero series keeps its truncation honesty
    z = zero(6)
    assert (z * monomial(1, -4)).prec == 2


def test_packed_mul_matches_dict_mul():
    rng = random.Random(5)
    for cmax in [10**9] * 12 + [2**300] * 3:    # the second: beyond 64 bits
        da = {rng.randint(-10, 120): rng.randint(-cmax, cmax) for _ in range(80)}
        db = {rng.randint(-10, 120): rng.randint(-cmax, cmax) for _ in range(70)}
        da = {e: c for e, c in da.items() if c}
        db = {e: c for e, c in db.items() if c}
        cap = 160
        packed = _mul_packed(da, db, cap)
        assert packed is not None
        assert packed == _mul_dict(da, db, cap)


# Operands: coefficients of mixed signs up to 2^70, with one term, several
# or none, truncated or exact; and the exact-zero prefactor F of a product
# side holding (1; q)_inf.
_operands = st.one_of(
    st.builds(lambda coeffs, prec: QSeries(coeffs, INF if prec is None
                                           else prec),
              st.dictionaries(st.integers(-6, 30),
                              st.integers(-2 ** 70, 2 ** 70), max_size=8),
              st.none() | st.integers(-4, 40)),
    st.builds(lambda e, c: QSeries({e: c}), st.integers(-6, 30),
              st.integers(-2 ** 70, 2 ** 70).filter(bool)),
    st.just(I._prefactor(((SM(1, 0), 2),), (), (), 21).series))


@settings(max_examples=200, deadline=None)
@given(_operands, _operands)
@example(QSeries({0: 1, 1: 1}), QSeries({0: 1, 1: 1}))
@example(QSeries({0: 2 ** 70, 1: -(2 ** 70)}),
         QSeries({0: -(2 ** 70), 3: 2 ** 70}))
def test_operand_and_product_bound_match_int_arithmetic(a, b):
    # an operand's lowest exponent, stop and norms, and the bound of
    # series.product_bound on every coefficient of the product, against
    # plain int loops; at the width of that bound the product of the
    # packed operands reads back as the product
    x, y = series.Operand(a), series.Operand(b)
    for op, s in ((x, a), (y, b)):
        assert (op.series, op.stop) == (s, s.prec)
        assert op.low == (min(s.coeffs) if s.coeffs else s.prec)
        assert op.norms == (max(map(abs, s.coeffs.values()), default=0),
                            sum(map(abs, s.coeffs.values())))
    want = {}
    for e, c in a.coeffs.items():
        for f, d in b.coeffs.items():
            want[e + f] = want.get(e + f, 0) + c * d
    bound = series.product_bound(x.norms, y.norms)
    assert all(abs(c) <= bound for c in want.values())
    if a.coeffs and b.coeffs:
        nbytes = series.digit_bytes(bound)
        h = series.packed(x, nbytes) * y.pack(nbytes)
        assert h == x.pack(nbytes) * series.packed(y, nbytes)
        low = x.low + y.low
        assert kron_unpack(h, nbytes, low, max(want) + 1) == {
            e: c for e, c in want.items() if c}
    else:       # an empty operand packs to 0
        assert bound == 0 and 0 in (x.pack(1) if not a.coeffs else None,
                                    y.pack(1) if not b.coeffs else None)


def test_pow():
    s = QSeries({0: 1, 2: 1})
    assert s ** 0 == one()
    assert s ** 3 == s * s * s


def test_text_and_json():
    s = QSeries({2: -1, 0: 1}, 10)
    assert s.text() == "1*q^(0/2) + -1*q^(2/2) + O(q^(10/2))"
    assert zero(INF).text() == "0"
    blob = s.to_json()
    assert blob == {"prec": 10, "terms": [[0, "1"], [2, "-1"]]}
    assert from_json(blob) == s
    exact = monomial(3, 4)
    assert exact.to_json()["prec"] is None
    assert from_json(exact.to_json()) == exact


def test_immutability():
    s = one()
    with pytest.raises(AttributeError):
        s.prec = 5
