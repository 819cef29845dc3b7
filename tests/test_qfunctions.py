"""Pochhammer symbols, Gaussian binomials, and the triple product."""

import importlib
import pkgutil
from functools import reduce
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

import qident
from qident import bailey as B
from qident import identities as I
from qident import sumeval
from qident.bailey import _relation_kernel
from qident.errors import (DegenerateTheta, Divergent, EmptySeries,
                           NegativeIndex, NotAUnit, OutOfRange,
                           ParameterOutOfRange)
from qident.qfunctions import (NEG_ONE, ONE_M, Q, SignedMonomial as SM,
                               _binomials, inv_poch_finite,
                               inv_poch_infinite, poch_finite, poch_infinite,
                               triple_product)
from qident.series import INF, Memo, QSeries, one, packed, unpack
from qident.sumeval import _ip, multisum, summation_bound

from gf_oracle import euler_inverse, qbinom, ring_poch_infinite, theta_sum
from series_oracle import coeff, newton_invert, qcoeff


def brute_partitions(n, max_part=None):
    """Independent partition counter (no series machinery)."""
    if n == 0:
        return 1
    if max_part is None:
        max_part = n
    return sum(brute_partitions(n - p, p) for p in range(min(n, max_part), 0, -1))


def test_monomial_parse_and_text():
    assert SM.parse("q") == Q
    assert SM.parse("-1") == NEG_ONE
    assert SM.parse("1") == ONE_M
    assert SM.parse("-q^(3/2)") == SM(-1, 3)
    assert SM.parse("q^2") == SM(1, 4)
    assert SM(-1, 3).text() == "-q^(3/2)"
    assert SM(1, 4).text() == "q^2"
    assert SM(1, -1).text() == "q^(-1/2)"
    for sign in (1, -1):
        for e in range(-8, 9):
            assert SM.parse(SM(sign, e).text()) == SM(sign, e), (sign, e)
    for text in ("2q", "q^(1/3)", "q^(-1/3)", "q^--1", "q^(--1/2)"):
        with pytest.raises(ValueError):
            SM.parse(text)
    with pytest.raises(ValueError, match="sign"):
        SM(2, 1)


def test_poch_finite_examples():
    assert poch_finite(Q, 2, 0).coeffs == {0: 1}
    # (q;q)_2 = 1 - q - q^2 + q^3
    assert poch_finite(Q, 2, 2).coeffs == {0: 1, 2: -1, 4: -1, 6: 1}
    assert poch_finite(NEG_ONE, 2, 1).coeffs == {0: 2}
    with pytest.raises(NegativeIndex):
        poch_finite(Q, 2, -1)


def test_poch_finite_shift_invariant():
    for n in range(6):
        left = (poch_finite(SM(-1, 3), 2, n)
                * QSeries([(0, 1), (3 + 2 * n, 1)]))
        assert left == poch_finite(SM(-1, 3), 2, n + 1)


def test_poch_infinite_euler():
    inv = euler_inverse(41)
    for n in range(20):
        assert qcoeff(inv, n) == brute_partitions(n), n
    assert qcoeff(inv, 5) == 7


def test_inv_poch_finite_against_the_newton_inverse():
    # factor by factor, factors of negative valuation and zero factors
    # included, and at a depth the cache builds without deep recursion
    for x in (Q, SM(1, -7), SM(-1, -8), SM(-1, 3)):
        for n in range(8):
            assert inv_poch_finite(x, 3, n, 25) == newton_invert(
                poch_finite(x, 3, n), 25), (x, n)
    with pytest.raises(NotAUnit):
        inv_poch_finite(SM(-1, -6), 3, 4, 25)         # the factor 1 + 1
    with pytest.raises(EmptySeries):
        inv_poch_finite(SM(1, -6), 3, 4, 25)          # the factor 1 - 1
    inv_poch_finite.cache_clear()
    assert inv_poch_finite(Q, 2, 3000, 31) == newton_invert(
        poch_infinite(Q, 2, 31), 31)


def test_poch_infinite_edge_cases():
    assert poch_infinite(ONE_M, 2, 30).is_zero()          # (1;q) has a 0 factor
    s = poch_infinite(SM(-1, 2), 4, 30)                   # (-q; q^2)
    assert coeff(s, 0) == 1
    with pytest.raises(Divergent):
        poch_infinite(Q, 0, 30)
    with pytest.raises(Divergent):
        poch_infinite(Q, 2, float("inf"))
    with pytest.raises(Divergent, match="non-negative"):
        poch_infinite(SM(1, -2), 2, 30)


def test_orders_and_exponents_that_are_not_ints_are_refused():
    # poch_infinite and triple_product rounded the order 9.5 to 9 in
    # silence, while inv_poch_infinite refused it; a monomial took any
    # exponent and sign
    for use in (lambda: poch_infinite(Q, 2, 9.5),
                lambda: poch_infinite(Q, 2, 9.0),
                lambda: inv_poch_infinite(Q, 2, 9.5),
                lambda: triple_product(5, 2, 9.5)):
        with pytest.raises(ValueError, match="precision"):
            use()
    for sign, e in ((1, 0.5), (1, 2.0), (1, "2"), (1.0, 2), (-1.0, 2)):
        with pytest.raises(ValueError):
            SM(sign, e)


_AG = I.CATALOG["andrews_gordon"]
_SUM, _PRODUCT = _AG.lhs({"k": 2, "r": 1}), _AG.rhs({"k": 2, "r": 1})
_GG = I.CATALOG["gollnitz_gordon"].lhs({"variant": 1})
_BOUNDED = [(2, 0, None), (2, 0, None)], [(2, None)]
_SEED = B.pair_dprime4(Q, 4, 21)

# Every public entry point whose result a cache or memo keeps under the
# caller's arguments: (call of one argument, the value that warms it, the
# values equal to it that it refuses, the refusal).  A bool is no count or
# order, and the tuple (1, 2) no monomial, though each equals one.
CACHED = {
    "poch_finite x": (lambda x: poch_finite(x, 2, 3), Q, [(1, 2)],
                      ValueError),
    "poch_finite base": (lambda b: poch_finite(Q, b, 3), 2, [2.0],
                         ValueError),
    "poch_finite n": (lambda n: poch_finite(Q, 2, n), 1, [1.0, True],
                      ValueError),
    "inv_poch_finite x": (lambda x: inv_poch_finite(x, 2, 3, 9), Q,
                          [(1, 2)], ValueError),
    "inv_poch_finite n": (lambda n: inv_poch_finite(Q, 2, n, 9), 1,
                          [1.0, True], ValueError),
    "inv_poch_finite prec": (lambda p: inv_poch_finite(Q, 2, 3, p), 1,
                             [1.0, True], ValueError),
    "poch_infinite x": (lambda x: poch_infinite(x, 2, 9), Q, [(1, 2)],
                        ValueError),
    "poch_infinite base": (lambda b: poch_infinite(Q, b, 9), 2, [2.0],
                           ValueError),
    "poch_infinite prec": (lambda p: poch_infinite(Q, 2, p), 1,
                           [1.0, True], ValueError),
    "inv_poch_infinite x": (lambda x: inv_poch_infinite(x, 2, 9), Q,
                            [(1, 2)], ValueError),
    "inv_poch_infinite prec": (lambda p: inv_poch_infinite(Q, 2, p), 1,
                               [1.0, True], ValueError),
    # namedtuple's _replace skips __new__; a record's own _make does not
    "poch_infinite x by _replace": (lambda e: poch_infinite(
        SM(1, 2)._replace(e=e), 2, 9), 2, [2.0], ValueError),
    "summation_bound tprec": (lambda p: summation_bound(*_BOUNDED, p), 1,
                              [1.0, True], ValueError),
    "multisum tprec": (lambda p: multisum(*_BOUNDED, p, 3, key=[0, 0]), 1,
                       [1.0, True], ValueError),
    "multisum vmax": (lambda v: multisum(*_BOUNDED, 9, v, key=[0, 0]), 1,
                      [1.0, True], ValueError),
    "eval_sum qprec": (lambda p: I.eval_sum(_SUM, p), 1, [1.0, True],
                       ValueError),
    # a sum side's k and steps are in multisum's memo keys
    "eval_sum k": (lambda k: I.eval_sum(_SUM._replace(k=k), 4), 2, [2.0],
                   ValueError),
    "eval_sum den_step": (lambda d: I.eval_sum(_SUM._replace(den_step=d),
                                               4), 2, [2.0], ValueError),
    "eval_sum last_step": (lambda d: I.eval_sum(
        _SUM._replace(last_step=d), 4), 2, [2.0], ValueError),
    "eval_sum binom_step": (lambda b: I.eval_sum(
        _SUM._replace(binom_step=b), 4), 0, [0.0, False], ValueError),
    # every int field of a side is in a memo or cache key
    "eval_sum pervar": (lambda v: I.eval_sum(_SUM._replace(pervar=v), 4),
                        ((2, 0), (2, 2)), [((2.0, 0), (2, 2)),
                                           ((2, False), (2, 2)),
                                           ((2, 0), (2, 2.0))], ValueError),
    "eval_sum head base": (lambda b: I.eval_sum(_GG._replace(
        head=(SM(-1, 2), b)), 4), 4, [4.0], ValueError),
    "eval_product qprec": (lambda p: I.eval_product(_PRODUCT, p), 1,
                           [1.0, True], ValueError),
    "eval_product modulus": (lambda m: I.eval_product(
        _PRODUCT._replace(modulus=m), 4), 14, [14.0], ValueError),
    "eval_product term": (lambda t: I.eval_product(
        _PRODUCT._replace(terms=(t,)), 4), (1, 0, 4),
        [(1.0, 0, 4), (True, 0, 4), (1, 0.0, 4), (1, False, 4), (1, 0, 4.0)],
        ValueError),
    "eval_product num_inf base": (lambda b: I.eval_product(
        _PRODUCT._replace(num_inf=((SM(-1, 2), b),)), 4), 2, [2.0],
        ValueError),
    "eval_product den_inf base": (lambda b: I.eval_product(
        _PRODUCT._replace(den_inf=((SM(1, 2), b),)), 4), 2, [2.0],
        ValueError),
    "eval_product den_units": (lambda c: I.eval_product(
        _PRODUCT._replace(den_units=(((0, 1), (2, c)),)), 4), 1,
        [1.0, True], ValueError),
    "verify_identity qprec": (lambda p: I.verify_identity(
        "andrews_gordon", {"k": 2, "r": 1}, p), 1, [1.0, True], ValueError),
    "bailey.verify prec": (lambda p: B.verify(_SEED, p), 1, [1.0, True],
                           ValueError),
    "bailey.verify pair prec": (lambda p: B.verify(B.BaileyPair(
        *_SEED[:4], p)), 21, [21.0], ValueError),
    "run_chain prec": (lambda p: B.run_chain(_SEED, ["BL_INF"], p), 1,
                       [1.0, True], ValueError),
    "closed_alpha_star_chain prec": (lambda p: B.closed_alpha_star_chain(
        _SEED, 2, 1, 1, 2, p), 1, [1.0, True], ValueError),
    "closed_alpha_star_chain n": (lambda n: B.closed_alpha_star_chain(
        _SEED, 2, 1, 1, n, 9), 1, [1.0, True], ParameterOutOfRange),
    "closed_alpha_star_chain j": (lambda j: B.closed_alpha_star_chain(
        _SEED, 2, 1, j, 2, 9), 1, [1.0, True], ParameterOutOfRange),
}


@pytest.mark.parametrize("entry", CACHED)
def test_cached_entry_points_refuse_what_they_have_cached_an_equal_of(entry):
    # the cache is warmed first, so a lookup before the check would serve
    # the refused argument the cached result
    call, good, bad, refusal = CACHED[entry]
    call(good)
    for value in bad:
        assert value == good
        with pytest.raises(refusal):
            call(value)


def _progressions(draw, prec):
    # a progression (sign, e0, step) with step >= prec has the one factor
    # 1 - sign*t^e0 when e0 < prec, so single factors repeat freely
    sign = st.sampled_from([1, -1])
    runs = draw(st.lists(st.tuples(sign, st.integers(0, 40),
                                   st.integers(1, 40)), max_size=4))
    singles = draw(st.lists(st.tuples(sign, st.integers(0, 12)), max_size=20))
    return runs + [(s, e, 250) for s, e in singles]


@st.composite
def binomial_cases(draw):
    prec = draw(st.integers(1, 250))
    return _progressions(draw, prec), prec


def _ring(progressions, prec):
    return reduce(mul, [ring_poch_infinite(SM(s, e0), step, prec)
                        for s, e0, step in progressions], one(prec))


@settings(max_examples=300, deadline=None)
@given(binomial_cases())
# factor counts on both sides of a digit width: (1 + 1)^n = 2^n needs
# digit_bytes(2^n) bytes, and (1 + t)^n at its widest
@example(([(-1, 0, 250)] * 7, 1))
@example(([(-1, 0, 250)] * 8, 1))
@example(([(-1, 0, 250)] * 15, 3))
@example(([(-1, 0, 250)] * 16, 3))
@example(([(-1, 1, 250)] * 63, 250))
@example(([(-1, 1, 250)] * 64, 250))
@example(([(1, 1, 1)], 65))              # (t; t)_inf: 64 factors
@example(([(-1, 0, 1)], 64))             # (-1; t)_inf: 64 factors, 2 * ...
@example(([(1, 0, 250), (1, 3, 2)], 30))  # the factor 1 - 1: an exact zero
@example(([], 17))
def test_binomials_match_the_ring_product(case):
    progressions, prec = case
    got = _binomials(progressions, prec)
    want = _ring(progressions, prec)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, -1]), st.integers(0, 30), st.integers(1, 30),
       st.integers(1, 250))
@example(1, 0, 2, 30)                    # (1; q)_inf, the exact zero
def test_poch_infinite_and_triple_product_match_the_ring(sign, e, base,
                                                          prec):
    got = poch_infinite(SM(sign, e), base, prec)
    want = ring_poch_infinite(SM(sign, e), base, prec)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
    if e > 0:
        M = e + base
        got = triple_product(M, e, prec)
        want = _ring([(1, e, M), (1, base, M), (1, M, M)], prec)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


def test_an_infinite_product_needs_a_finite_order():
    for f in (lambda: _binomials([(1, 1, 1)], INF),
              lambda: triple_product(5, 2, INF)):
        with pytest.raises(Divergent):
            f()


def test_poch_splitting():
    tp = 61
    for n in (1, 3, 5):
        whole = poch_infinite(Q, 2, tp)
        split = (poch_finite(Q, 2, n) * poch_infinite(SM(1, 2 + 2 * n), 2, tp))
        assert whole.equal_up_to(split, tp) == (True, None)


def test_qbinom():
    assert qbinom(5, 0).coeffs == {0: 1}
    assert qbinom(2, 1).coeffs == {0: 1, 2: 1}            # 1 + q
    for n in range(7):
        for m in range(n + 1):
            assert qbinom(n, m) == qbinom(n, n - m)
    with pytest.raises(OutOfRange):
        qbinom(2, 3)
    # specialization at q = 1 gives binomial coefficients
    from math import comb
    assert sum(qbinom(6, 2).coeffs.values()) == comb(6, 2)


def test_finite_q_binomial_theorem():
    # sum_m q^(m^2) [n, m]_{q^2} = (-q; q^2)_n
    from qident.series import monomial, zero
    for n in range(9):
        acc = zero()
        for m in range(n + 1):
            acc = acc + monomial(1, 2 * m * m) * qbinom(n, m, base=4)
        assert acc == poch_finite(SM(-1, 2), 4, n)


def test_triple_product_symmetry_and_errors():
    for M, A in ((10, 4), (7, 2), (12, 5)):
        a = triple_product(M, A, 120)
        b = triple_product(M, M - A, 120)
        assert a.equal_up_to(b, 120) == (True, None)
    with pytest.raises(DegenerateTheta):
        triple_product(6, 6, 40)
    with pytest.raises(DegenerateTheta):
        triple_product(6, 0, 40)
    with pytest.raises(OutOfRange):
        triple_product(6, 7, 40)
    with pytest.raises(OutOfRange, match="modulus"):
        triple_product(0, 1, 40)


def test_triple_product_partition_oracle():
    # 1/(q^2, q^3; q^5) counts partitions into parts = +-2 mod 5
    tp = 81
    inv = newton_invert(poch_infinite(SM(1, 4), 10, tp)
                        * poch_infinite(SM(1, 6), 10, tp), tp)
    counts = [0] * 41
    counts[0] = 1
    for part in range(1, 41):
        if part % 5 in (2, 3):
            for w in range(part, 41):
                counts[w] += counts[w - part]
    for n in range(41):
        assert qcoeff(inv, n) == counts[n], n
    # and the triple product with (M, A) = (10, 4) carries those factors
    tp10 = triple_product(10, 4, tp)
    recon = (poch_infinite(SM(1, 4), 10, tp) * poch_infinite(SM(1, 6), 10, tp)
             * poch_infinite(SM(1, 10), 10, tp))
    assert tp10.equal_up_to(recon, tp) == (True, None)


def test_theta_sum_matches_product():
    for M in range(1, 8):
        for A in range(1, M):
            t1 = theta_sum(M, A, 100)
            t2 = triple_product(M, A, 100)
            assert t1.equal_up_to(t2, 100) == (True, None), (M, A)


def test_theta_sum_degenerate_cancels():
    assert theta_sum(4, 4, 80).is_zero()
    assert theta_sum(4, 8, 80).is_zero()
    with pytest.raises(OutOfRange):
        theta_sum(0, 1, 10)


def test_theta_sum_direct_coefficients():
    # (M, A) = (6, 2) at order 100 against the explicit bilateral formula
    got = theta_sum(6, 2, 201)
    expect = {}
    for l in range(-30, 30):
        e = 6 * l * (l - 1) // 2 + 2 * l
        if e < 201:
            expect[e] = expect.get(e, 0) + (1 if l % 2 == 0 else -1)
    expect = {e: c for e, c in expect.items() if c}
    assert got.coeffs == expect
    assert got.equal_up_to(triple_product(6, 2, 201), 201) == (True, None)


# the caches whose work one cached series.Operand per factor and
# series.packed now do, and the step that layer_product took in
_DELETED = {"identities": ("_theta_norms", "_packed_theta",
                           "_packed_prefactor"),
            "bailey": ("_kernel_shape", "_packed_kernel"),
            "sumeval": ("_ip_norms", "_ips", "_convolve")}


def test_caches_are_bounded(monkeypatch):
    # the keys include prec, so an unbounded cache grows with every order;
    # every cache of every qident module is found, none is listed by hand
    modules = {info.name: importlib.import_module(f"qident.{info.name}")
               for info in pkgutil.iter_modules(qident.__path__)}
    caches = {f for module in modules.values() for f in vars(module).values()
              if hasattr(f, "cache_info")}
    assert {_relation_kernel, packed, I._last_factor, I._triple,
            sumeval._ip} <= caches
    for f in caches:
        assert isinstance(f.cache_info().maxsize, int), f.__qualname__
    for name, gone in _DELETED.items():
        for attr in gone:
            assert not hasattr(modules[name], attr), (name, attr)
    # identities._triple caches the only caller's triple products
    assert triple_product not in caches
    # the memos of whole sums and product sides drop their least recently
    # used entries past the bound, as the layer memo does
    monkeypatch.setattr(Memo, "MAX", 2)
    sumeval._SUMS.clear()
    I._PRODUCTS.clear()
    side = I.CATALOG["andrews_gordon"].rhs({"k": 2, "r": 1})
    pervar, gaps = [(2, 0, None), (2, 0, None)], [(2, None)]
    for qprec in range(5, 10):
        multisum(pervar, gaps, qprec, summation_bound(pervar, gaps, qprec),
                 key=[0, 0])
        I.eval_product(side, qprec)
    assert len(sumeval._SUMS) == len(I._PRODUCTS) == 2
    assert [k[1] for k in I._PRODUCTS] == [8, 9]
    # the chain memo keeps one entry per step, the last two of five here
    B._CHAINS.clear()
    B.run_chain(B.unit_pair(Q, 3, 11), B.star_chain(3, 0, 0))
    assert [len(k[2]) for k in B._CHAINS] == [4, 5]
    B._CHAINS.clear()
    # the oracle's quotient memo keeps the last two quotients it used, at
    # n = 3 alpha_3 / (1 - t^14) and then alpha_2 / (1 - t^10)
    seed = B.unit_pair(Q, 3, 11)
    for n in range(4):
        B.closed_alpha_star_chain(seed, 1, 0, 0, n)
    assert [unpack(k)[0] for k in B._QUOTIENTS] == [(14, 11), (10, 11)]
    B._QUOTIENTS.clear()
    # a layer product's operand 1/(t^d; t^d)_m is packed per grid step
    # too: one operand at steps 1, 2 and 4 is three entries and three
    # values, and the packed cache stays at its bound however many keys
    # it sees
    _ip.cache_clear()
    packed.cache_clear()
    values = {packed(_ip(4, 3, 15), 1, step) for step in (1, 2, 4)}
    assert len(values) == packed.cache_info().currsize == 3
    assert _ip.cache_info().currsize == 1
    maxsize = packed.cache_info().maxsize
    for nbytes in range(1, maxsize // 3 + 3):
        for step in (1, 2, 4):
            packed(_ip(4, 3, 15), nbytes, step)
    assert packed.cache_info().currsize == maxsize
    _ip.cache_clear()
    # an operand is packed per width and built once: one relation kernel
    # at three widths is three packed entries and one operand, and the
    # packed cache stays at its bound
    _relation_kernel.cache_clear()
    packed.cache_clear()
    for nbytes in (1, 2, 3):
        packed(_relation_kernel(Q, 2, 4, 11), nbytes)
    assert _relation_kernel.cache_info().currsize == 1
    assert packed.cache_info().currsize == 3
    maxsize = packed.cache_info().maxsize
    for nbytes in range(1, maxsize + 3):
        packed(_relation_kernel(Q, 0, 0, 3), nbytes)
    assert packed.cache_info().currsize == maxsize
    _relation_kernel.cache_clear()
    packed.cache_clear()
