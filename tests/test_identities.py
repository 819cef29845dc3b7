"""Catalog rows, evaluators, parameter validation, and reduction relations."""

import concurrent.futures
import hashlib
import json
import marshal
import os
import random
import signal
import tracemalloc
from itertools import combinations

import pytest

from qident import identities as I
from qident import series, sumeval
from qident.errors import (CatalogRangeError, InvalidParameters,
                           PrecisionExceeded)
from qident.qfunctions import (Q, SignedMonomial as SM, inv_poch_finite,
                               inv_poch_infinite, poch_finite, poch_infinite,
                               triple_product)
from qident.series import QSeries, monomial, one, zero

from catalog_helpers import rhs_series
from gf_oracle import qbinom, ring_product_side
from product_sides import QPRECS, SIDES
from series_oracle import qcoeff

def gap_partition_count(n, k=1, max_ones=None):
    """Partitions of n with lambda_i - lambda_{i+k} >= 2 via frequency
    sequences: adjacent frequency sums bounded by k; independent oracle."""
    if max_ones is None:
        max_ones = k

    def rec(i, prev, left):
        if left == 0:
            return 1
        if i > left:
            return 0
        total = 0
        cap = k - prev if i != 1 else min(k - prev, max_ones)
        for v in range(0, cap + 1):
            if i * v > left:
                break
            total += rec(i + 1, v, left - i * v)
        return total

    return rec(1, 0, n)


def test_rogers_ramanujan_spot_values():
    # q^10 coefficient on both sides equals the gap >= 2 partition count
    count = gap_partition_count(10, k=1, max_ones=1)
    assert count == 6
    lhs = I.lhs_series("rogers_ramanujan", {"a": 1}, 15)
    rhs = rhs_series("rogers_ramanujan", {"a": 1}, 15)
    assert qcoeff(lhs, 10) == qcoeff(rhs, 10) == count


def test_andrews_gordon_vs_gap_oracle():
    # AG (k, r): coefficients count partitions with f_i + f_{i+1} <= k,
    # f_1 <= k - r
    for (k, r) in ((1, 1), (2, 1), (2, 2), (3, 2)):
        lhs = I.lhs_series("andrews_gordon", {"k": k, "r": r}, 14)
        for n in range(13):
            assert qcoeff(lhs, n) == gap_partition_count(n, k, k - r), (k, r, n)


def test_ag_k1_is_rogers_ramanujan():
    for a, r in ((1, 0), (0, 1)):
        ag = I.lhs_series("andrews_gordon", {"k": 1, "r": r}, 30)
        rr = I.lhs_series("rogers_ramanujan", {"a": a}, 30)
        assert ag.equal_up_to(rr, 61) == (True, None)


def test_validation_errors():
    for name, params in I.catalog_rows(4):
        I._spec(name, params)
    I._spec("stanton_31", {"k": 3, "r": 1, "j": 2, "T": (2, 1)})  # any order
    rejected = [
        ("andrews_gordon", {"k": 0, "r": 0}),                     # k = 0
        ("bressoud_33", {"k": 0, "j": 0}),
        ("stanton_32", {"k": 0, "r": 0, "j": 0}),
        ("andrews_gordon", {"k": 2, "r": 3}),                     # r = k + 1
        ("andrews_gordon", {"k": "2", "r": 0}),                   # a str
        ("stanton_32", {"k": 1, "r": 1, "j": 1}),                 # r + j > k
        ("new_slater2", {"k": 2, "r": 0, "j": 1}),                # r = 0
        ("stanton_31", {"k": 2, "r": 0, "j": 1, "T": (1, 1)}),    # repeat
        ("stanton_31", {"k": 3, "r": 1, "j": 1, "T": (3,)}),      # outside
        ("binom_bgg", {"k": 3, "r": 0, "j": 2, "T": (0, 1)}),     # outside
        ("stanton_41", {"k": 3, "r": 1, "j": 2, "T": (1,)}),      # size
        ("rogers_ramanujan", {"a": 2}),
        ("gollnitz_gordon", {"variant": 3}),
        ("nope", {}),
    ]
    for name, params in rejected:
        with pytest.raises(InvalidParameters, match=name):
            I.verify_identity(name, params, 10)
    with pytest.raises(InvalidParameters, match="'j'"):
        I.verify_identity("andrews_gordon", {"k": 2, "r": 1, "j": 5}, 10)
    with pytest.raises(InvalidParameters, match="andrews_gordon takes"):
        I.verify_identity("andrews_gordon", {"k": 2}, 10)     # not KeyError


def test_subset_rows_validate_without_scanning_the_grid():
    # the grid of a subset row has about 2^(k+1) points at k = 40; a scan
    # of it would not finish, so the alarm turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("subset validation scanned the grid")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for name in ("stanton_31", "stanton_41", "binom_kursungoz",
                     "binom_bgg"):
            I._spec(name, {"k": 40, "r": 3, "j": 3, "T": (37, 1, 20)})
            for T in ((1, 20, 38), (1, 1, 2), (1, 2), (0, 1, 2)):
                with pytest.raises(InvalidParameters, match=name):
                    I._spec(name, {"k": 40, "r": 3, "j": 3, "T": T})
            with pytest.raises(InvalidParameters, match=name):
                I._spec(name, {"k": 40, "r": 38, "j": 3, "T": (1, 2, 3)})
        # (r, j) = (39, 1) has one row, T = (1,)
        with pytest.raises(InvalidParameters, match="stanton_31"):
            I._spec("stanton_31", {"k": 40, "r": 39, "j": 1, "T": (2,)})
        rep = I.verify_identity("stanton_31",
                                {"k": 40, "r": 39, "j": 1, "T": (1,)}, 5)
        assert rep.equal
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_verify_refuses_a_side_shorter_than_the_requested_order(monkeypatch):
    full = I.eval_sum
    monkeypatch.setattr(I, "eval_sum", lambda side, qprec:
                        full(side, qprec).truncate(I.tgrid(qprec) - 2))
    with pytest.raises(PrecisionExceeded, match="compare order 41 exceeds"):
        I.verify_identity("andrews_gordon", {"k": 2, "r": 1}, 20)


def test_subset_variants():
    reports = [I.verify_identity("stanton_31",
                                 {"k": 4, "r": 1, "j": 2, "T": T}, 25)
               for T in combinations(I._subset_universe(4, 1), 2)]
    assert len(reports) == 3  # subsets of {1,2,3} of size 2
    assert all(rep.equal for rep in reports)
    with pytest.raises(InvalidParameters, match="andrews_gordon takes"):
        I._spec("andrews_gordon", {"k": 2, "r": 1, "j": 0, "T": ()})


def test_subset_variants_run_the_grid_rows_in_order():
    # the rows of a subset grid at one (k, r, j) are the j-subsets of the
    # universe, in combinations order, and _spec takes exactly those
    for name in ("stanton_31", "stanton_41", "binom_kursungoz", "binom_bgg"):
        for k in range(1, 6):
            grid = list(I.CATALOG[name].grid(k))
            for r in range(-1, k + 2):
                for j in range(-1, k + 2):
                    want = [p for p in grid if (p["r"], p["j"]) == (r, j)]
                    if want:
                        got = [{"k": k, "r": r, "j": j, "T": T} for T in
                               combinations(I._subset_universe(k, r), j)]
                        assert got == want
                        for p in got:
                            I._spec(name, p)
                    else:
                        T = tuple(range(1, j + 1))
                        with pytest.raises(InvalidParameters,
                                           match="not defined"):
                            I._spec(name, {"k": k, "r": r, "j": j, "T": T})


def _clear_memos():
    sumeval._CONVOLUTIONS.clear()
    sumeval._SUMS.clear()
    I._PRODUCTS.clear()
    I._last_factor.cache_clear()
    I._triple.cache_clear()


def _count_layers(monkeypatch):
    # the layer products that multisum builds, before any own factor
    calls = []
    real = sumeval.layer_product
    monkeypatch.setattr(sumeval, "layer_product",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_memoised_reports_do_not_depend_on_the_row_order():
    rows = list(I.catalog_rows(2))
    shuffled = rows[:]
    random.Random(16).shuffle(shuffled)
    runs = []
    for order in (rows, rows[::-1], shuffled):
        _clear_memos()
        reports = {(name, json.dumps(params)):
                   I.verify_identity(name, params, 20).to_json()
                   for name, params in order}
        for rep in reports.values():
            del rep["elapsed_ms"]
        runs.append(reports)
    assert runs[0] == runs[1] == runs[2]
    assert all(rep["equal"] for rep in runs[0].values())


def test_a_row_starts_from_an_inner_layer_of_an_earlier_row(monkeypatch):
    # T = (1,) and T = (2,) differ only in the factors of s_1 and the gap
    # s_1, s_2, so the product that convolves the layer after s_2 is shared:
    # the second row misses the outermost product and hits that one
    calls = _count_layers(monkeypatch)
    _clear_memos()
    memo = sumeval._CONVOLUTIONS
    for T, layers, hits, misses in (((1,), 2, 0, 2), ((2,), 1, 1, 3)):
        calls.clear()
        rep = I.verify_identity("stanton_31",
                                {"k": 3, "r": 0, "j": 1, "T": T}, 20)
        assert rep.equal and len(calls) == layers, T
        assert (memo.hits, memo.misses, len(memo)) == (hits, misses, misses)


@pytest.mark.parametrize("name, first, second", [
    # bare own monomials, and the head (-1; q)_(s_1) of new_slater2, each
    # packed and multiplied by its slot
    ("bressoud_33", {"k": 3, "j": 1}, {"k": 3, "j": 0}),
    ("new_slater2", {"k": 2, "r": 1, "j": 1}, {"k": 2, "r": 1, "j": 0}),
])
def test_a_recalled_outer_product_is_read_once(monkeypatch, name, first,
                                               second):
    # the rows differ only in s_1, and the second sums to a vmax no larger,
    # so it recalls the outer product that the first stored: it builds no
    # layer and decodes no T_v, and the
    # only digits its outer step reads are those of its final read-back
    calls = _count_layers(monkeypatch)
    _clear_memos()
    spec = I.CATALOG[name]
    I.eval_sum(spec.lhs(first), 20)
    reads = []
    for module in (series, sumeval):
        real = module.read_digits
        monkeypatch.setattr(module, "read_digits", lambda *args, real=real: (
            reads.append(args) or real(*args)))
    calls.clear()
    hits = sumeval._CONVOLUTIONS.hits
    got = I.eval_sum(spec.lhs(second), 20)
    assert calls == [] and sumeval._CONVOLUTIONS.hits == hits + 1
    assert len(reads) == 1
    _clear_memos()
    assert (got.coeffs, got.prec) == (I.eval_sum(spec.lhs(second), 20).coeffs,
                                      got.prec)


@pytest.mark.parametrize("qprec", [10, 60, 100])
def test_slater2_tail_equals_the_long_division(qprec):
    # the tail 1/(-q^(1/2); q)_v is a product with the cached reciprocal;
    # it was the long division by the polynomial (-q^(1/2); q)_v
    tp = I.tgrid(qprec)
    I._last_factor.cache_clear()
    for v in range(17):
        got = I._last_factor(2, "slater2", None, v, tp)
        want = inv_poch_finite(SM(1, 2), 2, v, tp).divide(
            poch_finite(SM(-1, 1), 2, v), tp)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec), v


def _k1_heads():
    """The sum sides of one variable with a head: gollnitz_gordon and the
    k = 1 rows of new_slater and new_slater2."""
    return [I.CATALOG[name].lhs(params)
            for name in ("gollnitz_gordon", "new_slater", "new_slater2")
            for params in I.CATALOG[name].grid(1)]


def test_the_last_factor_carries_the_head_at_k_1(monkeypatch):
    # at k = 1, s_k is s_1: the last factor with the head is the ring
    # product of (x; .)_v and the last factor without it
    tp = 61
    sides = _k1_heads()
    assert len(sides) == 6 and all(s.k == 1 and s.head for s in sides)
    I._last_factor.cache_clear()
    for side in sides:
        for v in range(13):
            got = I._last_factor(side.last_step, side.tail, side.head, v, tp)
            want = poch_finite(*side.head, v) * I._last_factor(
                side.last_step, side.tail, None, v, tp)
            assert (got.coeffs, got.prec) == (want.coeffs, want.prec), v
    # eval_sum hands the head to the last factor, whose arguments are the
    # last variable's memo description
    _clear_memos()
    calls = []
    real = I._last_factor
    monkeypatch.setattr(I, "_last_factor",
                        lambda *args: calls.append(args) or real(*args))
    for variant in (1, 2):
        calls.clear()
        side = I.CATALOG["gollnitz_gordon"].lhs({"variant": variant})
        I.eval_sum(side, 20)
        assert calls and {args[:3] for args in calls} == {
            (4, None, (SM(-1, 2), 4))}


def _holds_a_dict(value):
    if isinstance(value, dict):
        return True
    if isinstance(value, (tuple, list)):
        return any(_holds_a_dict(item) for item in value)
    return False


def test_stored_layer_products_hold_digits_not_series():
    # every stored layer product is its packed digits and their layout:
    # bytes and ints, no coefficient dict
    _clear_memos()
    for name, params in I.catalog_rows(2):
        I.verify_identity(name, params, 20)
    memo = sumeval._CONVOLUTIONS
    assert memo
    for stored in memo.values():
        (vmax, products), series_ = marshal.loads(stored)
        assert series_ == [] and not _holds_a_dict(products)
        buf, nbytes, dmax, lo, g, v0, slots = products
        assert isinstance(buf, bytes)
        assert len(slots) == vmax - v0 + 1


def test_a_row_with_an_earlier_rows_sides_builds_no_layer(monkeypatch):
    # stanton_32 at j = 0 is andrews_gordon: both sides are the same, so the
    # second row is served whole from the memos
    calls = _count_layers(monkeypatch)
    _clear_memos()
    ag = I.verify_identity("andrews_gordon", {"k": 3, "r": 1}, 20)
    assert calls
    calls.clear()
    counts = (sumeval._CONVOLUTIONS.hits, sumeval._CONVOLUTIONS.misses)
    st = I.verify_identity("stanton_32", {"k": 3, "r": 1, "j": 0}, 20)
    assert calls == []
    # one hit on the stored sum, and no recall of a product
    assert (sumeval._SUMS.hits, sumeval._SUMS.misses) == (1, 1)
    assert (sumeval._CONVOLUTIONS.hits, sumeval._CONVOLUTIONS.misses) == \
        counts
    assert (st.equal, st.first_mismatch, st.prec) == \
        (ag.equal, ag.first_mismatch, ag.prec) == (True, None, 20)
    assert I.lhs_series("stanton_32", {"k": 3, "r": 1, "j": 0}, 20) == \
        I.lhs_series("andrews_gordon", {"k": 3, "r": 1}, 20)


def test_a_memo_hit_equals_a_cold_build():
    # at two orders of one row that sum the same values (vmax 5), so that
    # a memo keyed without the order would hand one order's series to the
    # other
    name, params = "stanton_31", {"k": 3, "r": 0, "j": 1, "T": (2,)}
    spec = I.CATALOG[name]
    sides = ((I.eval_sum, spec.lhs(params)), (I.eval_product, spec.rhs(params)))
    cold = {}
    for qp in (20, 24):
        _clear_memos()
        cold[qp] = [f(side, qp) for f, side in sides]
    _clear_memos()
    for qp in (20, 24):
        for f, side in sides:
            f(side, qp)
    assert len(sumeval._SUMS) == len(I._PRODUCTS) == 2
    for qp in (24, 20):
        for (f, side), want in zip(sides, cold[qp]):
            got = f(side, qp)
            assert (got.coeffs, got.prec) == (want.coeffs, want.prec), qp
    assert cold[20][0].prec == I.tgrid(20) != cold[24][0].prec


def test_the_memo_keys_of_a_deep_sum_take_linear_memory():
    # each layer key names its suffix of variables by one interned int; the
    # suffixes spelt out in every key took 70 MiB here, O(k^2)
    side = I.CATALOG["andrews_gordon"].lhs({"k": 3000, "r": 0})
    _clear_memos()
    tracemalloc.start()
    try:
        I.eval_sum(side, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_the_prefactor_stays_outside_the_sum_memo():
    # the same multisum with and without the prefactor 1 + q: the memo
    # serves the sum, and each side multiplies in its own prefactor
    with_pre = I.CATALOG["kursungoz_0"].lhs({"k": 2, "r": 1})
    bare = with_pre._replace(prefactor=())
    _clear_memos()
    for first, second in ((with_pre, bare), (bare, with_pre)):
        a, b = I.eval_sum(first, 20), I.eval_sum(second, 20)
        assert len(sumeval._SUMS) == 1
        assert a != b
    assert I.eval_sum(with_pre, 20) == \
        (I.eval_sum(bare, 20) * QSeries([(0, 1), (2, 1)])).truncate(41)


def test_kursungoz_rhs_divisible_by_one_plus_q():
    # the verified quotient times (1 + q) reproduces the numerator
    qp = 30
    tp = I.tgrid(qp)
    spec = I.CATALOG["nonbinom_kursungoz"]
    params = {"k": 2, "r": 1, "j": 1}
    side = spec.rhs(params)
    quotient = I.eval_product(side, qp)
    numerator_side = I.ProductSide(side.modulus, side.terms, side.num_inf,
                                   side.den_inf, den_units=())
    numerator = I.eval_product(numerator_side, qp)
    back = quotient * QSeries([(0, 1), (2, 1)])
    assert back.equal_up_to(numerator, min(back.prec, numerator.prec, tp)) \
        == (True, None)


# the (x; q^b)_inf that the product sides of the catalog with k <= 5
# divide by
_DEN_INF = list(dict.fromkeys(d for side in SIDES for d in side.den_inf))


def _cold_product_sides():
    I._PRODUCTS.clear()
    for f in (I._prefactor, I._triple, series.packed):
        f.cache_clear()


@pytest.mark.parametrize("qprec", QPRECS)
def test_product_sides_match_the_ring_oracle(qprec):
    # every distinct product side of catalog_rows(5), from cold caches, in
    # coefficients and precision
    _cold_product_sides()
    for side in SIDES:
        got = I.eval_product(side, qprec)
        want = ring_product_side(side, qprec)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec), side


_M = 22
_SYNTHETIC = {
    # two theta terms that cancel: an exact-zero sum, at two shifts
    "zero sum": I.ProductSide(_M, ((3, 2, 6), (-3, 2, 6)),
                              den_inf=I.INV_Q_INF),
    "zero sum, negative shift": I.ProductSide(_M, ((1, -3, 6), (-1, -3, 16))),
    # 1 - t^6 - ... against 1 - t^4 - ...: the lowest exponent cancels
    "lowest cancels": I.ProductSide(_M, ((1, 0, 6), (-1, 0, 4)),
                                    den_inf=I.INV_Q_INF),
    "lowest cancels, shifted": I.ProductSide(_M, ((2, 5, 6), (-2, 5, 4),
                                                  (1, 9, 8))),
    "negative shift": I.ProductSide(_M, ((1, -4, 6), (5, 3, 10), (-2, 0, 2)),
                                    num_inf=((SM(-1, 6), 4),),
                                    den_inf=I.INV_Q_INF,
                                    den_units=(I.ONE_PLUS_Q,)),
    "shift past the order": I.ProductSide(_M, ((1, 400, 6),),
                                          den_inf=I.INV_Q_INF),
    "weight 0": I.ProductSide(_M, ((0, -2, 6), (1, 0, 4))),
    "wide weights": I.ProductSide(_M, ((2 ** 90, 0, 6), (-(3 ** 70), 1, 8)),
                                  den_inf=I.INV_Q_INF),
    "den_units alone": I.ProductSide(
        den_units=(I.ONE_PLUS_Q, ((0, -1), (1, 1), (5, -3)))),
    "den_units with terms": I.ProductSide(_M, ((1, 0, 6),),
                                          den_units=(I.ONE_PLUS_Q,)),
    "no terms": I.ProductSide(),
    "vanishing terms only": I.ProductSide(_M, ((1, 0, 22), (1, 4, 44)),
                                          den_inf=I.INV_Q_INF),
    "(1; q)_inf, the exact zero": I.ProductSide(_M, ((1, -2, 6),),
                                                num_inf=((SM(1, 0), 2),),
                                                den_inf=I.INV_Q_INF),
    "(1; q)_inf without terms": I.ProductSide(num_inf=((SM(1, 0), 2),)),
    "(-1; q)_inf": I.ProductSide(_M, ((1, 0, 6),), num_inf=((SM(-1, 0), 2),)),
}


@pytest.mark.parametrize("name", _SYNTHETIC)
@pytest.mark.parametrize("qprec", [0, 1, 10, 60])
def test_synthetic_product_sides_match_the_ring_oracle(name, qprec):
    _cold_product_sides()
    side = _SYNTHETIC[name]
    got = I.eval_product(side, qprec)
    want = ring_product_side(side, qprec)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


def test_a_packed_theta_is_kept_per_digit_width():
    # one theta at weight 1 and then at weights that need wider digits
    _cold_product_sides()
    for weight in (1, 2 ** 40, 2 ** 200, 3):
        side = I.ProductSide(_M, ((weight, 0, 6), (1, 2, 8)),
                             den_inf=I.INV_Q_INF)
        got = I.eval_product(side, 30)
        want = ring_product_side(side, 30)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec), weight


@pytest.mark.parametrize("qprec", [10, 60, 100])
def test_reciprocal_product_side_matches_long_division(qprec):
    # times the cached 1/(x; q^b)_inf, a series has the coefficients and
    # precision that long division by (x; q^b)_inf gives it: numerators of
    # valuation 0 and above, known to tp or less, a zero one among them
    tp = I.tgrid(qprec)
    numerators = [one(tp), QSeries({3: -2, 4: 5, 9: 2 ** 70}, tp - 5),
                  zero(tp - 3), 7 * triple_product(14, 4, tp).shift(2)]
    for sm, base in _DEN_INF:
        inv = inv_poch_infinite(sm, base, tp)
        assert (inv.prec, min(inv.coeffs), inv.coeffs[0]) == (tp, 0, 1)
        for num in numerators:
            got = num * inv
            want = num.divide(poch_infinite(sm, base, tp), tp)
            assert (got.coeffs, got.prec) == (want.coeffs, want.prec), \
                (sm, base, num)
    # and every product side is its numerator divided by its den_inf, one
    # factor after the other, and by its den_units
    for side in SIDES:
        want = I.eval_product(side._replace(den_inf=(), den_units=()), qprec)
        for sm, base in side.den_inf:
            want = want.divide(poch_infinite(sm, base, tp), tp)
        for poly in side.den_units:
            want = want.divide(QSeries(list(poly)), tp)
        got = I.eval_product(side, qprec)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec), side


def test_eval_product_zero_theta_terms():
    # A = 0 (mod M) contributes the zero series (r = k rows reach it)
    rep = I.verify_identity("kursungoz_0", {"k": 2, "r": 2}, 30)
    assert rep.equal
    side = I.ProductSide(10, ((1, 0, 10),))
    assert I.eval_product(side, 10).is_zero()
    with pytest.raises(CatalogRangeError):
        I.eval_product(I.ProductSide(10, ((1, 0, 11),)), 10)


def test_gg_reduction_q_binomial_route():
    # sum_n q^(n^2)/(q^2;q^2)_n * sum_{m<=n} q^(m^2) [n,m]_{q^2}
    # equals the first Gollnitz-Gordon sum side
    qp = 25
    tp = I.tgrid(qp)
    from qident.qfunctions import inv_poch_finite
    acc = zero(tp)
    for n in range(9):
        inner = zero(tp)
        for m in range(n + 1):
            inner = inner + monomial(1, 2 * m * m) * qbinom(n, m, base=4, prec=tp)
        acc = acc + monomial(1, 2 * n * n) * inv_poch_finite(SM(1, 4), 4, n, tp) * inner
    gg1 = I.lhs_series("gollnitz_gordon", {"variant": 1}, qp)
    assert acc.equal_up_to(gg1, min(acc.prec, gg1.prec, tp)) == (True, None)


def test_bgg_k1_reductions():
    qp = 30
    tp = I.tgrid(qp)
    # k = 1, j = 0 reduces to the first Gollnitz-Gordon identity
    l1 = I.lhs_series("bressoud_gg", {"k": 1, "j": 0}, qp)
    g1 = I.lhs_series("gollnitz_gordon", {"variant": 1}, qp)
    assert l1.equal_up_to(g1, tp) == (True, None)
    r1 = rhs_series("bressoud_gg", {"k": 1, "j": 0}, qp)
    gr1 = rhs_series("gollnitz_gordon", {"variant": 1}, qp)
    assert r1.equal_up_to(gr1, tp) == (True, None)
    # k = j = 1 is the sum of both Gollnitz-Gordon sum sides
    l11 = I.lhs_series("bressoud_gg", {"k": 1, "j": 1}, qp)
    g2 = I.lhs_series("gollnitz_gordon", {"variant": 2}, qp)
    assert l11.equal_up_to(g1 + g2, tp) == (True, None)


def test_report_json_shape():
    rep = I.verify_identity("andrews_gordon", {"k": 1, "r": 0}, 20)
    blob = rep.to_json()
    assert blob["name"] == "andrews_gordon"
    assert blob["equal"] is True and blob["first_mismatch"] is None
    assert set(blob) == {"name", "params", "prec", "equal", "first_mismatch",
                         "elapsed_ms"}


def test_catalog_sides_are_pinned():
    # both sides exactly, not only their agreement: a change that alters
    # the two sides alike (a prefactor moved, say) still shows here
    h = hashlib.sha256()
    for name, params in I.catalog_rows(3):
        sides = [I.lhs_series(name, params, 20).to_json(),
                 rhs_series(name, params, 20).to_json()]
        h.update(json.dumps([name, params, sides], sort_keys=True).encode())
    assert h.hexdigest() == ("fe22e88be82d568586ad82dfd9a4d8a1"
                             "ffc533b0b67c4a87831723f59eb7017a")


def test_sweep_small_and_corruption_detection():
    reports = I.sweep(1, 25)
    assert reports and all(r.equal for r in reports)
    names = {r.name for r in reports}
    assert names == set(I.CATALOG_ORDER)
    # a deliberately wrong product side must be flagged with a mismatch
    spec = I.CATALOG["andrews_gordon"]
    good = spec.rhs({"k": 2, "r": 1})
    bad = I.ProductSide(good.modulus,
                        tuple((w, sh, A + 2) for (w, sh, A) in good.terms),
                        good.num_inf, good.den_inf, good.den_units)
    lhs = I.lhs_series("andrews_gordon", {"k": 2, "r": 1}, 20)
    wrong = I.eval_product(bad, 20)
    eq, e = lhs.equal_up_to(wrong, 41)
    assert not eq and e is not None


def test_sweep_parallel_matches_serial():
    serial = I.sweep(1, 15)
    parallel = I.sweep(1, 15, jobs=2)
    assert [(r.name, r.params, r.equal) for r in serial] == \
        [(r.name, r.params, r.equal) for r in parallel]


def test_sweep_jobs_clamped_to_cpu_count(monkeypatch):
    asked = []

    class InProcessPool(concurrent.futures.Executor):
        def __init__(self, max_workers):    # records the size, starts nothing
            asked.append(max_workers)

        def map(self, fn, rows, chunksize=1):
            return map(fn, rows)

    def plain(reports):
        return [{k: v for k, v in r.to_json().items() if k != "elapsed_ms"}
                for r in reports]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = plain(I.sweep(1, 10, jobs=1))
    assert plain(I.sweep(1, 10, jobs=64)) == serial
    assert asked == [2]
    # an unknown CPU count means one worker: no pool at all
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert plain(I.sweep(1, 10, jobs=8)) == serial
    assert asked == [2]


def test_integrality_everywhere():
    # coefficients are Python ints by construction; spot-check big rows
    s = rhs_series("new_slater2", {"k": 3, "r": 2, "j": 1}, 40)
    assert all(isinstance(c, int) for c in s.coeffs.values())
    s = I.lhs_series("binom_bgg", {"k": 3, "r": 0, "j": 2, "T": (2, 3)}, 40)
    assert all(isinstance(c, int) for c in s.coeffs.values())
