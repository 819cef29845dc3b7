"""Catalog rows, evaluators, parameter validation, and reduction relations."""

import pytest

from qident import identities as I
from qident.errors import (CatalogRangeError, InvalidParameters,
                           PrecisionExceeded)
from qident.qfunctions import Q, SignedMonomial as SM, qbinom
from qident.series import QSeries, monomial, zero


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
    rhs = I.rhs_series("rogers_ramanujan", {"a": 1}, 15)
    assert lhs.qcoeff(10) == rhs.qcoeff(10) == count


def test_andrews_gordon_vs_gap_oracle():
    # AG (k, r): coefficients count partitions with f_i + f_{i+1} <= k,
    # f_1 <= k - r
    for (k, r) in ((1, 1), (2, 1), (2, 2), (3, 2)):
        lhs = I.lhs_series("andrews_gordon", {"k": k, "r": r}, 14)
        for n in range(13):
            assert lhs.qcoeff(n) == gap_partition_count(n, k, k - r), (k, r, n)


def test_ag_k1_is_rogers_ramanujan():
    for a, r in ((1, 0), (0, 1)):
        ag = I.lhs_series("andrews_gordon", {"k": 1, "r": r}, 30)
        rr = I.lhs_series("rogers_ramanujan", {"a": a}, 30)
        assert ag.equal_up_to(rr, 61) == (True, None)


def test_validation_errors():
    with pytest.raises(InvalidParameters):
        I.verify_identity("stanton_32", {"k": 1, "r": 1, "j": 1}, 10)
    with pytest.raises(InvalidParameters):
        I.verify_identity("new_slater2", {"k": 2, "r": 0, "j": 1}, 10)
    with pytest.raises(InvalidParameters):
        I.verify_identity("nope", {}, 10)
    with pytest.raises(InvalidParameters):
        I.verify_identity("rogers_ramanujan", {"a": 2}, 10)
    with pytest.raises(InvalidParameters):
        I.verify_identity("stanton_31", {"k": 3, "r": 1, "j": 1, "T": (3,)}, 10)
    with pytest.raises(InvalidParameters, match="'j'"):
        I.verify_identity("andrews_gordon", {"k": 2, "r": 1, "j": 5}, 10)


def test_verify_refuses_a_side_shorter_than_the_requested_order(monkeypatch):
    full = I.eval_sum
    monkeypatch.setattr(I, "eval_sum", lambda side, qprec:
                        full(side, qprec).truncate(I.tgrid(qprec) - 2))
    with pytest.raises(PrecisionExceeded, match="compare order 41 exceeds"):
        I.verify_identity("andrews_gordon", {"k": 2, "r": 1}, 20)


def test_subset_variants():
    reports = I.verify_subset_variants("stanton_31", 4, 1, 2, 25)
    assert len(reports) == 3  # subsets of {1,2,3} of size 2
    assert all(rep.equal for rep in reports)
    with pytest.raises(InvalidParameters):
        I.verify_subset_variants("andrews_gordon", 2, 1, 0, 10)


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
    r1 = I.rhs_series("bressoud_gg", {"k": 1, "j": 0}, qp)
    gr1 = I.rhs_series("gollnitz_gordon", {"variant": 1}, qp)
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


def test_integrality_everywhere():
    # coefficients are Python ints by construction; spot-check big rows
    s = I.rhs_series("new_slater2", {"k": 3, "r": 2, "j": 1}, 40)
    assert all(isinstance(c, int) for c in s.coeffs.values())
    s = I.lhs_series("binom_bgg", {"k": 3, "r": 0, "j": 2, "T": (2, 3)}, 40)
    assert all(isinstance(c, int) for c in s.coeffs.values())
