"""Ring arithmetic, truncation bookkeeping, and rendering of QSeries."""

import random

import pytest

from qident.errors import EmptySeries, NotAUnit, PrecisionExceeded
from qident.series import INF, QSeries, monomial, one, zero
from qident.series import _mul_dict, _mul_packed


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
    assert all(geom.qcoeff(n) == 1 for n in range(15))
    assert (QSeries({0: 1, 2: -1}) * geom).truncate(30).coeffs == {0: 1}
    s = rand_series(random.Random(1))
    assert (s + (-s)).is_zero()
    sq = QSeries({0: 1, 2: 1}) * QSeries({0: 1, 2: 1})
    assert sq.coeffs == {0: 1, 2: 2, 4: 1}         # (1+q)^2


def test_pair_list_constructor_accumulates():
    assert QSeries([(0, 1), (0, 1)]).coeffs == {0: 2}
    assert QSeries([(3, 1), (3, -1)]).is_zero()


def test_invert_examples():
    inv = QSeries({0: 1, 2: 1}).invert(20)         # 1/(1+q)
    assert [inv.qcoeff(n) for n in range(6)] == [1, -1, 1, -1, 1, -1]
    lau = QSeries({2: 1, 4: -1}).invert(20)        # 1/(q(1-q))
    assert lau.min_exp() == -2
    assert lau.coeff(-2) == 1 and lau.coeff(0) == 1
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
    assert QSeries({0: 1, 2: 1}).scale_exponents(2).coeffs == {0: 1, 4: 1}
    assert monomial(1, 1).scale_exponents(2).coeffs == {2: 1}
    s = QSeries({0: 1, 2: -1, 6: 1})
    assert s.scale_exponents(3).coeffs == {0: 1, 6: -1, 18: 1}
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand_series(rng), rand_series(rng)
        assert (a * b).scale_exponents(2) == a.scale_exponents(2) * b.scale_exponents(2)
        assert (a + b).scale_exponents(2) == a.scale_exponents(2) + b.scale_exponents(2)
    with pytest.raises(ValueError):
        s.scale_exponents(0)


def test_coeff_and_equal_up_to():
    s = QSeries({0: 1, 4: 3}, 20)
    assert s.coeff(4) == 3 and s.qcoeff(2) == 3
    assert s.coeff(7) == 0
    with pytest.raises(PrecisionExceeded):
        s.coeff(20)
    assert s.equal_up_to(s, 20) == (True, None)
    t = s + monomial(1, 6, 20)
    assert s.equal_up_to(t, 20) == (False, 6)
    with pytest.raises(PrecisionExceeded):
        s.equal_up_to(t, 21)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(20):
        a, b, c = (rand_series(rng, laurent=True) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


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
    assert QSeries.from_json(blob) == s
    exact = monomial(3, 4)
    assert exact.to_json()["prec"] is None
    assert QSeries.from_json(exact.to_json()) == exact


def test_immutability():
    s = one()
    with pytest.raises(AttributeError):
        s.prec = 5
