"""Seeds, transforms, chains, and the lattice-consequence checks."""

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from qident import bailey as B
from qident import identities as I
from qident import series, sumeval
from qident.errors import (DegenerateDivision, InsufficientDepth,
                           NotStabilized, ParameterOutOfRange,
                           PoleAtParameter, PrecisionExceeded,
                           UnsupportedBoundary)
from qident.qfunctions import ONE_M, Q, SignedMonomial as SM, inv_poch_finite, poch_infinite
from qident.series import INF, QSeries, monomial, one, pack, zero

import bailey_oracle as naive
from series_oracle import coeff, newton_invert
from test_sumeval import sized_coeffs

TP = 81  # q-order 40 for the unit-level tests


@pytest.fixture(scope="module")
def unit_q():
    return B.unit_pair(Q, 10, TP)


@pytest.fixture(scope="module")
def unit_1():
    return B.unit_pair(ONE_M, 8, TP)


def test_seed_verify(unit_q, unit_1):
    for name, mk in B.SEEDS.items():
        for a in (ONE_M, Q):
            assert B.verify(mk(a, 6, TP)).ok, (name, a.text())


def test_unit_pair_shape(unit_q):
    assert unit_q.beta[0].coeffs == {0: 1}
    assert unit_q.beta[3].is_zero()
    assert unit_q.alpha[0].coeffs == {0: 1}


def test_dprime_shapes():
    d1 = B.pair_dprime1(Q, 4, TP)
    assert d1.beta[0].coeffs == {0: 1}
    assert coeff(d1.beta[1], 2) == 1          # q^1/(q^2;q^2)_1 starts at q
    d4 = B.pair_dprime4(Q, 4, TP)
    assert d4.beta[0].coeffs == {0: 1}


def test_pole_at_parameter():
    with pytest.raises(PoleAtParameter):
        B.unit_pair(SM(1, -2), 4, TP)        # a = 1/q


def test_verify_detects_perturbation(unit_q):
    beta = list(unit_q.beta)
    beta[2] = beta[2] + monomial(1, 6, TP)   # +q^3
    bad = naive.with_beta(unit_q, beta)
    res = B.verify(bad)
    assert not res.ok and res.first_bad_n == 2


def test_single_transforms_verify(unit_q):
    for tag in ("BL_INF", "KEY1", "KEY2", "LOVEJOY_B0", "STAR"):
        assert B.verify(B.apply(tag, unit_q)).ok, tag
    assert B.verify(B.apply(B.TransformStep("BL_RHO", rho=SM(-1, 3)), unit_q)).ok
    for b in (SM(-1, 0), SM(-1, 2)):
        assert B.verify(B.apply(B.TransformStep("LOVEJOY", b=b), unit_q)).ok
    assert B.verify(B.apply("LATTICE_INF", unit_q)).ok


def test_bl_alpha_closed_form(unit_q):
    out = B.apply("BL_INF", unit_q)
    for n in range(unit_q.n_max + 1):
        want = unit_q.alpha[n].shift(2 * n * n + 2 * n)  # a^n q^(n^2) at a = q
        assert out.alpha[n].equal_up_to(want.truncate(TP), TP - 4)[0]


def test_star1_alpha_closed_form(unit_q):
    p1 = B.apply("KEY1", unit_q)
    out = B.apply("STAR1", p1)
    from qident.series import QSeries
    for n in range(p1.n_max + 1):
        want = (QSeries([(0, 1), (4 * n, 1)]) * p1.alpha[n]).shift(2 * n * n - 2 * n)
        assert out.alpha[n].equal_up_to(want.truncate(TP), TP - 10)[0]


def test_degenerate_transforms(unit_1):
    for tag in ("KEY1", "KEY2", "LATTICE_INF"):
        with pytest.raises(DegenerateDivision):
            B.apply(tag, unit_1)
    with pytest.raises(DegenerateDivision):
        B.apply("STAR1", B.unit_pair(Q, 4, TP))  # STAR1 needs a = 1
    # at a = q^(1/2) and rho = q^(5/2), (aq/rho; q)_2 = (q^(-1); q)_2 has
    # the factor 1 - 1
    with pytest.raises(DegenerateDivision,
                       match=re.escape("(aq/rho)_n is not a unit "
                                       "(leading term 0)")):
        B.apply(B.TransformStep("BL_RHO", rho=SM(1, 5)),
                B.unit_pair(SM(1, 1), 4, TP))


def test_pairs_and_steps_refuse_malformed_fields(unit_q):
    with pytest.raises(ValueError, match="n_max"):
        B.BaileyPair(Q, 4, unit_q.alpha, unit_q.beta, TP)
    with pytest.raises(ValueError, match="unknown transform tag 'NOPE'"):
        B.TransformStep("NOPE")


def test_the_seed_is_kept_out_of_equality_and_repr(unit_q):
    # a check asks the seed for a deeper prefix; the pair is its five fields
    derived = B.BaileyPair(*unit_q)
    assert unit_q.seed is B.unit_pair and derived.seed is None
    assert derived == unit_q and hash(derived) == hash(unit_q)
    assert repr(derived) == repr(unit_q)
    assert "seed" not in repr(unit_q) and "unit_pair" not in repr(unit_q)


def test_star_equals_sum_of_routes(unit_q):
    pA = B.apply("LOVEJOY_B0", B.apply("BL_INF", B.apply("KEY1", unit_q)))
    pB = B.apply("LOVEJOY_B0", B.apply("KEY2", B.apply("BL_INF", unit_q)))
    pS = B.apply("STAR", unit_q)
    for n in range(unit_q.n_max + 1):
        sa = pA.alpha[n] + pB.alpha[n]
        cmp_at = min(sa.prec, pS.alpha[n].prec, TP)
        assert sa.equal_up_to(pS.alpha[n], cmp_at) == (True, None)
        sb = pA.beta[n] + pB.beta[n]
        cmp_at = min(sb.prec, pS.beta[n].prec, TP)
        assert sb.equal_up_to(pS.beta[n], cmp_at) == (True, None)


def test_lovejoy_b0_inverts_key1(unit_q):
    # LOVEJOY_B0 after KEY1 restores the original pair (they are inverse moves)
    back = B.apply("LOVEJOY_B0", B.apply("KEY1", unit_q))
    for n in range(unit_q.n_max + 1):
        cmp_at = min(back.alpha[n].prec, TP)
        assert back.alpha[n].equal_up_to(unit_q.alpha[n].truncate(cmp_at),
                                         cmp_at) == (True, None)
        assert back.beta[n].equal_up_to(unit_q.beta[n], TP) == (True, None)


def test_run_chain_and_empty(unit_q):
    same, log = B.run_chain(unit_q, [])
    assert same is unit_q and log == []
    final, log = B.run_chain(unit_q, ["BL_INF", "BL_INF", "KEY1", "STAR1"])
    assert [row[0] for row in log] == ["BL_INF", "BL_INF", "KEY1", "STAR1"]
    assert all(row[2].ok for row in log)
    assert final.a == ONE_M


def test_commute(unit_q):
    p1 = B.apply("KEY1", unit_q)
    assert B.commute_check(p1, TP)
    p2 = B.apply("STAR1", p1)
    assert B.commute_check(p2, TP)
    with pytest.raises(DegenerateDivision):
        B.commute_check(unit_q)


def test_commute_is_an_operator_identity(unit_q):
    # The beta-side agreement of the two application orders holds for
    # arbitrary beta sequences, not only for genuine Bailey pairs: the two
    # composed beta transforms are equal as linear operators.
    import random
    from qident.series import QSeries
    rng = random.Random(3)
    p1 = B.apply("KEY1", unit_q)
    beta = [QSeries({2 * rng.randint(0, 8): rng.randint(-3, 3)
                     for _ in range(4)}, TP)
            for _ in range(p1.n_max + 1)]
    assert B.commute_check(naive.with_beta(p1, beta), 60)


@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_commute_check_sees_one_route_broken(unit_q, monkeypatch, side):
    # the first STAR1 is the one on the BL_INF-first route; q^3 added to its
    # alpha_2 or beta_2 must make the two routes disagree
    real, calls = B._star1, []

    def broken(p):
        out = real(p)
        calls.append(out)
        if len(calls) > 1:
            return out
        seq = list(getattr(out, side))
        seq[2] = seq[2] + monomial(1, 6, TP)
        return (naive.with_alpha(out, seq) if side == "alpha"
                else naive.with_beta(out, seq))
    monkeypatch.setattr(B, "_star1", broken)
    assert not B.commute_check(B.apply("KEY1", unit_q), TP)
    assert len(calls) == 2


def test_beta_limit_routes():
    tp = 61
    # two Bailey-lemma steps on the a = 1 seed give the gap-2 sum with n^2
    p = B.unit_pair(ONE_M, 40, tp)
    ch, _ = B.run_chain(p, ["BL_INF", "BL_INF"], tp)
    got = B.beta_limit(ch, tp)
    acc = zero(tp)
    for n in range(8):
        acc = acc + monomial(1, 2 * n * n) * inv_poch_finite(Q, 2, n, tp)
    want = acc * newton_invert(poch_infinite(Q, 2, tp), tp)
    assert got.equal_up_to(want, min(got.prec, want.prec, tp)) == (True, None)
    # the a = q seed gives the n^2 + n exponents instead
    p = B.unit_pair(Q, 40, tp)
    ch, _ = B.run_chain(p, ["BL_INF", "BL_INF"], tp)
    got = B.beta_limit(ch, tp)
    acc = zero(tp)
    for n in range(8):
        acc = acc + monomial(1, 2 * n * n + 2 * n) * inv_poch_finite(Q, 2, n, tp)
    want = acc * newton_invert(poch_infinite(Q, 2, tp), tp)
    assert got.equal_up_to(want, min(got.prec, want.prec, tp)) == (True, None)


def test_beta_limit_not_stabilized():
    p = B.pair_dprime4(Q, 4, 121)   # beta moves at order ~2n, far below prec
    with pytest.raises(NotStabilized):
        B.beta_limit(p, 121)
    with pytest.raises(NotStabilized):
        B.beta_limit(B.unit_pair(Q, 0, 21), 21)
    # beta is the stabilized Bailey-lemma limit; q^4 added to alpha_2
    # leaves beta alone and moves the alpha-sum route
    ch, _ = B.run_chain(B.unit_pair(ONE_M, 12, 21), ["BL_INF", "BL_INF"], 21)
    assert not B.beta_limit(ch, 21).is_zero()
    alpha = list(ch.alpha)
    alpha[2] = alpha[2] + monomial(1, 8, 21)
    with pytest.raises(NotStabilized,
                       match="alpha-sum route disagrees at exponent 8"):
        B.beta_limit(naive.with_alpha(ch, alpha), 21)


def test_corolattice_small(unit_q, unit_1):
    # the classical single-lattice consequence: j = 0, b = c = oo
    inf = B.INFINITY
    for p in (unit_q, unit_1):
        for k in (1, 2):
            for r in range(-1, k + 1):
                assert B.check_coro3(p, k, r, 0, inf, inf, TP) == (True, None)
    with pytest.raises(ParameterOutOfRange):
        B.check_coro3(unit_q, 0, 0, 0, inf, inf, TP)
    with pytest.raises(ParameterOutOfRange):
        B.check_coro3(unit_q, 2, 3, 0, inf, inf, TP)
    with pytest.raises(ParameterOutOfRange):
        B.check_coro3(unit_q, 2, -2, 0, inf, inf, TP)
    with pytest.raises(ParameterOutOfRange):
        B.check_coro3(B.unit_pair(SM(-1, 2), 8, TP), 1, 0, 0, inf, inf, TP)


def test_lattice_checks_store_no_layers(unit_q, monkeypatch):
    # their extras are closures over the pair, so multisum gets no key: it
    # builds its layer products, and neither looks one up nor stores one
    calls = []
    real = sumeval.layer_product
    monkeypatch.setattr(sumeval, "layer_product",
                        lambda *args: calls.append(args) or real(*args))
    memo = sumeval._CONVOLUTIONS
    memo.clear()
    assert B.check_coro3(unit_q, 3, 0, 0, B.INFINITY, B.INFINITY, TP) == (
        True, None)
    assert len(calls) >= 2 and not memo
    assert memo.hits == memo.misses == 0


def test_corolattice_insufficient_depth(unit_q):
    inf = B.INFINITY
    shallow = B.unit_pair(Q, 3, 121)
    with pytest.raises(InsufficientDepth):
        B.check_coro3(shallow, 1, 0, 0, inf, inf, 121)
    # at t-order 1 the multisum needs only s <= 1, so n_max = 1 passes the
    # depth check of the multisum side and fails that of the alpha side
    shallow = B.unit_pair(Q, 1, 1)
    for check in (lambda p: B.check_coro3(p, 1, 0, 0, inf, inf, 1),
                  lambda p: B.check_common2(p, 1, 0, 0, 1)):
        with pytest.raises(InsufficientDepth, match="n_max too small"):
            check(shallow)
    # an alpha_{n_max} of valuation t^(-500) leaves the last alpha-side term
    # nonzero below tp, however deep the multisum side is
    alpha = unit_q.alpha[:-1] + (monomial(1, -500, TP),)
    for check in (lambda p: B.check_coro3(p, 1, 0, 0, inf, inf, TP),
                  lambda p: B.check_common2(p, 1, 0, 0, TP)):
        assert check(unit_q) == (True, None)
        with pytest.raises(InsufficientDepth, match="alpha sum not converged"):
            check(naive.with_alpha(unit_q, alpha))


def test_coro2_small(unit_q, unit_1):
    # the double-lattice consequence without boundary factors: b = c = oo;
    # its bracket over 1 - a q^(2l) is a polynomial, so a = 1 needs no
    # division by 1 - a
    inf = B.INFINITY
    for p in (unit_q, unit_1):
        for k in (1, 2):
            for r in range(0, k + 1):
                for j in range(0, k - r + 1):
                    assert B.check_coro3(p, k, r, j, inf, inf,
                                         TP) == (True, None), (p.a, k, r, j)
    with pytest.raises(ParameterOutOfRange):
        B.check_coro3(unit_q, 2, 2, 1, inf, inf, TP)


def test_coro2_at_q_squared():
    p = B.unit_pair(SM(1, 4), 8, TP)
    for (k, r, j) in ((1, 0, 1), (2, 1, 1), (2, 0, 2)):
        assert B.check_coro3(p, k, r, j, B.INFINITY, B.INFINITY,
                             TP) == (True, None)


def test_coro3_at_a_half_power_asks_the_seed_for_more_order(monkeypatch):
    # at a = q^(1/2), s_1 .. s_j carry t^(2 s^2 - 3 s), which is t^(-1) at
    # s = 1, so a pair known to t^101 gives a multisum known to t^(101 - j);
    # the check asks the seed for j more orders and compares at 101
    cases = [(k, r, j) for k in (1, 2, 3) for r in range(k + 1)
             for j in range(1, k - r + 1)]
    assert len(cases) == 10
    orders = []
    equal_up_to = QSeries.equal_up_to

    def spy(lhs, rhs, p):
        orders.append(p)
        return equal_up_to(lhs, rhs, p)
    monkeypatch.setattr(QSeries, "equal_up_to", spy)
    inf = B.INFINITY
    for kind, seed in B.SEEDS.items():
        p = seed(SM(1, 1), 12, 101)
        for (k, r, j) in cases:
            del orders[:]
            assert B.check_coro3(p, k, r, j, inf, inf, 101) == (True, None), \
                (kind, k, r, j)
            assert orders == [101], (kind, k, r, j)
    # a broken pair is caught at that order too
    bad = naive.with_beta1_perturbed(B.unit_pair(SM(1, 1), 12, 104))
    assert B.check_coro3(bad, 3, 2, 1, inf, inf, 101) == (False, 10)
    # a pair that no seed made cannot be asked, and says so
    with pytest.raises(PrecisionExceeded):
        B.check_coro3(naive.with_beta1_perturbed(B.unit_pair(SM(1, 1), 12, 101)),
                      3, 2, 1, inf, inf, 101)


def test_coro3_at_a_half_power_counts_finite_boundaries(monkeypatch):
    # a finite b = -q^(-1/2) puts (b)_v, of valuation -1, on s_1, and a
    # finite c puts 1/(aq/c)_v on s_k, which must be known as far as the
    # beta values; both used to fall short of the order asked for
    orders = []
    equal_up_to = QSeries.equal_up_to

    def spy(lhs, rhs, p):
        orders.append(p)
        return equal_up_to(lhs, rhs, p)
    monkeypatch.setattr(QSeries, "equal_up_to", spy)
    inf = B.INFINITY
    p = B.unit_pair(SM(1, 1), 12, 101)
    for b, c in ((SM(-1, -1), inf), (inf, SM(-1, 2)), (SM(-1, -1), SM(-1, 2))):
        for (k, r, j) in ((2, 1, 1), (2, 0, 2), (3, 2, 1)):
            del orders[:]
            assert B.check_coro3(p, k, r, j, b, c, 101) == (True, None), \
                (b, c, k, r, j)
            assert orders == [101], (b, c, k, r, j)
    # a broken pair is still caught with a finite boundary
    bad = naive.with_beta1_perturbed(B.unit_pair(SM(1, 1), 12, 104))
    assert B.check_coro3(bad, 3, 2, 1, SM(-1, -1), SM(-1, 2), 101) == (False, 8)


def test_coro3_at_a_negative_half_power_and_r_minus_one(monkeypatch):
    # at a = q^(-1/2) every lattice variable up to s_{k-r} carries a
    # negative own exponent, so the multisum loses order that the check
    # must ask the seed for; r = -1 with j >= 1 is in the domain when c is
    # infinite
    orders = []
    equal_up_to = QSeries.equal_up_to

    def spy(lhs, rhs, p):
        orders.append(p)
        return equal_up_to(lhs, rhs, p)
    monkeypatch.setattr(QSeries, "equal_up_to", spy)
    inf = B.INFINITY
    every = [(k, r, j) for k in (1, 2, 3) for r in range(-1, k + 1)
             for j in range(k - r + 1)]
    r_minus_one = [(k, -1, j) for k in (1, 2, 3) for j in range(1, k + 2)]
    for kind, seed in B.SEEDS.items():
        for a, cases in ((SM(1, -1), every), (Q, r_minus_one)):
            p = seed(a, 12, 101)
            for (k, r, j) in cases:
                del orders[:]
                assert B.check_coro3(p, k, r, j, inf, inf,
                                     101) == (True, None), (kind, a, k, r, j)
                assert orders == [101], (kind, a, k, r, j)
    bad = naive.with_beta1_perturbed(B.unit_pair(Q, 12, 101))
    assert B.check_coro3(bad, 2, -1, 1, inf, inf, 101) == (False, 6)


def test_coro3_boundaries(unit_q):
    combos = [(B.INFINITY, SM(-1, 2)), (B.INFINITY, SM(-1, 3)),
              (SM(-1, 0), B.INFINITY), (SM(-1, 0), SM(-1, 3))]
    for b, c in combos:
        for (k, r, j) in ((1, 1, 0), (2, 1, 1), (2, 0, 2)):
            assert B.check_coro3(unit_q, k, r, j, b, c, TP) == (True, None)
    assert B.check_coro3(unit_q, 2, 1, 1, B.INFINITY, B.INFINITY,
                         TP) == (True, None)
    with pytest.raises(UnsupportedBoundary):
        B.check_coro3(unit_q, 2, 1, 1, SM(1, 2), B.INFINITY, TP)
    # at a = q, a/(bq) = -q^(-3/2) for b = -q^(3/2), and aq/c = +-1 for
    # c = +-q^2
    with pytest.raises(UnsupportedBoundary, match=re.escape(
            "a/(bq) has negative exponent for b = -q^(3/2)")):
        B.check_coro3(unit_q, 2, 1, 1, SM(-1, 3), B.INFINITY, TP)
    for c in (SM(-1, 4), SM(1, 4)):
        with pytest.raises(UnsupportedBoundary, match=re.escape(
                "(aq/c) must have positive exponent")):
            B.check_coro3(unit_q, 2, 1, 1, B.INFINITY, c, TP)
    with pytest.raises(ParameterOutOfRange):
        B.check_coro3(unit_q, 2, 2, 1, B.INFINITY, SM(-1, 2), TP)
    # r = -1 is the single-lattice boundary of an infinite c only
    for b in (B.INFINITY, SM(-1, 0)):
        with pytest.raises(ParameterOutOfRange):
            B.check_coro3(unit_q, 2, -1, 1, b, SM(-1, 2), TP)


def test_common2_default_and_subsets(unit_q):
    assert B.check_common2(unit_q, 3, 1, 1, TP) == (True, None)
    assert B.check_common2(unit_q, 3, 0, 2, TP, subset=(2, 3)) == (True, None)
    with pytest.raises(ParameterOutOfRange):
        B.check_common2(unit_q, 3, 1, 1, TP, subset=(3,))  # 3 > k - r
    with pytest.raises(ParameterOutOfRange, match="relative q"):
        B.check_common2(B.unit_pair(SM(1, 1), 3, TP), 2, 1, 1, TP)


def test_lattice_checks_reject_a_corrupted_pair():
    # beta_1 + q^1 breaks the defining relation; every lattice check must
    # see it, and the first mismatching t-exponent is pinned
    p = naive.with_beta1_perturbed(B.unit_pair(Q, 12, 101))
    lattice = {(1, -1): 6, (1, 0): 8, (1, 1): 10,
               (2, -1): 8, (2, 0): 10, (2, 1): 12, (2, 2): 14}
    inf = B.INFINITY
    for (k, r), e in lattice.items():
        assert B.check_coro3(p, k, r, 0, inf, inf, 101) == (False, e), (k, r)
    boundary = {(inf, inf): (10, 10, 6),
                (inf, SM(-1, 2)): (8, 8, 4), (inf, SM(-1, 3)): (7, 7, 3),
                (SM(-1, 0), inf): (10, 10, 6),
                (SM(-1, 0), SM(-1, 3)): (7, 7, 3)}
    for (b, c), es in boundary.items():
        for (k, r, j), e in zip(((1, 1, 0), (2, 1, 1), (2, 0, 2)), es):
            assert B.check_coro3(p, k, r, j, b, c, 101) == (False, e), \
                (b, c, k, r, j)
    common = {(1, 0, 1): 6, (2, 1, 1): 10, (3, 0, 2): 8, (3, 1, 2): 10,
              (3, 3, 0): 18}
    for (k, r, j), e in common.items():
        assert B.check_common2(p, k, r, j, 101) == (False, e), (k, r, j)


def test_closed_alpha_domain():
    seed = B.unit_pair(Q, 4, 41)
    for k, r, j, n in ((1, 2, 3, 0), (2, 0, 0, -1), (2, 0, 0, 5)):
        with pytest.raises(ParameterOutOfRange):
            B.closed_alpha_star_chain(seed, k, r, j, n, 41)
    for n in (0, 4):    # both ends of the prefix are in range
        B.closed_alpha_star_chain(seed, 2, 0, 0, n, 41)
    with pytest.raises(ParameterOutOfRange, match="relative to q"):
        B.closed_alpha_star_chain(B.unit_pair(SM(1, 1), 4, 41), 2, 0, 0, 1,
                                  41)


def test_star_chain_closed_alpha():
    tp = 101
    seed = B.unit_pair(Q, 10, tp)
    for (k, r, j) in ((3, 1, 1), (2, 0, 2), (1, 0, 1)):
        final, log = B.run_chain(seed, B.star_chain(k, r, j), tp)
        assert all(row[2].ok for row in log)
        for n in range(final.n_max + 1):
            want = B.closed_alpha_star_chain(seed, k, r, j, n, tp)
            cmp_at = min(final.alpha[n].prec, want.prec, tp)
            assert final.alpha[n].equal_up_to(want, cmp_at) == (True, None)


_ORACLE_SEEDS = {name: mk(Q, 6, 41) for name, mk in B.SEEDS.items()}


def _star_chain_krj(k_max):
    return [(k, r, j) for k in range(1, k_max + 1) for r in range(k + 1)
            for j in range(k - r + 1)]


def _same_series(got, want):
    return got.coeffs == want.coeffs and got.prec == want.prec


@st.composite
def _oracle_calls(draw):
    """(seed name, k, r, j, n, tp): k <= 4, any n <= n_max, tp <= seed prec."""
    name = draw(st.sampled_from(sorted(_ORACLE_SEEDS)))
    seed = _ORACLE_SEEDS[name]
    k, r, j = draw(st.sampled_from(_star_chain_krj(4)))
    n = draw(st.integers(0, seed.n_max))
    tp = draw(st.integers(1, seed.prec))
    return name, k, r, j, n, tp


@settings(max_examples=150, deadline=None)
@given(call=_oracle_calls())
@example(call=("unit", 4, 0, 4, 6, 41))
@example(call=("dprime1", 4, 4, 0, 6, 1))
def test_closed_alpha_equals_the_uncached_formula(call):
    # the quotient memo stays warm across examples, at every order drawn
    name, k, r, j, n, tp = call
    seed = _ORACLE_SEEDS[name]
    got = B.closed_alpha_star_chain(seed, k, r, j, n, tp)
    want = naive.closed_alpha_star_chain(seed, k, r, j, n, tp)
    assert _same_series(got, want)


@settings(max_examples=4, deadline=None)
@given(order=st.randoms(use_true_random=False),
       tps=st.lists(st.integers(1, 41), min_size=2, max_size=2, unique=True))
def test_closed_alpha_from_a_memo_warmed_in_shuffled_order(order, tps):
    B._QUOTIENTS.clear()
    calls = [(name, *krj, n, tp) for name in _ORACLE_SEEDS
             for krj in _star_chain_krj(3) for n in range(7) for tp in tps]
    order.shuffle(calls)
    warm = [B.closed_alpha_star_chain(_ORACLE_SEEDS[name], *rest)
            for name, *rest in calls]
    for (name, *rest), got in zip(calls, warm):
        want = naive.closed_alpha_star_chain(_ORACLE_SEEDS[name], *rest)
        assert _same_series(got, want), (name, *rest)


def test_seed_quotient_of_a_reordered_dividend_is_equal():
    # marshal keeps a dict's insertion order, so an equal dividend built in
    # another order packs to other bytes: its lookup misses, and the
    # quotient is divided again, equal
    s = QSeries({0: 1, 4: -2, 6: 3, 10: 5}, 30)
    r = QSeries(dict(reversed(s.coeffs.items())), 30)
    assert r == s and list(r.coeffs) != list(s.coeffs)
    assert pack(None, [r]) != pack(None, [s])
    got = [B._seed_quotient(x, 6, 25) for x in (s, r, s)]
    assert len(B._QUOTIENTS) == 2
    want = s.divide(QSeries({0: 1, 6: -1}), 25)
    for q in got:
        assert (q.coeffs, q.prec) == (want.coeffs, want.prec)


def test_double_lattice_chain_at_q2():
    tp = 101
    seed = B.unit_pair(SM(1, 4), 10, tp)
    for (k, r, j) in ((2, 0, 1), (3, 1, 1), (3, 0, 2)):
        steps = B.double_lattice_chain(k, r, j)
        assert steps is not None
        final, log = B.run_chain(seed, steps, tp)
        assert all(row[2].ok for row in log)
    assert B.double_lattice_chain(2, 2, 0) is None  # step count would go negative


def test_boundary_double_lattice_chain():
    tp = 101
    seed = B.unit_pair(SM(1, 4), 10, tp)
    steps = B.boundary_double_lattice_chain(4, 1, 2, SM(-1, 2), SM(-1, 3))
    assert steps is not None
    final, log = B.run_chain(seed, steps, tp)
    assert all(row[2].ok for row in log)
    assert B.boundary_double_lattice_chain(3, 1, 1, SM(-1, 2), SM(-1, 3)) is None


def test_common2_k4_unit_seed():
    # the star-chain limit identity across the whole k <= 4 range
    tp = 61
    p = B.unit_pair(Q, 8, tp)
    for k in (1, 2, 3, 4):
        for r in range(0, k + 1):
            for j in range(0, k - r + 1):
                assert B.check_common2(p, k, r, j, tp) == (True, None), (k, r, j)


def test_beta_limit_of_unit_pair_is_zero():
    # the delta beta sequence stabilizes to 0, and the alpha-sum route
    # telescopes to 0 below the truncation order (a degenerate theta)
    tp = 61
    for a in (ONE_M, Q):
        p = B.unit_pair(a, 12, tp)
        assert B.beta_limit(p, tp).is_zero()


def test_star_chain_beta_limit_matches_catalog_sum():
    # (q)_inf times the chain's beta limit reproduces the binomial-row sum
    # side with the default factor subset
    from qident import identities as I
    qp = 22
    tp = 2 * qp + 1
    seed = B.unit_pair(Q, 30, tp)
    for (k, r, j) in ((2, 1, 1), (3, 1, 1), (2, 0, 2)):
        p = seed
        for step in B.star_chain(k, r, j):
            p = B.apply(step, p)
        bl = B.beta_limit(p, tp)
        lhs = I.lhs_series("stanton_31",
                           {"k": k, "r": r, "j": j, "T": tuple(range(1, j + 1))},
                           qp)
        got = bl * poch_infinite(Q, 2, tp)
        cmp_at = min(got.prec, lhs.prec, tp)
        assert got.equal_up_to(lhs.truncate(cmp_at), cmp_at) == (True, None), \
            (k, r, j)


# -- the packed beta-side sum and the verify kernel against the double loops --

_coeffs = st.dictionaries(
    st.integers(-6, 24), st.one_of(st.integers(-3, 3),
                                   st.integers(-2 ** 70, 2 ** 70)),
    max_size=5)


@st.composite
def _beta_sum_cases(draw, grid=1, bound=False):
    """Random beta values (zero ones included) known below, at or above tp,
    exact lifts with Laurent shifts, with and without the star bracket.
    With grid 2 every exponent of the betas and the lifts is even.  With
    ``bound`` the coefficients of a draw are of one size
    (``test_sumeval.sized_coeffs``), at t-orders up to 40."""
    raw = _coeffs
    if bound:
        raw = st.dictionaries(st.integers(-6, 24), sized_coeffs(draw),
                              max_size=5)
    coeffs = raw.map(lambda d: {grid * e: c for e, c in d.items()})
    n_max = draw(st.integers(0, 6))
    tp = draw(st.integers(1, 40 if bound else 16))
    beta = tuple(QSeries(draw(st.one_of(st.just({}), coeffs)),
                         tp + draw(st.sampled_from([-3, -1, 0, 1, 4])))
                 for _ in range(n_max + 1))
    lifts = [QSeries(draw(coeffs)).shift(grid * draw(st.integers(-6, 6)))
             for _ in range(n_max + 1)]
    return n_max, tp, beta, lifts, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_beta_sum_cases() | _beta_sum_cases(grid=2)
       | _beta_sum_cases(bound=True) | _beta_sum_cases(grid=2, bound=True))
# the unit pair at a = q^(-1/2) under STAR: a zero beta_1 known to tp, lifted
# by t^1 and lowered by the bracket's t^-2, leaves beta'_n known to tp - 1
@example((1, 5, (one(5), zero(5)), [one(), monomial(1, 1)], True))
# the unit pair at a = q under STAR, lifted by q^(l^2): every product of the
# beta-side sum packs on the grid step 2
@example((2, 9, (one(9), zero(9), zero(9)), [one(), monomial(1, 2),
                                             monomial(1, 8)], True))
# an exact-zero lift, as (rho)_l at rho = 1 for l >= 1: its product with
# beta_l stays an exact zero, however beta_l is cut before the lift
@example((2, 7, (one(7), monomial(3, 2, 7), one(6)), [one(), zero(), zero()],
          True))
def test_beta_sum_matches_the_double_loop(case):
    n_max, tp, beta, lifts, star = case
    p = B.BaileyPair(Q, n_max, (zero(tp),) * (n_max + 1), beta, tp)
    got = B._beta_sum(p, lifts.__getitem__, star)
    want = naive.beta_sum(p, lifts.__getitem__, star)
    assert [(s.coeffs, s.prec) for s in got] == \
        [(s.coeffs, s.prec) for s in want]


def test_verify_matches_the_two_product_form_on_a_corrupted_pair():
    p, _ = B.run_chain(B.pair_dprime4(Q, 6, 41), ["BL_INF", "KEY1", "STAR1"])
    bad_beta = naive.with_beta1_perturbed(p)
    bad_alpha = B.BaileyPair(p.a, p.n_max, p.alpha[:3] + (
        p.alpha[3] + monomial(-2, 30),) + p.alpha[4:], p.beta, p.prec)
    assert not B.verify(bad_beta).ok and not B.verify(bad_alpha).ok
    for pair in (p, bad_beta, bad_alpha):
        for prec in (None, 2, 25, 31):
            want, upto = naive.first_bad_n(pair, prec)
            assert B.verify(pair, prec) == B.VerifyResult(want is None, want,
                                                          upto)


# a = q^(-1/2), 1, q^(1/2), q and q^2
_PARAMETERS = (SM(1, -1), ONE_M, SM(1, 1), Q, SM(1, 4))


@st.composite
def _relation_cases(draw):
    """Pairs whose alphas have negative and odd exponents and coefficients of
    up to 67 bits, or are zero, known below, at or above tp or exactly."""
    n_max = draw(st.integers(0, 5))
    tp = draw(st.integers(1, 20))
    top = 2 ** draw(st.integers(0, 66))
    coeffs = st.dictionaries(st.integers(-6, 24), st.integers(-top, top),
                             max_size=5)
    alpha = tuple(QSeries(draw(st.one_of(st.just({}), coeffs)),
                          draw(st.sampled_from([tp - 3, tp - 1, tp, tp + 1,
                                                tp + 4, INF])))
                  for _ in range(n_max + 1))
    return B.BaileyPair(draw(st.sampled_from(_PARAMETERS)), n_max, alpha,
                        (zero(tp),) * (n_max + 1), tp)


def _sums(sums):
    return [(s.coeffs, s.prec) for s in sums]


def _clear_kernel_caches():
    for f in (B._relation_kernel, series.packed):
        f.cache_clear()


# What the beta-side sums of ``apply`` run and ``verify`` must not: their
# layer product, its operands 1/(t^d; t^d)_m, their width rule and the
# packed ring product.  ``layer_product`` is looked up in both modules,
# and ``product_bound`` in three.
APPLY_ONLY = ((sumeval, "layer_product"), (B, "layer_product"),
              (sumeval, "_ip"),
              (series, "product_bound"), (sumeval, "product_bound"),
              (I, "product_bound"), (series, "_mul_packed"))


@settings(max_examples=300, deadline=None)
@given(_relation_cases(), st.integers(1, 8))
def test_relation_sums_match_the_ring_double_loop(p, wider):
    tp = p.prec
    want = _sums(naive.relation_sums(p, tp))
    _clear_kernel_caches()
    assert _sums(B._relation_sums(p, tp)) == want
    # the same kernels at a width `wider` bytes more, the alphas scaled to
    # need it, then the pair again from a cache that holds both widths
    scale = 1 << 8 * wider
    scaled = naive.with_alpha(p, [scale * a for a in p.alpha])
    assert _sums(B._relation_sums(scaled, tp)) == [
        ({e: scale * c for e, c in coeffs.items()}, prec)
        for coeffs, prec in want]
    assert _sums(B._relation_sums(p, tp)) == want


def test_relation_sums_take_every_width_from_one_to_nine(monkeypatch):
    widths = []
    real = series.kron_pack
    monkeypatch.setattr(series, "kron_pack", lambda coeffs, low, stop, nbytes,
                        *rest: widths.append(nbytes)
                        or real(coeffs, low, stop, nbytes, *rest))
    base = B.unit_pair(SM(1, 1), 3, 9)
    seen = set()
    for bits in range(0, 66, 2):
        widths.clear()
        p = naive.with_alpha(base, [(1 << bits) * a for a in base.alpha])
        assert _sums(B._relation_sums(p, 9)) == _sums(
            naive.relation_sums(p, 9)), bits
        assert len(set(widths)) == 1, widths
        seen |= set(widths)
    assert seen == set(range(1, 10))


def test_verify_shares_only_the_codec_with_apply(monkeypatch):
    """verify is the oracle for the beta-side sums of ``apply``: on a chained
    pair it enters neither their layer product and its operands, nor their
    width rule, nor the packed ring product.  It shares only the Kronecker
    codec (``series.kron_pack`` and ``kron_unpack``, with ``series.Operand``,
    ``series.packed`` and the codec's one digit count
    ``series.digit_count``), whose own oracles are plain int arithmetic
    (``test_series.py::test_kron_pack_and_unpack_match_int_arithmetic``)
    and the length of a range
    (``test_series.py::test_digit_count_is_the_grid_below_stop``)."""
    p, log = B.run_chain(B.pair_dprime4(Q, 10, 101),
                         ["BL_INF", "KEY1", "BL_INF", "STAR1"])
    assert all(res.ok for _, _, res in log)
    _clear_kernel_caches()       # the kernels are built under the spies too

    def refuse(name):
        def spy(*args, **kwargs):
            raise AssertionError(f"verify entered {name}")
        return spy

    for module, name in APPLY_ONLY:
        monkeypatch.setattr(module, name, refuse(name))
    # the codec packs through kron_pack, its one packer
    packs = []
    real = series.kron_pack
    monkeypatch.setattr(series, "kron_pack", lambda *args: (
        packs.append(args) or real(*args)))
    # the digit count of every read-back and packing is series' one rule
    counts = []
    real_count = series.digit_count
    monkeypatch.setattr(series, "digit_count", lambda *args: (
        counts.append(args) or real_count(*args)))
    assert B.verify(p) == B.VerifyResult(True, None, 101)
    assert packs and counts


def test_run_chain_stops_at_the_first_failing_step(monkeypatch, unit_q):
    monkeypatch.setitem(B._TRANSFORMS, "KEY2", lambda p, step:
                        naive.with_beta1_perturbed(B._key_shared(p, True)))
    final, log = B.run_chain(unit_q, ["BL_INF", "KEY2", "BL_INF"])
    assert [(tag, res) for tag, _, res in log] == [
        ("BL_INF", B.VerifyResult(True, None, TP)),
        ("KEY2", B.VerifyResult(False, 1, TP))]
    assert final.a == ONE_M and not B.verify(final).ok


# -- the chain memo -------------------------------------------------------------


def _chain_result(pair, log):
    """Everything a chain returns, with each precision's identity to INF."""
    return (log, pair.a, pair.n_max, pair.prec,
            [(s.coeffs, s.prec, s.prec is INF) for s in pair.alpha + pair.beta])


def _count_steps(monkeypatch):
    calls = {"apply": 0, "verify": 0}
    for name in calls:
        real = getattr(B, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(B, name, counted)
    return calls


def test_a_stored_pair_reads_back_equal(monkeypatch):
    # exact series included: marshal reads inf back as a new float
    p = B.BaileyPair(Q, 1, (one(), monomial(-1, 3, 9)), (one(9), zero()), 9)
    seed = B.unit_pair(Q, 6, 31)
    monkeypatch.setattr(B, "apply", lambda step, pair: p)
    first = B.run_chain(seed, ["BL_INF"])
    assert _chain_result(*first)[1:] == _chain_result(p, [])[1:]
    calls = _count_steps(monkeypatch)
    back, log = B.run_chain(seed, ["BL_INF"])
    assert calls == {"apply": 0, "verify": 0}
    assert _chain_result(back, log) == _chain_result(*first)
    assert back.alpha[0].prec is INF and back.beta[1].prec is INF


def test_memoised_star_chains_equal_cold_runs():
    tp = 31
    chains = [(k, r, j) for k in range(1, 5) for r in range(k + 1)
              for j in range(k - r + 1)]
    assert len(chains) == 34
    random.Random(19).shuffle(chains)
    for mk in B.SEEDS.values():
        seed = mk(Q, 6, tp)
        warm = [_chain_result(*B.run_chain(seed, B.star_chain(*c), tp))
                for c in chains]
        for c, got in zip(chains, warm):
            B._CHAINS.clear()
            assert got == _chain_result(
                *B.run_chain(seed, B.star_chain(*c), tp)), (mk.__name__, c)


def test_a_chain_runs_only_the_steps_past_its_stored_prefix(monkeypatch):
    seed = B.unit_pair(Q, 6, 31)
    calls = _count_steps(monkeypatch)
    B.run_chain(seed, B.star_chain(3, 0, 0))
    assert calls == {"apply": 5, "verify": 5}
    # star_chain(4, 0, 0) is star_chain(3, 0, 0) and one more BL_INF
    B.run_chain(seed, B.star_chain(4, 0, 0))
    assert calls == {"apply": 6, "verify": 6}


def test_a_stored_failing_step_stops_a_longer_chain(monkeypatch, unit_q):
    monkeypatch.setitem(B._TRANSFORMS, "KEY2", lambda p, step:
                        naive.with_beta1_perturbed(B._key_shared(p, True)))
    first = B.run_chain(unit_q, ["BL_INF", "KEY2"])
    calls = _count_steps(monkeypatch)
    final, log = B.run_chain(unit_q, ["BL_INF", "KEY2", "BL_INF"])
    assert calls == {"apply": 0, "verify": 0}
    assert log == first[1] and log[-1][2] == B.VerifyResult(False, 1, TP)
    assert _chain_result(final, log) == _chain_result(*first)


def test_an_equal_seed_built_apart_shares_every_entry(monkeypatch):
    # the seed is keyed by its packed bytes, which must not depend on how
    # the equal content was built
    seed = B.unit_pair(Q, 6, 31)
    copy = B.BaileyPair(
        SM(seed.a.sign, seed.a.e), seed.n_max,
        *(tuple(QSeries._of({e: c for e, c in s.coeffs.items()}, s.prec)
                for s in side) for side in (seed.alpha, seed.beta)),
        seed.prec)
    steps = B.star_chain(3, 1, 1)
    first = _chain_result(*B.run_chain(seed, steps))
    calls = _count_steps(monkeypatch)
    assert _chain_result(*B.run_chain(copy, steps)) == first
    assert calls == {"apply": 0, "verify": 0}


def test_the_chain_memo_is_keyed_by_the_order():
    seed = B.unit_pair(Q, 6, 41)
    steps = B.star_chain(2, 0, 1)
    for tp in (41, 31):
        _, log = B.run_chain(seed, steps, tp)
        assert [res.prec for _, _, res in log] == [tp] * len(steps)


def test_seeds_that_differ_in_one_coefficient_share_no_entry(monkeypatch):
    seed = B.unit_pair(Q, 6, 31)
    alpha = list(seed.alpha)
    alpha[2] = alpha[2] + monomial(1, 12, 31)
    other = B.BaileyPair(seed.a, seed.n_max, tuple(alpha), seed.beta,
                         seed.prec)
    steps = B.star_chain(2, 1, 0)
    B.run_chain(seed, steps)
    calls = _count_steps(monkeypatch)
    got = _chain_result(*B.run_chain(other, steps))
    # with alpha_2 broken the seed is no Bailey pair: its first step fails
    assert calls == {"apply": 1, "verify": 1}
    assert [res.ok for _, _, res in got[0]] == [False]
    assert len(B._CHAINS) == len(steps) + 1
    B._CHAINS.clear()
    assert got == _chain_result(*B.run_chain(other, steps))
