"""Families, enumerators, head-rewriting bijections, and oracles."""

import gc
import sys

import pytest

from qident import identities as I
from qident import motion as M
from qident import sets as S
from qident.errors import (InvalidParameters, KindMismatch, NotAMember,
                           PrecisionExceeded)
from qident.qfunctions import Q, SignedMonomial as SM, poch_infinite, triple_product

from catalog_helpers import rhs_series
from gf_oracle import count_partitions, oracle_mod_partitions
from motion_replay import states
from series_oracle import newton_invert, qcoeff


def test_enum_freq_small():
    members = sorted(S.enum_freq(1, 2))
    assert members == [(), (0, 0, 1), (0, 1), (1,), (1, 0, 1)]
    w0 = sorted(S.enum_freq(2, 0))
    assert w0 == [(), (1,), (2,)]
    # no duplicates, all canonical, all in the family
    big = S.enum_freq(3, 10)
    assert len(big) == len(set(big))
    assert all(f == M.canonical(f) and M.in_A(f, 3) for f in big)


def test_enumerators_reject_bad_k_and_weight_bounds():
    for call in (lambda: S.enum_mp_family(0, 0, 0, 12),
                 lambda: S.enum_mp_family(2, 0, 0, -1),
                 lambda: S.gf_family(S.SetPredicate("X", k=0), 5),
                 lambda: S.enum_freq(0, 5),
                 lambda: S.enum_freq(2, -3)):
        with pytest.raises(InvalidParameters):
            call()


def test_enum_freq_result_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        # one reference from the call's argument, one from getrefcount
        assert sys.getrefcount(S.enum_freq(2, 8)) == 2
        assert sys.getrefcount(S.enum_mp_family(3, 3, 0, 14)) == 2
    finally:
        gc.enable()


def test_enum_freq_counts_match_insertion_transport():
    # the weight-w count of the bounded family equals the number of
    # multipartition pairs of total size w
    for k in (1, 2):
        W = 10
        a_counts = {}
        for f in S.enum_freq(k, W):
            a_counts[M.weight(f)] = a_counts.get(M.weight(f), 0) + 1
        p_counts = {}
        for mp in S.enum_mp_family(k, k, 0, W):  # j=k, r=0: all parts >= 0
            w = S.mp_total_size(mp)
            p_counts[w] = p_counts.get(w, 0) + 1
        for w in range(W + 1):
            assert a_counts.get(w, 0) == p_counts.get(w, 0), (k, w)


def test_membership_examples():
    assert not S.in_Z((1, 1), 1, 1, 2)
    assert S.in_Z((), 1, 1, 2)
    assert S.in_X(((3, 1), (), (6, 6, 5, 3), (19, 0)), 4, 0, 4)
    # at k = 2, r = j = 0 the parts of lambda^(1) are >= 1 and those of
    # lambda^(2) >= 2; Xp wants the parts of lambda^(2) even, Xpt odd
    x, xp, xpt = (S.SetPredicate(tag, k=2) for tag in ("X", "Xp", "Xpt"))
    assert x.member(((1,), (2,))) and x.member(((1,), (3,)))
    for mp in (((1,),), ((1,), (2,), ()), ((0,), (2,)), ((1,), (1,)),
               ((1, 0), (2,)), ((1,), (2, 1))):
        assert not any(pred.member(mp) for pred in (x, xp, xpt)), mp
    assert xp.member(((1,), (2,))) and not xp.member(((1,), (3,)))
    assert xpt.member(((1,), (3,))) and not xpt.member(((1,), (2,)))
    assert not xpt.member(((1,), (3, 2)))
    pred = S.SetPredicate("Z", k=2, r=1, j=1)
    assert pred.member((0, 1))
    with pytest.raises(KindMismatch):
        S.membership(pred, ((1,),))
    with pytest.raises(KindMismatch):
        S.membership(S.SetPredicate("X", k=1), (1, 0))
    with pytest.raises(InvalidParameters):
        S.membership(S.SetPredicate("nope", k=1), (1,))
    with pytest.raises(InvalidParameters):
        S.SetPredicate("Yp", k=2, r=1, j=1, s=1)    # Yp does not take s
    # a negative or boolean entry is not a frequency sequence
    for pred, obj in ((S.SetPredicate("A", k=2), (-5, 2)),
                      (S.SetPredicate("Z", k=2, r=1, j=1), (-5, 2)),
                      (S.SetPredicate("Y_s", k=2, s=-5), (-5, 2)),
                      (S.SetPredicate("A", k=2), (True, 1))):
        with pytest.raises(KindMismatch):
            S.membership(pred, obj)


@pytest.mark.parametrize("tag", ["X", "Xp", "Xpt"])
def test_mp_membership_agrees_with_enumeration(tag):
    # the candidates are the images under gamma of A_k to weight 10, which
    # are every k-multipartition of total size <= 10, built without the
    # multipartition enumerator
    for k in (1, 2, 3):
        cands = [M.gamma_map(f, k) for f in S.enum_freq(k, 10)]
        for point in S.FAMILIES[tag].domain(k):
            pred = S.SetPredicate(tag, **point)
            assert sorted(S.enum_family(pred, 10)) == sorted(
                mp for mp in cands if S.membership(pred, mp)), point


FREQ_TAGS = [tag for tag, row in S.FAMILIES.items()
             if row.kind == "frequency sequence"]


@pytest.mark.parametrize("tag", FREQ_TAGS)
def test_enum_family_filters_like_membership(tag):
    # the enumeration reads the head and parity rules without the kind and
    # A_k checks, and must keep exactly the members, in enum_freq's order
    for k in (1, 2, 3):
        cands = S.enum_freq(k, 12)
        for point in S.FAMILIES[tag].domain(k):
            pred = S.SetPredicate(tag, **point)
            assert S.enum_family(pred, 12) == [
                f for f in cands if S.membership(pred, f)], point


@pytest.mark.parametrize("tag", FREQ_TAGS)
def test_transfer_matrix_gf_matches_enumeration(tag):
    # the head rule is shared with the enumerator, so this checks the
    # automaton: the adjacent-sum bound, the parity steps and the weights,
    # down to the bounds where the last position is u = 0 or 1
    for W in (0, 1, 14):
        for k in (1, 2, 3):
            for point in S.FAMILIES[tag].domain(k):
                pred = S.SetPredicate(tag, **point)
                want = S.gf_members(S.enum_family(pred, W), W)
                assert S.gf_family(pred, W) == want, (W, point)


def test_a_parameter_the_family_does_not_take_is_named_in_the_record():
    # the refusal prints the record, in the Name(field=value, ...) form
    with pytest.raises(InvalidParameters) as refused:
        S.SetPredicate("A", 2, r=1)
    assert str(refused.value) == ("family A takes parameters ['k']; got "
                                  "SetPredicate(tag='A', k=2, r=1, j=0, s=0)")


def test_predicate_rejects_an_unknown_tag():
    with pytest.raises(InvalidParameters, match="'W'"):
        S.predicate("W", k=1)


def test_parity_condition_includes_position_zero():
    # pair (f_0, f_1) counts: 0*f_0 + 1*f_1 must match the parity
    f = (1, 2)  # f_0 + f_1 = 3 = k; f_1 = 2 even
    assert S.parity_condition(f, 3, 0)
    assert not S.parity_condition(f, 3, 1)


def test_phi_pi_examples():
    assert S.phi(2, 1, 3, (3,)) == (2,)
    assert S.phi(2, 1, 3, (1, 1)) == (1, 1)
    with pytest.raises(NotAMember):
        S.phi(1, 1, 2, (1, 1))     # not in the Y family
    with pytest.raises(NotAMember):
        S.pi(1, 1, 2, (1, 1))


def test_phi_pi_round_trip_sweep():
    for k in (1, 2, 3, 4):
        for r in range(0, k + 1):
            for j in range(0, k - r + 1):
                Y = S.enum_family(S.SetPredicate("Y", k=k, r=r, j=j), 20)
                Z = S.enum_family(S.SetPredicate("Z", k=k, r=r, j=j), 20)
                assert len(Y) == len(Z)
                for f in Y:
                    g = S.phi(j, r, k, f)
                    assert S.in_Z(g, j, r, k)
                    assert M.weight(g) == M.weight(f)
                    assert S.pi(j, r, k, g) == f


def test_phi_preserves_parity_on_primed_families():
    for k in (2, 3):
        for r in range(0, k + 1):
            for j in range(0, k - r + 1):
                Yp = S.enum_family(S.SetPredicate("Yp", k=k, r=r, j=j), 14)
                for f in Yp:
                    g = S.phi(j, r, k, f)
                    assert S.membership(S.SetPredicate("Zp", k=k, r=r, j=j), g)


def test_oracle_mod_partitions():
    s = oracle_mod_partitions(5, {0, 1, 4}, 20)
    assert qcoeff(s, 4) == 1            # only 2 + 2
    assert qcoeff(s, 0) == 1
    all_excluded = oracle_mod_partitions(3, {0, 1, 2}, 15)
    assert all_excluded.coeffs == {0: 1}
    # cross-check against the Pochhammer route
    tp = 41
    via_poch = newton_invert(poch_infinite(SM(1, 4), 10, tp)
                             * poch_infinite(SM(1, 6), 10, tp), tp)
    assert s.equal_up_to(via_poch, 41) == (True, None)


def test_partition_length_min_count_gf():
    # q^(d l)/(q)_l and the parity variants, against brute counts
    from qident.qfunctions import inv_poch_finite
    for length in (1, 2, 3):
        for d in (0, 1, 2):
            tp = 41
            gf = inv_poch_finite(Q, 2, length, tp).shift(2 * d * length)
            for n in range(18):
                assert qcoeff(gf, n) == count_partitions(n, length, d), \
                    (length, d, n)
            gf2 = inv_poch_finite(SM(1, 4), 4, length, tp).shift(2 * d * length)
            for n in range(18):
                assert qcoeff(gf2, n) == count_partitions(n, length, d,
                                                          parity=d % 2), \
                    (length, d, n)


def test_gordon_gf_vs_product_oracle():
    for k in (1, 2):
        for r in range(0, k + 1):
            gf = S.gf_family(S.SetPredicate("gordon", k=k, r=r), 20)
            orc = oracle_mod_partitions(2 * k + 3,
                                          {0, k - r + 1, -(k - r + 1)}, 20)
            assert gf.equal_up_to(orc, 41) == (True, None)


def test_y_single_head_lemma():
    # gf(Y_{s,k}) equals the odd-moduli product with the head as parameter
    for k in (1, 2, 3):
        for s in range(0, k + 1):
            W = 18
            tp = 2 * W + 1
            gf = S.gf_family(S.SetPredicate("Y_s", k=k, s=s), W)
            prod = (triple_product(2 * (2 * k + 3), 2 * (k + 1 - s), tp)
                    * newton_invert(poch_infinite(Q, 2, tp), tp))
            assert gf.equal_up_to(prod.truncate(tp), tp) == (True, None)


def test_y_primed_head_lemmas():
    # the even-moduli analogues, with and without the parity flip
    for k in (1, 2, 3):
        for s in range(0, k + 1):
            W = 16
            tp = 2 * W + 1
            gf = S.gf_family(S.SetPredicate("Yp_s", k=k, s=s), W)
            A = 2 * (k + 1 - s)
            M_t = 2 * (2 * k + 2)
            prod = (triple_product(M_t, A, tp)
                    * newton_invert(poch_infinite(Q, 2, tp), tp))
            assert gf.equal_up_to(prod.truncate(tp), tp) == (True, None)
            gft = S.gf_family(S.SetPredicate("Ypt_s", k=k, s=s), W)
            At = 2 * (k - s)
            if At % M_t != 0:
                prodt = (triple_product(M_t, At, tp)
                         * newton_invert(poch_infinite(Q, 2, tp), tp))
                assert gft.equal_up_to(prodt.truncate(tp), tp) == (True, None)
            else:
                assert gft.is_zero()


def test_y_family_gf_matches_product_sum():
    # gf of the Y family equals the catalog product side (odd moduli)
    for (k, r, j) in ((2, 1, 1), (3, 1, 2), (3, 2, 1), (2, 0, 2)):
        W = 16
        gf = S.gf_family(S.SetPredicate("Y", k=k, r=r, j=j), W)
        ref = rhs_series("stanton_32", {"k": k, "r": r, "j": j}, W)
        assert gf.equal_up_to(ref.truncate(2 * W + 1), 2 * W + 1) == (True, None)


def test_interpretations_small():
    for thm in ("1.11", "1.12", "1.13"):
        rep = S.check_interpretation(thm, 2, 1, 1, 16)
        assert rep.equal, (thm, rep)
    with pytest.raises(InvalidParameters):
        S.check_interpretation("1.14", 2, 1, 1, 10)
    with pytest.raises(InvalidParameters):
        S.check_interpretation("1.11", 2, 2, 1, 10)


def test_interpretation_refuses_a_short_side(monkeypatch):
    # the comparison is at q-order max_weight exactly, never at the lower
    # order of a side that came back short
    gf_family = S.gf_family
    monkeypatch.setattr(S, "gf_family",
                        lambda pred, W: gf_family(pred, W).truncate(2 * W - 1))
    with pytest.raises(PrecisionExceeded):
        S.check_interpretation("1.11", 2, 1, 1, 16)


def test_ztilde_relation_small():
    rep = S.check_ztilde_relation(3, 1, 1, 14)
    assert rep.equal, rep
    for k, r, j in ((3, 0, 1), (0, 1, 0), (3, 1, -1), (3, 2, 2)):
        with pytest.raises(InvalidParameters):
            S.check_ztilde_relation(k, r, j, 10)


def _swapped(members, old, new):
    return [new if f == old else f for f in members]


def test_ztilde_relation_reports_each_broken_member_set(monkeypatch):
    # check_ztilde_relation(3, 1, 1, 12) enumerates the tilde family Zpt at
    # r = 1 and its neighbours Zp at r = 0 and r = 2; edits[(tag, r)]
    # rewrites the member list of one of them
    real, edits = S.enum_family, {}
    monkeypatch.setattr(S, "enum_family", lambda pred, W: edits.get(
        (pred.tag, pred.r), list)(real(pred, W)))
    zt, zm, zp = (set(real(S.SetPredicate(tag, k=3, r=r, j=1), 12))
                  for tag, r in (("Zpt", 1), ("Zp", 0), ("Zp", 2)))
    assert S.check_ztilde_relation(3, 1, 1, 12) == S.SetReport(True, None, "")
    # the difference set that the shift map carries onto zt - zp
    diff = sorted(zm - zt, key=lambda f: (M.weight(f), f))
    f = next(f for f in diff if M.weight(f) >= 2)
    w, head7 = M.weight(f), (7,)    # a head of 7 is outside A_3
    g, h = [g for g in diff if M.weight(g) == M.weight(diff[-1])][:2]
    light = min(zp, key=M.weight)
    cases = [
        # a Zp neighbour at r = 2 that is not in the tilde family
        (("Zp", 2), lambda fs: fs + [f], "inclusion chain fails", None),
        # one member fewer at r = 2: q gf(Z'_{j,r+1,k}) loses q^(w+1)
        (("Zp", 2), lambda fs: [m for m in fs if m != light],
         "three-term gf relation fails", 2 * (M.weight(light) + 1)),
        # a member of zm - zt swapped for one of the same weight keeps the gf
        # relation; the shift map then meets one with f_1 = 0 ...
        (("Zp", 0), lambda fs: _swapped(fs, f, head7 + (0,) * (w - 1) + (1,)),
         f"shift map undefined on {head7 + (0,) * (w - 1) + (1,)}", None),
        # ... one whose image has a head outside A_3 ...
        (("Zp", 0), lambda fs: _swapped(fs, f, head7 + f[1:]),
         f"shift image {head7 + (f[1] - 1,) + f[2:]} escapes the target",
         None),
        # ... and another member with a trailing zero
        (("Zp", 0), lambda fs: _swapped(fs, g, h + (0,)),
         f"shift map collides at {M.canonical((h[0], h[1] - 1) + h[2:])}",
         None),
    ]
    for key, edit, detail, mismatch in cases:
        edits.clear()
        edits[key] = edit
        assert S.check_ztilde_relation(3, 1, 1, 12) == S.SetReport(
            False, mismatch, detail), detail


def test_x_family_gf_matches_multisum():
    for (k, r, j) in ((2, 1, 1), (3, 1, 1), (2, 0, 2)):
        W = 14
        gfX = S.gf_family(S.SetPredicate("X", k=k, r=r, j=j), W)
        ref = I.lhs_series("stanton_32", {"k": k, "r": r, "j": j}, W)
        assert gfX.equal_up_to(ref.truncate(2 * W + 1), 2 * W + 1) == (True, None)


def test_lambda_transport_between_families():
    for (k, r, j) in ((2, 1, 1), (3, 1, 1)):
        for mp in S.enum_mp_family(k, j, r, 12):
            f = M.lambda_map(mp)
            assert S.in_Z(f, j, r, k)
            assert M.gamma_map(f, k) == mp
        Z = S.enum_family(S.SetPredicate("Z", k=k, r=r, j=j), 12)
        for f in Z:
            mp = M.gamma_map(f, k)
            assert S.in_X(mp, j, r, k)
            assert M.lambda_map(mp) == f


def test_lambda_transport_full_sweep():
    # every member of each part-bounded family lands in the matching
    # head-bounded family (and back), including the parity-constrained pairs,
    # with the head invariant holding along every intermediate state
    for k in (1, 2, 3):
        for r in range(0, k + 1):
            for j in range(0, k - r + 1):
                for mp in S.enum_mp_family(k, j, r, 12):
                    f, tr = M.lambda_map(mp, trace=True)
                    assert S.in_Z(f, j, r, k), (k, r, j, mp)
                    thetas = states(tr)
                    for idx, th in enumerate(thetas):
                        i = len(thetas) - 1 - idx
                        g = list(th) + [0] * (2 * i + 4 - len(th))
                        head, nxt = g[2 * i], g[2 * i + 1]
                        assert head <= j - max(head + nxt - (k - r), 0), \
                            (k, r, j, mp, i)
                for par, ztag in (((k + r - j) % 2, "Zp"),
                                  ((k + r - j + 1) % 2, "Zpt")):
                    for mp in S.enum_mp_family(k, j, r, 10, parity=par):
                        f = M.lambda_map(mp)
                        assert S.membership(
                            S.SetPredicate(ztag, k=k, r=r, j=j), f)
                Z = S.enum_family(S.SetPredicate("Z", k=k, r=r, j=j), 10)
                for f in Z:
                    assert S.in_X(M.gamma_map(f, k), j, r, k), (k, r, j, f)


def test_gordon_gf_vs_catalog_product():
    for k in (1, 2):
        for r in range(0, k + 1):
            gf = S.gf_family(S.SetPredicate("gordon", k=k, r=r), 25)
            ref = rhs_series("andrews_gordon", {"k": k, "r": r}, 25)
            assert gf.equal_up_to(ref.truncate(51), 51) == (True, None)


def classical_even_model_gf(k, r, parity_shift, W):
    """The 1-indexed even-moduli partition model: no zero parts, f_1 <= k-r,
    adjacent sums at most k, and every saturated pair at positions >= 1 obeys
    the parity condition (shift 0 or 1 selects the two companion models)."""
    from qident.series import QSeries
    counts = {}
    for f in S.enum_freq(k, W):
        g = list(f) + [0, 0]
        if g[0] != 0 or g[1] > k - r:
            continue
        ok = all((i * g[i] + (i + 1) * g[i + 1]) % 2
                 == (k - r + parity_shift) % 2
                 for i in range(1, len(g) - 1) if g[i] + g[i + 1] == k)
        if ok:
            w = M.weight(f)
            counts[2 * w] = counts.get(2 * w, 0) + 1
    return QSeries(counts, 2 * W + 1)


def test_classical_even_moduli_partition_models():
    from qident.series import QSeries
    W = 18
    tp = 2 * W + 1
    for k in (1, 2, 3):
        for r in range(0, k + 1):
            gf = classical_even_model_gf(k, r, 0, W)
            ref = rhs_series("bressoud_even", {"k": k, "r": r}, W)
            assert gf.equal_up_to(ref.truncate(tp), tp) == (True, None), (k, r)
            if r >= 1:
                # for r = 0 the two excluded residues coincide mod 2k+2 and
                # the product is no longer a plain congruence-class count
                orc = oracle_mod_partitions(2 * k + 2,
                                              {0, k - r + 1, -(k - r + 1)}, W)
                assert gf.equal_up_to(orc, tp) == (True, None), (k, r)
            gft = classical_even_model_gf(k, r, 1, W)
            rhs = rhs_series("kursungoz_0", {"k": k, "r": r}, W)
            reft = rhs * newton_invert(QSeries([(0, 1), (2, 1)]), tp)
            assert gft.equal_up_to(reft.truncate(tp), tp) == (True, None), (k, r)
