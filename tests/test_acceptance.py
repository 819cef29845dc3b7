"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  Everything here is coefficient-wise with tolerance zero; the
stated q-orders are the contract.
"""

import time
from itertools import combinations

import pytest

from qident import bailey as B
from qident import identities as I
from qident import motion as M
from qident import sets as S
from qident.errors import DegenerateDivision
from qident.qfunctions import ONE_M, Q, SignedMonomial as SM
from qident.qfunctions import triple_product

from catalog_helpers import rhs_series
from gf_oracle import theta_sum
from motion_replay import replays
from series_oracle import qcoeff


@pytest.fixture(autouse=True)
def _cold_chain_memo():
    # no test is served steps another test ran
    B._CHAINS.clear()
    yield
    B._CHAINS.clear()


def _announce(tag, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}"
    if detail and detail not in ("[]", "()"):
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- criterion 1: full catalog sweep ------------------------------------------------


def test_criterion_1_catalog_sweep_order60():
    t0 = time.time()
    reports = I.sweep(4, 60)
    bad = [r for r in reports if not r.equal]
    _announce("catalog sweep k<=4 at q-order 60 "
              f"({len(reports)} rows, {time.time()-t0:.1f}s)",
              not bad, "; ".join(f"{r.name}{r.params}" for r in bad[:3]))


# -- criterion 2: Rogers-Ramanujan spot check ----------------------------------------


def brute_gap2_partitions(n, max_ones):
    def rec(i, prev, left):
        if left == 0:
            return 1
        if i > left:
            return 0
        total = 0
        cap = 1 - prev if i != 1 else min(1 - prev, max_ones)
        return sum(rec(i + 1, v, left - i * v)
                   for v in range(0, cap + 1) if i * v <= left)
    return rec(1, 0, n)


def test_criterion_2_rr_spot_check():
    count = brute_gap2_partitions(10, max_ones=1)
    lhs = I.lhs_series("rogers_ramanujan", {"a": 1}, 12)
    rhs = rhs_series("rogers_ramanujan", {"a": 1}, 12)
    ok = qcoeff(lhs, 10) == qcoeff(rhs, 10) == count == 6
    _announce(f"Rogers-Ramanujan q^10 coefficient = {count} on both sides", ok)


# -- criterion 3: Jacobi triple product ----------------------------------------------


def test_criterion_3_triple_product_order100():
    tp = 201  # q-order 100 on the half-power grid
    bad = []
    for Mm in range(1, 13):
        for A in range(1, Mm):
            eq, e = theta_sum(Mm, A, tp).equal_up_to(
                triple_product(Mm, A, tp), tp)
            if not eq:
                bad.append((Mm, A, e))
    _announce("theta sum = triple product for all M <= 12 to q-order 100",
              not bad, str(bad[:3]))


# -- criterion 4: the Bailey engine ---------------------------------------------------


def test_criterion_4a_single_transforms():
    tp = 101
    seeds = {"unit(q)": B.unit_pair(Q, 10, tp),
             "unit(1)": B.unit_pair(ONE_M, 10, tp),
             "dprime1(q)": B.pair_dprime1(Q, 10, tp),
             "dprime4(q)": B.pair_dprime4(Q, 10, tp)}
    steps = [B.TransformStep("BL_INF"),
             B.TransformStep("BL_RHO", rho=SM(-1, 3)),
             B.TransformStep("LATTICE_INF"),
             B.TransformStep("KEY1"), B.TransformStep("KEY2"),
             B.TransformStep("LOVEJOY_B0"),
             B.TransformStep("LOVEJOY", b=SM(-1, 0)),
             B.TransformStep("STAR"), B.TransformStep("STAR1")]
    bad, ran = [], 0
    for name, p in seeds.items():
        for step in steps:
            try:
                out = B.apply(step, p)
            except DegenerateDivision:
                continue  # documented degenerate combinations (a = 1 cases)
            res = B.verify(out, tp)
            ran += 1
            if not res.ok:
                bad.append((name, step.tag, res.first_bad_n))
    _announce(f"defining relation holds after every single transform "
              f"({ran} combinations, n_max=10, q-order 50)", not bad,
              str(bad[:3]))


def test_criterion_4b_star_chains_full_sweep():
    tp = 101
    t0 = time.time()
    seeds = {"unit(q)": B.unit_pair(Q, 10, tp),
             "dprime1(q)": B.pair_dprime1(Q, 10, tp),
             "dprime4(q)": B.pair_dprime4(Q, 10, tp)}
    bad, chains = [], 0
    for name, seed in seeds.items():
        for k in range(1, 5):
            for r in range(0, k + 1):
                for j in range(0, k - r + 1):
                    final, log = B.run_chain(seed, B.star_chain(k, r, j), tp)
                    chains += 1
                    if not all(row[2].ok for row in log):
                        bad.append((name, k, r, j))
                        continue
                    for n in range(final.n_max + 1):
                        want = B.closed_alpha_star_chain(seed, k, r, j, n, tp)
                        cmp_at = min(final.alpha[n].prec, want.prec, tp)
                        if final.alpha[n].equal_up_to(want, cmp_at) != (True, None):
                            bad.append((name, k, r, j, "alpha", n))
                            break
    _announce(f"star chains verified stepwise with closed-form alpha "
              f"({chains} chains, {time.time()-t0:.1f}s)", not bad, str(bad[:3]))


def test_criterion_4c_double_lattice_chains():
    tp = 101
    seed = B.unit_pair(SM(1, 4), 10, tp)  # both lattice steps stay non-degenerate
    bad, chains = [], 0
    for k in range(1, 5):
        for r in range(0, k + 1):
            for j in range(0, k - r + 1):
                steps = B.double_lattice_chain(k, r, j)
                if steps is None:
                    continue
                _, log = B.run_chain(seed, steps, tp)
                chains += 1
                if not all(row[2].ok for row in log):
                    bad.append((k, r, j))
    bsteps = B.boundary_double_lattice_chain(4, 1, 2, SM(-1, 2), SM(-1, 3))
    _, blog = B.run_chain(seed, bsteps, tp)
    chains += 1
    if not all(row[2].ok for row in blog):
        bad.append("boundary")
    _announce(f"double-lattice proof chains verified stepwise "
              f"({chains} chains at parameter q^2)", not bad, str(bad[:3]))


def test_criterion_4d_lattice_consequences():
    tp = 101
    t0 = time.time()
    # the slow-growing first/last variables of the boundary formula need
    # summation indices up to 11 at this order, so the prefixes carry n_max 12
    seeds_q = [B.unit_pair(Q, 12, tp), B.pair_dprime1(Q, 12, tp),
               B.pair_dprime4(Q, 12, tp)]
    seeds_1 = [B.unit_pair(ONE_M, 12, tp), B.pair_dprime1(ONE_M, 12, tp),
               B.pair_dprime4(ONE_M, 12, tp)]
    bad, runs = [], 0
    # j = 0 is the classical single-lattice consequence
    for p in seeds_q + seeds_1:
        for k in (1, 2, 3):
            for r in range(-1, k + 1):
                for j in range(0, k - r + 1):
                    runs += 1
                    if B.check_coro3(p, k, r, j, B.INFINITY, B.INFINITY,
                                     tp) != (True, None):
                        bad.append(("coro3-oo", p.a.text(), k, r, j))
    combos = [(B.INFINITY, SM(-1, 2)), (B.INFINITY, SM(-1, 3)),
              (SM(-1, 0), B.INFINITY), (SM(-1, 0), SM(-1, 3))]
    for b, c in combos:
        for k in (1, 2, 3):
            for r in range(0, k + 1):
                for j in range(0, k - r + 1):
                    runs += 1
                    if B.check_coro3(seeds_q[0], k, r, j, b, c, tp) != (True, None):
                        bad.append(("coro3", str(b), str(c), k, r, j))
    for p in seeds_q[1:]:
        for (k, r, j) in ((2, 1, 1), (3, 1, 1), (3, 0, 2)):
            runs += 1
            if B.check_coro3(p, k, r, j, B.INFINITY, SM(-1, 2), tp) != (True, None):
                bad.append(("coro3-seed", k, r, j))
    _announce(f"lattice-consequence formulas two-sided for k <= 3 incl. r = -1 "
              f"({runs} runs, {time.time()-t0:.1f}s)", not bad, str(bad[:3]))


# -- criterion 5: commutation ----------------------------------------------------------


def test_criterion_5_commutation():
    tp = 81  # q-order 40
    bad = []
    for mk in (B.unit_pair, B.pair_dprime1, B.pair_dprime4):
        seed = mk(Q, 8, tp)
        p = B.apply("KEY1", seed)
        if not B.commute_check(p, tp):
            bad.append(mk.__name__)
        p2 = B.apply("STAR1", p)
        if not B.commute_check(p2, tp):
            bad.append(mk.__name__ + "+star1")
    _announce("application order of the two a-preserving steps commutes "
              "(n_max=8, q-order 40)", not bad, str(bad))


# -- criterion 6: bijection round trip ---------------------------------------------------


def test_criterion_6_bijection_round_trip():
    t0 = time.time()
    bad = []
    # worked example, verbatim shapes (its printed size tallies to 161)
    mp = ((3, 1), (), (6, 6, 5, 3), (19, 0))
    out = M.lambda_map(mp)
    if out != (4, 0, 0, 3, 0, 1, 2, 1, 1, 2, 1, 2, 0, 3, 1, 0, 0, 1):
        bad.append("worked example image")
    if M.weight(out) != M.mp_size(mp) + M.weight(M.frame_of(mp)) != 161:
        bad.append("worked example size")
    if M.gamma_map(out, 4) != mp:
        bad.append("worked example inverse")
    checked = 0
    for k in (1, 2, 3):
        for mp2 in S.enum_mp_family(k, k, 0, 18):   # all of P_k, size <= 18
            f, tr = M.lambda_map(mp2, trace=True)
            checked += 1
            if not M.in_A(f, k):
                bad.append(("image", k, mp2)); break
            if M.weight(f) != S.mp_total_size(mp2):
                bad.append(("size", k, mp2)); break
            if M.gamma_map(f, k) != mp2:
                bad.append(("round", k, mp2)); break
            if not replays(tr):
                bad.append(("stepwise replay", k, mp2)); break
        for f in S.enum_freq(k, 18):                # all of A_k, weight <= 18
            mp3, tr = M.gamma_map(f, k, trace=True)
            checked += 1
            if M.lambda_map(mp3) != f:
                bad.append(("inverse round", k, f)); break
            if not replays(tr):
                bad.append(("inverse stepwise replay", k, f)); break
    _announce(f"insertion bijection round-trips both ways, k <= 3, size <= 18 "
              f"({checked} objects, {time.time()-t0:.1f}s)", not bad,
              str(bad[:2]))


# -- criterion 7: combinatorial interpretations -------------------------------------------


def test_criterion_7_interpretations():
    t0 = time.time()
    bad = []
    for k in (1, 2, 3):
        for r in range(0, k + 1):
            for j in range(0, k - r + 1):
                for thm in ("1.11", "1.12", "1.13"):
                    rep = S.check_interpretation(thm, k, r, j, 60)
                    if not rep.equal:
                        bad.append((thm, k, r, j))
    _announce(f"frequency-family interpretations match the sum sides to "
              f"q-order 60 ({time.time()-t0:.1f}s)", not bad, str(bad[:3]))


def test_criterion_7b_multipartition_gf_and_head_bijections():
    t0 = time.time()
    bad = []
    for k in (1, 2, 3):
        for r in range(0, k + 1):
            for j in range(0, k - r + 1):
                W = 18
                ref = I.lhs_series("stanton_32", {"k": k, "r": r, "j": j}, W)
                gfX = S.gf_family(S.SetPredicate("X", k=k, r=r, j=j), W)
                if gfX.equal_up_to(ref.truncate(2 * W + 1), 2 * W + 1) != (True, None):
                    bad.append(("X", k, r, j))
                ref = I.lhs_series("stanton_42", {"k": k, "r": r, "j": j}, W)
                gfXp = S.gf_family(S.SetPredicate("Xp", k=k, r=r, j=j), W)
                if gfXp.equal_up_to(ref.truncate(2 * W + 1), 2 * W + 1) != (True, None):
                    bad.append(("Xp", k, r, j))
                ref = I.lhs_series("nonbinom_kursungoz",
                                   {"k": k, "r": r, "j": j}, W)
                gfXpt = S.gf_family(S.SetPredicate("Xpt", k=k, r=r, j=j), W)
                if gfXpt.equal_up_to(ref.truncate(2 * W + 1), 2 * W + 1) != (True, None):
                    bad.append(("Xpt", k, r, j))
                for f in S.enum_family(S.SetPredicate("Y", k=k, r=r, j=j), 20):
                    g = S.phi(j, r, k, f)
                    if S.pi(j, r, k, g) != f or M.weight(g) != M.weight(f):
                        bad.append(("phi/pi", k, r, j, f))
                        break
    _announce(f"multipartition generating functions + head bijections to "
              f"weight 20 ({time.time()-t0:.1f}s)", not bad, str(bad[:3]))


# -- criterion 8: the tilde-family three-term relation --------------------------------------


def test_criterion_8_ztilde_relation():
    t0 = time.time()
    bad = []
    for k in (1, 2, 3):
        for r in range(1, k + 1):
            for j in range(0, k - r + 1):
                rep = S.check_ztilde_relation(k, r, j, 20)
                if not rep.equal:
                    bad.append((k, r, j, rep.detail))
    _announce(f"(1+q) gf(Ztilde') = gf(Z'_{{r-1}}) + q gf(Z'_{{r+1}}) "
              f"by enumeration to weight 20 ({time.time()-t0:.1f}s)",
              not bad, str(bad[:2]))


# -- criterion 9: the reduction web ----------------------------------------------------------


def _pairs_equal(name_a, params_a, name_b, params_b, qp, both=True):
    tp = I.tgrid(qp)
    la = I.lhs_series(name_a, params_a, qp)
    lb = I.lhs_series(name_b, params_b, qp)
    if la.equal_up_to(lb, min(la.prec, lb.prec, tp)) != (True, None):
        return False
    if both:
        ra = rhs_series(name_a, params_a, qp)
        rb = rhs_series(name_b, params_b, qp)
        if ra.equal_up_to(rb, min(ra.prec, rb.prec, tp)) != (True, None):
            return False
    return True


def test_criterion_9_reduction_web():
    qp = 40
    tp = I.tgrid(qp)
    t0 = time.time()
    bad = []
    for k in range(1, 5):
        for r in range(0, k + 1):
            if not _pairs_equal("stanton_32", {"k": k, "r": r, "j": 0},
                                "andrews_gordon", {"k": k, "r": r}, qp):
                bad.append(("s32->ag", k, r))
            if not _pairs_equal("stanton_42", {"k": k, "r": r, "j": 0},
                                "bressoud_even", {"k": k, "r": r}, qp):
                bad.append(("s42->br", k, r))
            if not _pairs_equal("bgg_j0", {"k": k, "r": r},
                                "nonbinom_bgg", {"k": k, "r": r, "j": 0}, qp):
                bad.append(("bggj0", k, r))
            # Kursungoz j = 0 reduction carries the (1+q) prefactor
            lk = I.lhs_series("nonbinom_kursungoz", {"k": k, "r": r, "j": 0}, qp)
            l0 = I.lhs_series("kursungoz_0", {"k": k, "r": r}, qp)
            from qident.series import QSeries
            lhs = lk * QSeries([(0, 1), (2, 1)])
            if lhs.equal_up_to(l0, min(lhs.prec, l0.prec, tp)) != (True, None):
                bad.append(("kur0-lhs", k, r))
            rk = rhs_series("nonbinom_kursungoz", {"k": k, "r": r, "j": 0}, qp)
            r0 = rhs_series("kursungoz_0", {"k": k, "r": r}, qp)
            rhs = rk * QSeries([(0, 1), (2, 1)])
            if rhs.equal_up_to(r0, min(rhs.prec, r0.prec, tp)) != (True, None):
                bad.append(("kur0-rhs", k, r))
        for j in range(0, k + 1):
            if not _pairs_equal("stanton_32", {"k": k, "r": 0, "j": j},
                                "bressoud_33", {"k": k, "j": j}, qp):
                bad.append(("s32->b33", k, j))
            if not _pairs_equal("stanton_42", {"k": k, "r": 0, "j": j},
                                "bressoud_35", {"k": k, "j": j}, qp):
                bad.append(("s42->b35", k, j))
            if not _pairs_equal("nonbinom_kursungoz", {"k": k, "r": 0, "j": j},
                                "kursungoz_j", {"k": k, "j": j}, qp):
                bad.append(("kurj", k, j))
            if not _pairs_equal("nonbinom_bgg", {"k": k, "r": 0, "j": j},
                                "bressoud_gg", {"k": k, "j": j}, qp):
                bad.append(("bgg", k, j))
    # k = 1 Bressoud-Gollnitz-Gordon collapses to Gollnitz-Gordon
    if not _pairs_equal("bressoud_gg", {"k": 1, "j": 0},
                        "gollnitz_gordon", {"variant": 1}, qp):
        bad.append(("bgg->gg1",))
    l11 = I.lhs_series("bressoud_gg", {"k": 1, "j": 1}, qp)
    g1 = I.lhs_series("gollnitz_gordon", {"variant": 1}, qp)
    g2 = I.lhs_series("gollnitz_gordon", {"variant": 2}, qp)
    tot = g1 + g2
    if l11.equal_up_to(tot, min(l11.prec, tot.prec, tp)) != (True, None):
        bad.append(("bgg->gg1+gg2",))
    _announce(f"reduction web holds as series equalities to q-order 40 "
              f"({time.time()-t0:.1f}s)", not bad, str(bad[:3]))
