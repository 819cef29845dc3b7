"""Oracle independence as a table: each oracle runs with spies on the code
it checks, and any call into that code fails the row.

A row builds, outside the spies, an oracle call, the checked call whose
result the oracle must give, and the functions the oracle must never
enter.  Each spy replaces its function in every qident module that holds
it, so a call through any import is caught.  Under the spies the oracle
runs and matches the checked result, and the checked call itself is
refused, which shows that the spies sit where the checked code looks its
functions up.  ``test_bailey.py::test_verify_shares_only_the_codec_with_apply``
states, for ``bailey.verify``, the codec it shares.
"""

import pytest

from qident import bailey as B
from qident import identities, motion as M, qfunctions, series, sets, sumeval
from qident.qfunctions import Q, SignedMonomial as SM
from qident.series import QSeries

import bailey_oracle as naive
from gf_oracle import ring_product_side, theta_sum
from motion_replay import insert_stepwise, pm_stepwise, replays, rpm_stepwise
from test_bailey import APPLY_ONLY, _clear_kernel_caches, _star_chain_krj
from test_sumeval import _head, brute_multisum

MODULES = (series, qfunctions, sumeval, identities, B, M, sets)


def _multisum_row():
    # a head extra and a binomial gap: both branches of the layer product
    pervar, gaps, tprec = [(2, -2), (2, 0)], [(2, 2)], 30
    extras = [_head, None]
    engine = [(q, l, x) for (q, l), x in zip(pervar, extras)]
    vmax = sumeval.summation_bound(engine, gaps, tprec)
    return (lambda: brute_multisum(pervar, gaps, tprec, extras, pervar),
            lambda: sumeval.multisum(engine, gaps, tprec, vmax),
            [(sumeval, "multisum"), (sumeval, "layer_product"),
             (sumeval, "_ip"), (series, "product_bound")])


def _beta_sum_row():
    # the star step's beta-side sum, with the bracket, on a chained pair
    p, _ = B.run_chain(B.pair_dprime4(Q, 6, 41), ["BL_INF", "KEY1"])

    def lift(l):
        return B._a_pow(p.a, l).shift(2 * l * l)
    return (lambda: naive.beta_sum(p, lift, True),
            lambda: B._beta_sum(p, lift, True),
            [(sumeval, "layer_product"), (sumeval, "_ip"),
             (series, "product_bound")])


def _motion_row():
    # one motion each way, both maps untraced, and the replay of a traced
    # insertion; the maps reach the closed forms only through the kernels
    mp = ((3, 1), (), (6, 6, 5, 3), (19, 0))
    out, trace = M.lambda_map(mp, trace=True)
    return (lambda: (pm_stepwise((2, 0, 1), 0, 3),
                     rpm_stepwise((0, 1, 2, 0, 1), 1), insert_stepwise(mp),
                     mp, replays(trace)),
            lambda: (M.pm_explicit((2, 0, 1), 0, 3),
                     M.rpm_explicit((0, 1, 2, 0, 1), 1), M.lambda_map(mp),
                     M.gamma_map(out, 4), True),
            [(M, "_pm"), (M, "_rpm")])


def _theta_row():
    return (lambda: theta_sum(5, 2, 100),
            lambda: qfunctions.triple_product(5, 2, 100),
            [(qfunctions, "triple_product")])


def _product_side_row():
    # a side with every kind of factor, evaluated past the memo
    side = identities.ProductSide(
        22, ((1, 0, 6), (-2, -1, 8), (3, 2, 10)),
        num_inf=((SM(-1, 6), 4),), den_inf=identities.INV_Q_INF,
        den_units=(identities.ONE_PLUS_Q,))

    def checked():
        identities._PRODUCTS.clear()
        return identities.eval_product(side, 30)
    return (lambda: ring_product_side(side, 30), checked,
            [(qfunctions, "_binomials"), (identities, "_prefactor"),
             (identities, "_triple"), (series, "packed"),
             (series, "product_bound")])


def _closed_alpha_row():
    # the closed form of every alpha of the star chains with k <= 2 reads
    # nothing the chain memo holds; each side is cut where both are known
    seed = B.pair_dprime4(Q, 6, 41)
    chains = [B.star_chain(*krj) for krj in _star_chain_krj(2)]
    finals = [B.run_chain(seed, steps)[0].alpha for steps in chains]
    closed = [[B.closed_alpha_star_chain(seed, *krj, n) for n in range(7)]
              for krj in _star_chain_krj(2)]
    cuts = [[min(a.prec, c.prec) for a, c in zip(*pair)]
            for pair in zip(finals, closed)]

    def run():
        B._QUOTIENTS.clear()
        return [[B.closed_alpha_star_chain(seed, *krj, n).truncate(cut)
                 for n, cut in enumerate(row)]
                for krj, row in zip(_star_chain_krj(2), cuts)]

    def checked():
        return [[a.truncate(cut) for a, cut in
                 zip(B.run_chain(seed, steps)[0].alpha, row)]
                for steps, row in zip(chains, cuts)]
    return (run, checked, [(B._CHAINS, "recall"), (B._CHAINS, "store")])


def _verify_row():
    # the relation check accepts the pair the star step made, without the
    # step's sums; its kernels are built under the spies too
    p, _ = B.run_chain(B.pair_dprime4(Q, 10, 101),
                       ["BL_INF", "KEY1", "BL_INF"])
    star = B.apply("STAR1", p)

    def run():
        _clear_kernel_caches()
        return B.verify(star)
    return run, lambda: B.verify(B.apply("STAR1", p)), APPLY_ONLY


ROWS = {"brute_multisum": _multisum_row,
        "bailey_oracle.beta_sum": _beta_sum_row,
        "motion_replay": _motion_row,
        "gf_oracle.theta_sum": _theta_row,
        "gf_oracle.ring_product_side": _product_side_row,
        "bailey.closed_alpha_star_chain": _closed_alpha_row,
        "bailey.verify": _verify_row}


def _plain(x):
    """Results as comparable data: a series as (coeffs, prec)."""
    if isinstance(x, QSeries):
        return x.coeffs, x.prec
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    return x


def _spy_on(monkeypatch, who, forbidden):
    """Replace each forbidden function, in every module that holds it, by a
    spy that fails the call; a method of an object (a memo's ``recall``) is
    replaced on that object."""
    for owner, name in forbidden:
        real = getattr(owner, name)

        def spy(*args, name=name, **kwargs):
            raise AssertionError(f"{who} entered {name}")
        holders = [m for m in MODULES if getattr(m, name, None) is real]
        for holder in holders or [owner]:
            monkeypatch.setattr(holder, name, spy)


@pytest.mark.parametrize("oracle", ROWS)
def test_oracles_enter_none_of_the_code_they_check(monkeypatch, oracle):
    run, checked, forbidden = ROWS[oracle]()
    want = checked()
    _spy_on(monkeypatch, oracle, forbidden)
    assert _plain(run()) == _plain(want)
    with pytest.raises(AssertionError, match="entered"):
        checked()


# the motion row's checked call is refused at its first part; each motion
# entry point on its own reaches its kernel
MOTION_ENTRIES = {
    "pm_explicit": ("_pm", lambda: M.pm_explicit((2, 0, 1), 0, 3)),
    "rpm_explicit": ("_rpm", lambda: M.rpm_explicit((0, 1, 2, 0, 1), 1)),
    "lambda_map": ("_pm", lambda: M.lambda_map(((1,), (2,)))),
    "gamma_map": ("_rpm", lambda: M.gamma_map((1, 1), 2))}


@pytest.mark.parametrize("entry", MOTION_ENTRIES)
def test_each_motion_entry_point_runs_its_kernel(monkeypatch, entry):
    kernel, call = MOTION_ENTRIES[entry]
    _spy_on(monkeypatch, entry, [(M, kernel)])
    with pytest.raises(AssertionError, match=f"{entry} entered {kernel}"):
        call()
