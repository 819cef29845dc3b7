"""Oracle independence as a table: each oracle runs with spies on the code
it checks, and any call into that code fails the row.

A row builds, outside the spies, an oracle call, the checked call whose
result the oracle must give, and the functions the oracle must never
enter.  Each spy replaces its function in every qident module that holds
it, so a call through any import is caught.  Under the spies the oracle
runs and matches the checked result, and the checked call itself is
refused, which shows that the spies sit where the checked code looks its
functions up.  ``test_bailey.py::test_verify_shares_only_the_codec_with_apply``
states the same for ``bailey.verify``, with the codec it shares.
"""

import pytest

from qident import bailey as B
from qident import identities, motion as M, qfunctions, series, sets, sumeval
from qident.qfunctions import Q
from qident.series import QSeries

import bailey_oracle as naive
from gf_oracle import theta_sum
from motion_replay import pm_stepwise, replays, rpm_stepwise
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
             (sumeval, "_convolve")])


def _beta_sum_row():
    # the star step's beta-side sum, with the bracket, on a chained pair
    p, _ = B.run_chain(B.pair_dprime4(Q, 6, 41), ["BL_INF", "KEY1"])

    def lift(l):
        return B._a_pow(p.a, l).shift(2 * l * l)
    return (lambda: naive.beta_sum(p, lift, True),
            lambda: B._beta_sum(p, lift, True),
            [(sumeval, "layer_product"), (sumeval, "_convolve")])


def _motion_row():
    # one motion each way, and the replay of a traced insertion
    _, trace = M.lambda_map(((3, 1), (), (6, 6, 5, 3), (19, 0)), trace=True)
    return (lambda: (pm_stepwise((2, 0, 1), 0, 3),
                     rpm_stepwise((0, 1, 2, 0, 1), 1), replays(trace)),
            lambda: (M.pm_explicit((2, 0, 1), 0, 3),
                     M.rpm_explicit((0, 1, 2, 0, 1), 1), True),
            [(M, "_pm"), (M, "_rpm")])


def _theta_row():
    return (lambda: theta_sum(5, 2, 100),
            lambda: qfunctions.triple_product(5, 2, 100),
            [(qfunctions, "triple_product")])


ROWS = {"brute_multisum": _multisum_row,
        "bailey_oracle.beta_sum": _beta_sum_row,
        "motion_replay": _motion_row,
        "gf_oracle.theta_sum": _theta_row}


def _plain(x):
    """Results as comparable data: a series as (coeffs, prec)."""
    if isinstance(x, QSeries):
        return x.coeffs, x.prec
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    return x


@pytest.mark.parametrize("oracle", ROWS)
def test_oracles_enter_none_of_the_code_they_check(monkeypatch, oracle):
    run, checked, forbidden = ROWS[oracle]()
    want = checked()
    for owner, name in forbidden:
        real = getattr(owner, name)

        def spy(*args, name=name, **kwargs):
            raise AssertionError(f"{oracle} entered {name}")
        for module in MODULES:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    assert _plain(run()) == _plain(want)
    with pytest.raises(AssertionError, match="entered"):
        checked()
