"""Naive references for the Bailey engine: one series product and one sum
per (n, l), the double loops that the packed beta-side sum and the cached
verify kernel replace; the closed-form alpha of the star chains with both
divisions made on every call; and pairs with a beta replaced or broken on
purpose."""

from qident.bailey import BaileyPair
from qident.qfunctions import Q, inv_poch_finite
from qident.series import QSeries, monomial, zero


def beta_sum(p, lift, star=False):
    """beta'_n = sum_{l<=n} lift(l) beta_l (q^n + q^-l) / (q)_{n-l} for every
    n <= n_max, the bracket only when ``star``."""
    tp = p.prec
    lifted = [lift(l) * p.beta[l] for l in range(p.n_max + 1)]
    beta = []
    for n in range(p.n_max + 1):
        acc = zero(tp)
        for l in range(n + 1):
            t = lifted[l]
            if star:
                t = t * QSeries([(2 * n, 1), (-2 * l, 1)])
            acc = acc + t * inv_poch_finite(Q, 2, n - l, tp)
        beta.append(acc.truncate(tp))
    return beta


def first_bad_n(p, prec=None):
    """The first n whose defining relation fails, with two products per term
    (None when every n <= n_max holds), and the lowest t-order below which
    an n up to it was compared."""
    tp = p.prec if prec is None else min(prec, p.prec)
    aq = p.a.times_qpow(1)
    orders = []
    for n in range(p.n_max + 1):
        acc = zero(tp)
        for l in range(n + 1):
            acc = acc + (p.alpha[l] * inv_poch_finite(Q, 2, n - l, tp)
                         * inv_poch_finite(aq, 2, n + l, tp))
        orders.append(min(acc.prec, p.beta[n].prec, tp))
        same, _ = acc.equal_up_to(p.beta[n], orders[-1])
        if not same:
            return n, min(orders)
    return None, min(orders)


def closed_alpha_star_chain(seed, k, r, j, n, prec=None):
    """(1-q)(1+q^2n)^j q^((k+1)n^2+(r+1-j)n)
        (alpha_n/(1-q^(2n+1)) - q^(-2rn-1) alpha_{n-1}/(1-q^(2n-1))),
    dividing the seed's alphas afresh on every call."""
    tp = seed.prec if prec is None else min(prec, seed.prec)
    t = seed.alpha[n].divide(QSeries([(0, 1), (4 * n + 2, -1)]), tp)
    if n >= 1:
        t = t - (seed.alpha[n - 1].shift(-4 * r * n - 2)
                 .divide(QSeries([(0, 1), (4 * n - 2, -1)]), tp))
    out = (QSeries([(0, 1), (2, -1)]) * (QSeries([(0, 1), (4 * n, 1)]) ** j)
           * t)
    return out.shift(2 * (k + 1) * n * n + 2 * (r + 1 - j) * n).truncate(tp)


def with_beta(p, beta):
    """p with its betas replaced (and no seed to ask for more)."""
    return BaileyPair(p.a, p.n_max, p.alpha, tuple(beta), p.prec)


def with_beta1_perturbed(p):
    """p with q^1 added to beta_1: the defining relation then fails at n = 1."""
    return with_beta(p, p.beta[:1] + (p.beta[1] + monomial(1, 2),) + p.beta[2:])
