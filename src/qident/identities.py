"""The identity catalog: sum sides, product sides, verification, sweeps.

Each catalog row pairs a nested-sum left side (evaluated by the shared
dynamic-programming multisum engine) with a product side assembled from
infinite Pochhammer symbols and Jacobi triple products.  Comparison is
coefficient-wise and exact; ``prec`` arguments in this module are in whole
q-powers (the t-grid conversion is internal).

Product-side theta exponents A with A = 0 (mod M) denote identically
vanishing products (some rows reach them at extreme parameters, e.g. the
second product of the even-moduli rows at r = k); they contribute the zero
series.  Any other exponent excursion outside (0, M) is a transcription bug
and raises CatalogRangeError.

A product side is one big-integer multiply and one read-back
(``eval_product``): the weighted, shifted triple products added as packed
integers, times the prefactor F of its Pochhammer quotients.  The sides of
the catalog use a handful of factor sets, so F is built once per factor set
and order (``_prefactor``), and F and each triple product (``_triple``) are
``series.Operand``s, packed once per digit width.
"""

from __future__ import annotations

import os
import time
from collections import namedtuple
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from typing import Optional

from .errors import CatalogRangeError, InvalidParameters
from .qfunctions import (NEG_ONE, Q, SM, inv_poch_finite,
                         inv_poch_infinite, poch_finite, poch_infinite,
                         triple_product)
from .series import (Memo, Operand, QSeries, _as_prec, digit_bytes,
                     kron_unpack, one, packed, product_bound)
from .sumeval import multisum, summation_bound


def tgrid(qprec: int) -> int:
    """t-exponent truncation order covering all q-exponents <= qprec."""
    return 2 * _as_prec(qprec) + 1


def qorder(tprec: int) -> int:
    """The inverse of ``tgrid``: the highest q-exponent below t-order tprec."""
    return (tprec - 1) // 2


# -- declarative sides ---------------------------------------------------------

# Shape of one nested sum over s_1 >= ... >= s_k >= 0 (t-units):
#   pervar      (quad, lin) per variable
#   den_step    t-step of (.)_{s_i - s_{i+1}}
#   last_step   t-step of the final (.)_{s_k}
#   subset      T: 1 is t^(-b s_1), g > 1 a binomial
#   binom_step  b, the t-step of those factors
#   head        None, or (SM, base_t): (x; .)_{s_1} multiplied
#   tail        None, or "bgg" | "slater2", factors on s_k
#   prefactor   exact poly as pair-tuple, () for 1
SumSide = namedtuple("SumSide", "k pervar den_step last_step subset "
                     "binom_step head tail prefactor",
                     defaults=(frozenset(), 0, None, None, ()))

# Sum of weighted triple products times a Pochhammer prefactor:
#   modulus     t-units
#   terms       (weight, t_shift, A_t)
#   num_inf     ((SM, base_t), ...) multiplied
#   den_inf     ((SM, base_t), ...) divided
#   den_units   exact polys, constant term +-1, divided, as pair-tuples
ProductSide = namedtuple("ProductSide", "modulus terms num_inf den_inf "
                         "den_units", defaults=(0, (), (), (), ()))


@lru_cache(maxsize=1024)
def _last_factor(last_step: int, tail: Optional[str], head, v: int, tp: int):
    """The factors on s_k = v of a sum side, truncated at tp: the final
    1/(.)_{s_k}, the tail's and, at k = 1, the head.  Rows of a sweep share
    them, so each is built once."""
    out = inv_poch_finite(SM(1, last_step), last_step, v, tp)
    if tail == "bgg":
        out = out * poch_infinite(SM(-1, 2 + 4 * v), 4, tp)
    elif tail == "slater2":
        out = out * inv_poch_finite(SM(-1, 1), 2, v, tp)
    if head is not None:
        out = poch_finite(*head, v) * out
    return out


def _refuse_mistyped(side, ints, monomials):
    """Refuse a side unless each of its int fields is an int and not a
    bool, and each of its Pochhammer monomials a SignedMonomial: called
    before any memo or cache sees the side, whose keys hold the fields, as
    2.0 == 2 would find 2's entry and the tuple (1, 2) that of SM(1, 2)."""
    for x in ints:
        if type(x) is not int:
            raise ValueError(f"a {type(side).__name__}'s int fields are "
                             f"ints, got {x!r}")
    for x in monomials:
        if type(x) is not SM:
            raise ValueError(f"a {type(side).__name__}'s monomials are "
                             f"SignedMonomials, got {x!r}")


def eval_sum(side: SumSide, qprec: int) -> QSeries:
    """Exact truncation of the sum side to q-order qprec."""
    tp = tgrid(qprec)
    _refuse_mistyped(side, (side.k, side.den_step, side.last_step,
                            side.binom_step, *chain(*side.pervar),
                            *(side.head[1:] if side.head else ())),
                     side.head[:1] if side.head else ())
    k, head, b = side.k, side.head, side.binom_step

    # extras[i] and its description key[i], for multisum's layer memo
    extras, key = [None] * k, [None] * k
    if head is not None:
        extras[0], key[0] = (lambda v: poch_finite(*head, v)), head
    key[-1] = last = (side.last_step, side.tail, head if k == 1 else None)
    extras[-1] = lambda v: _last_factor(*last, v, tp)
    pervar = [(quad, lin, extra)
              for (quad, lin), extra in zip(side.pervar, extras)]
    if 1 in side.subset:        # element 1 of T: the plain factor t^(-b s_1)
        quad, lin, extra = pervar[0]
        pervar[0] = (quad, lin - b, extra)
    # element g > 1 of T: the binomial factor of the gap s_(g-1), s_g
    gaps = [(side.den_step, b if g in side.subset else None)
            for g in range(2, k + 1)]
    # the extras are Pochhammer quotients of valuation >= 0
    out = multisum(pervar, gaps, tp, vmax=summation_bound(pervar, gaps, tp),
                   key=key)
    if side.prefactor:
        out = out * QSeries(list(side.prefactor))
    return out.truncate(tp)


# Many rows share a product side (a generalisation at its boundary
# parameters is the identity it generalises), so each distinct side is
# evaluated once per process, in a ``series.Memo`` under (side, qprec).
_PRODUCTS = Memo()


# The catalog's product sides share a few factor sets and theta terms, so
# each prefactor and triple product is built once per order as an operand,
# packed once per width by ``series.packed``; the caches are bounded like
# the Pochhammer caches they read.
@lru_cache(maxsize=1024)
def _prefactor(num_inf, den_inf, den_units, tp) -> Operand:
    """F = prod num_inf / prod den_inf / prod den_units truncated at tp: a
    unit of valuation 0 known below tp, or the exact zero when num_inf
    holds a (1; .)_inf."""
    f = one(tp)
    for sm, base in num_inf:
        f = f * poch_infinite(sm, base, tp)
    for sm, base in den_inf:
        f = f * inv_poch_infinite(sm, base, tp)
    for poly in den_units:
        f = f.divide(QSeries(list(poly)), tp)
    return Operand(f)


@lru_cache(maxsize=1024)
def _triple(M, A, tp) -> Operand:
    """triple_product(M, A, tp), of valuation 0."""
    return Operand(triple_product(M, A, tp))


def eval_product(side: ProductSide, qprec: int) -> QSeries:
    """Exact truncation of the product side to q-order qprec.

    The side is acc * F: acc the weighted sum of the shifted theta terms,
    known below prec(acc) = tp + min(0, lowest shift), and F the cached
    prefactor (``_prefactor``).  Both are packed at one digit width and
    multiplied once, acc as the sum of the packed triple products, each
    shifted by its t-shift less the lowest; theta and F are packed from
    t^0, their valuation.  The product is read back once, below the ring
    product's precision min(prec(acc), tp + val(acc)), which is prec(acc)
    as val(acc) is at least the lowest shift, or below tp when F is the
    exact zero.  A digit of the product is at most the sum over
    the terms of |weight| * ``series.product_bound`` of theta and F, which
    also bounds the digits of acc, as max|F| >= 1; the width holds
    max|F| too, for F is packed whole even when every term vanishes or
    weighs 0.  Without theta terms the side is F itself."""
    tp = tgrid(qprec)       # checks qprec before the memo is asked
    factors = side.num_inf + side.den_inf
    _refuse_mistyped(side, (side.modulus, *chain(*side.terms),
                            *(base for _, base in factors),
                            *chain(*chain(*side.den_units))),
                     (sm for sm, _ in factors))
    memo_key = (side, qprec)
    hit = _PRODUCTS.recall(memo_key)
    if hit is not None:
        return hit[1][0]
    M = side.modulus
    thetas = []             # (weight, shift, theta) that do not vanish
    for weight, shift, A in side.terms:
        if A % M == 0:
            continue  # vanishing theta: contributes 0
        if not 0 < A < M:
            raise CatalogRangeError(
                f"theta exponent {A} outside (0, {M})")
        thetas.append((weight, shift, _triple(M, A, tp)))
    f = _prefactor(side.num_inf, side.den_inf, side.den_units, tp)
    if side.terms:
        bound = 0
        for weight, _, theta in thetas:
            bound += abs(weight) * product_bound(theta.norms, f.norms)
        nbytes = digit_bytes(max(bound, f.norms[0]))    # F is packed whole
        width = 8 * nbytes
        low = min((shift for _, shift, _ in thetas), default=0)
        acc = 0
        for weight, shift, theta in thetas:
            acc += weight * packed(theta, nbytes) << width * (shift - low)
        p = tp + min(low, 0) if f.series.coeffs else tp
        out = QSeries._of(kron_unpack(acc * packed(f, nbytes), nbytes,
                                      low, p), p)
    else:
        out = f.series.truncate(tp)
    _PRODUCTS.store(memo_key, None, [out])
    return out


# -- catalog -------------------------------------------------------------------

INV_Q_INF = ((Q, 2),)
ONE_PLUS_Q = ((0, 1), (2, 1))


def _kr(k):
    return ({"k": k, "r": r} for r in range(k + 1) if k >= 1)


def _kj(k):
    return ({"k": k, "j": j} for j in range(k + 1) if k >= 1)


def _krj(k, r_min=0):
    """Every (k, r, j) with r >= r_min, j >= 0 and r + j <= k."""
    return ({"k": k, "r": r, "j": j} for r in range(r_min, k + 1) if k >= 1
            for j in range(k - r + 1))


def _subset_universe(k, r):
    return (1, *range(2, k - r + 1))


def _krjT(k):
    return (dict(p, T=T) for p in _krj(k)
            for T in combinations(_subset_universe(k, p["r"]), p["j"]))


class IdentitySpec(namedtuple("IdentitySpec", "name grid lhs rhs")):
    """A catalog row: grid is k -> the valid param dicts for that k."""

    __slots__ = ()

    @property
    def param_names(self) -> tuple:
        return tuple(next(iter(self.grid(1))))


def _lin_std(k, scale, j_sub=0, r_add=0, last_extra=0):
    """Linear t-coefficients: -2*scale on the first j_sub, +2*scale on the
    last r_add, plus last_extra q-powers on s_k."""
    out = []
    for i in range(1, k + 1):
        lin = 0
        if i <= j_sub:
            lin -= 2 * scale
        if i > k - r_add:
            lin += 2 * scale
        if i == k:
            lin += 2 * last_extra
        out.append((2 * scale, lin))
    return tuple(out)


def _half_first(pervar):
    """s_1^2 becomes s_1(s_1+1)/2: half of the first quad moves to its lin."""
    (quad, lin), *rest = pervar
    return ((quad // 2, lin + quad // 2), *rest)


def _theta(j, binom, step, *heads):
    """Theta terms (C(j, s) or 1, shift, A + step*s) for s = 0..j, with every
    (shift, A) of heads for each s."""
    return tuple((comb(j, s) if binom else 1, shift, A + step * s)
                 for s in range(j + 1) for shift, A in heads)


def _catalog() -> dict:
    specs = {}

    def add(name, grid, lhs, rhs):
        specs[name] = IdentitySpec(name, grid, lhs, rhs)

    # rogers_ramanujan(a): sum q^(n^2+(1-a)n)/(q)_n = 1/(q^(2-a), q^(3+a); q^5)
    add("rogers_ramanujan", lambda k: ({"a": a} for a in (0, 1)),
        lambda p: SumSide(1, ((2, 2 * (1 - p["a"])),), 2, 2),
        lambda p: ProductSide(den_inf=((SM(1, 2 * (2 - p["a"])), 10),
                                       (SM(1, 2 * (3 + p["a"])), 10))))

    add("andrews_gordon", _kr,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, r_add=p["r"]), 2, 2),
        lambda p: ProductSide(2 * (2 * p["k"] + 3),
                              ((1, 0, 2 * (p["k"] + 1 - p["r"])),),
                              den_inf=INV_Q_INF))

    add("bressoud_33", _kj,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, j_sub=p["j"]), 2, 2),
        lambda p: ProductSide(2 * (2 * p["k"] + 3),
                              _theta(p["j"], False, 4,
                                     (0, 2 * (p["k"] + 2 - p["j"]))),
                              den_inf=INV_Q_INF))

    add("bressoud_even", _kr,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, r_add=p["r"]), 2, 4),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              ((1, 0, 2 * (p["k"] + 1 - p["r"])),),
                              den_inf=INV_Q_INF))

    add("bressoud_35", _kj,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, j_sub=p["j"]), 2, 4),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              _theta(p["j"], False, -4,
                                     (0, 2 * (p["k"] + 1 + p["j"]))),
                              den_inf=INV_Q_INF))

    add("kursungoz_0", _kr,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, r_add=p["r"],
                                           last_extra=1), 2, 4,
                          prefactor=ONE_PLUS_Q),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              ((1, 0, 2 * (p["k"] + p["r"])),
                               (1, 2, 2 * (p["k"] + 2 + p["r"]))),
                              den_inf=INV_Q_INF))

    add("kursungoz_j", _kj,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, j_sub=p["j"],
                                           last_extra=1), 2, 4),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              _theta(p["j"], False, 4,
                                     (0, 2 * (p["k"] - p["j"]))),
                              den_inf=INV_Q_INF))

    # -- Stanton-type rows ----------------------------------------------------

    add("stanton_31", _krjT,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, r_add=p["r"]), 2, 2,
                          subset=frozenset(p["T"]), binom_step=2),
        lambda p: ProductSide(2 * (2 * p["k"] + 3),
                              _theta(p["j"], True, -4,
                                     (0, 2 * (p["k"] + 1 - p["r"] + p["j"]))),
                              den_inf=INV_Q_INF))

    add("stanton_32", _krj,
        lambda p: SumSide(p["k"],
                          _lin_std(p["k"], 1, j_sub=p["j"], r_add=p["r"]),
                          2, 2),
        lambda p: ProductSide(2 * (2 * p["k"] + 3),
                              _theta(p["j"], False, -4,
                                     (0, 2 * (p["k"] + 1 - p["r"] + p["j"]))),
                              den_inf=INV_Q_INF))

    add("stanton_41", _krjT,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, r_add=p["r"]), 2, 4,
                          subset=frozenset(p["T"]), binom_step=2),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              _theta(p["j"], True, -4,
                                     (0, 2 * (p["k"] + 1 - p["r"] + p["j"]))),
                              den_inf=INV_Q_INF))

    add("stanton_42", _krj,
        lambda p: SumSide(p["k"],
                          _lin_std(p["k"], 1, j_sub=p["j"], r_add=p["r"]),
                          2, 4),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              _theta(p["j"], False, -4,
                                     (0, 2 * (p["k"] + 1 - p["r"] + p["j"]))),
                              den_inf=INV_Q_INF))

    add("binom_kursungoz", _krjT,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, r_add=p["r"],
                                           last_extra=1), 2, 4,
                          subset=frozenset(p["T"]), binom_step=2),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              _theta(p["j"], True, -4,
                                     (0, 2 * (p["k"] + 2 - p["r"] + p["j"])),
                                     (2, 2 * (p["k"] - p["r"] + p["j"]))),
                              den_inf=INV_Q_INF, den_units=(ONE_PLUS_Q,)))

    add("nonbinom_kursungoz", _krj,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, j_sub=p["j"],
                                           r_add=p["r"], last_extra=1), 2, 4),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              _theta(p["j"], False, -4,
                                     (0, 2 * (p["k"] + 2 - p["r"] + p["j"])),
                                     (2, 2 * (p["k"] - p["r"] + p["j"]))),
                              den_inf=INV_Q_INF, den_units=(ONE_PLUS_Q,)))

    # -- Gollnitz-Gordon family -------------------------------------------------

    add("gollnitz_gordon", lambda k: ({"variant": v} for v in (1, 2)),
        lambda p: SumSide(1, ((2, 0 if p["variant"] == 1 else 4),), 4, 4,
                          head=(SM(-1, 2), 4)),
        lambda p: ProductSide(
            den_inf=((SM(1, 2 if p["variant"] == 1 else 6), 16),
                     (SM(1, 8), 16),
                     (SM(1, 14 if p["variant"] == 1 else 10), 16))))

    add("bressoud_gg", _kj,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 2, j_sub=p["j"]), 4, 4,
                          tail="bgg"),
        lambda p: ProductSide(2 * (4 * p["k"] + 4),
                              _theta(p["j"], False, 4,
                                     (0, 2 * (2 * p["k"] + 1 - 2 * p["j"]))),
                              num_inf=((SM(-1, 2), 4),),
                              den_inf=((SM(1, 4), 4),)))

    add("binom_bgg", _krjT,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 2, r_add=p["r"]), 4, 4,
                          subset=frozenset(p["T"]), binom_step=4,
                          tail="bgg"),
        lambda p: ProductSide(2 * (4 * p["k"] + 4),
                              _theta(p["j"], True, -8,
                                     (0, 2 * (2 * p["k"] + 3 - 2 * p["r"]
                                              + 2 * p["j"])),
                                     (2, 2 * (2 * p["k"] + 1 - 2 * p["r"]
                                              + 2 * p["j"]))),
                              num_inf=((SM(-1, 6), 4),),
                              den_inf=((SM(1, 4), 4),)))

    add("nonbinom_bgg", _krj,
        lambda p: SumSide(p["k"],
                          _lin_std(p["k"], 2, j_sub=p["j"], r_add=p["r"]),
                          4, 4, tail="bgg"),
        lambda p: ProductSide(2 * (4 * p["k"] + 4),
                              _theta(p["j"], False, -8,
                                     (0, 2 * (2 * p["k"] + 3 - 2 * p["r"]
                                              + 2 * p["j"])),
                                     (2, 2 * (2 * p["k"] + 1 - 2 * p["r"]
                                              + 2 * p["j"]))),
                              num_inf=((SM(-1, 6), 4),),
                              den_inf=((SM(1, 4), 4),)))

    add("bgg_j0", _kr,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 2, r_add=p["r"]), 4, 4,
                          tail="bgg"),
        lambda p: ProductSide(2 * (4 * p["k"] + 4),
                              ((1, 0, 2 * (2 * p["k"] + 3 - 2 * p["r"])),
                               (1, 2, 2 * (2 * p["k"] + 1 - 2 * p["r"]))),
                              num_inf=((SM(-1, 6), 4),),
                              den_inf=((SM(1, 4), 4),)))

    # -- Slater-type rows --------------------------------------------------------

    def slater_terms(k, r, j):
        return tuple(((-1) ** t, 0, 2 * (k + 1 - r - j + s + t))
                     for s in range(2 * j + 1) for t in range(2 * r + 1))

    add("new_slater", _krj,
        lambda p: SumSide(p["k"], _half_first(_lin_std(
                              p["k"], 1, j_sub=p["j"], r_add=p["r"])),
                          2, 2, head=(NEG_ONE, 2)),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              slater_terms(p["k"], p["r"], p["j"]),
                              num_inf=((SM(-1, 2), 2),),
                              den_inf=INV_Q_INF))

    def slater2_terms(k, r, j):
        out = []
        for s in range(2 * j + 1):
            for t in range(2 * r - 1):
                out.append(((-1) ** t, 0, 2 * k + 3 - 2 * r - 2 * j
                            + 2 * (s + t)))
        for s in range(2 * j + 1):
            for t in range(2 * r + 1):
                out.append(((-1) ** t, 1, 2 * k + 1 - 2 * r - 2 * j
                            + 2 * (s + t)))
        return tuple(out)

    # r >= 1: the r = 0 branch relies on an external result
    add("new_slater2", lambda k: _krj(k, r_min=1),
        lambda p: SumSide(p["k"], _half_first(_lin_std(
                              p["k"], 1, j_sub=p["j"], r_add=p["r"])),
                          2, 2, head=(NEG_ONE, 2), tail="slater2",
                          prefactor=((0, 1), (1, 1))),
        lambda p: ProductSide(2 * (2 * p["k"] + 1),
                              slater2_terms(p["k"], p["r"], p["j"]),
                              num_inf=((SM(-1, 2), 2),),
                              den_inf=INV_Q_INF))

    return specs


CATALOG = _catalog()

CATALOG_ORDER = (
    "rogers_ramanujan", "andrews_gordon", "bressoud_33", "bressoud_even",
    "bressoud_35", "kursungoz_0", "kursungoz_j", "stanton_31", "stanton_32",
    "stanton_41", "stanton_42", "binom_kursungoz", "nonbinom_kursungoz",
    "gollnitz_gordon", "bressoud_gg", "binom_bgg", "nonbinom_bgg", "bgg_j0",
    "new_slater", "new_slater2",
)

assert set(CATALOG_ORDER) == set(CATALOG)


# -- verification ----------------------------------------------------------------

class Report(namedtuple("Report", "name params prec equal first_mismatch "
                           "elapsed_ms", defaults=(0.0,))):
    __slots__ = ()

    def to_json(self) -> dict:
        params = {k: (list(v) if isinstance(v, tuple) else v)
                  for k, v in self.params.items()}
        return {"name": self.name, "params": params, "prec": self.prec,
                "equal": self.equal, "first_mismatch": self.first_mismatch,
                "elapsed_ms": round(self.elapsed_ms, 3)}


def _spec(name: str, params: dict) -> IdentitySpec:
    """The catalog row, after checking that params are a point of its grid;
    T, in any order, is tested apart, as a subset grid has ~2^(k+1) points."""
    if name not in CATALOG:
        raise InvalidParameters(f"unknown identity {name!r}; known: "
                                + ", ".join(CATALOG_ORDER))
    spec = CATALOG[name]
    if set(params) != set(spec.param_names):
        raise InvalidParameters(f"{name} takes parameters "
                                f"{list(spec.param_names)}, got {list(params)}")
    point = dict(params)
    try:
        if "T" in point:
            T = tuple(point.pop("T"))
            ok = (point in _krj(point["k"]) and len(set(T)) == len(T)
                  == point["j"] and set(T) <= set(_subset_universe(
                      int(point["k"]), int(point["r"]))))
        else:
            ok = point in spec.grid(params.get("k"))
    except TypeError:           # a value of the wrong type
        ok = False
    if not ok:
        raise InvalidParameters(f"{name} is not defined at {params}")
    return spec


def lhs_series(name: str, params: dict, qprec: int) -> QSeries:
    return eval_sum(_spec(name, params).lhs(params), qprec)


def verify_identity(name: str, params: dict, qprec: int) -> Report:
    """Compare both sides through q^qprec; the report's prec is that order.

    PrecisionExceeded when either side comes back shorter than that, so a
    report never claims more than was compared."""
    spec = _spec(name, params)
    t0 = time.perf_counter()
    lhs = eval_sum(spec.lhs(params), qprec)
    rhs = eval_product(spec.rhs(params), qprec)
    eq, e = lhs.equal_up_to(rhs, tgrid(qprec))
    ms = (time.perf_counter() - t0) * 1000
    return Report(name, dict(params), qprec, eq, e, ms)


def catalog_rows(max_k: int):
    """Every (name, params) pair with k <= max_k, in canonical order."""
    for name in CATALOG_ORDER:
        spec = CATALOG[name]
        # a row without k ignores the grid's argument: list it once
        for k in range(1, max_k + 1) if "k" in spec.param_names else (None,):
            for params in spec.grid(k):
                yield name, params


def _sweep_row(args):
    name, params, qprec = args
    return verify_identity(name, params, qprec)


def sweep(max_k: int, qprec: int, jobs: int = 1):
    """verify_identity over the whole catalog; deterministic report order.
    Runs on min(jobs, CPU count) worker processes, in-process when that is 1."""
    rows = [(name, params, qprec) for name, params in catalog_rows(max_k)]
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(_sweep_row, rows, chunksize=4))
    return [_sweep_row(row) for row in rows]
