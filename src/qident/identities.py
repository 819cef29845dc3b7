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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Optional

from .errors import CatalogRangeError, InvalidParameters
from .qfunctions import (NEG_ONE, Q, SM, inv_poch_finite, poch_finite,
                         poch_infinite, triple_product)
from .series import ONE, QSeries, one, zero
from .sumeval import multisum


def tgrid(qprec: int) -> int:
    """t-exponent truncation order covering all q-exponents <= qprec."""
    return 2 * qprec + 1


# -- declarative sides ---------------------------------------------------------

@dataclass(frozen=True)
class SumSide:
    """Shape of one nested sum over s_1 >= ... >= s_k >= 0 (t-units)."""

    k: int
    pervar: tuple                      # (quad, lin) per variable
    den_step: int                      # t-step of (.)_{s_i - s_{i+1}}
    last_step: int                     # t-step of the final (.)_{s_k}
    subset: frozenset = frozenset()    # binomial factor positions
    binom_step: int = 0                # t-step inside those factors
    head: Optional[str] = None         # "neg_one" | "odd_gg"
    tail: Optional[str] = None         # "bgg" | "slater2"
    prefactor: Optional[str] = None    # "one_plus_q" | "one_plus_sqrt_q"


@dataclass(frozen=True)
class ProductSide:
    """Sum of weighted triple products times a Pochhammer prefactor."""

    modulus: int = 0                   # t-units
    terms: tuple = ()                  # (weight, t_shift, A_t)
    num_inf: tuple = ()                # ((SM, base_t), ...) multiplied
    den_inf: tuple = ()                # ((SM, base_t), ...) divided
    den_units: tuple = ()              # exact unit polys divided, as pair-tuples


def eval_sum(side: SumSide, qprec: int) -> QSeries:
    """Exact truncation of the sum side to q-order qprec."""
    tp = tgrid(qprec)

    def head_factory(v):
        if side.head == "neg_one":
            return poch_finite(NEG_ONE, 2, v)
        if side.head == "odd_gg":
            return poch_finite(SM(-1, 2), 4, v)
        return ONE

    def last_factory(v):
        out = inv_poch_finite(SM(1, side.last_step), side.last_step, v, tp)
        if side.tail == "bgg":
            out = out * poch_infinite(SM(-1, 2 + 4 * v), 4, tp)
        elif side.tail == "slater2":
            out = out * poch_finite(SM(-1, 1), 2, v).invert(tp)
        return out

    pervar = []
    for i in range(1, side.k + 1):
        quad, lin = side.pervar[i - 1]
        factories = []
        if i == 1 and side.head is not None:
            factories.append(head_factory)
        if i == side.k:
            factories.append(last_factory)
        if not factories:
            extra = None
        elif len(factories) == 1:
            extra = factories[0]
        else:
            f1, f2 = factories
            extra = lambda v: f1(v) * f2(v)
        pervar.append((quad, lin, extra))
    gaps = [(side.den_step,
             side.binom_step if (g + 1) in side.subset else None)
            for g in range(1, side.k)]
    out = multisum(pervar, gaps, tp)
    if side.prefactor == "one_plus_q":
        out = out * QSeries([(0, 1), (2, 1)])
    elif side.prefactor == "one_plus_sqrt_q":
        out = out * QSeries([(0, 1), (1, 1)])
    return out.truncate(tp)


def eval_product(side: ProductSide, qprec: int) -> QSeries:
    """Exact truncation of the product side to q-order qprec."""
    tp = tgrid(qprec)
    if side.terms:
        acc = zero(tp)
        M = side.modulus
        for weight, shift, A in side.terms:
            if A % M == 0:
                continue  # vanishing theta: contributes 0
            if not 0 < A < M:
                raise CatalogRangeError(
                    f"theta exponent {A} outside (0, {M})")
            acc = acc + weight * triple_product(M, A, tp).shift(shift)
    else:
        acc = one(tp)
    for sm, base in side.num_inf:
        acc = acc * poch_infinite(sm, base, tp)
    for sm, base in side.den_inf:
        acc = acc * poch_infinite(sm, base, tp).invert(tp)
    for poly in side.den_units:
        acc = acc * QSeries(list(poly)).invert(tp)
    return acc.truncate(tp)


# -- catalog -------------------------------------------------------------------

INV_Q_INF = ((Q, 2),)
ONE_PLUS_Q = (((0, 1), (2, 1)),)


def _params_ok_krj(k, r, j):
    if k < 1 or r < 0 or j < 0 or r + j > k:
        raise InvalidParameters(f"need k >= 1, r, j >= 0, r + j <= k; "
                                f"got k={k}, r={r}, j={j}")


def _subset_universe(k, r):
    return tuple(sorted({1} | set(range(2, k - r + 1))))


def _subset_ok(k, r, j, T):
    T = frozenset(T)
    if len(T) != j or not T <= set(_subset_universe(k, r)):
        raise InvalidParameters(
            f"subset {sorted(T)} is not a {j}-element subset of "
            f"{_subset_universe(k, r)}")
    return T


@dataclass(frozen=True)
class IdentitySpec:
    name: str
    param_names: tuple
    validate: Callable
    lhs: Callable
    rhs: Callable
    iter_params: Callable              # max_k -> iterator of param dicts


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


def _slater_pervar(k, r, j):
    """First variable carries s(s+1)/2 and the rest ordinary squares."""
    out = []
    for i in range(1, k + 1):
        if i == 1:
            quad, lin = 1, 1
        else:
            quad, lin = 2, 0
        if i <= j:
            lin -= 2
        if i > k - r:
            lin += 2
        out.append((quad, lin))
    return tuple(out)


def _kur_lin(k, r, j_sub=0):
    """Kursungoz shape: sum_{i=k-r+1}^{k} s_i plus one extra s_k (so the
    final variable carries 2 s_k when r >= 1 and s_k when r = 0), minus the
    first j_sub variables."""
    out = []
    for i in range(1, k + 1):
        lin = 0
        if i <= j_sub:
            lin -= 2
        if k - r + 1 <= i <= k:
            lin += 2
        if i == k:
            lin += 2
        out.append((2, lin))
    return tuple(out)


def _catalog() -> dict:
    specs = {}

    def add(name, param_names, validate, lhs, rhs, iter_params):
        specs[name] = IdentitySpec(name, param_names, validate, lhs, rhs,
                                   iter_params)

    # rogers_ramanujan(a): sum q^(n^2+(1-a)n)/(q)_n = 1/(q^(2-a), q^(3+a); q^5)
    def rr_validate(p):
        if p["a"] not in (0, 1):
            raise InvalidParameters("a must be 0 or 1")

    add("rogers_ramanujan", ("a",), rr_validate,
        lambda p: SumSide(1, ((2, 2 * (1 - p["a"])),), 2, 2),
        lambda p: ProductSide(den_inf=((SM(1, 2 * (2 - p["a"])), 10),
                                       (SM(1, 2 * (3 + p["a"])), 10))),
        lambda max_k: ({"a": a} for a in (0, 1)))

    def kr_validate(p):
        if p["k"] < 1 or not 0 <= p["r"] <= p["k"]:
            raise InvalidParameters(f"need 1 <= k and 0 <= r <= k, got {p}")

    def kj_validate(p):
        if p["k"] < 1 or not 0 <= p["j"] <= p["k"]:
            raise InvalidParameters(f"need 1 <= k and 0 <= j <= k, got {p}")

    def iter_kr(max_k):
        return ({"k": k, "r": r} for k in range(1, max_k + 1)
                for r in range(0, k + 1))

    def iter_kj(max_k):
        return ({"k": k, "j": j} for k in range(1, max_k + 1)
                for j in range(0, k + 1))

    add("andrews_gordon", ("k", "r"), kr_validate,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, r_add=p["r"]), 2, 2),
        lambda p: ProductSide(2 * (2 * p["k"] + 3),
                              ((1, 0, 2 * (p["k"] + 1 - p["r"])),),
                              den_inf=INV_Q_INF),
        iter_kr)

    add("bressoud_33", ("k", "j"), kj_validate,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, j_sub=p["j"]), 2, 2),
        lambda p: ProductSide(2 * (2 * p["k"] + 3),
                              tuple((1, 0, 2 * (p["k"] + 2 - p["j"] + 2 * s))
                                    for s in range(p["j"] + 1)),
                              den_inf=INV_Q_INF),
        iter_kj)

    add("bressoud_even", ("k", "r"), kr_validate,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, r_add=p["r"]), 2, 4),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              ((1, 0, 2 * (p["k"] + 1 - p["r"])),),
                              den_inf=INV_Q_INF),
        iter_kr)

    add("bressoud_35", ("k", "j"), kj_validate,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 1, j_sub=p["j"]), 2, 4),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              tuple((1, 0, 2 * (p["k"] + 1 + p["j"] - 2 * s))
                                    for s in range(p["j"] + 1)),
                              den_inf=INV_Q_INF),
        iter_kj)

    add("kursungoz_0", ("k", "r"), kr_validate,
        lambda p: SumSide(p["k"], _kur_lin(p["k"], p["r"]), 2, 4,
                          prefactor="one_plus_q"),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              ((1, 0, 2 * (p["k"] + p["r"])),
                               (1, 2, 2 * (p["k"] + 2 + p["r"]))),
                              den_inf=INV_Q_INF),
        iter_kr)

    add("kursungoz_j", ("k", "j"), kj_validate,
        lambda p: SumSide(p["k"],
                          tuple((2, (-2 if i <= p["j"] else 0)
                                 + (2 if i == p["k"] else 0))
                                for i in range(1, p["k"] + 1)),
                          2, 4),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              tuple((1, 0, 2 * (p["k"] - p["j"] + 2 * s))
                                    for s in range(p["j"] + 1)),
                              den_inf=INV_Q_INF),
        iter_kj)

    # -- Stanton-type rows ----------------------------------------------------

    def krj_validate(p):
        _params_ok_krj(p["k"], p["r"], p["j"])

    def krjT_validate(p):
        _params_ok_krj(p["k"], p["r"], p["j"])
        _subset_ok(p["k"], p["r"], p["j"], p["T"])

    def iter_krj(max_k):
        return ({"k": k, "r": r, "j": j}
                for k in range(1, max_k + 1)
                for r in range(0, k + 1)
                for j in range(0, k - r + 1))

    def iter_krjT(max_k):
        def gen():
            for k in range(1, max_k + 1):
                for r in range(0, k + 1):
                    universe = _subset_universe(k, r)
                    for j in range(0, k - r + 1):
                        for T in combinations(universe, j):
                            yield {"k": k, "r": r, "j": j, "T": T}
        return gen()

    def binom_pervar(base, k, T, step):
        out = list(base)
        if 1 in T:
            quad, lin = out[0]
            out[0] = (quad, lin - step)
        return tuple(out)

    def odd_terms(M, A_of_s, j, binom):
        return tuple((comb(j, s) if binom else 1, 0, A_of_s(s))
                     for s in range(j + 1))

    add("stanton_31", ("k", "r", "j", "T"), krjT_validate,
        lambda p: SumSide(p["k"],
                          binom_pervar(_lin_std(p["k"], 1, r_add=p["r"]),
                                       p["k"], frozenset(p["T"]), 2),
                          2, 2, subset=frozenset(p["T"]), binom_step=2),
        lambda p: ProductSide(2 * (2 * p["k"] + 3),
                              odd_terms(2 * (2 * p["k"] + 3),
                                        lambda s: 2 * (p["k"] + 1 - p["r"]
                                                       + p["j"] - 2 * s),
                                        p["j"], True),
                              den_inf=INV_Q_INF),
        iter_krjT)

    add("stanton_32", ("k", "r", "j"), krj_validate,
        lambda p: SumSide(p["k"],
                          _lin_std(p["k"], 1, j_sub=p["j"], r_add=p["r"]),
                          2, 2),
        lambda p: ProductSide(2 * (2 * p["k"] + 3),
                              odd_terms(2 * (2 * p["k"] + 3),
                                        lambda s: 2 * (p["k"] + 1 - p["r"]
                                                       + p["j"] - 2 * s),
                                        p["j"], False),
                              den_inf=INV_Q_INF),
        iter_krj)

    add("stanton_41", ("k", "r", "j", "T"), krjT_validate,
        lambda p: SumSide(p["k"],
                          binom_pervar(_lin_std(p["k"], 1, r_add=p["r"]),
                                       p["k"], frozenset(p["T"]), 2),
                          2, 4, subset=frozenset(p["T"]), binom_step=2),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              odd_terms(2 * (2 * p["k"] + 2),
                                        lambda s: 2 * (p["k"] + 1 - p["r"]
                                                       + p["j"] - 2 * s),
                                        p["j"], True),
                              den_inf=INV_Q_INF),
        iter_krjT)

    add("stanton_42", ("k", "r", "j"), krj_validate,
        lambda p: SumSide(p["k"],
                          _lin_std(p["k"], 1, j_sub=p["j"], r_add=p["r"]),
                          2, 4),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              odd_terms(2 * (2 * p["k"] + 2),
                                        lambda s: 2 * (p["k"] + 1 - p["r"]
                                                       + p["j"] - 2 * s),
                                        p["j"], False),
                              den_inf=INV_Q_INF),
        iter_krj)

    def kur_terms(k, r, j, binom):
        out = []
        for s in range(j + 1):
            w = comb(j, s) if binom else 1
            out.append((w, 0, 2 * (k + 2 - r + j - 2 * s)))
            out.append((w, 2, 2 * (k - r + j - 2 * s)))
        return tuple(out)

    add("binom_kursungoz", ("k", "r", "j", "T"), krjT_validate,
        lambda p: SumSide(p["k"],
                          binom_pervar(_kur_lin(p["k"], p["r"]),
                                       p["k"], frozenset(p["T"]), 2),
                          2, 4, subset=frozenset(p["T"]), binom_step=2),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              kur_terms(p["k"], p["r"], p["j"], True),
                              den_inf=INV_Q_INF, den_units=ONE_PLUS_Q),
        iter_krjT)

    add("nonbinom_kursungoz", ("k", "r", "j"), krj_validate,
        lambda p: SumSide(p["k"], _kur_lin(p["k"], p["r"], j_sub=p["j"]),
                          2, 4),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              kur_terms(p["k"], p["r"], p["j"], False),
                              den_inf=INV_Q_INF, den_units=ONE_PLUS_Q),
        iter_krj)

    # -- Gollnitz-Gordon family -------------------------------------------------

    def gg_validate(p):
        if p["variant"] not in (1, 2):
            raise InvalidParameters("variant must be 1 or 2")

    add("gollnitz_gordon", ("variant",), gg_validate,
        lambda p: SumSide(1, ((2, 0 if p["variant"] == 1 else 4),), 4, 4,
                          head="odd_gg"),
        lambda p: ProductSide(
            den_inf=((SM(1, 2 if p["variant"] == 1 else 6), 16),
                     (SM(1, 8), 16),
                     (SM(1, 14 if p["variant"] == 1 else 10), 16))),
        lambda max_k: ({"variant": v} for v in (1, 2)))

    add("bressoud_gg", ("k", "j"), kj_validate,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 2, j_sub=p["j"]), 4, 4,
                          tail="bgg"),
        lambda p: ProductSide(2 * (4 * p["k"] + 4),
                              tuple((1, 0, 2 * (2 * p["k"] + 1 - 2 * p["j"]
                                                + 2 * s))
                                    for s in range(p["j"] + 1)),
                              num_inf=((SM(-1, 2), 4),),
                              den_inf=((SM(1, 4), 4),)),
        iter_kj)

    def bgg_terms(k, r, j, binom):
        out = []
        for s in range(j + 1):
            w = comb(j, s) if binom else 1
            out.append((w, 0, 2 * (2 * k + 3 - 2 * r + 2 * j - 4 * s)))
            out.append((w, 2, 2 * (2 * k + 1 - 2 * r + 2 * j - 4 * s)))
        return tuple(out)

    add("binom_bgg", ("k", "r", "j", "T"), krjT_validate,
        lambda p: SumSide(p["k"],
                          binom_pervar(_lin_std(p["k"], 2, r_add=p["r"]),
                                       p["k"], frozenset(p["T"]), 4),
                          4, 4, subset=frozenset(p["T"]), binom_step=4,
                          tail="bgg"),
        lambda p: ProductSide(2 * (4 * p["k"] + 4),
                              bgg_terms(p["k"], p["r"], p["j"], True),
                              num_inf=((SM(-1, 6), 4),),
                              den_inf=((SM(1, 4), 4),)),
        iter_krjT)

    add("nonbinom_bgg", ("k", "r", "j"), krj_validate,
        lambda p: SumSide(p["k"],
                          _lin_std(p["k"], 2, j_sub=p["j"], r_add=p["r"]),
                          4, 4, tail="bgg"),
        lambda p: ProductSide(2 * (4 * p["k"] + 4),
                              bgg_terms(p["k"], p["r"], p["j"], False),
                              num_inf=((SM(-1, 6), 4),),
                              den_inf=((SM(1, 4), 4),)),
        iter_krj)

    add("bgg_j0", ("k", "r"), kr_validate,
        lambda p: SumSide(p["k"], _lin_std(p["k"], 2, r_add=p["r"]), 4, 4,
                          tail="bgg"),
        lambda p: ProductSide(2 * (4 * p["k"] + 4),
                              ((1, 0, 2 * (2 * p["k"] + 3 - 2 * p["r"])),
                               (1, 2, 2 * (2 * p["k"] + 1 - 2 * p["r"]))),
                              num_inf=((SM(-1, 6), 4),),
                              den_inf=((SM(1, 4), 4),)),
        iter_kr)

    # -- Slater-type rows --------------------------------------------------------

    def slater_terms(k, r, j):
        return tuple(((-1) ** t, 0, 2 * (k + 1 - r - j + s + t))
                     for s in range(2 * j + 1) for t in range(2 * r + 1))

    add("new_slater", ("k", "r", "j"), krj_validate,
        lambda p: SumSide(p["k"], _slater_pervar(p["k"], p["r"], p["j"]),
                          2, 2, head="neg_one"),
        lambda p: ProductSide(2 * (2 * p["k"] + 2),
                              slater_terms(p["k"], p["r"], p["j"]),
                              num_inf=((SM(-1, 2), 2),),
                              den_inf=INV_Q_INF),
        iter_krj)

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

    def slater2_validate(p):
        _params_ok_krj(p["k"], p["r"], p["j"])
        if p["r"] < 1:
            raise InvalidParameters(
                "r >= 1 required (the r = 0 branch relies on an external result)")

    add("new_slater2", ("k", "r", "j"), slater2_validate,
        lambda p: SumSide(p["k"], _slater_pervar(p["k"], p["r"], p["j"]),
                          2, 2, head="neg_one", tail="slater2",
                          prefactor="one_plus_sqrt_q"),
        lambda p: ProductSide(2 * (2 * p["k"] + 1),
                              slater2_terms(p["k"], p["r"], p["j"]),
                              num_inf=((SM(-1, 2), 2),),
                              den_inf=INV_Q_INF),
        lambda max_k: ({"k": k, "r": r, "j": j}
                       for k in range(1, max_k + 1)
                       for r in range(1, k + 1)
                       for j in range(0, k - r + 1)))

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

@dataclass
class Report:
    name: str
    params: dict
    prec: int
    equal: bool
    first_mismatch: Optional[int]
    elapsed_ms: float = 0.0

    def to_json(self) -> dict:
        params = {k: (list(v) if isinstance(v, tuple) else v)
                  for k, v in self.params.items()}
        return {"name": self.name, "params": params, "prec": self.prec,
                "equal": self.equal, "first_mismatch": self.first_mismatch,
                "elapsed_ms": round(self.elapsed_ms, 3)}


def _spec(name: str, params: dict) -> IdentitySpec:
    """The catalog row, after checking that params are valid for it."""
    if name not in CATALOG:
        raise InvalidParameters(f"unknown identity {name!r}")
    spec = CATALOG[name]
    extra = sorted(set(params) - set(spec.param_names))
    if extra:
        raise InvalidParameters(
            f"{name} takes parameters {list(spec.param_names)}, not {extra}")
    spec.validate(params)
    return spec


def lhs_series(name: str, params: dict, qprec: int) -> QSeries:
    return eval_sum(_spec(name, params).lhs(params), qprec)


def rhs_series(name: str, params: dict, qprec: int) -> QSeries:
    return eval_product(_spec(name, params).rhs(params), qprec)


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


def verify_subset_variants(name: str, k: int, r: int, j: int,
                           qprec: int):
    """Run every admissible subset T for one of the binomial rows."""
    if name not in ("stanton_31", "stanton_41", "binom_kursungoz", "binom_bgg"):
        raise InvalidParameters(f"{name} has no subset variants")
    _params_ok_krj(k, r, j)
    out = []
    for T in combinations(_subset_universe(k, r), j):
        out.append(verify_identity(name,
                                   {"k": k, "r": r, "j": j, "T": T}, qprec))
    return out


def catalog_rows(max_k: int):
    """Every (name, params) pair with k <= max_k, in canonical order."""
    for name in CATALOG_ORDER:
        for params in CATALOG[name].iter_params(max_k):
            yield name, params


def _sweep_row(args):
    name, params, qprec = args
    return verify_identity(name, params, qprec)


def sweep(max_k: int, qprec: int, jobs: int = 1):
    """verify_identity over the whole catalog; deterministic report order."""
    rows = [(name, params, qprec) for name, params in catalog_rows(max_k)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_sweep_row, rows, chunksize=4))
    return [_sweep_row(row) for row in rows]
