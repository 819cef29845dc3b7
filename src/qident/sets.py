"""Combinatorial families, their enumerators, and generating-function checks.

The families live on two kinds of objects: frequency sequences with bounded
adjacent sums (the image side of the insertion map) and multipartitions with
per-partition lower bounds on the parts (the source side), all in one
table, ``FAMILIES``.  Enumeration is exhaustive by weight, which is cheap at
desk scale because frame weights grow quadratically.  Generating functions
(frequency rows counted by a transfer matrix over positions, multipartition
rows by enumeration) are compared against catalog sum sides and against
independent product-side oracles.

Weights and orders here are whole q-powers, put on the t-grid by ``tgrid``.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add
from typing import Optional

from .errors import InvalidParameters, KindMismatch, NotAMember
from .identities import _kr, _krj, lhs_series, tgrid
from .motion import canonical, frame_of, in_A, mp_size, weight
from .series import QSeries


# -- enumeration of bounded frequency sequences -----------------------------------


def _check_bounds(k: int, max_weight: int):
    if k < 1:
        raise InvalidParameters("k must be at least 1")
    if max_weight < 0:
        raise InvalidParameters("the weight bound must be at least 0")


def enum_freq(k: int, max_weight: int):
    """All frequency sequences with adjacent sums <= k and weight <= max_weight,
    in canonical (trailing-zero-trimmed) form, each exactly once."""
    _check_bounds(k, max_weight)
    out = []
    _freq(k, 0, 0, max_weight, [], out)
    return out


def _freq(k, i, prev, wleft, acc, out):
    """Append to out every sequence acc + (f_i, f_(i+1), ...) of enum_freq,
    with prev = f_(i-1) and wleft the weight left."""
    if i > 0 and wleft < i:
        out.append(canonical(acc))
        return
    for v in range(0, k - prev + 1):
        if i > 0 and i * v > wleft:
            break
        acc.append(v)
        _freq(k, i + 1, v, wleft - i * v, acc, out)
        acc.pop()


# -- the family table ---------------------------------------------------------------


def _pad2(f):
    return list(f) + [0, 0]


def _pair_meets_parity(u: int, a: int, b: int, k: int, target: int) -> bool:
    """The parity rule at positions (u, u+1) holding a, b: a saturated pair
    (a + b = k) needs u a + (u+1) b = target (mod 2)."""
    return a + b != k or (u * a + (u + 1) * b) % 2 == target % 2


def parity_condition(f, k: int, target: int) -> bool:
    """The parity rule at every pair of positions of f, trailing zeros included."""
    g = _pad2(f)
    return all(_pair_meets_parity(u, g[u], g[u + 1], k, target)
               for u in range(len(g) - 1))


def x_min_part(m: int, j: int, r: int, k: int) -> int:
    return max(m - j + max(m - (k - r), 0), 0)


def in_X(mp, j: int, r: int, k: int, parity: Optional[int] = None) -> bool:
    """Part bounds for the multipartition families; ``parity`` constrains the
    parts of the last partition mod 2 (None for the unprimed family)."""
    if len(mp) != k:
        return False
    for m in range(1, k + 1):
        lo = x_min_part(m, j, r, k)
        if any(part < lo for part in mp[m - 1]):
            return False
    if parity is not None:
        if any(part % 2 != parity % 2 for part in mp[k - 1]):
            return False
    return True


def _ks(k):
    return ({"k": k, "s": s} for s in range(k + 1) if k >= 1)


def _y_head(p, f0, f1):
    return f0 in {l + max(l - (p.j - p.r), 0) for l in range(p.j + 1)}


def _z_head(p, f0, f1):
    return f0 <= p.j - max(f0 + f1 - (p.k - p.r), 0)


def _single_head(p, f0, f1):
    return f0 == p.s


# A family's kind (_FREQ or _MP), its domain (k -> the valid param dicts for
# that k), its head rule (None, or (pred, f_0, f_1) -> bool on A_k) and its
# parity (None, or the target's shift: 1 on the tilde rows)
Family = namedtuple("Family", "kind domain head parity", defaults=(None, None))


_FREQ, _MP = "frequency sequence", "multipartition"
# the multipartition rows are part-bounded by x_min_part, not head-ruled
FAMILIES = {
    "A": Family(_FREQ, lambda k: ({"k": k},) if k >= 1 else ()),
    "gordon": Family(_FREQ, _kr, lambda p, f0, f1: f0 == 0 and f1 <= p.k - p.r),
    "Y": Family(_FREQ, _krj, _y_head),
    "Z": Family(_FREQ, _krj, _z_head),
    "Yp": Family(_FREQ, _krj, _y_head, parity=0),
    "Zp": Family(_FREQ, _krj, _z_head, parity=0),
    "Ypt": Family(_FREQ, _krj, _y_head, parity=1),
    "Zpt": Family(_FREQ, _krj, _z_head, parity=1),
    "Y_s": Family(_FREQ, _ks, _single_head),
    "Yp_s": Family(_FREQ, _ks, _single_head, parity=0),
    "Ypt_s": Family(_FREQ, _ks, _single_head, parity=1),
    "X": Family(_MP, _krj),
    "Xp": Family(_MP, _krj, parity=0),
    "Xpt": Family(_MP, _krj, parity=1),
}


class SetPredicate(namedtuple("SetPredicate", "tag k r j s",
                              defaults=(0, 0, 0))):
    """A row of ``FAMILIES`` at its parameters; those the family does not
    take stay 0.  ``predicate`` builds one inside the family's domain."""

    __slots__ = ()

    def __new__(cls, tag: str, k: int, r: int = 0, j: int = 0, s: int = 0):
        self = super().__new__(cls, tag, k, r, j, s)
        taken = next(iter(_family(tag).domain(1)))
        if any(getattr(self, n) for n in ("r", "j", "s") if n not in taken):
            raise InvalidParameters(f"family {tag} takes parameters "
                                    f"{list(taken)}; got {self}")
        return self

    @classmethod
    def _make(cls, fields):     # for _replace too: namedtuple's skips __new__
        return cls(*fields)

    def member(self, obj) -> bool:
        return membership(self, obj)


def _family(tag: str) -> Family:
    if tag not in FAMILIES:
        raise InvalidParameters(f"unknown family tag {tag!r}")
    return FAMILIES[tag]


def predicate(tag: str, **params) -> SetPredicate:
    """The family at params, an omitted r, j or s being 0, after checking
    that it takes each of them and that they are a point of its domain."""
    row = _family(tag)
    if params.get("k", 0) < 1:
        raise InvalidParameters("k must be at least 1")
    point = {name: params.get(name, 0) for name in next(iter(row.domain(1)))}
    if set(params) - set(point) or point not in row.domain(point["k"]):
        raise InvalidParameters(f"family {tag} takes parameters "
                                f"{list(point)} in its domain; got {params}")
    return SetPredicate(tag, **point)


def _parity_target(pred: SetPredicate, row: Family) -> Optional[int]:
    """k + r - j, plus 1 on the tilde rows.  The single-head rows take
    r = j = 0 and the others s = 0, so this is also their k - s (+1)."""
    if row.parity is None:
        return None
    return pred.k + pred.r - pred.j - pred.s + row.parity


def _meets(pred: SetPredicate, row: Family, f) -> bool:
    """The row's head rule and parity target, on a member f of A_k."""
    g = _pad2(f)
    target = _parity_target(pred, row)
    return ((row.head is None or row.head(pred, g[0], g[1]))
            and (target is None or parity_condition(f, pred.k, target)))


def membership(pred: SetPredicate, obj) -> bool:
    """Exact predicate evaluation; KindMismatch for the wrong object kind,
    including a frequency sequence with a negative or boolean entry."""
    row = FAMILIES[pred.tag]
    if row.kind == _MP:
        if not (isinstance(obj, tuple) and all(isinstance(x, tuple) for x in obj)):
            raise KindMismatch(f"{pred.tag} needs a multipartition")
        return in_X(obj, pred.j, pred.r, pred.k, _parity_target(pred, row))
    if not all(type(x) is int and x >= 0 for x in obj):
        raise KindMismatch(f"{pred.tag} needs a frequency sequence")
    return in_A(obj, pred.k) and _meets(pred, row, obj)


def in_Y(f, j: int, r: int, k: int) -> bool:
    return membership(SetPredicate("Y", k=k, r=r, j=j), f)


def in_Z(f, j: int, r: int, k: int) -> bool:
    return membership(SetPredicate("Z", k=k, r=r, j=j), f)


def enum_family(pred: SetPredicate, max_weight: int):
    """All members up to the given weight (``mp_total_size`` for an X row)."""
    row = FAMILIES[pred.tag]
    if row.kind == _MP:
        return enum_mp_family(pred.k, pred.j, pred.r, max_weight,
                              _parity_target(pred, row))
    # enum_freq gives members of A_k only: the head and parity rules decide
    return [f for f in enum_freq(pred.k, max_weight) if _meets(pred, row, f)]


# -- multipartition enumeration ------------------------------------------------------


def _enum_partitions(length, budget, lo, parity=None, cap=None):
    """Weakly decreasing tuples of given length, parts >= lo (and of the given
    parity when set), total <= budget."""
    lo = max(lo, 0)
    if parity is not None and lo % 2 != parity % 2:
        lo += 1
    if length == 0:
        return [()]
    out = []
    step = 2 if parity is not None else 1
    hi = budget - lo * (length - 1)
    if cap is not None:
        hi = min(hi, cap)
    p = lo
    while p <= hi:
        for rest in _enum_partitions(length - 1, budget - p, lo, parity, cap=p):
            out.append((p,) + rest)
        p += step
    return out


def enum_mp_family(k: int, j: int, r: int, max_size: int,
                   parity: Optional[int] = None):
    """Members (multipartitions) of the part-bounded family with
    |parts| + |frame| <= max_size; parity constrains the last partition."""
    _check_bounds(k, max_size)
    smax = 1
    while smax * smax - smax <= max_size:
        smax += 1
    frames = []
    for s1 in range(smax + 1):
        _frames(k, max_size, [s1], frames)
    mins = [x_min_part(m, j, r, k) for m in range(1, k + 1)]
    out = []
    for s_list in frames:
        fw = sum(v * v for v in s_list) - sum(s_list)
        if fw > max_size:
            continue
        budget = max_size - fw
        lengths = [s_list[m] - (s_list[m + 1] if m + 1 < k else 0)
                   for m in range(k)]
        if sum(lengths[m] * max(mins[m], 0) for m in range(k)) > budget:
            continue
        _assemble([(lengths[m], mins[m], parity if m == k - 1 else None)
                   for m in range(k)], budget, [], out)
    return out


def _frames(k, max_size, s_list, out):
    """Append to out every frame s_1 >= ... >= s_k that extends s_list,
    each s with s^2 - s <= max_size."""
    if len(s_list) == k:
        out.append(s_list)
        return
    for v in range(s_list[-1], -1, -1):
        if v * v - v <= max_size:
            _frames(k, max_size, s_list + [v], out)


def _assemble(rows, left, acc, out):
    """Append to out every tuple acc + (lam, ...) that adds one partition
    for each row (length, least part, parity) of rows from len(acc) on, the
    added partitions of total size <= left."""
    if len(acc) == len(rows):
        out.append(tuple(acc))
        return
    length, least, par = rows[len(acc)]
    for lam in _enum_partitions(length, left, least, par):
        acc.append(lam)
        _assemble(rows, left - sum(lam), acc, out)
        acc.pop()


# -- head rewriting between the Y and Z families ---------------------------------------


def phi(j: int, r: int, k: int, f) -> tuple:
    """Rewrite f_0 to carry a Y-family member onto the Z family: a head
    2l - (j - r) above j - r, with l in the Z head range, becomes l."""
    if not in_Y(f, j, r, k):
        raise NotAMember("phi needs a member of the Y family")
    f0 = _pad2(f)[0]
    f0p = f0 if f0 <= j - r else (f0 + j - r) // 2
    return canonical([f0p] + list(f[1:]))


def pi(j: int, r: int, k: int, g) -> tuple:
    """Inverse of phi: Z family back to the Y family."""
    if not in_Z(g, j, r, k):
        raise NotAMember("pi needs a member of the Z family")
    g0 = _pad2(g)[0]
    g0p = g0 if g0 <= j - r else 2 * g0 - (j - r)
    return canonical([g0p] + list(g[1:]))


# -- generating functions ----------------------------------------------------------------


def gf_members(members, max_weight: int, weight_fn=weight) -> QSeries:
    """sum q^{|member|} over the enumerated members, exact to max_weight."""
    counts = {}
    for m in members:
        w = weight_fn(m)
        if w <= max_weight:
            counts[2 * w] = counts.get(2 * w, 0) + 1
    return QSeries(counts, tgrid(max_weight))


def gf_family(pred: SetPredicate, max_weight: int) -> QSeries:
    """sum q^{|member|} over the family, exact to max_weight: a frequency row
    by the transfer matrix, a multipartition row by enumeration."""
    row = FAMILIES[pred.tag]
    if row.kind == _MP:
        return gf_members(enum_family(pred, max_weight), max_weight,
                          mp_total_size)
    return _gf_transfer(pred, row, max_weight)


def _gf_transfer(pred: SetPredicate, row: Family, W: int) -> QSeries:
    """Transfer-matrix count of a frequency row (Stanley, EC I, 4.7): after
    position u, counts[b][w] is the number of prefixes f_0..f_u with f_u = b
    and weight w that meet every rule so far.  Past u = W only f_u = 0 fits,
    so counts[0] after the step to u = W + 1 is the generating function."""
    _check_bounds(pred.k, W)
    k, target = pred.k, _parity_target(pred, row)

    def parity_ok(u, a, b):    # the loops keep a + b <= k themselves
        return target is None or _pair_meets_parity(u, a, b, k, target)

    counts = [[0] * (W + 1) for _ in range(k + 1)]
    for f0 in range(k + 1):
        for f1 in range(min(k - f0, W) + 1):
            if parity_ok(0, f0, f1) and (row.head is None
                                         or row.head(pred, f0, f1)):
                counts[f1][f1] += 1
    for u in range(1, W + 1):
        nxt = [[0] * (W + 1) for _ in range(k + 1)]
        for b in range(min(k, W // (u + 1)) + 1):
            shift, dst = (u + 1) * b, nxt[b]
            for a in range(k - b + 1):
                if parity_ok(u, a, b):
                    dst[shift:] = map(add, dst[shift:], counts[a])
        counts = nxt
    return QSeries({2 * w: c for w, c in enumerate(counts[0])}, tgrid(W))


def mp_total_size(mp) -> int:
    return mp_size(mp) + weight(frame_of(mp))


# -- theorem-level checks -------------------------------------------------------------------


SetReport = namedtuple("SetReport", "equal first_mismatch detail",
                       defaults=("",))


_INTERP = {
    "1.11": ("Z", "stanton_32"),
    "1.12": ("Zp", "stanton_42"),
    "1.13": ("Zpt", "nonbinom_kursungoz"),
}


def check_interpretation(theorem: str, k: int, r: int, j: int,
                         max_weight: int) -> SetReport:
    """Generating function of the stated frequency family against the
    corresponding catalog sum side, compared at exactly q-order max_weight
    (t-order ``tgrid(max_weight)``); a side known to less raises."""
    if theorem not in _INTERP:
        raise InvalidParameters(f"unknown interpretation {theorem!r}")
    tag, row = _INTERP[theorem]
    # the sum side validates (k, r, j), so a bad input fails before enumerating
    ref = lhs_series(row, {"k": k, "r": r, "j": j}, max_weight)
    gf = gf_family(SetPredicate(tag, k=k, r=r, j=j), max_weight)
    eq, e = gf.equal_up_to(ref, tgrid(max_weight))
    return SetReport(eq, e, f"{tag} vs {row}")


def check_ztilde_relation(k: int, r: int, j: int,
                          max_weight: int) -> SetReport:
    """The three-term relation between the tilde family and its neighbours:
    (1+q) gf(Ztilde'_{j,r,k}) = gf(Z'_{j,r-1,k}) + q gf(Z'_{j,r+1,k}),
    plus the inclusion chain and the f_1 -> f_1 - 1 bijection between the
    difference sets.  Enumerative, weight-bounded, r >= 1 required."""
    if r < 1:
        raise InvalidParameters("r >= 1 required (r - 1 must stay defined)")
    W = max_weight
    zt = set(enum_family(predicate("Zpt", k=k, r=r, j=j), W))
    zm = set(enum_family(SetPredicate("Zp", k=k, r=r - 1, j=j), W))
    # at r + j = k this neighbour is outside the domain, and empty when j = 0
    zp = set(enum_family(SetPredicate("Zp", k=k, r=r + 1, j=j), W))
    if not zp <= zt or not zt <= zm:
        return SetReport(False, None, "inclusion chain fails")
    lhs = gf_members(zt, W) * QSeries([(0, 1), (2, 1)])
    rhs = gf_members(zm, W) + gf_members(zp, W).shift(2)
    eq, e = lhs.equal_up_to(rhs, tgrid(W))
    if not eq:
        return SetReport(False, e, "three-term gf relation fails")
    # weight-(-1) shift bijection from Z'_{j,r-1,k} minus the tilde family
    # onto the tilde family minus Z'_{j,r+1,k}
    dst = zt - zp
    seen = set()
    for f in zm - zt:
        g = _pad2(f)
        if g[1] < 1:
            return SetReport(False, None, f"shift map undefined on {f}")
        img = canonical([g[0], g[1] - 1] + list(g[2:]))
        if img not in dst:
            return SetReport(False, None, f"shift image {img} escapes the target")
        if img in seen:
            return SetReport(False, None, f"shift map collides at {img}")
        seen.add(img)
    # The map is onto the target below weight W, so it can neither slip nor
    # miss.  Lowering f_1 by one lowers the weight by exactly one.  With the
    # inclusion chain, the relation at q^w says |zm - zt| at weight w is
    # |zt - zp| at weight w - 1 for every w <= W; a map that lowers weights
    # by one, stays in zt - zp and never collides is then a bijection
    # between the two at each weight.
    assert seen == {g for g in dst if weight(g) < W}
    return SetReport(True, None, "")
