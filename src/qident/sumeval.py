"""Truncated evaluation of nested q-multisums.

Every sum side in scope has the shape

    sum over s_1 >= s_2 >= ... >= s_K >= 0 of
        prod_i t^(quad_i*s_i^2 + lin_i*s_i) * extra_i(s_i)
        * prod_gaps 1/(t^d; t^d)_{s_i - s_{i+1}}
        * prod_gaps (t^(b*s_i) + t^(-b*s_{i+1}))      [binomial rows only]

i.e. the summand couples adjacent variables only.  That makes the truncated
sum computable by one pass of dynamic programming from the innermost variable
outwards, instead of enumerating tuples: the quadratic own-exponents make the
series for large values vanish below the truncation order, so the recursion
self-prunes.

The pass.  ``multisum`` is one loop over the variables, from the innermost
outwards.  It starts from T_v = 1 for every v <= vmax, the product before
the innermost own factor, or from the outermost stored product (below).
For each variable but the outermost, the own pass (``_own_pass``) applies
its own factor to each T_v, and ``layer_product`` convolves the result
through the gap outside it.  The outermost variable's own pass and the sum
over its values are one step, ``_own_sum`` (below).  A single variable
takes no step of the loop: its own row is summed against T_v = 1.

A layer product maps the layer L_u (u = 0..vmax), the inner T_u after their
own factors, to

    T_v = sum_{u <= v} L_u * 1/(t^d; t^d)_{v-u}   [* (t^(b*v) + t^(-b*u))],

a convolution in u of series-valued sequences.  It is done as one big-int
product per branch (bivariate Kronecker substitution, see
``series.kron_pack``): L_u goes into slot u and 1/(t^d; t^d)_m into slot m
of two packed integers, with slots wide enough that no product of two slots
reaches the next one.  The binomial factor gives two branches:
L_u * t^(-b*u) against the plain Pochhammers, and L_u * t^(b*u) against
1/(t^d; t^d)_m * t^(b*m), which puts t^(b*v) on slot v.  Slot v of the sum
is T_v, with the precision that the per-pair series products and sums would
have given it.

Inside a slot the term t^e sits at digit e - lo, with lo the lowest exponent
of any L_u * t^(-b*u).  Every exponent that enters the product lies on the
lattice lo + g*Z, where g is the gcd of d, b and every e - b*u - lo of the
layer: the Pochhammer exponents are multiples of d, the branch shifts
multiples of b, and a sum of lattice offsets is a lattice offset.  So both
integers pack one digit per g exponents, with the slot width rounded up to
a multiple of g; the product is the same polynomial with X = 2^(8*nbytes)
standing for t^g instead of t, and exponent lo + g*j of a slot comes back
from its digit j.  This is exact: the digits it leaves out are the ones
that are always zero.  In t = q^(1/2) units, a layer of whole q-powers with
d = 2 has g = 2, as do almost all layers of the catalog's sum sides and of
the Bailey beta-side sums, so their packed integers have half the digits.

A product whose packed layer has at least _TWO_POINT_BYTES bytes is taken
at two points (Harvey's two-point Kronecker substitution, ``series.kron_pack``
at points=2): every packed polynomial in X is evaluated at Y and at -Y,
Y^2 = X, its even- and odd-index digits packed apart, so one product of
n-digit integers becomes two of about n/2 digits.  Half the sum of the two
products holds the even digits of the product, and the difference over 2Y
the odd ones, exactly.  The digit width, its bound and the slot layout are
those of the one-point product, since each half holds true digits of it
only.  On CPython 3.11 the two products, sum and shifts included, take
about 0.77 of the time of the one; with packing and reading back, a layer
product takes 0.82-0.92 of the one-point time at 2-16 kB of layer, but
1.04-1.08 below 0.7 kB, as in the interpretation checks' sum sides, so a
smaller layer is taken at the one point X.

The Pochhammer side depends only on (d, the highest slot read, wp, the
slot width, the digit width, the branch, the grid step, the points), so
each such table is packed once per key and cached; only the layer side is
packed per call.

``layer_product`` builds T_v for every v <= vmax, each read below its own
precision best_v, so nothing in it depends on the outer variable's own
factor.  That factor is kept by its offset: o_v = quad*v^2 + lin*v for a
bare monomial t^(o_v), or the pair (o_v, extra(v)) for t^(o_v) times the
extra as the caller made it, so an own row copies no series.  The shift is
applied once, where the factor is used, and fused with the truncation at
wp: only the terms below wp - o_v are shifted.  The own pass applies the
factor to each T_v, as that shift for a bare monomial and as a series
product, shifted, otherwise.  The other user of ``layer_product`` is the
Bailey engine: the beta-side sum of the Bailey lemmas
(``bailey._beta_sum``) is one bare layer product, with L_l = lift(l) *
beta_l, d = 2 and binomial step 2 for the star step, and no own factor.

The outer step.  The outermost variable's own pass and the sum over its
values are one step (``_own_sum``), with the coefficients and precision of
the ring sum of the own pass's series.  The T_v of bare monomials are added
into one dict, each term shifted as it is read.  A series own factor (the
head (x; q)_(s_1) of the Gollnitz-Gordon and Slater-type rows) is one
packed sum: each extra and each T_v packed at one point
(``series.kron_pack_one``) from its lowest term, and only the terms that
land below the precision of the sum, the products A_v * B_v added into one
big integer at the offsets of their lowest exponents, and read back once
(``kron_unpack``).  Its digit width comes from _convolve's rule, the sum
over v of min(max|extra| * sum|T_v|, sum|extra| * max|T_v|) over the
packed terms.  Packing the T_v of the bare monomials the same way was
measured slower (0.35-0.37 ms against 0.40-0.43 ms for the median catalog
row).

Working precision.  Every layer is truncated at the working order wp, and
so are the Pochhammer factors.  What is lost there is regained only if the
factors multiplied in afterwards cannot lower the exponent by more than
wp - tprec.  Pairing each variable with the binomial factor of the gap
inside it, variable i lowers it by at most
r_i = -min(0, min_v(val(own_i(v)) - b_i*v)), where own_i(v) is its own
factor t^(quad*v^2 + lin*v) * extra(v) and b_i the binomial step of the gap
between it and the next variable inwards (0 if none).  So wp = tprec + R
with R = sum_i r_i; R is 0 for most catalog rows and 2 or 4 for the rest.
The valuations are read from the extras and offset by o_v, so extras of
negative valuation (the Bailey beta values) are covered.  The own factors
are never truncated, and a series that is zero below a precision short of wp is kept,
so every precision loss reaches the result.  A result known below tprec only
means an extra series was not known far enough; that raises
PrecisionExceeded.

Memoised across rows.  The rows of one catalog family share most of their
inner variables and differ mostly in the outer one, and a generalisation at
its boundary parameters sums the very series of the identity it
generalises.  A caller that passes ``key``, one hashable description per
variable of its extra (equal only where the extras are the same function of
v at this tprec), has two things stored, each in a ``series.Memo``.  The
sum, in ``_SUMS`` under ((quad, lin, description) per variable, gaps, tprec,
vmax), looked up before any own factor is built: the descriptions pin the
extras and so wp.  And the layer product of each gap i, before the own
factor of variable i, in ``_CONVOLUTIONS`` under (the name of the suffix of
variables i+1.. that it convolves, gap i, tprec, wp), so that rows that
differ only in their outer variables share it.  A name is an int, interned
from the inside out in the ever-growing ``_SUFFIXES`` under ((quad, lin,
description) of variable i, gap i, the name inside it): equal names mean
equal suffixes, and the keys of K variables take O(K) memory, not O(K^2).
The key leaves vmax out.  T_v and best_v read L_u for u <= v only, L_u is
the same whatever vmax the layer was summed to, and the lo, g and digit
width that a larger vmax may change set the layout of the packed product,
never a digit read back.  So an entry holds the vmax it was built to and
T_v for every v up to it: a request at that vmax or below takes the entry
restricted to v <= vmax, and a larger vmax builds it again and replaces it.
``multisum`` looks for the outermost stored product first, so a row that
misses only on its outer variable pays one recall and the outer step.
Callers whose extras are closures over data (the Bailey lattice checks)
pass no key, and nothing is looked up or stored for them.  One shuffled
pass of the k <= 4 catalog sweep at q-order 60 (perfbench's catalog_sweep,
seed 1) builds 232 layer products, and stores 200 in 1.13 MiB and 298 sums
in 0.19 MiB.  The row order decides which entries are restricted and which
built again: 229-244 products over other seeds, 270 in catalog order.  At
k <= 5 and q-order 100 the products take 5.14 MiB.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import PrecisionExceeded
from .series import (INF, ONE, Memo, QSeries, digit_bytes, kron_pack,
                     kron_pack_one, kron_unpack)
from .qfunctions import SM, inv_poch_finite

# A product whose layer packs to fewer bytes is taken at one point, where
# two half-length products cost more than one (module docstring).
_TWO_POINT_BYTES = 1024

# There is no pad any more: the working precision is exact (module
# docstring).  perfbench/tracing.py reads this name to count pad retries,
# of which there are none.
_PAD = 0


def quad_min(quad: int, lin: int) -> int:
    """Exact minimum of quad*v^2 + lin*v over the integers v >= 0."""
    if lin >= 0:
        return 0
    if quad <= 0:
        raise ValueError(f"{quad}*v^2 + {lin}*v is unbounded below")
    v = -lin // (2 * quad)      # floor of the real minimiser; ceil is v + 1
    return min(quad * v * v + lin * v, quad * (v + 1) ** 2 + lin * (v + 1))


def var_bound(pervar, tprec) -> int:
    """Smallest V so that any tuple containing a value >= V only contributes
    at or above tprec.  pervar entries are (quad, lin_min) with lin_min the
    most negative linear coefficient the variable can see (binomial branches
    included)."""
    minima = [quad_min(quad, lin) for quad, lin in pervar]
    relief = sum(minima)
    v = 0
    while not all(quad * v * v + lin * v + (relief - minima[i]) >= tprec
                  for i, (quad, lin) in enumerate(pervar)):
        v += 1
    return v


def summation_bound(pervar, gaps, tprec) -> int:
    """var_bound of multisum's (quad, lin) pairs, each lin less the binomial
    step of the gap outside it; blind to extras, so only for valuation >= 0."""
    drops = [0] + [b or 0 for _, b in gaps]
    return var_bound([(quad, lin - drop) for (quad, lin, _), drop
                      in zip(pervar, drops)], tprec)


def multisum(pervar, gaps, tprec, vmax, key=None) -> QSeries:
    """Evaluate the nested sum described in the module docstring.

    pervar: per variable (outermost first) a tuple (quad, lin, extra) with
        exponents in t-units and ``extra`` either None or a callable
        v -> QSeries.
    gaps: per adjacent pair a tuple (den_step, binom_step) where den_step is
        the t-step of the difference Pochhammer 1/(.)_{s_i - s_{i+1}}, and
        binom_step is None or the b of a factor (t^(b*s_i) + t^(-b*s_{i+1})).
    vmax: the largest value summed; ``summation_bound`` gives it when every
        extra has valuation >= 0.
    key: None, or per variable a hashable description of its extra, equal
        only where two extras are the same function of v at this tprec; then
        the sum and its layer products are memoised across calls (module
        docstring).
    Raises PrecisionExceeded when an extra is not known far enough for the
    result to reach tprec.
    """
    K = len(pervar)
    assert len(gaps) == K - 1
    steps = [b or 0 for _, b in gaps]

    # The descriptions pin the extras, and so wp: a stored sum is looked up
    # before any own factor is built.
    if key is not None:
        descs = tuple((quad, lin, d) for (quad, lin, _), d in zip(pervar, key))
        whole = (descs, tuple(gaps), tprec, vmax)
        hit = _SUMS.recall(whole)
        if hit is not None:
            return hit[1][0]

    # own[i][v]: the exponent o of a bare monomial t^o, a pair (o, extra)
    # for t^o times the unshifted extra, or None (an exact zero); variable i
    # is paired with the binomial step inside it
    own = []
    R = 0
    for (quad, lin, extra), b in zip(pervar, steps + [0]):
        if extra is None:
            row = [quad * v * v + lin * v for v in range(vmax + 1)]
            low = quad_min(quad, lin - b)
        else:
            row, low = [], 0
            for v in range(vmax + 1):
                s = extra(v)
                if s.coeffs or s.prec is not INF:
                    o = quad * v * v + lin * v
                    low = min(low, _val(s) + o - b * v)
                    row.append((o, s))
                else:
                    row.append(None)
        R -= min(0, low)
        own.append(row)
    wp = tprec + R

    # products: T_v before variable start's own factor, 1 for the innermost
    # variable.  names[i]: the memo key of the product before variable i's
    # own factor, which convolves the suffix of variables i + 1..; the
    # outermost stored one built to this vmax or more is taken, restricted
    # to v <= vmax
    start, products = K - 1, dict.fromkeys(range(vmax + 1), ONE)
    names = [None] * (K - 1)
    if key is not None:
        inner = descs[-1]
        for i in range(K - 2, -1, -1):
            names[i] = (inner, gaps[i], tprec, wp)
            if i:
                inner = _SUFFIXES.setdefault((descs[i], gaps[i], inner),
                                             len(_SUFFIXES))
        for i, name in enumerate(names):
            hit = _CONVOLUTIONS.recall(name)
            if hit is not None and hit[0][0] >= vmax:
                (_, v0), stored = hit
                start, products = i, dict(zip(range(v0, vmax + 1), stored))
                break
    for i in range(start, 0, -1):
        layer = _own_pass(products, own[i], wp)
        products = (layer_product(layer, vmax, gaps[i - 1], wp) if layer
                    else {})
        if names[i - 1] is not None:
            _CONVOLUTIONS.store(names[i - 1],
                                (vmax, min(products, default=0)),
                                products.values())

    out = _own_sum(products, own[0], wp)
    if out.prec < tprec:
        raise PrecisionExceeded(
            f"multisum precision {out.prec} fell below {tprec}: an extra "
            f"series is not known far enough")
    out = out.truncate(tprec)
    if key is not None:
        _SUMS.store(whole, None, [out])
    return out


# The memos and the suffix names of their keys (module docstring).
_CONVOLUTIONS = Memo()
_SUMS = Memo()
_SUFFIXES = {}


def _val(s: QSeries):
    """Valuation as QSeries.__mul__ counts it: the precision when empty."""
    return min(s.coeffs) if s.coeffs else s.prec


def _shifted(s, o, wp):
    """t^o * s truncated at wp, shifting only the terms that stay below."""
    return QSeries._of({e + o: c for e, c in s.coeffs.items() if e < wp - o},
                       min(s.prec + o, wp))


def layer_product(layer, vmax, gap, wp):
    """{v: T_v} for every v from min(layer) to vmax (module docstring), T_v
    known below its precision best_v <= wp, which it holds as its prec.
    Nothing here depends on an own factor, and T_v reads L_u for u <= v
    only; a layer's u above vmax are not read."""
    den_step, b = gap
    b = b or 0
    us = [u for u in sorted(layer) if layer[u].coeffs]   # packed slots
    lo = min((min(layer[u].coeffs) - b * u for u in us), default=0)

    # best_v: min over u <= v of prec(L_u * ip_{v-u}) - b*u, with
    # prec(L_u * ip) = min(prec(L_u), wp + val(L_u)) since val(ip) = 0, and
    # at most wp: no term of L_u * t^(-b*u) or L_u * t^(b*u) at or above wp
    # is packed.  T_v has no term below best_v when best_v <= lo, or when no
    # nonzero L_u has u <= v; then nothing is read.
    v0 = min(layer)
    precs = []
    best = INF
    for v in range(v0, vmax + 1):
        s = layer.get(v)
        if s is not None:
            best = min(best, wp, min(s.prec, wp + _val(s)) - b * v)
        precs.append(best)
    reads = [(v, p) for v, p in enumerate(precs, v0)
             if us and v >= us[0] and p > lo]
    slots = {}
    if reads:
        slots = dict(zip((v for v, _ in reads),
                         _convolve(layer, us, lo, reads, den_step, b, wp)))
    return {v: QSeries._of(slots.get(v, {}), p)
            for v, p in enumerate(precs, v0)}


def _own_pass(products, own_row, wp):
    """own_row[v] * T_v truncated at wp for each {v: T_v} of products,
    without the entries that are zero at precision wp; own_row as in
    ``multisum``."""
    nxt = {}
    for v, t in products.items():
        o = own_row[v]
        if o is None:
            continue
        if isinstance(o, int):
            # an exact shift: only the terms of T_v below wp - o reach wp
            s = _shifted(t, o, wp)
        else:
            # T_v is read below wp - val(t^o * extra) only: no more can
            # reach wp
            o, x = o
            s = _shifted(x * t.truncate(wp - o - _val(x)), o, wp)
        # a zero series below wp still bounds what is known; keep it
        if s.coeffs or s.prec < wp:
            nxt[v] = s
    return nxt


def _own_sum(products, own_row, wp):
    """The sum over v of own_row[v] * T_v for {v: T_v} of products,
    truncated at wp: the outermost own pass and the final sum in one step
    (module docstring), with the coefficients and precision of the sum of
    ``_own_pass``'s series."""
    # The precision of each term as _own_pass gives it, and the terms of
    # the series own factors, t^o * x against T_v read below cut.
    prec = wp
    pairs = []
    for v, t in products.items():
        o = own_row[v]
        if o is None:
            continue
        if isinstance(o, int):
            prec = min(prec, t.prec + o)
        else:
            o, x = o
            vo = _val(x) + o
            cut = min(t.prec, wp - vo)
            vt = min(_val(t), cut)
            prec = min(prec, x.prec + o + vt, cut + vo)
            pairs.append((o, x, t, vo + vt))

    acc = {}
    for v, t in products.items():
        o = own_row[v]
        if isinstance(o, int):
            stop = prec - o
            for e, c in t.coeffs.items():
                if e < stop:
                    acc[e + o] = acc.get(e + o, 0) + c

    # One big integer in base X = 2^(8*nbytes) for the series own factors:
    # x packed from its valuation vx and T_v from vt, the product shifted
    # to its lowest exponent vx + o + vt.  Only what lands below prec is
    # packed, and a digit of the sum is at most the sum over the terms of
    # min(max|x| * sum|T_v|, sum|x| * max|T_v|), as in _convolve.
    terms, bound = [], 0
    for o, x, t, low in pairs:
        if low >= prec:
            continue
        vx = min(x.coeffs)
        vt = low - o - vx
        xstop, tstop = prec - o - vt, prec - o - vx
        xs = [abs(c) for e, c in x.coeffs.items() if e < xstop]
        ts = [abs(c) for e, c in t.coeffs.items() if e < tstop]
        bound += min(max(xs) * sum(ts), sum(xs) * max(ts))
        terms.append((x, vx, xstop, t, vt, tstop, low))
    if terms:
        nbytes = digit_bytes(bound)
        base = min(low for *_, low in terms)
        h = 0
        for x, vx, xstop, t, vt, tstop, low in terms:
            h += (kron_pack_one(x.coeffs, vx, xstop, nbytes)
                  * kron_pack_one(t.coeffs, vt, tstop, nbytes)
                  << 8 * nbytes * (low - base))
        for e, c in kron_unpack((h,), nbytes, [(0, prec - base, base)])[0] \
                .items():
            acc[e] = acc.get(e, 0) + c
    return QSeries._of({e: c for e, c in acc.items() if c}, prec)


def _convolve(layer, us, lo, reads, den_step, b, wp):
    """The coefficient dicts of T_v below each (v, stop) in reads, from one
    packed product per branch, taken at one point or two (module
    docstring) and read back once for both branches."""
    u0 = us[0]
    top = reads[-1][0] - u0     # highest slot read, relative to u0
    us = [u for u in us if u - u0 <= top]

    # A digit of slot v sums products of slot u and slot v - u for u <= v:
    # |digit| <= sum_u min(max|L_u| * sum|ip_{v-u}|, sum|L_u| * max|ip_{v-u}|),
    # twice that with the binomial branch.
    a_norms = [(u, max(map(abs, layer[u].coeffs.values())),
                sum(map(abs, layer[u].coeffs.values()))) for u in us]
    b_norms = _ip_norms(den_step, top, wp)
    bound = max(sum(min(amax * b_norms[v - u][1], asum * b_norms[v - u][0])
                    for u, amax, asum in a_norms if u <= v)
                for v, _ in reads)
    nbytes = digit_bytes(bound * (2 if b else 1))

    # Every packed exponent lies on lo + g*Z (module docstring); b is in the
    # gcd, so e - lo stands for e - b*u - lo.
    g = gcd(den_step, b, *[e - lo for u in us for e in layer[u].coeffs])
    # A slot product spans at most W - 1 exponents, W = 2*wp - 1 - lo here
    # rounded up to a multiple of g, so a slot holds W/g digits and the
    # exponent lo + g*j of slot v sits at digit j of it.
    W = -(-(2 * wp - 1 - lo) // g) * g
    Wg = W // g

    nd = (us[-1] - u0 + 1) * Wg
    points = 2 if nd * nbytes >= _TWO_POINT_BYTES else 1

    def branch(shift):
        # L_u * t^(shift*u) against 1/(t^d; t^d)_m * t^(max(shift, 0)*m)
        lay = kron_pack([((u - u0) * W + shift * u - lo, layer[u].coeffs,
                          wp - shift * u) for u in us], nd, nbytes, g, points)
        tab = _packed_ips(den_step, top, wp, W, nbytes, max(shift, 0), g,
                          points)
        return [x * y for x, y in zip(lay, tab)]

    h = branch(-b)
    if b:
        h = [x + y for x, y in zip(h, branch(b))]
    # slot v is read below stop: ceil((stop - lo) / g) digits
    return kron_unpack(h, nbytes, [((v - u0) * Wg, (v - u0) * Wg
                                    - (lo - stop) // g, lo)
                                   for v, stop in reads], g)


def _ips(den_step, top, wp):
    return [inv_poch_finite(SM(1, den_step), den_step, m, wp)
            for m in range(top + 1)]


# The Pochhammer side of a layer product depends on the layer only through
# its key, so each is packed once.  Both caches are bounded like the
# Pochhammer caches they read: their keys include wp.
@lru_cache(maxsize=128)
def _ip_norms(den_step, top, wp):
    """(max |c|, sum |c|) of 1/(t^d; t^d)_m at wp, d = den_step, for each
    m <= top."""
    return tuple((max(map(abs, ip.coeffs.values())),
                  sum(map(abs, ip.coeffs.values())))
                 for ip in _ips(den_step, top, wp))


@lru_cache(maxsize=128)
def _packed_ips(den_step, top, wp, W, nbytes, shift, step, points):
    """1/(t^d; t^d)_m * t^(shift*m) packed into slot m of width W, for each
    m <= top, read below wp, one digit per ``step`` exponents (step divides
    d, shift and W), at 1 or 2 points (``series.kron_pack``)."""
    return kron_pack([(m * W + shift * m, ip.coeffs, wp - shift * m)
                      for m, ip in enumerate(_ips(den_step, top, wp))],
                     (top + 1) * W // step, nbytes, step, points)
