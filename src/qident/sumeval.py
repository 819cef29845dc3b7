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
the innermost own factor (a packed product whose slots all read one digit
1), or from the outermost stored product (below).  For each variable but
the outermost, the own pass (``_own_pass``) applies its own factor to each
T_v, and ``layer_product`` convolves the result through the gap outside
it, to no slot if the own pass leaves nothing.  The outermost variable's
own pass and the sum over its values are one step, ``_own_sum`` (below).
A single variable takes no step of the loop: its own row is summed
against T_v = 1.

A layer product maps the layer L_u (u = 0..vmax), the inner T_u after their
own factors, to

    T_v = sum_{u <= v} L_u * 1/(t^d; t^d)_{v-u}   [* (t^(b*v) + t^(-b*u))],

a convolution in u of series-valued sequences.  Each slot v that is read
is its own sum of one-slot products, T_v = sum_{u <= v} A_u * B_{v-u}, by
Kronecker substitution in t alone (``series.kron_pack``).  T_v is known
below best_v, the least over u <= v of prec(L_u * 1/(t^d; t^d)_{v-u}) -
b*u and at most wp, which never rises with v.  A_u is L_u * t^(-b*u) below
best_u, packed from its own lowest exponent.  B_m = 1/(t^d; t^d)_m is
never packed: by Euler's B_m = B_(m-1) / (1 - t^(d*m)) (Andrews, The
Theory of Partitions, section 2.2), the product A_u * B_m of slot
v = u + m is that of slot v - 1 divided by 1 - X^s, s = (d/g)*m on the
packed grid (below), modulo X^N, N the digits of the product that slot v
reads.  That division (``_over_one_minus``) is P += P << (8*nbytes*s*2^i)
for i = 0, 1, ... while s*2^i < N, then one mask, and nothing when
s >= N; N never rises with v, as best_v does not.  So a pair (u, v) costs
about log2(N/s) shift-adds, linear in the bytes, and the chain of each u
starts from P = A_u, as B_0 = 1.  Each product is shifted to the layer's
lowest exponent lo, the lowest of any L_u * t^(-b*u).  The binomial
factor's other branch, L_u * 1/(t^d; t^d)_{v-u} * t^(b*v), is the same
product shifted up by t^(b*(u+v)): one product per pair (u, v), not one
per branch.  Slot v holds T_v with the precision that the per-pair series
products and sums would have given it.  ``_ip`` builds 1/(t^d; t^d)_m
once per (d, m, wp) only for its norms, which set the digit width.

Inside a slot the term t^e sits at a digit counted from lo.  Every
exponent that enters a slot lies on the lattice lo + g*Z, where g is the
gcd of d, b and every e - b*u - lo of the layer: the Pochhammer exponents
are multiples of d, the branch shifts multiples of b, and a sum of lattice
offsets is a lattice offset.  So every operand packs one digit per g
exponents; a product is the same polynomial with X = 2^(8*nbytes)
standing for t^g instead of t, and exponent lo + g*j of a slot comes back
from its digit j.  This is exact: the digits it leaves out are the ones
that are always zero.  In t = q^(1/2) units, a layer of whole q-powers with
d = 2 has g = 2, as do almost all layers of the catalog's sum sides and of
the Bailey beta-side sums, so their packed integers have half the digits.

The digits read are exact at the width of the digit bound dmax
(``layer_product``), for three reasons.  Every digit of T_v below best_v
is a coefficient of T_v, a sum over u <= v of coefficients of
L_u * 1/(t^d; t^d)_{v-u} (twice that with the binomial factor), so it is
bounded by dmax.  Every term that the truncation of A_u drops, at or
above best_u, lands at or above best_v, as every factor has valuation
>= 0 after the shift to lo and best_v <= best_u for u <= v.  And every
step of a product is exact modulo X^N, N the digits it reads, so the sum
acc of a slot's products and their shifts is exact modulo X^n, n the
slot's digits read; the slot's run is taken as biased words,
(acc + bias) & mask (``series.kron_digits``), which depends on acc mod
X^n only.  So nothing above the digits read (a product's high digits, a
carry out of one of them, what a mask leaves) reaches them, and a slot
needs no guard digits, however far its unread digits outgrow the width.

A layer product stays packed.  ``layer_product`` returns the digits of T_v
for every v <= vmax, each slot below its own precision best_v, as the
buffer of biased digit words that ``series.kron_digits`` makes of the
slots' integers in one read-back, each slot's read run joined: the
layer's lo, grid step g, digit width and the bound on every |digit| that
set it, and per slot the start of its run, its digit count and best_v.
Digit j of slot v is the coefficient of t^(lo + g*j) in T_v.  Nothing in it
depends on the outer variable's own factor, and no coefficient dict is
made: each consumer reads a slot only as far as its own factor needs.  That
factor is the pair (o_v, extra(v)), o_v = quad*v^2 + lin*v, for t^(o_v)
times the extra as the caller made it, the extra None for a bare monomial,
so an own row copies no series; an exact zero is None.  Both users of an own
factor take each slot from one walk (``_own_terms``): slot v is read below
its cut min(best_v, wp - o_v - val(extra)), val 0 for a bare monomial, and
t^(o_v) * extra * T_v is known below min(prec(extra) + o_v + val(T_v),
cut + o_v + val(extra)), which is at most wp; val(T_v), the lowest digit
below the cut (``series.lowest_digit``), is read only for a truncated
extra, and a bare slot with nothing below wp is left out.  The own pass
(``_own_pass``) reads every slot in one ``read_digits`` call, the shift
o_v folded into the read's base exponent lo + o_v, and multiplies a series
factor by its extra below that precision.  The other user of
``layer_product`` is the Bailey engine: the beta-side sum of the Bailey
lemmas (``bailey._beta_sum``) is one bare layer product, with L_l =
lift(l) * beta_l, d = 2 and binomial step 2 for the star step, and no own
factor, read whole (``slot_series``, one ``read_digits`` call).

The outer step.  The outermost variable's own pass and the sum over its
values are one step (``_own_sum``), with the coefficients and precision of
the ring sum of the own pass's series: one packed sum for both kinds of own
factor, at the least precision of the walk's slots.  Each slot's digits of
its walk run that lie below that precision are taken as one integer
(``series.read_runs``), multiplied by its extra packed
(``series.kron_pack``) or by 1, shifted to its lowest exponent lo +
o_v (+ val(extra)), added, and the sum is read back once (``kron_unpack``).
With D the digit bound of the layer product, which the layout keeps, T_v
has norms at most (D, D * n_v) for n_v digits taken, so a digit of the sum
is at most the sum over v of D for a bare monomial, and
``series.product_bound`` of T_v and the extra otherwise.  While that fits
the slots' words, the sum is taken at their width; beyond it each slot is
widened by strided byte copies.  Scanning the digits taken for their
largest |digit| costs more than the widening it saves: the
p30-p70 band of rows of a cold k <= 4, q-order 60 pass took 48.6-49.6 ms
with the scan against 43.2-45.3 ms without (in-process, best of 8 passes a
row).  The sum lies on the lattice lo + g2*Z, g2 the gcd of g, the
offsets between the terms' lowest exponents and the exponents of each extra
less its valuation; when g2 < g (odd offsets, or an extra with odd
exponents, over a product on the even grid), the same strided copies spread
each slot's digits g/g2 apart.

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
An entry is the packed layer product itself, its joined read runs as one
``bytes`` and its layout, with no coefficient dict.  The key leaves vmax
out.  T_v and best_v read L_u for u <= v only, L_u is the same whatever
vmax the layer was summed to, and the lo, g and digit width that a larger
vmax may change set the layout of the packed product, never a digit read
back.  So an entry holds the vmax it was built to and the slots of every v
up to it: a request at that vmax or below takes the entry with its slot
list cut to v <= vmax, decoding nothing, and a larger vmax builds it again
and replaces it.  ``multisum`` looks for the outermost stored product
first, so a row that misses only on its outer variable pays one recall and
the outer step, whose final read-back is the only read of digits.  Callers
whose extras are closures over data (the Bailey lattice checks) pass no
key, and nothing is looked up or stored for them.  One shuffled pass of the
k <= 4 catalog sweep at q-order 60 (perfbench's catalog_sweep, seed 1)
builds 232 layer products, and stores 200 in 0.80 MiB (1.13 MiB as
coefficient dicts) and 298 sums in 0.19 MiB.  The row order decides which
entries are cut and which built again: 229-244 products over other seeds,
270 in catalog order.  At k <= 5 and q-order 100 the products take
4.32 MiB (5.14 MiB as dicts).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import PrecisionExceeded
from .series import (INF, Memo, Operand, QSeries, digit_bytes, digit_count,
                     kron_digits, kron_pack, kron_unpack, lowest_digit,
                     product_bound, read_digits, read_runs, _as_prec,
                     _mul_any)
from .qfunctions import SM, inv_poch_finite

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
    step of the gap outside it; blind to extras, so only for valuation >= 0.
    Every sum side pays it before its memo lookup, so it is cached."""
    tprec = _order(tprec)
    drops = [0] + [b or 0 for _, b in gaps]
    return _bound(tuple((quad, lin - drop) for (quad, lin, _), drop
                        in zip(pervar, drops)), tprec)


def _order(tprec) -> int:
    """tprec as the order of a sum: an int.  INF is refused, as no finite
    vmax reaches it: var_bound would count forever, and a sum cut at any
    vmax is not exact."""
    tprec = _as_prec(tprec)
    if tprec is INF:
        raise ValueError("a sum is taken to an int order, got INF")
    return tprec


@lru_cache(maxsize=1024)
def _bound(pairs, tprec) -> int:
    return var_bound(list(pairs), tprec)


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
    tprec = _order(tprec)       # before the memo: 9.0 would find 9's sum
    if type(vmax) is not int:
        raise ValueError(f"vmax is an int, got {vmax!r}")
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

    # own[i][v]: the pair (o, extra) for t^o times the unshifted extra, the
    # extra None for a bare monomial t^o, or None (an exact zero); variable
    # i is paired with the binomial step inside it
    own = []
    R = 0
    for (quad, lin, extra), b in zip(pervar, steps + [0]):
        if extra is None:
            row = [(quad * v * v + lin * v, None) for v in range(vmax + 1)]
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

    # products: the packed T_v before variable start's own factor, 1 for
    # the innermost variable.  names[i]: the memo key of the product before
    # variable i's own factor, which convolves the suffix of variables
    # i + 1..; the outermost stored one built to this vmax or more is
    # taken, restricted to v <= vmax
    start, products = K - 1, _ones(vmax)
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
                *head, v0, slots = hit[0][1]
                start = i
                products = (*head, v0, slots[:max(vmax - v0 + 1, 0)])
                break
    for i in range(start, 0, -1):
        products = layer_product(_own_pass(products, own[i], wp), vmax,
                                 gaps[i - 1], wp)
        if names[i - 1] is not None:
            _CONVOLUTIONS.store(names[i - 1], (vmax, products), ())

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


# A layer product, packed (module docstring): (buf, nbytes, dmax, lo, g,
# v0, slots), slots[i] = (start, n, prec) for v = v0 + i, so that T_v is
# sum_{j < n} digit(start + j) * t^(lo + g*j), known below prec, with
# every |digit| <= dmax; buf holds the digits as the biased words of
# ``series.kron_digits``.

def _ones(vmax):
    """T_v = 1 for every v <= vmax, exact: one digit that every slot reads."""
    return (_ONE, 1, 1, 0, 1, 0, [(0, 1, INF)] * (vmax + 1))


# the digit 1 as a buffer
_ONE = kron_digits([(1, 1)], 1)


def slot_series(products) -> dict:
    """{v: T_v} of a packed layer product, read in one ``read_digits``."""
    buf, nbytes, dmax, lo, g, v0, slots = products
    reads = read_digits(buf, nbytes, [(start, start + n, lo)
                                      for start, n, _ in slots], g)
    return {v: QSeries._of(coeffs, prec) for v, coeffs, (_, _, prec)
            in zip(range(v0, v0 + len(slots)), reads, slots)}


def layer_product(layer, vmax, gap, wp):
    """The packed T_v for every v from min(layer) to vmax, none for an
    empty layer (module docstring), T_v known below best_v <= wp, each read
    slot its own sum of one-slot products.  Nothing here depends on an own
    factor, and T_v reads L_u for u <= v only; a layer's u above vmax are
    not read."""
    den_step, b = gap
    b = b or 0
    # the packed operands, by their lowest exponents
    lows = {u: min(s.coeffs) for u, s in layer.items() if s.coeffs}
    us = sorted(lows)
    lo = min((lows[u] - b * u for u in us), default=0)

    # best_v: min over u <= v of prec(L_u * ip_{v-u}) - b*u, with
    # prec(L_u * ip) = min(prec(L_u), wp + val(L_u)) since val(ip) = 0, and
    # at most wp.  T_v has no term below best_v when best_v <= lo, or when
    # no nonzero L_u has u <= v; then nothing is read.
    v0 = min(layer, default=vmax + 1)
    slots = []
    best = INF
    for v in range(v0, vmax + 1):
        s = layer.get(v)
        if s is not None:
            best = min(best, wp,
                       min(s.prec, wp + lows.get(v, s.prec)) - b * v)
        slots.append((0, 0, best))
    reads = [(v, p) for v, (_, _, p) in enumerate(slots, v0)
             if us and v >= us[0] and p > lo]
    if not reads:
        return (b"", 1, 0, lo, 1, v0, slots)
    top = reads[-1][0]          # highest slot read
    us = [u for u in us if u <= top]

    # A digit of slot v below best_v sums products of L_u and ip_{v-u} for
    # u <= v, each at most ``series.product_bound`` of the two; twice that
    # with the binomial branch.  The coefficients of ip_m, the partitions
    # into parts of at most m, grow with m, so the bound is largest at the
    # highest slot read, where every u enters.
    dmax = 0
    for u in us:
        size = [abs(c) for c in layer[u].coeffs.values()]
        dmax += product_bound((max(size), sum(size)),
                              _ip(den_step, top - u, wp).norms)
    dmax *= 2 if b else 1
    nbytes = digit_bytes(dmax)
    bits = 8 * nbytes

    # Every exponent lies on lo + g*Z (module docstring); b is in the gcd,
    # so e - lo stands for e - b*u - lo.
    g = gcd(den_step, b, *[e - lo for u in us for e in layer[u].coeffs])
    step = den_step // g        # t^d is X^step

    # [u, P_u, skip]: P_u is A_u, L_u * t^(-b*u) below best_u packed from
    # its lowest exponent, which sits at digit ``skip`` of a slot; slot v
    # takes it on as A_u * B_(v-u) modulo the digits it reads
    ops = []
    for u in us:
        low = lows[u]
        a = kron_pack(layer[u].coeffs, low, slots[u - v0][2] + b * u,
                      nbytes, g)
        if a:
            ops.append([u, a, (low - b * u - lo) // g])
    runs, at = [], 0
    for v, p in reads:          # every v from us[0] to top, in order
        n = digit_count(lo, p, g)
        acc = 0
        for op in ops:
            u, h, skip = op
            if u > v:
                break
            keep = n - skip     # the digits of the product read
            if keep <= 0:
                continue
            if v > u:   # B_m = B_(m-1) / (1 - t^(d*m)), m = v - u
                h = op[1] = _over_one_minus(h, step * (v - u), keep, bits)
            acc += h << bits * skip
            if b:       # the branch t^(b*v): the same product, t^(b*(u+v)) up
                up = skip + b * (u + v) // g
                if up < n:
                    acc += h << bits * up
        runs.append((acc, n))
        slots[v - v0] = (at, n, p)
        at += n
    return (kron_digits(runs, nbytes), nbytes, dmax, lo, g, v0, slots)


def _over_one_minus(h, s, n, bits):
    """A value equal to h / (1 - X^s) modulo X^n, X = 2^bits and s >= 1:
    h times 1 + X^s + X^(2s) + ..., as one shift-add per doubling of the
    stride while it is below n, then one mask; h itself when s >= n."""
    if s >= n:
        return h
    while s < n:
        h += h << bits * s
        s *= 2
    return h & ((1 << bits * n) - 1)


def _own_terms(products, own_row, wp):
    """(v, run, o, x, prec) per slot v of products whose own factor (o, x),
    t^o * x with x None for a bare monomial, is not None: run the digits of
    T_v below its read cut, prec the precision of t^o * x * T_v truncated
    at wp (module docstring).  A bare slot with nothing below wp is left
    out.  The one rule of ``_own_pass`` and ``_own_sum``."""
    buf, nbytes, dmax, lo, g, v0, slots = products
    terms = []
    for v, (start, n, p) in enumerate(slots, v0):
        if own_row[v] is None:
            continue
        o, x = own_row[v]
        vx = 0 if x is None else _val(x)
        cut = min(p, wp - o - vx)
        stop = start + digit_count(lo, cut, g, n)
        prec = cut + o + vx         # at most wp
        if x is None:
            if stop == start and prec == wp:
                continue        # nothing below wp
        elif x.prec is not INF:
            j = lowest_digit(buf, nbytes, start, stop)
            prec = min(prec, x.prec + o + (cut if j is None else lo + g * j))
        terms.append((v, (start, stop), o, x, prec))
    return terms


def _own_pass(products, own_row, wp):
    """own_row[v] * T_v truncated at wp for each packed T_v of products,
    without the entries that are zero at precision wp; own_row as in
    ``multisum``.  Each slot is read below its cut (``_own_terms``), in
    one ``read_digits`` call, shifted by o in the read's base exponent."""
    buf, nbytes, dmax, lo, g, v0, slots = products
    terms = _own_terms(products, own_row, wp)
    reads = read_digits(buf, nbytes, [(*run, lo + o)
                                      for _, run, o, _, _ in terms], g)
    nxt = {}
    for (v, _, _, x, prec), coeffs in zip(terms, reads):
        if x is not None:
            coeffs = _mul_any(x.coeffs, coeffs, prec)
        # a zero series below wp still bounds what is known; keep it
        if coeffs or prec < wp:
            nxt[v] = QSeries._of(coeffs, prec)
    return nxt


def _own_sum(products, own_row, wp):
    """The sum over v of own_row[v] * T_v for the packed T_v of products,
    truncated at wp: the outermost own pass and the final sum in one step
    (module docstring), with the coefficients and precision of the sum of
    ``_own_pass``'s series."""
    buf, nbytes, dmax, lo, g, v0, slots = products
    terms = _own_terms(products, own_row, wp)
    prec = min((p for *_, p in terms), default=wp)

    # What lands below prec: of T_v its k digits below prec - o (- val(x)),
    # of x its terms below prec - o - lo.  T_v has norms at most (dmax,
    # dmax * k), so a digit of the sum is at most the sum over the terms of
    # dmax (bare) or ``series.product_bound`` of T_v and x, and the slots
    # keep their words until that exceeds them; it also holds every term of
    # x packed, as dmax >= 1 when a digit is not 0.  The sum lies on the
    # grid lo + g2*Z, g2 the gcd of g, the offsets of the terms' lowest
    # exponents and the exponents of each x less its valuation.
    picked, bound, g2 = [], 0, g
    for _, (start, end), o, x, _ in terms:
        low = lo + o
        if x is not None:
            if not x.coeffs:
                continue
            vx = min(x.coeffs)
            low += vx
        k = digit_count(low, prec, g, end - start)
        if not k or not dmax:
            continue
        if x is None:
            bound += dmax
        else:
            stop = prec - o - lo
            xs = [(e, abs(c)) for e, c in x.coeffs.items() if e < stop]
            sizes = [c for _, c in xs]
            bound += product_bound((dmax, dmax * k), (max(sizes), sum(sizes)))
            if g2 > 1:
                g2 = gcd(g2, *[e - vx for e, _ in xs])
            x = (x, vx, stop)
        if picked and g2 > 1:
            g2 = gcd(g2, low - picked[0][2])
        picked.append(((start, start + k), x, low))
    if not picked:
        return QSeries._of({}, prec)

    # Each slot as one integer, widened to the sum's digit width and spread
    # g/g2 digits apart when either differs from the slots' words.
    width = digit_bytes(bound, nbytes)
    base = min(low for *_, low in picked)
    h = 0
    runs = read_runs(buf, nbytes, [run for run, _, _ in picked], width,
                     g // g2)
    for (_, x, low), t in zip(picked, runs):
        if x is not None:
            x, vx, stop = x
            t *= kron_pack(x.coeffs, vx, stop, width, g2)
        h += t << 8 * width * ((low - base) // g2)
    return QSeries._of(kron_unpack(h, width, base, prec, g2), prec)


# Each 1/(t^d; t^d)_m is an operand once, for the norms that set a layer
# product's digit width, bounded like the Pochhammer cache it reads: its
# key includes wp.
@lru_cache(maxsize=1024)
def _ip(den_step, m, wp) -> Operand:
    """1/(t^d; t^d)_m at wp, d = den_step."""
    return Operand(inv_poch_finite(SM(1, den_step), den_step, m, wp))
