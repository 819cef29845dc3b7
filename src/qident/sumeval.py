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

One layer of that pass maps the inner layer's series L_u (u = 0..vmax) to

    T_v = sum_{u <= v} L_u * 1/(t^d; t^d)_{v-u}   [* (t^(b*v) + t^(-b*u))],

a convolution in u of series-valued sequences.  It is done as one big-int
product per branch (bivariate Kronecker substitution, see
``series.kron_pack``): L_u goes into slot u and 1/(t^d; t^d)_m into slot m
of two packed integers, with slots wide enough that no product of two slots
reaches the next one.  The binomial factor gives two branches:
L_u * t^(-b*u) against the plain Pochhammers, and L_u * t^(b*u) against
1/(t^d; t^d)_m * t^(b*m), which puts t^(b*v) on slot v.  Slot v of the sum
is T_v, with the precision that the per-pair series products and sums would
have given it.  The outer variable's own factor is then applied to T_v: as
an exact shift when it is a bare monomial, as a series product otherwise.

Working precision.  Every layer is truncated at the working order wp, and
so are the Pochhammer factors.  What is lost there is regained only if the
factors multiplied in afterwards cannot lower the exponent by more than
wp - tprec.  Pairing each variable with the binomial factor of the gap
inside it, variable i lowers it by at most
r_i = -min(0, min_v(val(own_i(v)) - b_i*v)), where own_i(v) is its own
factor t^(quad*v^2 + lin*v) * extra(v) and b_i the binomial step of the gap
between it and the next variable inwards (0 if none).  So wp = tprec + R
with R = sum_i r_i; R is 0 for most catalog rows and 2 or 4 for the rest.
The valuations are read from the own series, so extras of negative
valuation (the Bailey beta values) are covered.  The own factors are never
truncated, and a series that is zero below a precision short of wp is kept,
so every precision loss reaches the result.  A result known below tprec only
means an extra series was not known far enough; that raises
PrecisionExceeded.
"""

from __future__ import annotations

from .errors import InsufficientDepth, PrecisionExceeded
from .series import INF, QSeries, kron_pack, kron_unpack, monomial, zero
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


def var_bound(pervar, tprec, hard_cap=None) -> int:
    """Smallest V so that any tuple containing a value >= V only contributes
    at or above tprec.  pervar entries are (quad, lin_min) with lin_min the
    most negative linear coefficient the variable can see (binomial branches
    included)."""
    minima = [quad_min(quad, lin) for quad, lin in pervar]
    relief = sum(minima)
    v = 0
    while True:
        ok = all(quad * v * v + lin * v + (relief - minima[i]) >= tprec
                 for i, (quad, lin) in enumerate(pervar))
        if ok:
            break
        v += 1
        if hard_cap is not None and v > hard_cap:
            raise InsufficientDepth(
                f"need summation values up to {v} but only {hard_cap} available")
    return v


def multisum(pervar, gaps, tprec, vmax=None) -> QSeries:
    """Evaluate the nested sum described in the module docstring.

    pervar: per variable (outermost first) a tuple (quad, lin, extra) with
        exponents in t-units and ``extra`` either None or a callable
        v -> QSeries (returning None to drop that value entirely).
    gaps: per adjacent pair a tuple (den_step, binom_step) where den_step is
        the t-step of the difference Pochhammer 1/(.)_{s_i - s_{i+1}}, and
        binom_step is None or the b of a factor (t^(b*s_i) + t^(-b*s_{i+1})).
    vmax: the largest value summed; by default var_bound of the (quad, lin)
        pairs, which does not see the valuations of the extras.
    Raises PrecisionExceeded when an extra is not known far enough for the
    result to reach tprec.
    """
    K = len(pervar)
    assert len(gaps) == K - 1
    steps = [b or 0 for _, b in gaps]
    if vmax is None:
        # the binomial factor lowers the inner variable's linear exponent
        vmax = var_bound([(quad, lin - drop) for (quad, lin, _), drop
                          in zip(pervar, [0] + steps)], tprec)

    # own[i][v]: the exponent of a bare monomial, a series, or None (an
    # exact zero); variable i is paired with the binomial step inside it
    own = []
    R = 0
    for (quad, lin, extra), b in zip(pervar, steps + [0]):
        if extra is None:
            row = [quad * v * v + lin * v for v in range(vmax + 1)]
            low = quad_min(quad, lin - b)
        else:
            row, low = [], 0
            for v in range(vmax + 1):
                f = extra(v)
                s = None if f is None else f.shift(quad * v * v + lin * v)
                if s is not None and (s.coeffs or s.prec is not INF):
                    low = min(low, _val(s) - b * v)
                    row.append(s)
                else:
                    row.append(None)
        R -= min(0, low)
        own.append(row)
    wp = tprec + R

    layer = {}
    for v, o in enumerate(own[K - 1]):
        if o is not None:
            _keep(layer, v, monomial(1, o, wp) if isinstance(o, int)
                  else o.truncate(wp), wp)
    for i in range(K - 2, -1, -1):
        layer = _layer(layer, own[i], gaps[i], wp) if layer else {}

    out = zero(wp)
    for s in layer.values():
        out = out + s
    if out.prec < tprec:
        raise PrecisionExceeded(
            f"multisum precision {out.prec} fell below {tprec}: an extra "
            f"series is not known far enough")
    return out.truncate(tprec)


def _val(s: QSeries):
    """Valuation as QSeries.__mul__ counts it: the precision when empty."""
    return min(s.coeffs) if s.coeffs else s.prec


def _keep(layer, v, s, wp):
    # A zero series below wp still bounds what is known; keep it.
    if s.coeffs or s.prec < wp:
        layer[v] = s


def _layer(layer, own_row, gap, wp):
    """The next layer outwards: own_row[v] * T_v for every v (module
    docstring), each truncated at wp."""
    den_step, b = gap
    b = b or 0
    us = [u for u in sorted(layer) if layer[u].coeffs]   # packed slots
    lo = min((min(layer[u].coeffs) - b * u for u in us), default=0)

    # Precision of T_v: min over u <= v of prec(L_u * ip_{v-u}) - b*u, with
    # prec(L_u * ip) = min(prec(L_u), wp + val(L_u)) since val(ip) = 0.
    # T_v is read below stop = wp - val(own_v) only: no more can reach the
    # result.  It has no term below stop when stop <= lo, or when no
    # nonzero L_u has u <= v; then nothing is read.
    targets = []                # (v, precision of T_v, stop, read?)
    best = INF
    for v in range(min(layer), len(own_row)):
        s = layer.get(v)
        if s is not None:
            best = min(best, min(s.prec, wp + _val(s)) - b * v)
        o = own_row[v]
        if o is not None:
            stop = min(best, wp - (o if isinstance(o, int) else _val(o)))
            targets.append((v, best, stop,
                            bool(us) and v >= us[0] and stop > lo))

    reads = [(v, stop) for v, _, stop, read in targets if read]
    slots = {}
    if reads:
        slots = dict(zip((v for v, _ in reads),
                         _convolve(layer, us, lo, reads, den_step, b, wp)))
    nxt = {}
    for v, t_prec, stop, _ in targets:
        t = slots.get(v, {})
        o = own_row[v]
        if isinstance(o, int):
            # an exact shift; the terms of T_v at or above stop shift to wp
            # or beyond
            s = QSeries({e + o: c for e, c in t.items()}, min(t_prec + o, wp))
        else:
            s = (o * QSeries(t, stop)).truncate(wp)
        _keep(nxt, v, s, wp)
    return nxt


def _convolve(layer, us, lo, reads, den_step, b, wp):
    """The coefficient dicts of T_v below each (v, stop) in reads, from one
    packed product per branch."""
    u0 = us[0]
    top = reads[-1][0] - u0     # highest slot read, relative to u0
    us = [u for u in us if u - u0 <= top]
    ips = [inv_poch_finite(SM(1, den_step), den_step, m, wp)
           for m in range(top + 1)]

    # A digit of slot v sums products of slot u and slot v - u for u <= v:
    # |digit| <= sum_u min(max|L_u| * sum|ip_{v-u}|, sum|L_u| * max|ip_{v-u}|),
    # twice that with the binomial branch.
    a_norms = [(u, max(map(abs, layer[u].coeffs.values())),
                sum(map(abs, layer[u].coeffs.values()))) for u in us]
    b_norms = [(max(map(abs, ip.coeffs.values())),
                sum(map(abs, ip.coeffs.values()))) for ip in ips]
    bound = max(sum(min(amax * b_norms[v - u][1], asum * b_norms[v - u][0])
                    for u, amax, asum in a_norms if u <= v)
                for v, _ in reads)
    nbytes = (bound * (2 if b else 1)).bit_length() // 8 + 1
    W = 2 * wp - 1 - lo         # a slot product spans at most W - 1 digits

    def pack_layer(shift):
        return kron_pack([((u - u0) * W + shift * u - lo, layer[u].coeffs,
                           wp - shift * u) for u in us],
                         (us[-1] - u0 + 1) * W, nbytes)

    def pack_ips(shift):
        return kron_pack([(m * W + shift * m, ip.coeffs, wp - shift * m)
                          for m, ip in enumerate(ips)],
                         (top + 1) * W, nbytes)

    prod = pack_layer(-b) * pack_ips(0)
    if b:
        prod += pack_layer(b) * pack_ips(b)
    return kron_unpack(prod, nbytes, [((v - u0) * W, (v - u0) * W + stop - lo,
                                       lo) for v, stop in reads])
