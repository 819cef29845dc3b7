"""Particle motion, reverse motion, and the insertion bijection."""

import ast
import random
from enum import IntEnum
from itertools import repeat
from operator import add, lt
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qident import motion as M
from qident import sets as S
from qident.errors import ParameterOutOfRange, PreconditionViolated

from motion_maps import EXAMPLE_MP, digest
from motion_replay import (frame_weight, pm_stepwise, replays, rpm_stepwise,
                           states)

EXAMPLE_OUT = (4, 0, 0, 3, 0, 1, 2, 1, 1, 2, 1, 2, 0, 3, 1, 0, 0, 1)


def test_frame_of_worked_example():
    fs = M.frame_of(EXAMPLE_MP)
    assert fs == M.canonical((4, 0, 4, 0, 3, 0, 3, 0, 3, 0, 3, 0, 1, 0, 1, 0))
    assert M.weight(fs) == 118
    assert M.frame_of(((), (), ())) == ()
    assert M.frame_of(()) == ()


def test_frame_weight_formula():
    # weight of the frame with column sums s_1 >= ... >= s_k equals
    # sum s_i^2 - sum s_i, for every shape with s_1 <= 6
    def shapes(k, hi):
        if k == 0:
            yield ()
            return
        for v in range(hi + 1):
            for rest in shapes(k - 1, v):
                yield (v,) + rest
    for k in (1, 2, 3):
        for s in shapes(k, 6):
            parts = []
            ss = list(s) + [0]
            for i in range(k):
                parts.append((0,) * (ss[i] - ss[i + 1]))
            fs = M.frame_of(tuple(parts))
            assert M.weight(fs) == frame_weight(s), s


def test_oracles_live_with_the_tests():
    # the stepwise simulations, the frame-weight formula and the
    # generating-function oracles check the package, so the package neither
    # defines them nor imports the tests
    src = Path(M.__file__).parent
    test_modules = {p.stem for p in Path(__file__).parent.glob("*.py")}
    oracles = {"pm_stepwise", "rpm_stepwise", "frame_weight", "theta_sum",
               "qbinom", "euler_inverse", "count_partitions",
               "oracle_mod_partitions"}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            for name in names:
                top = name.split(".")[0]
                assert top != "tests" and top not in test_modules, \
                    (path.name, name)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in oracles, (path.name, node.name)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id not in oracles, (path.name, node.id)


def test_pm_examples():
    f = (4, 0, 2, 0, 3, 1)
    g, v = pm_stepwise(f, 0, 9)
    assert g == (2, 0, 3, 1, 0, 3, 1) and v == 5
    g2, v2 = M.pm_explicit(f, 0, 9)
    assert (g2, v2) == (g, v)
    # zero motions change nothing
    assert pm_stepwise(f, 0, 0) == (M.canonical(f), 0)
    assert M.pm_explicit(f, 0, 0)[0] == M.canonical(f)
    # dominance violation: (1,0,2) has f_1 + f_2 = 2 > h = 1
    with pytest.raises(PreconditionViolated):
        pm_stepwise((1, 0, 2), 0, 1)
    with pytest.raises(PreconditionViolated):
        M.pm_explicit((1, 0, 2), 0, 1)


def test_pm_weight_bookkeeping():
    # every single motion raises the weight by exactly one
    trace = []
    f = (4, 0, 2, 0, 3, 1)
    pm_stepwise(f, 0, 9, trace=trace)
    w = M.weight(f)
    for state, op, _pos in trace:
        if op == "pm":
            w += 1
            assert M.weight(state) == w
        else:
            assert M.weight(state) == w


def test_pm_engines_agree_randomized():
    rng = random.Random(11)
    for _ in range(300):
        h = rng.randint(1, 4)
        tail_len = rng.randint(0, 6)
        tail = []
        prev = 0
        for _ in range(tail_len):
            v = rng.randint(0, h - prev)
            tail.append(v)
            prev = v
        u = 2 * rng.randint(0, 2)
        f = [0] * u + [h, 0] + tail
        if u > 0:
            f[u - 1] = 0
        m = rng.randint(0, 12)
        a = pm_stepwise(f, u, m)
        b = M.pm_explicit(f, u, m)
        assert a == b, (f, u, m)


def test_rpm_examples():
    g, steps = M.rpm_explicit((2, 0, 3, 1, 0, 3, 1), 0)
    assert g == (4, 0, 2, 0, 0, 3, 1) and steps == 5
    assert rpm_stepwise((2, 0, 3, 1, 0, 3, 1), 0) == (g, 5)
    # a frame pair at its own position is a fixed point with zero steps
    frame = (3, 0, 2, 0, 1)
    g2, steps2 = M.rpm_explicit(frame, 0)
    assert g2 == M.canonical(frame) and steps2 == 0
    with pytest.raises(PreconditionViolated):
        M.rpm_explicit((1, 1, 1), 1)  # entry before u is nonzero


def test_rpm_engines_agree_randomized():
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(1, 4)
        f = []
        prev = 0
        for _ in range(rng.randint(0, 8)):
            v = rng.randint(0, k - prev)
            f.append(v)
            prev = v
        u = 0
        a = M.rpm_explicit(f, u)
        b = rpm_stepwise(f, u)
        assert a == b, (f, a, b)
        # reverse motion lowers the weight by exactly the step count
        assert M.weight(a[0]) == M.weight(M.canonical(f)) - a[1]


def test_lambda_worked_example():
    out, tr = M.lambda_map(EXAMPLE_MP, trace=True)
    assert out == EXAMPLE_OUT
    assert M.weight(out) == 118 + 43 == 161
    mp, tr2 = M.gamma_map(out, 4, trace=True)
    assert mp == EXAMPLE_MP
    # every traced motion agrees with the stepwise simulation, and the
    # reverse pass visits the insertion's states backwards
    assert replays(tr) and replays(tr2)
    assert states(tr)[::-1] == states(tr2)


def test_lambda_empty_and_zero_parts():
    assert M.lambda_map(()) == ()
    assert M.gamma_map(()) == ()
    # size-zero multipartitions map to their frame and back
    mp = ((0,), (0, 0))
    f = M.lambda_map(mp)
    assert f == M.frame_of(mp)
    assert M.gamma_map(f, 2) == mp


def test_gamma_of_frame_fixed_point():
    mp = M.gamma_map((2, 0, 1, 0))
    assert mp == ((0,), (0,))
    assert M.lambda_map(mp) == (2, 0, 1)


def test_landing_pair_is_leftmost_maximum():
    # along the insertion, each step lands on the smallest index attaining
    # the maximal adjacent sum of the suffix
    mps = [EXAMPLE_MP, ((2, 1), (3, 0)), ((5,), (4, 1), (2, 2))]
    for mp in mps:
        thetas = states(M.lambda_map(mp, trace=True)[1])
        seq = M.flatten_parts(mp)
        s1 = len(seq)
        for idx in range(s1):
            i = s1 - 1 - idx           # motion index for this step
            before = thetas[idx]
            after = thetas[idx + 1]
            g = list(before) + [0, 0]
            h = g[2 * i]
            assert g[2 * i + 1] == 0 and h >= 1
            _, v = M.pm_explicit(before, 2 * i, seq[i])
            gg = list(after) + [0, 0, 0]
            sums = [gg[t] + gg[t + 1] for t in range(2 * i, len(gg) - 1)]
            assert max(sums) == h
            assert 2 * i + sums.index(max(sums)) == v


def test_gamma_k_validation():
    with pytest.raises(PreconditionViolated):
        M.gamma_map((3, 0, 1), k=2)
    # an explicit k below 1 is out of range before any membership check,
    # the empty sequence included
    for f, k in (((), 0), ((0,), -2), ((1, 0, 1), 0)):
        with pytest.raises(ParameterOutOfRange, match="k must be at least 1"):
            M.gamma_map(f, k)


def test_multipartition_validation():
    with pytest.raises(PreconditionViolated):
        M.check_multipartition(((1, 2),))
    with pytest.raises(PreconditionViolated):
        M.check_multipartition(((-1,),))
    for parts in (5, "12", None):
        with pytest.raises(PreconditionViolated):
            M.check_multipartition(parts)




def _gamma_refusal(f, k):
    """(type, message) that gamma_map refuses f with at the given k, or None:
    negative entries, then an explicit k below 1, then an adjacent sum
    above an explicit k."""
    if any(x < 0 for x in f):
        return PreconditionViolated, "frequency entries must be non-negative"
    if k is None:
        return None
    if k < 1:
        return ParameterOutOfRange, "k must be at least 1"
    top = max(map(add, f, f[1:] + [0]), default=0)
    if top > k:
        return PreconditionViolated, f"sequence has adjacent sum {top} > k = {k}"
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-1, 4), max_size=8),
       st.sampled_from((None, -1, 0, 1, 2, 3, 4)))
def test_gamma_k_validation_order(f, k):
    why = _gamma_refusal(f, k)
    if why is None:
        assert M.lambda_map(M.gamma_map(f, k)) == M.canonical(f)
        return
    with pytest.raises((PreconditionViolated, ParameterOutOfRange)) as exc:
        M.gamma_map(f, k)
    assert (type(exc.value), str(exc.value)) == why


def _gamma_type_refusal(f, k):
    """(type, message) that gamma_map refuses f with at the given k, or None,
    for entries and k of any type: entries that are not ints (bools
    included), negative entries, a k that is not an int, then as
    _gamma_refusal."""
    if not all(type(x) is int for x in f):
        return PreconditionViolated, "frequency entries must be integers"
    if any(x < 0 for x in f):
        return PreconditionViolated, "frequency entries must be non-negative"
    if k is not None and type(k) is not int:
        return ParameterOutOfRange, "k must be an integer"
    return _gamma_refusal(f, k)


frequency_entries = st.one_of(st.integers(-1, 4), st.booleans(),
                              st.floats(-1, 4, allow_nan=False), st.just("1"))


@settings(max_examples=300, deadline=None)
@given(st.lists(frequency_entries, max_size=6),
       st.one_of(st.none(), st.integers(-1, 4), st.booleans(),
                 st.floats(-1, 4, allow_nan=False)))
# floats raised a bare TypeError, and bools were taken as 1
@example((1, 0, 1), 2.5)
@example((1, 0, 1), True)
@example((1.5, 0), None)
@example((True, 1), None)
def test_gamma_refuses_non_integer_entries_and_k(f, k):
    why = _gamma_type_refusal(f, k)
    if why is None:
        assert M.lambda_map(M.gamma_map(f, k)) == M.canonical(f)
        return
    with pytest.raises((PreconditionViolated, ParameterOutOfRange)) as exc:
        M.gamma_map(f, k)
    assert (type(exc.value), str(exc.value)) == why


def _reference_check_multipartition(parts):
    """The partition check as it stood before it tested element types in
    one pass: isinstance, so int subclasses other than bool passed."""
    if not isinstance(parts, (list, tuple)):
        raise PreconditionViolated("a multipartition is a list of partitions")
    out = []
    for lam in parts:
        if (not isinstance(lam, (list, tuple))
                or not all(map(isinstance, lam, repeat(int)))
                or any(map(isinstance, lam, repeat(bool)))):
            raise PreconditionViolated("each partition must be a list of "
                                       "integers")
        lam = tuple(lam)
        if min(lam, default=0) < 0:
            raise PreconditionViolated("parts must be non-negative")
        if any(map(lt, lam, lam[1:])):
            raise PreconditionViolated("each partition must be weakly decreasing")
        out.append(lam)
    return tuple(out)


def _verdict(check, parts):
    try:
        return "accepted", check(parts)
    except PreconditionViolated as exc:
        return "refused", str(exc)


def _list_or_tuple(elements, **sizes):
    return st.tuples(st.sampled_from((list, tuple)),
                     st.lists(elements, **sizes)).map(lambda c: c[0](c[1]))


non_sequences = st.one_of(st.integers(-1, 3), st.text(max_size=2), st.none(),
                          st.frozensets(st.integers(0, 3), max_size=2))
part_entries = st.one_of(st.integers(-2, 6), st.booleans(),
                         st.floats(-2, 6, allow_nan=False), st.just("1"))
partitions = st.one_of(
    _list_or_tuple(st.integers(0, 6), max_size=4).map(
        lambda lam: type(lam)(sorted(lam, reverse=True))),
    _list_or_tuple(st.integers(-2, 6), max_size=4),
    _list_or_tuple(part_entries, max_size=4),
    non_sequences)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_list_or_tuple(partitions, max_size=4), non_sequences))
def test_partition_check_matches_the_reference(parts):
    assert (_verdict(M.check_multipartition, parts)
            == _verdict(_reference_check_multipartition, parts))


def test_partition_check_refuses_int_subclasses():
    # the one verdict that differs from the reference: an int subclass
    # other than bool is refused with the message for non-integers
    class Size(IntEnum):
        TWO = 2
    parts = ((Size.TWO, 1), ())
    assert _reference_check_multipartition(parts) == parts
    assert _verdict(M.check_multipartition, parts) == (
        "refused", "each partition must be a list of integers")


def test_trace_rendering():
    out, tr = M.lambda_map(EXAMPLE_MP, trace=True)
    txt = tr.text()
    assert "m=19" in txt and "=>" in txt
    blob = tr.to_json()
    assert blob["ops"][-1]["state"] == list(out)
    mp, tr2 = M.gamma_map(out, 4, trace=True)
    assert mp == EXAMPLE_MP
    assert tr2.to_json()["ops"][0]["op"] == "rpm"


def test_json_round_trip():
    blob = M.mp_to_json(EXAMPLE_MP)
    assert blob == {"parts": [[3, 1], [], [6, 6, 5, 3], [19, 0]]}
    assert M.mp_from_json(blob) == EXAMPLE_MP


multipartitions = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 20), max_size=2).map(
        lambda lam: tuple(sorted(lam, reverse=True))),
    min_size=k, max_size=k).map(tuple))


@settings(max_examples=80, deadline=None)
@given(multipartitions)
def test_insertion_round_trip_beyond_the_exhaustive_bound(mp):
    # the acceptance test covers every multipartition up to size 18
    assume(S.mp_total_size(mp) <= 60)
    k = len(mp)
    f, tr = M.lambda_map(mp, trace=True)
    assert M.in_A(f, k) and M.weight(f) == S.mp_total_size(mp)
    back, tr2 = M.gamma_map(f, k, trace=True)
    assert back == mp
    assert replays(tr) and replays(tr2)


def _bounded(k, xs):
    """The entries xs clipped so that every adjacent sum is at most k."""
    f, prev = [], 0
    for x in xs:
        prev = min(x, k - prev)
        f.append(prev)
    return M.canonical(f)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 4), min_size=6,
                                  max_size=16))
def test_inverse_round_trip_on_random_bounded_sequences(k, xs):
    f = _bounded(k, xs)
    mp, tr = M.gamma_map(f, k, trace=True)
    out, tr2 = M.lambda_map(mp, trace=True)
    assert out == f
    assert replays(tr) and replays(tr2)


@st.composite
def frame_form_motions(draw):
    """(f, u, m) in the form lambda_map hands pm_explicit: frame pairs (g, 0)
    with g >= h left of u, the pair (h, 0) at u, and right of it an inner
    frame pair (h2, 0), h2 <= h, over a tail of adjacent sums below h2,
    already moved m2 steps; m2 >= m when h2 = h, as the parts of one
    partition grow inwards."""
    h = draw(st.integers(1, 4))
    prefix = draw(st.lists(st.integers(h, 5), max_size=3))
    h2 = draw(st.integers(1, h))
    inner = _bounded(h2 - 1, draw(st.lists(st.integers(0, 3), max_size=6)))
    m = draw(st.integers(0, 25))
    m2 = draw(st.integers(m, 30) if h2 == h else st.integers(0, 30))
    tail = M.pm_explicit((h2, 0) + inner, 0, m2)[0]
    f = M.canonical([x for g in prefix for x in (g, 0)] + [h, 0] + list(tail))
    return f, 2 * len(prefix), m


@settings(max_examples=200, deadline=None)
@given(frame_form_motions())
def test_single_motion_and_reverse_motion_are_inverse(case):
    f, u, m = case
    g, v = M.pm_explicit(f, u, m)
    assert (g, v) == pm_stepwise(f, u, m)
    assert M.weight(g) == M.weight(f) + m
    back = M.rpm_explicit(g, u)
    assert back == rpm_stepwise(g, u)
    assert back == (f, m)


def _pm_refusal(f, u):
    """The message pm_explicit refuses a start at u in f with, or None:
    negative entries, then a pair other than (h, 0) with h >= 1 at u, then
    the first adjacent sum above h at or right of u."""
    if any(x < 0 for x in f):
        return "frequency entries must be non-negative"
    g = list(f) + [0] * (u + 2)
    h = g[u]
    if g[u + 1] != 0 or h < 1:
        return "starting pair must be (h, 0) with h >= 1"
    for i in range(u, len(g) - 1):
        if g[i] + g[i + 1] > h:
            return f"adjacent sum above {h} at position {i}"
    return None


def _rpm_refusal(f, u):
    """The message rpm_explicit refuses an end at u in f with, or None."""
    if any(x < 0 for x in f):
        return "frequency entries must be non-negative"
    if 0 < u <= len(f) and f[u - 1] != 0:
        return f"entry before position {u} must be zero"
    return None


entries = st.lists(st.integers(-1, 4), max_size=8)


@st.composite
def motion_inputs(draw):
    """(f, u, m) with f arbitrary, or with a pair (h, 0) at u between an
    arbitrary prefix and an arbitrary tail."""
    m = draw(st.integers(0, 14))
    if draw(st.booleans()):
        f = draw(entries)
        return f, draw(st.integers(0, len(f) + 2)), m
    prefix = draw(entries)
    h = draw(st.integers(1, 4))
    tail = draw(st.lists(st.integers(0, h), max_size=6))
    return prefix + [h, 0] + tail, len(prefix), m


@settings(max_examples=400, deadline=None)
@given(motion_inputs())
def test_closed_forms_refuse_or_match_the_simulations(case):
    f, u, m = case
    why = _pm_refusal(f, u)
    if why is None:
        assert M.pm_explicit(f, u, m) == pm_stepwise(f, u, m)
    else:
        with pytest.raises(PreconditionViolated) as exc:
            M.pm_explicit(f, u, m)
        assert str(exc.value) == why
    why = _rpm_refusal(f, u)
    if why is None:
        assert M.rpm_explicit(f, u) == rpm_stepwise(f, u)
    else:
        with pytest.raises(PreconditionViolated) as exc:
            M.rpm_explicit(f, u)
        assert str(exc.value) == why


@settings(max_examples=200, deadline=None)
@given(motion_inputs(), multipartitions)
def test_inputs_are_not_mutated(case, mp):
    f, u, m = case
    before = list(f)
    for call in (lambda: M.pm_explicit(f, u, m), lambda: M.rpm_explicit(f, u),
                 lambda: M.gamma_map(f)):
        try:
            call()
        except PreconditionViolated:
            pass
        assert f == before
    parts = [list(lam) for lam in mp]
    M.lambda_map(parts)
    assert parts == [list(lam) for lam in mp]


@settings(max_examples=200, deadline=None)
@given(entries)
def test_canonical_reads_any_iterable(xs):
    if any(x < 0 for x in xs):
        for form in (xs, tuple(xs), (x for x in xs)):
            with pytest.raises(PreconditionViolated):
                M.canonical(form)
        return
    got = M.canonical(xs)
    assert type(got) is tuple and (not got or got[-1] != 0)
    assert M.canonical(tuple(xs)) == got == M.canonical(x for x in xs)
    assert list(got) + [0] * (len(xs) - len(got)) == xs


def test_maps_match_the_committed_digest():
    # every map result and traced state up to the sizes of motion_maps.py
    path = Path(__file__).parent / "motion-maps.sha256"
    assert digest() == path.read_text().strip()


def _tail_sums(T):
    """P_i = T_(i-1) + T_i for every i < len(T), with T_(-1) = 0."""
    return [a + b for a, b in zip([0] + T, T)]


def _pair_sums(R):
    """S_i = R_i + R_(i+1) for every i < len(R), with R_len = 0."""
    return [a + b for a, b in zip(R, R[1:] + [0])]


wide_multipartitions = st.integers(1, 7).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 40), max_size=3).map(
        lambda lam: tuple(sorted(lam, reverse=True))),
    min_size=k, max_size=k).map(tuple))


@settings(max_examples=60, deadline=None)
@given(wide_multipartitions)
def test_each_insertion_keeps_the_tail_sums(mp):
    # beyond the exhaustive bound: k <= 7 and parts up to 40
    hs, seq = M._frame(mp)
    T, P = [0], [0]
    for i in reversed(range(len(seq))):
        before = list(T)
        p = M._pm(T, P, hs[i], seq[i])
        assert P == _tail_sums(T) and T[-1] == 0
        assert T[p] + T[p + 1] == hs[i]
        assert T[:p] + T[p + 2:] == before + [0] * (len(T) - 2 - len(before))
    f, tr = M.lambda_map(mp, trace=True)
    assert f == M.lambda_map(mp) == M.canonical(T)
    assert replays(tr)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.lists(st.integers(0, 7), max_size=40))
def test_each_removal_keeps_the_remainder_sums(k, xs):
    f = _bounded(k, xs)
    R = list(f)
    sums = _pair_sums(R)
    top = k
    while True:
        before = list(R)
        h, _ = M._rpm(R, sums)
        assert sums == _pair_sums(R)
        if not h:
            break
        # the leftmost maximal pair is removed, and h never rises
        p = _pair_sums(before).index(h)
        assert h == max(_pair_sums(before)) <= top
        assert R == before[:p] + before[p + 2:]
        top = h
    assert not any(R)
    for given_k in (k, None):
        mp, tr = M.gamma_map(f, given_k, trace=True)
        assert M.gamma_map(f, given_k) == mp
        assert replays(tr)
