"""Particle motion on frequency sequences and the insertion bijection.

A frequency sequence is a finite tuple of non-negative integers (f_0, f_1,
...); entry f_i counts the parts of size i, so size-0 parts are first-class.
A multipartition is a tuple of weakly decreasing lists of non-negative
integers.  The insertion map ``lambda_map`` turns a k-multipartition (with
its frame sequence) into a frequency sequence whose adjacent sums are at
most k, by running particle motions; ``gamma_map`` inverts it with reverse
motions.  Each map keeps only the part that still moves, with its pair sums.
m motions of the frame pair (h, 0) insert a pair [a, b], a + b = h, into
the tail T right of it: ``_pm`` scans T's running slacks for the place and
splices three entries into T's sums.  A reverse motion removes the leftmost
maximal pair from the remainder R right of the frame rebuilt so far:
``_rpm`` returns (h, steps) and splices one junction sum, below h, into R's
sums, so h never rises and ``gamma_map`` takes k from the first h and stops
on h = 0.  ``pm_explicit`` and ``rpm_explicit`` run the same kernels on
tuples.  The step-by-step simulations that the tests replay every traced
motion against live with the tests, in ``tests/motion_replay.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from operator import add, lt, mul
from typing import Optional

from .errors import ParameterOutOfRange, PreconditionViolated


def canonical(f) -> tuple:
    """Trim trailing zeros; entries must be non-negative integers."""
    f = list(f)
    if f and min(f) < 0:
        raise PreconditionViolated("frequency entries must be non-negative")
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def weight(f) -> int:
    return sum(map(mul, count(), f))


def _sums(f: list) -> list:
    """The adjacent sums f_i + f_(i+1) for i < len(f), with f_len = 0."""
    return list(map(add, f, f[1:] + [0]))


def max_adjacent_sum(f) -> int:
    return max(_sums(list(f)), default=0)


def in_A(f, k: int) -> bool:
    """Membership in the family with all adjacent sums at most k."""
    return max_adjacent_sum(f) <= k


# -- multipartitions and frames -------------------------------------------------


def check_multipartition(parts) -> tuple:
    if not isinstance(parts, (list, tuple)):
        raise PreconditionViolated("a multipartition is a list of partitions")
    out = []
    for lam in parts:
        # type(x) is int, which refuses bools with the other non-integers
        if not isinstance(lam, (list, tuple)) or not {int}.issuperset(
                map(type, lam)):
            raise PreconditionViolated("each partition must be a list of "
                                       "integers")
        lam = tuple(lam)
        if lam and (lam[-1] < 0 or any(map(lt, lam, lam[1:]))):
            raise PreconditionViolated(
                "parts must be non-negative" if min(lam) < 0
                else "each partition must be weakly decreasing")
        out.append(lam)
    return tuple(out)


def mp_size(parts) -> int:
    return sum(sum(lam) for lam in parts)


def frame_of(parts) -> tuple:
    """Frame sequence: s_k pairs (k,0), then s_{k-1}-s_k pairs (k-1,0), ...
    down to s_1-s_2 pairs (1,0), where s_i - s_{i+1} = len(lambda^(i))."""
    hs = _frame(check_multipartition(parts))[0]
    return canonical(x for h in hs for x in (h, 0))


def flatten_parts(parts):
    """The sequence (lambda_0, ..., lambda_{s_1 - 1}) read from the largest
    partition index inwards: lambda^(k) supplies the lowest indices."""
    return _frame(parts)[1]  # seq[i] = lambda_i


def _frame(parts):
    """The frame heights, hs[i] = h for the pair (h, 0) at 2i, and the motion
    sequence, seq[i] = lambda_i, that moves that pair; one loop from the
    largest partition index inwards builds both."""
    hs, seq = [], []
    for h, lam in zip(range(len(parts), 0, -1), reversed(parts)):
        hs += [h] * len(lam)
        seq += lam[::-1]
    return hs, seq


# -- particle motion -------------------------------------------------------------
#
# The kernels work in place: _pm on a tail T that ends in a zero and its sums
# P_i = T_(i-1) + T_i (T_(-1) = 0), _rpm on a remainder R and S = _sums(R).


def _pm(T: list, P: list, h: int, m: int) -> int:
    """m particle motions of the pair (h, 0) into the tail T right of it:
    the insertion of a pair [a, b], a + b = h, into T at the position p
    that it returns.  P's entries must be at most h, and m non-negative."""
    # p is the first index where the running sum of the slacks h - P_i
    # reaches m; past the end of T each zero adds h
    acc = 0
    for p, s in enumerate(P):
        acc += h - s
        if acc >= m:
            break
    else:
        n = -((acc - m) // h)
        acc += n * h
        p += n
        T += [0] * (p + 1 - len(T))
        P += [0] * (p + 1 - len(P))
    d = acc - m
    a = d + T[p]
    T[p:p] = a, h - a
    P[p:p + 1] = P[p] + d, h, h - d
    return p


def _rpm(R: list, S: list) -> tuple:
    """Reverse particle motions of the leftmost maximal adjacent pair of the
    remainder R back to the frame form (h, 0) left of R: the removal of that
    pair from R.  Returns (h, steps), h the largest adjacent sum of R; (0, 0)
    when nothing is left."""
    h = max(S) if S else 0
    if h == 0:
        return 0, 0
    p = S.index(h)
    steps = h - R[0] + h * p - sum(S[:p])
    if p:   # the junction R_(p-1) + R_(p+2)
        S[p - 1:p + 2] = [R[p - 1] + sum(R[p + 2:p + 3])]
    else:
        del S[:2]
    del R[p:p + 2]
    return h, steps


def pm_explicit(f, u: int, m: int):
    """Apply m particle motions starting from the pair (f_u, f_{u+1}) = (h, 0).

    Returns (new_sequence, v) where the moved pair sits at (v, v+1).
    Requires h >= 1 and all adjacent sums from u on at most h; closed form
    of the step-by-step simulation.
    """
    f = list(canonical(f))
    f += [0] * (u + 2 - len(f))
    h = f[u]
    if f[u + 1] != 0 or h < 1:
        raise PreconditionViolated("starting pair must be (h, 0) with h >= 1")
    T = f[u + 2:] + [0]
    P = list(map(add, [0] + T, T))
    if max(P) > h:
        i = next(i for i, s in enumerate(P) if s > h)
        raise PreconditionViolated(
            f"adjacent sum above {h} at position {u + 1 + i}")
    if m < 0:   # the closed form would set f_(u+1) = m
        raise PreconditionViolated("frequency entries must be non-negative")
    v = u + _pm(T, P, h, m)
    return canonical(f[:u] + T), v


def rpm_explicit(f, u: int):
    """Reverse particle motions in f ending at u; closed form.

    Returns (new_sequence, steps).  Requires f_{u-1} = 0 (f_{-1} := 0).
    The leftmost maximal adjacent pair at or right of u is moved back to
    (u, u+1), ending in the frame form (h, 0).
    """
    f = list(canonical(f))
    if 0 < u <= len(f) and f[u - 1] != 0:
        raise PreconditionViolated(f"entry before position {u} must be zero")
    R = f[u:]
    h, steps = _rpm(R, _sums(R))
    if h:
        f[u:] = [h, 0] + R
    return canonical(f), steps


# -- the insertion map and its inverse --------------------------------------------


@dataclass
class MotionTrace:
    """States and annotations collected while applying the insertion map or
    its inverse: the start sequence, then the state after each operation."""

    start: tuple
    ops: list = field(default_factory=list)   # (op, position, amount, state)

    def text(self) -> str:
        lines = [str(list(self.start))]
        for op, pos, amount, state in self.ops:
            lines.append(f"=> {op} at {pos}, m={amount}: {list(state)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"start": list(self.start),
                "ops": [{"op": op, "pos": pos, "m": amount,
                         "state": list(state)}
                        for op, pos, amount, state in self.ops]}


def lambda_map(parts, trace: bool = False):
    """Insertion: multipartition -> frequency sequence with bounded adjacent
    sums.  Starts from the frame sequence and applies the part sizes as
    particle-motion step counts from the innermost frame pair outwards.
    With ``trace``, returns (sequence, MotionTrace)."""
    parts = check_multipartition(parts)
    hs, seq = _frame(parts)
    T, P = [0], [0]
    tr = MotionTrace(frame_of(parts)) if trace else None
    for i in reversed(range(len(seq))):
        _pm(T, P, hs[i], seq[i])
        if tr is not None:   # the frame pairs left of 2i, then the tail
            tr.ops.append(("pm", 2 * i, seq[i],
                           canonical(tr.start[:2 * i] + tuple(T))))
    if max(P) > len(parts):
        raise PreconditionViolated("insertion left the bounded family")
    out = canonical(T)
    return (out, tr) if trace else out


def gamma_map(f, k: Optional[int] = None, trace: bool = False):
    """Inverse insertion: frequency sequence -> multipartition.

    Entries and an explicit k must be integers (bools refused).  k defaults
    to the maximum adjacent sum of the input; an explicit k must be at least
    1 (else ParameterOutOfRange) and is validated against membership.
    Repeatedly reverse-moves the leftmost maximal pair back onto the frame
    positions 0, 2, 4, ... and records the step counts, which become the
    parts.  With ``trace``, returns (multipartition, MotionTrace).
    """
    f = tuple(f)
    if not {int}.issuperset(map(type, f)):
        raise PreconditionViolated("frequency entries must be integers")
    f = canonical(f)
    if not (k is None or type(k) is int):
        raise ParameterOutOfRange("k must be an integer")
    R = list(f)
    S = _sums(R)
    # the first reverse motion reports the largest adjacent sum of f
    h, steps = _rpm(R, S)
    if k is None:
        k = h
    elif k < 1:
        raise ParameterOutOfRange("k must be at least 1")
    elif h > k:
        raise PreconditionViolated(f"sequence has adjacent sum {h} > k = {k}")
    parts = [[] for _ in range(k)]
    tr = MotionTrace(f) if trace else None
    frame = []
    while h:   # h never rises, so 1 <= h <= k
        parts[h - 1].append(steps)
        if tr is not None:
            frame += h, 0
            tr.ops.append(("rpm", len(frame) - 2, steps,
                           canonical(frame + R)))
        h, steps = _rpm(R, S)
    out = []
    for lam in parts:
        lam = lam[::-1]  # recorded inner-to-outer; parts are decreasing outwards
        if any(map(lt, lam, lam[1:])):
            raise PreconditionViolated("inverse insertion parts not sorted")
        out.append(tuple(lam))
    return (tuple(out), tr) if trace else tuple(out)


# -- JSON helpers ------------------------------------------------------------------


def mp_to_json(parts) -> dict:
    return {"parts": [list(lam) for lam in parts]}


def mp_from_json(obj) -> tuple:
    """The multipartition of a {"parts": [...]} object; no other key is
    taken."""
    if not isinstance(obj, dict) or "parts" not in obj:
        raise PreconditionViolated(
            'a multipartition object needs a "parts" list')
    for key in obj:
        if key != "parts":
            raise PreconditionViolated(
                f"unknown multipartition key {key!r}; known: parts")
    return check_multipartition(obj["parts"])
