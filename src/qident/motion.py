"""Particle motion on frequency sequences and the insertion bijection.

A frequency sequence is a finite tuple of non-negative integers (f_0, f_1,
...); entry f_i counts the parts of size i, so size-0 parts are first-class.
A multipartition is a tuple of weakly decreasing lists of non-negative
integers.  The insertion map ``lambda_map`` turns a k-multipartition (with
its frame sequence) into a frequency sequence whose adjacent sums are at
most k, by running particle motions; ``gamma_map`` inverts it with reverse
motions.  Each map runs all its motions on one zero-padded working list,
through the in-place closed forms ``_pm`` and ``_rpm``, and makes a tuple
only for its result and, when traced, for each state of the trace.  One
loop, ``_frame``, builds the frame pairs and the motion sequence that
``lambda_map``, ``frame_of`` and ``flatten_parts`` read.  ``_rpm`` returns
``(h, steps)``, h the largest adjacent sum it found (0 once nothing is
left), so ``gamma_map`` takes k from its first call and stops on h = 0.
``pm_explicit`` and ``rpm_explicit`` are the same closed forms on tuples.
The step-by-step simulations that the tests replay every traced motion
against live with the tests, in ``tests/motion_replay.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, count
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


def max_adjacent_sum(f) -> int:
    f = list(f)
    return max(map(add, f, f[1:] + [0]), default=0)


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
    return canonical(_frame(check_multipartition(parts))[0])


def flatten_parts(parts):
    """The sequence (lambda_0, ..., lambda_{s_1 - 1}) read from the largest
    partition index inwards: lambda^(k) supplies the lowest indices."""
    return _frame(parts)[1]  # seq[i] = lambda_i


def _frame(parts):
    """The frame pairs (h, 0) as a list, which ends in a zero as the kernels
    need, and the motion sequence, seq[i] = lambda_i, that moves the pair at
    2i; one loop from the largest partition index inwards builds both."""
    pairs, seq = [], []
    for h, lam in zip(range(len(parts), 0, -1), reversed(parts)):
        pairs += [h, 0] * len(lam)
        seq += lam[::-1]
    return pairs, seq


# -- particle motion -------------------------------------------------------------
#
# The kernels _pm and _rpm work in place on a list that ends in a zero and
# may carry more trailing zeros; the callers trim it with canonical.


def _pm(f: list, u: int, m: int) -> int:
    """m particle motions from the frame pair (f_u, f_{u+1}) = (h, 0), in
    place; returns the position where the moved pair now sits."""
    h = f[u]
    if f[u + 1] != 0 or h < 1:
        raise PreconditionViolated("starting pair must be (h, 0) with h >= 1")
    sums = list(map(add, f[u:], f[u + 1:]))
    if max(sums) > h:
        i = next(i for i, s in enumerate(sums) if s > h)
        raise PreconditionViolated(f"adjacent sum above {h} at position {u + i}")
    if m == 0:
        return u
    if m < 0:   # the closed form would set f_(u+1) = m
        raise PreconditionViolated("frequency entries must be non-negative")
    # v = min { t >= u+2 : sum_{i=u+2..t} (h - f_{i-1} - f_i) >= m }; the
    # slacks are non-negative, so their running sums are sorted
    acc = list(accumulate(map(h.__sub__, sums[1:])))
    last = acc[-1] if acc else 0
    if last < m:
        # the pair lands in the zeros past f, where each place adds h
        n = -((last - m) // h)
        f.extend([0] * n)
        acc.extend(range(last + h, last + n * h + 1, h))
    j = bisect_left(acc, m)
    v = u + 2 + j
    f[u:v - 2] = f[u + 2:v]
    f[v - 2] = f[v] + acc[j] - m
    f[v - 1] += m - (acc[j - 1] if j else 0)
    return v - 2


def _rpm(f: list, u: int) -> tuple:
    """Reverse particle motions ending at u, in place: the leftmost maximal
    adjacent pair at or right of u goes back to (u, u+1) in the frame form
    (h, 0), and the pairs between shift right by two.  Returns (h, steps),
    h the largest adjacent sum at or right of u; (0, 0) when nothing is
    left there."""
    if u > 0 and f[u - 1] != 0:
        raise PreconditionViolated(f"entry before position {u} must be zero")
    sums = list(map(add, f[u:], f[u + 1:]))
    h = max(sums, default=0)
    if h == 0:
        return 0, 0
    p = sums.index(h)
    steps = h - f[u] + h * p - sum(sums[:p])
    f[u + 2:u + 2 + p] = f[u:u + p]
    f[u] = h
    f[u + 1] = 0
    return h, steps


def _working(f, u: int) -> list:
    """The canonical entries of f as a list ending in a zero, long enough to
    index u + 1."""
    f = list(canonical(f))
    f.extend([0] * max(1, u + 2 - len(f)))
    return f


def pm_explicit(f, u: int, m: int):
    """Apply m particle motions starting from the pair (f_u, f_{u+1}) = (h, 0).

    Returns (new_sequence, v) where the moved pair sits at (v, v+1).
    Requires h >= 1 and all adjacent sums from u on at most h; closed form
    of the step-by-step simulation.
    """
    f = _working(f, u)
    v = _pm(f, u, m)
    return canonical(f), v


def rpm_explicit(f, u: int):
    """Reverse particle motions in f ending at u; closed form.

    Returns (new_sequence, steps).  Requires f_{u-1} = 0 (f_{-1} := 0).
    The leftmost maximal adjacent pair at or right of u is moved back to
    (u, u+1), ending in the frame form (h, 0).
    """
    f = _working(f, u)
    steps = _rpm(f, u)[1]
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
    cur, seq = _frame(parts)
    tr = MotionTrace(canonical(cur)) if trace else None
    for i in range(len(seq) - 1, -1, -1):
        _pm(cur, 2 * i, seq[i])
        if tr is not None:
            tr.ops.append(("pm", 2 * i, seq[i], canonical(cur)))
    if parts and not in_A(cur, len(parts)):
        raise PreconditionViolated("insertion left the bounded family")
    out = canonical(cur)
    return (out, tr) if trace else out


def gamma_map(f, k: Optional[int] = None, trace: bool = False):
    """Inverse insertion: frequency sequence -> multipartition.

    k defaults to the maximum adjacent sum of the input; an explicit k must
    be at least 1 (else ParameterOutOfRange) and is validated against
    membership.  Repeatedly reverse-moves the leftmost maximal pair back
    onto the frame positions 0, 2, 4, ... and records the step counts,
    which become the parts.  With ``trace``, returns (multipartition,
    MotionTrace).
    """
    f = canonical(f)
    cur = list(f) + [0]
    # the first reverse motion reports the largest adjacent sum of f
    h, steps = _rpm(cur, 0)
    if k is None:
        k = h
    elif k < 1:
        raise ParameterOutOfRange("k must be at least 1")
    elif h > k:
        raise PreconditionViolated(f"sequence has adjacent sum {h} > k = {k}")
    mus = []
    tr = MotionTrace(f) if trace else None
    u = 0
    while h:
        mus.append(steps)
        if tr is not None:
            tr.ops.append(("rpm", u, steps, canonical(cur)))
        u += 2
        h, steps = _rpm(cur, u)
    # cur is now a frame sequence; group the recorded steps by frame value
    parts = [[] for _ in range(k)]
    for h, m in zip(cur[::2], mus):
        if h < 1 or h > k:
            raise PreconditionViolated("inverse insertion produced a bad frame")
        parts[h - 1].append(m)
    out = []
    for lam in parts:
        lam = lam[::-1]  # recorded inner-to-outer; parts are decreasing outwards
        if any(map(lt, lam, lam[1:])):
            raise PreconditionViolated("inverse insertion parts not sorted")
        out.append(tuple(lam))
    result = tuple(out)
    if trace:
        return result, tr
    return result


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
