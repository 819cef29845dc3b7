"""Particle motion on frequency sequences and the insertion bijection.

A frequency sequence is a finite tuple of non-negative integers (f_0, f_1,
...); entry f_i counts the parts of size i, so size-0 parts are first-class.
A multipartition is a tuple of weakly decreasing lists of non-negative
integers.  The insertion map ``lambda_map`` turns a k-multipartition (with
its frame sequence) into a frequency sequence whose adjacent sums are at
most k, by running particle motions; ``gamma_map`` inverts it with reverse
motions.  Both closed-form and stepwise engines are provided and are checked
against each other in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import PreconditionViolated


def canonical(f) -> tuple:
    """Trim trailing zeros; entries must be non-negative integers."""
    f = list(f)
    if any(x < 0 for x in f):
        raise PreconditionViolated("frequency entries must be non-negative")
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def weight(f) -> int:
    return sum(i * x for i, x in enumerate(f))


def length(f) -> int:
    return sum(f)


def max_adjacent_sum(f) -> int:
    f = list(f) + [0]
    return max((f[i] + f[i + 1] for i in range(len(f) - 1)), default=0)


def in_A(f, k: int) -> bool:
    """Membership in the family with all adjacent sums at most k."""
    return max_adjacent_sum(f) <= k


# -- multipartitions and frames -------------------------------------------------


def check_multipartition(parts) -> tuple:
    out = []
    for lam in parts:
        if not isinstance(lam, (list, tuple)) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in lam):
            raise PreconditionViolated("each partition must be a list of "
                                       "integers")
        lam = list(lam)
        if any(x < 0 for x in lam):
            raise PreconditionViolated("parts must be non-negative")
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise PreconditionViolated("each partition must be weakly decreasing")
        out.append(tuple(lam))
    return tuple(out)


def mp_size(parts) -> int:
    return sum(sum(lam) for lam in parts)


def mp_lengths_to_s(parts) -> list:
    """The column sums s_1 >= ... >= s_k with len(lambda^(i)) = s_i - s_{i+1}."""
    k = len(parts)
    s = [0] * (k + 2)
    for i in range(k, 0, -1):
        s[i] = s[i + 1] + len(parts[i - 1])
    return s[1:k + 1]


def frame_of(parts) -> tuple:
    """Frame sequence: s_k pairs (k,0), then s_{k-1}-s_k pairs (k-1,0), ...
    down to s_1-s_2 pairs (1,0)."""
    parts = check_multipartition(parts)
    k = len(parts)
    s = mp_lengths_to_s(parts) + [0]
    out = []
    for h in range(k, 0, -1):
        out.extend([h, 0] * (s[h - 1] - s[h]))
    return canonical(out)


def frame_weight(s_values) -> int:
    """Weight of the frame with column sums s_1 >= ... >= s_k."""
    return sum(v * v for v in s_values) - sum(s_values)


def flatten_parts(parts):
    """The sequence (lambda_0, ..., lambda_{s_1 - 1}) read from the largest
    partition index inwards: lambda^(k) supplies the lowest indices."""
    seq = []
    for lam in reversed(parts):
        seq.extend(reversed(lam))
    return seq  # seq[i] = lambda_i


# -- particle motion -------------------------------------------------------------


def _pad(f, n):
    f = list(f)
    if len(f) < n:
        f.extend([0] * (n - len(f)))
    return f


def _check_dominance(f, u, h):
    f = list(f) + [0, 0]
    for i in range(u, len(f) - 1):
        if f[i] + f[i + 1] > h:
            raise PreconditionViolated(
                f"adjacent sum above {h} at position {i}")


def pm_stepwise(f, u: int, m: int, trace=None):
    """Apply m particle motions starting from the pair (f_u, f_{u+1}).

    Returns (new_sequence, v) where the moved pair sits at (v, v+1).
    Requires f_u + f_{u+1} = h >= 1 and all adjacent sums from u on at most h
    (for m >= 1); each single motion moves one unit from the left of the
    focus pair to the right, and the focus shifts right when the next pair
    fills up to h.
    """
    f = list(canonical(f))
    if m == 0:
        return canonical(f), u
    # the focus can walk the whole saturated tail before spending motions
    need = max(len(f), u + 2) + m + 4
    f = _pad(f, need)
    h = f[u] + f[u + 1]
    if h < 1:
        raise PreconditionViolated("starting pair must have positive sum")
    _check_dominance(f, u, h)
    moves = 0
    pos = u
    while moves < m:
        if f[pos + 1] + f[pos + 2] < h:
            f[pos] -= 1
            f[pos + 1] += 1
            if f[pos] < 0:
                raise PreconditionViolated("motion would go negative")
            moves += 1
            if trace is not None:
                trace.append((canonical(f), "pm", pos))
        else:
            pos += 1
            if trace is not None:
                trace.append((canonical(f), "shift", pos))
            if pos + 2 >= len(f):
                f = _pad(f, len(f) + m + 4)
    return canonical(f), pos


def pm_explicit(f, u: int, m: int):
    """Closed form of pm_stepwise for a starting pair of the form (h, 0)."""
    f = list(canonical(f))
    need = u + 3 + m + 2
    f = _pad(f, need)
    h = f[u] + f[u + 1]
    if f[u + 1] != 0 or h < 1:
        raise PreconditionViolated("starting pair must be (h, 0) with h >= 1")
    _check_dominance(f, u, h)
    if m == 0:
        return canonical(f), u
    # v = min { t >= u+2 : sum_{i=u+2..t} (h - f_{i-1} - f_i) >= m }
    acc = 0
    v = None
    t = u + 2
    while True:
        if t >= len(f):
            f = _pad(f, t + 4)
        acc += h - f[t - 1] - f[t]
        if acc >= m:
            v = t
            break
        t += 1
    partial = acc - (h - f[v - 1] - f[v])  # sum up to v-1
    out = list(f)
    for i in range(u, v - 2):
        out[i] = f[i + 2]
    out[v - 2] = f[v] + acc - m
    out[v - 1] = f[v - 1] + m - partial
    return canonical(out), v - 2


def rpm_explicit(f, u: int):
    """Reverse particle motions in f ending at u; closed form.

    Returns (new_sequence, steps).  Requires f_{u-1} = 0 (f_{-1} := 0).
    The leftmost maximal adjacent pair at or right of u is moved back to
    (u, u+1), ending in the frame form (h, 0).
    """
    f = list(canonical(f))
    if u > 0 and u - 1 < len(f) and f[u - 1] != 0:
        raise PreconditionViolated(f"entry before position {u} must be zero")
    f = _pad(f, u + 4)
    tail = f[u:] + [0]
    h = max((tail[i] + tail[i + 1] for i in range(len(tail) - 1)), default=0)
    if h == 0:
        return canonical(f), 0
    v = None
    for i in range(u + 2, len(f) + 3):
        fi2 = f[i - 2] if i - 2 < len(f) else 0
        fi1 = f[i - 1] if i - 1 < len(f) else 0
        if fi2 + fi1 == h:
            v = i
            break
    f = _pad(f, v + 2)
    steps = h - f[u] + sum(h - (f[i] + f[i + 1]) for i in range(u, v - 2))
    out = list(f)
    out[u] = h
    out[u + 1] = 0
    for i in range(u + 2, v):
        out[i] = f[i - 2]
    return canonical(out), steps


def rpm_stepwise(f, u: int, trace=None):
    """Reverse particle motions by simulation (cross-check for the closed form)."""
    f = list(canonical(f))
    if u > 0 and u - 1 < len(f) and f[u - 1] != 0:
        raise PreconditionViolated(f"entry before position {u} must be zero")
    f = _pad(f, u + 4)
    tail = f[u:] + [0]
    h = max((tail[i] + tail[i + 1] for i in range(len(tail) - 1)), default=0)
    if h == 0:
        return canonical(f), 0
    v = u
    while f[v] + (f[v + 1] if v + 1 < len(f) else 0) != h:
        v += 1
    steps = 0
    while not (v == u and f[u + 1] == 0):
        left = f[v - 1] if v >= 1 else 0
        if left + f[v] < h:
            f[v] += 1
            f[v + 1] -= 1
            if f[v + 1] < 0:
                raise PreconditionViolated("reverse motion went negative")
            steps += 1
            if trace is not None:
                trace.append((canonical(f), "rpm", v))
        else:
            v -= 1
            if trace is not None:
                trace.append((canonical(f), "shift", v))
            if v < u:
                raise PreconditionViolated("reverse focus passed the target")
    return canonical(f), steps


# -- the insertion map and its inverse --------------------------------------------


@dataclass
class MotionTrace:
    """States and annotations collected while applying the insertion map or
    its inverse; states[i] is the sequence after i recorded operations."""

    start: tuple
    ops: list = field(default_factory=list)   # (op, position, amount, state)

    def text(self) -> str:
        lines = [str(list(self.start))]
        for op, pos, amount, state in self.ops:
            if op in ("pm", "rpm"):
                lines.append(f"=> {op} at {pos}, m={amount}: {list(state)}")
            else:
                lines.append(f"-> focus {pos}: {list(state)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"start": list(self.start),
                "ops": [{"op": op, "pos": pos, "m": amount,
                         "state": list(state)}
                        for op, pos, amount, state in self.ops]}


def lambda_map(parts, engine: str = "explicit", trace: bool = False):
    """Insertion: multipartition -> frequency sequence with bounded adjacent
    sums.  Starts from the frame sequence and applies the part sizes as
    particle-motion step counts from the innermost frame pair outwards."""
    parts = check_multipartition(parts)
    k = len(parts)
    s = mp_lengths_to_s(parts) + [0] if k else [0]
    fs = []
    for h in range(k, 0, -1):
        fs.extend([h, 0] * (s[h - 1] - s[h]))
    cur = canonical(fs)
    seq = flatten_parts(parts)
    tr = MotionTrace(cur) if trace else None
    s1 = s[0] if k else 0
    for i in range(s1 - 1, -1, -1):
        m = seq[i]
        if engine == "explicit":
            nxt, _ = pm_explicit(cur, 2 * i, m)
        else:
            nxt, _ = pm_stepwise(cur, 2 * i, m)
        if tr is not None:
            tr.ops.append(("pm", 2 * i, m, nxt))
        cur = nxt
    if k and not in_A(cur, k):
        raise PreconditionViolated("insertion left the bounded family")
    return (cur, tr) if trace else cur


def lambda_states(parts, engine: str = "explicit"):
    """All intermediate states theta^(s_1), ..., theta^(0) of the insertion."""
    parts = check_multipartition(parts)
    k = len(parts)
    s = mp_lengths_to_s(parts) + [0] if k else [0]
    fs = []
    for h in range(k, 0, -1):
        fs.extend([h, 0] * (s[h - 1] - s[h]))
    states = [canonical(fs)]
    seq = flatten_parts(parts)
    s1 = s[0] if k else 0
    for i in range(s1 - 1, -1, -1):
        fn = pm_explicit if engine == "explicit" else pm_stepwise
        nxt, _ = fn(states[-1], 2 * i, seq[i])
        states.append(nxt)
    return states


def gamma_map(f, k: Optional[int] = None, engine: str = "explicit",
              trace: bool = False):
    """Inverse insertion: frequency sequence -> multipartition.

    k defaults to the maximum adjacent sum of the input; an explicit k is
    validated against membership.  Repeatedly reverse-moves the leftmost
    maximal pair back onto the frame positions 0, 2, 4, ... and records the
    step counts, which become the parts.
    """
    f = canonical(f)
    inferred = max_adjacent_sum(f)
    if k is None:
        k = inferred
    elif inferred > k:
        raise PreconditionViolated(
            f"sequence has adjacent sum {inferred} > k = {k}")
    cur = f
    mus = []
    tr = MotionTrace(cur) if trace else None
    i = 0
    while any(x != 0 for x in cur[2 * i:]):
        fn = rpm_explicit if engine == "explicit" else rpm_stepwise
        nxt, steps = fn(cur, 2 * i)
        mus.append(steps)
        if tr is not None:
            tr.ops.append(("rpm", 2 * i, steps, nxt))
        cur = nxt
        i += 1
    # cur is now a frame sequence; group the recorded steps by frame value
    frame = cur
    parts = [[] for _ in range(k)]
    for idx, m in enumerate(mus):
        h = frame[2 * idx] if 2 * idx < len(frame) else 0
        if h < 1 or h > k:
            raise PreconditionViolated("inverse insertion produced a bad frame")
        parts[h - 1].append(m)
    out = []
    for lam in parts:
        lam = lam[::-1]  # recorded inner-to-outer; parts are decreasing outwards
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise PreconditionViolated("inverse insertion parts not sorted")
        out.append(tuple(lam))
    result = tuple(out)
    if trace:
        return result, tr
    return result


def gamma_states(f, engine: str = "explicit"):
    """All intermediate states eta^(0), ..., eta^(s) of the inverse insertion."""
    f = canonical(f)
    states = [f]
    i = 0
    while any(x != 0 for x in states[-1][2 * i:]):
        fn = rpm_explicit if engine == "explicit" else rpm_stepwise
        nxt, _ = fn(states[-1], 2 * i)
        states.append(nxt)
        i += 1
    return states


# -- JSON helpers ------------------------------------------------------------------


def mp_to_json(parts) -> dict:
    return {"parts": [list(lam) for lam in parts]}


def mp_from_json(obj) -> tuple:
    return check_multipartition(obj["parts"])
