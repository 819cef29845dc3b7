"""The step-by-step particle motions, the frame-weight formula, the
insertion map run one particle at a time, and the replay of traced
insertion motions against the step-by-step motions.

The simulations move one particle at a time and never call the closed forms
of ``qident.motion``, so they are an independent reference for them.
"""

from qident import motion as M
from qident.errors import PreconditionViolated


def frame_weight(s_values) -> int:
    """Weight of the frame with column sums s_1 >= ... >= s_k."""
    return sum(v * v for v in s_values) - sum(s_values)


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
    f = list(M.canonical(f))
    if m == 0:
        return M.canonical(f), u
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
                trace.append((M.canonical(f), "pm", pos))
        else:
            pos += 1
            if trace is not None:
                trace.append((M.canonical(f), "shift", pos))
            if pos + 2 >= len(f):
                f = _pad(f, len(f) + m + 4)
    return M.canonical(f), pos


def rpm_stepwise(f, u: int, trace=None):
    """Reverse particle motions by simulation (cross-check for the closed form)."""
    f = list(M.canonical(f))
    if u > 0 and u - 1 < len(f) and f[u - 1] != 0:
        raise PreconditionViolated(f"entry before position {u} must be zero")
    f = _pad(f, u + 4)
    tail = f[u:] + [0]
    h = max((tail[i] + tail[i + 1] for i in range(len(tail) - 1)), default=0)
    if h == 0:
        return M.canonical(f), 0
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
                trace.append((M.canonical(f), "rpm", v))
        else:
            v -= 1
            if trace is not None:
                trace.append((M.canonical(f), "shift", v))
            if v < u:
                raise PreconditionViolated("reverse focus passed the target")
    return M.canonical(f), steps


def insert_stepwise(parts):
    """The insertion map by simulation: the frame of parts, then each motion
    lambda_i of the pair at 2i by pm_stepwise, innermost first."""
    f = M.frame_of(parts)
    seq = M.flatten_parts(parts)
    for i in reversed(range(len(seq))):
        f = pm_stepwise(f, 2 * i, seq[i])[0]
    return f


def states(tr):
    """The start of a MotionTrace, then the state after each op."""
    return [tr.start] + [state for *_, state in tr.ops]


def replays(tr) -> bool:
    """True when every traced op of lambda_map or gamma_map is what
    pm_stepwise or rpm_stepwise gives from the state before it."""
    prev = tr.start
    for op, pos, amount, state in tr.ops:
        if op == "pm":
            got = pm_stepwise(prev, pos, amount)[0], amount
        else:
            got = rpm_stepwise(prev, pos)
        if got != (state, amount):
            return False
        prev = state
    return True
