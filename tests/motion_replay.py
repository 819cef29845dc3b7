"""Replay of traced insertion motions against the stepwise simulations."""

from qident import motion as M


def states(tr):
    """The start of a MotionTrace, then the state after each op."""
    return [tr.start] + [state for *_, state in tr.ops]


def replays(tr) -> bool:
    """True when every traced op of lambda_map or gamma_map is what
    pm_stepwise or rpm_stepwise gives from the state before it."""
    prev = tr.start
    for op, pos, amount, state in tr.ops:
        if op == "pm":
            got = M.pm_stepwise(prev, pos, amount)[0], amount
        else:
            got = M.rpm_stepwise(prev, pos)
        if got != (state, amount):
            return False
        prev = state
    return True
