"""Machine-speed calibration for the benchmark's timings.

The machine this benchmark runs on shares its cores: over seconds to
minutes the same code runs up to about 1.5 times slower or faster, and CPU
time slows with wall time, so neither medians nor CPU time remove the drift.
A fixed kernel that is part of the benchmark, not of qident, is therefore
timed every ``EVERY_S`` seconds between ops, and every time is also reported
at the reference speed::

    time_ref = time * REF_S / kernel_time

The kernel is a dict convolution of small integers, the shape of the inner
loop of the series ring and close to the tuple and dict work of the
combinatorics.  In a 150 s trial that timed one op of each workload and each
candidate kernel in turn, the log standard deviation of 8-round blocks was
0.17-0.19 raw, 0.057-0.086 divided by this kernel, 0.070-0.091 by
big-integer products and 0.087-0.111 by a recursive tuple enumeration.  A
change to qident cannot change this kernel, so a speed-up in qident shows in
full in the reference-speed times.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.003     # kernel time at the reference speed
EVERY_S = 0.25    # longest stretch of ops between two calibrations

_A = {i: (i * 7919) % 1000 - 500 for i in range(60)}


def kernel():
    for _ in range(8):
        out = {}
        for ea, ca in _A.items():
            for eb, cb in _A.items():
                e = ea + eb
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
    return out


def sample() -> float:
    """Median time of three kernel runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
