"""One pass of one workload, in a fresh interpreter with cold caches.

Started by ``run.py`` for every pass.  ``--spawned-at`` is the parent's
``time.perf_counter()`` just before it started this process; on Linux that
clock is CLOCK_MONOTONIC, shared by all processes, so ``setup_s`` counts
interpreter start, the import of qident (``cli`` and the catalog included)
and the workload's program-side set-up.  Then the inputs are generated
(untimed), the tracer is installed when asked for, and every op is timed.
Between ops, outside the timed region, the worker collects garbage and
times the calibration kernel; every time is also given at the reference
speed (``*_ref_s``, see ``calibrate.py``).  The result is one JSON object on
standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MAX_PROBLEMS = 3   # problems kept per failed op


def _import_program():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qident.cli  # noqa: F401  (a qident command loads the whole package)
    import qident
    if Path(qident.__file__).resolve().parent != SRC / "qident":
        raise SystemExit(f"qident was imported from {qident.__file__}, "
                         f"not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    ap.add_argument("--expect-digest")
    args = ap.parse_args(argv)

    _import_program()
    import calibrate
    from workloads import WORKLOADS
    setup, make_ops, checks = WORKLOADS[args.workload]
    state = setup(args.size)
    setup_s = time.perf_counter() - args.spawned_at
    if not 0 < setup_s < 600:
        raise SystemExit(f"set-up time {setup_s} s is not plausible: "
                         "perf_counter is not shared between processes here")
    setup_ref_s = setup_s * calibrate.REF_S / calibrate.sample()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    ops = make_ops(state, args.size, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    # cal[b] and cal[b + 1] are the kernel times around block b of ops
    latencies, blocks, failures = [], [], []
    cal = [calibrate.sample()]
    last_cal = time.perf_counter()
    for i, (label, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            fn = tracer.wrap("op", fn)
        t0 = time.perf_counter()
        try:
            problems = fn()
        except Exception as exc:  # a failed op is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        blocks.append(len(cal) - 1)
        if problems:
            failures.append({"op": label, "problems": problems[:MAX_PROBLEMS]})
        # Collect what the op left for the cycle collector now, outside the
        # timed region, so no later op pays for it and the peak RSS does not
        # depend on the op order.
        gc.collect()
        if t1 - last_cal >= calibrate.EVERY_S:
            cal.append(calibrate.sample())
            last_cal = time.perf_counter()
    if blocks and blocks[-1] == len(cal) - 1:
        cal.append(calibrate.sample())
    latencies_ref = [t * 2 * calibrate.REF_S / (cal[b] + cal[b + 1])
                     for t, b in zip(latencies, blocks)]

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        speed = calibrate.REF_S / statistics.median(cal)
        layers = {name: value * speed if name.endswith("_s") else value
                  for name, value in layers.items()}
        if args.spans_out:
            tracer.write_spans(args.spans_out)

    attempted = len(ops)
    if checks is not None:
        for label, problems in checks(state, args.size, args.expect_digest):
            attempted += 1
            if problems:
                failures.append({"op": label, "problems": problems})

    print(json.dumps({
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": sum(latencies),
        "wall_ref_s": sum(latencies_ref),
        "ops": [label for label, _ in ops],
        "latency_s": latencies,
        "latency_ref_s": latencies_ref,
        "calibration_s": cal,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failures": failures,
        "traced": tracer is not None,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
