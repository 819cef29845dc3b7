"""qident benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload catalog_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every pass is a fresh interpreter (``worker.py``) with cold ``lru_cache``s
and no warm-up, because every ``qident`` command starts cold, and no process
pool is used.  Passes run one after another until ``--seconds`` have gone
by; a pass that has started is finished.

With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
(medians over the passes; per-op percentiles are Harrell-Davis estimates
over the ops, each op taken at its median over the passes).
With ``--trace 1`` passes alternate untraced and traced, and the metrics are
the per-layer ones of the traced passes plus ``trace.overhead_s``, the
traced minus the untraced ``wall_s``.

Every op's result is checked; an op that raises or fails a check is counted
in ``failed`` and the run goes on.  A run record with the machine, the seed
and every raw sample is written to ``perfbench/out/``, and each traced pass
leaves its spans there as gzipped CSV.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, is_exact

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOAD_NAMES = ("catalog_sweep", "bailey_chains", "combinatorics")

SETUP_SAMPLES = 7      # set-up is measured at least this often per run
TIME_LIMIT_S = 170     # the whole run ends well inside 180 s


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, args, run_id):
        self.args = args
        self.run_id = run_id
        self.deadline = time.perf_counter() + TIME_LIMIT_S

    def spawn(self, *extra):
        cmd = [sys.executable, "-I", str(WORKER),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, *extra]
        timeout = max(1.0, self.deadline - time.perf_counter())
        spawned_at = time.perf_counter()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"pass exited with code {proc.returncode} "
                               "and no result")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def measured_pass(self, index, traced):
        extra = []
        if traced:
            extra += ["--trace", "--spans-out",
                      str(OUT / f"{self.run_id}-pass{index}-spans.csv.gz")]
        if self.args.expect_digest:
            extra += ["--expect-digest", self.args.expect_digest]
        return self.spawn(*extra)


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982).

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics.  The
    op latencies of a workload come in clusters by op size, and the plain
    sample median can jump across the gap between two clusters when a
    single op is a little slower; this estimator moves smoothly instead.
    The weights integrate the Beta density over each rank's interval with
    Simpson's rule; they are normalised to sum to 1, which matters only for
    a handful of ops, where the density is singular at an end.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_beta)

    panels = 8
    h = 1 / (n * panels)
    total = weights = 0.0
    for i, x in enumerate(xs):
        lo = i / n
        w = (density(lo) + density(lo + panels * h) + sum(
            (4 if k % 2 else 2) * density(lo + k * h)
            for k in range(1, panels))) * h / 3
        total += x * w
        weights += w
    return total / weights


def _summary(passes, setups, trace):
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        per_op = {}
        for p in plain:
            for label, t in zip(p["ops"], p["latency_ref_s"]):
                per_op.setdefault(label, []).append(t)
        op_ms = [1000 * statistics.median(v) for v in per_op.values()]
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_ref_s"] for p in plain),
            "op_p50_ms": hd_quantile(op_ms, 0.5),
            "op_p90_ms": hd_quantile(op_ms, 0.9),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }, None
    traced = [p["layers"] for p in passes if p["traced"]]
    out, repeats = {}, True
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = (
                statistics.median(p["wall_ref_s"] for p in passes
                                  if p["traced"])
                - statistics.median(p["wall_ref_s"] for p in plain))
        elif is_exact(name):
            out[name] = traced[0][name]
            repeats = repeats and all(t[name] == out[name] for t in traced)
        else:
            out[name] = statistics.median(t[name] for t in traced)
    return out, repeats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: the tiny size of the benchmark's own tests")
    ap.add_argument("--expect-digest",
                    help="override the expected catalog report digest")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qident" / "__init__.py").is_file():
        print(f"no qident sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src" / "qident", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    started = datetime.now(timezone.utc)
    run_id = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
              f"{started:%Y%m%dT%H%M%S}-{os.getpid()}")
    runner = Runner(args, run_id)

    passes = []
    t0 = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(runner.measured_pass(len(passes), traced))
            kinds = {p["traced"] for p in passes}
            if (time.perf_counter() - t0 >= args.seconds
                    and len(kinds) == 1 + args.trace):
                break
        setups = [p["setup_ref_s"] for p in passes]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("--setup-only")["setup_ref_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    metrics, counts_repeat = _summary(passes, setups, args.trace)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    if counts_repeat is False:
        print("warning: exact metrics differ between traced passes",
              file=sys.stderr)
    for p in passes:
        for f in p["failures"]:
            print(f"FAILED {f['op']}: {'; '.join(f['problems'])}",
                  file=sys.stderr)

    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "run_id": run_id,
        "started_utc": started.isoformat(),
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "setup_ref_samples_s": setups,
        "passes": passes,
        "counts_repeat": counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
