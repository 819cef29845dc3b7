"""The benchmark's own tests, at the smoke size (seconds, not minutes).

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER, is_exact  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    return out


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = result("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", "0")
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "2", "--seconds", "0",
            "--trace", "1")
    first, second = result(*args), result(*args)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == PER_LAYER
    for name in PER_LAYER:
        if is_exact(name):
            assert first["metrics"][name] == second["metrics"][name], name


def test_wrong_digest_is_a_failed_check_not_a_crash():
    out = result("--workload", "catalog_sweep", "--seed", "1", "--seconds",
                 "0", "--trace", "0", "--expect-digest", "0" * 64)
    assert not out["correct"]
    assert out["failed"] / out["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "catalog_sweep", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_an_op_that_raises_is_counted_not_fatal(monkeypatch, capsys):
    import time
    import worker
    worker._import_program()
    import workloads

    def boom():
        raise ZeroDivisionError("boom")

    def make_ops(state, size, seed):
        return [("fine", lambda: []), ("boom", boom), ("wrong", lambda: ["x"])]

    monkeypatch.setitem(workloads.WORKLOADS, "faulty",
                        (lambda size: {}, make_ops, None))
    assert worker.main(["--workload", "faulty", "--seed", "1",
                        "--spawned-at", repr(time.perf_counter())]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["attempted"] == 3
    assert [f["op"] for f in out["failures"]] == ["boom", "wrong"]
    assert out["failures"][0]["problems"] == ["ZeroDivisionError: boom"]
