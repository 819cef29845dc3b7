"""The mutant catalog: each record breaks the program in one place, and the
tests it names must then fail.

    python tests/mutants.py [name ...]

run from the root of the repository, checks every record, or the named
ones.  A record is a file under ``src/``, an exact snippet of it, the
snippet's replacement and the ids of the tests that must fail.  First the
ids of every record checked run on an unchanged copy of ``src/``, where
they must pass.  Then, per record, the runner copies ``src/`` into a
temporary directory, replaces the snippet there, and runs its ids against
that copy with ``-p no:cacheprovider`` and a fixed ``--hypothesis-seed``.
A mutant is killed when pytest reports a failing test (exit 1).  The runner
exits 1 when a mutant survives, when a run ends any other way, or when a
snippet does not occur exactly once in its file: whoever changes the code
of a snippet updates its record.  Stdlib only; Tier-1 does not collect this
file, as its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0

Mutant = namedtuple("Mutant", "name file snippet replacement tests")

_SERIES = "src/qident/series.py"
_SUMEVAL = "src/qident/sumeval.py"
_KRON = "tests/test_series.py::test_kron_pack_and_unpack_match_int_arithmetic"
_RUNS = "tests/test_series.py::test_runs_of_a_digit_buffer_match_int_arithmetic"
_COUNT = "tests/test_series.py::test_digit_count_is_the_grid_below_stop"
_OWN_PASS = ("tests/test_sumeval.py::"
             "test_own_pass_on_slots_matches_the_dict_own_pass")
_OUTER = ("tests/test_sumeval.py::"
          "test_outer_step_matches_the_own_pass_and_ring_sum")
_STEP = ("tests/test_sumeval.py::"
         "test_division_by_one_minus_a_power_matches_int_arithmetic")
_LAYER = ("tests/test_sumeval.py::"
          "test_convolve_layer_matches_the_per_pair_products")

MUTANTS = [
    # the packer: the term at stop is left out, on either path
    Mutant("kron_pack packs the native term at stop", _SERIES,
           "            if e < stop:\n"
           "                words[(e - low) // step] = c + lift",
           "            if e <= stop:\n"
           "                words[(e - low) // step] = c + lift",
           [_KRON]),
    Mutant("kron_pack packs the byte-wise term at stop", _SERIES,
           "            if e < stop:\n"
           "                k = (e - low) // step * w",
           "            if e <= stop:\n"
           "                k = (e - low) // step * w",
           [_KRON]),
    # digits are counted from low, not from 0
    Mutant("kron_pack ignores low", _SERIES,
           "words[(e - low) // step] = c + lift",
           "words[e // step] = c + lift",
           [_KRON]),
    # the packer counts one digit too few: the highest term is lost
    Mutant("kron_pack drops its highest digit", _SERIES,
           "n = digit_count(low, min(stop, max(coeffs) + 1), step)",
           "n = digit_count(low, min(stop, max(coeffs)), step)",
           [_KRON]),
    # the strided copy keeps every byte of a digit
    Mutant("_restride drops a digit's top byte", _SERIES,
           "    for i in range(min(src, dst)):",
           "    for i in range(min(src, dst) - 1):",
           [_KRON, _RUNS]),
    # each caller states its direction: digits to words, not back
    Mutant("kron_digits narrows in place of widening", _SERIES,
           '_restride(b"".join(parts), nbytes, word_bytes(nbytes), total)',
           '_restride(b"".join(parts), word_bytes(nbytes), nbytes, total)',
           [_KRON, _RUNS]),
    Mutant("read_runs narrows in place of widening", _SERIES,
           "_restride(buf[a * w:b * w], w, stride, b - a)",
           "_restride(buf[a * w:b * w], stride, w, b - a)",
           [_RUNS]),
    # the one digit count of the codec
    Mutant("digit_count off by one", _SERIES,
           "k = (stop - base - 1) // step + 1",
           "k = (stop - base) // step + 1",
           [_COUNT, _KRON]),
    # the own-factor walk of _own_pass and _own_sum
    Mutant("_own_terms precision without the extra's valuation", _SUMEVAL,
           "prec = cut + o + vx         # at most wp",
           "prec = cut + o         # at most wp",
           [_OWN_PASS, _OUTER]),
    Mutant("_own_terms truncated extra without the shift o", _SUMEVAL,
           "x.prec + o + (cut if j is None else lo + g * j)",
           "x.prec + (cut if j is None else lo + g * j)",
           [_OWN_PASS, _OUTER]),
    Mutant("_own_terms precision from p in place of the cut", _SUMEVAL,
           "prec = cut + o + vx         # at most wp",
           "prec = p + o + vx         # at most wp",
           [_OWN_PASS, _OUTER]),
    Mutant("_own_terms read cut without the extra's valuation", _SUMEVAL,
           "cut = min(p, wp - o - vx)",
           "cut = min(p, wp - o)",
           [_OWN_PASS, _OUTER]),
    # the layer product's recurrence B_m = B_(m-1) / (1 - t^(d*m)): its
    # stride on the grid, its doubling loop, its first step and its mask
    Mutant("the recurrence's stride ignores the grid step", _SUMEVAL,
           "_over_one_minus(h, step * (v - u), keep, bits)",
           "_over_one_minus(h, v - u, keep, bits)",
           [_LAYER]),
    Mutant("one shift-add in place of the doubling loop", _SUMEVAL,
           "    while s < n:\n"
           "        h += h << bits * s\n"
           "        s *= 2\n",
           "    h += h << bits * s\n",
           [_STEP, _LAYER]),
    Mutant("the recurrence starts one m late", _SUMEVAL,
           "if v > u:   # B_m = B_(m-1) / (1 - t^(d*m)), m = v - u",
           "if v > u + 1:   # B_m = B_(m-1) / (1 - t^(d*m)), m = v - u",
           [_LAYER]),
    Mutant("the recurrence's mask drops the top digit read", _SUMEVAL,
           "return h & ((1 << bits * n) - 1)",
           "return h & ((1 << bits * (n - 1)) - 1)",
           [_STEP, _LAYER]),
]


# A pytest plugin, loaded with -p beside the copy of src/: a hypothesis
# profile that neither shrinks a failing example nor keeps a database, so a
# mutant fails at its first failing example and nothing is written into
# the repository.
_PROFILE = """
from hypothesis import Phase, settings
settings.register_profile("mutants", database=None,
                          phases=[Phase.explicit, Phase.generate])
"""


def _copy_src(into: Path) -> Path:
    shutil.copytree(ROOT / "src", into / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (into / "mutant_profile.py").write_text(_PROFILE)
    return into / "src"


def _pytest(src: Path, tests) -> int:
    """pytest's exit code for tests run against the package under src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src),
                                                       str(src.parent)]),
               PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import qident; print(qident.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(src):
        raise SystemExit(f"qident imports from {where.stdout.strip()}, "
                         f"not from {src}")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-p", "mutant_profile", "--hypothesis-profile=mutants",
         f"--hypothesis-seed={SEED}", *tests],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def check(mutant: Mutant) -> str:
    """'killed', or why the record fails."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        path = src.parent / mutant.file
        text = path.read_text()
        found = text.count(mutant.snippet)
        if found != 1:
            return f"its snippet occurs {found} times in {mutant.file}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        rc = _pytest(src, mutant.tests)
    return {0: "survived", 1: "killed"}.get(rc, f"pytest exited {rc}")


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    start = time.perf_counter()
    tests = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        rc = _pytest(_copy_src(Path(tmp)), tests)
    if rc != 0:
        print(f"the unchanged program fails its tests (pytest exited {rc})")
        return 1
    bad = 0
    for m in chosen:
        verdict = check(m)
        bad += verdict != "killed"
        print(f"{verdict}: {m.name}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
