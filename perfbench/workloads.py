"""The benchmark's workloads: program-side set-up, seeded inputs, checked ops.

Each workload has a ``setup(size)`` that does the program-side preparation a
user pays before the first check (timed as part of ``setup_s``), and an
``ops(state, size, seed)`` that generates the inputs (untimed) and returns the
ops in seed-shuffled order.  The seed only shuffles the order, so every run
does the same set of checks and each op pays a different share of the
cold-cache misses.  An op returns a list of problems; an empty list means
every check on its result passed.  ``checks(state, size, expect)`` runs the
whole-pass checks (the catalog digest; ``expect`` overrides the expected
one) after the last op.

The program is always called through module attributes (``I.verify_identity``
and so on), so that the tracer's wrappers are the functions that run.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from pathlib import Path

from qident import bailey as B
from qident import identities as I
from qident import motion as M
from qident import sets as S
from qident.qfunctions import Q

EXPECTED = Path(__file__).resolve().parent / "expected.json"

# "full" is the size a benchmark run measures; "smoke" is the size of the
# benchmark's own tests, small enough to finish in seconds.
SIZES = {
    "full": {
        "sweep_max_k": 4, "sweep_qprec": 60,
        "chain_seeds": ("unit", "dprime1", "dprime4"), "chain_max_k": 4,
        "chain_n_max": 10, "chain_tprec": 101,
        "interp_max_k": 3, "interp_weight": 25,
        "trip_max_k": 3, "trip_max_size": 24,
    },
    "smoke": {
        "sweep_max_k": 1, "sweep_qprec": 10,
        "chain_seeds": ("unit",), "chain_max_k": 1,
        "chain_n_max": 10, "chain_tprec": 101,
        "interp_max_k": 1, "interp_weight": 10,
        "trip_max_k": 3, "trip_max_size": 6,
    },
}


def _shuffled(ops, seed):
    random.Random(seed).shuffle(ops)
    return ops


def report_digest(reports) -> str:
    """sha256 over the sorted JSON reports with ``elapsed_ms`` removed."""
    lines = []
    for rep in reports:
        row = dict(rep)
        row.pop("elapsed_ms", None)
        lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def expected_digest(size: str) -> str:
    return json.loads(EXPECTED.read_text())["catalog_sweep"][size]


# -- catalog_sweep ------------------------------------------------------------


def _sweep_setup(size):
    return {"reports": []}


def _sweep_ops(state, size, seed):
    cfg = SIZES[size]
    qprec = cfg["sweep_qprec"]

    def op(name, params):
        def run():
            rep = I.verify_identity(name, params, qprec)
            state["reports"].append(rep.to_json())
            problems = []
            if not rep.equal:
                problems.append(f"mismatch at t^{rep.first_mismatch}")
            if rep.prec != qprec:
                problems.append(f"compared to q-order {rep.prec}, not {qprec}")
            return problems
        return (f"{name} {json.dumps(params, sort_keys=True)}", run)

    return _shuffled([op(name, params)
                      for name, params in I.catalog_rows(cfg["sweep_max_k"])],
                     seed)


def _sweep_checks(state, size, expect=None):
    want = expected_digest(size) if expect is None else expect
    got = report_digest(state["reports"])
    if got != want:
        return [("catalog digest",
                 [f"report digest {got} != expected {want}"])]
    return [("catalog digest", [])]


# -- bailey_chains ------------------------------------------------------------


def _chain_setup(size):
    cfg = SIZES[size]
    return {name: B.SEEDS[name](Q, cfg["chain_n_max"], cfg["chain_tprec"])
            for name in cfg["chain_seeds"]}


def _chain_ops(state, size, seed):
    cfg = SIZES[size]
    tp = cfg["chain_tprec"]

    def op(name, k, r, j):
        def run():
            pair = state[name]
            final, log = B.run_chain(pair, B.star_chain(k, r, j), tp)
            problems = [f"{tag} step not verified at n = {res.first_bad_n}"
                        for tag, _, res in log if not res.ok]
            for n in range(final.n_max + 1):
                want = B.closed_alpha_star_chain(pair, k, r, j, n, tp)
                cmp_at = min(final.alpha[n].prec, want.prec, tp)
                same, e = final.alpha[n].equal_up_to(want, cmp_at)
                if not same:
                    problems.append(f"alpha_{n} differs from the closed form "
                                    f"at t^{e}")
            return problems
        return (f"{name} k={k} r={r} j={j}", run)

    ops = [op(name, k, r, j)
           for name in cfg["chain_seeds"]
           for k in range(1, cfg["chain_max_k"] + 1)
           for r in range(k + 1)
           for j in range(k - r + 1)]
    return _shuffled(ops, seed)


# -- combinatorics ------------------------------------------------------------


def _combi_ops(state, size, seed):
    cfg = SIZES[size]
    weight_max = cfg["interp_weight"]

    def interp(thm, k, r, j):
        def run():
            rep = S.check_interpretation(thm, k, r, j, weight_max)
            return [] if rep.equal else [
                f"{rep.detail} differs at t^{rep.first_mismatch}"]
        return (f"interpret {thm} k={k} r={r} j={j}", run)

    def round_trip(k, n, mps, seqs):
        def run():
            problems = []
            for mp in mps:
                f = M.lambda_map(mp)
                if not M.in_A(f, k):
                    problems.append(f"lambda{mp} = {f} is not in A_{k}")
                elif M.weight(f) != n:
                    problems.append(f"lambda{mp} has weight {M.weight(f)}")
                elif M.gamma_map(f, k) != mp:
                    problems.append(f"gamma(lambda{mp}) != {mp}")
            for f in seqs:
                if M.lambda_map(M.gamma_map(f, k)) != f:
                    problems.append(f"lambda(gamma{f}) != {f}")
            return problems
        return (f"round trip k={k} n={n} "
                f"({len(mps)} multipartitions, {len(seqs)} sequences)", run)

    ops = [interp(thm, k, r, j)
           for thm in ("1.11", "1.12", "1.13")
           for k in range(1, cfg["interp_max_k"] + 1)
           for r in range(k + 1)
           for j in range(k - r + 1)]
    top = cfg["trip_max_size"]
    for k in range(1, cfg["trip_max_k"] + 1):
        mps, seqs = defaultdict(list), defaultdict(list)
        for mp in S.enum_mp_family(k, k, 0, top):       # all of P_k
            mps[S.mp_total_size(mp)].append(mp)
        for f in S.enum_freq(k, top):                   # all of A_k
            seqs[M.weight(f)].append(f)
        ops += [round_trip(k, n, mps[n], seqs[n]) for n in range(top + 1)]
    return _shuffled(ops, seed)


WORKLOADS = {
    "catalog_sweep": (_sweep_setup, _sweep_ops, _sweep_checks),
    "bailey_chains": (_chain_setup, _chain_ops, None),
    "combinatorics": (lambda size: {}, _combi_ops, None),
}
