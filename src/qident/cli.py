"""Command-line front end.

Subcommands: verify, sweep, bailey, trace-lambda, trace-gamma, enumerate,
interpret.  Exit code 0 when everything checked equal/passed, 1 on any
mismatch, 2 on usage errors.  ``--prec`` is always in whole q-powers; the
half-power grid is internal.  JSON mode emits one object per line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bailey as B
from . import identities as I
from . import motion as M
from . import sets as S
from .errors import InvalidParameters, QidentError
from .qfunctions import SignedMonomial


def _parse_monomial(text):
    if text in ("inf", "infinity"):
        return B.INFINITY
    return SignedMonomial.parse(text)


def _emit(obj, fmt):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        parts = [f"{k}={v}" for k, v in obj.items() if k != "elapsed_ms"]
        print("  ".join(parts))


def _prec(value) -> int:
    """A truncation order in whole q-powers: an integer >= 1."""
    prec = int(value)
    if prec < 1:
        raise argparse.ArgumentTypeError(f"precision must be >= 1, got {prec}")
    return prec


def _identity_params(args):
    params = {}
    for key in ("k", "r", "j", "a", "variant"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    if getattr(args, "subset", None) is not None:
        params["T"] = tuple(int(x) for x in args.subset.split(",") if x != "")
    return params


def _cmd_verify(args) -> int:
    params = _identity_params(args)
    spec = I.CATALOG.get(args.name)
    if spec is None:
        print(f"unknown identity {args.name!r}; known: "
              + ", ".join(I.CATALOG_ORDER), file=sys.stderr)
        return 2
    missing = [p for p in spec.param_names if p not in params]
    if missing:
        print(f"{args.name} needs parameters {missing}", file=sys.stderr)
        return 2
    rep = I.verify_identity(args.name, params, args.prec)
    _emit(rep.to_json(), args.format)
    return 0 if rep.equal else 1


def _cmd_sweep(args) -> int:
    reports = I.sweep(args.max_k, args.prec, jobs=args.jobs)
    rc = 0
    for rep in reports:
        _emit(rep.to_json(), args.format)
        if not rep.equal:
            rc = 1
    return rc


def _read_recipe(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidParameters(f"cannot read recipe {path!r}: "
                                f"{exc.strerror or exc}") from exc


def _parse_recipe(recipe, default_prec):
    """(seed pair, transform steps, t-order) of a recipe object."""
    if not isinstance(recipe, dict) or not isinstance(recipe.get("seed"), dict):
        raise InvalidParameters('a recipe is a JSON object with a "seed" object')
    raw_steps = recipe.get("steps", [])
    if not (isinstance(raw_steps, list)
            and all(isinstance(s, dict) for s in raw_steps)):
        raise InvalidParameters('recipe "steps" must be a list of objects')
    seed_spec = recipe["seed"]
    try:
        a = _parse_monomial(seed_spec.get("a", "q"))
        tp = 2 * _prec(recipe.get("prec", default_prec)) + 1
        n_max = int(recipe.get("n_max", 10))
        make_seed = B.SEEDS[seed_spec.get("kind", "unit")]
        steps = [B.TransformStep(s["tag"],
                                 rho=_parse_monomial(s["rho"]) if "rho" in s
                                 else None,
                                 b=_parse_monomial(s["b"]) if "b" in s
                                 else None)
                 for s in raw_steps]
    except TypeError as exc:    # a field of the wrong JSON type
        raise InvalidParameters(f"malformed recipe: {exc}") from exc
    return make_seed(a, n_max, tp), steps, tp


def _cmd_bailey(args) -> int:
    recipe = json.loads(_read_recipe(args.input))
    seed, steps, tp = _parse_recipe(recipe, args.prec)
    pair, log = B.run_chain(seed, steps, tp)
    for tag, a_text, res in log:
        _emit({"step": tag, "a": a_text, "verified": res.ok,
               "first_bad_n": res.first_bad_n}, args.format)
    return 0 if all(res.ok for _, _, res in log) else 1


def _cmd_trace_lambda(args) -> int:
    obj = json.loads(args.input)
    mp = M.mp_from_json(obj if isinstance(obj, dict) else {"parts": obj})
    out, trace = M.lambda_map(mp, trace=True)
    if args.format == "json":
        print(json.dumps({"result": list(out), "trace": trace.to_json()}))
    else:
        print(trace.text())
        print(f"result: {list(out)}  (size {M.weight(out)})")
    return 0


def _cmd_trace_gamma(args) -> int:
    f = json.loads(args.input)
    if not isinstance(f, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in f):
        raise InvalidParameters("a frequency sequence is a JSON list of "
                                "integers")
    f = tuple(f)
    mp, trace = M.gamma_map(f, k=args.k, trace=True)
    if args.format == "json":
        print(json.dumps({"result": M.mp_to_json(mp), "trace": trace.to_json()}))
    else:
        print(trace.text())
        print(f"result: {M.mp_to_json(mp)}")
    return 0


def _cmd_enumerate(args) -> int:
    pred = S.SetPredicate(args.family, k=args.k, r=args.r or 0,
                          j=args.j or 0, s=args.s or 0)
    if args.family in ("X", "Xp", "Xpt"):
        par = None
        if args.family == "Xp":
            par = (args.k + (args.r or 0) - (args.j or 0)) % 2
        elif args.family == "Xpt":
            par = (args.k + (args.r or 0) - (args.j or 0) + 1) % 2
        members = S.enum_mp_family(args.k, args.j or 0, args.r or 0,
                                   args.max_weight, parity=par)
        payload = [M.mp_to_json(mp) for mp in members]
    else:
        members = S.enum_family(pred, args.max_weight)
        payload = [list(f) for f in members]
    if args.format == "json":
        for row in payload:
            print(json.dumps(row))
    else:
        for row in payload:
            print(row)
    return 0


def _cmd_interpret(args) -> int:
    rep = S.check_interpretation(args.theorem, args.k, args.r, args.j,
                                 args.prec)
    _emit({"theorem": args.theorem, "k": args.k, "r": args.r, "j": args.j,
           "equal": rep.equal, "first_mismatch": rep.first_mismatch},
          args.format)
    return 0 if rep.equal else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qident",
        description="Exact checks for the q-series identity catalog, the "
                    "Bailey transform engine, and the insertion bijection.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, prec_default=40):
        p.add_argument("--prec", type=_prec, default=prec_default,
                       help="truncation order in whole q-powers")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="verify one catalog identity")
    p.add_argument("name")
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--a", type=int, help="variant selector for two-case rows")
    p.add_argument("--variant", type=int)
    p.add_argument("--subset", help="comma-separated positions, e.g. 2,3")
    common(p, 50)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="verify every catalog row up to max k")
    p.add_argument("--max-k", type=int, default=3, dest="max_k")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (scheduling only, never results)")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bailey", help="run a transform chain from a recipe")
    p.add_argument("--input", default="-", help="recipe JSON file or - for stdin")
    common(p)
    p.set_defaults(func=_cmd_bailey)

    p = sub.add_parser("trace-lambda", help="insertion map with full trace")
    p.add_argument("--input", required=True,
                   help='multipartition JSON, e.g. {"parts": [[3,1],[]]}')
    common(p)
    p.set_defaults(func=_cmd_trace_lambda)

    p = sub.add_parser("trace-gamma", help="inverse insertion with full trace")
    p.add_argument("--input", required=True,
                   help="frequency sequence JSON list, e.g. [2,0,1]")
    p.add_argument("--k", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_trace_gamma)

    p = sub.add_parser("enumerate", help="list members of a family by weight")
    p.add_argument("--family", required=True,
                   choices=("A", "gordon", "Y", "Z", "Yp", "Zp", "Ypt", "Zpt",
                            "Y_s", "Yp_s", "Ypt_s", "X", "Xp", "Xpt"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--max-weight", type=int, default=12, dest="max_weight")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("interpret",
                       help="frequency-family generating function vs sum side")
    p.add_argument("--theorem", required=True, choices=("1.11", "1.12", "1.13"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    common(p, 25)
    p.set_defaults(func=_cmd_interpret)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InvalidParameters, QidentError, ValueError, KeyError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
