"""Command-line front end.

Subcommands: verify, sweep, bailey, trace-lambda, trace-gamma, enumerate,
interpret.  Exit code 0 when everything checked equal/passed, 1 on any
mismatch, 2 on usage errors and inputs too deep or large to check.
``--prec`` is always in whole q-powers; the half-power grid is internal.
JSON mode emits one object per line.
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
from .qfunctions import Q, SM


def _emit(obj, fmt):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        parts = [f"{k}={v}" for k, v in obj.items() if k != "elapsed_ms"]
        print("  ".join(parts))


def _at_least_one(what):
    """argparse type for an integer >= 1, named ``what`` in the error."""
    def parse(value) -> int:
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError(f"{what} must be >= 1, got {n}")
        return n
    parse.__name__ = "int"    # argparse's "invalid int value" on a non-integer
    return parse


_prec = _at_least_one("precision")  # a truncation order in whole q-powers


def _subset(value) -> tuple:
    """argparse type for --subset: comma-separated integer positions."""
    try:
        return tuple(int(x) for x in value.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError("positions must be comma-separated "
                                         f"integers, got {value!r}") from None


def _identity_params(args):
    params = {}
    for key in ("k", "r", "j", "a", "variant", "T"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    return params


def _cmd_verify(args) -> int:
    rep = I.verify_identity(args.name, _identity_params(args), args.prec)
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


def _recipe_int(recipe, key, default, low):
    """recipe[key], or default when absent: an integer >= low, not a bool."""
    v = recipe.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < low:
        raise InvalidParameters(f'malformed recipe: "{key}" must be an '
                                f'integer >= {low}, got {json.dumps(v)}')
    return v


def _recipe_str(obj, key, default=None, what="string"):
    """obj[key], or default when absent; a given field must be a string."""
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, str):
        raise InvalidParameters(f'malformed recipe: "{key}" must be a '
                                f'{what}, got {json.dumps(v)}')
    return v


def _recipe_monomial(obj, key, default=None):
    """obj[key] parsed as a monomial, or default when absent; a given field
    must be a string."""
    v = _recipe_str(obj, key, what="monomial string")
    return default if v is None else SM.parse(v)


def _check_keys(obj, known, what):
    """Reject a key of ``obj`` outside ``known``, so a misspelling is not
    silently replaced by the default."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise InvalidParameters(f"unknown {what} key {unknown[0]!r}; known: "
                                + ", ".join(known))


def _parse_recipe(recipe, default_prec):
    """(seed pair, transform steps, t-order) of a recipe object."""
    if not isinstance(recipe, dict) or not isinstance(recipe.get("seed"), dict):
        raise InvalidParameters('a recipe is a JSON object with a "seed" object')
    raw_steps = recipe.get("steps", [])
    if not (isinstance(raw_steps, list)
            and all(isinstance(s, dict) for s in raw_steps)):
        raise InvalidParameters('recipe "steps" must be a list of objects')
    seed_spec = recipe["seed"]
    _check_keys(recipe, ("seed", "steps", "prec", "n_max"), "recipe")
    _check_keys(seed_spec, ("kind", "a"), "seed")
    for s in raw_steps:
        _check_keys(s, ("tag", "rho", "b"), "step")
        if "tag" not in s:
            raise InvalidParameters('each recipe step needs a "tag"')
    a = _recipe_monomial(seed_spec, "a", Q)
    tp = I.tgrid(_recipe_int(recipe, "prec", default_prec, 1))
    n_max = _recipe_int(recipe, "n_max", 10, 0)
    kind = _recipe_str(seed_spec, "kind", "unit")
    if kind not in B.SEEDS:
        raise InvalidParameters(f"unknown seed kind {kind!r}; known: "
                                + ", ".join(B.SEEDS))
    steps = [B.TransformStep(_recipe_str(s, "tag"),
                             rho=_recipe_monomial(s, "rho"),
                             b=_recipe_monomial(s, "b"))
             for s in raw_steps]
    return B.SEEDS[kind](a, n_max, tp), steps, tp


def _cmd_bailey(args) -> int:
    recipe = json.loads(_read_recipe(args.input))
    seed, steps, tp = _parse_recipe(recipe, args.prec)
    pair, log = B.run_chain(seed, steps, tp)
    for tag, a_text, res in log:
        _emit({"step": tag, "a": a_text, "prec": I.qorder(res.prec),
               "verified": res.ok,
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
    given = {key: getattr(args, key) for key in ("k", "r", "j", "s")
             if getattr(args, key) is not None}
    pred = S.predicate(args.family, **given)
    as_row = M.mp_to_json if S.FAMILIES[pred.tag].kind == S._MP else list
    for member in S.enum_family(pred, args.max_weight):
        row = as_row(member)
        print(json.dumps(row) if args.format == "json" else row)
    return 0


def _cmd_interpret(args) -> int:
    rep = S.check_interpretation(args.theorem, args.k, args.r, args.j,
                                 args.prec)
    _emit({"theorem": args.theorem, "k": args.k, "r": args.r, "j": args.j,
           "prec": args.prec, "equal": rep.equal,
           "first_mismatch": rep.first_mismatch},
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
    p.add_argument("--subset", type=_subset, dest="T", metavar="SUBSET",
                   help="comma-separated positions, e.g. 2,3")
    common(p, 50)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="verify every catalog row up to max k")
    p.add_argument("--max-k", type=_at_least_one("max k"), default=3,
                   dest="max_k")
    p.add_argument("--jobs", type=_at_least_one("jobs"), default=1,
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
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_trace_lambda)

    p = sub.add_parser("trace-gamma", help="inverse insertion with full trace")
    p.add_argument("--input", required=True,
                   help="frequency sequence JSON list, e.g. [2,0,1]")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_trace_gamma)

    p = sub.add_parser("enumerate", help="list members of a family by weight")
    p.add_argument("--family", required=True, choices=tuple(S.FAMILIES))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--max-weight", type=int, default=12, dest="max_weight")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("interpret",
                       help="frequency-family generating function vs sum side")
    p.add_argument("--theorem", required=True, choices=tuple(S._INTERP))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    common(p)
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
            argparse.ArgumentTypeError, RecursionError, MemoryError) as exc:
        # the last two: an input too deep or large; MemoryError has no text
        print(f"error: {str(exc) or repr(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
