"""Command-line behaviour: exit codes, formats, determinism."""

import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qident
from qident import bailey as B
from qident import identities as I
from qident import motion as M
from qident import sets as S
from qident.cli import _parse_recipe, main
from qident.errors import InvalidParameters
from qident.qfunctions import Q
from qident.series import monomial

import bailey_oracle as naive


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_verify_ok(capsys):
    rc, out, _ = run(capsys, "verify", "stanton_32", "--k", "2", "--r", "1",
                     "--j", "1", "--prec", "30")
    assert rc == 0
    assert "equal=True" in out


def test_verify_domain_guard(capsys):
    for argv in (("stanton_32", "--k", "1", "--r", "1", "--j", "1"),
                 ("stanton_31", "--k", "2", "--r", "0", "--j", "1",
                  "--subset", "1,1")):
        rc, out, err = run(capsys, "verify", *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_verify_unknown_name(capsys):
    rc, _, err = run(capsys, "verify", "whatever", "--k", "1")
    assert rc == 2
    assert err.startswith("error:") and "known: rogers_ramanujan" in err


def test_verify_missing_params(capsys):
    rc, _, err = run(capsys, "verify", "andrews_gordon", "--k", "2")
    assert rc == 2 and "r" in err


def test_verify_json_deterministic(capsys):
    args = ("verify", "andrews_gordon", "--k", "2", "--r", "1",
            "--prec", "25", "--format", "json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    strip = lambda s: {k: v for k, v in json.loads(s).items()
                       if k != "elapsed_ms"}
    assert strip(out1) == strip(out2)


def test_subset_flag(capsys):
    rc, out, _ = run(capsys, "verify", "stanton_31", "--k", "3", "--r", "1",
                     "--j", "2", "--subset", "1,2", "--prec", "25")
    assert rc == 0 and "equal=True" in out


def test_subset_flag_takes_integers_only(capsys):
    rc, out, err = run(capsys, "verify", "stanton_31", "--k", "3", "--r", "1",
                       "--j", "2", "--subset", "1,a")
    assert rc == 2 and out == ""
    assert err.endswith("error: argument --subset: positions must be "
                        "comma-separated integers, got '1,a'\n")


def test_sweep_exit_code_and_coverage(capsys):
    rc, out, _ = run(capsys, "sweep", "--max-k", "1", "--prec", "20",
                     "--format", "json")
    assert rc == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    from qident.identities import CATALOG_ORDER
    assert {row["name"] for row in rows} == set(CATALOG_ORDER)
    assert all(row["equal"] for row in rows)


def test_sweep_exits_1_on_a_mismatching_row(capsys, monkeypatch):
    # q^3 added to the product side of the first row at k <= 1 (a side no
    # other row of that sweep shares) makes that row, and only it, mismatch
    # at t^6
    name, params = next(I.catalog_rows(1))
    side, real = I._spec(name, params).rhs(params), I.eval_product
    monkeypatch.setattr(I, "eval_product", lambda s, qprec: (
        real(s, qprec) + monomial(1, 6)) if s == side else real(s, qprec))
    rc, out, err = run(capsys, "sweep", "--max-k", "1", "--prec", "20")
    assert rc == 1 and err == ""
    assert [line for line in out.splitlines() if "equal=False" in line] == [
        f"name={name}  params={params}  prec=20  equal=False  first_mismatch=6"]


def test_bailey_recipe(capsys, tmp_path):
    recipe = {"seed": {"kind": "dprime4", "a": "q"},
              "steps": [{"tag": "BL_INF"},
                        {"tag": "BL_RHO", "rho": "-q^(3/2)"}],
              "prec": 25, "n_max": 6}
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    rc, out, _ = run(capsys, "bailey", "--input", str(path), "--format", "json")
    assert rc == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["step"] for r in rows] == ["BL_INF", "BL_RHO"]
    assert all(r["verified"] for r in rows)


def _bailey_rows(capsys, tmp_path, recipe):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    rc, out, _ = run(capsys, "bailey", "--input", str(path), "--format", "json")
    return rc, [json.loads(line) for line in out.strip().splitlines()]


def test_bailey_reports_the_order_compared(capsys, tmp_path):
    # from a = q^(1/2), the second KEY1 step's betas are known only below
    # t^30, one t-order short of q-order 15; from a = q, to q-order 15
    rc, rows = _bailey_rows(capsys, tmp_path, {
        "seed": {"a": "q^(1/2)"}, "steps": [{"tag": "KEY1"}, {"tag": "KEY1"}],
        "prec": 15, "n_max": 5})
    assert rc == 0
    assert [(r["a"], r["prec"], r["verified"]) for r in rows] == [
        ("q^(-1/2)", 15, True), ("q^(-3/2)", 14, True)]
    rc, rows = _bailey_rows(capsys, tmp_path, {
        "seed": {"a": "q"}, "steps": [{"tag": "KEY1"}, {"tag": "BL_INF"}],
        "prec": 15, "n_max": 5})
    assert rc == 0 and [r["prec"] for r in rows] == [15, 15]


def test_bailey_parameter_round_trip(capsys, tmp_path):
    # a parameter that a step prints, negative exponent included, reads back
    # as a seed
    rc, rows = _bailey_rows(capsys, tmp_path, {
        "seed": {"a": "q^(1/2)"}, "steps": [{"tag": "KEY1"}], "n_max": 4})
    assert rc == 0 and rows[0]["a"] == "q^(-1/2)"
    rc, rows = _bailey_rows(capsys, tmp_path, {
        "seed": {"a": rows[0]["a"]}, "steps": [{"tag": "BL_INF"}],
        "n_max": 4})
    assert rc == 0 and rows[0]["verified"] and rows[0]["prec"] == 40


def test_bailey_failing_step_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setitem(B._TRANSFORMS, "KEY2", lambda p, step:
                        naive.with_beta1_perturbed(B._key_shared(p, True)))
    recipe = {"seed": {"kind": "dprime4", "a": "q"},
              "steps": [{"tag": "BL_INF"}, {"tag": "KEY2"}, {"tag": "BL_INF"}],
              "prec": 25, "n_max": 6}
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    rc, out, err = run(capsys, "bailey", "--input", str(path), "--format",
                       "json")
    assert rc == 1 and err == ""
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["step"], r["verified"], r["first_bad_n"]) for r in rows] == [
        ("BL_INF", True, None), ("KEY2", False, 1)]


def test_trace_lambda(capsys):
    rc, out, _ = run(capsys, "trace-lambda", "--input",
                     '{"parts":[[3,1],[],[6,6,5,3],[19,0]]}')
    assert rc == 0
    assert "[4, 0, 0, 3, 0, 1, 2, 1, 1, 2, 1, 2, 0, 3, 1, 0, 0, 1]" in out
    assert "size 161" in out


def test_trace_gamma(capsys):
    rc, out, _ = run(capsys, "trace-gamma", "--input",
                     "[4, 0, 0, 3, 0, 1, 2, 1, 1, 2, 1, 2, 0, 3, 1, 0, 0, 1]",
                     "--format", "json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["result"]["parts"] == [[3, 1], [], [6, 6, 5, 3], [19, 0]]


def test_enumerate(capsys):
    rc, out, _ = run(capsys, "enumerate", "--family", "Z", "--k", "2",
                     "--r", "1", "--j", "1", "--max-weight", "4",
                     "--format", "json")
    assert rc == 0
    rows = [tuple(json.loads(line)) for line in out.strip().splitlines()]
    assert () in [tuple(r) for r in rows] or [] in [list(r) for r in rows]


def test_interpret(capsys):
    rc, out, _ = run(capsys, "interpret", "--theorem", "1.11", "--k", "2",
                     "--r", "1", "--j", "1", "--prec", "15")
    assert rc == 0 and "prec=15  equal=True" in out
    rc, out, _ = run(capsys, "interpret", "--theorem", "1.12", "--k", "2",
                     "--r", "1", "--j", "1", "--format", "json")
    assert rc == 0 and json.loads(out)["prec"] == 40


def test_usage_error(capsys):
    assert main(["no-such-command"]) == 2


def test_bailey_missing_input_file(capsys, tmp_path):
    rc, _, err = run(capsys, "bailey", "--input", str(tmp_path / "none.json"))
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_bailey_steps_must_be_a_list(capsys, tmp_path):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"seed": {"kind": "unit"}, "steps": "BL_INF"}))
    rc, _, err = run(capsys, "bailey", "--input", str(path))
    assert rc == 2
    assert err.startswith("error:") and "steps" in err


def test_bailey_recipe_must_be_an_object(capsys, tmp_path):
    path = tmp_path / "recipe.json"
    path.write_text("[]")
    rc, out, err = run(capsys, "bailey", "--input", str(path))
    assert (rc, out) == (2, "")
    assert err == 'error: a recipe is a JSON object with a "seed" object\n'


def test_bailey_field_of_the_wrong_type(capsys, tmp_path):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"seed": {"kind": "unit"}, "prec": [3]}))
    rc, _, err = run(capsys, "bailey", "--input", str(path))
    assert rc == 2
    assert err.startswith("error: malformed recipe")


@pytest.mark.parametrize("recipe, field, value", [
    ({"seed": {"a": 5}}, "a", 5),
    ({"seed": {}, "steps": [{"tag": "BL_RHO", "rho": None}]}, "rho", None),
    ({"seed": {}, "steps": [{"tag": "LOVEJOY", "b": []}]}, "b", []),
], ids=["a", "rho", "b"])
def test_bailey_monomial_of_the_wrong_type_names_its_field(capsys, tmp_path,
                                                           recipe, field,
                                                           value):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    rc, out, err = run(capsys, "bailey", "--input", str(path))
    assert rc == 2 and out == ""
    assert err == (f'error: malformed recipe: "{field}" must be a monomial '
                   f'string, got {json.dumps(value)}\n')


@pytest.mark.parametrize("recipe, field, value", [
    ({"seed": {"kind": []}}, "kind", []),
    ({"seed": {}, "steps": [{"tag": ["BL_INF"]}]}, "tag", ["BL_INF"]),
], ids=["kind", "tag"])
def test_bailey_name_of_the_wrong_type_names_its_field(capsys, tmp_path,
                                                       recipe, field, value):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    rc, out, err = run(capsys, "bailey", "--input", str(path))
    assert rc == 2 and out == ""
    assert err == (f'error: malformed recipe: "{field}" must be a string, '
                   f'got {json.dumps(value)}\n')


@pytest.mark.parametrize("field, value, low", [
    ("n_max", 2.5, 0), ("n_max", True, 0), ("n_max", -1, 0), ("n_max", "3", 0),
    ("prec", 25.0, 1), ("prec", False, 1), ("prec", 0, 1), ("prec", "25", 1),
])
def test_bailey_recipe_numbers_must_be_integers(capsys, tmp_path, field,
                                                value, low):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"seed": {"a": "q"}, field: value}))
    rc, out, err = run(capsys, "bailey", "--input", str(path))
    assert rc == 2 and out == ""
    assert err == (f'error: malformed recipe: "{field}" must be an integer '
                   f'>= {low}, got {json.dumps(value)}\n')


def test_bailey_unknown_seed_kind_names_the_known_kinds(capsys, tmp_path):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"seed": {"kind": "nope"}}))
    rc, out, err = run(capsys, "bailey", "--input", str(path))
    assert rc == 2 and out == ""
    assert err == ("error: unknown seed kind 'nope'; known: "
                   + ", ".join(B.SEEDS) + "\n")


@pytest.mark.parametrize("recipe, err", [
    ({"seed": {"a": "q", "kind": "dprime4"}, "precc": 5},
     "unknown recipe key 'precc'; known: seed, steps, prec, n_max"),
    ({"seed": {"a": "q", "knd": "dprime4"}},
     "unknown seed key 'knd'; known: kind, a"),
    ({"seed": {"a": "q"}, "steps": [{"tag": "BL_RHO", "rh": "q"}]},
     "unknown step key 'rh'; known: tag, rho, b"),
], ids=["recipe", "seed", "step"])
def test_bailey_recipe_rejects_unknown_keys(capsys, tmp_path, recipe, err):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    rc, out, got = run(capsys, "bailey", "--input", str(path))
    assert rc == 2 and out == ""
    assert got == f"error: {err}\n"


def test_bailey_step_without_a_tag_says_so(capsys, tmp_path):
    recipe = {"seed": {"a": "q"}, "steps": [{}]}
    # the recipe parser itself rejects it, not the CLI's KeyError catch
    with pytest.raises(InvalidParameters):
        _parse_recipe(recipe, 10)
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    rc, out, err = run(capsys, "bailey", "--input", str(path))
    assert rc == 2 and out == ""
    assert err == 'error: each recipe step needs a "tag"\n'


@pytest.mark.parametrize("recipe", [
    {"seed": {"a": "inf"}},
    {"seed": {}, "steps": [{"tag": "BL_RHO", "rho": "inf"}]},
    {"seed": {}, "steps": [{"tag": "LOVEJOY", "b": "infinity"}]},
], ids=["a", "rho", "b"])
def test_bailey_monomial_at_infinity_is_a_usage_error(capsys, tmp_path,
                                                      recipe):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    rc, out, err = run(capsys, "bailey", "--input", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_bailey_step_rejects_a_parameter_it_does_not_take(capsys, tmp_path):
    for step in ({"tag": "STAR", "b": "q"}, {"tag": "BL_INF", "rho": "-q"},
                 {"tag": "LOVEJOY", "b": "-1", "rho": "-q"}):
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps({"seed": {}, "steps": [step]}))
        rc, out, err = run(capsys, "bailey", "--input", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "takes no" in err


def test_trace_lambda_parts_must_be_a_list(capsys):
    for text in ("5", '{"parts": 5}'):
        rc, out, err = run(capsys, "trace-lambda", "--input", text)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_trace_lambda_object_needs_parts_and_nothing_else(capsys):
    for text, msg in (
            ("{}", 'a multipartition object needs a "parts" list'),
            ('{"parts": [[1]], "k": 1}',
             "unknown multipartition key 'k'; known: parts")):
        rc, out, err = run(capsys, "trace-lambda", "--input", text)
        assert rc == 2 and out == ""
        assert err == f"error: {msg}\n"


def test_enumerate_rejects_k_below_one(capsys):
    for family in ("X", "A"):
        rc, out, err = run(capsys, "enumerate", "--family", family,
                           "--k", "0")
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "k must be" in err


@pytest.mark.parametrize("argv", [
    ("A", "--k", "2", "--r", "5", "--s", "9", "--max-weight", "2"),
    ("Xp", "--k", "2", "--s", "4", "--max-weight", "2"),
    ("Z", "--k", "2", "--r", "3", "--j", "2", "--max-weight", "3"),
    ("Y_s", "--k", "2", "--s", "7"),
    ("gordon", "--k", "2", "--r", "7", "--max-weight", "3"),
    ("Y", "--k", "2", "--j", "-1", "--max-weight", "3"),
])
def test_enumerate_rejects_parameters_outside_the_family(capsys, argv):
    rc, out, err = run(capsys, "enumerate", "--family", *argv)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: family {argv[0]} takes parameters [")
    assert err.count("\n") == 1


def test_trace_commands_take_no_prec(capsys):
    # the motions are exact and finite: a precision flag would be ignored
    for cmd, text in (("trace-lambda", "[[1]]"), ("trace-gamma", "[1]")):
        for prec in ("5", "0"):
            rc, out, err = run(capsys, cmd, "--input", text, "--prec", prec)
            assert rc == 2 and out == ""
            assert "unrecognized arguments: --prec" in err


def test_trace_non_integer_input(capsys):
    for cmd, text in (("trace-lambda", "[[1.5]]"), ("trace-gamma", "[1.5]")):
        rc, _, err = run(capsys, cmd, "--input", text)
        assert rc == 2
        assert err.startswith("error:") and "integers" in err


def test_prec_must_be_positive(capsys):
    for prec in ("0", "-5"):
        rc, out, err = run(capsys, "verify", "andrews_gordon", "--k", "2",
                           "--r", "1", "--prec", prec)
        assert rc == 2 and out == ""
        assert "error:" in err and ">= 1" in err


def test_sweep_max_k_must_be_positive(capsys):
    for max_k in ("0", "-1"):
        rc, out, err = run(capsys, "sweep", "--max-k", max_k, "--prec", "5")
        assert rc == 2 and out == ""
        assert "max k must be >= 1" in err and "Traceback" not in err


def test_sweep_jobs_must_be_positive(capsys):
    # below 1 the sweep would run in-process and ignore the flag
    for jobs in ("0", "-3"):
        rc, out, err = run(capsys, "sweep", "--max-k", "1", "--prec", "5",
                           "--jobs", jobs)
        assert rc == 2 and out == ""
        assert f"jobs must be >= 1, got {jobs}" in err
        assert "Traceback" not in err


def test_trace_gamma_rejects_k_below_one(capsys):
    for text, k in (("[]", "0"), ("[0]", "-2"), ("[1]", "0")):
        rc, out, err = run(capsys, "trace-gamma", "--input", text, "--k", k)
        assert rc == 2 and out == ""
        assert err == "error: k must be at least 1\n"


def test_verify_rejects_parameters_the_row_does_not_take(capsys):
    rc, out, err = run(capsys, "verify", "andrews_gordon", "--k", "2",
                       "--r", "1", "--j", "5")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "'j'" in err


# -- the exit-code contract over generated input ------------------------------

# JSON values of the wrong type for any field
_WRONG = st.sampled_from([None, True, 3, -1, 2.5, [], {}, ["BL_INF"]])
_MONOMIAL = st.sampled_from(["q", "1", "-1", "q^(1/2)", "q^(-1/2)", "-q",
                             "q^2", "-q^(3/2)", "q^(5/2)", "q^(-1)", "inf",
                             "q^", ""])


def _near(valid):
    """Mostly a valid value, now and then one of the wrong type."""
    return st.one_of(valid, valid, _WRONG)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _one_in(n):
    # true for the last of n choices: hypothesis favours the first
    return st.sampled_from(range(n)).map(lambda i: i == n - 1)


@st.composite
def _recipe(draw):
    seed = draw(st.fixed_dictionaries({}, optional={
        "kind": _near(st.sampled_from([*B.SEEDS, "unti"])),
        "a": _near(_MONOMIAL)}))
    steps = draw(st.lists(st.fixed_dictionaries(
        {"tag": _near(st.sampled_from([*B._TRANSFORMS, "BL"]))},
        optional={"rho": _near(_MONOMIAL), "b": _near(_MONOMIAL)}),
        max_size=3))
    # n_max is always given: its default of 10 is past the size bound
    recipe = {"seed": seed, "steps": steps,
              "n_max": draw(_near(st.integers(0, 4)))}
    if draw(st.booleans()):
        recipe["prec"] = draw(_near(st.integers(1, 12)))
    # a structural fault in about one recipe of three (faults 0-5 of
    # -14..5): a misspelt or missing key, or a seed, step or step list that
    # is no object or list
    fault = draw(st.sampled_from(range(-14, 6)))
    if fault == 0:
        recipe["stpes"] = recipe.pop("steps")
    elif fault == 1:
        seed["knd"] = "unit"
    elif fault == 2 and steps:
        del steps[0]["tag"]
    elif fault == 3:
        recipe[draw(st.sampled_from(["seed", "steps"]))] = draw(_WRONG)
    elif fault == 4 and steps:
        steps[0] = draw(_WRONG)
    elif fault == 5:
        recipe = draw(_WRONG)
    return recipe


@st.composite
def _near_valid_input(draw):
    """(argv, stdin) for one of six commands: argv that argparse takes (its
    own usage errors print a usage line and are pinned by the tests above)
    with values in and out of each command's domain, k <= 3, prec <= 12 and
    n_max <= 4; the bailey recipe comes on stdin, now and then cut short."""
    command = draw(st.sampled_from(["bailey", "verify", "trace-lambda",
                                    "trace-gamma", "enumerate", "interpret"]))
    prec = ["--prec", draw(_ints(1, 12))]
    stdin = ""
    if command == "verify":
        # the row's own parameters, each now and then left out, and now and
        # then one it does not take
        name = draw(st.sampled_from([*I.CATALOG, "rogers_ramanujn"]))
        given = [p for p in I.CATALOG[name].param_names
                 if not draw(_one_in(8))] if name in I.CATALOG else ["k"]
        if draw(_one_in(8)):
            given.append(draw(st.sampled_from(["k", "r", "j", "T"])))
        argv = [name, *prec]
        for p in dict.fromkeys(given):
            argv += (["--subset", ",".join(map(str, draw(st.lists(
                st.integers(0, 4), max_size=3))))] if p == "T"
                else [f"--{p}", draw(_ints(-1, 3))])
    elif command == "bailey":
        stdin = json.dumps(draw(_recipe()))
        if draw(_one_in(10)):
            stdin = stdin[:-1]
        argv = prec
    elif command == "trace-lambda":
        parts = st.lists(st.lists(_near(st.integers(-1, 4)), max_size=3),
                         max_size=3)
        obj = draw(st.one_of(parts, st.fixed_dictionaries(
            {"parts": _near(parts)}, optional={"size": st.just(1)}),
            _WRONG))
        argv = ["--input", json.dumps(obj)]
    elif command == "trace-gamma":
        seq = st.lists(_near(st.integers(-1, 3)), max_size=6)
        argv = ["--input", json.dumps(draw(_near(seq)))]
        if draw(st.booleans()):
            argv += ["--k", draw(_ints(-1, 3))]
    elif command == "enumerate":
        argv = ["--family", draw(st.sampled_from(sorted(S.FAMILIES))),
                "--k", draw(_ints(-1, 3)), "--max-weight", draw(_ints(-1, 6))]
        for flag in ("--r", "--j", "--s"):
            if draw(st.booleans()):
                argv += [flag, draw(_ints(-1, 3))]
    else:
        argv = ["--theorem", draw(st.sampled_from(sorted(S._INTERP))), *prec]
        for flag in ("--k", "--r", "--j"):
            argv += [flag, draw(_ints(-1, 3))]
    fmt = draw(st.sampled_from(["text", "json"]))
    return [command, *argv, "--format", fmt], stdin


def _run_with_stdin(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(case=_near_valid_input())
@example(case=(["bailey", "--prec", "3", "--format", "json"],
               '{"seed": {"kind": []}, "n_max": 2}'))
@example(case=(["bailey", "--prec", "3", "--format", "text"],
               '{"seed": {"a": 5}, "steps": [{"tag": ["BL_INF"]}], '
               '"n_max": 2}'))
def test_exit_codes_over_near_valid_input(case):
    # 0 means every check passed, 2 a usage or domain error, and no input
    # raises; 1 would be a real mismatch, which no valid input may give
    argv, stdin = case
    rc, out, err = _run_with_stdin(argv, stdin)
    assert rc in (0, 2), (rc, out, err)
    if rc == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err
    elif argv[-1] == "json":
        for line in out.splitlines():
            json.loads(line)


_DEEP = "[" * 2000 + "]" * 2000        # beyond json's recursion limit
_TOO_LARGE = {
    "trace-lambda, deep": (["trace-lambda", "--input", _DEEP], None, None),
    "trace-gamma, deep": (["trace-gamma", "--input", _DEEP], None, None),
    "bailey, deep": (["bailey"], _DEEP, None),
    # the frequency sequences of weight 1500 recurse once per part
    "enumerate, heavy": (["enumerate", "--family", "A", "--k", "1",
                          "--max-weight", "1500"], None, None),
    # k lists, and one tail entry per place a part passes
    "trace-gamma, large k": (["trace-gamma", "--input", "[1]", "--k",
                              "100000000"], None, 400 * 2 ** 20),
    "trace-lambda, large part": (["trace-lambda", "--input",
                                  "[[1000000000]]"], None, 400 * 2 ** 20),
}


def _limit_address_space(limit):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return cap


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(qident.__file__).parents[1]), os.environ.get("PYTHONPATH",
                                                                "")]))


def test_the_cli_starts_without_dataclasses():
    # every command starts a fresh interpreter; the records are namedtuples,
    # so the import of dataclasses (with inspect, ast, dis and tokenize)
    # stays out of its start-up
    done = subprocess.run(
        [sys.executable, "-c", "import sys, qident.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert done.returncode == 0, done
    assert done.stdout == "[]\n", done


def _records():
    """One value of each record type of the package, built as a caller
    would meet it."""
    spec = I.CATALOG["andrews_gordon"]
    pair = B.unit_pair(Q, 2, 9)
    return [Q, spec.lhs({"k": 2, "r": 1}), spec.rhs({"k": 2, "r": 1}), spec,
            I.verify_identity("andrews_gordon", {"k": 2, "r": 1}, 5), pair,
            B.TransformStep("BL_INF"), B.verify(pair), S.FAMILIES["A"],
            S.predicate("A", k=2), S.check_ztilde_relation(2, 1, 0, 3),
            M.lambda_map(((1,),), trace=True)[1]]


def test_no_field_of_a_record_can_be_assigned():
    records = _records()
    assert len({type(rec) for rec in records}) == 12
    for rec in records:
        for name in rec._fields + (("seed",) if hasattr(rec, "seed") else ()):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)


@pytest.mark.parametrize("case", _TOO_LARGE)
def test_inputs_beyond_the_process_limits_exit_2(case):
    # a RecursionError or MemoryError is an input too large to check: exit
    # 2 with one error line, in a child process, whose address space the
    # memory cases cap
    argv, stdin, limit = _TOO_LARGE[case]
    done = subprocess.run(
        [sys.executable, "-m", "qident.cli", *argv], input=stdin or "",
        capture_output=True, text=True, env=_child_env(), timeout=300,
        preexec_fn=limit and _limit_address_space(limit))
    assert done.returncode == 2, done
    assert done.stderr.startswith("error:"), done
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
