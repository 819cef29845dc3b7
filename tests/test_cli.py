"""Command-line behaviour: exit codes, formats, determinism."""

import json

from qident.cli import main


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
    rc, _, err = run(capsys, "verify", "stanton_32", "--k", "1", "--r", "1",
                     "--j", "1")
    assert rc == 2
    assert "r + j <= k" in err or "error" in err


def test_verify_unknown_name(capsys):
    rc, _, err = run(capsys, "verify", "whatever", "--k", "1")
    assert rc == 2


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


def test_sweep_exit_code_and_coverage(capsys):
    rc, out, _ = run(capsys, "sweep", "--max-k", "1", "--prec", "20",
                     "--format", "json")
    assert rc == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    from qident.identities import CATALOG_ORDER
    assert {row["name"] for row in rows} == set(CATALOG_ORDER)
    assert all(row["equal"] for row in rows)


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
    assert rc == 0 and "equal=True" in out


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


def test_bailey_field_of_the_wrong_type(capsys, tmp_path):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"seed": {"kind": "unit"}, "prec": [3]}))
    rc, _, err = run(capsys, "bailey", "--input", str(path))
    assert rc == 2
    assert err.startswith("error: malformed recipe")


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


def test_verify_rejects_parameters_the_row_does_not_take(capsys):
    rc, out, err = run(capsys, "verify", "andrews_gordon", "--k", "2",
                       "--r", "1", "--j", "5")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "'j'" in err
