"""CLI parsing, printing, evaluation, exit codes, and the registry."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import certalg

from certalg.cli import (LAWFUL_INSTANCE_NAMES, default_seed, eval_frac, eval_int,
                         eval_poly, main, parse_command, resolve_instance, resolve_monoid,
                         run)
from certalg.eqprover import (MODES, Apply, NatConst, Neg, PowSym, UnitConst, Var,
                              format_expr, parse_expr)
from certalg.errors import (CompositeModulusError, InvalidInputError, ParseError,
                            StructuralError)
from cli_exprgen import random_expr

SRC = Path(certalg.__file__).resolve().parents[1]


# ================================================================
# expression grammar
# ================================================================


def test_parse_int_expression():
    tree = parse_expr("2 + 3 * (4 - 1)", "int")
    assert eval_int(tree) == 11


def test_parse_respects_precedence_and_associativity():
    assert eval_int(parse_expr("10 - 3 - 2", "int")) == 5
    assert eval_int(parse_expr("2 * 3 + 4", "int")) == 10
    assert eval_int(parse_expr("-2 * 3", "int")) == -6
    one, two, three, four, five, eight = map(NatConst, (1, 2, 3, 4, 5, 8))
    assert parse_expr("1 - 2 * 3 / 4 + 5", "frac") == Apply(
        "+", Apply("-", one, Apply("/", Apply("*", two, three), four)), five)
    assert parse_expr("8 / 4 / 2", "frac") == Apply("/", Apply("/", eight, four), two)
    assert parse_expr("-2 * -3 - 4", "int") == Apply(
        "-", Apply("*", Neg(two), Neg(three)), four)
    assert parse_expr("1 * 2 + 3 * 4 - 5", "int") == Apply(
        "-", Apply("+", Apply("*", one, two), Apply("*", three, four)), five)
    assert parse_expr("x + 2 * x^3", "poly") == Apply(
        "+", PowSym("x", 1), Apply("*", two, PowSym("x", 3)))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("1 + $", "int")
    assert exc.value.position == 4


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_expr("1 2", "int")


def test_parse_rejects_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expr("(1 + 2", "int")


def test_division_is_only_for_fractions():
    with pytest.raises(ParseError):
        parse_expr("4 / 2", "int")
    with pytest.raises(ParseError):
        parse_expr("x / 2", "poly")
    assert str(eval_frac(parse_expr("4 / 2", "frac"))) == "2"


def test_names_need_the_right_mode():
    with pytest.raises(ParseError):
        parse_expr("x + 1", "int")
    with pytest.raises(ParseError):
        parse_expr("y + 1", "poly")
    parse_expr("x + 1", "poly")
    parse_expr("foo * bar", "term")
    with pytest.raises(StructuralError, match="unknown expression mode 'bogus'"):
        parse_expr("1", "bogus")


def test_term_mode_has_no_subtraction_or_negation():
    with pytest.raises(ParseError):
        parse_expr("x - y", "term")
    with pytest.raises(ParseError):
        parse_expr("-x", "term")


def test_format_expr_round_trips_structurally():
    samples = [
        "1 + 2 * 3",
        "(1 + 2) * 3",
        "-4",
        "-(1 + 2)",
        "2 * x^2 + x + -1",
        "1 + (2 + 3)",
        "10 - (3 - 2)",
    ]
    for text in samples:
        mode = "poly" if "x" in text else "int"
        tree = parse_expr(text, mode)
        assert parse_expr(format_expr(tree), mode) == tree


@pytest.mark.parametrize("mode", ["int", "frac", "poly", "term"])
def test_random_round_trip_per_mode(mode):
    from cli_exprgen import random_expr
    rng = random.Random(sum(map(ord, mode)))
    for _ in range(200):
        tree = random_expr(rng, mode, 4)
        assert parse_expr(format_expr(tree), mode) == tree


def test_poly_text_round_trips_by_value():
    for text in ["x^2 + x + 2", "3*x^5 - 2*x - 1", "0", "-x", "7"]:
        p = eval_poly(parse_expr(text, "poly"))
        assert eval_poly(parse_expr(str(p), "poly")) == p


def test_term_mode_parses_e_to_the_unit():
    assert parse_expr("x * e", "term") == Apply("*", Var("x"), UnitConst())


# ================================================================
# registry
# ================================================================


def test_instance_names_cover_dynamic_moduli():
    for name in ("nat-add", "zmod12-ring", "zmod97-field", "nat-monus"):
        assert parse_command(["laws", name]).names == [name]
    for name in ("zmod12-banana", "octonions", "zmod7-mul"):
        with pytest.raises(ParseError, match="unknown instance"):
            parse_command(["laws", name])


def test_resolve_instance_builds_working_structures():
    z = resolve_instance("zmod5-ring")
    assert z.ops["add"].__call__ is not None
    assert resolve_instance("nat-add") is resolve_instance("nat-add")
    with pytest.raises(ParseError, match="unknown instance 'no-such'"):
        resolve_instance("no-such")


def test_monoid_names():
    for name in ("nat-mul", "zmod7-mul"):
        assert parse_command(["pow", name, "2", "3"]).monoid == name
    for name in ("zmod7-field", "nat-pos-mul"):
        with pytest.raises(ParseError, match="unknown monoid"):
            parse_command(["pow", name, "2", "3"])
    m = resolve_monoid("zmod7-mul")
    assert m.ops["identity"]().value == 1


# ================================================================
# commands end to end
# ================================================================


def run_argv(argv):
    return run(parse_command(argv))


def test_egcd_command():
    code, text = run_argv(["egcd", "12", "8"])
    assert code == 0
    assert text == "g=4 u=1 v=-1 qa=3 qb=2"


# the documents egcd printed while its certificate came from a loop over the
# quotients; -40 -21 and -7 -3 take the odd-modulus tie with b < 0
EGCD_JSON = {
    ("-40", "-21"): {"a": -40, "b": -21, "g": 1, "u": 11, "v": -21, "qa": -40, "qb": -21},
    ("-7", "-3"): {"a": -7, "b": -3, "g": 1, "u": 2, "v": -5, "qa": -7, "qb": -3},
    ("7", "-3"): {"a": 7, "b": -3, "g": 1, "u": 1, "v": 2, "qa": 7, "qb": -3},
    ("0", "-5"): {"a": 0, "b": -5, "g": 5, "u": 0, "v": -1, "qa": 0, "qb": -1},
    ("-5", "0"): {"a": -5, "b": 0, "g": 5, "u": -1, "v": 0, "qa": -1, "qb": 0},
    ("0", "0"): {"a": 0, "b": 0, "g": 0, "u": 1, "v": 0, "qa": 1, "qb": 1},
    ("12", "8"): {"a": 12, "b": 8, "g": 4, "u": 1, "v": -1, "qa": 3, "qb": 2},
}


@pytest.mark.parametrize("args", EGCD_JSON, ids=" ".join)
def test_egcd_json_documents_are_pinned(args, capsys):
    assert main(["egcd", *args, "--json"]) == 0
    expected = {"command": "egcd", **EGCD_JSON[args], "verified": True}
    assert capsys.readouterr().out == json.dumps(expected) + "\n"


def test_factor_command_with_unit():
    code, text = run_argv(["factor", "--", "-60"])
    assert code == 0
    assert text == "-60 = -1 * 2^2 * 3 * 5"


def test_factor_json_document():
    code, text = run_argv(["factor", "60", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["factors"] == [[2, 2], [3, 1], [5, 1]]
    assert doc["verified"] is True


def test_isprime_both_verdicts_exit_zero():
    code, text = run_argv(["isprime", "97"])
    assert (code, text) == (0, "97: prime")
    code, text = run_argv(["isprime", "91"])
    assert code == 0
    assert "7 | 91" in text


def test_residue_command():
    code, text = run_argv(["residue", "-m", "6", "4 + 5"])
    assert (code, text) == (0, "3 (mod 6)")


def test_residue_field_division():
    code, text = run_argv(["residue", "-m", "7", "--field", "1/3"])
    assert (code, text) == (0, "5 (mod 7)")


def test_frac_command():
    code, text = run_argv(["frac", "1/6 + 1/4"])
    assert (code, text) == (0, "5/12")


def test_poly_command():
    code, text = run_argv(["poly", "(x + 1) * (x + 1)"])
    assert (code, text) == (0, "x^2 + 2*x + 1")


def test_sort_command():
    code, text = run_argv(["sort", "5", "3", "9", "1"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "ys: 1 3 5 9"
    assert lines[2] == "verified: true"


def test_sort_reads_stdin_when_no_args(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("4 2 8\n"))
    code, text = run_argv(["sort"])
    assert code == 0
    assert text.splitlines()[0] == "ys: 2 4 8"


def test_pow_command():
    code, text = run_argv(["pow", "zmod7-mul", "3", "100"])
    assert (code, text) == (0, "4 (mod 7)")
    code, text = run_argv(["pow", "nat-mul", "2", "10"])
    assert (code, text) == (0, "1024")


def test_pow_bin_add_command():
    code, text = run_argv(["pow", "bin-add", "5", "3"])
    assert (code, text) == (0, "0b1111")
    code, text = run_argv(["pow", "bin-add", "5", "3", "--json"])
    assert code == 0
    assert json.loads(text)["result"] == [1, 1, 1, 1]
    assert run_argv(["pow", "bin-add", "--", "-5", "3"])[0] == 7


def test_prove_command_verdicts():
    code, text = run_argv(["prove", "--theory", "csr", "x*(y+z) = x*y + x*z"])
    assert code == 0
    assert text.startswith("YES")
    code, text = run_argv(["prove", "--theory", "monoid", "x*y = y*x"])
    assert code == 0
    assert text.startswith("NO")


def test_laws_smoke():
    code, text = run_argv(["laws", "nat-add", "--budget", "60"])
    assert code == 0
    assert "nat-add: ok" in text


def test_laws_json_lists_instances():
    code, text = run_argv(["laws", "nat-add", "int-add", "--budget", "50", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["ok"] is True
    assert [i["name"] for i in doc["instances"]] == ["nat-add", "int-add"]


# (kind, cases) of each `laws --all` instance at seed 1, budget 200, sweep 4
LAWS_ALL = {
    "nat-add": ("CommutativeMonoid", 900),
    "nat-mul": ("CommutativeMonoid", 900),
    "nat-pos-mul": ("CCMonoid", 1428),
    "int-add": ("CommutativeGroup", 1740),
    "int-ring": ("EuclideanRing", 3600),
    "int-ufd": ("UniqueFactorizationRing", 3588),
    "nat-factor-monoid": ("FactorizationMonoid", 1632),
    "bin-add": ("CommutativeMonoid", 900),
    "frac-field": ("Field", 3360),
    "poly-int-add": ("CommutativeGroup", 1740),
    "poly-zmod7-add": ("CommutativeGroup", 1740),
    "zmod6-ring": ("CommutativeRing", 2736),
    "zmod12-ring": ("CommutativeRing", 2736),
    "zmod7-field": ("Field", 3360),
    "zmod97-field": ("Field", 3360),
}


def test_laws_all_json_pins_kinds_and_case_counts(monkeypatch):
    monkeypatch.delenv("CERTALG_SEED", raising=False)
    code, text = run_argv(["laws", "--all", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert (doc["seed"], doc["budget"], doc["sweep"], doc["ok"]) == (1, 200, 4, True)
    assert {i["name"]: (i["kind"], i["cases"]) for i in doc["instances"]} == LAWS_ALL
    assert all(i["failures"] == [] for i in doc["instances"])


# ================================================================
# exit codes, one fixture each
# ================================================================


def test_exit_0_success():
    assert run_argv(["factor", "60"])[0] == 0


def test_exit_2_parse_error():
    with pytest.raises(ParseError):
        parse_command(["laws", "no-such-instance"])
    code, text = run_argv(["frac", "1 +"])
    assert code == 2
    assert text.startswith("error:")


def test_laws_rejects_negative_budget_and_sweep(capsys):
    assert main(["laws", "nat-add", "--budget", "-5"]) == 2
    assert main(["laws", "nat-add", "--sweep", "-1"]) == 2
    assert "natural" in capsys.readouterr().err


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_laws_budget_is_at_most_2_to_the_16(as_json, capsys):
    # the sample pool grows with the budget; 2^16 + 1 is refused before any
    # sampling, 2^16 is accepted
    assert parse_command(["laws", "nat-add", "--budget", "65536"]).budget == 65536
    assert main(["laws", "nat-add", "--budget", "65537"] + (["--json"] if as_json else [])) == 2
    out, err = capsys.readouterr()
    message = json.loads(err)["message"] if as_json else err
    assert out == "" and "at most 2^16" in message and "65537" in message


@pytest.mark.parametrize("argv", [
    ["laws", "nat-add", "--budget", "-5"],
    ["laws"],
    ["laws", "nat-add", "--budget", "0", "--sweep", "0"],
    ["laws", "nat-add"],  # with a malformed CERTALG_SEED
    ["pow", "no-such-monoid", "2", "3"],
])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_argument_errors_name_no_position(argv, as_json, capsys, monkeypatch):
    monkeypatch.setenv("CERTALG_SEED", "x")
    assert main(argv + (["--json"] if as_json else [])) == 2
    err = capsys.readouterr().err
    message = json.loads(err)["message"] if as_json else err
    assert message.strip() and "position" not in message


def test_exit_3_division_by_zero():
    assert run_argv(["frac", "1/0"])[0] == 3


def test_exit_4_composite_modulus():
    code, text = run_argv(["residue", "-m", "6", "--field", "1/3"])
    assert code == 4
    assert "composite" in text


def test_exit_5_law_failures():
    code, text = run_argv(["laws", "nat-monus", "--budget", "60"])
    assert code == 5
    assert "associativity" in text


def test_exit_6_structural_misuse():
    assert run_argv(["prove", "--theory", "monoid", "x+y = x"])[0] == 6


def test_exit_7_invalid_input():
    assert run_argv(["isprime", "1"])[0] == 7


def test_error_documents_in_json_mode():
    code, text = run_argv(["residue", "-m", "6", "--field", "1/3", "--json"])
    assert code == 4
    doc = json.loads(text)
    assert doc["error"] == "composite-modulus"
    assert doc["witness_divisor"] == 2


# each error class a handler can raise: its exit code and JSON "error" kind
RAISED = {
    "parse": (ParseError("bad token", 3), 2),
    "division-by-zero": (ZeroDivisionError("division by zero"), 3),
    "composite-modulus": (CompositeModulusError(certalg.is_prime(6)), 4),
    "structural": (StructuralError("missing op"), 6),
    "invalid-input": (InvalidInputError("forged witness"), 7),
}


@pytest.mark.parametrize("kind", RAISED)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_run_maps_each_error_class_to_its_exit_code_and_kind(kind, as_json):
    exc, code = RAISED[kind]

    def handler(ns):
        raise exc

    got, text = run(argparse.Namespace(handler=handler, as_json=as_json))
    assert got == code
    if as_json:
        doc = json.loads(text)
        assert (doc["error"], doc["message"]) == (kind, str(exc))
    else:
        assert text == f"error: {exc}"


# ================================================================
# main() and environment
# ================================================================


def test_main_returns_exit_code(capsys):
    assert main(["egcd", "12", "8"]) == 0
    assert capsys.readouterr().out.strip() == "g=4 u=1 v=-1 qa=3 qb=2"


def test_main_usage_error(capsys):
    assert main(["no-such-command"]) == 2
    assert "error" in capsys.readouterr().err


def test_seed_env_var(monkeypatch):
    monkeypatch.setenv("CERTALG_SEED", "42")
    assert default_seed() == 42
    cmd = parse_command(["laws", "nat-add"])
    assert cmd.seed == 42
    monkeypatch.setenv("CERTALG_SEED", "pear")
    with pytest.raises(ParseError):
        default_seed()


# ================================================================
# bounded work: nesting depth, empty law suites, large moduli
# ================================================================


def test_deep_nesting_is_a_parse_error():
    for text in ("(" * 3000 + "1" + ")" * 3000, "1+" * 3000 + "1",
                 "-(" * 1500 + "1" + ")" * 1500):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr(text, "frac")
        assert main(["frac", "--", text]) == 2
    assert eval_int(parse_expr("(" * 99 + "1" + ")" * 99, "int")) == 1
    assert eval_int(parse_expr("+".join(["1"] * 100), "int")) == 100


def test_laws_with_no_budget_and_no_sweep_is_a_usage_error():
    with pytest.raises(ParseError):
        parse_command(["laws", "nat-add", "--budget", "0", "--sweep", "0"])
    assert main(["laws", "nat-add", "--budget", "0", "--sweep", "0"]) == 2
    assert run_argv(["laws", "nat-add", "--budget", "0"])[0] == 0


def test_isprime_out_of_fuel_exits_7_with_a_reason(monkeypatch):
    from certalg import primes
    monkeypatch.setattr(primes, "RHO_FUEL", 256)
    n = (2**31 - 1) * (2**32 - 5)
    code, text = run_argv(["isprime", str(n), "--json"])
    assert code == 7
    doc = json.loads(text)
    assert doc["error"] == "invalid-input" and "fuel" in doc["message"]


@pytest.mark.parametrize("theory,equation,message", [
    ("monoid", "x + y = x", "operator '+' outside the monoid theory"),
    ("semiring", "e * x = x", "the identity symbol belongs to the monoid theory"),
])
def test_prove_refusal_exits_6_with_the_provers_message(theory, equation, message, capsys):
    assert main(["prove", "--theory", theory, equation]) == 6
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _child(*argv):
    """Run the CLI as a child process; a hang fails the test after 5 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-m", "certalg.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=5)


def _cli(*argv):
    proc = _child(*argv, "--json")
    out = proc.stdout if proc.returncode == 0 else proc.stderr
    return proc.returncode, json.loads(out)


def test_hang_guard_61_bit_prime():
    code, doc = _cli("isprime", str(2**61 - 1))
    assert code == 0 and doc["verdict"] == "prime"


def test_hang_guard_18_digit_factor():
    code, doc = _cli("factor", "999999999999999989")
    assert code == 0 and doc["verified"] is True
    assert doc["factors"] == [[999999999999999989, 1]]


def test_hang_guard_field_over_a_61_bit_modulus():
    code, doc = _cli("residue", "-m", str(2**61 - 1), "--field", "1/3")
    assert code == 0 and doc["value"] == 1537228672809129301


@pytest.mark.parametrize("command", ["isprime", "factor"])
@pytest.mark.parametrize("n", [10**199 + 153, (10**99 + 289) * (10**100 + 267)],
                         ids=["prime", "semiprime"])
def test_hang_guard_200_digit_inputs(command, n):
    # either a certificate that verifies or exit 7, always within the timeout
    code, doc = _cli(command, str(n))
    assert code in (0, 7)
    if code == 7:
        assert doc["error"] == "invalid-input" and "fuel" in doc["message"]
    elif command == "isprime":
        assert doc["verdict"] == ("prime" if n == 10**199 + 153 else "composite")
    else:
        assert doc["verified"] is True


def test_hang_guard_bin_add_power_with_a_1000_digit_exponent():
    n = 10**1000 - 7
    code, doc = _cli("pow", "bin-add", "5", str(n))
    assert code == 0
    assert doc["result"] == [int(b) for b in reversed(format(5 * n, "b"))]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_hang_guard_bin_add_power_with_a_4300_digit_base_and_exponent(as_json):
    # the largest operands the digit limit admits: one decode, one encode
    b, n = 10**4299 + 12345, 10**4300 - 7
    proc = _child("pow", "bin-add", str(b), str(n), *(["--json"] if as_json else []))
    assert proc.returncode == 0 and proc.stderr == ""
    bits = format(b * n, "b")
    if as_json:
        assert json.loads(proc.stdout)["result"] == [int(c) for c in reversed(bits)]
    else:
        assert proc.stdout == f"0b{bits}\n"


def test_hang_guard_prove_refuses_a_normal_form_past_the_term_bound():
    # (x+y)^30 has 2^30 semiring words; the product past 2^16 terms is refused
    code, doc = _cli("prove", "--theory", "semiring", "*".join(["(x+y)"] * 30) + " = x")
    assert code == 7
    assert doc["error"] == "invalid-input" and "too large" in doc["message"]


def test_hang_guard_prove_refuses_a_sum_past_the_term_bound():
    # each 16-factor product has 2^16 monomials; adding two of them is refused
    products = ["*".join(f"({v}{i} + w{v}{i})" for i in range(16)) for v in "abc"]
    code, doc = _cli("prove", "--theory", "csr", " + ".join(products) + " = x")
    assert code == 7
    assert doc["error"] == "invalid-input" and "too large" in doc["message"]
    code, doc = _cli("prove", "--theory", "csr", products[0] + " = x")
    assert code == 0 and doc["verdict"] is False
    assert doc["left_normal"].count(" + ") == 2**16 - 1


def _doubling_product(k):
    """(1 + x)(1 + x^2)...(1 + x^(2^(k-1))): 2^k terms over 2^k exponents."""
    return "*".join(f"(1 + x^{2**i})" for i in range(k))


def test_hang_guard_poly_product_at_the_bound_still_answers():
    proc = _child("poly", _doubling_product(16))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == " + ".join(f"x^{e}" for e in range(65535, 1, -1)) + " + x + 1\n"


@pytest.mark.parametrize("k", [17, 30])
def test_hang_guard_poly_product_past_the_bound_is_refused(k):
    code, doc = _cli("poly", _doubling_product(k))
    assert code == 7
    assert doc["error"] == "invalid-input" and "too large" in doc["message"]


def _binomial_product(k):
    """(a0 + b0)*(a1 + b1)*...: 2^k monomials from 2^(k+1) - 4 term pairs."""
    return "*".join(f"(a{i} + b{i})" for i in range(k))


def _balanced_sum(term, size):
    """Copies of (term) summed to about size characters, paired level by
    level so that the sum stays within the parser's depth limit."""
    items = [f"({term})"] * (size // (len(term) + 5))
    while len(items) > 1:
        items = [f"({' + '.join(items[i:i + 2])})" for i in range(0, len(items), 2)]
    return items[0]


@pytest.mark.parametrize("argv", [
    ("prove", "--theory", "csr", " + ".join([f"({_binomial_product(16)})"] * 8) + " = x"),
    ("poly", " + ".join([f"({_doubling_product(16)})"] * 8)),
    ("prove", "--theory", "csr", _balanced_sum(_binomial_product(16), 100_000) + " = x"),
    ("poly", _balanced_sum(_doubling_product(16), 100_000)),
    ("poly", f"({_doubling_product(16)}) + ({_doubling_product(16)})"),
], ids=["prove-8-copies", "poly-8-copies", "prove-100kb", "poly-100kb", "poly-2-copies"])
def test_hang_guard_one_fuel_bounds_the_products_of_a_whole_expression(argv):
    # each copy answers alone; together they pass the one limit of the call
    code, doc = _cli(*argv)
    assert code == 7
    assert doc["error"] == "invalid-input" and "too large" in doc["message"]


def test_hang_guard_each_side_of_prove_has_its_own_fuel():
    p16 = _binomial_product(16)
    code, doc = _cli("prove", "--theory", "csr", f"{p16} = {p16}")
    assert code == 0 and doc["verdict"] is True


def test_poly_bound_takes_the_fewer_of_term_pairs_and_exponents():
    # 512 by 512 terms over 1023 exponents: dense, so it answers
    p = f"({_doubling_product(9)})"
    code, text = run_argv(["poly", f"{p} * {p}"])
    assert code == 0 and text.startswith("x^1022 + 2*x^1021 + 3*x^1020 + ")
    assert text.endswith(" + 3*x^2 + 2*x + 1")


@pytest.mark.parametrize("expr, out", [
    ("x^99999999999 * (x + 1)", "x^100000000000 + x^99999999999"),
    ("(x^99999999999 + 1) * (x^99999999999 - 1)", "x^199999999998 - 1"),
])
def test_hang_guard_sparse_poly_product_with_a_huge_exponent(expr, out):
    # poly_mul never takes more exponent slots than term pairs, not 10^11
    proc = _child("poly", expr)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == out + "\n"


def test_bin_add_power_with_a_4000_digit_base():
    b, n = 10**4000, 2**1200
    code, doc = _cli("pow", "bin-add", str(b), str(n))
    assert code == 0
    assert doc["result"] == [int(c) for c in reversed(format(b * n, "b"))]


# ================================================================
# the interpreter's digit limit: literals exit 2, results exit 7
# ================================================================


def _digit_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter has no digit limit")
    return limit


def test_oversized_literal_is_a_parse_error():
    limit = _digit_limit()
    with pytest.raises(ParseError, match=f"longer than {limit} digits"):
        parse_expr("1 + " + "7" * (limit + 1), "int")
    assert eval_int(parse_expr("9" * limit, "int")) == 10**limit - 1
    assert main(["frac", "1" * max(5000, limit + 1)]) == 2
    with pytest.raises(ParseError):
        resolve_instance("zmod" + "7" * (limit + 1) + "-ring")
    # '²' is a digit to str.isdigit but not to int()
    assert main(["frac", "²"]) == 2


OVERSIZED = {
    "pow-3^100000": ("pow", "nat-mul", "3", "100000"),
    "pow-3^100000000": ("pow", "nat-mul", "3", "100000000"),
    "frac-product": ("frac", "*".join(["9" * 4000] * 3)),
}


@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED.keys())
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_oversized_result_exits_7(argv, as_json):
    _digit_limit()
    proc = _child(*argv, *(["--json"] if as_json else []))
    assert proc.returncode == 7 and proc.stdout == ""
    if as_json:
        assert json.loads(proc.stderr)["error"] == "invalid-input"
    else:
        assert proc.stderr.startswith("error:") and "digits" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["sort", "*".join(["9" * 3000] * 2)],
    ["poly", "*".join(["9" * 3000] * 2) + "*x"],
    ["prove", "--theory", "csr", "*".join(["9" * 3000] * 2) + "*x = x"],
], ids=["sort", "poly", "prove"])
def test_oversized_results_of_other_commands_exit_7(argv):
    _digit_limit()
    assert run_argv(argv)[0] == 7
    assert run_argv([*argv, "--json"])[0] == 7


def test_pow_below_the_digit_limit_still_prints():
    assert run_argv(["pow", "nat-mul", "9", "200"]) == (0, str(9**200))
    assert run_argv(["pow", "nat-mul", "1", "100000000"]) == (0, "1")


# ================================================================
# JSON mode covers parse errors too
# ================================================================


@pytest.mark.parametrize("argv", [
    ["laws", "nat-add", "--budget", "-5"],
    ["egcd", "1", "x"],
    ["prove", "--theory", "foo", "x=x"],
    ["no-such-command"],
])
def test_parse_errors_in_json_mode_are_json_documents(argv, capsys):
    assert main([*argv, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "parse"


def test_json_after_the_option_marker_is_an_argument(capsys):
    assert main(["egcd", "1", "--", "--json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ================================================================
# argparse dispatch: every subcommand has a handler, --json and --help
# ================================================================


MINIMAL_ARGS = {
    "laws": ["nat-add", "--budget", "5"], "factor": ["12"], "egcd": ["12", "8"],
    "isprime": ["7"], "residue": ["-m", "5", "2 * 3"], "frac": ["1/2"],
    "poly": ["x + 1"], "sort": ["3", "1"], "pow": ["nat-add", "2", "3"],
    "prove": ["--theory", "monoid", "x = x"],
}


@pytest.mark.parametrize("command", MINIMAL_ARGS)
def test_each_subcommand_dispatches_to_its_handler(command, capsys):
    ns = parse_command([command, *MINIMAL_ARGS[command], "--json"])
    assert callable(ns.handler) and ns.as_json is True
    code, text = run(ns)
    assert code == 0 and json.loads(text)["command"] == command
    # the `certalg` script is sys.exit(main())
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: certalg {command}")


def test_the_script_entry_point_is_main():
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert 'certalg = "certalg.cli:main"' in pyproject


# ================================================================
# every run ends in a documented exit code
# ================================================================


def _expr_text(seed_and_mode):
    seed, mode = seed_and_mode
    return format_expr(random_expr(random.Random(seed), mode, 3))


# `--all` and `--help` stay out: the first runs the whole roster, the second
# prints usage text instead of a document
ARGV_TOKENS = st.one_of(
    st.integers(-300, 300).map(str),
    st.tuples(st.integers(0, 2**32), st.sampled_from(MODES)).map(_expr_text),
    st.sampled_from(["nat-add", "nat-mul", "int-add", "bin-add", "nat-monus",
                     "zmod7-mul", "zmod6-ring", "zmod7-field", "zmod6-field",
                     "zmod1-ring", "zmod0-mul", "octonions", "--json", "-m", "--field",
                     "--budget", "--sweep", "--seed", "--order", "frac", "--theory",
                     "monoid", "csr", "semiring", "--", "0", "1" * 5000,
                     "*".join(["9" * 3000] * 2)]),
    st.text("-+*/^()=x0129e_ ²١", max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(list(MINIMAL_ARGS) + ["bogus"]),
       tokens=st.lists(ARGV_TOKENS, max_size=6), as_json=st.booleans())
def test_every_run_ends_in_a_documented_exit_code(command, tokens, as_json):
    argv = [command, *(["--json"] if as_json else []), *tokens]
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO("3 1/2 -4")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 2, 3, 4, 5, 6, 7)
    if as_json:
        doc, other = (out, err) if code == 0 else (err, out)
        assert other.getvalue() == ""
        json.loads(doc.getvalue())  # raises unless exactly one document


def _maybe(strategy, bad):
    """strategy's value, or about one time in ten a value from bad."""
    return st.tuples(st.integers(0, 9), strategy, st.sampled_from(bad)).map(
        lambda t: t[2] if t[0] == 0 else t[1])


def _expr(mode):
    return st.integers(0, 2**32).map(lambda seed: _expr_text((seed, mode)))


def _int(lo, hi, bad=("x", "", "1.5", "1" * 5000)):
    return _maybe(st.integers(lo, hi).map(str), bad)


def _options(**flags):
    """Each flag with its value, or left out, in a drawn order."""
    pairs = [st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v]))
             for flag, value in flags.items()]
    return st.tuples(*pairs).flatmap(st.permutations).map(lambda ps: sum(ps, []))


_NAMES = st.sampled_from([*LAWFUL_INSTANCE_NAMES, "nat-monus", "zmod2-ring", "zmod13-field"])
_MONOID_NAMES = st.sampled_from(["nat-add", "nat-mul", "int-add", "bin-add", "zmod7-mul",
                                 "zmod12-mul"])

# well-formed argvs per subcommand: registered names, in-range numbers and
# generated expressions, each value now and then swapped for a bad one
WELL_FORMED_ARGV = st.one_of(
    st.tuples(_maybe(st.lists(_NAMES, min_size=1, max_size=3),
                     (["zmod1-ring"], ["zmod6-field"], ["zmod7-mul"], ["octonions"], [])),
              _options(**{"--budget": _int(0, 40, ("-5", str(2**17))),
                          "--sweep": _int(0, 4, ("-1",)), "--seed": _int(0, 2**31)})
              ).map(lambda t: ["laws", *t[0], *t[1]]),
    _int(-10**12, 10**12).map(lambda n: ["factor", "--", n]),
    st.tuples(_int(-2**64, 2**64), _int(-2**64, 2**64)).map(
        lambda t: ["egcd", "--", *t]),
    _int(-10, 2**40).map(lambda n: ["isprime", "--", n]),
    st.tuples(_int(-100, 10**4, ("0", "1", "-1", "x")), st.booleans(), _expr("int")).map(
        lambda t: ["residue", "-m", t[0], *(["--field"] if t[1] else []), "--", t[2]]),
    _maybe(_expr("frac"), ("1/0", "1/(2-2)", "", "2 ^ 3")).map(lambda e: ["frac", "--", e]),
    _maybe(_expr("poly"), ("x^-1", "", "x / 2", "y")).map(lambda e: ["poly", "--", e]),
    st.one_of(
        st.lists(_int(-10**6, 10**6), max_size=5).map(lambda vs: ["sort", "--", *vs]),
        st.lists(st.tuples(st.integers(-50, 50), st.integers(-3, 9)).map(
                 lambda t: f"{t[0]}/{t[1]}"), max_size=5).map(
            lambda vs: ["sort", "--order", "frac", "--", *vs])),
    st.tuples(_maybe(_MONOID_NAMES, ("zmod0-mul", "nat-monus", "int-ring")),
              _int(-5, 300), _int(0, 2000, ("-1", "x"))).map(
        lambda t: ["pow", t[0], "--", *t[1:]]),
    st.tuples(_maybe(st.sampled_from(["monoid", "csr", "semiring", "commsemiring"]),
                     ("group", "")),
              _expr("term"), _expr("term")).map(
        lambda t: ["prove", "--theory", t[0], "--", f"{t[1]} = {t[2]}"]),
)


@settings(max_examples=300, deadline=None)
@given(argv=WELL_FORMED_ARGV, as_json=st.booleans())
def test_every_well_formed_run_ends_in_a_documented_exit_code(argv, as_json):
    argv = [argv[0], *(["--json"] if as_json else []), *argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO("3 1/2 -4")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 2, 3, 4, 5, 6, 7)
    if as_json:
        doc, other = (out, err) if code == 0 else (err, out)
        assert other.getvalue() == ""
        json.loads(doc.getvalue())  # raises unless exactly one document
