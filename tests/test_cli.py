import argparse
import io
import json
import re
import sys
from argparse import ArgumentTypeError
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arcfield import cli
from arcfield.cli import _float, _fraction, _integer, main
from arcfield.errors import ConfigError
from arcfield.puiseux import get_ram_cap


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestCounterexample:
    def test_default_run_reports_witness(self):
        code, out, err = run(["counterexample", "--emit", "structured"])
        assert code == 2 and not err
        record = json.loads(out)
        assert record["status"] == "witness"
        w = record["payload"]["divergence_witness"]
        assert (w["t_exp"], w["eps_exp"], w["coeff"]) == ("3", -1, "1/4")
        assert record["payload"]["factor_product"]["is_one"] is True
        assert record["payload"]["monotone_bound"]["ok"] is True
        assert record["payload"]["jacobian_at_origin"]["det"] == 1.0

    def test_below_minimum_order(self):
        code, out, err = run(["counterexample", "--t-order", "2"])
        assert code == 1
        assert "t-order" in err

    def test_determinism_byte_identical(self):
        args = ["counterexample", "--t-order", "6", "--emit", "structured",
                "--grid-step", "0.1"]
        _, out1, _ = run(args)
        _, out2, _ = run(args)
        assert out1 == out2


class TestProbe:
    def test_holder_cube_root(self):
        code, out, _ = run([
            "probe", "holder", "--map", "x^(1/3)", "--vars", "x",
            "--unit-lead", "--trials", "60", "--emit", "structured",
        ])
        assert code == 0
        record = json.loads(out)
        assert record["payload"]["alpha"] == "1/3"

    def test_holder_two_dimensional_map(self):
        code, out, _ = run([
            "probe", "holder", "--map", "(x*(1 + y^2/(x^2+y^2))^(1/4), y)",
            "--min-ord", "1,2", "--trials", "25", "--emit", "structured",
        ])
        assert code == 0
        record = json.loads(out)
        assert record["payload"]["alpha"] != "0"
        assert record["payload"]["sample_count"] == 25

    def test_transport_square_witness(self):
        code, out, _ = run([
            "probe", "transport", "--transfer-kind", "injective",
            "--map", "x^2", "--vars", "x", "--trials", "50",
            "--emit", "structured",
        ])
        assert code == 2
        record = json.loads(out)
        assert record["status"] == "witness"
        assert record["payload"]["witness"] == [["t"], ["-t"]]

    def test_transport_cube_passes(self):
        code, out, _ = run([
            "probe", "transport", "--transfer-kind", "injective",
            "--map", "x^3", "--vars", "x", "--trials", "50",
        ])
        assert code == 0

    def test_transport_surjective_preimage_with_tall_coefficients(self):
        # seed 91 draws arcs whose preimage branch has numerators past 10^14
        code, _out, err = run([
            "probe", "transport", "--transfer-kind", "surjective",
            "--map", "x^3 + x^2", "--vars", "x", "--trials", "5", "--seed", "91",
        ])
        assert code == 0, err

    def test_transport_surjective_zero_base_under_the_zero_power(self):
        # the preimage solver powers the constant 0 by the kernel's rule: 0^0 = 1
        code, out, err = run([
            "probe", "transport", "--transfer-kind", "surjective",
            "--map", "x + 0^0", "--vars", "x", "--trials", "2", "--emit", "structured",
        ])
        assert code == 0, err
        assert json.loads(out)["status"] == "pass"

    def test_transport_surjective_square_through_unknown_preimage(self):
        # the preimage branches are O(t^8), whose square must be O(t^16)
        code, _out, err = run([
            "probe", "transport", "--transfer-kind", "surjective",
            "--map", "x^2", "--vars", "x", "--trials", "5", "--target", "8",
            "--seed", "56",
        ])
        assert code == 0, err

    def test_loja_square_root_law(self):
        code, out, _ = run([
            "probe", "loja", "--phi1", "x^2", "--phi2", "x", "--vars", "x",
            "--box=-1,1", "--trials", "150", "--emit", "structured",
        ])
        assert code == 0
        record = json.loads(out)
        assert abs(record["payload"]["r"] - 0.5) < 1e-6

    def test_unif(self):
        code, out, _ = run([
            "probe", "unif", "--map", "x", "--vars", "x", "--box", "0,1",
            "--epsilon", "0.1", "--grid-step", "0.01", "--emit", "structured",
        ])
        assert code == 0
        record = json.loads(out)
        assert abs(record["payload"]["r"] - 0.1) < 0.02


class TestRoots:
    def test_binomial_pair(self):
        code, out, _ = run([
            "roots", "X^2 - (t + t^2)", "--t-order", "7/2",
            "--emit", "structured",
        ])
        assert code == 0
        record = json.loads(out)
        series = sorted(b["series"] for b in record["payload"]["branches"])
        assert series == [
            "-t^(1/2) - 1/2*t^(3/2) + 1/8*t^(5/2) + O(t^(7/2))",
            "t^(1/2) + 1/2*t^(3/2) - 1/8*t^(5/2) + O(t^(7/2))",
        ]

    def test_exact_root_with_multiplicity(self):
        code, out, _ = run(["roots", "X^3 - t^3", "--emit", "structured"])
        assert code == 0
        record = json.loads(out)
        (branch,) = record["payload"]["branches"]
        assert branch["series"] == "t"
        assert branch["certified_order"] is None

    def test_no_real_branch(self):
        code, out, _ = run(["roots", "X^2 + 1", "--emit", "structured"])
        assert code == 0
        record = json.loads(out)
        assert record["payload"]["branches"] == []
        assert record["payload"]["note"] == "no real branches"

    def test_irrational_suggests_numeric(self):
        code, _out, err = run(["roots", "X^2 - 2*t"])
        assert code == 1
        assert err.count("--mode numeric") == 1
        assert "numeric mode" not in err
        code2, out2, _ = run(["roots", "X^2 - 2*t", "--mode", "numeric",
                              "--emit", "structured"])
        assert code2 == 0
        record = json.loads(out2)
        assert len(record["payload"]["branches"]) == 2

    def test_large_coefficient_square_root(self):
        code, out, _ = run(["roots", "X^2 - 10000000000000000*t^2",
                            "--emit", "structured"])
        assert code == 0
        branches = json.loads(out)["payload"]["branches"]
        assert [b["series"] for b in branches] == ["-100000000*t", "100000000*t"]
        assert all(b["certified_order"] is None for b in branches)

    def test_edge_roots_with_large_coefficients_are_exact(self):
        # (X - 10^8 t)(X - (10^8 + 1) t)
        code, out, err = run(["roots", "10000000100000000*t^2; -200000001*t; 1",
                              "--t-order", "4", "--emit", "structured"])
        assert code == 0 and not err
        branches = json.loads(out)["payload"]["branches"]
        assert [b["series"] for b in branches] == ["100000000*t", "100000001*t"]
        assert all(b["exactness"] == "exact" and b["certified_order"] is None
                   for b in branches)

    @pytest.mark.parametrize("poly", [
        pytest.param("-1" + "0" * 400 + "*t; 1", id="branch-10^400-t"),
        pytest.param("-2" + "0" * 700 + "*t; 0; 1", id="edge-roots-+-(2*10^700)^(1/2)"),
    ])
    def test_numeric_branch_outside_the_float_range_is_an_error(self, poly):
        code, out, err = run(["roots", poly, "--mode", "numeric"])
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "float range" in err


    @pytest.mark.parametrize("poly, order, expect", [
        pytest.param("1/3*t^(1/3) - t^(3/2); 1/3; 1", "6", 0, id="1"),
        pytest.param("-5/2*t^(2/3) + t^6; -5/2*t^(4/3); 2*t^3 + 1/3*t^6 + 1/3; 1", "6", 0,
                     id="2"),
        pytest.param("-t^4 + 1/3*t; -t^(4/3) + 2*t^(1/3); -1 + 1/3*t^3; 1", "16", 0, id="3"),
        pytest.param("0; t^(1/2); 2*t^(1/3) - 5/2*t^6 + 1/3*t^2; t^4 + 1; 1", "10", 0, id="4"),
        pytest.param("-5/2*t^5 + 2*t^4; -1 - 5/2*t^5; -t^2; 2 + 1/3*t^4 - 5/2*t^(1/2); 1",
                     "6", 0, id="5"),
        pytest.param("1/3*t^4 + 2*t; 2*t^(1/3) - t^(3/2); -t^6 + t^2; t^(4/3) + 1/3*t^2 - 1; 1",
                     "16", 1, id="6"),
        pytest.param("-t^2; 1/3*t; -t^4 - t; -5/2*t^(5/2) + t - 5/2*t^(1/2); 1", "16", 1,
                     id="7"),
    ])
    def test_numeric_branches_are_certified_on_the_series(self, poly, order, expect):
        code, out, err = run(["roots", poly, "--t-order", order, "--mode", "numeric",
                              "--emit", "structured"])
        assert code == expect and "Traceback" not in err
        if code:
            assert not out and err.startswith("error: branch residual")
            assert err.count("\n") == 1
        else:
            branches = json.loads(out)["payload"]["branches"]
            assert branches and all(b["exactness"] == "numeric" for b in branches)


class TestEval:
    def test_whitney(self):
        code, out, _ = run([
            "eval", "(u, u*v, v^2)", "--vars", "u,v", "--arc", "t; t",
            "--emit", "structured",
        ])
        assert code == 0
        record = json.loads(out)
        assert record["payload"]["image"] == ["t", "t^2", "t^2"]

    def test_guard_error(self):
        code, _out, err = run([
            "eval", "x^(1/2)", "--vars", "x", "--arc=-t",
        ])
        assert code == 1
        assert "root" in err.lower()

    # sqrt(2 t) has the irrational lead sqrt(2): an exactly zero factor on
    # either side still gives the image 0, and any other factor raises
    @pytest.mark.parametrize("map_text", ["x^(1/2)*0", "0*x^(1/2)", "x^(1/2)*(x - x)"])
    def test_zero_factor_annuls_an_irrational_lead(self, map_text):
        code, out, err = run(["eval", map_text, "--vars", "x", "--arc", "2*t",
                              "--emit", "structured"])
        assert code == 0 and not err
        assert json.loads(out)["payload"]["image"] == ["0"]

    def test_nonzero_factor_keeps_the_irrational_lead(self):
        code, out, err = run(["eval", "x^(1/2)*x", "--vars", "x", "--arc", "2*t"])
        assert code == 1 and not out
        assert err == "error: (2)^1/2 is irrational\n"

    # an exactly zero base: a negative power is a guard, as at a float
    # point, and the zero power is 1, as 0.0 ** 0 is
    @pytest.mark.parametrize("map_text, arc", [
        pytest.param("x^-1", "0", id="zero-arc"),
        pytest.param("(x - x)^-2", "t", id="zero-difference"),
        pytest.param("x^(-1/2)", "0", id="zero-arc-root"),
        pytest.param("x/(x - x)", "t", id="zero-denominator"),
    ])
    def test_zero_base_under_a_negative_power_is_a_guard(self, map_text, arc):
        code, out, err = run(["eval", map_text, "--vars", "x", "--arc", arc])
        assert code == 1 and not out
        assert err == "error: zero base with negative exponent\n"

    # a root of the zero arc is 0, as the kernel's power of the zero series is
    @pytest.mark.parametrize("map_text", ["x^(1/2)", "x^(1/3)", "x^(3/4)"])
    def test_zero_base_under_a_root_is_zero(self, map_text):
        code, out, err = run(["eval", map_text, "--vars", "x", "--arc", "0",
                              "--emit", "structured"])
        assert code == 0 and not err
        assert json.loads(out)["payload"]["image"] == ["0"]

    def test_zero_base_under_the_zero_power_is_one(self):
        code, out, err = run(["eval", "x^0", "--vars", "x", "--arc", "0", "--emit", "structured"])
        assert code == 0 and not err
        assert json.loads(out)["payload"]["image"] == ["1"]

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["eval", "(x,y)", "--vars", "x,y", "--arc", "t"],
                     "arc has 1 component, the map takes 2", id="too-few"),
        pytest.param(["eval", "x", "--vars", "x,y", "--arc", "t;t"],
                     "arc has 2 components, the map takes 1", id="too-many"),
    ])
    def test_arc_length_must_match_the_map(self, argv, message):
        code, out, err = run(argv)
        assert code == 1 and not out
        assert err == f"error: {message}\n"

    def test_at_file_indirection(self, tmp_path):
        f = tmp_path / "map.txt"
        f.write_text("(u, u*v, v^2)")
        code, out, _ = run([
            "eval", f"@{f}", "--vars", "u,v", "--arc", "t; t",
            "--emit", "structured",
        ])
        assert code == 0
        assert json.loads(out)["payload"]["image"] == ["t", "t^2", "t^2"]

    @pytest.mark.parametrize("argv", [
        pytest.param(["eval", "@{f}", "--vars", "x", "--arc", "t"], id="map"),
        pytest.param(["eval", "x", "--vars", "x", "--arc", "@{f}"], id="arc"),
        pytest.param(["roots", "@{f}"], id="roots"),
    ])
    def test_at_file_that_is_not_ascii_is_one_error_line(self, tmp_path, argv):
        f = tmp_path / "bad.txt"
        f.write_bytes(b"x\xff")
        code, out, err = run([a.format(f=f) for a in argv])
        assert code == 1 and not out
        assert err == f"error: {str(f)!r} is not an ASCII text file\n"

    @pytest.mark.parametrize("argv", [
        pytest.param(["eval", "@{f}", "--vars", "x", "--arc", "t"], id="map"),
        pytest.param(["eval", "x^2", "--vars", "x", "--arc=@{f}"], id="arc-joined"),
    ])
    def test_at_file_path_past_ascii_is_read(self, tmp_path, argv):
        f = tmp_path / "f\u00e9.txt"
        f.write_text("x^2" if argv[1].startswith("@") else "t")
        code, out, err = run([a.format(f=f) for a in argv] + ["--emit", "structured"])
        assert code == 0 and not err
        assert json.loads(out)["payload"]["image"] == ["t^2"]


# int(), float() and str.isalpha read other scripts' digits and letters, and a
# parse-error span past ASCII would count characters, not bytes
@pytest.mark.parametrize("argv", [
    pytest.param(["roots", "X^2 - t", "--t-order", "\u0663"], id="roots-t-order"),
    pytest.param(["probe", "holder", "--map", "x^(1/3)", "--vars", "x", "--unit-lead",
                  "--trials", "\u0663", "--seed", "\u0661"], id="holder-trials-seed"),
    pytest.param(["probe", "unif", "--map", "x^2", "--vars", "x", "--box", "\u0660,\u0661",
                  "--epsilon", "0.1", "--grid-step", "0.25"], id="unif-box"),
    pytest.param(["eval", "\u00e9^2", "--vars", "\u00e9", "--arc", "t"], id="eval-letter"),
    pytest.param(["eval", "x^\u0663+1", "--vars", "x", "--arc", "t"], id="eval-digit"),
    pytest.param(["eval", "x", "--vars", "x", "--arc=t\udcff"], id="lone-surrogate"),
])
def test_argument_past_ascii_is_one_error_line(argv):
    code, out, err = run(argv)
    assert code == 1 and not out
    first = next(a for a in argv if not a.isascii())
    assert err == f"error: argument {ascii(first)} is not ASCII\n"


# Python's int(), float() and Fraction() read 1_0 as 10; no grammar does
@pytest.mark.parametrize("argv, message", [
    pytest.param(["roots", "X^2 - t", "--t-order", "1_0"], "not a rational: '1_0'",
                 id="roots-t-order"),
    pytest.param(["probe", "holder", "--map", "x^(1/3)", "--vars", "x", "--unit-lead",
                  "--trials", "1_0", "--seed", "1"], "argument --trials: not an integer: '1_0'",
                 id="holder-trials"),
    pytest.param(["counterexample", "--t-order", "8", "--grid-step", "0.0_5", "--grid-box", "1_0"],
                 "argument --grid-step: not a float: '0.0_5'", id="counterexample-grid"),
    pytest.param(["probe", "unif", "--map", "x^2", "--vars", "x", "--box", " 0 , 1_0 ",
                  "--epsilon", "0.1", "--grid-step", "2.5"],
                 "box chunk ' 0 , 1_0 ' is not lo,hi", id="unif-box"),
])
def test_underscore_in_a_flag_number_is_one_error_line(argv, message):
    code, out, err = run(argv)
    assert code == 1 and not out
    assert err == f"error: {message}\n"


# the grammars' integer reader also skips the ASCII separators 0x1c-0x1f as
# space, which int() refuses; float() still reads the float flags
_SEPARATORS = str.maketrans("\x1c\x1d\x1e\x1f", "    ")


def _python_fraction(text):
    text = text.translate(_SEPARATORS)
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _python_int(text):
    return int(text.translate(_SEPARATORS))


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789+-/_.e \t\x1f", max_size=8))
def test_flag_numbers_read_as_python_reads_them_without_underscores(text):
    for reader, python in ((_fraction, _python_fraction), (_integer, _python_int), (_float, float)):
        try:
            want = None if "_" in text else python(text)
        except (ValueError, ZeroDivisionError):
            want = None
        try:
            got = reader(text)
        except (ConfigError, ArgumentTypeError):
            got = None
        assert got == want or got != got and want != want, (reader, text)


class TestErrors:
    def test_parse_error_span(self):
        code, _out, err = run(["roots", "X^2 -"])
        assert code == 1
        assert "expected" in err

    def test_bad_flag_value(self):
        code, _out, err = run(["counterexample", "--t-order", "zero"])
        assert code == 1

    def test_ram_cap_validation(self):
        code, _out, err = run(["counterexample", "--ram-cap", "0"])
        assert code == 1

    def test_passing_run_restores_the_ram_cap(self):
        before = get_ram_cap()
        assert run(["roots", "-t; 1", "--ram-cap", "8"])[0] == 0
        assert get_ram_cap() == before

    @pytest.mark.parametrize("argv", [
        pytest.param(["roots", "-t; 1", "--ram-cap", "8", "--t-order", "0"], id="config"),
        pytest.param(["roots", "X^2 - 2*t", "--ram-cap", "8"], id="solver"),
    ])
    def test_failing_run_restores_the_ram_cap(self, argv):
        before = get_ram_cap()
        assert run(["roots", "-t; 1", "--ram-cap", "8"])[0] == 0
        assert run(argv)[0] == 1
        assert get_ram_cap() == before


DIGIT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["roots", "-t; 1" + "0" * 400 + "; 1", "--t-order", "14"],
                 f"error: a number has more than {DIGIT_LIMIT} digits to print", id="render"),
    pytest.param(["roots", "-t; 1" + "0" * 5000 + "; 1"],
                 f"expected an integer of at most {DIGIT_LIMIT} digits, found 5001 digits",
                 id="parse-poly"),
    pytest.param(["eval", "x^2", "--vars", "x", "--arc", "1" + "0" * 5000 + "*t"],
                 f"at bytes 0..5001: expected an integer of at most {DIGIT_LIMIT} digits",
                 id="parse-arc"),
])
def test_integer_past_the_digit_limit_is_one_error_line(argv, message):
    code, out, err = run(argv)
    assert code == 1 and not out
    assert message in err and err.count("\n") == 1


def test_error_message_names_the_digit_count_past_the_limit():
    # the lead of x^3 has 9001 digits, and its square root is irrational
    code, out, err = run(["eval", "(x^3)^(1/2)", "--vars", "x", "--arc", "2" + "0" * 3000 + "*t"])
    assert code == 1 and not out
    assert err == "error: (<a number of 9001 digits>)^1/2 is irrational\n"


# a 4001-digit exponent parses, and a number derived from it can have 8001 digits
BIG = "1" + "0" * 4000
# a float near the top of the float range
NEAR_MAX = "1" + "0" * 300


@pytest.mark.parametrize("argv, message", [
    pytest.param(["eval", f"1/((x^{BIG})^{BIG})", "--vars", "x", "--arc", "O(t^1)"],
                 "series is zero up to truncation <a number of 8001 digits>", id="bound"),
    pytest.param(["eval", f"(x^(1/{BIG}))^(1/{BIG})", "--vars", "x", "--arc", "t",
                  "--ram-cap", BIG],
                 f"ramification <a number of 8001 digits> exceeds cap {BIG}", id="ram"),
])
def test_derived_number_past_the_limit_is_one_error_line(argv, message):
    code, out, err = run(argv)
    assert code == 1 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, span", [
    pytest.param(["roots", "-t; 1 + ; 1"], "bytes 7..7", id="roots-dangling-plus"),
    pytest.param(["roots", "-t; 1" + "0" * 5000 + "; 1"], "bytes 4..5005", id="roots-long-literal"),
    pytest.param(["roots", "X^2 - (t + )"], "bytes 11..11", id="roots-parenthesized"),
    pytest.param(["eval", "(x, y)", "--arc", "t; t +"], "bytes 6..6", id="eval-arc"),
])
def test_parse_error_spans_are_positions_in_the_whole_input(argv, span):
    code, out, err = run(argv)
    assert code == 1 and not out
    assert err.startswith(f"parse error at {span}:") and err.count("\n") == 1


LOJA = ["probe", "loja", "--phi1", "x^2", "--phi2", "x", "--vars", "x"]
UNIF = ["probe", "unif", "--map", "x", "--vars", "x"]
TRANSPORT = ["probe", "transport", "--map", "x^3", "--vars", "x", "--transfer-kind"]
HOLDER_X = ["probe", "holder", "--map", "x", "--vars", "x", "--trials", "3"]


@pytest.mark.parametrize("argv", [
    pytest.param(["probe", "holder", "--map", "x", "--vars", "x", "--trials", "0"],
                 id="holder-trials-0"),
    pytest.param(["probe", "holder", "--map", "x", "--vars", "x", "--trials", "-3"],
                 id="holder-trials-negative"),
    pytest.param(TRANSPORT + ["injective", "--trials", "0"], id="injective-trials-0"),
    pytest.param(TRANSPORT + ["surjective", "--trials", "-3"], id="surjective-trials-negative"),
    pytest.param(["probe", "transport", "--transfer-kind", "limit_additive", "--trials", "0"],
                 id="limit-additive-trials-0"),
    pytest.param(LOJA + ["--box=-1,1", "--trials", "0"], id="loja-trials-0"),
    pytest.param(UNIF + ["--box", "0,1", "--epsilon", "0"], id="unif-epsilon-0"),
    pytest.param(UNIF + ["--box", "0,1", "--epsilon", "-1"], id="unif-epsilon-negative"),
    pytest.param(UNIF + ["--box", "0,1", "--grid-step", "0"], id="unif-grid-step-0"),
    pytest.param(UNIF + ["--box", "0,1", "--grid-step", "-0.1"], id="unif-grid-step-negative"),
    pytest.param(UNIF + ["--box", "0,1;0,1;0,1"], id="unif-box-dimension"),
    pytest.param(UNIF + ["--box", "0;1"], id="unif-box-malformed"),
    pytest.param(UNIF + ["--box", "0,inf"], id="unif-box-infinite"),
    pytest.param(LOJA + ["--box", "0,1;0,1"], id="loja-box-dimension"),
    pytest.param(LOJA + ["--box", "1"], id="loja-box-malformed"),
    pytest.param(HOLDER_X + ["--min-ord", "0"], id="holder-min-ord-0"),
    pytest.param(HOLDER_X + ["--min-ord=-1"], id="holder-min-ord-negative"),
    pytest.param(HOLDER_X + ["--min-ord", "1,2"], id="holder-min-ord-too-many"),
    pytest.param(["probe", "holder", "--map", "(x, y)", "--min-ord", "1"],
                 id="holder-min-ord-too-few"),
    pytest.param(TRANSPORT + ["surjective", "--min-ord", "1/2,1"], id="surjective-min-ord-too-many"),
    pytest.param(TRANSPORT + ["injective", "--min-ord", "0"], id="injective-min-ord-0"),
    # wider than the float range: hi - lo overflows
    pytest.param(UNIF + ["--box=-1e308,1e308", "--epsilon", "0.1", "--grid-step", "0.25"],
                 id="unif-box-too-wide"),
    pytest.param(LOJA + ["--box=-1e308,1e308", "--trials", "5", "--emit", "structured"],
                 id="loja-box-too-wide"),
    # nothing lies below t^0 to compare, so a pass would be vacuous
    pytest.param(["probe", "transport", "--transfer-kind", "surjective", "--map", "x^2",
                  "--vars", "x", "--target", "0", "--trials", "3"], id="surjective-target-0"),
    pytest.param(["probe", "transport", "--transfer-kind", "surjective", "--map", "x^2",
                  "--vars", "x", "--target=-5", "--trials", "3"], id="surjective-target-negative"),
    # a bound that is not finite makes a pass vacuous and the JSON report invalid
    pytest.param(UNIF + ["--box", "0,1", "--epsilon", "inf", "--grid-step", "0.25"],
                 id="unif-epsilon-inf"),
    pytest.param(UNIF + ["--box", "0,1", "--epsilon", "nan"], id="unif-epsilon-nan"),
    pytest.param(UNIF + ["--box", "0,1", "--grid-step", "inf"], id="unif-grid-step-inf"),
    pytest.param(UNIF + ["--box", "0,1", "--grid-step=-inf"], id="unif-grid-step-minus-inf"),
    pytest.param(LOJA + ["--box=-1,1", "--tolerance", "nan", "--emit", "structured"],
                 id="loja-tolerance-nan"),
    pytest.param(LOJA + ["--box=-1,1", "--tolerance", "inf"], id="loja-tolerance-inf"),
    pytest.param(LOJA + ["--box=-1,1", "--tolerance=-inf"], id="loja-tolerance-minus-inf"),
    pytest.param(["probe", "loja", "--phi1", "x", "--vars", "x"], id="loja-no-phi2"),
    pytest.param(["probe", "transport", "--transfer-kind", "injective"], id="transport-no-map"),
])
def test_bad_probe_input_is_one_error_line(argv):
    code, out, err = run(argv)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("grid", [
    pytest.param(["--grid-step", "0"], id="grid-step-0"),
    pytest.param(["--grid-step", "nan"], id="grid-step-nan"),
    pytest.param(["--grid-box", "inf"], id="grid-box-inf"),
    pytest.param(["--grid-step", "1e-300", "--grid-box", "1e-298"], id="grid-subnormal"),
    pytest.param(["--grid-step", "-0.01"], id="grid-step-negative"),
    pytest.param(["--grid-box", "-1"], id="grid-box-negative"),
    pytest.param(["--grid-box", "0"], id="grid-box-0"),
])
def test_bad_counterexample_grid_is_one_error_line(grid):
    code, out, err = run(["counterexample"] + grid)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_loja_functions_share_the_box():
    # phi1 uses only x, phi2 only y: both are sampled on the 2-dimensional box
    code, out, err = run(["probe", "loja", "--phi1", "x^2", "--phi2", "y", "--vars", "x,y",
                          "--box", "0,1;0,1", "--trials", "40", "--emit", "structured"])
    assert code in (0, 2) and not err
    assert json.loads(out)["payload"]["fit_samples"] > 0


HOLDER = ["probe", "holder", "--map", "x^2", "--vars", "x", "--trials", "3"]
EVAL = ["eval", "(x, y)", "--arc", "t; t"]
ROOTS = ["roots", "X^2 - 2*t"]


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["counterexample", "--mode", "numeric"], "--mode", id="counterexample-mode"),
    pytest.param(EVAL + ["--mode", "numeric"], "--mode", id="eval-mode"),
    pytest.param(HOLDER + ["--mode", "numeric"], "--mode", id="holder-mode"),
    pytest.param(LOJA + ["--box=-1,1", "--mode", "numeric"], "--mode", id="loja-mode"),
    pytest.param(UNIF + ["--box", "0,1", "--mode", "numeric"], "--mode", id="unif-mode"),
    pytest.param(TRANSPORT + ["injective", "--mode", "numeric"], "--mode",
                 id="injective-mode"),
    pytest.param(["probe", "transport", "--transfer-kind", "limit_additive", "--mode", "numeric"],
                 "--mode", id="limit-additive-mode"),
    pytest.param(HOLDER + ["--t-order", "99"], "--t-order", id="holder-t-order"),
    pytest.param(LOJA + ["--box=-1,1", "--t-order", "4"], "--t-order", id="loja-t-order"),
    pytest.param(UNIF + ["--box", "0,1", "--t-order", "4"], "--t-order", id="unif-t-order"),
    pytest.param(TRANSPORT + ["surjective", "--t-order", "12"], "--t-order",
                 id="transport-t-order"),
    pytest.param(UNIF + ["--box", "0,1", "--trials", "0"], "--trials", id="unif-trials"),
    pytest.param(UNIF + ["--box", "0,1", "--seed", "5"], "--seed", id="unif-seed"),
    pytest.param(["counterexample", "--seed", "7"], "--seed", id="counterexample-seed"),
    pytest.param(["counterexample", "--trials", "3"], "--trials", id="counterexample-trials"),
    pytest.param(ROOTS + ["--seed", "1"], "--seed", id="roots-seed"),
    pytest.param(ROOTS + ["--trials", "5"], "--trials", id="roots-trials"),
    pytest.param(EVAL + ["--seed", "2"], "--seed", id="eval-seed"),
    pytest.param(EVAL + ["--trials", "7"], "--trials", id="eval-trials"),
    pytest.param(["counterexample", "--tolerance", "0.5"], "--tolerance",
                 id="counterexample-tolerance"),
    pytest.param(ROOTS + ["--mode", "numeric", "--tolerance", "0.5"], "--tolerance",
                 id="roots-tolerance"),
    pytest.param(EVAL + ["--tolerance", "1e-3"], "--tolerance", id="eval-tolerance"),
    pytest.param(HOLDER + ["--tolerance", "0"], "--tolerance", id="holder-tolerance"),
    pytest.param(UNIF + ["--box", "0,1", "--tolerance", "1"], "--tolerance",
                 id="unif-tolerance"),
    pytest.param(TRANSPORT + ["surjective", "--tolerance", "nan"], "--tolerance",
                 id="transport-tolerance"),
    pytest.param(["probe", "transport", "--transfer-kind", "limit_additive",
                  "--tolerance", "2"], "--tolerance", id="limit-additive-tolerance"),
    pytest.param(HOLDER + ["--target", "6"], "--target", id="holder-target"),
    pytest.param(HOLDER + ["--box", "0,1"], "--box", id="holder-box"),
    pytest.param(HOLDER + ["--epsilon", "0.5"], "--epsilon", id="holder-epsilon"),
    pytest.param(HOLDER + ["--grid-step", "0.1"], "--grid-step", id="holder-grid-step"),
    pytest.param(HOLDER + ["--phi1", "x"], "--phi1", id="holder-phi1"),
    pytest.param(HOLDER + ["--transfer-kind", "surjective"], "--transfer-kind",
                 id="holder-transfer-kind"),
    pytest.param(LOJA + ["--box=-1,1", "--map", "x"], "--map", id="loja-map"),
    pytest.param(LOJA + ["--box=-1,1", "--min-ord", "1"], "--min-ord", id="loja-min-ord"),
    pytest.param(LOJA + ["--box=-1,1", "--unit-lead"], "--unit-lead", id="loja-unit-lead"),
    pytest.param(LOJA + ["--box=-1,1", "--target", "6"], "--target", id="loja-target"),
    pytest.param(LOJA + ["--box=-1,1", "--epsilon", "0.5"], "--epsilon", id="loja-epsilon"),
    pytest.param(UNIF + ["--box", "0,1", "--min-ord", "1"], "--min-ord", id="unif-min-ord"),
    pytest.param(UNIF + ["--box", "0,1", "--unit-lead"], "--unit-lead", id="unif-unit-lead"),
    pytest.param(UNIF + ["--box", "0,1", "--phi2", "x"], "--phi2", id="unif-phi2"),
    pytest.param(TRANSPORT + ["injective", "--target", "8"], "--target", id="injective-target"),
    pytest.param(TRANSPORT + ["injective", "--box", "0,1"], "--box", id="injective-box"),
    pytest.param(TRANSPORT + ["surjective", "--grid-step", "0.1"], "--grid-step",
                 id="surjective-grid-step"),
    pytest.param(["probe", "transport", "--transfer-kind", "limit_additive",
                  "--min-ord", "1"], "--min-ord", id="limit-additive-min-ord"),
    pytest.param(["probe", "transport", "--transfer-kind", "limit_additive",
                  "--unit-lead"], "--unit-lead", id="limit-additive-unit-lead"),
    pytest.param(["probe", "transport", "--transfer-kind", "limit_additive",
                  "--target", "6"], "--target", id="limit-additive-target"),
    pytest.param(["probe", "transport", "--transfer-kind", "limit_additive",
                  "--vars", "a,b,c", "--trials", "3"], "--vars", id="limit-additive-vars"),
])
def test_unread_flag_with_a_value_is_refused(argv, flag):
    code, out, err = run(argv)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith(f"does not read {flag}")


@pytest.mark.parametrize("argv, defaults", [
    pytest.param(HOLDER, ["--t-order", "16/2", "--mode", "exact", "--box=-1,1", "--epsilon",
                          "0.1", "--grid-step", "0.01", "--transfer-kind", "injective"],
                 id="holder"),
    pytest.param(LOJA + ["--box=-1,1", "--trials", "40"], ["--min-ord=", "--grid-step", "0.01"],
                 id="loja"),
    pytest.param(["probe", "transport", "--transfer-kind", "limit_additive", "--trials", "5"],
                 ["--min-ord=", "--box=-1,1", "--epsilon", "0.1"], id="limit-additive"),
    pytest.param(UNIF + ["--box", "0,1"], ["--trials", "100", "--seed", "0"], id="unif"),
    pytest.param(ROOTS + ["--mode", "numeric"], ["--seed", "0", "--tolerance", "0.000000001"],
                 id="roots"),
    pytest.param(EVAL, ["--trials", "100", "--tolerance", "1e-9"], id="eval"),
])
def test_unread_flag_at_its_default_leaves_the_report(argv, defaults):
    code, out, err = run(argv + defaults + ["--emit", "structured"])
    assert code == 0 and not err
    assert out == run(argv + ["--emit", "structured"])[1]


def test_surjective_transport_reads_mode():
    _code, _out, err = run(TRANSPORT + ["surjective", "--trials", "2", "--mode", "numeric"])
    assert "does not read" not in err


def test_counterexample_flags_at_their_defaults_leave_the_report():
    argv = ["counterexample", "--t-order", "4", "--emit", "structured"]
    code, out, err = run(argv + ["--seed", "0", "--trials", "100", "--tolerance", "1e-9"])
    assert code == 2 and not err
    assert out == run(argv)[1]


def test_loja_reads_tolerance():
    code, out, err = run(LOJA + ["--box=-1,1", "--tolerance", "0.5", "--emit", "structured"])
    assert code in (0, 2) and not err
    assert json.loads(out)["config"]["tolerance"] == 0.5


# -- argv fuzz -----------------------------------------------------------------------
#
# Fragments of every subcommand's argv, drawn with small t-orders, targets, trial
# counts and grids so that each call is quick: nothing bounds the work of a
# large order yet.  Numbers past the digit limit enter as literals, as orders
# with such a denominator, and as exponents that the kernel multiplies out.  A
# big integer exponent drives a chain of products on a non-monomial base and a
# huge power of a coefficient other than +-1, so big exponents are drawn over
# arcs whose components are unit monomials or known only up to a bound.
# Maps, arcs and polynomials are also drawn cut short or with one character
# replaced or inserted, so that parse errors and their spans are drawn too.

SERIES = ["t", "-t", "2*t", "t^(1/2)", "t + t^2", "t - t^(3/2) + O(t^3)", "O(t^1)", "0",
          "1 + t", "-1/3*t^(5/2)", "3*t^2 - t^3", f"{BIG}*t", f"t + {BIG}*t^2", f"{NEAR_MAX}*t",
          f"t + O(t^{BIG})", f"t^{BIG}", f"t^(1/{BIG})"]
UNIT_SERIES = ["t", "-t", "t^(1/2)", "-t^(5/3)", "O(t^1)", "O(t^(1/2))", "0", f"O(t^{BIG})"]
ATOMS = ["x", "y", "1", "2", "1/3", BIG, f"1/{BIG}", NEAR_MAX, f"1/{NEAR_MAX}"]
POWERS = ["2", "3", "(1/2)", "(1/3)", "(-1)", "(-1/2)", "(2/3)"]
BIG_POWER_MAPS = [f"x^{BIG}", f"(x^{BIG})^{BIG}", f"1/((x^{BIG})^{BIG})", f"x^(1/{BIG})",
                  f"(x^(1/{BIG}))^(1/{BIG})", f"(x^{BIG} + x)^(1/2)", f"x^({BIG}/3)",
                  f"(x, y^{BIG})", f"x^(-{BIG})"]


def _expr():
    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*", "/"]), inner).map("".join),
            st.tuples(inner, st.sampled_from(POWERS)).map(lambda p: f"({p[0]})^{p[1]}"),
        )
    return st.recursive(st.sampled_from(ATOMS), grow, max_leaves=4)


def _map():
    return st.one_of(_expr(), st.tuples(_expr(), _expr()).map(lambda p: f"({p[0]}, {p[1]})"))


def _arc(series):
    return st.lists(st.sampled_from(series), min_size=1, max_size=2).map("; ".join)


FLAGS = [["--t-order", "3"], ["--t-order", "7/2"], ["--t-order", "0"], ["--t-order", "-1"],
         ["--t-order", "x"], ["--t-order", f"1/{BIG}"], ["--trials", "0"], ["--trials", "2"],
         ["--seed", "3"], ["--mode", "numeric"], ["--mode", "bogus"], ["--emit", "structured"],
         ["--tolerance", "0.5"], ["--ram-cap", "1"], ["--ram-cap", "8"], ["--ram-cap", "0"],
         ["--vars", "x"], ["--vars", "a,b,c"], ["--vars", ""], ["--vars", "y,x"],
         ["--target", "4"], ["--target", f"1/{BIG}"], ["--unit-lead"], ["--min-ord", "1"],
         ["--min-ord", "1,2"], ["--min-ord", f"1/{BIG}"], ["--box", "0,1"], ["--box", "-1,1;0,1"],
         ["--box", "1e308,1e309"], ["--epsilon", "-1"], ["--grid-step", "0.5"],
         ["--map", "x"], ["--phi1", "x"], ["--arc", "t"], ["--transfer-kind", "surjective"],
         ["--tolerance", "inf"], ["--tolerance=-inf"], ["--tolerance", "nan"],
         ["--epsilon", "inf"], ["--epsilon=-inf"], ["--epsilon", "nan"],
         ["--grid-step", "inf"], ["--grid-step=-inf"], ["--grid-step", "nan"],
         ["--trials", "\u0663"], ["--seed", "\u0661"], ["--t-order", "\u0663"],
         ["--t-order", "\uff13"]]


def _corrupt(text):
    """The text, or it cut short, or with one character replaced or inserted."""
    @st.composite
    def draw_corrupted(draw):
        s = draw(text)
        how = draw(st.sampled_from(["keep", "keep", "cut", "replace", "insert"]))
        if how == "keep" or not s:
            return s
        i = draw(st.integers(0, len(s) - 1))
        if how == "cut":
            return s[:i]
        junk = draw(st.sampled_from(JUNK))
        return s[:i] + junk + s[i + (how == "replace"):]
    return draw_corrupted()


JUNK = ["(", ")", "^", "/", "*", ";", ",", "t", "X", "O", "z", " ", "0", "-", "1/0", "^(1/0)",
        "^(2/-3)", "^x", "é", "٣", "^(١/٢)"]


@st.composite
def argvs(draw):
    kind = draw(st.sampled_from(["eval", "eval-big", "roots", "holder", "transport",
                                 "loja", "unif", "counterexample"]))
    order = ["--t-order", draw(st.sampled_from(["1", "2", "3", "5/2"]))]
    trials = ["--trials", draw(st.sampled_from(["1", "2", "3"]))]
    if kind == "eval":
        argv = ["eval", draw(_corrupt(_map())), "--arc", draw(_corrupt(_arc(SERIES)))] + order
    elif kind == "eval-big":
        argv = ["eval", draw(st.sampled_from(BIG_POWER_MAPS)), "--arc",
                draw(_arc(UNIT_SERIES))] + order
    elif kind == "roots":
        coeffs = draw(st.lists(st.sampled_from(SERIES), min_size=1, max_size=3))
        argv = ["roots", draw(_corrupt(st.just("; ".join(coeffs + ["1"]))))] + order
    elif kind == "holder":
        argv = ["probe", "holder", "--map", draw(_corrupt(_map()))] + trials
    elif kind == "transport":
        transfer = draw(st.sampled_from(["injective", "surjective", "limit_additive"]))
        argv = ["probe", "transport", "--transfer-kind", transfer, "--map",
                draw(_corrupt(_map()))] + trials
        argv += draw(st.sampled_from([[], ["--target", "2"], ["--mode", "numeric"]]))
    elif kind == "loja":
        argv = ["probe", "loja", "--phi1", draw(_corrupt(_expr())), "--phi2",
                draw(_corrupt(_expr()))] + trials
    elif kind == "unif":
        argv = ["probe", "unif", "--map", draw(_corrupt(_map())), "--grid-step", "0.25",
                "--box", draw(st.sampled_from(["-1,1", "0,1;0,1"]))]
    else:
        argv = ["counterexample"] + ["--t-order", draw(st.sampled_from(["3", "4", "9/2"]))]
    argv += ["--vars", draw(st.sampled_from(["x", "x,y", "a,b"]))] if draw(st.booleans()) else []
    argv += ["--emit", "structured"] if draw(st.booleans()) else []
    for flag in draw(st.lists(st.sampled_from(FLAGS), max_size=2)):
        argv += flag
    return argv


def _parsed_texts(argv):
    """The arguments that main() hands to a parser: maps, arcs and polynomials."""
    texts = [argv[1]] if argv[0] in ("eval", "roots") else []
    return texts + [b for a, b in zip(argv, argv[1:]) if a in ("--map", "--phi1", "--phi2", "--arc")]


def _check_parse_error(argv, err):
    """A span ``bytes a..b`` lies in a parsed argument, and ``found`` quotes its bytes."""
    m = re.fullmatch(r"parse error at bytes (\d+)\.\.(\d+): expected (.*), found (.*)\n", err)
    assert m, err
    a, b, found = int(m[1]), int(m[2]), m[4]
    digits = re.fullmatch(r"(\d+) digits", found)  # an integer past the digit limit
    assert any(
        0 <= a <= b <= len(text)
        and (found in (repr(text[a:b]), "'end of input'")
             or digits is not None and len(text[a:b].lstrip("+-")) == int(digits[1]))
        for text in _parsed_texts(argv)
    ), (argv, err)


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
@example(["eval", f"1/((x^{BIG})^{BIG})", "--vars", "x", "--arc", "O(t^1)"])
@example(["probe", "transport", "--transfer-kind", "limit_additive", "--vars", "a,b,c",
          "--trials", "3"])
@example(["counterexample", "--t-order", BIG])
@example(["probe", "loja", "--phi1", "x", "--phi2", BIG, "--vars", "x", "--trials", "3"])
@example(["probe", "unif", "--map", "x", "--vars", "x", "--box=-1e308,1e308", "--epsilon", "0.1",
          "--grid-step", "0.25"])
@example(["probe", "loja", "--phi1", "x", "--phi2", "x^2", "--vars", "x", "--box=-1e308,1e308",
          "--trials", "5", "--emit", "structured"])
@example(["probe", "unif", "--map", "x^2", "--vars", "x", "--box", "0,1", "--epsilon", "inf",
          "--grid-step", "0.25", "--emit", "structured"])
@example(["probe", "loja", "--phi1", "x", "--phi2", "x^2", "--vars", "x", "--trials", "3",
          "--tolerance", "nan", "--emit", "structured"])
@example(["roots", "-t; 1", "--t-order", "\u0663"])
@example(["eval", "x^-1", "--vars", "x", "--arc", "0"])
@example(["eval", "x^0", "--vars", "x", "--arc", "0"])
@example(["eval", "(x - x)^-2", "--vars", "x", "--arc", "t"])
@example(["eval", "x^(1/2)", "--vars", "x", "--arc", "0"])
@example(["eval", "x^(-1/2)", "--vars", "x", "--arc", "0"])
@example(["probe", "transport", "--transfer-kind", "surjective", "--map", "x + 0^0", "--vars", "x",
          "--trials", "2"])
def test_main_on_fuzzed_argv_exits_with_a_code_and_no_traceback(argv):
    cap = get_ram_cap()
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    assert get_ram_cap() == cap
    if not all(a.isascii() for a in argv):  # no drawn argument is an @path
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
    if err.startswith("parse error"):
        _check_parse_error(argv, err)
    if out and "structured" in argv:
        _strict_json(out)


# -- one parser per process --------------------------------------------------------
#
# main() parses every argv with the parser that build_parser() made on its first
# call.  One op of each run and each refusal path, run in any order, must
# report what a parser built for that argv alone reports.

HISTORY_ARGVS = [
    ["counterexample", "--t-order", "3", "--grid-step", "0.5"],
    ["roots", "X^2 - t", "--emit", "structured"],
    ["eval", "(u, u*v)", "--vars", "u,v", "--arc", "t; t^2"],
    ["probe", "holder", "--map", "x^(1/3)", "--vars", "x", "--trials", "3", "--seed", "2"],
    ["probe", "loja", "--phi1", "x", "--phi2", "x^2", "--vars", "x", "--trials", "8"],
    ["probe", "unif", "--map", "x^2", "--vars", "x", "--box", "0,1", "--grid-step", "0.25"],
    ["probe", "transport", "--map", "x^3", "--vars", "x", "--trials", "2"],
    ["probe", "transport", "--transfer-kind", "surjective", "--map", "x^3", "--vars", "x",
     "--trials", "2", "--target", "3", "--emit", "structured"],
    ["probe", "transport", "--transfer-kind", "limit_additive", "--trials", "2"],
    ["roots", "X^2 - t", "--t-order", "zero"],  # bad flag value, read by _fraction
    ["roots", "X^2 - t", "--trials", "x"],  # bad flag value, refused by argparse
    ["roots", "X^2 - t", "--mode", "bogus"],
    ["eval", "x", "--vars", "x"],  # a required flag is missing
    ["roots", "X^2 -"],  # parse error
    ["roots", "X^2 - t", "--trials", "3"],  # unread flag
    ["roots", "X^2 - t", "--t-order", "\u0663"],  # non-ASCII argument
    ["bogus"],  # unknown subcommand
]


def test_shared_parser_reports_do_not_depend_on_history(monkeypatch):
    first = {tuple(a): run(a) for a in HISTORY_ARGVS}
    assert {code for code, _out, _err in first.values()} == {0, 1, 2}
    # in order, reversed, and interleaved: first, last, second, second to last, ...
    interleaved = [a for pair in zip(HISTORY_ARGVS, HISTORY_ARGVS[::-1]) for a in pair]
    for order in (HISTORY_ARGVS, HISTORY_ARGVS[::-1], interleaved[:len(HISTORY_ARGVS)]):
        assert [run(a) for a in order] == [first[tuple(a)] for a in order]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run(a) for a in HISTORY_ARGVS] == [first[tuple(a)] for a in HISTORY_ARGVS]


def test_main_builds_no_parser_after_its_first_call(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    counts = []
    for argv in (["roots", "X^2 - t"], ["eval", "x", "--vars", "x", "--arc", "t"], ["bogus"]):
        before = len(built)
        run(argv)
        counts.append(len(built) - before)
    assert counts == [6, 0, 0]
