"""The expression grammar: precedence, errors with positions, round trips."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflconn.cyclo import CycloNum
from reflconn.errors import ExprSyntaxError, ReflconnError, UnknownVariable
from reflconn.parsing import (
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_NESTING,
    MAX_TERMS,
    parse_expr,
    parse_scalar,
)
from reflconn.poly import MPoly

from conftest import px, pz


class TestGrammar:
    def test_precedence(self):
        assert px("1 + 2*x1^2") == px("(2*(x1^2)) + 1")
        assert px("2*x1 + 3*x2") != px("2*(x1 + 3)*x2")

    def test_leading_minus(self):
        assert px("-x1 + x2") == px("x2") - px("x1")
        assert px("-3/2") == Fraction(-3, 2)

    def test_rationals(self):
        assert parse_scalar("5/15", 12) == Fraction(1, 3)
        assert parse_scalar("7", 12) == 7

    def test_zeta(self):
        assert parse_scalar("zeta^6", 12) == -1
        assert parse_scalar("zeta^2 + zeta^4", 12) == CycloNum.from_poly_coeffs(
            12, [0, 0, 1, 0, 1]
        )

    def test_whitespace_insignificant(self):
        assert px(" x1 ^ 2 +  3 * x2 ") == px("x1^2+3*x2")

    def test_alphabets(self):
        assert str(pz("z1*z2^2")) == "z1*z2^2"
        with pytest.raises(UnknownVariable):
            pz("x1")
        with pytest.raises(UnknownVariable):
            px("z1")

    def test_nvars_range(self):
        assert parse_expr("x3", nvars=3) == parse_expr("x3", nvars=3)
        with pytest.raises(UnknownVariable):
            parse_expr("x3", nvars=2)


class TestErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ExprSyntaxError) as ei:
            px("x1 + ")
        assert ei.value.position == 5

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            px("x1 ? x2")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            px("x1 x2")

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            px("(x1 + x2")

    def test_bad_exponent(self):
        with pytest.raises(ExprSyntaxError):
            px("x1^x2")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownVariable):
            px("x1 + y2")

    def test_scalar_rejects_variables(self):
        with pytest.raises(ExprSyntaxError):
            parse_scalar("x1 + 1", 12)


class TestRoundTrip:
    def test_catalog_invariants_round_trip(self):
        for s in (
            "x1^4 + (-2 + 4*zeta^2)*x1^2*x2^2 + x2^4",
            "x1^5*x2 - x1*x2^5",
        ):
            assert str(px(s)) == s

    def test_print_parse_is_identity(self):
        f = px("1/3*x1^2 - x2^2 + (zeta - 2*zeta^3)*x1*x2")
        assert px(str(f)) == f


def test_zero_denominator_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("1/0")
    assert info.value.position == 2


class TestDegreeBound:
    def test_exponent_above_bound_names_its_position(self):
        text = "x1 + (x1*x2)^2000000"
        with pytest.raises(ExprSyntaxError) as exc:
            px(text)
        assert exc.value.position == text.index("2000000")

    def test_bound_itself_parses(self):
        assert px(f"x1^{MAX_DEGREE}").total_degree() == MAX_DEGREE
        assert parse_scalar(f"zeta^{MAX_DEGREE}", 12) == CycloNum.zeta(12, MAX_DEGREE)

    def test_total_degree_of_products_and_powers(self):
        half = MAX_DEGREE // 2
        with pytest.raises(ExprSyntaxError) as exc:
            px(f"x1^{half} * x2^{MAX_DEGREE - half + 1}")
        assert exc.value.position == len(f"x1^{half} * ")
        with pytest.raises(ExprSyntaxError):
            px(f"(x1*x2)^{half + 1}")


class TestTermBound:
    def test_power_above_bound_names_its_position(self):
        text = "x1 + (x1 + x2 + x3)^300"
        with pytest.raises(ExprSyntaxError) as exc:
            px(text, nvars=3)
        assert exc.value.position == text.index("300")

    def test_product_bound(self):
        k = MAX_TERMS // 40
        a = "(" + " + ".join(f"x1^{i}" for i in range(40)) + ")"
        b = "(" + " + ".join(f"x2^{j}" for j in range(k)) + ")"
        assert len(px(f"{a}*{b}").terms) == 40 * k
        wider = b[:-1] + f" + x2^{k})"
        with pytest.raises(ExprSyntaxError) as exc:
            px(f"{a}*{wider}")
        assert exc.value.position == len(f"{a}*")

    def test_flat_sums_are_not_bounded(self):
        k = isqrt(MAX_TERMS) + 1
        text = " + ".join(f"{i + j + 1}*x1^{i}*x2^{j}" for i in range(k) for j in range(k))
        assert len(px(text).terms) == k * k > MAX_TERMS


class TestNestingAndDigitBounds:
    def test_nesting_bound_itself_parses(self):
        text = "(" * MAX_NESTING + "x1^2 + x2^2" + ")" * MAX_NESTING
        assert px(text) == px("x1^2 + x2^2")

    def test_deeper_nesting_names_its_position(self):
        depth = MAX_NESTING + 1
        with pytest.raises(ExprSyntaxError) as exc:
            px("(" * depth + "x1" + ")" * depth)
        assert exc.value.position == MAX_NESTING

    def test_digit_run_bound(self):
        assert parse_scalar("7" * MAX_DIGITS, 12) == int("7" * MAX_DIGITS)
        for text in ("x1 + " + "7" * (MAX_DIGITS + 1), "x1 + x" + "1" * (MAX_DIGITS + 1)):
            with pytest.raises(ExprSyntaxError) as exc:
                px(text)
            assert exc.value.position == len("x1 + ")


    def test_coefficient_bound_names_its_position(self):
        big, other = "9" * MAX_DIGITS, "9" * (MAX_DIGITS - 1) + "8"
        assert px(f"{big}*x1 - 1/{big}") == px(f"x1*{big} - 1/{big}")
        cases = (
            (f"x2 + {big}*{big}*x1", 0),  # a product, once its sum is built
            (f"x1 + ({'9' * 20}*x1)^200", len(f"x1 + ({'9' * 20}*x1)^")),  # before a power
            (f"x1*(1/{big} + 1/{other})", len("x1*(")),  # coprime denominators
        )
        for text, position in cases:
            with pytest.raises(ExprSyntaxError, match=f"more than {MAX_DIGITS} digits") as exc:
                px(text)
            assert exc.value.position == position


FUZZ_TOKENS = ["x1", "x2", "zeta", "(", ")", "+", "-", "*", "/", "^", " "]
FUZZ_TOKENS += list("0123456789")


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=40).map("".join))
    def test_parse_returns_a_polynomial_or_a_package_error(self, text):
        try:
            result = px(text)
        except ReflconnError:
            return
        assert isinstance(result, MPoly)
