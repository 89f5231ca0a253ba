"""The expression grammar: precedence, errors with positions, round trips."""

import time
from fractions import Fraction
from functools import reduce
from math import comb, factorial, isqrt
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflconn.cyclo import CycloNum, euler_phi
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


_BIG = "9" * MAX_DIGITS
_SUM_OF_40 = "(" + " + ".join(f"x1^{i}" for i in range(40)) + ")"
_SUM_OF_51 = "(" + " + ".join(f"x2^{j}" for j in range(51)) + ")"

# (text, nvars, error, message, position): one row per raise site of the
# parser; nvars None parses the text with parse_scalar.  The message and the
# position are both pinned, since a token's position is found only when an
# error is raised.
ERROR_TABLE = {
    # an unexpected character stands at the character, past its leading blanks
    "unexpected_character": ("x1 ? x2", 2, ExprSyntaxError, "unexpected character '?'", 3),
    "digit_run_in_number": (
        "x1 + " + "7" * (MAX_DIGITS + 1), 2, ExprSyntaxError,
        f"more than {MAX_DIGITS} digits", 5,
    ),
    "digit_run_in_index": (
        "x1 + x" + "1" * (MAX_DIGITS + 1), 2, ExprSyntaxError,
        f"more than {MAX_DIGITS} digits", 5,
    ),
    "denominator_at_end": ("x1 + 2/", 2, ExprSyntaxError, "expected denominator", 7),
    "denominator_before_token": ("2/x1", 2, ExprSyntaxError, "expected denominator", 2),
    "zero_denominator": ("x1 + 3/0", 2, ExprSyntaxError, "zero denominator", 7),
    "exponent_at_end": ("x1 + x2^ ", 2, ExprSyntaxError, "expected integer exponent", 9),
    "exponent_before_token": ("x1^x2", 2, ExprSyntaxError, "expected integer exponent", 3),
    "exponent_bound": (
        f"x1 * x2^{MAX_DEGREE + 1}", 2, ExprSyntaxError,
        f"exponent or total degree above {MAX_DEGREE}", 8,
    ),
    "power_degree_bound": (
        f"(x1*x2)^{MAX_DEGREE // 2 + 1}", 2, ExprSyntaxError,
        f"exponent or total degree above {MAX_DEGREE}", 8,
    ),
    "total_degree_bound": (
        "x1^600 * x2^401", 2, ExprSyntaxError, f"total degree above {MAX_DEGREE}", 9,
    ),
    "power_term_bound": (
        "x1 + (x1 + x2 + x3)^300", 3, ExprSyntaxError,
        f"power of more than {MAX_TERMS} terms", 20,
    ),
    "product_term_bound": (
        f"{_SUM_OF_40}*{_SUM_OF_51}", 2, ExprSyntaxError,
        f"product of more than {MAX_TERMS} terms", len(_SUM_OF_40) + 1,
    ),
    "coefficient_bound_at_factor": (
        f"x2 + {_BIG}*{_BIG}*x1", 2, ExprSyntaxError,
        f"coefficient of more than {MAX_DIGITS} digits", len(f"x2 + {_BIG}*"),
    ),
    "coefficient_bound_of_sum": (
        f"{_BIG} + {_BIG}", 2, ExprSyntaxError,
        f"coefficient of more than {MAX_DIGITS} digits", 0,
    ),
    "coefficient_bound_of_part": (
        f"x1*(1/{_BIG} + 1/{'9' * (MAX_DIGITS - 1)}8)", 2, ExprSyntaxError,
        f"coefficient of more than {MAX_DIGITS} digits", 4,
    ),
    "coefficient_bound_before_power": (
        f"x1 + ({'9' * 20}*x1)^200", 2, ExprSyntaxError,
        f"coefficient of more than {MAX_DIGITS} digits", len(f"x1 + ({'9' * 20}*x1)^"),
    ),
    "nesting_bound": (
        "x1 + " + "(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1), 2,
        ExprSyntaxError, f"parentheses nested deeper than {MAX_NESTING}", 5 + MAX_NESTING,
    ),
    "expected_close_paren": ("(x1^2^3)", 2, ExprSyntaxError, "expected ')'", 5),
    "unclosed_paren_at_end": ("(x1 + x2", 2, ExprSyntaxError, "expected ')'", 8),
    "unexpected_token": ("x1 + *x2", 2, ExprSyntaxError, "unexpected token '*'", 5),
    "unexpected_end": ("x1 + ", 2, ExprSyntaxError, "unexpected token ''", 5),
    "empty_text": ("", 2, ExprSyntaxError, "unexpected token ''", 0),
    "unexpected_trailing": ("x1^2^3", 2, ExprSyntaxError, "unexpected trailing '^'", 4),
    "trailing_factor": ("x1 x2", 2, ExprSyntaxError, "unexpected trailing 'x2'", 3),
    "unknown_symbol": ("x1 + y2", 2, UnknownVariable, "unknown symbol 'y2'", 5),
    "unknown_name": ("2*zeta3", 2, UnknownVariable, "unknown symbol 'zeta3'", 2),
    "variable_out_of_range": ("x1*x3", 2, UnknownVariable, "variable 'x3' out of range", 3),
    "variable_zero": ("x0", 2, UnknownVariable, "variable 'x0' out of range", 0),
    # x01 and x02 read as x1 and x2; x03 keeps its text in the message
    "leading_zero_index": (
        "x01^2 + x02*x03", 2, UnknownVariable, "variable 'x03' out of range", 12,
    ),
    "scalar_with_variable": ("1 + x1", None, ExprSyntaxError, "expected a scalar expression", 0),
}


@pytest.mark.parametrize("case", sorted(ERROR_TABLE))
def test_error_message_and_position(case):
    text, nvars, error, message, position = ERROR_TABLE[case]
    with pytest.raises(ExprSyntaxError) as exc:
        if nvars is None:
            parse_scalar(text, 12)
        else:
            px(text, nvars=nvars)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_leading_zero_index_reads_as_the_index():
    assert px("x01^2 + x002") == px("x1^2 + x2")


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

    def test_a_zero_factor_ends_the_degree_check_from_where_it_stands(self):
        # the degree of a product is -1 from its zero factor on, so the
        # bound sees only the factors before it
        assert px("0*x1^600*x1^600") == 0
        with pytest.raises(ExprSyntaxError, match="total degree") as exc:
            px("x1^600*x1^600*0")
        assert exc.value.position == 7


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


class TestLargestPowersOfLinearForms:
    """The largest powers of linear and affine forms, and of other sums of
    three terms, within every bound, expanded by the multinomial theorem,
    with their coefficients pinned exactly."""

    def test_binary_form_to_the_degree_bound(self):
        p = px(f"(x1+x2)^{MAX_DEGREE}")
        assert len(p.terms) == MAX_DEGREE + 1
        half = MAX_DEGREE // 2
        assert p.coefficient((half, half)) == comb(MAX_DEGREE, half)
        assert p.coefficient((1, MAX_DEGREE - 1)) == MAX_DEGREE

    def test_ternary_form_to_the_term_bound(self):
        p = px("(x1+x2+x3)^61", nvars=3)
        assert comb(63, 2) <= MAX_TERMS < comb(64, 2)
        assert len(p.terms) == comb(63, 2) == 1953
        multinomial = factorial(61) // (factorial(20) * factorial(20) * factorial(21))
        assert p.coefficient((20, 20, 21)) == multinomial
        assert p.coefficient((61, 0, 0)) == 1

    def test_affine_form_to_the_term_bound(self):
        # the constant takes the place of x3: same terms, same coefficients
        p = px("(x1+x2+1)^61")
        assert len(p.terms) == 1953
        multinomial = factorial(61) // (factorial(20) * factorial(20) * factorial(21))
        assert p.coefficient((20, 20)) == multinomial
        assert p.coefficient((0, 0)) == p.coefficient((61, 0)) == 1
        assert p.coefficient((60, 0)) == 61

    def test_sum_of_squares_to_the_term_bound(self):
        # x1^2 and x2^2 take the places of x1 and x2: no two choices collide
        p = px("(x1^2+x2^2+1)^61")
        assert len(p.terms) == 1953
        multinomial = factorial(61) // (factorial(20) * factorial(20) * factorial(21))
        assert p.coefficient((40, 40)) == multinomial
        assert p.coefficient((0, 0)) == p.coefficient((122, 0)) == 1

    def test_product_form_to_the_term_bound(self):
        # (x1*x2)^a*x1^b*x2^c is x1^(a+b)*x2^(a+c), so with a+b+c = 61 the
        # 1,953 choices give 1,953 distinct monomials
        p = px("(x1*x2+x1+x2)^61")
        assert len(p.terms) == 1953
        multinomial = factorial(61) // (factorial(20) * factorial(20) * factorial(21))
        assert p.coefficient((41, 40)) == multinomial
        assert p.coefficient((61, 61)) == p.coefficient((61, 0)) == 1

    def test_long_sum_to_the_first_and_zeroth_power(self):
        # 1,980 terms, within MAX_TERMS at exponent 1: the multinomial walk
        # keeps its own stack, so no recursion grows with the number of terms
        text = " + ".join(f"x1^{i}*x2^{j}" for i in range(45) for j in range(44))
        assert px(f"({text})^1") == px(text)
        assert px(f"({text})^0") == 1


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


    def test_digit_run_bound_counts_every_decimal_digit(self):
        # int() reads any Unicode decimal digit, and a run of 5,000 of them
        # once passed the bound and raised ValueError in int()
        three = "\u0663"  # ARABIC-INDIC DIGIT THREE
        assert px(f"{three}*x1") == px("3*x1")
        for text in (three * 5000, "x1 + x" + three * (MAX_DIGITS + 1)):
            with pytest.raises(ExprSyntaxError, match=f"more than {MAX_DIGITS} digits"):
                px(text)

    def test_coefficient_bound_names_its_position(self):
        big, other = "9" * MAX_DIGITS, "9" * (MAX_DIGITS - 1) + "8"
        assert px(f"{big}*x1 - 1/{big}") == px(f"x1*{big} - 1/{big}")
        cases = (
            (f"x2 + {big}*{big}*x1", len(f"x2 + {big}*")),  # a product, at its factor
            (f"{big} + {big}", 0),  # a sum, once it is built
            (f"x1 + ({'9' * 20}*x1)^200", len(f"x1 + ({'9' * 20}*x1)^")),  # before a power
            (f"x1*(1/{big} + 1/{other})", len("x1*(")),  # coprime denominators
        )
        for text, position in cases:
            with pytest.raises(ExprSyntaxError, match=f"more than {MAX_DIGITS} digits") as exc:
                px(text)
            assert exc.value.position == position

    def test_long_product_is_rejected_at_its_second_factor_quickly(self):
        # multiplying all 400 factors before the check took over a second
        big = "9" * MAX_DIGITS
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError, match=f"more than {MAX_DIGITS} digits") as exc:
            px("*".join([big] * 400))
        assert time.perf_counter() - start < 0.2
        assert exc.value.position == MAX_DIGITS + 1


class TestFlatSums:
    def test_sum_tests_each_coefficient_a_bounded_number_of_times(self, monkeypatch):
        # the 1,326 monomials of degree 50 in x1..x3: adding a term once
        # tested every coefficient of the sum so far again (941,671 calls)
        terms = [f"{i + j + 1}*x1^{50 - i - j}*x2^{i}*x3^{j}"
                 for i in range(51) for j in range(51 - i)]
        nonzero = CycloNum.__bool__
        calls = []

        def counting(c):
            calls.append(None)
            return nonzero(c)

        monkeypatch.setattr(CycloNum, "__bool__", counting)
        counts = []
        for k in (len(terms) // 2, len(terms)):
            calls.clear()
            assert len(px(" + ".join(terms[:k]), nvars=3).terms) == k
            counts.append(len(calls))
        assert counts[1] < 2.2 * counts[0]
        assert counts[1] < 40 * len(terms)

    def test_sum_of_monomials_makes_no_polynomial_product(self, monkeypatch):
        # the 5,151 monomials of degree 100 in x1..x3: each term is one
        # coefficient and one exponent vector, with no MPoly product
        terms = [f"{i + j + 1}*x1^{100 - i - j}*x2^{i}*x3^{j}"
                 for i in range(101) for j in range(101 - i)]
        product = MPoly.__mul__
        calls = []

        def counting(a, b):
            calls.append(None)
            return product(a, b)

        monkeypatch.setattr(MPoly, "__mul__", counting)
        f = px(" + ".join(terms), nvars=3)
        assert len(f.terms) == len(terms) == 5151
        assert f.coefficient((0, 100, 0)) == 101
        assert not calls


@st.composite
def sparse_polys(draw, alphabet=None, conductor=None, nvars=None, max_terms=6):
    """A random MPoly of at most max_terms terms, its space drawn where not given."""
    alphabet = alphabet or draw(st.sampled_from("xz"))
    conductor = conductor or draw(st.sampled_from((1, 3, 12)))
    nvars = nvars or draw(st.integers(1, 3))
    rational = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6))
    coeff = st.lists(rational, min_size=euler_phi(conductor), max_size=euler_phi(conductor))
    exps = st.tuples(*[st.integers(0, 12)] * nvars)
    terms = draw(st.dictionaries(exps, coeff.map(lambda v: CycloNum(conductor, v)),
                                 max_size=max_terms))
    return MPoly(alphabet, nvars, conductor, terms)


@st.composite
def poly_pairs(draw):
    a = draw(sparse_polys(max_terms=4))
    b = draw(sparse_polys(a.alphabet, a.conductor, a.nvars, max_terms=4))
    return a, b


def _parse_like(text, p):
    return parse_expr(text, p.alphabet, p.nvars, p.conductor)


class TestParsedArithmetic:
    @settings(max_examples=100, deadline=None)
    @given(sparse_polys())
    def test_print_parse_round_trip(self, p):
        assert _parse_like(str(p), p) == p

    @settings(max_examples=50, deadline=None)
    @given(poly_pairs(), st.integers(0, 4))
    def test_products_and_powers_of_parts(self, pair, k):
        a, b = pair
        one = MPoly.constant(1, a.alphabet, a.nvars, a.conductor)
        assert _parse_like(f"({a})*({b})", a) == a * b
        assert _parse_like(f"({a})^{k}", a) == reduce(mul, [a] * k, one)

    @settings(max_examples=50, deadline=None)
    @given(poly_pairs())
    def test_factors_around_parts(self, pair):
        # numbers, zeta and variables between parenthesised parts
        a, b = pair
        v = a.alphabet + "1"
        c = CycloNum.zeta(a.conductor, 5) * Fraction(-6, 7)
        x = MPoly.variable(1, a.alphabet, a.nvars, a.conductor)
        expected = a * b * x * x * x * c
        assert _parse_like(f"-2*{v}^2*({a})*zeta^5*3/7*({b})*{v}", a) == expected


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
