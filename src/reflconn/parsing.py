"""Recursive-descent parser for the expression grammar.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := rational | 'zeta' | var | '(' expr ')'
    var    := ('x'|'z') uint

Whitespace is insignificant.  Printing an MPoly and parsing it back yields
the identical canonical form.  Every exponent, and the total degree of every
product, is at most MAX_DEGREE; the most terms every product and power can
have is at most MAX_TERMS.  Parentheses nest at most MAX_NESTING deep, a
run of digits is at most MAX_DIGITS long, and so is every numerator and
denominator of the coefficients of the result and of each parenthesised part.

A term is built as one coefficient and one exponent vector: numbers, zeta
and variables only multiply the one and add to the other, and only a
parenthesised factor is multiplied as an MPoly.  Every bound is checked as
if each factor were an MPoly, at the same positions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import ceil, comb, log2
from operator import add

from .cyclo import CycloNum
from .errors import ExprSyntaxError, UnknownVariable
from .poly import MPoly

# Largest exponent and total degree accepted.  It equals cyclo.MAX_CONDUCTOR,
# so every zeta^k that a CycloNum prints (k < phi(N) < MAX_CONDUCTOR) parses
# back; the benchmark queries reach degree 48.
MAX_DEGREE = 1000

# Most terms a product or a power may have, checked before it is expanded:
# len(a) * len(b) for a product, comb(t + k - 1, k) for the k-th power of t
# terms.  Catalog specs, rendered artifacts and benchmark queries are flat
# sums, whose products all have a one-term factor.
MAX_TERMS = 2000

# Deepest nesting of parentheses: each level is four frames of the recursive
# descent, so this stays well inside Python's default recursion limit.
MAX_NESTING = 100

# Longest run of digits in a number or a variable index, below the 4300
# digits Python converts between int and str by default.
MAX_DIGITS = 1000

# Bit length of a MAX_DIGITS-digit integer: the bound on each numerator and
# denominator of the coefficients of every sum, parenthesised or not, checked
# once the sum is built.  A power of a number or of a parenthesised part is
# checked before it is expanded, by the exponent times the bits of its base,
# so that it never builds a huge one.  Within a term, a product is measured
# once the bits of its factors add up past the bound, a variable or zeta
# counting none, so that a long product of big numbers stops at the factor
# that crosses it.  Measuring every product instead cost about 5% of
# query_stream in perfbench, whose artifacts are sums of monomials.
MAX_COEFF_BITS = ceil(MAX_DIGITS * log2(10))

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<var>[A-Za-z]\d+)|(?P<name>[A-Za-z_]+\d*)|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)

# A token's closing run of digits: any Unicode decimal digits, as int() reads them.
_DIGIT_RUN = re.compile(r"\d*\Z")

# The kinds of factor that _Parser.factor returns, with the value each carries.
_NUMBER = 0  # an int or Fraction
_ZETA = 1  # the exponent of zeta
_VAR = 2  # the 0-based index of the variable; its exponent is the degree
_PART = 3  # the MPoly of a parenthesised part


def _tokenize(text: str):
    """(kind, text, position) tuples.  A variable, one letter and its index,
    is a "var" token of its own, so the parser reads both off its text."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        token = m.group(kind)
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {token!r}", m.start())
        if len(token) > MAX_DIGITS and len(_DIGIT_RUN.search(token)[0]) > MAX_DIGITS:
            raise ExprSyntaxError(f"more than {MAX_DIGITS} digits", m.start(kind))
        tokens.append((kind, token, m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _coeff_bits(p: MPoly) -> int:
    return max(map(CycloNum.bit_size, p.terms.values()), default=0)


def _check_coeff_bits(bits: int, pos: int) -> None:
    if bits > MAX_COEFF_BITS:
        raise ExprSyntaxError(f"coefficient of more than {MAX_DIGITS} digits", pos)


class _Parser:
    def __init__(self, text: str, alphabet: str, nvars: int, conductor: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.alphabet = alphabet
        self.nvars = nvars
        self.conductor = conductor

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.next()
        if kind != "op" or value != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", pos)

    def parse(self) -> MPoly:
        result, _ = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {value!r}", pos)
        return result

    def expr(self) -> tuple[MPoly, int]:
        """The sum, and the bits of its coefficients, checked here.  The
        terms are added up in one dict, so a flat sum takes linear time."""
        kind, value, start = self.peek()
        sign = "+"
        if kind == "op" and value == "-":
            self.next()
            sign = "-"
        terms: dict = {}
        while True:
            for e, c in self.term(-1 if sign == "-" else 1).items():
                cur = terms.get(e)
                terms[e] = c if cur is None else cur + c
            kind, sign, _ = self.peek()
            if kind != "op" or sign not in "+-":
                break
            self.next()
        acc = MPoly(self.alphabet, self.nvars, self.conductor, terms)
        bits = _coeff_bits(acc)
        _check_coeff_bits(bits, start)
        return acc, bits

    def term(self, q) -> dict:
        """The terms of q times one product, as exponent tuples to
        coefficients.

        The product is held as a rational q, an exponent of zeta, an
        exponent vector and the MPoly product of its parenthesised factors,
        if any: a number multiplies q, zeta^k and x_i^k add to an exponent,
        and only a parenthesised factor is multiplied as a polynomial.  Each
        factor after the first is checked as the MPoly product would be:
        its total degree, which a zero factor makes -1, and its terms, at
        the factor; its coefficient bits once the factors' bits add up past
        the bound, measured on the product itself.
        """
        n = self.conductor
        exps = [0] * self.nvars
        zk = 0
        part = None
        degree = bits = 0
        first = True
        while True:
            pos = self.peek()[2]
            kind, value, fdeg, fbits = self.factor()
            if not first:
                if degree + fdeg > MAX_DEGREE:
                    raise ExprSyntaxError(f"total degree above {MAX_DEGREE}", pos)
                terms = 0 if degree < 0 else 1 if part is None else len(part.terms)
                fterms = 0 if fdeg < 0 else len(value.terms) if kind == _PART else 1
                if terms * fterms > MAX_TERMS:
                    raise ExprSyntaxError(f"product of more than {MAX_TERMS} terms", pos)
            first = False
            degree = -1 if degree < 0 or fdeg < 0 else degree + fdeg
            if kind == _NUMBER:
                q *= value
            elif kind == _ZETA:
                zk += value
            elif kind == _VAR:
                exps[value] += fdeg
            elif degree >= 0:
                part = value if part is None else part * value
            # a product's bits stay near the sum of its factors' bits:
            # measure the product only once that sum passes the bound
            bits += fbits
            if bits > MAX_COEFF_BITS:
                bits = 0
                if degree >= 0:
                    c = self._coefficient(q, zk)
                    bits = c.bit_size() if part is None else max(
                        (c * v).bit_size() for v in part.terms.values()
                    )
                _check_coeff_bits(bits, pos)
            kind, value, _ = self.peek()
            if kind != "op" or value != "*":
                break
            self.next()
        if degree < 0:
            return {}
        c = self._coefficient(q, zk)
        if part is None:
            return {tuple(exps): c}
        scale = q != 1 or zk % n
        shift = any(exps)
        return {
            tuple(map(add, e, exps)) if shift else e: v * c if scale else v
            for e, v in part.terms.items()
        }

    def _coefficient(self, q, zk) -> CycloNum:
        """q * zeta^zk."""
        n = self.conductor
        if zk % n == 0:
            return CycloNum.from_rational(q, n)
        z = CycloNum.zeta(n, zk)
        return z if q == 1 else z * q

    def factor(self) -> tuple[int, object, int, int]:
        """The factor as (kind, value, degree, bits): its kind and value as
        base gives them, raised to the exponent, its total degree (-1 if
        zero), and its coefficient bits as base counts them, times the
        exponent."""
        kind, value, degree, bits = self.base()
        k, v, _ = self.peek()
        if k != "op" or v != "^":
            return kind, value, degree, bits
        self.next()
        k, v, pos = self.next()
        if k != "int":
            raise ExprSyntaxError("expected integer exponent", pos)
        exponent = int(v)
        if exponent > MAX_DEGREE or degree * exponent > MAX_DEGREE:
            raise ExprSyntaxError(f"exponent or total degree above {MAX_DEGREE}", pos)
        if kind == _PART and comb(max(len(value.terms), 1) + exponent - 1, exponent) > MAX_TERMS:
            raise ExprSyntaxError(f"power of more than {MAX_TERMS} terms", pos)
        bits *= exponent
        _check_coeff_bits(bits, pos)
        if kind == _ZETA:
            value *= exponent
        elif kind != _VAR:
            value **= exponent
        return kind, value, degree * exponent if degree >= 0 else -1 if exponent else 0, bits

    def base(self) -> tuple[int, object, int, int]:
        """The base as (kind, value, degree, bits): bits of its coefficients,
        none for a variable or zeta, whose powers have coefficients of a few
        bits."""
        kind, value, pos = self.next()
        if kind == "int":
            num = int(value)
            k, v, _ = self.peek()
            if k == "op" and v == "/":
                self.next()
                k2, v2, pos2 = self.next()
                if k2 != "int":
                    raise ExprSyntaxError("expected denominator", pos2)
                if int(v2) == 0:
                    raise ExprSyntaxError("zero denominator", pos2)
                q = Fraction(num, int(v2))
                bits = max(q.numerator.bit_length(), q.denominator.bit_length())
                return _NUMBER, q, 0 if q else -1, bits
            return _NUMBER, num, 0 if num else -1, num.bit_length()
        if kind == "var" and value[0] == self.alphabet:
            index = int(value[1:])
            if not 1 <= index <= self.nvars:
                raise UnknownVariable(f"variable {value!r} out of range", pos)
            return _VAR, index - 1, 1, 0
        if kind == "name" and value == "zeta":
            return _ZETA, 1, 0, 0
        if kind in ("var", "name"):
            raise UnknownVariable(f"unknown symbol {value!r}", pos)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner, bits = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return _PART, inner, inner.total_degree(), bits
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)


def parse_expr(text: str, alphabet: str = "x", nvars: int = 2, conductor: int = 12) -> MPoly:
    """Parse an expression into a canonical MPoly."""
    return _Parser(text, alphabet, nvars, conductor).parse()


def parse_scalar(text: str, conductor: int = 12) -> CycloNum:
    """Parse a variable-free expression into a CycloNum."""
    p = parse_expr(text, alphabet="x", nvars=1, conductor=conductor)
    if p.total_degree() > 0:
        raise ExprSyntaxError("expected a scalar expression", 0)
    return p.coefficient((0,))
