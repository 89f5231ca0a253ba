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
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import ceil, comb, log2

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
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]+\d*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        kind = m.lastgroup
        token = m.group(kind)
        if len(token) - len(token.rstrip("0123456789")) > MAX_DIGITS:
            raise ExprSyntaxError(f"more than {MAX_DIGITS} digits", m.start(kind))
        tokens.append((kind, token, m.start(kind)))
        pos = m.end()
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

    def _const(self, value) -> MPoly:
        return MPoly.constant(value, self.alphabet, self.nvars, self.conductor)

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
            for e, c in self.term().terms.items():
                if sign == "-":
                    c = -c
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

    def term(self) -> MPoly:
        acc, bits = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                pos = self.peek()[2]
                rhs, rhs_bits = self.factor()
                if acc.total_degree() + rhs.total_degree() > MAX_DEGREE:
                    raise ExprSyntaxError(f"total degree above {MAX_DEGREE}", pos)
                if len(acc.terms) * len(rhs.terms) > MAX_TERMS:
                    raise ExprSyntaxError(f"product of more than {MAX_TERMS} terms", pos)
                acc = acc * rhs
                # a product's bits stay near the sum of its factors' bits:
                # measure the product only once that sum passes the bound
                bits += rhs_bits
                if bits > MAX_COEFF_BITS:
                    bits = _coeff_bits(acc)
                    _check_coeff_bits(bits, pos)
            else:
                return acc

    def factor(self) -> tuple[MPoly, int]:
        """The factor, and its coefficient bits as base counts them, times
        the exponent."""
        base, bits = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            k, v, pos = self.next()
            if k != "int":
                raise ExprSyntaxError("expected integer exponent", pos)
            exponent = int(v)
            if exponent > MAX_DEGREE or base.total_degree() * exponent > MAX_DEGREE:
                raise ExprSyntaxError(f"exponent or total degree above {MAX_DEGREE}", pos)
            t = max(len(base.terms), 1)
            if comb(t + exponent - 1, exponent) > MAX_TERMS:
                raise ExprSyntaxError(f"power of more than {MAX_TERMS} terms", pos)
            bits *= exponent
            _check_coeff_bits(bits, pos)
            return base ** exponent, bits
        return base, bits

    def base(self) -> tuple[MPoly, int]:
        """The base, and the bits of its coefficients: none for a variable
        or zeta, whose powers have coefficients of a few bits."""
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
                return self._const(q), max(q.numerator.bit_length(), q.denominator.bit_length())
            return self._const(num), num.bit_length()
        if kind == "name":
            if value == "zeta":
                return self._const(CycloNum.zeta(self.conductor)), 0
            m = re.fullmatch(r"([A-Za-z])(\d+)", value)
            if m and m.group(1) == self.alphabet:
                index = int(m.group(2))
                if not 1 <= index <= self.nvars:
                    raise UnknownVariable(f"variable {value!r} out of range", pos)
                return MPoly.variable(index, self.alphabet, self.nvars, self.conductor), 0
            raise UnknownVariable(f"unknown symbol {value!r}", pos)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
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
