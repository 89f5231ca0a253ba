"""Parser for the expression grammar: one flat pass over the tokens.

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

The text is split by one findall into plain token strings, with no match
object or position kept per token.  One search for a character outside the
grammar and the length of the longest token stand in for the character and
digit-run checks; the offending token is located only when one of them
fires.  The parser walks the token list by index: expr reads the terms of a
sum, and term reads each factor in place, a number with its '/den', a
variable, zeta or a parenthesised part (the one recursion, into expr), then
its '^' exponent.  A token's position in the text is found only when an
error is raised, by scanning the text again for the start of that token.

A term is built as one coefficient and one exponent vector: numbers, zeta
and variables only multiply the one and add to the other, and only a
parenthesised factor is multiplied as an MPoly.  Every bound is checked as
if each factor were an MPoly, at the same token.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
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

# Deepest nesting of parentheses: each level is two frames, expr and term,
# so this stays well inside Python's default recursion limit.
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

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z]\d+|[A-Za-z_]+\d*|[-+*/^()]|\S)")

# A character that starts no token of the grammar: the \S alternative above.
_BAD_CHAR = re.compile(r"[^\s\dA-Za-z_+\-*/^()]")

# A token's closing run of digits: any Unicode decimal digits, as int() reads them.
_DIGIT_RUN = re.compile(r"\d*\Z")

# The one-character tokens; every other token is a number, a variable or a name.
_OPERATORS = frozenset("+-*/^()")

# The kinds of factor that _Parser.term reads, with the value each carries.
_NUMBER = 0  # an int or Fraction
_ZETA = 1  # the exponent of zeta
_VAR = 2  # the 0-based index of the variable; its exponent is the degree
_PART = 3  # the MPoly of a parenthesised part


def _split(text: str) -> list[str]:
    """The tokens of text as plain strings, then "" for the end.  A
    variable, one letter and its index, is one token, so the parser reads
    both off its text.  An unexpected character or a run of more than
    MAX_DIGITS digits is found by one search and one length test; the
    offending token is located only when one of them fires."""
    tokens = _TOKEN_RE.findall(text)
    if _BAD_CHAR.search(text) or max(map(len, tokens), default=0) > MAX_DIGITS:
        for m in _TOKEN_RE.finditer(text):
            token = m[1]
            if _BAD_CHAR.match(token):
                raise ExprSyntaxError(f"unexpected character {token!r}", m.start())
            if len(_DIGIT_RUN.search(token)[0]) > MAX_DIGITS:
                raise ExprSyntaxError(f"more than {MAX_DIGITS} digits", m.start(1))
    tokens.append("")
    return tokens


def _coefficient(q, zk: int, n: int) -> CycloNum:
    """q * zeta^zk in Q(zeta_n)."""
    if zk % n == 0:
        return CycloNum.from_rational(q, n)
    z = CycloNum.zeta(n, zk)
    return z if q == 1 else z * q


class _Parser:
    def __init__(self, text: str, alphabet: str, nvars: int, conductor: int):
        self.text = text
        self.tokens = _split(text)
        self.i = 0
        self.depth = 0
        self.alphabet = alphabet
        self.nvars = nvars
        self.conductor = conductor

    def error(self, message: str, k: int, cls=ExprSyntaxError) -> ExprSyntaxError:
        """cls(message) at the start of token k, found by scanning the text
        again; the end of the text if k is the end."""
        m = next(islice(_TOKEN_RE.finditer(self.text), k, None), None)
        return cls(message, len(self.text) if m is None else m.start(1))

    def check_bits(self, bits: int, k: int) -> None:
        if bits > MAX_COEFF_BITS:
            raise self.error(f"coefficient of more than {MAX_DIGITS} digits", k)

    def parse(self) -> MPoly:
        result, _ = self.expr()
        token = self.tokens[self.i]
        if token:
            raise self.error(f"unexpected trailing {token!r}", self.i)
        return result

    def expr(self) -> tuple[MPoly, int]:
        """The sum, and the bits of its coefficients, checked here.  The
        terms are added up in one dict, so a flat sum takes linear time."""
        tokens = self.tokens
        start = self.i
        q = 1
        if tokens[start] == "-":
            self.i += 1
            q = -1
        terms: dict = {}
        while True:
            self.term(q, terms)
            sign = tokens[self.i]
            if sign == "+":
                q = 1
            elif sign == "-":
                q = -1
            else:
                break
            self.i += 1
        acc = MPoly(self.alphabet, self.nvars, self.conductor, terms)
        bits = max(map(CycloNum.bit_size, acc.terms.values()), default=0)
        self.check_bits(bits, start)
        return acc, bits

    def term(self, q, terms: dict) -> None:
        """Add q times one product to terms, a dict of exponent tuples to
        coefficients.

        The product is held as a rational q, an exponent of zeta, an
        exponent vector and the MPoly product of its parenthesised factors,
        if any.  A factor's bits are those of its coefficients, none for a
        variable or zeta, whose powers have coefficients of a few bits.
        Each factor after the first is checked as the MPoly product would
        be: its total degree, which a zero factor makes -1, and its terms,
        at the factor; its coefficient bits once the factors' bits add up
        past the bound, measured on the product itself.
        """
        tokens = self.tokens
        alphabet = self.alphabet
        n = self.conductor
        i = self.i
        exps = [0] * self.nvars
        zk = 0
        part = None
        degree = bits = 0
        first = True
        while True:
            at = i  # the factor's first token, where its product checks stand
            token = tokens[i]
            i += 1
            if token.isdecimal():
                kind = _NUMBER
                value = int(token)
                if tokens[i] == "/":
                    i += 1
                    if not tokens[i].isdecimal():
                        raise self.error("expected denominator", i)
                    den = int(tokens[i])
                    if not den:
                        raise self.error("zero denominator", i)
                    i += 1
                    value = Fraction(value, den)
                    fbits = max(value.numerator.bit_length(), value.denominator.bit_length())
                else:
                    fbits = value.bit_length()
                fdeg = 0 if value else -1
            elif token[:1] == alphabet and token[1:2].isdecimal():
                kind = _VAR
                value = int(token[1:]) - 1
                if not 0 <= value < self.nvars:
                    raise self.error(f"variable {token!r} out of range", at, UnknownVariable)
                fdeg, fbits = 1, 0
            elif token == "zeta":
                kind, value, fdeg, fbits = _ZETA, 1, 0, 0
            elif token == "(":
                if self.depth == MAX_NESTING:
                    raise self.error(f"parentheses nested deeper than {MAX_NESTING}", at)
                self.depth += 1
                self.i = i
                value, fbits = self.expr()
                i = self.i
                if tokens[i] != ")":
                    raise self.error("expected ')'", i)
                i += 1
                self.depth -= 1
                kind, fdeg = _PART, value.total_degree()
            elif token and token not in _OPERATORS:
                raise self.error(f"unknown symbol {token!r}", at, UnknownVariable)
            else:
                raise self.error(f"unexpected token {token!r}", at)
            if tokens[i] == "^":
                i += 1
                token = tokens[i]
                if not token.isdecimal():
                    raise self.error("expected integer exponent", i)
                exponent = int(token)
                if exponent > MAX_DEGREE or fdeg * exponent > MAX_DEGREE:
                    raise self.error(f"exponent or total degree above {MAX_DEGREE}", i)
                if kind == _PART and comb(max(len(value.terms), 1) + exponent - 1, exponent) > MAX_TERMS:
                    raise self.error(f"power of more than {MAX_TERMS} terms", i)
                fbits *= exponent
                self.check_bits(fbits, i)
                i += 1
                if kind == _ZETA:
                    value *= exponent
                elif kind != _VAR:
                    value **= exponent
                fdeg = fdeg * exponent if fdeg >= 0 else -1 if exponent else 0
            if not first:
                if degree + fdeg > MAX_DEGREE:
                    raise self.error(f"total degree above {MAX_DEGREE}", at)
                if kind == _PART or part is not None:
                    count = 0 if degree < 0 else 1 if part is None else len(part.terms)
                    fcount = 0 if fdeg < 0 else len(value.terms) if kind == _PART else 1
                    if count * fcount > MAX_TERMS:
                        raise self.error(f"product of more than {MAX_TERMS} terms", at)
            first = False
            degree = -1 if degree < 0 or fdeg < 0 else degree + fdeg
            if kind == _NUMBER:
                q *= value
            elif kind == _VAR:
                exps[value] += fdeg
            elif kind == _ZETA:
                zk += value
            elif degree >= 0:
                part = value if part is None else part * value
            # a product's bits stay near the sum of its factors' bits:
            # measure the product only once that sum passes the bound
            bits += fbits
            if bits > MAX_COEFF_BITS:
                bits = 0
                if degree >= 0:
                    c = _coefficient(q, zk, n)
                    bits = c.bit_size() if part is None else max(
                        (c * v).bit_size() for v in part.terms.values()
                    )
                self.check_bits(bits, at)
            if tokens[i] != "*":
                break
            i += 1
        self.i = i
        if degree < 0:
            return
        c = _coefficient(q, zk, n)
        if part is None:
            products = ((tuple(exps), c),)
        else:
            scale = q != 1 or zk % n
            shift = any(exps)
            products = (
                (tuple(map(add, e, exps)) if shift else e, v * c if scale else v)
                for e, v in part.terms.items()
            )
        for e, v in products:
            cur = terms.get(e)
            terms[e] = v if cur is None else cur + v


def parse_expr(text: str, alphabet: str = "x", nvars: int = 2, conductor: int = 12) -> MPoly:
    """Parse an expression into a canonical MPoly."""
    return _Parser(text, alphabet, nvars, conductor).parse()


def parse_scalar(text: str, conductor: int = 12) -> CycloNum:
    """Parse a variable-free expression into a CycloNum."""
    p = parse_expr(text, alphabet="x", nvars=1, conductor=conductor)
    if p.total_degree() > 0:
        raise ExprSyntaxError("expected a scalar expression", 0)
    return p.coefficient((0,))
