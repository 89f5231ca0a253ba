"""Parser for the expression grammar, by two readers.

Each text selects one reader.  _read_printed reads the printer's language,
the flat sums that str(MPoly) and str(CycloNum) write, at one anchored
regex match per term and one per piece of a parenthesised coefficient; it
declines any other text, and any text that breaks a bound below.  _Parser
reads every declined text, and it is the only reader that raises, so every
error message and position is its own.  Stored artifacts and most catalog
invariants are printed text; powers and products of parenthesised parts, as
in G5's and G7's catalog invariants and in typed queries, are read by _Parser.

_Parser makes one flat pass over the tokens of the grammar:

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
fires.  The parser walks the token list by index, one method per rule:
expr adds up the terms of a sum, term multiplies its factors, factor raises
its base to its '^' exponent, and base reads a number with its '/den',
zeta, a variable or a parenthesised part (the one recursion, into expr),
each as an MPoly.  Every bound is checked on the polynomials themselves,
before the power or product that it bounds is expanded.  A token's
position in the text is found only when an error is raised, by scanning the
text again for the start of that token.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import ceil, comb, lcm, log2
from operator import add

from .cyclo import MAX_CONDUCTOR, CycloNum, _canonical, cyclotomic_coeffs
from .errors import ExprSyntaxError, UnknownVariable, shorten
from .poly import MPoly

# Largest exponent and total degree accepted.  It equals cyclo.MAX_CONDUCTOR,
# so every zeta^k that a CycloNum prints (k < phi(N) < MAX_CONDUCTOR) parses
# back; the benchmark queries reach degree 48.
MAX_DEGREE = 1000

# Most terms a product or a power may have, checked before it is expanded:
# len(a) * len(b) for a product, comb(t + k - 1, k) for the k-th power of t
# terms.  That count is also the number of choices the multinomial walk of
# the power visits (cyclo.multinomial_power), so it bounds the walk's work
# as well as its output.  Catalog specs, rendered artifacts and benchmark
# queries are flat sums, whose products all have a one-term factor.
MAX_TERMS = 2000

# Deepest nesting of parentheses: each level is four frames, expr, term,
# factor and base, so this stays well inside Python's default recursion limit.
MAX_NESTING = 100

# Longest run of digits in a number or a variable index, below the 4300
# digits Python converts between int and str by default.
MAX_DIGITS = 1000

# Bit length of a MAX_DIGITS-digit integer: the bound on each numerator and
# denominator of the coefficients of every sum, parenthesised or not, and of
# every product, checked once it is built, so that a long product of big
# numbers stops at the factor that crosses it.  A power is checked before it
# is expanded, by the exponent times the bits of its base, so that it never
# builds a huge one.
MAX_COEFF_BITS = ceil(MAX_DIGITS * log2(10))

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z]\d+|[A-Za-z_]+\d*|[-+*/^()]|\S)")

# A character that starts no token of the grammar: the \S alternative above.
_BAD_CHAR = re.compile(r"[^\s\dA-Za-z_+\-*/^()]")

# A token's closing run of digits: any Unicode decimal digits, as int() reads them.
_DIGIT_RUN = re.compile(r"\d*\Z")

# The one-character tokens; every other token is a number, a variable or a name.
_OPERATORS = frozenset("+-*/^()")


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
                raise ExprSyntaxError(f"unexpected character {token!r}", m.start(1))
            if len(_DIGIT_RUN.search(token)[0]) > MAX_DIGITS:
                raise ExprSyntaxError(f"more than {MAX_DIGITS} digits", m.start(1))
    tokens.append("")
    return tokens


def _bits(p: MPoly) -> int:
    """The largest bit size of a coefficient of p; 0 for p = 0."""
    return max(map(CycloNum.bit_size, p.terms.values()), default=0)


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
        result = self.expr()
        token = self.tokens[self.i]
        if token:
            raise self.error(f"unexpected trailing {shorten(repr(token))}", self.i)
        return result

    def expr(self) -> MPoly:
        """The sum, its coefficient bits checked at its start.  The terms
        are added up in one dict, so a flat sum takes linear time."""
        tokens = self.tokens
        start = self.i
        negate = tokens[start] == "-"
        if negate:
            self.i += 1
        terms: dict = {}
        while True:
            for e, v in self.term().terms.items():
                if negate:
                    v = -v
                cur = terms.get(e)
                terms[e] = v if cur is None else cur + v
            sign = tokens[self.i]
            if sign != "+" and sign != "-":
                break
            negate = sign == "-"
            self.i += 1
        acc = MPoly(self.alphabet, self.nvars, self.conductor, terms)
        self.check_bits(_bits(acc), start)
        return acc

    def term(self) -> MPoly:
        """The product of the factors.  Its total degree, which a zero
        factor makes -1, and its number of terms are checked before each
        product, and its coefficient bits after it, at the factor."""
        product = self.factor()
        while self.tokens[self.i] == "*":
            self.i += 1
            at = self.i
            factor = self.factor()
            if product.total_degree() + factor.total_degree() > MAX_DEGREE:
                raise self.error(f"total degree above {MAX_DEGREE}", at)
            if len(product.terms) * len(factor.terms) > MAX_TERMS:
                raise self.error(f"product of more than {MAX_TERMS} terms", at)
            product = product * factor
            self.check_bits(_bits(product), at)
        return product

    def factor(self) -> MPoly:
        """The base to its '^' exponent, if any.  The exponent, the total
        degree, the number of terms and the exponent times the bits of the
        base are checked at the exponent, before the power is expanded."""
        base = self.base()
        if self.tokens[self.i] != "^":
            return base
        k = self.i + 1
        token = self.tokens[k]
        if not token.isdecimal():
            raise self.error("expected integer exponent", k)
        exponent = int(token)
        if exponent > MAX_DEGREE or base.total_degree() * exponent > MAX_DEGREE:
            raise self.error(f"exponent or total degree above {MAX_DEGREE}", k)
        if comb(max(len(base.terms), 1) + exponent - 1, exponent) > MAX_TERMS:
            raise self.error(f"power of more than {MAX_TERMS} terms", k)
        self.check_bits(exponent * _bits(base), k)
        self.i = k + 1
        return base ** exponent

    def base(self) -> MPoly:
        """A number with its '/den', zeta, a variable or a parenthesised
        part, as an MPoly."""
        tokens = self.tokens
        at = self.i
        token = tokens[at]
        self.i += 1
        space = (self.alphabet, self.nvars, self.conductor)
        if token.isdecimal():
            value = int(token)
            if tokens[self.i] == "/":
                k = self.i + 1
                if not tokens[k].isdecimal():
                    raise self.error("expected denominator", k)
                den = int(tokens[k])
                if not den:
                    raise self.error("zero denominator", k)
                self.i = k + 1
                value = Fraction(value, den)
            return MPoly.constant(value, *space)
        if token == "zeta":
            return MPoly.constant(CycloNum.zeta(self.conductor), *space)
        if token[:1] == self.alphabet and token[1:2].isdecimal():
            index = int(token[1:])
            if not 1 <= index <= self.nvars:
                raise self.error(
                    f"variable {shorten(repr(token))} out of range", at, UnknownVariable
                )
            return MPoly.variable(index, *space)
        if token == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.depth += 1
            part = self.expr()
            if tokens[self.i] != ")":
                raise self.error("expected ')'", self.i)
            self.i += 1
            self.depth -= 1
            return part
        if token and token not in _OPERATORS:
            raise self.error(f"unknown symbol {shorten(repr(token))}", at, UnknownVariable)
        raise self.error(f"unexpected token {token!r}", at)


# The printer's language, the text that str(MPoly) and str(CycloNum) write:
# a flat sum, '-' only before its first term and ' + ' or ' - ' between
# terms, each term a coefficient and/or a monomial joined by '*'.  A
# coefficient is q, q/d, q*zeta^k or zeta^k, or a parenthesised sum of
# those; a monomial is v^e*v^e*..., each ^e optional.  Every digit run is
# ASCII and at most MAX_DIGITS long, and a monomial has at most MAX_DEGREE
# factors, so that a long run or product is declined where that bound fails.
_RUN = f"[0-9]{{1,{MAX_DIGITS}}}"
_ZETA_POWER = rf"(zeta(?:\^{_RUN})?)"
_SCALAR = rf"(?:({_RUN})(?:/({_RUN}))?(?:\*{_ZETA_POWER})?|{_ZETA_POWER})"
_END = r"( \+ | - |\Z)"


def _printed_patterns(letter: str) -> tuple[re.Pattern, re.Pattern]:
    """The patterns of a term and of a piece of a parenthesised coefficient,
    for variables named by letter.

    A term is its coefficient, monomial and the separator after it, or its
    '(' and the sign of its first piece.  A piece is its scalar and the
    separator after it; after the last piece, ')' and the term's monomial
    and separator.
    """
    factor = rf"{letter}{_RUN}(?:\^{_RUN})?"
    monomial = rf"{factor}(?:\*{factor}){{0,{MAX_DEGREE - 1}}}"
    term = rf"(?:{_SCALAR}(?:\*({monomial}))?|({monomial})){_END}|\((-?)"
    piece = rf"{_SCALAR}(?:( \+ | - )|\)(?:\*({monomial}))?{_END})"
    return re.compile(term), re.compile(piece)


_PRINTED = {letter: _printed_patterns(letter) for letter in "xz"}

# A factor of a matched monomial: its variable's index and its exponent, if any.
_FACTOR = re.compile(r"[xz]([0-9]+)(?:\^([0-9]+))?")


def _scalar_numerators(q: int, zeta_power, n: int, phi: int):
    """The integer numerators of q*zeta^k in Q(zeta_n), of degree phi, for
    zeta_power the printed 'zeta^k', 'zeta' or None (k = 0); None if k is
    above MAX_DEGREE.  The printer writes only k < phi, which needs no
    reduction."""
    k = 0 if zeta_power is None else 1 if len(zeta_power) == 4 else int(zeta_power[5:])
    if k < phi:
        nums = [0] * phi
        nums[k] = q
        return nums
    if k > MAX_DEGREE:
        return None
    return [q * c for c in CycloNum.zeta(n, k)._num]


def _read_printed(text: str, alphabet: str, nvars: int, n: int) -> MPoly | None:
    """The MPoly of text if it is in the printer's language and within every
    bound that _Parser checks, else None, and _Parser reads it.

    One anchored match reads each term, and one each piece of a
    parenthesised coefficient; one findall reads a monomial's exponents.
    Each coefficient is built from integers and made canonical once.
    """
    patterns = _PRINTED.get(alphabet)
    if patterns is None or not 1 <= n <= MAX_CONDUCTOR:
        return None
    term, piece = patterns
    phi = len(cyclotomic_coeffs(n)) - 1
    sign = -1 if text[:1] == "-" else 1
    pos = int(sign < 0)
    terms: dict = {}
    while True:
        m = term.match(text, pos)
        if m is None:
            return None
        num, den, z1, z2, monomial, bare, end, opening = m.groups()
        if opening is None:
            monomial = monomial or bare
            den = int(den) if den else 1
            nums = _scalar_numerators(sign * int(num) if num else sign, z1 or z2, n, phi)
            if not den or nums is None:
                return None
            c = _canonical(n, nums, den)
        else:
            # a sum of pieces over the lcm of their denominators
            acc, acc_den = [0] * phi, 1
            s = -sign if opening else sign
            while True:
                m = piece.match(text, m.end())
                if m is None:
                    return None
                num, den, z1, z2, between, monomial, end = m.groups()
                den = int(den) if den else 1
                if not den:
                    return None
                if acc_den % den:
                    grow = lcm(acc_den, den) // acc_den
                    acc = [a * grow for a in acc]
                    acc_den *= grow
                q = s * (int(num) if num else 1) * (acc_den // den)
                nums = _scalar_numerators(q, z1 or z2, n, phi)
                if nums is None:
                    return None
                acc = list(map(add, acc, nums))
                if between is None:
                    break
                s = sign if between == " + " else -sign
            c = _canonical(n, acc, acc_den)
            if c.bit_size() > MAX_COEFF_BITS:
                return None
        exps = [0] * nvars
        if monomial:
            degree = 0
            for index, e in _FACTOR.findall(monomial):
                i = int(index) - 1
                if not 0 <= i < nvars:
                    return None
                e = int(e) if e else 1
                exps[i] += e
                degree += e
            if degree > MAX_DEGREE:
                return None
        if c:
            key = tuple(exps)
            cur = terms.get(key)
            terms[key] = c if cur is None else cur + c
        if not end:
            break
        sign = 1 if end == " + " else -1
        pos = m.end()
    result = MPoly(alphabet, nvars, n, terms)
    if max(map(CycloNum.bit_size, result.terms.values()), default=0) > MAX_COEFF_BITS:
        return None
    return result


def parse_expr(text: str, alphabet: str = "x", nvars: int = 2, conductor: int = 12) -> MPoly:
    """Parse an expression into a canonical MPoly: by _read_printed if the
    text is in the printer's language, else by _Parser."""
    result = _read_printed(text, alphabet, nvars, conductor)
    if result is None:
        result = _Parser(text, alphabet, nvars, conductor).parse()
    return result


def parse_scalar(text: str, conductor: int = 12) -> CycloNum:
    """Parse a variable-free expression into a CycloNum."""
    p = parse_expr(text, alphabet="x", nvars=1, conductor=conductor)
    if p.total_degree() > 0:
        raise ExprSyntaxError("expected a scalar expression", 0)
    return p.coefficient((0,))
