"""Sparse multivariate polynomials and rational functions over Q(zeta_N).

Monomials are ordered graded-lexicographically with var1 > ... > varn.
No multivariate gcd exists anywhere in this package: rational functions
compare by cross-multiplication and all simplification goes through exact
division.

A power of a polynomial of two or more terms is expanded by the
multinomial theorem (cyclo.multinomial_power), at about one scalar product
per choice of exponents, with no lower power built.  The group action
substitutes through a PowerTable over the linear images l_j of the
variables, so the image of x^a takes each l_j^(a_j) alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from operator import add

from .cyclo import (
    CycloNum,
    cyclotomic_coeffs,
    integer_form,
    monomial_form,
    multinomial_power,
    signed_sum,
    sum_of_products,
)
from .errors import ConductorMismatch, NotDivisible, NonHomogeneousInput
from .linalg import mat_inverse


def grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def weighted_exponents(target: int, weights) -> list[tuple[int, ...]]:
    """All e >= 0 with sum e_i * weights_i == target, in ascending
    lexicographic order; the weights are positive."""
    w = weights[0]
    if len(weights) == 1:
        q, r = divmod(target, w)
        return [] if r else [(q,)]
    return [
        (e,) + tail
        for e in range(target // w + 1)
        for tail in weighted_exponents(target - e * w, weights[1:])
    ]


class MPoly:
    """Sparse polynomial in x1..xn or z1..zn with CycloNum coefficients.

    `terms` maps exponent tuples to nonzero coefficients, and it never
    changes after construction: every operation builds a fresh dict.  So a
    polynomial keeps its integer form (cyclo.integer_form), its terms over
    the lcm of their denominators: integer_form builds it on first use, and
    every later product or power reuses it.
    """

    __slots__ = ("alphabet", "nvars", "conductor", "terms", "_form")

    def __init__(self, alphabet: str, nvars: int, conductor: int, terms=None):
        if alphabet not in ("x", "z"):
            raise ValueError("alphabet must be 'x' or 'z'")
        self.alphabet = alphabet
        self.nvars = nvars
        self.conductor = conductor
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean
        self._form = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, alphabet, nvars, conductor):
        return cls(alphabet, nvars, conductor)

    @classmethod
    def constant(cls, value, alphabet, nvars, conductor):
        if not isinstance(value, CycloNum):
            value = CycloNum.from_rational(value, conductor)
        return cls(alphabet, nvars, conductor, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, alphabet, nvars, conductor):
        """Variable with 1-based index."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(alphabet, nvars, conductor, {exps: CycloNum.one(conductor)})

    def _like(self, terms):
        """A polynomial of this space on terms, a dict of tuple exponents
        with no zero coefficient, taken as is."""
        p = object.__new__(MPoly)
        p.alphabet = self.alphabet
        p.nvars = self.nvars
        p.conductor = self.conductor
        p.terms = terms
        p._form = None
        return p

    def integer_form(self):
        """The terms over the lcm of their denominators (cyclo.integer_form),
        the form in which the cyclo kernels take a polynomial factor; built
        on the first call and kept."""
        form = self._form
        if form is None:
            form = self._form = integer_form(self.terms)
        return form

    def _check_compat(self, other: "MPoly"):
        if self.alphabet != other.alphabet or self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable spaces")
        if self.conductor != other.conductor:
            raise ConductorMismatch(
                f"conductors differ: {self.conductor} vs {other.conductor}"
            )

    # -- predicates & structure ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        """Terms in descending grlex order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def leading_coefficient(self) -> CycloNum:
        return self.leading_term()[1]

    def coefficient(self, exps) -> CycloNum:
        c = self.terms.get(tuple(exps))
        return CycloNum.zero(self.conductor) if c is None else c

    def monomial_content(self) -> tuple[int, ...]:
        """Exponent vector of the largest monomial dividing every term."""
        if not self.terms:
            return (0,) * self.nvars
        it = iter(self.terms)
        content = list(next(it))
        for exps in it:
            for i, e in enumerate(exps):
                if e < content[i]:
                    content[i] = e
        return tuple(content)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            other = MPoly.constant(other, self.alphabet, self.nvars, self.conductor)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_compat(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = terms.get(exps)
            s = coeff if cur is None else cur + coeff
            if s:
                terms[exps] = s
            elif cur is not None:
                del terms[exps]
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            other = MPoly.constant(other, self.alphabet, self.nvars, self.conductor)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            if isinstance(other, Fraction):
                other = CycloNum.from_rational(other, self.conductor)
            if not other:
                return MPoly.zero(self.alphabet, self.nvars, self.conductor)
            return self._like({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_compat(other)
        if len(self.terms) == 1 or len(other.terms) == 1:
            # a one-term factor multiplies each term of the other
            return self._like({
                tuple(map(add, e1, e2)): c1 * c2
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            })
        return self._like(sum_of_products(
            self.conductor, ((1, self.integer_form(), other.integer_form()),)
        ))

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(triples) -> "MPoly":
        """sum(k * a * b) over a nonempty iterable of triples (k, a, b), as
        one accumulation (cyclo.sum_of_products) that reads each triple once.

        k is a small int and b a polynomial; a is a polynomial, or a
        CycloNum taken as a one-term factor.  Each polynomial passes its
        kept integer form (integer_form).  Every factor must be
        compatible with the first b, as for a product, and the sum lives in
        its space.  A lone triple with k = 1 is the product b * a, which
        takes the one-term path of __mul__.
        """
        triples = iter(triples)
        head = list(islice(triples, 2))
        if not head:
            raise ValueError("no products to sum")
        k, a, model = head[0]
        if k == 1 and len(head) == 1:
            return model * a
        constant = (0,) * model.nvars

        def forms():
            for k, a, b in chain(head, triples):
                model._check_compat(b)
                if isinstance(a, CycloNum):
                    if a.conductor != model.conductor:
                        raise ConductorMismatch(
                            f"conductors differ: {model.conductor} vs {a.conductor}"
                        )
                    if a:
                        yield k, monomial_form(constant, a), b.integer_form()
                else:
                    model._check_compat(a)
                    yield k, a.integer_form(), b.integer_form()

        return model._like(sum_of_products(model.conductor, forms()))

    def __pow__(self, exponent: int):
        """self ** exponent: a polynomial of two or more terms by the
        multinomial theorem (cyclo.multinomial_power), a monomial by its
        exponents and coefficient."""
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) > 1:
            return self._like(multinomial_power(self.conductor, self.integer_form(), exponent))
        if not exponent:
            return MPoly.constant(1, self.alphabet, self.nvars, self.conductor)
        # a monomial, or zero: exponents times k, coefficient to the k
        return self._like({
            tuple(e * exponent for e in exps): coeff ** exponent
            for exps, coeff in self.terms.items()
        })

    def exact_div(self, other: "MPoly") -> "MPoly":
        """Quotient f/g when g divides f exactly; raises NotDivisible otherwise.

        Each step cancels the remainder's leading term against g's, in
        place on one copy of f's terms, as top_reduce does.
        """
        self._check_compat(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        g_exps, g_coeff = other.leading_term()
        g_inv = g_coeff.inverse()
        g_rest = [(exps, c) for exps, c in other.terms.items() if exps != g_exps]
        quot_terms: dict = {}
        terms = dict(self.terms)
        while terms:
            r_exps = max(terms, key=grlex_key)
            diff = tuple(a - b for a, b in zip(r_exps, g_exps))
            if any(d < 0 for d in diff):
                raise NotDivisible(f"remainder has leading monomial {r_exps}")
            c = quot_terms[diff] = terms.pop(r_exps) * g_inv
            for exps, gc in g_rest:
                exps = tuple(map(add, exps, diff))
                cur = terms.get(exps)
                s = -(gc * c) if cur is None else cur - gc * c
                if s:
                    terms[exps] = s
                else:
                    del terms[exps]
        return self._like(quot_terms)

    def divides(self, other: "MPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except NotDivisible:
            return False

    # -- calculus & substitution --------------------------------------------

    def partial(self, index: int) -> "MPoly":
        """Formal partial derivative with respect to the 1-based variable index."""
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        i = index - 1
        terms: dict = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            terms[tuple(new)] = coeff * e
        return self._like(terms)

    def gradient(self) -> tuple["MPoly", ...]:
        """The partial derivatives along each variable, in order."""
        return tuple(self.partial(j + 1) for j in range(self.nvars))

    def compose(self, args) -> "MPoly":
        """Substitute args[i] for the i-th variable.

        args is a list of polynomials, or a PowerTable over one whose powers
        every composition through it shares; a list gets a fresh table.  The
        result lives in the args' variable space; args must be mutually
        compatible and there must be one per variable.  The terms' images
        are summed in one accumulation (sum_of_products).
        """
        table = args if isinstance(args, PowerTable) else PowerTable(args)
        if len(table.args) != self.nvars:
            raise ValueError("need one substitution polynomial per variable")
        one = table.one
        if not self.terms:
            return one._like({})
        power = table.power
        # one triple per term: the coefficient times all powers but the
        # last, by the last
        triples = []
        for exps, coeff in self.terms.items():
            *head, last = [power(i, e) for i, e in enumerate(exps) if e] or [one]
            left = coeff
            for p in head:
                left = p * left
            triples.append((1, left, last))
        return MPoly.sum_of_products(triples)

    def substitute_linear(self, action) -> "MPoly":
        """Apply the group action f(x) -> f(x * M^{-T}) for an invertible M.

        action is M itself, or a PowerTable over the action's images
        (GroupData.action) that several polynomials share.  Given M, the
        images are made afresh (linear_images) in this polynomial's space.
        """
        if not isinstance(action, PowerTable):
            action = linear_images(action, self.alphabet, self.conductor)
        return self.compose(action)

    # -- equality & printing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CycloNum)):
            other = MPoly.constant(other, self.alphabet, self.nvars, self.conductor)
        if not isinstance(other, MPoly):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.nvars == other.nvars
            and self.conductor == other.conductor
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.alphabet, self.nvars, self.conductor, frozenset(self.terms.items()))
        )

    def __repr__(self):
        return f"MPoly({self})"

    def _monomial_str(self, exps) -> str:
        parts = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            v = f"{self.alphabet}{i + 1}"
            parts.append(v if e == 1 else f"{v}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        terms = []
        for exps, coeff in self.sorted_terms():
            mono = self._monomial_str(exps)
            if coeff.is_rational():
                terms.append((coeff.rational_value(), mono))
                continue
            cs = str(coeff)
            if (" + " in cs) or (" - " in cs) or cs.startswith("-"):
                cs = f"({cs})"
            terms.append((1, f"{cs}*{mono}" if mono else cs))
        return signed_sum(terms)


class PowerTable:
    """The powers of substitution polynomials args[0..n-1], each taken alone
    by MPoly.__pow__ when first needed, with no lower power built, and kept
    for the table's life, so that every composition through it shares them.

    A table lives as long as its holder keeps it: one composition, or the
    group checks of one system (ScaledConnection.tables), which also share
    the image of every polynomial substituted through it (image).  A group
    keeps only the args, its elements' linear images (GroupData.action).
    """

    __slots__ = ("args", "one", "_powers", "_images")

    def __init__(self, args):
        self.args = tuple(args)
        if not self.args:
            raise ValueError("need one substitution polynomial per variable")
        model = self.args[0]
        self.one = MPoly.constant(1, model.alphabet, model.nvars, model.conductor)
        self._powers = [{0: self.one, 1: arg} for arg in self.args]
        self._images: dict[MPoly, MPoly] = {}

    def power(self, i: int, e: int) -> MPoly:
        """args[i] ** e."""
        powers = self._powers[i]
        p = powers.get(e)
        if p is None:
            p = powers[e] = self.args[i] ** e
        return p

    def image(self, f: MPoly) -> MPoly:
        """f.substitute_linear(self), made on f's first call and then
        remembered, so that each polynomial is substituted once per table."""
        img = self._images.get(f)
        if img is None:
            img = self._images[f] = f.substitute_linear(self)
        return img


def linear_images(matrix, alphabet: str, conductor: int) -> tuple[MPoly, ...]:
    """The images of the n variables under f(x) -> f(x * M^{-T}) for an
    invertible M: x_j maps to sum_i B[i][j] * x_i with B = M^{-T}, so its
    coefficients are row j of M^{-1}, made by one mat_inverse."""
    n = len(matrix)
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    return tuple(
        MPoly(alphabet, n, conductor, dict(zip(units, row)))
        for row in mat_inverse(matrix)
    )


def cyclotomic_polynomial(n: int, alphabet: str = "x", conductor: int | None = None) -> MPoly:
    """The n-th cyclotomic polynomial as a univariate MPoly."""
    coeffs = cyclotomic_coeffs(n)
    conductor = conductor if conductor is not None else n
    terms = {
        (k,): CycloNum.from_rational(c, conductor) for k, c in enumerate(coeffs) if c
    }
    return MPoly(alphabet, 1, conductor, terms)


class RatFun:
    """num/den with a monic denominator; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = MPoly.constant(1, num.alphabet, num.nvars, num.conductor)
        num._check_compat(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        lead = den.leading_coefficient()
        if not (lead.is_rational() and lead.rational_value() == 1):
            inv = lead.inverse()
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    def is_polynomial(self) -> bool:
        return self.den.total_degree() == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return not MPoly.sum_of_products(
            [(1, self.num, other.den), (-1, other.num, self.den)]
        )

    def __hash__(self):
        raise TypeError("RatFun is unhashable: equality is not structural")

    def __add__(self, other):
        if isinstance(other, MPoly):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        num = MPoly.sum_of_products([(1, self.num, other.den), (1, other.num, self.den)])
        return RatFun(num, self.den * other.den)

    def __sub__(self, other):
        if isinstance(other, MPoly):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        num = MPoly.sum_of_products([(1, self.num, other.den), (-1, other.num, self.den)])
        return RatFun(num, self.den * other.den)

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, MPoly):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    def reciprocal(self) -> "RatFun":
        if self.num.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return RatFun(self.den, self.num)

    def compose(self, args: list[MPoly]) -> "RatFun":
        return RatFun(self.num.compose(args), self.den.compose(args))

    def reduced(self) -> "RatFun":
        """Cosmetic reduction: strip shared monomial content, then try whole division.

        Never changes the value; equality testing does not rely on it.
        """
        num, den = self.num, self.den
        if num.is_zero():
            return RatFun(num, MPoly.constant(1, den.alphabet, den.nvars, den.conductor))
        nc = num.monomial_content()
        dc = den.monomial_content()
        shared = tuple(min(a, b) for a, b in zip(nc, dc))
        if any(shared):
            num = MPoly(num.alphabet, num.nvars, num.conductor,
                        {tuple(e - s for e, s in zip(exps, shared)): c
                         for exps, c in num.terms.items()})
            den = MPoly(den.alphabet, den.nvars, den.conductor,
                        {tuple(e - s for e, s in zip(exps, shared)): c
                         for exps, c in den.terms.items()})
        try:
            q = num.exact_div(den)
            return RatFun(q)
        except NotDivisible:
            return RatFun(num, den)

    def __repr__(self):
        return f"RatFun({self})"

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"


def top_reduce(p: MPoly, basis: dict) -> MPoly:
    """p with its leading term cancelled against basis for as long as it can.

    basis maps distinct leading monomials to polynomials with those leading
    monomials, so they are independent, and the result is zero iff p lies
    in their span; otherwise its leading monomial is not a key of basis.
    Each step subtracts c*q in place from one copy of p's terms.
    """
    terms = dict(p.terms)
    while terms:
        lead = max(terms, key=grlex_key)
        q = basis.get(lead)
        if q is None:
            break
        c = terms[lead] / q.terms[lead]
        for exps, qc in q.terms.items():
            cur = terms.get(exps)
            s = -(qc * c) if cur is None else cur - qc * c
            if s:
                terms[exps] = s
            else:
                del terms[exps]
    return p._like(terms)


def require_homogeneous(f: MPoly) -> int:
    if not f.is_homogeneous():
        raise NonHomogeneousInput(f"polynomial is not homogeneous: {f}")
    return f.total_degree()
