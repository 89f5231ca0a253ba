"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as phi(N) integer numerators over one positive
integer denominator, sum(num[k] * zeta^k) / den, reduced modulo the N-th
cyclotomic polynomial Phi_N and normalised so that gcd(*num, den) == 1.
That form is canonical, so structural equality is field equality and every
value is hashable.  Phi_N is monic with integer coefficients, so a product
of two reduced numerator vectors reduces with an integer table of powers
of zeta, and an inverse is an integer product of Galois conjugates over the
integer field norm: no operation computes with Fractions.

Every sum of products is one integer accumulation.  sum_of_products
evaluates a sum of weighted products of polynomials with one accumulator
per output monomial, so a polynomial product, a matrix entry or a whole
identity reduces and normalises each coefficient once;
CycloNum.sum_of_products is its scalar case, with one accumulator for a
scalar matrix entry or determinant.  linear_power expands a power of an
affine form by the multinomial theorem, one product of reduced vectors and
one canonical form per output term.  Both take their polynomial factors in
integer form (integer_form): the exponent tuples and the integer
numerators of a term dict over the lcm of its denominators.  MPoly builds
that form once per polynomial, on first use, and keeps it, so a polynomial
used in many products is put over its common denominator once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm
from operator import add

from .errors import ConductorMismatch, InvalidSpec

# Largest conductor accepted anywhere.  Every field is built through
# cyclotomic_coeffs, so this one check bounds spec files and stored
# artifacts alike; the reduction table of Q(zeta_N) holds at most
# phi(N)^2 integers.
MAX_CONDUCTOR = 1000

# Largest rank accepted, in spec files and stored artifacts alike: the
# largest rank of an exceptional group (G37 = E8).  The Laplace det and
# adjugate of the Jacobian cost O(rank!).
MAX_RANK = 8


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (low-to-high) of the n-th cyclotomic polynomial.

    Computed by dividing y^n - 1 by the product of the cyclotomic
    polynomials of the proper divisors of n.
    """
    if not 1 <= n <= MAX_CONDUCTOR:
        raise InvalidSpec(f"conductor must be in 1..{MAX_CONDUCTOR}, got {n}")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _monic_divmod(num, cyclotomic_coeffs(d))
            assert not any(rem)
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta^k for k = d .. 2*(d-1) in the basis 1 .. zeta^(d-1), d = phi(n).

    Row k - d holds the nonzero (j, c) of zeta^k = sum c * zeta^j; every c
    is an integer because Phi_n is monic.
    """
    d = len(cyclotomic_coeffs(n)) - 1
    return tuple(
        tuple((j, c) for j, c in enumerate(_reduce(n, [0] * k + [1])) if c)
        for k in range(d, 2 * d - 1)
    )


def _monic_divmod(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (low-to-high) by a monic one."""
    num = list(num)
    d = len(den) - 1
    quot = [0] * max(1, len(num) - d)
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        if c:
            quot[k - d] = c
            for j in range(d + 1):
                num[k - d + j] -= c * den[j]
    return quot, num[:d] + [0] * (d - len(num))


def _reduce(n: int, nums) -> list[int]:
    """Integer numerators of sum(nums[k] * zeta^k) in the basis 1 .. zeta^(d-1)."""
    return _monic_divmod(nums, cyclotomic_coeffs(n))[1]


def _fold(n: int, prod, d: int) -> list[int]:
    """Reduced integer numerators of sum(prod[k] * zeta^k), k < 2*d - 1."""
    out = prod[:d]
    for c, row in zip(prod[d:], _power_table(n)):
        if c:
            for j, t in row:
                out[j] += c * t
    return out


def _mul_nums(n: int, a, b) -> list[int]:
    """Reduced integer numerators of the product of two reduced vectors."""
    d = len(a)
    if d == 1:
        return [a[0] * b[0]]
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                prod[k] += ai * bj
    return _fold(n, prod, d)


def _conjugate(n: int, nums, k: int) -> list[int]:
    """The image of sum(nums[j] * zeta^j) under zeta -> zeta^k."""
    image = [0] * n
    for j, c in enumerate(nums):
        image[j * k % n] += c
    return _reduce(n, image)


def _orbit_product(n: int, y, g: int, m: int) -> list[int]:
    """prod_{j<m} sigma_{g^j}(y) for m >= 1, by doubling the orbit length."""
    prod, length = y, 1
    for bit in bin(m)[3:]:
        prod = _mul_nums(n, prod, _conjugate(n, prod, pow(g, length, n)))
        length *= 2
        if bit == "1":
            prod = _mul_nums(n, prod, _conjugate(n, y, pow(g, length, n)))
            length += 1
    return prod


def integer_form(terms) -> tuple[tuple, list, int]:
    """The integer form of a term dict: its exponent tuples, the integer
    numerators of its coefficients over the lcm of their denominators, in
    the same order, and that lcm.

    This is the form in which sum_of_products and linear_power take their
    factors.  A numerator vector already over the lcm is shared, not copied.
    """
    den = 1
    # pairwise, and lists, not tuple(generator): lcm(*generator) and
    # tuple(generator) here each made the peak RSS of derive_invariants
    # grow pass after pass on CPython 3.11
    for c in terms.values():
        den = lcm(den, c._den)
    return tuple(terms), [
        c._num if c._den == den else [x * (den // c._den) for x in c._num]
        for c in terms.values()
    ], den


def monomial_form(exps: tuple[int, ...], c: CycloNum) -> tuple[tuple, tuple, int]:
    """The integer form of the one-term dict {exps: c}, for a nonzero c."""
    return (exps,), (c._num,), c._den


def sum_of_products(n: int, triples) -> dict:
    """The term dict of sum(k * left * right) over triples (k, left, right).

    k is a small int; left and right are integer forms (integer_form or
    monomial_form) of term dicts with nonzero CycloNum coefficients, which
    MPoly builds once per polynomial and keeps; triples may be any
    iterable, read once.  Each triple is scaled to the running common
    denominator, the lcm of the triples' denominators so far; when that
    grows, the accumulators are scaled up to it.  Every pair of terms adds
    its unreduced integer convolution to the accumulator of its output
    monomial, and each accumulator is reduced mod Phi_n and made canonical
    once, at the end.  Reduction is linear and the canonical form unique,
    so every coefficient is the one that summing the CycloNum products of
    the pairs gives.  Zero sums are dropped.  A left term with no exponent
    is a scalar, and its pairs take the right terms' monomials as they are.
    """
    d = len(cyclotomic_coeffs(n)) - 1
    width = 2 * d - 1
    sums: dict = {}
    den = 1
    for k, (lexps, lnums, dl), (rexps, rnums, dr) in triples:
        if not (k and lexps and rexps):
            continue
        dt = dl * dr
        if den % dt:
            grow = lcm(den, dt) // den
            den *= grow
            if d == 1:
                for exps in sums:
                    sums[exps] *= grow
            else:
                for acc in sums.values():
                    for j in range(width):
                        acc[j] *= grow
        s = k * (den // dt)
        for e1, u in zip(lexps, lnums):
            shift = any(e1)
            if d == 1:
                a = u[0] * s
                for e2, (b,) in zip(rexps, rnums):
                    exps = tuple(map(add, e1, e2)) if shift else e2
                    sums[exps] = sums.get(exps, 0) + a * b
                continue
            nonzero = [(i, a * s) for i, a in enumerate(u) if a]
            for e2, v in zip(rexps, rnums):
                exps = tuple(map(add, e1, e2)) if shift else e2
                acc = sums.get(exps)
                if acc is None:
                    acc = sums[exps] = [0] * width
                for i, a in nonzero:
                    for j, b in enumerate(v, i):
                        acc[j] += a * b
    if d == 1:
        return {e: _canonical(n, (t,), den) for e, t in sums.items() if t}
    out = {}
    for exps, acc in sums.items():
        nums = _fold(n, acc, d)
        if any(nums):
            out[exps] = _canonical(n, nums, den)
    return out


def linear_power(n: int, form: tuple, e: int) -> dict:
    """The term dict of the e-th power of an affine form, by the multinomial
    theorem: (sum_j b_j x_j)^e = sum over |a| = e of e!/a! prod_j b_j^a_j x^a,
    where one x_j may be the constant 1.

    form is the integer form of the affine form's terms, each of degree at
    most 1, with nonzero coefficients b_j = u_j / den.  Each power u_j^a is
    one reduced integer vector, e products per term.  The output terms are
    walked term by term, each choice of a_j multiplying the prefix by
    u_j^a_j once, so that an output term costs about one product of vectors
    and one canonical form, over den^e.  The constant adds no exponent, but
    its a_j is fixed by the others, so distinct a are still distinct
    monomials: nothing is summed, and a product of nonzero field elements is
    never zero.
    """
    terms, nums, den = form
    nvars = len(terms[0])
    # the constant's slot is the extra last entry of exps, dropped from the output
    where = [t.index(1) if any(t) else nvars for t in terms]
    one = [1] + [0] * (len(nums[0]) - 1)
    powers = []
    for u in nums:
        row = [one, u]
        for _ in range(e - 1):
            row.append(_mul_nums(n, row[-1], u))
        powers.append(row)
    den_e = den ** e
    exps = [0] * (nvars + 1)
    last = len(terms) - 1
    out = {}

    def walk(j, rem, prefix, m):
        # prefix: the product of the u_i^a_i chosen for i < j, None for 1
        if j == last:
            exps[where[j]] = rem
            nums = powers[j][rem] if prefix is None else _mul_nums(n, prefix, powers[j][rem])
            out[tuple(exps[:nvars])] = _canonical(n, [m * c for c in nums], den_e)
            return
        for a in range(rem + 1):
            exps[where[j]] = a
            if a:
                step = powers[j][a] if prefix is None else _mul_nums(n, prefix, powers[j][a])
            else:
                step = prefix
            walk(j + 1, rem - a, step, m * comb(rem, a))

    walk(0, e, None, 1)
    return out


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators.

    The result is in lowest terms: a prime p dividing that lcm divides the
    denominator of some value to the full power, and the numerator of that
    value is scaled by a factor prime to p.
    """
    qs = [Fraction(v) for v in values]
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _canonical(conductor: int, nums, den: int) -> CycloNum:
    """The CycloNum sum(nums[k] * zeta^k) / den, for reduced nums and den > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    obj = object.__new__(CycloNum)
    obj.conductor = conductor
    obj._num = tuple(nums)
    obj._den = den
    return obj


class CycloNum:
    """An element of Q(zeta_N), canonically reduced mod the N-th cyclotomic polynomial.

    `_num` holds phi(N) integer numerators and `_den` one positive common
    denominator with gcd(*_num, _den) == 1; `coeffs` is the same value as
    a tuple of Fractions.
    """

    __slots__ = ("conductor", "_num", "_den")

    def __init__(self, conductor: int, coeffs) -> None:
        d = len(cyclotomic_coeffs(conductor)) - 1
        coeffs = tuple(coeffs)
        if len(coeffs) != d:
            raise ValueError(f"expected {d} coefficients for conductor {conductor}")
        nums, den = _over_common_denominator(coeffs)
        self.conductor = conductor
        self._num = tuple(nums)
        self._den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients of 1, zeta, ..., zeta^(phi(N)-1)."""
        return tuple(Fraction(c, self._den) for c in self._num)

    @classmethod
    def from_rational(cls, value, conductor: int) -> CycloNum:
        d = len(cyclotomic_coeffs(conductor)) - 1
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return _canonical(conductor, (q.numerator,) + (0,) * (d - 1), q.denominator)

    @classmethod
    def zero(cls, conductor: int) -> CycloNum:
        return cls.from_rational(0, conductor)

    @classmethod
    def one(cls, conductor: int) -> CycloNum:
        return cls.from_rational(1, conductor)

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> CycloNum:
        power %= conductor
        return _canonical(conductor, _reduce(conductor, [0] * power + [1]), 1)

    @classmethod
    def from_poly_coeffs(cls, conductor: int, coeffs) -> CycloNum:
        nums, den = _over_common_denominator(coeffs)
        return _canonical(conductor, _reduce(conductor, nums), den)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    def bit_size(self) -> int:
        """Largest bit length of a numerator or of the denominator."""
        return max(self._den, *map(abs, self._num)).bit_length()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductors differ: {self.conductor} vs {other.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(other, self.conductor)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self._den, other._den
        if da == db:
            nums = [a + b for a, b in zip(self._num, other._num)]
            return _canonical(self.conductor, nums, da)
        nums = [a * db + b * da for a, b in zip(self._num, other._num)]
        return _canonical(self.conductor, nums, da * db)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self._den, other._den
        if da == db:
            nums = [a - b for a, b in zip(self._num, other._num)]
            return _canonical(self.conductor, nums, da)
        nums = [a * db - b * da for a, b in zip(self._num, other._num)]
        return _canonical(self.conductor, nums, da * db)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> CycloNum:
        return _canonical(self.conductor, [-a for a in self._num], self._den)

    def __mul__(self, other):
        if type(other) is int:
            # an integer scales the numerators, with no product of vectors
            return _canonical(self.conductor, [a * other for a in self._num], self._den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _canonical(
            self.conductor,
            _mul_nums(self.conductor, self._num, other._num),
            self._den * other._den,
        )

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(triples) -> CycloNum:
        """sum(k * a * b) over a nonempty iterable of triples (k, a, b), k a
        small int and a, b CycloNums of one conductor, read once.

        The scalar case of sum_of_products: each triple is scaled to the
        running common denominator and adds the unreduced integer
        convolution of its numerators to one accumulator, which is reduced
        mod Phi_N and made canonical once, at the end.
        """
        triples = iter(triples)
        first = next(triples, None)
        if first is None:
            raise ValueError("no products to sum")
        n = first[1].conductor
        d = len(first[1]._num)
        acc = [0] * (2 * d - 1)
        den = 1
        for k, a, b in chain((first,), triples):
            if a.conductor != n or b.conductor != n:
                raise ConductorMismatch(f"conductors differ: {n}, {a.conductor}, {b.conductor}")
            dt = a._den * b._den
            if den % dt:
                grow = lcm(den, dt) // den
                den *= grow
                acc = [c * grow for c in acc]
            s = k * (den // dt)
            for i, x in enumerate(a._num):
                if x:
                    x *= s
                    for j, y in enumerate(b._num, i):
                        acc[j] += x * y
        return _canonical(n, _fold(n, acc, d), den)

    def inverse(self) -> CycloNum:
        """Multiplicative inverse through the field norm.

        The Galois group of Q(zeta_N) is the units k mod N acting by
        sigma_k: zeta -> zeta^k.  For the integer numerator a, the product
        `rest` of sigma(a) over sigma != 1 gives a * rest = norm(a), a
        nonzero integer, so (a / den)^-1 = den * rest / norm(a).  The
        product is grown over a chain of subgroups H, each step adjoining
        one unit g, with O(log |H|) multiplications per step.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n, a = self.conductor, self._num
        norm, rest = a, [1] + [0] * (len(a) - 1)  # norm_H(a) and its cofactor
        subgroup = {1}
        for g in range(2, n):
            if g in subgroup or gcd(g, n) != 1:
                continue
            order, power = 1, g
            while power not in subgroup:
                order, power = order + 1, power * g % n
            # <H, g> is the union of the cosets g^j H, j < order, so its norm
            # is norm_H(a) times prod_{0<j<order} sigma_{g^j}(norm_H(a))
            cofactor = _conjugate(n, _orbit_product(n, norm, g, order - 1), g)
            norm = _mul_nums(n, norm, cofactor)
            rest = _mul_nums(n, rest, cofactor)
            subgroup = {h * pow(g, j, n) % n for h in subgroup for j in range(order)}
        if norm[0] < 0:
            rest = [-c for c in rest]
        return _canonical(n, [c * self._den for c in rest], abs(norm[0]))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> CycloNum:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        # square and multiply, with no product by 1 and no square unused
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return CycloNum.one(self.conductor) if result is None else result

    def multiplicative_order(self, cap: int = 10000) -> int:
        """Order of a root of unity; raises if it is not one of order at most cap.

        Every root of unity in Q(zeta_N) has an order dividing lcm(2, N), so
        only those divisors are tried, smallest first.
        """
        bound = lcm(2, self.conductor)
        for k in range(1, min(bound, cap) + 1):
            if bound % k == 0 and self ** k == 1:
                return k
        raise ValueError("element does not appear to be a root of unity")

    # -- structure ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other, self.conductor)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return (
            self.conductor == other.conductor
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.conductor, self._num, self._den))

    def __repr__(self) -> str:
        return f"CycloNum({self.conductor}, {self})"

    def __str__(self) -> str:
        """Render in the scalar grammar: sums of rational*zeta^k pieces."""
        return signed_sum(zip(self.coeffs, map(zeta_power, range(len(self._num)))))


def zeta_power(k: int) -> str:
    """zeta^k in the scalar grammar; empty for k = 0."""
    return "" if k == 0 else "zeta" if k == 1 else f"zeta^{k}"


def signed_sum(terms, glue: str = "*", number=str) -> str:
    """Join (q, symbol) pairs, q rational, into "q1*s1 + q2*s2 - ...".

    Each sign is written as an operator and each magnitude by number; a
    magnitude 1 is left out before a symbol, an empty symbol leaves the
    number alone, and glue joins a number to its symbol.  Terms with q = 0
    are dropped, and nothing left prints "0".
    """
    out = []
    for q, symbol in terms:
        if not q:
            continue
        mag = abs(q)
        if not symbol:
            body = number(mag)
        elif mag == 1:
            body = symbol
        else:
            body = f"{number(mag)}{glue}{symbol}"
        if out:
            out.append(" - " if q < 0 else " + ")
        elif q < 0:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"
