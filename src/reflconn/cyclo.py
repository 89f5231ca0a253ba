"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored as coefficient vectors of length phi(N) over Fraction,
reduced modulo the N-th cyclotomic polynomial, so structural equality is
field equality and every value is hashable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ConductorMismatch, InvalidSpec

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest conductor accepted anywhere.  Every field is built through
# cyclotomic_coeffs, so this one check bounds spec files and stored
# artifacts alike; the reduction table of Q(zeta_N) holds about
# 2*phi(N)^2 rationals.
MAX_CONDUCTOR = 1000


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
    num = [-_ONE] + [_ZERO] * (n - 1) + [_ONE]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _frac_poly_divmod(num, list(cyclotomic_coeffs(d)))
            assert rem == [0]
    return tuple(int(c) for c in num)


@lru_cache(maxsize=None)
def _power_reductions(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Vectors expressing zeta^k, k = 0 .. 2*(d-1), in the basis 1..zeta^(d-1)."""
    phi = cyclotomic_coeffs(n)
    d = len(phi) - 1
    rows: list[tuple[Fraction, ...]] = []
    for k in range(d):
        rows.append(tuple(_ONE if j == k else _ZERO for j in range(d)))
    for k in range(d, 2 * d - 1):
        prev = rows[k - 1]
        shifted = [_ZERO] + list(prev[:-1])
        top = prev[-1]
        if top:
            # zeta^d = -(phi_0 + ... + phi_{d-1} zeta^{d-1})
            for j in range(d):
                shifted[j] -= top * phi[j]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    phi = cyclotomic_coeffs(n)
    d = len(phi) - 1
    out = [_ZERO] * d
    table = _power_reductions(n)
    if len(coeffs) > len(table):
        # e.g. zeta^k with k >= 2*phi(N) - 1; a product of two reduced
        # vectors always fits the table
        _, coeffs = _frac_poly_divmod(coeffs, [Fraction(c) for c in phi])
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k < d:
            out[k] += c
        else:
            row = table[k]
            for j in range(d):
                if row[j]:
                    out[j] += c * row[j]
    return tuple(out)


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while den and not den[-1]:
        den = den[:-1]
    dden = len(den) - 1
    lead = den[-1]
    quot = [_ZERO] * max(1, len(num) - dden)
    for k in range(len(num) - 1, dden - 1, -1):
        c = num[k]
        if not c:
            continue
        q = c / lead
        quot[k - dden] = q
        for j, dcf in enumerate(den):
            num[k - dden + j] -= q * dcf
    while len(num) > 1 and not num[-1]:
        num.pop()
    return quot, num


class CycloNum:
    """An element of Q(zeta_N), canonically reduced mod the N-th cyclotomic polynomial."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs) -> None:
        self.conductor = conductor
        d = len(cyclotomic_coeffs(conductor)) - 1
        coeffs = tuple(coeffs)
        if len(coeffs) != d:
            raise ValueError(f"expected {d} coefficients for conductor {conductor}")
        self.coeffs = coeffs
        self._hash = None

    @classmethod
    def from_rational(cls, value, conductor: int) -> CycloNum:
        q = Fraction(value)
        d = len(cyclotomic_coeffs(conductor)) - 1
        return cls(conductor, (q,) + (_ZERO,) * (d - 1))

    @classmethod
    def zero(cls, conductor: int) -> CycloNum:
        return cls.from_rational(0, conductor)

    @classmethod
    def one(cls, conductor: int) -> CycloNum:
        return cls.from_rational(1, conductor)

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> CycloNum:
        power %= conductor
        return cls(conductor, _reduce(conductor, [_ZERO] * power + [_ONE]))

    @classmethod
    def from_poly_coeffs(cls, conductor: int, coeffs) -> CycloNum:
        return cls(conductor, _reduce(conductor, [Fraction(c) for c in coeffs]))

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

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
        return CycloNum(
            self.conductor, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNum(
            self.conductor, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> CycloNum:
        return CycloNum(self.conductor, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        prod = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
        return CycloNum(self.conductor, _reduce(self.conductor, prod))

    __rmul__ = __mul__

    def inverse(self) -> CycloNum:
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_N."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_coeffs(self.conductor)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while any(r1):
            quot, rem = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, rem
            # s_next = s0 - quot * s1
            prod = [_ZERO] * (len(quot) + len(s1) - 1)
            for i, qi in enumerate(quot):
                if qi:
                    for j, sj in enumerate(s1):
                        prod[i + j] += qi * sj
            nxt = [_ZERO] * max(len(s0), len(prod))
            for i, c in enumerate(s0):
                nxt[i] += c
            for i, c in enumerate(prod):
                nxt[i] -= c
            s0, s1 = s1, nxt
        # r0 is the gcd, a nonzero constant since Phi_N is irreducible
        g = r0[0]
        inv_coeffs = [c / g for c in s0]
        result = CycloNum(self.conductor, _reduce(self.conductor, inv_coeffs))
        return result

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
        result = CycloNum.one(self.conductor)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def multiplicative_order(self, cap: int = 10000) -> int:
        """Order of a root of unity; raises if self**k never reaches 1 below cap."""
        acc = self
        one = CycloNum.one(self.conductor)
        for k in range(1, cap + 1):
            if acc == one:
                return k
            acc = acc * self
        raise ValueError("element does not appear to be a root of unity")

    # -- structure ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other, self.conductor)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.conductor, self.coeffs))
        return self._hash

    def __repr__(self) -> str:
        return f"CycloNum({self.conductor}, {self})"

    def __str__(self) -> str:
        """Render in the scalar grammar: sums of rational*zeta^k pieces."""
        pieces = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            pieces.append((k, c))
        if not pieces:
            return "0"
        parts = []
        for idx, (k, c) in enumerate(pieces):
            neg = c < 0
            mag = -c if neg else c
            if k == 0:
                body = str(mag)
            else:
                z = "zeta" if k == 1 else f"zeta^{k}"
                body = z if mag == 1 else f"{mag}*{z}"
            if idx == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)


def cyc_arith(a: CycloNum, b: CycloNum, op: str) -> CycloNum:
    """Named-operation wrapper over the operator protocol."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")
