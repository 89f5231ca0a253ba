"""Field arithmetic in Q(zeta_N): golden values, algebraic axioms, and the
integer representation against a plain Fraction reference."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflconn.cyclo import (
    CycloNum,
    cyclotomic_coeffs,
    euler_phi,
    integer_form,
    signed_sum,
    sum_of_products,
)
from reflconn.errors import ConductorMismatch
from reflconn.parsing import parse_scalar


def C(*coords):
    return CycloNum(12, tuple(Fraction(c) for c in coords))


class TestCyclotomicCoeffs:
    def test_small_cyclotomic_polynomials(self):
        # classical table, low-to-high coefficients
        assert cyclotomic_coeffs(1) == (-1, 1)
        assert cyclotomic_coeffs(2) == (1, 1)
        assert cyclotomic_coeffs(3) == (1, 1, 1)
        assert cyclotomic_coeffs(4) == (1, 0, 1)
        assert cyclotomic_coeffs(6) == (1, -1, 1)
        assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)

    def test_degree_is_euler_phi(self):
        for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 30, 105):
            assert len(cyclotomic_coeffs(n)) - 1 == euler_phi(n)

    def test_first_non_cyclotomic_coefficient_above_one(self):
        # Phi_105 famously has a coefficient -2
        assert -2 in cyclotomic_coeffs(105)

    def test_euler_phi_values(self):
        assert [euler_phi(n) for n in range(1, 13)] == [
            1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
        ]


class TestSpecialElements:
    def test_zeta_is_primitive_root(self):
        z = CycloNum.zeta(12)
        assert z.multiplicative_order() == 12
        assert z ** 12 == 1
        assert z ** 6 == -1

    def test_imaginary_unit(self):
        i = CycloNum.zeta(12) ** 3
        assert i * i == -1
        assert i.multiplicative_order() == 4

    def test_sqrt_three(self):
        z = CycloNum.zeta(12)
        s = z + z ** 11
        assert s * s == 3

    def test_i_sqrt_three(self):
        z = CycloNum.zeta(12)
        t = z ** 2 + z ** 4
        assert t * t == -3
        # canonical reduction: zeta^4 = zeta^2 - 1 in Q(zeta_12)
        assert t == C(-1, 0, 2, 0)

    def test_omega_cube_root(self):
        w = CycloNum.zeta(12) ** 4
        assert w ** 3 == 1
        assert w * w + w + 1 == 0


class TestArithmetic:
    def test_inverse_golden(self):
        z = CycloNum.zeta(12)
        a = 1 + z
        assert a * a.inverse() == 1
        # 1/(1+i) = (1-i)/2 with i = zeta^3
        i = z ** 3
        assert (1 + i).inverse() == (1 - i) * Fraction(1, 2)

    def test_division_and_named_ops(self):
        a, b = C(1, 2, 0, 1), C(0, 3, 1, 0)
        assert (a / b) * b == a
        assert (a + b) - b == a
        assert (a - b) + b == a

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            CycloNum.zero(12).inverse()

    def test_conductor_mismatch(self):
        with pytest.raises(ConductorMismatch):
            CycloNum.one(12) + CycloNum.one(8)

    def test_rational_detection(self):
        assert C(5, 0, 0, 0).is_rational()
        assert C(5, 0, 0, 0).rational_value() == 5
        assert not C(0, 1, 0, 0).is_rational()

    def test_negative_power(self):
        z = CycloNum.zeta(12)
        assert z ** -1 == z ** 11
        assert C(2, 0, 0, 0) ** -2 == Fraction(1, 4)

    def test_hash_consistency(self):
        z = CycloNum.zeta(12)
        assert hash(z ** 4) == hash(C(-1, 0, 1, 0) + 0)
        assert len({z, z ** 13, z ** 2, z ** 14}) == 2

    def test_str_is_canonical(self):
        from reflconn.parsing import parse_scalar

        for v in (C(1, -2, 0, 3), C(0, 0, 0, 0), C(-1, 0, 0, 0), C(Fraction(1, 2), 1, 0, 0)):
            assert parse_scalar(str(v), 12) == v


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
cyclo12 = st.builds(
    lambda a, b, c, d: C(a, b, c, d), small_fracs, small_fracs, small_fracs, small_fracs
)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(cyclo12, cyclo12, cyclo12)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(cyclo12)
    def test_additive_and_multiplicative_inverse(self, a):
        assert a + (-a) == 0
        if a:
            assert a * a.inverse() == 1
            assert (a.inverse()).inverse() == a

    @settings(max_examples=60, deadline=None)
    @given(cyclo12, cyclo12)
    def test_equality_is_structural(self, a, b):
        assert (a == b) == (a.coeffs == b.coeffs)
        if a == b:
            assert hash(a) == hash(b)


class TestSignedSum:
    def test_signs_units_and_empty_symbols(self):
        terms = [(Fraction(-1, 2), ""), (0, "a"), (1, "b"), (-3, "c"), (-1, "d")]
        assert signed_sum(terms) == "-1/2 + b - 3*c - d"
        assert signed_sum([(-1, ""), (2, "a")], "", lambda q: f"<{q}>") == "-<1> + <2>a"

    def test_nothing_left_is_zero(self):
        assert signed_sum([]) == "0"
        assert signed_sum([(0, "a"), (Fraction(0), "")]) == "0"

    @pytest.mark.parametrize("n", [1, 3, 5, 12])
    def test_cyclonum_str_parses_back(self, n):
        z = CycloNum.zeta(n)
        for c in (CycloNum.zero(n), -z, 1 - z / 3, z ** 2 * Fraction(-7, 4) + 2):
            assert parse_scalar(str(c), n) == c

    def test_cyclonum_str(self):
        assert str(-CycloNum.zeta(3)) == "-zeta"
        assert str(2 * CycloNum.zeta(5) ** 3 - Fraction(1, 2)) == "-1/2 + 2*zeta^3"


class TestZetaPowers:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 24])
    def test_powers_are_roots_of_unity_and_multiply(self, n):
        powers = {k: CycloNum.zeta(n, k) for k in range(-n, 2 * n)}
        for k, z in powers.items():
            assert z ** n == 1
            for j, w in powers.items():
                assert w * z == CycloNum.zeta(n, j + k)

    def test_zeta_two_is_minus_one(self):
        assert CycloNum.zeta(2, 1) == -1


class TestMultiplicativeOrder:
    def test_orders_divide_lcm_of_two_and_conductor(self):
        assert CycloNum.zeta(24).multiplicative_order() == 24
        assert (-CycloNum.zeta(3)).multiplicative_order() == 6
        assert CycloNum.from_rational(-1, 1).multiplicative_order() == 2

    def test_non_root_of_unity_is_rejected(self):
        with pytest.raises(ValueError, match="not appear to be a root of unity"):
            (2 + CycloNum.zeta(12)).multiplicative_order()

    def test_order_above_cap_is_rejected(self):
        with pytest.raises(ValueError, match="not appear to be a root of unity"):
            CycloNum.zeta(12).multiplicative_order(cap=11)


# -- the integer representation against a Fraction reference -----------------

CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 12, 24)
fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _ref_reduce(n, poly):
    """Remainder of a Fraction polynomial (low-to-high) mod the monic Phi_n."""
    phi = cyclotomic_coeffs(n)
    d = len(phi) - 1
    poly = list(poly) + [Fraction(0)] * max(0, d - len(poly))
    for k in range(len(poly) - 1, d - 1, -1):
        c = poly[k]
        for j in range(d + 1):
            poly[k - d + j] -= c * phi[j]
    return tuple(poly[:d])


def _ref_mul(n, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(n, prod)


@st.composite
def same_field(draw, count):
    n = draw(st.sampled_from(CONDUCTORS))
    d = euler_phi(n)
    vectors = st.lists(fracs, min_size=d, max_size=d)
    return [CycloNum(n, draw(vectors)) for _ in range(count)]


def _is_canonical(x):
    return x._den > 0 and gcd(*x._num, x._den) == 1


class TestIntegerRepresentation:
    @settings(max_examples=150, deadline=None)
    @given(same_field(2))
    def test_operations_match_fraction_reference(self, pair):
        a, b = pair
        n = a.conductor
        one = _ref_reduce(n, [Fraction(1)])
        assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
        assert (a * b).coeffs == _ref_mul(n, a.coeffs, b.coeffs)
        for value in (a + b, a - b, a * b, -a):
            assert _is_canonical(value)
        if b:
            inv = b.inverse()
            assert _is_canonical(inv) and _is_canonical(a / b)
            assert _ref_mul(n, inv.coeffs, b.coeffs) == one
            assert _ref_mul(n, (a / b).coeffs, b.coeffs) == a.coeffs

    @settings(max_examples=150, deadline=None)
    @given(same_field(2), fracs)
    def test_equal_values_from_different_routes(self, pair, q):
        a, b = pair
        n = a.conductor
        routes = [CycloNum(n, a.coeffs), (a + b) - b, -(-a)]
        if b:
            routes.append((a * b) / b)
        for value in routes:
            assert value == a and hash(value) == hash(a)
            assert (value._num, value._den) == (a._num, a._den)
        rational = CycloNum(n, (q,) + (0,) * (euler_phi(n) - 1))
        assert CycloNum.from_rational(q, n) == rational == q
        assert hash(CycloNum.from_rational(q, n)) == hash(rational)
        assert _is_canonical(rational)


@st.composite
def product_sums(draw):
    """(n, triples) for sum_of_products: up to 5 triples (k, left, right) with
    k in -2..2 and sparse term dicts in two variables over Q(zeta_n), each
    numerator over its own denominator, so the factors and the triples
    have mixed denominators and their products collide."""
    n = draw(st.sampled_from((1, 3, 5, 12)))
    d = euler_phi(n)
    coeff = st.builds(
        lambda nums, dens: CycloNum(n, [Fraction(x, q) for x, q in zip(nums, dens)]),
        st.lists(st.integers(-5, 5), min_size=d, max_size=d),
        st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 9)), min_size=d, max_size=d),
    )
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = st.dictionaries(exps, coeff, max_size=5).map(
        lambda t: {e: c for e, c in t.items() if c}
    )
    return n, draw(st.lists(st.tuples(st.integers(-2, 2), terms, terms), max_size=5))


def _naive_sum_of_products(n, triples):
    """sum(k * left * right) as CycloNum products and additions, term by term."""
    out = {}
    for k, left, right in triples:
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, CycloNum.zero(n)) + c1 * c2 * k
    return {e: c for e, c in out.items() if c}


def _forms(triples):
    """The triples with their term dicts in integer form, as the kernel takes them."""
    return [(k, integer_form(left), integer_form(right)) for k, left, right in triples]


class TestIntegerFactor:
    @pytest.mark.parametrize("n", (1, 5, 12))
    def test_int_factor_equals_its_rational_element(self, n):
        d = euler_phi(n)
        values = [
            CycloNum.zero(n),
            CycloNum.one(n),
            CycloNum.zeta(n, 2) * Fraction(-3, 4),
            CycloNum(n, [Fraction(k - 2, 6 + k) for k in range(d)]),
        ]
        # 0, +-1, and large ints that share and do not share a denominator
        for k in (0, 1, -1, 2, -6 * 10 ** 40, 2 ** 127 - 1, -(3 ** 90), 7 * 11 * 13 * 10 ** 25):
            rational = CycloNum.from_rational(k, n)
            for c in values:
                expected = c * rational
                for out in (c * k, k * c):
                    assert out == expected
                    assert (out._num, out._den) == (expected._num, expected._den)
                    assert _is_canonical(out)
        c = values[-1]
        assert c * True == c and c * False == 0


class TestSumOfProducts:
    @settings(max_examples=300, deadline=None)
    @given(product_sums())
    def test_matches_naive_cyclonum_sum(self, case):
        n, triples = case
        out = sum_of_products(n, _forms(triples))
        assert out == _naive_sum_of_products(n, triples)
        for c in out.values():
            assert c and c.conductor == n and _is_canonical(c)
        # each triple against its negation cancels to the empty dict
        assert sum_of_products(n, _forms(triples + [(-k, l, r) for k, l, r in triples])) == {}

    def test_mixed_denominators_cancel_exactly(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        left = {(1, 0): C(half, 0, 0, 0), (0, 1): C(0, third, 0, 0)}
        right = {(1, 0): C(0, 0, Fraction(2, 5), 0), (0, 0): C(Fraction(1, 7), 0, 0, 1)}
        right_sum = {(1, 0): C(0, 0, Fraction(1, 5), 0), (0, 0): C(Fraction(1, 14), 0, 0, half)}
        # 2 * left * (right / 2) - left * right == 0, with the denominators
        # 2, 3, 5 and 7 on the factors and 70 on the triples
        assert sum_of_products(12, _forms([(2, left, right_sum), (-1, left, right)])) == {}
        assert sum_of_products(12, _forms([(2, left, right_sum)])) == _naive_sum_of_products(
            12, [(1, left, right)]
        )

    def test_empty_and_zero_weight_triples(self):
        left = {(1, 0): C(1, 0, 0, 0)}
        assert sum_of_products(12, []) == {}
        assert sum_of_products(12, _forms([(0, left, left), (1, {}, left)])) == {}


@st.composite
def scalar_product_sums(draw):
    """A nonempty list of triples (k, a, b), k in {-2, -1, 1, 2}, of scalars
    over Q(zeta_n), each numerator over its own denominator; one factor
    in four is drawn as the zero element."""
    n = draw(st.sampled_from((1, 3, 4, 5, 7, 12)))
    d = euler_phi(n)
    element = st.builds(
        lambda nums, dens: CycloNum(n, [Fraction(x, q) for x, q in zip(nums, dens)]),
        st.lists(st.integers(-5, 5), min_size=d, max_size=d),
        st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 9)), min_size=d, max_size=d),
    )
    scalar = st.one_of(st.just(CycloNum.zero(n)), element, element, element)
    k = st.sampled_from((-2, -1, 1, 2))
    return draw(st.lists(st.tuples(k, scalar, scalar), min_size=1, max_size=6))


class TestScalarSumOfProducts:
    @settings(max_examples=300, deadline=None)
    @given(scalar_product_sums())
    def test_matches_running_sum(self, triples):
        running = triples[0][1] * triples[0][2] * triples[0][0]
        for k, a, b in triples[1:]:
            running = running + a * b * k
        out = CycloNum.sum_of_products(triples)
        assert out == running
        assert (out._num, out._den) == (running._num, running._den)
        assert _is_canonical(out)
        negated = triples + [(-k, a, b) for k, a, b in triples]
        assert not CycloNum.sum_of_products(negated)

    def test_reads_a_generator_once(self):
        a, b = C(1, 2, 0, 0), C(0, Fraction(1, 3), 0, 1)
        triples = ((k, a, b) for k in (1, -2))
        assert CycloNum.sum_of_products(triples) == -(a * b)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            CycloNum.sum_of_products([])

    def test_mixed_conductors_raise(self):
        a, b = CycloNum.one(12), CycloNum.zeta(3)
        with pytest.raises(ConductorMismatch):
            CycloNum.sum_of_products([(1, a, a), (1, a, b)])
        with pytest.raises(ConductorMismatch):
            CycloNum.sum_of_products([(1, b, a)])
