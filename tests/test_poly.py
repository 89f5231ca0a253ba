"""Sparse polynomial and rational-function arithmetic, plus the group action."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reflconn.cyclo import CycloNum, euler_phi
from reflconn.errors import (
    ConductorMismatch,
    NonHomogeneousInput,
    NotDivisible,
)
from reflconn.groups import parse_matrix
from reflconn.linalg import mat_mul
from reflconn.parsing import parse_expr
from reflconn.poly import (
    MPoly,
    PowerTable,
    RatFun,
    cyclotomic_polynomial,
    grlex_key,
    require_homogeneous,
    top_reduce,
    weighted_exponents,
)

from conftest import px, pz
from test_cyclo import _naive_sum_of_products


class TestBasics:
    def test_constructors(self):
        x1 = MPoly.variable(1, "x", 2, 12)
        assert str(x1) == "x1"
        assert MPoly.zero("x", 2, 12).is_zero()
        assert MPoly.constant(Fraction(3, 2), "x", 2, 12) == Fraction(3, 2)

    def test_grlex_order(self):
        # x1 > x2, graded first
        assert grlex_key((0, 3)) > grlex_key((2, 0))
        assert grlex_key((2, 1)) > grlex_key((1, 2))
        f = px("x2^3 + x1*x2 + x1^2*x2")
        assert str(f) == "x1^2*x2 + x2^3 + x1*x2"

    def test_degree_and_homogeneity(self):
        assert px("x1^2*x2 + x2^3").is_homogeneous()
        assert require_homogeneous(px("x1^4 - 7*x2^4")) == 4
        assert not px("x1 + 1").is_homogeneous()
        with pytest.raises(NonHomogeneousInput):
            require_homogeneous(px("x1 + 1"))
        assert MPoly.zero("x", 2, 12).total_degree() == -1

    def test_arithmetic_named_ops(self):
        f, g = px("x1 + x2"), px("x1 - x2")
        assert f * g == px("x1^2 - x2^2")
        assert f + g == px("2*x1")
        assert f - g == px("2*x2")

    def test_power(self):
        assert px("x1 + x2") ** 3 == px("x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3")
        assert px("x1") ** 0 == 1

    def test_mixed_space_rejected(self):
        with pytest.raises(ValueError):
            px("x1") + pz("z1")
        with pytest.raises(ConductorMismatch):
            px("x1") + parse_expr("x1", conductor=8)

    def test_str_parse_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randrange(1, 6)):
                exps = (rng.randrange(5), rng.randrange(5))
                coeffs = tuple(Fraction(rng.randrange(-6, 7)) for _ in range(4))
                c = CycloNum(12, coeffs)
                if c:
                    terms[exps] = c
            f = MPoly("x", 2, 12, terms)
            assert px(str(f)) == f


class TestMonomialPower:
    def test_matches_repeated_multiplication_with_no_product(self, monkeypatch):
        # rational, zeta-power and general coefficients over three fields
        rng = random.Random(12)
        cases = []
        for conductor in (1, 3, 12):
            d = euler_phi(conductor)
            for kind in ("rational", "zeta", "general"):
                for _ in range(5):
                    q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 9))
                    if kind == "rational":
                        c = CycloNum.from_rational(q, conductor)
                    elif kind == "zeta":
                        c = CycloNum.zeta(conductor, rng.randrange(1, 24)) * q
                    else:
                        c = CycloNum(conductor, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                                 for _ in range(d)])
                    if not c:
                        continue
                    exps = tuple(rng.randrange(4) for _ in range(3))
                    cases.append((MPoly("x", 3, conductor, {exps: c}), rng.randrange(9)))
        expected = []
        for p, k in cases:
            acc = MPoly.constant(1, "x", 3, p.conductor)
            for _ in range(k):
                acc = acc * p
            expected.append(acc)
        product = MPoly.__mul__
        calls = []

        def counting(a, b):
            calls.append(None)
            return product(a, b)

        monkeypatch.setattr(MPoly, "__mul__", counting)
        assert [p ** k for p, k in cases] == expected
        assert not calls


def _repeated_product(p, e):
    acc = MPoly.constant(1, p.alphabet, p.nvars, p.conductor)
    for _ in range(e):
        acc = acc * p
    return acc


def _form_coefficients(n):
    """Nonzero elements of Q(zeta_n): a rational times a power of zeta, or a
    general element."""
    d = euler_phi(n)
    rational = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))
    zeta_multiple = st.builds(
        lambda k, q: CycloNum.zeta(n, k) * q, st.integers(0, 2 * n), rational
    )
    general = st.lists(rational, min_size=d, max_size=d).map(lambda c: CycloNum(n, c))
    return st.one_of(zeta_multiple, general).filter(bool)


@st.composite
def linear_forms(draw):
    """A linear form in x1..x4 with 2 to 4 nonzero coefficients, each a
    rational times a power of zeta or a general element, over one of the
    conductors 1, 3, 4, 5 and 12."""
    n = draw(st.sampled_from((1, 3, 4, 5, 12)))
    coeff = _form_coefficients(n)
    variables = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True))
    units = [tuple(int(j == i) for j in range(4)) for i in variables]
    return MPoly("x", 4, n, {u: draw(coeff) for u in units})


@st.composite
def affine_forms(draw):
    """A linear form in x1..x3 with 1 to 3 nonzero coefficients plus a
    nonzero constant, over one of the conductors 1, 3 and 12."""
    n = draw(st.sampled_from((1, 3, 12)))
    coeff = _form_coefficients(n)
    variables = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    units = [tuple(int(j == i) for j in range(3)) for i in variables]
    return MPoly("x", 3, n, {u: draw(coeff) for u in units + [(0, 0, 0)]})


class TestLinearFormPower:
    @settings(max_examples=150, deadline=None)
    @given(linear_forms(), st.integers(0, 15))
    def test_power_is_the_repeated_product(self, form, e):
        assert form ** e == _repeated_product(form, e)

    @settings(max_examples=50, deadline=None)
    @given(linear_forms(), st.integers(0, 15), st.integers(0, 15))
    def test_table_power_is_the_repeated_product(self, form, e, f):
        # a linear arg and a nonlinear one, asked in either order
        x = [MPoly.variable(i, "x", 4, form.conductor) for i in (1, 2, 3)]
        binomial = x[0] * x[1] - x[2]
        table = PowerTable([form, binomial])
        for k in (e, f, e):
            assert table.power(0, k) == _repeated_product(form, k)
            assert table.power(1, k) == _repeated_product(binomial, k)

    def test_table_takes_a_linear_power_with_no_product(self, monkeypatch):
        form = px("x1 + zeta*x2")
        table = PowerTable([form, px("x1 - 2*x2")])
        expected = _repeated_product(form, 12)
        calls = []
        product = MPoly.__mul__

        def counting(a, b):
            calls.append(None)
            return product(a, b)

        monkeypatch.setattr(MPoly, "__mul__", counting)
        assert table.power(0, 12) == expected
        assert table.power(0, 12) is table.power(0, 12)
        assert not calls

    def test_zero_exponent_zero_and_monomials(self):
        zero = MPoly.zero("x", 2, 12)
        one = MPoly.constant(1, "x", 2, 12)
        assert zero ** 0 == one and zero ** 3 == zero
        assert px("x1 - zeta*x2") ** 0 == one
        monomial = px("zeta^5*x2")
        table = PowerTable([zero, monomial])
        for e in range(5):
            assert table.power(0, e) == (one if e == 0 else zero)
            assert table.power(1, e) == monomial ** e == _repeated_product(monomial, e)

    @settings(max_examples=100, deadline=None)
    @given(affine_forms(), st.integers(0, 15))
    def test_affine_power_is_the_repeated_product(self, form, e):
        expected = _repeated_product(form, e)
        assert form ** e == expected
        assert PowerTable([form, form, form]).power(2, e) == expected

    def test_affine_forms_take_no_product(self, monkeypatch):
        # the constant is one more multinomial slot, which adds no exponent
        form, ternary = px("x1 + 1"), px("x1 + x2 + 1")
        expected = _repeated_product(form, 7)
        calls = []
        product = MPoly.__mul__

        def counting(a, b):
            calls.append(None)
            return product(a, b)

        monkeypatch.setattr(MPoly, "__mul__", counting)
        assert form ** 7 == expected
        assert PowerTable([form, form]).power(1, 7) == expected
        assert len((ternary ** 61).terms) == 1953
        assert not calls


def _pairwise_product(a, b):
    """The terms of a * b as the sum over term pairs of CycloNum products."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, CycloNum.zero(a.conductor)) + c1 * c2
    return {e: c for e, c in terms.items() if c}


@st.composite
def poly_pairs(draw):
    """Two polynomials in x1, x2 over one field, with up to 6 terms of degree
    at most 2 in each variable, so that products collide and cancel; each
    numerator has its own denominator."""
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 7, 8, 12, 24)))
    d = euler_phi(n)
    coeff = st.builds(
        lambda nums, dens: CycloNum(n, [Fraction(x, q) for x, q in zip(nums, dens)]),
        st.lists(st.integers(-6, 6), min_size=d, max_size=d),
        st.lists(st.sampled_from((1, 2, 3, 4, 6, 9, 10)), min_size=d, max_size=d),
    )
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    polys = st.dictionaries(exps, coeff, max_size=6).map(lambda t: MPoly("x", 2, n, t))
    return draw(polys), draw(polys)


class TestProductKernel:
    @settings(max_examples=300, deadline=None)
    @given(poly_pairs())
    def test_matches_pairwise_cyclonum_products(self, pair):
        a, b = pair
        # (a + b)(a - b) cancels the cross terms of a^2 - b^2
        for x, y in ((a, b), (b, a), (a, a), (a + b, a - b)):
            terms = (x * y).terms
            assert terms == _pairwise_product(x, y)
            for c in terms.values():
                assert c and c._den > 0 and gcd(*c._num, c._den) == 1

    def test_dense_product_makes_no_scalar_product(self, monkeypatch):
        a = px("(x1 + zeta*x2 + 1/3)^3")
        b = px("(1/2*x1 - zeta^5*x2 + 2/7)^3")
        assert len(a.terms) == len(b.terms) == 10
        expected = _pairwise_product(a, b)
        product = CycloNum.__mul__
        calls = []

        def counting(x, y):
            calls.append(None)
            return product(x, y)

        monkeypatch.setattr(CycloNum, "__mul__", counting)
        monkeypatch.setattr(CycloNum, "__rmul__", counting)
        assert (a * b).terms == expected
        assert not calls


@st.composite
def shared_factor_calls(draw):
    """(n, pool, scalars, calls): term dicts in x1, x2 over Q(zeta_n), n in
    1, 3 and 12, with mixed denominators and constants among them; nonzero
    scalars; and up to 8 calls over them.  A call is a product (i, j) or a
    sum of products, a list of triples (k, i, j) whose left factor i < 0
    names scalars[-1 - i]."""
    n = draw(st.sampled_from((1, 3, 12)))
    d = euler_phi(n)
    coeff = st.builds(
        lambda nums, dens: CycloNum(n, [Fraction(x, q) for x, q in zip(nums, dens)]),
        st.lists(st.integers(-6, 6), min_size=d, max_size=d),
        st.lists(st.sampled_from((1, 2, 3, 4, 6, 9, 10)), min_size=d, max_size=d),
    ).filter(bool)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = st.one_of(
        st.dictionaries(exps, coeff, min_size=1, max_size=5),
        coeff.map(lambda c: {(0, 0): c}),
    )
    pool = draw(st.lists(terms, min_size=2, max_size=5))
    scalars = draw(st.lists(coeff, min_size=1, max_size=2))
    right = st.integers(0, len(pool) - 1)
    left = st.integers(-len(scalars), len(pool) - 1)
    product = st.tuples(right, right)
    weighted = st.lists(st.tuples(st.integers(-2, 2), left, right), min_size=1, max_size=4)
    calls = draw(st.lists(st.one_of(product, weighted), min_size=1, max_size=8))
    return n, pool, scalars, calls


class TestKeptIntegerForms:
    @settings(max_examples=150, deadline=None)
    @given(shared_factor_calls())
    def test_reused_factors_match_the_naive_sum(self, case):
        n, pool, scalars, calls = case

        def naive(call):
            if isinstance(call, tuple):
                call = [(1, *call)]
            return _naive_sum_of_products(n, [
                (k, {(0, 0): scalars[-1 - i]} if i < 0 else pool[i], pool[j])
                for k, i, j in call
            ])

        def run(order):
            # fresh objects, so each order fills the kept forms in its own way
            polys = [MPoly("x", 2, n, t) for t in pool]
            out = {}
            for c in order:
                call = calls[c]
                if isinstance(call, tuple):
                    out[c] = (polys[call[0]] * polys[call[1]]).terms
                else:
                    out[c] = MPoly.sum_of_products([
                        (k, scalars[-1 - i] if i < 0 else polys[i], polys[j])
                        for k, i, j in call
                    ]).terms
            return out

        order = range(len(calls))
        forward, backward = run(order), run(reversed(order))
        for c in order:
            assert forward[c] == backward[c] == naive(calls[c])


class TestSumOfProductsMethod:
    def test_scalar_left_factor_and_weights(self):
        a, b = px("x1 + zeta*x2"), px("1/3*x1^2 - x2")
        c = CycloNum(12, [Fraction(1, 2), 0, 1, 0])
        expected = a * b * 3 - b * c + a * a * (-2)
        assert MPoly.sum_of_products([(3, a, b), (-1, c, b), (-2, a, a)]) == expected
        assert not MPoly.sum_of_products([(1, a, b), (-1, b, a)])
        assert not MPoly.sum_of_products([(1, CycloNum.zero(12), b)])

    def test_factors_must_be_compatible(self):
        a = px("x1 + x2")
        with pytest.raises(ConductorMismatch):
            MPoly.sum_of_products([(1, a, a), (1, px("x1", conductor=3), a)])
        for prefix in ([], [(1, a, a)]):
            with pytest.raises(ConductorMismatch):
                MPoly.sum_of_products(prefix + [(1, CycloNum.one(3), a)])
        with pytest.raises(ValueError):
            MPoly.sum_of_products([(1, a, pz("z1 + z2"))])
        with pytest.raises(ValueError):
            MPoly.sum_of_products([(1, a, px("x1", nvars=3))])
        with pytest.raises(ValueError):
            MPoly.sum_of_products([])


class TestNoZeroTerms:
    def test_results_hold_no_zero_coefficient(self):
        # operations build their term dicts without zeros, and a zero-holding
        # dict goes through the constructor, which drops them
        f, g = px("x1^2 + zeta*x1*x2 - x2^2"), px("x1^2 - x2^2")
        swap = parse_matrix([["0", "1"], ["1", "0"]], 12)
        results = [
            f + (-f), f - g, f * g, f * 0, -f, f * Fraction(2, 3), f.partial(2),
            (f * g).exact_div(g), f.substitute_linear(swap),
            MPoly("x", 2, 12, {(1, 0): CycloNum.zero(12), (0, 1): CycloNum.one(12)}),
        ]
        for p in results:
            assert all(p.terms.values())
        assert results[0].is_zero() and results[-1] == px("x2")


class TestWeightedExponents:
    def test_small_cases(self):
        assert weighted_exponents(8, (2, 4)) == [(0, 2), (2, 1), (4, 0)]
        assert weighted_exponents(5, (2, 4)) == []
        assert weighted_exponents(0, (3, 1)) == [(0, 0)]
        assert weighted_exponents(6, (6,)) == [(1,)]

    def test_matches_brute_force_in_lex_order(self):
        rng = random.Random(3)
        for _ in range(20):
            weights = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(1, 4)))
            target = rng.randrange(13)
            expected = [
                e for e in itertools.product(range(target + 1), repeat=len(weights))
                if sum(a * w for a, w in zip(e, weights)) == target
            ]
            assert weighted_exponents(target, weights) == expected


class TestTopReduce:
    BASIS = ("x1^3 + x2^3", "x1^2*x2 - zeta*x1*x2^2", "x2^3")

    def _basis(self):
        return {p.leading_term()[0]: p for p in map(px, self.BASIS)}

    def test_span_reduces_to_zero(self):
        basis = self._basis()
        rng = random.Random(5)
        for _ in range(10):
            combo = MPoly.zero("x", 2, 12)
            for p in basis.values():
                combo = combo + p * CycloNum(12, [Fraction(rng.randrange(-3, 4)) for _ in range(4)])
            assert top_reduce(combo, basis).is_zero()

    def test_outside_the_span_keeps_a_new_leading_monomial(self):
        basis = self._basis()
        f = px("x1^3 + 2*x1*x2^2 + x2^3")  # x1*x2^2 is no leading monomial
        r = top_reduce(f, basis)
        assert r == px("2*x1*x2^2")
        assert r.leading_term()[0] not in basis
        g = px("x1*x2^2 + x1^2*x2")
        assert top_reduce(g, {}) == g
        assert top_reduce(g, basis) == px("(1 + zeta)*x1*x2^2")


class TestDivision:
    def test_exact_div(self):
        f = px("x1^2 - x2^2")
        assert f.exact_div(px("x1 - x2")) == px("x1 + x2")
        assert (f * f).exact_div(f) == f

    def test_exact_div_with_cyclo_leading_coeff(self):
        g = px("(zeta^2 + zeta^4)*x1 + x2")
        h = px("x1^3 - 5*x2^3")
        assert (g * h).exact_div(g) == h

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            px("x1^2 + x2^2").exact_div(px("x1 + x2"))
        with pytest.raises(NotDivisible):
            px("x1").exact_div(px("x2"))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            px("x1").exact_div(MPoly.zero("x", 2, 12))

    def test_divides_predicate(self):
        assert px("x1 + x2").divides(px("x1^2 - x2^2"))
        assert not px("x1 + x2").divides(px("x1^2 + x2^2"))


@st.composite
def division_cases(draw):
    """(f, g, m) over Q or Q(zeta_12): f, often not homogeneous, and g != 0
    in x1, x2, and a monomial m that g does not divide."""
    n = draw(st.sampled_from((1, 12)))
    d = euler_phi(n)
    coeff = st.builds(
        lambda nums, dens: CycloNum(n, [Fraction(x, q) for x, q in zip(nums, dens)]),
        st.lists(st.integers(-5, 5), min_size=d, max_size=d),
        st.lists(st.sampled_from((1, 2, 3, 7)), min_size=d, max_size=d),
    )
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    polys = st.dictionaries(exps, coeff, max_size=6).map(lambda t: MPoly("x", 2, n, t))
    f, g = draw(polys), draw(polys)
    assume(g)
    m_exps = draw(exps)
    # g of two or more terms divides no monomial; a monomial g divides those
    # with every exponent at least its own
    if len(g.terms) == 1:
        [g_exps] = g.terms
        assume(any(a > b for a, b in zip(g_exps, m_exps)))
    return f, g, MPoly("x", 2, n, {m_exps: CycloNum.one(n)})


class TestExactDivRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(division_cases())
    def test_product_divided_by_a_factor(self, case):
        f, g, _ = case
        assert (f * g).exact_div(g) == f

    @settings(max_examples=200, deadline=None)
    @given(division_cases())
    def test_product_plus_an_indivisible_monomial(self, case):
        f, g, m = case
        with pytest.raises(NotDivisible):
            (f * g + m).exact_div(g)


class TestCalculus:
    def test_partial(self):
        f = px("x1^3*x2 + 4*x1*x2^2")
        assert f.partial(1) == px("3*x1^2*x2 + 4*x2^2")
        assert f.partial(2) == px("x1^3 + 8*x1*x2")
        assert px("7").partial(1).is_zero()

    def test_partials_commute(self):
        f = px("x1^4*x2^2 - 3*x1*x2^5 + x2^3")
        assert f.partial(1).partial(2) == f.partial(2).partial(1)

    def test_euler_identity(self):
        # sum x_i df/dx_i = deg(f) * f for homogeneous f
        f = px("x1^5*x2 - x1*x2^5")
        lhs = px("x1") * f.partial(1) + px("x2") * f.partial(2)
        assert lhs == f * 6

    def test_compose(self):
        f = pz("z1^2 - 4*z2")
        g = f.compose([px("x1^2 + x2^2"), px("x1^2*x2^2")])
        assert g == px("x1^4 - 2*x1^2*x2^2 + x2^4")

    def test_cyclotomic_polynomial_helper(self):
        p = cyclotomic_polynomial(12)
        assert p == parse_expr("x1^4 - x1^2 + 1", nvars=1, conductor=12)


class TestGroupAction:
    def test_action_on_swap(self):
        swap = parse_matrix([["0", "1"], ["1", "0"]], 12)
        assert px("x1^2 + 3*x2").substitute_linear(swap) == px("x2^2 + 3*x1")

    def test_action_law(self):
        # gamma_M(gamma_N(f)) == gamma_{M N}(f) for f(x) -> f(x * M^{-T})
        a = parse_matrix([["0", "1"], ["1", "0"]], 12)
        b = parse_matrix([["zeta^3", "0"], ["0", "-zeta^3"]], 12)
        f = px("x1^3*x2 + 2*x1*x2^2 - x2^4")
        lhs = f.substitute_linear(b).substitute_linear(a)
        rhs = f.substitute_linear(mat_mul(a, b))
        assert lhs == rhs

    def test_identity_action(self):
        from reflconn.linalg import identity_matrix

        f = px("x1^4 + (-2 + 4*zeta^2)*x1^2*x2^2 + x2^4")
        assert f.substitute_linear(identity_matrix(2, 12)) == f


class TestRatFun:
    def test_monic_denominator_normalization(self):
        r = RatFun(pz("z1"), pz("2*z2"))
        assert r.den.leading_coefficient() == 1
        assert r.num == pz("1/2*z1")

    def test_cross_multiplication_equality(self):
        a = RatFun(pz("z1^2 - z2^2"), pz("z1 + z2"))
        b = RatFun(pz("z1 - z2"), pz("1"))
        assert a == b
        assert a != RatFun(pz("z1 + z2"))

    def test_unreduced_forms_compare_equal(self):
        a = RatFun(pz("z1*z2"), pz("z2^2"))
        b = RatFun(pz("z1"), pz("z2"))
        assert a == b

    def test_arithmetic(self):
        a = RatFun(pz("1"), pz("z1"))
        b = RatFun(pz("1"), pz("z2"))
        assert a + b == RatFun(pz("z1 + z2"), pz("z1*z2"))
        assert a * b == RatFun(pz("1"), pz("z1*z2"))
        assert a - a == RatFun(pz("0"))
        assert -a + a == RatFun(pz("0"))
        assert a.reciprocal() == RatFun(pz("z1"))

    def test_reduced_strips_content_and_divides(self):
        r = RatFun(pz("z1^2*z2 - z2^3"), pz("z1*z2 + z2^2")).reduced()
        assert r.num == pz("z1 - z2")
        assert r.is_polynomial()
        # irreducible case unchanged in value
        s = RatFun(pz("z1"), pz("z1^2 - 4*z2"))
        assert s.reduced() == s

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(pz("1"), pz("0"))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(RatFun(pz("z1")))

    def test_compose(self):
        r = RatFun(pz("z1"), pz("z2"))
        back = r.compose([px("x1^2 + x2^2"), px("x1^2*x2^2")])
        assert back == RatFun(px("x1^2 + x2^2"), px("x1^2*x2^2"))
