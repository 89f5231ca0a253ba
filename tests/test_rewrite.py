"""Rewriting invariant polynomials in the invariant coordinates."""

import random
import signal
from fractions import Fraction

import pytest

from reflconn.cyclo import CycloNum
from reflconn.errors import IndependenceSearchFailed, NonHomogeneousInput, NotInvariant
from reflconn import rewrite as rewrite_module
from reflconn.invariants import InvariantTuple, catalog_names, fundamental_invariants, reynolds
from reflconn.linalg import solve_unique
from reflconn.poly import MPoly
from reflconn.rewrite import Rewriter, exponent_set

from conftest import catalog, px, pz, rank3_group


class TestExponentSet:
    def test_dihedral_degree_eight(self):
        es = exponent_set(8, (2, 4))
        assert es.members == ((0, 2), (2, 1), (4, 0))

    def test_empty_when_unreachable(self):
        assert exponent_set(5, (2, 4)).members == ()
        assert exponent_set(3, (2,)).members == ()

    def test_zero_target(self):
        assert exponent_set(0, (2, 4)).members == ((0, 0),)

    def test_lex_order(self):
        es = exponent_set(12, (2, 4))
        assert list(es.members) == sorted(es.members)

    def test_three_degrees(self):
        es = exponent_set(6, (2, 3, 6))
        assert set(es.members) == {(3, 0, 0), (0, 2, 0), (0, 0, 1)}

    def test_bad_input(self):
        with pytest.raises(ValueError):
            exponent_set(4, (0, 2))
        with pytest.raises(ValueError):
            exponent_set(-1, (2,))


class TestRewriteDihedral:
    def test_golden_examples(self):
        _, inv = catalog("G(2,1,2)")
        assert Rewriter(inv).rewrite(px("x1^2 + x2^2")) == pz("z1")
        assert Rewriter(inv).rewrite(px("x1^2*x2^2")) == pz("z2")
        assert Rewriter(inv).rewrite(px("x1^4 + x2^4")) == pz("z1^2 - 2*z2")
        assert Rewriter(inv).rewrite(px("x1^6 + x2^6")) == pz(
            "z1^3 - 3*z1*z2"
        )

    def test_zero_and_constant(self):
        _, inv = catalog("G(2,1,2)")
        assert Rewriter(inv).rewrite(MPoly.zero("x", 2, 12)).is_zero()
        assert Rewriter(inv).rewrite(px("5")) == pz("5")

    def test_not_invariant_inconsistent(self):
        _, inv = catalog("G(2,1,2)")
        with pytest.raises(NotInvariant):
            Rewriter(inv).rewrite(px("x1^2 - x2^2"))

    def test_not_invariant_unreachable_degree(self):
        _, inv = catalog("G(2,1,2)")
        with pytest.raises(NotInvariant):
            Rewriter(inv).rewrite(px("x1^3"))

    def test_non_homogeneous_rejected(self):
        _, inv = catalog("G(2,1,2)")
        with pytest.raises(NonHomogeneousInput):
            Rewriter(inv).rewrite(px("x1^2 + x2^2 + 1"))

    def test_misstated_degree_rejected_at_construction(self):
        # x1^2*x2^2 has degree 4: with the stated 6 the exponent sets would
        # miss z2 and call x1^4 + x2^4 = z1^2 - 2*z2 not invariant
        with pytest.raises(NonHomogeneousInput, match="invariant 2 "):
            InvariantTuple((px("x1^2 + x2^2"), px("x1^2*x2^2")), (2, 6), "catalog")

    def test_fewer_invariants_than_variables(self):
        # one invariant over x1, x2: the z-space and the unit product have
        # one variable; SIGALRM bounds the test should product loop again
        phi = InvariantTuple((px("x1^2 + x2^2"),), (2,), "catalog")

        def timeout(signum, frame):
            raise TimeoutError("Rewriter.rewrite ran past 10 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            rewriter = Rewriter(phi)
            g = rewriter.rewrite(px("x1^4 + 2*x1^2*x2^2 + x2^4"))
            with pytest.raises(NotInvariant):
                rewriter.rewrite(px("x1^4 + x2^4"))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert g == pz("z1^2", nvars=1)
        assert rewriter.compose(g) == px("x1^4 + 2*x1^2*x2^2 + x2^4")

    def test_reynolds_image_is_rewritable(self):
        group, inv = catalog("G(2,1,2)")
        f = reynolds(px("x1^6"), group)
        g = Rewriter(inv).rewrite(f)
        assert g.compose(list(inv.phis)) == f


class TestRewriteTetrahedral:
    def test_invariant_products(self):
        _, inv = catalog("G4")
        f1, f2 = inv.phis
        assert Rewriter(inv).rewrite(f1 * f2) == pz("z1*z2")
        assert Rewriter(inv).rewrite(f1 ** 2) == pz("z1^2")
        assert Rewriter(inv).rewrite(f1 ** 3 - 4 * f2 ** 2) == pz(
            "z1^3 - 4*z2^2"
        )


def random_weighted_poly(rng, degrees, max_total=6, conductor=12):
    """A nonzero z-polynomial, weighted-homogeneous for the given degrees,
    of total z-degree at most max_total."""
    while True:
        e0 = tuple(rng.randrange(max_total + 1) for _ in degrees)
        if 0 < sum(e0) <= max_total:
            break
    target = sum(e * d for e, d in zip(e0, degrees))
    members = [
        e
        for e in exponent_set(target, degrees).members
        if sum(e) <= max_total
    ]
    terms = {}
    for e in members:
        coeffs = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(4))
        c = CycloNum(conductor, coeffs)
        if c:
            terms[e] = c
    if not terms:
        terms[e0] = CycloNum.one(conductor)
    return MPoly("z", len(degrees), conductor, terms)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["G(2,1,2)", "G4"])
    def test_round_trip_random(self, name):
        _, inv = catalog(name)
        rewriter = Rewriter(inv)
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(25):
            f_tilde = random_weighted_poly(rng, inv.degrees)
            f = f_tilde.compose(list(inv.phis))
            assert rewriter.rewrite(f) == f_tilde

    def test_memoized_products_reused(self):
        _, inv = catalog("G(2,1,2)")
        rewriter = Rewriter(inv)
        rewriter.rewrite(px("x1^4 + x2^4"))
        cached = dict(rewriter._products)
        rewriter.rewrite(px("x1^2*x2^2 + 0*x1^4"))
        for k, v in cached.items():
            assert rewriter._products[k] is v


class TestPivotSystem:
    def power_sum_invariants(self):
        """x1^2 + x2^2 and x1^4 + x2^4: phi_1^2 and phi_2 share the leading
        monomial x1^4, so the pivots come only from reducing the products."""
        return InvariantTuple(
            phis=(px("x1^2 + x2^2"), px("x1^4 + x2^4")), degrees=(2, 4), source="catalog"
        )

    def test_colliding_leading_monomials(self):
        rewriter = Rewriter(self.power_sum_invariants())
        assert rewriter.rewrite(px("x1^2*x2^2")) == pz("1/2*z1^2 - 1/2*z2")
        assert rewriter.rewrite(px("x1^6 + x2^6")) == pz("-1/2*z1^3 + 3/2*z1*z2")

    def test_colliding_round_trip(self):
        inv = self.power_sum_invariants()
        rewriter = Rewriter(inv)
        rng = random.Random(7)
        for _ in range(25):
            f_tilde = random_weighted_poly(rng, inv.degrees)
            assert rewriter.rewrite(f_tilde.compose(list(inv.phis))) == f_tilde

    def test_residual_off_the_pivots_is_checked(self):
        # agrees with phi_1^2 on the pivots x1^4 and x1^2*x2^2, lacks x2^4
        _, inv = catalog("G(2,1,2)")
        with pytest.raises(NotInvariant):
            Rewriter(inv).rewrite(px("x1^4 + 2*x1^2*x2^2"))

    def test_dependent_products_rejected(self):
        inv = InvariantTuple(
            phis=(px("x1^2 + x2^2"), px("x1^4 + 2*x1^2*x2^2 + x2^4")),
            degrees=(2, 4), source="catalog",
        )
        with pytest.raises(IndependenceSearchFailed):
            Rewriter(inv).rewrite(px("x1^4 + x2^4"))

    def test_one_solve_per_degree(self, monkeypatch):
        calls = []

        def counting(rows, rhs):
            calls.append(len(rhs))
            return solve_unique(rows, rhs)

        monkeypatch.setattr(rewrite_module, "solve_unique", counting)
        _, inv = catalog("G4")
        rewriter = Rewriter(inv)
        f1, f2 = inv.phis
        rewriter.rewrite(f1 ** 3)
        # degree 12 = 3*4 = 2*6: one solve, both unit columns at once
        assert calls == [2]
        rewriter.rewrite(f1 ** 3 - 4 * f2 ** 2)
        rewriter.rewrite(f2 ** 2)
        assert calls == [2]


def random_z_poly(rng, nvars, conductor, top=4):
    """A z-polynomial of at most four terms with exponents up to top in each
    variable: in general not weighted-homogeneous, and a constant may sit
    beside a term of high degree."""
    zeta = CycloNum.zeta(conductor)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randrange(top + 1) for _ in range(nvars))
        c = CycloNum.from_rational(rng.randint(-5, 5), conductor)
        terms[e] = c + rng.randint(-2, 2) * zeta ** rng.randrange(2 * conductor)
    return MPoly("z", nvars, conductor, terms)


class TestCompose:
    @pytest.mark.parametrize("name", catalog_names() + ["G(2,1,3)"])
    def test_matches_mpoly_compose(self, name):
        if name in catalog_names():
            _, inv = catalog(name)
        else:
            inv = fundamental_invariants(rank3_group(name))
        rewriter = Rewriter(inv)
        n, conductor = inv.phis[0].nvars, inv.phis[0].conductor
        rng = random.Random(sum(map(ord, name)))
        polys = [random_z_poly(rng, n, conductor) for _ in range(8)]
        weights = [{sum(a * d for a, d in zip(e, inv.degrees)) for e in g.terms} for g in polys]
        assert any(len(w) > 1 for w in weights)  # not weighted-homogeneous
        # exponents far apart, summed into one result
        polys.append(pz(f"z1^5 - 3 + z{n}^2", nvars=n, conductor=conductor))
        for g in polys:
            assert rewriter.compose(g) == g.compose(list(inv.phis))

    def test_zero_and_constant(self):
        _, inv = catalog("G4")
        rewriter = Rewriter(inv)
        assert rewriter.compose(MPoly.zero("z", 2, 12)) == MPoly.zero("x", 2, 12)
        assert rewriter.compose(pz("7/3")) == px("7/3")

    def test_rejects_x_space_polynomial(self):
        _, inv = catalog("G(2,1,2)")
        with pytest.raises(ValueError):
            Rewriter(inv).compose(px("x1^2 + x2^2"))

    def test_rewrite_residual_is_compose(self, monkeypatch):
        _, inv = catalog("G(2,1,2)")
        rewriter = Rewriter(inv)
        composed = []
        original = Rewriter.compose

        def counting(self, g):
            composed.append(g)
            return original(self, g)

        monkeypatch.setattr(Rewriter, "compose", counting)
        assert rewriter.rewrite(px("x1^4 + x2^4")) == pz("z1^2 - 2*z2")
        assert composed == [pz("z1^2 - 2*z2")]
