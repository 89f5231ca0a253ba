"""The group action through kept actions and shared power tables.

A group keeps, for each element that acts, the images of x1..xn under
x -> x * M^{-T} as a tuple of linear forms, from its first use; group.action
makes a fresh PowerTable over that tuple, which lets several polynomials
share their powers.  It must give exactly what a substitution by the matrix
itself gives.
"""

import functools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflconn import poly
from reflconn.connection import connection_in_z, jacobian, scaled_connection
from reflconn.cyclo import CycloNum, euler_phi
from reflconn.groups import group_from_spec, load_group_spec
from reflconn.invariants import fundamental_invariants, invariants_from_spec, load_catalog_spec
from reflconn.linalg import mat_inverse, mat_mul
from reflconn.poly import MPoly, PowerTable
from reflconn.verify import full_report

from conftest import RANK3_GENERATORS, catalog, rank3_group

DATA = Path(__file__).parent / "data"

GROUPS = ("G4", "G(3,3,3)", "zeta5", "sheared zeta5")


@functools.lru_cache(maxsize=None)
def action_group(label):
    if label == "G4":
        return catalog("G4")[0]
    if label == "G(3,3,3)":
        return rank3_group("G(3,3,3)")
    # the spec file's group is unitary but not orthogonal; its sheared
    # conjugate is neither, so M^-1 is neither M^T nor conj(M)^T
    if label == "zeta5":
        return group_from_spec(load_group_spec(DATA / "g2_1_2_zeta5.json"))
    return group_from_spec(load_group_spec(DATA / "g2_1_2_zeta5_sheared.json"))


def sample(group):
    """The generators and about six elements spread over the group."""
    step = max(1, group.order // 6)
    return sorted(set(group.generator_indices) | set(range(0, group.order, step)))


def transpose(m):
    return tuple(zip(*m))


def _units(n):
    return [tuple(int(k == i) for k in range(n)) for i in range(n)]


def conjugate(c: CycloNum) -> CycloNum:
    """zeta -> zeta^-1."""
    n = c.conductor
    coeffs = [Fraction(0)] * n
    for k, a in enumerate(c.coeffs):
        coeffs[-k % n] += a
    return CycloNum.from_poly_coeffs(n, coeffs)


@st.composite
def polys(draw, n, conductor):
    """Up to five terms of degree at most 3 in each of n variables."""
    d = euler_phi(conductor)
    coeff = st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=d, max_size=d
    ).map(lambda cs: CycloNum(conductor, cs))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return MPoly("x", n, conductor, draw(st.dictionaries(exps, coeff, max_size=5)))


@st.composite
def cases(draw):
    """(group, element index, element index, one to three polynomials)."""
    group = action_group(draw(st.sampled_from(GROUPS)))
    indices = st.sampled_from(sample(group))
    fs = draw(st.lists(polys(group.rank, group.conductor), min_size=1, max_size=3))
    return group, draw(indices), draw(indices), fs


class TestKeptActions:
    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_action_equals_matrix(self, case):
        group, i, _, fs = case
        for f in fs:
            assert f.substitute_linear(group.action(i)) == f.substitute_linear(group.elements[i])

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_action_law(self, case):
        # gamma_M(gamma_N(f)) == gamma_{M N}(f), every action a kept one
        group, i, j, fs = case
        k = group.index_of(mat_mul(group.elements[i], group.elements[j]))
        for f in fs:
            lhs = f.substitute_linear(group.action(j)).substitute_linear(group.action(i))
            assert lhs == f.substitute_linear(group.action(k))

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_shared_table_equals_fresh_tables(self, case):
        group, i, _, fs = case
        table = group.action(i)
        # each call makes a fresh table over the one kept tuple of images
        other = group.action(i)
        assert other is not table and other.args is table.args is group.actions[i]
        shared = [f.substitute_linear(table) for f in fs]
        # the same table again, in the other order, once its powers are built
        again = [f.substitute_linear(table) for f in reversed(fs)][::-1]
        fresh = [f.substitute_linear(group.elements[i]) for f in fs]
        assert shared == again == fresh
        images = list(group.action(i).args)
        assert [f.compose(PowerTable(images)) for f in fs] == [f.compose(images) for f in fs]

    @settings(max_examples=30, deadline=None)
    @given(cases())
    def test_table_image_is_substituted_once(self, case):
        group, i, _, fs = case
        table = group.action(i)
        first = [table.image(f) for f in fs]
        assert first == [f.substitute_linear(group.elements[i]) for f in fs]
        # every image is remembered, so a second pass substitutes nothing
        table_substitutes = []
        original = MPoly.substitute_linear

        def counting(self, action):
            table_substitutes.append(action is table)
            return original(self, action)

        MPoly.substitute_linear = counting
        try:
            again = [table.image(f) for f in fs]
        finally:
            MPoly.substitute_linear = original
        assert again == first
        assert not any(table_substitutes)

    def test_images_are_the_rows_of_the_inverse(self):
        for label in GROUPS:
            group = action_group(label)
            for i in sample(group):
                inverse = mat_inverse(group.elements[i])
                for image, row in zip(group.action(i).args, inverse):
                    assert image.total_degree() == 1
                    assert [image.coefficient(e) for e in _units(group.rank)] == list(row)

    def test_which_inverse_shortcuts_hold(self):
        def shortcuts(m):
            conj_t = tuple(tuple(conjugate(e) for e in row) for row in transpose(m))
            return mat_inverse(m) == transpose(m), mat_inverse(m) == conj_t

        unitary, sheared = action_group("zeta5"), action_group("sheared zeta5")
        assert unitary.order == sheared.order == 8
        assert all(shortcuts(m)[1] for m in unitary.elements)
        assert not all(shortcuts(m)[0] for m in unitary.elements)
        assert shortcuts(sheared.generators()[1]) == (False, False)


class TestOrbitSum:
    """substitute_linear over a sequence of tables is the sum of the
    substitutions through each, made in one accumulation."""

    @staticmethod
    def mixed(group):
        """Terms with coefficient 1 and others, of zero to n variables."""
        n, conductor = group.rank, group.conductor
        one = CycloNum.one(conductor)
        return MPoly("x", n, conductor, {
            (0,) * n: one,
            (3,) + (0,) * (n - 1): one,
            (1,) * n: one,
            (2,) * n: CycloNum.zeta(conductor) + 3,
            (0,) * (n - 1) + (2,): CycloNum.from_rational(Fraction(-5, 2), conductor),
        })

    @staticmethod
    def by_products(f, images):
        """f with images[j] for x_j, by products and powers alone."""
        total = MPoly.zero(f.alphabet, f.nvars, f.conductor)
        for exps, c in f.terms.items():
            term = MPoly.constant(c, f.alphabet, f.nvars, f.conductor)
            for image, e in zip(images, exps):
                term = term * image ** e
            total = total + term
        return total

    @pytest.mark.parametrize("label", GROUPS)
    def test_equals_the_sum_of_the_substitutions(self, label):
        group = action_group(label)
        indices = sample(group)
        f = self.mixed(group)
        images = [self.by_products(f, group.action(i).args) for i in indices]
        total = MPoly.zero("x", group.rank, group.conductor)
        for i, image in zip(indices, images):
            assert f.substitute_linear(group.elements[i]) == image
            total = total + image
        tables = [group.action(i) for i in indices]
        assert f.substitute_linear(tables) == f.compose(tables) == total
        # the tables' powers, now built, are shared with a second orbit sum
        assert f.substitute_linear(tables) == total

    @pytest.mark.parametrize("label", GROUPS)
    def test_an_orbit_of_one_table(self, label):
        group = action_group(label)
        f = self.mixed(group)
        for i in sample(group):
            table = group.action(i)
            assert f.substitute_linear([table]) == self.by_products(f, table.args)

    def test_the_zero_polynomial(self):
        group = action_group("G(3,3,3)")
        zero = MPoly.zero("x", group.rank, group.conductor)
        image = zero.substitute_linear([group.action(i) for i in sample(group)])
        assert image.is_zero() and image == zero


class TestEachElementInvertedOnce:
    def test_inverse_count_on_g4(self, monkeypatch):
        calls = []

        def counting_inverse(matrix):
            calls.append(matrix)
            return mat_inverse(matrix)

        monkeypatch.setattr(poly, "mat_inverse", counting_inverse)
        group = group_from_spec(load_catalog_spec("G4"))  # no action kept yet
        phi = fundamental_invariants(group)
        jd = jacobian(phi)
        sc = scaled_connection(jd, group=group)
        report = full_report(group, phi, jd, sc, connection_in_z(sc, phi))
        assert report.all_passed
        assert 0 < len(calls) <= group.order
        assert len(set(calls)) == len(calls)

        calls.clear()
        assert fundamental_invariants(group) == phi
        assert calls == []

        # the group holds the n image forms of the elements that act, the
        # representatives of the cosets of the diagonal subgroup (Reynolds)
        # and the generators (the checks), never their powers
        _, representatives = group.diagonal_cosets
        assert set(group.actions) == set(representatives) | set(group.generator_indices)
        for images in group.actions.values():
            assert type(images) is tuple and len(images) == group.rank
            assert all(p.total_degree() == 1 for p in images)
        assert not any(isinstance(v, PowerTable) for v in vars(group).values())


class TestGroupChecksSubstituteOnlyTheInvariants:
    """Across scaled_connection and full_report, each generator substitutes
    each invariant once, the phi_r whose gradient is Jacobian row r,
    through the tables kept on the ScaledConnection; no Jacobian entry and
    no D."""

    @staticmethod
    def fresh_system(name):
        if name == "G7":
            spec = load_catalog_spec(name)
            group = group_from_spec(spec)
            return group, invariants_from_spec(spec, group)
        conductor, generators = RANK3_GENERATORS[name]
        group = group_from_spec(
            {"conductor": conductor, "rank": 3, "generators": list(generators)}
        )
        return group, fundamental_invariants(group)

    @pytest.mark.parametrize("name", ["G7", "G(3,3,3)"])
    def test_substitutions_per_system(self, name, monkeypatch):
        group, phi = self.fresh_system(name)
        assert group.order == {"G7": 144, "G(3,3,3)": 54}[name]
        jd = jacobian(phi)
        degrees = []
        original = MPoly.substitute_linear

        def counting(self, action):
            degrees.append(self.total_degree())
            return original(self, action)

        monkeypatch.setattr(MPoly, "substitute_linear", counting)
        sc = scaled_connection(jd, group=group)
        report = full_report(group, phi, jd, sc, connection_in_z(sc, phi))
        assert report.all_passed
        assert 0 < len(degrees) <= len(group.generator_indices) * group.rank
        assert max(degrees) <= max(phi.degrees)
