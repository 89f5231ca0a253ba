"""Reynolds operator, Molien degrees, fundamental invariants, the catalog."""

import pytest

from reflconn import invariants
from reflconn.cyclo import CycloNum
from reflconn.errors import DegreeSearchFailed, UnknownGroup
from reflconn.invariants import (
    catalog_lookup,
    catalog_names,
    fundamental_invariants,
    invariant_degrees,
    is_invariant,
    molien_series,
    reynolds,
)
from reflconn.linalg import det as mat_det
from reflconn.poly import MPoly

from conftest import catalog, px, rank3_group, sign_group


class TestReynolds:
    def test_dihedral_average_golden(self):
        group, _ = catalog("G(2,1,2)")
        assert reynolds(px("x1^2"), group) == px("1/2*x1^2 + 1/2*x2^2")
        assert reynolds(px("x1*x2"), group).is_zero()
        assert reynolds(px("x1^4"), group) == px("1/2*x1^4 + 1/2*x2^4")

    def test_result_is_invariant(self):
        group, _ = catalog("G4")
        r = reynolds(px("x1^4"), group)
        assert is_invariant(r, group)

    def test_idempotent(self):
        group, _ = catalog("G(2,1,2)")
        r = reynolds(px("x1^2 + 3*x1*x2"), group)
        assert reynolds(r, group) == r

    def test_fixes_invariants(self):
        group, inv = catalog("G(2,1,2)")
        for p in inv.phis:
            assert reynolds(p, group) == p


class TestMolien:
    def test_series_head_dihedral(self):
        group, _ = catalog("G(2,1,2)")
        s = molien_series(group, 9)
        # dims of invariants: 1, 0, 1, 0, 2, 0, 2, 0, 3
        assert [c.rational_value() for c in s] == [1, 0, 1, 0, 2, 0, 2, 0, 3]

    @pytest.mark.parametrize(
        "name,degrees",
        [
            ("G(2,1,2)", (2, 4)),
            ("G4", (4, 6)),
            ("G5", (6, 12)),
            ("G6", (4, 12)),
            ("G7", (12, 12)),
        ],
    )
    def test_invariant_degrees(self, name, degrees):
        group, _ = catalog(name)
        assert invariant_degrees(group, max_degree=16) == degrees

    def test_degree_product_and_sum(self):
        for name in catalog_names():
            group, _ = catalog(name)
            degs = invariant_degrees(group, max_degree=16)
            prod = 1
            for d in degs:
                prod *= d
            assert prod == group.order
            assert sum(d - 1 for d in degs) == len(group.reflection_indices)

    def test_rank_one_degrees(self):
        group, _ = sign_group()
        assert invariant_degrees(group) == (2,)

    def test_series_head_rank_three(self):
        # G(2,1,3) = B3 over Q: 1/((1-t^2)(1-t^4)(1-t^6)) through the 3x3
        # determinant of I - tM
        group = rank3_group("G(2,1,3)")
        assert group.order == 48
        s = molien_series(group, 9)
        assert [c.rational_value() for c in s] == [1, 0, 1, 0, 2, 0, 3, 0, 4]


    @pytest.mark.parametrize("name", catalog_names())
    def test_series_equals_per_element_sum(self, name):
        # (1/|G|) * sum over every element of 1/(1 - tr(M) t + det(M) t^2),
        # one series inversion per element
        group, _ = catalog(name)
        precision = 13
        zero = CycloNum.zero(group.conductor)
        total = [zero] * precision
        for (a, b), (c, d) in group.elements:
            c1, c2 = -(a + d), a * d - b * c
            inv = [CycloNum.one(group.conductor), -c1]
            for k in range(2, precision):
                inv.append(-(c1 * inv[k - 1] + c2 * inv[k - 2]))
            total = [x + y for x, y in zip(total, inv)]
        assert molien_series(group, precision) == [x / group.order for x in total]


class TestFundamentalInvariants:
    def test_dihedral(self):
        group, _ = catalog("G(2,1,2)")
        inv = fundamental_invariants(group)
        assert inv.source == "reynolds"
        assert inv.degrees == (2, 4)
        for p in inv.phis:
            assert is_invariant(p, group)
            assert p.is_homogeneous()
        jac = [
            [p.partial(j + 1) for j in range(group.rank)] for p in inv.phis
        ]
        assert mat_det(jac)

    def test_rank_one(self):
        group, _ = sign_group()
        inv = fundamental_invariants(group)
        assert inv.degrees == (2,)
        assert is_invariant(inv.phis[0], group)


    def test_basis_search_stops_at_molien_dimension(self, monkeypatch):
        # degree 6 of G(2,1,3) has 28 monomials and 3 invariants, the third
        # of which is the Reynolds image of the 13th monomial in grlex order
        group = rank3_group("G(2,1,3)")
        assert molien_series(group, 7)[6] == 3
        calls = []

        def counting(f, g):
            calls.append(f)
            return reynolds(f, g)

        monkeypatch.setattr(invariants, "reynolds", counting)
        basis = invariants._invariant_basis(group, 6, 3)
        assert len(basis) == 3
        assert len(calls) == 13
        assert len(invariants._monomials_of_degree(3, 6)) == 28

    def test_short_reynolds_basis_is_rejected(self, monkeypatch):
        # x1^2*x2^2 is the only monomial whose image completes the two
        # degree-4 invariants of G(2,1,2); dropping it leaves the basis short
        group, _ = catalog("G(2,1,2)")

        def dropping(f, g):
            if set(f.terms) == {(2, 2)}:
                return MPoly.zero(f.alphabet, f.nvars, f.conductor)
            return reynolds(f, g)

        monkeypatch.setattr(invariants, "reynolds", dropping)
        with pytest.raises(DegreeSearchFailed, match="span 1 of the 2 degree-4"):
            fundamental_invariants(group)


class TestCatalog:
    def test_names(self):
        assert catalog_names() == ["G(2,1,2)", "G4", "G5", "G6", "G7"]

    def test_unknown_group(self):
        with pytest.raises(UnknownGroup):
            catalog_lookup("G99")

    def test_catalog_invariants_are_invariant(self):
        for name in catalog_names():
            group, inv = catalog(name)
            assert inv.source == "catalog"
            for p, d in zip(inv.phis, inv.degrees):
                assert p.is_homogeneous()
                assert p.total_degree() == d
                assert is_invariant(p, group)

    def test_catalog_degrees_match_molien(self):
        for name in catalog_names():
            group, inv = catalog(name)
            assert tuple(sorted(inv.degrees)) == invariant_degrees(group, max_degree=16)

    def test_lookup_is_cached(self):
        a = catalog_lookup("G4")
        b = catalog_lookup("G4")
        assert a is b
