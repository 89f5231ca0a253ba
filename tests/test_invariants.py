"""Reynolds operator, Molien degrees, fundamental invariants, the catalog."""

import pytest

from reflconn.errors import UnknownGroup
from reflconn.groups import close_group, parse_matrix, validate_reflection_group
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

from conftest import catalog, px, sign_group


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
        rows = {
            "s12": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
            "s23": [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
            "sign": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }
        group = validate_reflection_group(
            close_group([parse_matrix(m, 1) for m in rows.values()])
        )
        assert group.order == 48
        s = molien_series(group, 9)
        assert [c.rational_value() for c in s] == [1, 0, 1, 0, 2, 0, 3, 0, 4]


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
