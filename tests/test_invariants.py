"""Reynolds operator and the cosets of the diagonal subgroup, invariant
degrees and the Molien series, fundamental invariants, the catalog."""

import functools
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from reflconn import invariants
from reflconn.cyclo import CycloNum
from reflconn.errors import DegreeSearchFailed, UnknownGroup
from reflconn.groups import (
    close_group,
    group_from_spec,
    load_group_spec,
    parse_matrix,
    validate_reflection_group,
)
from reflconn.invariants import (
    catalog_lookup,
    catalog_names,
    fundamental_invariants,
    invariant_degrees,
    is_invariant,
    molien_series,
    reynolds,
)
from reflconn.linalg import det as mat_det, identity_matrix, mat_rank, mat_sub
from reflconn.poly import MPoly, grlex_key, weighted_exponents

from conftest import (
    EXTRA_GENERATORS,
    RANK3_GENERATORS,
    catalog,
    extra_group,
    px,
    rank3_group,
    sign_group,
)

DATA = Path(__file__).parent / "data"
SPEC_FILES = (
    "g70_70_2.json", "cyclic70.json", "g2_1_2_zeta5.json", "g2_1_2_zeta5_sheared.json",
    "a2_root_basis.json", "b3_root_basis.json",
)
SUITE_GROUPS = (*catalog_names(), *RANK3_GENERATORS, *EXTRA_GENERATORS, "sign", *SPEC_FILES)

# S3 = W(A2) over Q in the basis (alpha1, alpha1 + 2*alpha2), where s1 is
# diagonal: H = {I, s1} is not normal, so its left and right cosets differ
DIAGONAL_REFLECTION_S3 = ([["-1", "0"], ["0", "1"]], [["1/2", "3/2"], ["1/2", "-1/2"]])
COSET_GROUPS = (*SUITE_GROUPS, "S3, diagonal reflection")


@functools.lru_cache(maxsize=None)
def suite_group(label):
    """Every group the suite builds, by catalog name, conftest name, "sign",
    spec file name or "S3, diagonal reflection"."""
    if label in RANK3_GENERATORS:
        return rank3_group(label)
    if label in EXTRA_GENERATORS:
        return extra_group(label)
    if label == "sign":
        return sign_group()[0]
    if label in SPEC_FILES:
        return group_from_spec(load_group_spec(DATA / label))
    if label == "S3, diagonal reflection":
        return validate_reflection_group(
            close_group([parse_matrix(m, 1) for m in DIAGONAL_REFLECTION_S3])
        )
    return catalog(label)[0]


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


def first_monomials(d, n, count=3):
    """The first count monomials of degree d in grlex order, as the
    invariant search takes them."""
    return sorted(weighted_exponents(d, (1,) * n), key=grlex_key, reverse=True)[:count]


def equivalence_inputs(group):
    """The polynomials whose Reynolds images are compared with the sum over
    every element: the first monomials of each invariant degree; the sum of
    the first monomials of the largest degree below the top one that no
    product of invariants reaches, whose image is zero; and a dense
    non-homogeneous polynomial, every monomial of degree at most 3 plus
    x1^d for each invariant degree d, with coefficients k + zeta^k."""
    n, conductor = group.rank, group.conductor
    one = CycloNum.one(conductor)
    degrees = invariant_degrees(group)
    fs = [
        MPoly("x", n, conductor, {e: one})
        for d in sorted(set(degrees))
        for e in first_monomials(d, n)
    ]
    empty = max(d for d in range(1, max(degrees)) if not weighted_exponents(d, degrees))
    vanishing = MPoly("x", n, conductor, {e: one for e in first_monomials(empty, n)})
    dense = [e for d in range(4) for e in weighted_exponents(d, (1,) * n)]
    dense += [(d,) + (0,) * (n - 1) for d in degrees if d > 3]
    fs.append(MPoly("x", n, conductor, {
        e: CycloNum.zeta(conductor, k) + k for k, e in enumerate(dense)
    }))
    return fs, vanishing


class TestReynoldsOverCosets:
    """reynolds sums over the cosets of the diagonal subgroup; it must equal
    the plain average over every element."""

    @pytest.mark.parametrize("label", COSET_GROUPS)
    def test_equals_the_sum_over_every_element(self, label):
        group = suite_group(label)
        fs, vanishing = equivalence_inputs(group)
        for f in fs + [vanishing]:
            total = MPoly.zero("x", group.rank, group.conductor)
            for m in group.elements:
                total = total + f.substitute_linear(m)
            assert reynolds(f, group) == total * Fraction(1, group.order)
        assert reynolds(vanishing, group).is_zero()

    @pytest.mark.parametrize("label", COSET_GROUPS)
    def test_cosets_of_the_diagonal_subgroup(self, label):
        group = suite_group(label)
        n = group.rank
        diagonals, representatives = group.diagonal_cosets
        assert set(diagonals) == {
            tuple(m[j][j] for j in range(n))
            for m in group.elements
            if all(not m[r][c] for r in range(n) for c in range(n) if r != c)
        }
        assert len(diagonals) * len(representatives) == group.order
        assert list(representatives) == sorted(representatives)
        assert representatives[0] == 0
        assert group.diagonal_cosets is group.diagonal_cosets  # kept

    def test_without_diagonal_elements_every_element_represents(self):
        group = suite_group("a2_root_basis.json")
        assert group.order == 6
        assert invariant_degrees(group) == (2, 3)
        assert group.diagonal_cosets == (((1, 1),), tuple(range(6)))

    def test_b3_in_the_root_basis(self):
        # the first rank-3 spec whose linear images have 2 or 3 nonzero
        # coefficients: W(B3), order 48, 9 reflections, degrees 2, 4 and 6
        group = suite_group("b3_root_basis.json")
        assert (group.order, len(group.reflection_indices)) == (48, 9)
        assert invariant_degrees(group) == (2, 4, 6)
        images = {len(f.terms) for t in group.diagonal_cosets[1] for f in group.action(t).args}
        assert images == {1, 2, 3}

    @pytest.mark.parametrize("label", ["G4", "G(3,3,3)", "b3_root_basis.json"])
    def test_one_substitution_per_call(self, label, monkeypatch):
        # the fixed part goes through every representative's table in one
        # substitute_linear, and so one compose
        group = suite_group(label)
        f = MPoly("x", group.rank, group.conductor,
                  {e: CycloNum.one(group.conductor) for e in first_monomials(6, group.rank)})
        expected = reynolds(f, group)
        calls = {"substitute_linear": [], "compose": []}
        for name, record in calls.items():
            original = getattr(MPoly, name)
            monkeypatch.setattr(MPoly, name, lambda p, a, o=original, r=record: r.append(a) or o(p, a))
        assert reynolds(f, group) == expected and expected
        (tables,) = calls["substitute_linear"]
        assert len(tables) == len(group.diagonal_cosets[1])
        assert calls["compose"] == [tables]

    def test_a_zero_image_substitutes_nothing(self, monkeypatch):
        group, _ = catalog("G4")
        calls = []
        monkeypatch.setattr(
            MPoly, "substitute_linear", lambda f, a: calls.append(a) or f
        )
        assert reynolds(px("x1^5 + x1^3*x2^2"), group).is_zero()
        assert calls == []


class TestDiagonalExponents:
    """The test on integer exponents by which reynolds keeps the terms that
    the diagonal subgroup fixes, against the product of CycloNum powers."""

    @pytest.mark.parametrize("label", COSET_GROUPS)
    def test_agrees_with_the_cyclonum_product(self, label):
        group = suite_group(label)
        n, conductor = group.rank, group.conductor
        one = CycloNum.one(conductor)
        top = 2 * max(invariant_degrees(group))
        monomials = [e for d in range(top + 1) for e in weighted_exponents(d, (1,) * n)]

        @functools.lru_cache(maxsize=None)
        def powers(s):
            row = [one]
            for _ in range(top):
                row.append(row[-1] * s)
            return row

        @functools.lru_cache(maxsize=None)
        def times(a, b):
            return a * b

        def fixed_by(h, exps):
            product = one
            for s, e in zip(h, exps):
                product = times(product, powers(s)[e])
            return product == one

        diagonals = group.diagonal_cosets[0]
        expected = {e for e in monomials if all(fixed_by(h, e) for h in diagonals)}
        f = MPoly("x", n, conductor, {e: one for e in monomials})
        assert set(invariants.diagonal_fixed_part(f, group).terms) == expected
        assert (0,) * n in expected

    @pytest.mark.parametrize("label, order, exponents", [
        # N = 5 is odd: -1 = zeta_10^5 is no power of zeta_5, so w = -zeta_5
        ("g2_1_2_zeta5.json", 10, {(0, 0), (5, 0), (0, 5), (5, 5)}),
        ("cyclic70.json", 70, {(k,) for k in range(70)}),
        ("G(2,1,3)", 2, set(itertools.product((0, 1), repeat=3))),  # conductor 1: w = -1
    ])
    def test_exponents_of_one_root_of_unity(self, label, order, exponents):
        group = suite_group(label)
        assert group.diagonal_exponents[0] == order
        assert set(group.diagonal_exponents[1]) == exponents
        w = CycloNum.zeta(group.conductor) * (-1 if group.conductor % 2 else 1)
        for h, ks in zip(group.diagonal_cosets[0], group.diagonal_exponents[1]):
            assert all(s == w ** k for s, k in zip(h, ks))
        assert group.diagonal_exponents is group.diagonal_exponents  # kept


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
        assert invariant_degrees(group) == degrees

    def test_degree_product_and_sum(self):
        for name in catalog_names():
            group, _ = catalog(name)
            degs = invariant_degrees(group)
            prod = 1
            for d in degs:
                prod *= d
            assert prod == group.order
            assert sum(d - 1 for d in degs) == len(group.reflection_indices)

    def test_rank_one_degrees(self):
        group, _ = sign_group()
        assert invariant_degrees(group) == (2,)

    @pytest.mark.parametrize("spec,degrees", [
        ("g70_70_2.json", (2, 70)),
        ("cyclic70.json", (70,)),
    ])
    def test_degrees_above_64(self, spec, degrees):
        # exponents are tried up to the reflection count, so no fixed bound
        # cuts a degree off
        group = group_from_spec(load_group_spec(Path(__file__).parent / "data" / spec))
        assert invariant_degrees(group) == degrees

    def test_series_head_rank_three(self):
        # G(2,1,3) = B3 over Q: 1/((1-t^2)(1-t^4)(1-t^6))
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


    @pytest.mark.parametrize("name,degrees", [
        ("G(2,1,3)", (2, 4, 6)),
        ("G(3,3,3)", (3, 3, 6)),
    ])
    def test_series_is_the_degree_product(self, name, degrees):
        # prod 1/(1 - t^d) counts the monomials in the invariants: at t^k,
        # the exponent vectors of weighted degree k
        group = rank3_group(name)
        precision = 25
        expected = [len(weighted_exponents(k, degrees)) for k in range(precision)]
        assert molien_series(group, precision) == expected

    def test_series_of_precision_zero_is_empty(self):
        group, _ = catalog("G(2,1,2)")
        assert molien_series(group, 0) == []
        assert molien_series(group, 1) == [1]

    def test_negative_precision_is_rejected(self):
        group, _ = catalog("G(2,1,2)")
        with pytest.raises(ValueError, match="precision"):
            molien_series(group, -3)

    @pytest.mark.parametrize("label", SUITE_GROUPS)
    def test_fixed_dims_are_the_ranks(self, label):
        # close_group keeps dim V^g = n - rank(g - I) of every element, and
        # the reflections are exactly the elements fixing a hyperplane
        group = suite_group(label)
        n = group.rank
        ident = identity_matrix(n, group.conductor)
        assert group.fixed_dims == tuple(
            n - mat_rank(mat_sub(m, ident)) for m in group.elements
        )
        assert group.reflection_indices == tuple(
            i for i, dim in enumerate(group.fixed_dims) if dim == n - 1
        )

    @pytest.mark.parametrize("label", SUITE_GROUPS)
    def test_fixed_spaces_factor_over_the_degrees(self, label):
        # sum over g of t^(dim V^g) = prod_i (t + d_i - 1), with
        # dim V^g = n - rank(g - I), coefficients constant term first
        group = suite_group(label)
        n = group.rank
        ident = identity_matrix(n, group.conductor)
        fixed = [0] * (n + 1)
        for m in group.elements:
            fixed[n - mat_rank(mat_sub(m, ident))] += 1
        product = [1]
        for d in invariant_degrees(group):
            product = [(d - 1) * a + b for a, b in zip(product + [0], [0] + product)]
        assert fixed == product

    @pytest.mark.parametrize("name,order,degrees", [
        ("G(4,1,2)", 32, (4, 8)),
        ("G(3,1,3)", 162, (3, 6, 9)),
        ("G(2,1,4)", 384, (2, 4, 6, 8)),
    ])
    def test_extra_group_degrees(self, name, order, degrees):
        group = extra_group(name)
        assert group.order == order
        assert invariant_degrees(group) == degrees

    def test_fixed_spaces_that_do_not_factor_are_rejected(self):
        # diag(-1, 1) and i*I generate a group of order 8 whose two
        # reflections generate only 4 elements: sum t^(dim V^g) is
        # t^2 + 2t + 5, with no root -e for an integer e >= 0
        group = close_group([
            parse_matrix([["-1", "0"], ["0", "1"]], 4),
            parse_matrix([["zeta", "0"], ["0", "zeta"]], 4),
        ])
        assert group.order == 8
        with pytest.raises(DegreeSearchFailed, match=r"coefficients \[5, 2, 1\]"):
            invariant_degrees(group)


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


    def test_degree_six_takes_one_reynolds_call(self, monkeypatch):
        # degree 6 of G(2,1,3) has 28 monomials and 3 invariants, two of
        # them the products p2^3 and p2*p4; the image of x1^6, the first
        # monomial in grlex order, lies outside their span
        group = rank3_group("G(2,1,3)")
        assert molien_series(group, 7)[6] == 3
        calls = []

        def counting(f, g):
            calls.append(f.total_degree())
            return reynolds(f, g)

        monkeypatch.setattr(invariants, "reynolds", counting)
        inv = fundamental_invariants(group)
        assert inv.degrees == (2, 4, 6)
        assert calls == [2, 4, 6]
        assert len(weighted_exponents(6, (1, 1, 1))) == 28

    def test_short_reynolds_basis_is_rejected(self, monkeypatch):
        # with every degree-4 image of G(2,1,2) zero, nothing outside the
        # span of p2^2 is left for the second invariant
        group, _ = catalog("G(2,1,2)")

        def dropping(f, g):
            if f.total_degree() == 4:
                return MPoly.zero(f.alphabet, f.nvars, f.conductor)
            return reynolds(f, g)

        monkeypatch.setattr(invariants, "reynolds", dropping)
        with pytest.raises(DegreeSearchFailed, match="give 0 of the 1 degree-4"):
            fundamental_invariants(group)

    @pytest.mark.parametrize("name,phis", [
        ("G(4,1,2)", ("x1^4 + x2^4", "x1^8 + x2^8")),
        ("G(3,1,3)", (
            "x1^3 + x2^3 + x3^3", "x1^6 + x2^6 + x3^6", "x1^9 + x2^9 + x3^9",
        )),
    ])
    def test_power_sums_are_pinned(self, name, phis):
        inv = fundamental_invariants(extra_group(name))
        assert tuple(str(p) for p in inv.phis) == phis


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
            assert tuple(sorted(inv.degrees)) == invariant_degrees(group)

    def test_lookup_is_cached(self):
        a = catalog_lookup("G4")
        b = catalog_lookup("G4")
        assert a is b
