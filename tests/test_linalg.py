"""Exact linear algebra over the field and over polynomial rings."""

import pytest

from reflconn.cyclo import CycloNum
from reflconn.groups import parse_matrix
from reflconn.invariants import catalog_names
from reflconn.linalg import (
    InconsistentSystem,
    UnderdeterminedSystem,
    adjugate,
    det,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_rank,
    row_echelon,
    solve_unique,
)

from conftest import derived_pipeline, pipeline, px


def scalar(s):
    from reflconn.parsing import parse_scalar

    return parse_scalar(s, 12)


class TestDeterminant:
    def test_2x2(self):
        m = parse_matrix([["1", "2"], ["3", "4"]], 12)
        assert det(m) == -2

    def test_3x3_laplace(self):
        m = parse_matrix(
            [["2", "0", "1"], ["1", "1", "-1"], ["0", "3", "2"]], 12
        )
        # expansion by hand: 2*(2+3) - 0 + 1*(3-0) = 13
        assert det(m) == 13

    def test_multiplicativity(self):
        a = parse_matrix([["zeta", "1"], ["0", "2"]], 12)
        b = parse_matrix([["1", "-1"], ["zeta^3", "1"]], 12)
        assert det(mat_mul(a, b)) == det(a) * det(b)

    def test_polynomial_entries(self):
        m = ((px("x1"), px("x2")), (px("x2"), px("x1")))
        assert det(m) == px("x1^2 - x2^2")


class TestAdjugate:
    def test_fundamental_identity_scalar(self):
        m = parse_matrix([["2", "zeta"], ["1", "1 + zeta^3"]], 12)
        adj = mat_mul(m, adjugate(m))
        d = det(m)
        for i in range(2):
            for j in range(2):
                assert adj[i][j] == (d if i == j else 0)

    def test_fundamental_identity_polynomial(self):
        m = (
            (px("x1^2"), px("x1*x2"), px("x2^2")),
            (px("x2"), px("x1"), px("0")),
            (px("1"), px("0"), px("x1")),
        )
        adj = adjugate(m)
        d = det(m)
        prod = mat_mul(m, adj)
        for i in range(3):
            for j in range(3):
                expected = d if i == j else px("0")
                assert prod[i][j] == expected

    def test_1x1(self):
        m = ((px("x1^3"),),)
        assert adjugate(m)[0][0] == 1


class TestInverse:
    def test_inverse_of_generator(self):
        m = parse_matrix([["0", "1"], ["1", "0"]], 12)
        inv = mat_inverse(m)
        assert mat_mul(m, inv) == identity_matrix(2, 12)

    def test_singular_raises(self):
        from reflconn.errors import SingularMatrix

        m = parse_matrix([["1", "2"], ["2", "4"]], 12)
        with pytest.raises(SingularMatrix):
            mat_inverse(m)


class TestEchelonAndSolve:
    def test_rank(self):
        rows = [
            [scalar("1"), scalar("2")],
            [scalar("2"), scalar("4")],
        ]
        assert mat_rank(rows) == 1
        rows[1][1] = scalar("5")
        assert mat_rank(rows) == 2

    def test_row_echelon_pivots(self):
        rows = [
            [scalar("0"), scalar("1"), scalar("2")],
            [scalar("1"), scalar("0"), scalar("1")],
        ]
        reduced, pivots = row_echelon(rows)
        assert pivots == [0, 1]
        assert reduced[0][0] == 1 and reduced[1][1] == 1

    def test_solve_unique(self):
        rows = [
            [scalar("1"), scalar("1")],
            [scalar("1"), scalar("-1")],
            [scalar("2"), scalar("0")],
        ]
        rhs = [scalar("4"), scalar("0"), scalar("4")]
        sol = solve_unique(rows, [rhs])[0]
        assert sol == [CycloNum.from_rational(2, 12), CycloNum.from_rational(2, 12)]

    def test_inconsistent(self):
        rows = [[scalar("1"), scalar("1")], [scalar("2"), scalar("2")]]
        rhs = [scalar("1"), scalar("3")]
        with pytest.raises(InconsistentSystem):
            solve_unique(rows, [rhs])

    def test_underdetermined(self):
        rows = [[scalar("1"), scalar("1")]]
        rhs = [scalar("1")]
        with pytest.raises(UnderdeterminedSystem):
            solve_unique(rows, [rhs])

    def test_solve_with_cyclotomic_coefficients(self):
        i = scalar("zeta^3")
        rows = [[scalar("1"), i], [i, scalar("1")]]
        rhs = [scalar("1 + zeta^3"), scalar("1 + zeta^3")]
        sol = solve_unique(rows, [rhs])[0]
        assert sol[0] + i * sol[1] == rhs[0]
        assert i * sol[0] + sol[1] == rhs[1]

    def test_one_solution_per_right_hand_side(self):
        rows = [
            [scalar("1"), scalar("1")],
            [scalar("1"), scalar("-1")],
            [scalar("2"), scalar("0")],
        ]
        rhs = [
            [scalar("4"), scalar("0"), scalar("4")],
            [scalar("0"), scalar("2"), scalar("2")],
            [scalar("zeta"), scalar("zeta"), scalar("2*zeta")],
        ]
        sols = solve_unique(rows, rhs)
        assert sols == [
            [scalar("2"), scalar("2")],
            [scalar("1"), scalar("-1")],
            [scalar("zeta"), scalar("0")],
        ]
        assert solve_unique(rows, []) == []

    def test_any_inconsistent_column_raises(self):
        rows = [
            [scalar("1"), scalar("0")],
            [scalar("0"), scalar("1")],
            [scalar("1"), scalar("1")],
        ]
        good = [scalar("1"), scalar("2"), scalar("3")]
        bad = [scalar("1"), scalar("2"), scalar("4")]
        assert solve_unique(rows, [good, good]) == [[scalar("1"), scalar("2")]] * 2
        with pytest.raises(InconsistentSystem):
            solve_unique(rows, [good, bad])
        with pytest.raises(InconsistentSystem):
            solve_unique(rows, [bad, good])

    def test_underdetermined_with_several_columns(self):
        rows = [[scalar("1"), scalar("1")]]
        with pytest.raises(UnderdeterminedSystem):
            solve_unique(rows, [[scalar("1")], [scalar("2")]])


# the catalog groups on their own invariants, the rank-3 groups on Reynolds
# invariants
JACOBIAN_GROUPS = [*catalog_names(), "G(2,1,3)", "G(3,3,3)"]


def _group_and_jacobian(name):
    group, _, jd, *_ = pipeline(name) if name in catalog_names() else derived_pipeline(name)
    return group, jd


class TestOneExpansion:
    @pytest.mark.parametrize("name", JACOBIAN_GROUPS)
    def test_jacobian_det_read_off_adjugate(self, name):
        _, jd = _group_and_jacobian(name)
        assert jd.det == det(jd.jac)

    @pytest.mark.parametrize("name", JACOBIAN_GROUPS)
    def test_polynomial_times_scalar_matches_running_sum(self, name):
        group, jd = _group_and_jacobian(name)
        n = len(jd.jac)
        for gen in group.generators():
            expected = tuple(
                tuple(
                    sum((jd.jac[i][t] * gen[t][j] for t in range(1, n)), jd.jac[i][0] * gen[0][j])
                    for j in range(n)
                )
                for i in range(n)
            )
            assert mat_mul(jd.jac, gen) == expected
