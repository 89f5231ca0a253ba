"""Jacobian data, coordinate derivations, and the connection matrices."""

import dataclasses
import functools
import pathlib
from math import prod

import pytest

from reflconn.connection import (
    build_system,
    connection_in_x,
    connection_in_z,
    delta_apply,
    jacobian,
    scaled_connection,
)
from reflconn.errors import NonHomogeneousInput, NonInvariantEntry, SingularJacobian
from reflconn.groups import group_from_spec, hyperplanes, load_group_spec
from reflconn.invariants import InvariantTuple, fundamental_invariants
from reflconn.poly import MPoly, RatFun
from reflconn.rewrite import Rewriter

from conftest import catalog, derived_pipeline, pipeline, px, pz, sign_group


# deg Delta = sum_H e_H, on catalog invariants for the first five groups
# and Reynolds invariants for the rest
DELTA_DEGREE = {
    "G(2,1,2)": 8, "G4": 12, "G5": 24, "G6": 24, "G7": 36,
    "G(2,1,3)": 18, "G(3,3,3)": 18, "G(4,1,2)": 16, "G(3,1,3)": 27,
}


CATALOG = ("G(2,1,2)", "G4", "G5", "G6", "G7")


def any_pipeline(name):
    return pipeline(name) if name in CATALOG else derived_pipeline(name)


class TestScalingExponent:
    """The determinant-character order m does not scale the system: the
    denominator is Delta = D^2 / E, of degree sum_H e_H, whatever m is."""

    @pytest.mark.parametrize("name,m", zip(CATALOG, (2, 3, 3, 6, 6)))
    def test_catalog_scaling(self, name, m):
        group, _, _, sc, _ = pipeline(name)
        assert group.det_char_order == m
        assert sc.discriminant.total_degree() == DELTA_DEGREE[name]


class TestDiscriminant:
    @pytest.mark.parametrize("name", sorted(DELTA_DEGREE))
    def test_omega_over_delta_is_the_connection(self, name):
        # delta_l(J) J^-1 entrywise: each delta_l(J_rt) is N_rt / D with one
        # monic denominator, and J^-1 = adj / D
        _, _, jd, sc, _ = any_pipeline(name)
        n = len(jd.jac)
        for ell in range(n):
            deltas = [[delta_apply(ell + 1, e, jd) for e in row] for row in jd.jac]
            den = deltas[0][0].den * jd.det
            for r in range(n):
                for c in range(n):
                    num = MPoly.sum_of_products(
                        [(1, deltas[r][t].num, jd.adj[t][c]) for t in range(n)]
                    )
                    omega = RatFun(sc.numerators[ell][r][c], sc.discriminant)
                    assert omega == RatFun(num, den)

    @pytest.mark.parametrize("name", sorted(DELTA_DEGREE))
    def test_degree_is_the_sum_of_hyperplane_orders(self, name):
        group, _, _, sc, _ = any_pipeline(name)
        orders = [e for _, e in hyperplanes(group)]
        assert sc.discriminant.total_degree() == sum(orders) == DELTA_DEGREE[name]
        assert sum(e - 1 for e in orders) == len(group.reflection_indices)

    @pytest.mark.parametrize("name", sorted(DELTA_DEGREE))
    def test_delta_is_d_squared_exactly_when_every_order_is_two(self, name):
        group, _, jd, sc, _ = any_pipeline(name)
        every_two = all(e == 2 for _, e in hyperplanes(group))
        assert (sc.discriminant == jd.det * jd.det) == every_two


class TestJacobian:
    def test_dihedral_golden(self):
        _, inv = catalog("G(2,1,2)")
        jd = jacobian(inv, det_char_order=2)
        assert jd.jac[0][0] == px("2*x1")
        assert jd.jac[0][1] == px("2*x2")
        assert jd.jac[1][0] == px("2*x1*x2^2")
        assert jd.jac[1][1] == px("2*x1^2*x2")
        assert jd.det == px("4*x1^3*x2 - 4*x1*x2^3")

    def test_adjugate_identity(self):
        _, _, jd, _, _ = pipeline("G4")
        n = len(jd.jac)
        for i in range(n):
            for j in range(n):
                acc = jd.jac[i][0] * jd.adj[0][j]
                for t in range(1, n):
                    acc = acc + jd.jac[i][t] * jd.adj[t][j]
                assert acc == (jd.det if i == j else 0)

    def test_dependent_invariants_rejected(self):
        inv = InvariantTuple(
            phis=(px("x1^2"), px("x1^4")), degrees=(2, 4), source="catalog"
        )
        with pytest.raises(SingularJacobian):
            jacobian(inv)

    def test_non_homogeneous_invariant_rejected(self):
        # x1^2*x2^2 is homogeneous, but of degree 4, not the stated 6
        with pytest.raises(NonHomogeneousInput, match="invariant 2 "):
            jacobian(InvariantTuple(
                phis=(px("x1^2 + x2^2"), px("x1^2*x2^2")), degrees=(2, 6), source="catalog"
            ))

    def test_fewer_invariants_than_variables_rejected(self):
        # two invariants in x1..x3 would give a 2x2 Jacobian, whose nonzero
        # determinant -8*x1^3*x2 + 8*x1*x2^3 certifies nothing
        inv = InvariantTuple(
            phis=(px("x1^2 + x2^2 + x3^2", nvars=3), px("x1^4 + x2^4 + x3^4", nvars=3)),
            degrees=(2, 4), source="catalog",
        )
        with pytest.raises(ValueError, match="2 invariants in 3 variables"):
            jacobian(inv)

    def test_det_degree_is_reflection_count(self):
        for name in ("G(2,1,2)", "G4", "G5", "G6", "G7"):
            group, _, jd, _, _ = pipeline(name)
            assert jd.det.total_degree() == len(group.reflection_indices)


class TestDelta:
    def test_dual_to_invariants(self):
        # delta_l(phi_k) = Kronecker delta, the defining property
        for name in ("G(2,1,2)", "G4"):
            _, inv, jd, _, _ = pipeline(name)
            n = len(inv.phis)
            for ell in range(1, n + 1):
                for k in range(n):
                    val = delta_apply(ell, inv.phis[k], jd)
                    expected = 1 if k == ell - 1 else 0
                    assert val == RatFun(px(str(expected)))

    def test_index_range(self):
        _, _, jd, _, _ = pipeline("G(2,1,2)")
        with pytest.raises(ValueError):
            delta_apply(0, px("x1"), jd)
        with pytest.raises(ValueError):
            delta_apply(3, px("x1"), jd)

    def test_leibniz_rule(self):
        _, inv, jd, _, _ = pipeline("G(2,1,2)")
        f, g = px("x1^2 + x2^2"), px("x1^2*x2^2")
        lhs = delta_apply(1, f * g, jd)
        rhs = delta_apply(1, f, jd) * RatFun(g) + RatFun(f) * delta_apply(1, g, jd)
        assert lhs == rhs


class TestScaledConnection:
    @pytest.mark.parametrize("name", CATALOG + ("G(3,1,3)",))
    def test_entries_homogeneous_of_predicted_degree(self, name):
        _, inv, _, sc, _ = any_pipeline(name)
        n, degs = len(inv.phis), inv.degrees
        delta_degree = sc.discriminant.total_degree()
        for ell in range(n):
            for r in range(n):
                for c in range(n):
                    e = sc.numerators[ell][r][c]
                    if e.is_zero():
                        continue
                    expected = degs[r] - degs[ell] - degs[c] + delta_degree
                    assert e.is_homogeneous()
                    assert e.total_degree() == expected

    def test_x_space_matches_delta_oracle(self):
        # A_l entries computed independently via delta_apply on J's entries
        group, inv, jd, sc, _ = pipeline("G(2,1,2)")
        n = 2
        mats = connection_in_x(sc)
        from reflconn.linalg import adjugate

        for ell in range(1, n + 1):
            # delta_l(J) * J^{-1} = delta_l(J) * adj / det
            dj = [[delta_apply(ell, jd.jac[r][c], jd) for c in range(n)] for r in range(n)]
            for r in range(n):
                for c in range(n):
                    acc = dj[r][0] * RatFun(jd.adj[0][c], jd.det)
                    for t in range(1, n):
                        acc = acc + dj[r][t] * RatFun(jd.adj[t][c], jd.det)
                    assert mats[ell - 1][r][c] == acc

    def test_non_invariant_input_flagged(self):
        group, _ = catalog("G(2,1,2)")
        bogus = InvariantTuple(
            phis=(px("x1^2"), px("x2^4")), degrees=(2, 4), source="catalog"
        )
        jd = jacobian(bogus, det_char_order=group.det_char_order)
        with pytest.raises(NonInvariantEntry):
            scaled_connection(jd, group=group)


class TestConnectionSystem:
    def test_rank_and_shape(self):
        _, _, _, _, cs = pipeline("G(2,1,2)")
        assert cs.rank == 2
        assert len(cs.matrices) == 2
        assert all(len(m) == 2 and len(m[0]) == 2 for m in cs.matrices)

    def test_numerators_over_common_denominator(self):
        _, _, _, _, cs = pipeline("G4")
        for ell in range(2):
            for r in range(2):
                for c in range(2):
                    assert cs.matrices[ell][r][c] == RatFun(
                        cs.numerators[ell][r][c], cs.denominator
                    )

    def test_denominator_is_discriminant_rewritten(self):
        _, inv, jd, sc, cs = pipeline("G(2,1,2)")
        assert cs.denominator.compose(list(inv.phis)) == sc.discriminant

    def test_rank_one_system(self):
        group, inv = sign_group()
        cs = build_system(group, inv)
        assert cs.rank == 1
        expected = RatFun(
            pz("1", nvars=1), pz("2*z1", nvars=1)
        )
        assert cs.matrices[0][0][0] == expected

    def test_dihedral_denominator(self):
        _, _, _, _, cs = pipeline("G(2,1,2)")
        # det(J)^2 = 16 x1^2 x2^2 (x1^2 - x2^2)^2 rewrites to 16 z2 (z1^2 - 4 z2)
        assert cs.denominator == pz("16*z1^2*z2 - 64*z2^2")


class TestGroupGate:
    def test_non_invariant_g4_input_names_check_and_witness(self):
        group, inv = catalog("G4")
        bogus = InvariantTuple(
            phis=(inv.phis[0], px("x1^6 + x2^6")), degrees=(4, 6), source="catalog"
        )
        jd = jacobian(bogus, det_char_order=group.det_char_order)
        with pytest.raises(NonInvariantEntry) as info:
            scaled_connection(jd, group=group)
        message = str(info.value)
        assert "jacobian_equivariance[gen 0]" in message
        assert "witness: generator 0, entry (2,1)" in message

    def test_group_checks_kept_only_when_a_group_is_given(self):
        group, _, jd, sc, _ = pipeline("G4")
        assert sc.checks and all(c.passed for c in sc.checks)


DATA = pathlib.Path(__file__).parent / "data"
DATA_SPECS = (
    "a2_root_basis", "b3_root_basis", "cyclic70", "g2_1_2_zeta5", "g2_1_2_zeta5_sheared",
    "g70_70_2",
)
HALF_BUILT = CATALOG + ("G(2,1,3)", "G(3,3,3)") + DATA_SPECS


@functools.lru_cache(maxsize=None)
def half_built(name):
    """(group, phi, jd, sc) of a catalog group, a rank-3 group or a
    tests/data spec, the last on its Reynolds invariants."""
    if name in DATA_SPECS:
        group = group_from_spec(load_group_spec(DATA / f"{name}.json"))
        phi = fundamental_invariants(group)
        jd = jacobian(phi)
        return group, phi, jd, scaled_connection(jd, group=group)
    return any_pipeline(name)[:4]


def _reference_numerators(jd, group):
    """Omega_l built in full: all n^2 entries of acc_l * adj, each divided
    by E = prod_H alpha_H^(e_H - 2), with no use of the torsion symmetry."""
    n = len(jd.jac)
    excess = prod(
        (alpha ** (e - 2) for alpha, e in hyperplanes(group)),
        start=MPoly.constant(1, "x", n, group.conductor),
    )
    mats = []
    for ell in range(n):
        acc = [
            [
                MPoly.sum_of_products(
                    [(1, jd.adj[i][ell], jd.jac[r][t].partial(i + 1)) for i in range(n)]
                )
                for t in range(n)
            ]
            for r in range(n)
        ]
        mats.append(tuple(
            tuple(
                MPoly.sum_of_products([(1, acc[r][t], jd.adj[t][c]) for t in range(n)])
                .exact_div(excess)
                for c in range(n)
            )
            for r in range(n)
        ))
    return tuple(mats)


class TestHalfBuild:
    """scaled_connection forms the columns c >= l of each Omega_l and takes
    the others from the torsion symmetry Omega_l[r][c] = Omega_c[r][l]."""

    @pytest.mark.parametrize("name", HALF_BUILT)
    def test_equals_the_full_build(self, name):
        group, _, jd, sc = half_built(name)
        reference = _reference_numerators(jd, group)
        n = len(jd.jac)
        for ell in range(n):
            for r in range(n):
                for c in range(n):
                    assert sc.numerators[ell][r][c] == reference[ell][r][c], (ell, r, c)

    @pytest.mark.parametrize("name", HALF_BUILT)
    def test_mirrored_entries_are_one_object(self, name):
        _, phi, _, sc = half_built(name)
        cs = connection_in_z(sc, phi)
        n = len(sc.numerators)
        for mats in (sc.numerators, cs.numerators, cs.matrices):
            for ell in range(n):
                for r in range(n):
                    for c in range(ell):
                        assert mats[ell][r][c] is mats[c][r][ell]

    @pytest.mark.parametrize("name", ("G(2,1,2)", "G4", "G(2,1,3)", "G(3,3,3)", "cyclic70"))
    def test_each_distinct_entry_rewritten_once(self, name, monkeypatch):
        _, phi, _, sc = half_built(name)
        calls = []
        rewrite = Rewriter.rewrite

        def counted(self, f):
            calls.append(f)
            return rewrite(self, f)

        monkeypatch.setattr(Rewriter, "rewrite", counted)
        connection_in_z(sc, phi)
        n = len(sc.numerators)
        assert len(calls) == n * n * (n + 1) // 2 + 1
        assert calls[0] is sc.discriminant

    @pytest.mark.parametrize("name,forge", [
        ("G4", lambda jac: (tuple(e * 2 for e in jac[0]), jac[1])),
        ("G4", lambda jac: (jac[0], tuple(e * 2 for e in jac[1]))),
        ("G(2,1,3)", lambda jac: (jac[1], jac[0], jac[2])),
    ], ids=["row 1 doubled", "row 2 doubled", "rows 1 and 2 swapped"])
    def test_non_gradient_rows_refused(self, name, forge):
        group, _, jd, _ = half_built(name)
        with pytest.raises(ValueError, match="not the gradients"):
            scaled_connection(dataclasses.replace(jd, jac=forge(jd.jac)), group=group)
