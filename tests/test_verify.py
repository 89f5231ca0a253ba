"""The exact verifiers, including mutation (failure-injection) coverage."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflconn import poly
from reflconn.connection import build_system, jacobian, scaled_connection
from reflconn.cyclo import CycloNum
from reflconn.errors import DenominatorMismatch
from reflconn.invariants import InvariantTuple, catalog_names, fundamental_invariants
from reflconn.linalg import det, mat_mul, mat_sub
from reflconn.poly import MPoly
from reflconn.render import render_json, system_from_dict
from reflconn.rewrite import Rewriter
from reflconn.verify import (
    VerificationReport,
    check_determinant_character,
    check_equivariance,
    check_integrability,
    check_invariance,
    check_rank_one,
    check_torsion_free,
    cross_validate,
    full_report,
)

from conftest import catalog, derived_pipeline, pipeline, px, pz, rank3_group, sign_group


def _flip_sign(matrices, ell, r, c):
    """Copy of a tuple-of-matrices with one entry negated."""
    return tuple(
        tuple(
            tuple(
                -e if (i, rr, cc) == (ell, r, c) else e
                for cc, e in enumerate(row)
            )
            for rr, row in enumerate(mat)
        )
        for i, mat in enumerate(matrices)
    )


class TestHonestSystems:
    @pytest.mark.parametrize("name", ["G(2,1,2)", "G4"])
    def test_full_report_passes(self, name):
        group, inv, jd, sc, cs = pipeline(name)
        report = full_report(group, inv, jd, sc, cs)
        assert report.all_passed
        assert report.failures() == []
        names = [c.name for c in report.checks]
        assert any(n.startswith("integrability") for n in names)
        assert any(n.startswith("jacobian_equivariance") for n in names)
        assert any(n.startswith("cross_validation") for n in names)

    def test_invariance_checker(self):
        group, inv = catalog("G(2,1,2)")
        assert check_invariance(inv.phis[0], group)
        assert not check_invariance(px("x1^2 - x2^2"), group)

    def test_report_rendering(self):
        _, _, _, _, cs = pipeline("G(2,1,2)")
        report = check_integrability(cs)
        text = report.render()
        assert "[PASS] integrability[1,2]" in text
        d = report.to_dict()
        assert d["all_passed"] is True
        assert d["checks"][0]["name"] == "integrability[1,2]"


class TestMutationDetection:
    def test_equivariance_flags_mutated_jacobian(self):
        group, inv, jd, _, _ = pipeline("G(2,1,2)")
        bad_jac = tuple(
            tuple(
                px("3*x1") if (r, c) == (0, 0) else e
                for c, e in enumerate(row)
            )
            for r, row in enumerate(jd.jac)
        )
        bad = dataclasses.replace(jd, jac=bad_jac)
        report = check_equivariance(bad, group)
        assert not report.all_passed
        assert any("entry (1,1)" in f.witness for f in report.failures())

    def test_determinant_character_flags_mutation(self):
        group, inv, jd, _, _ = pipeline("G(2,1,2)")
        bad = dataclasses.replace(jd, det=jd.det + px("x1^4"))
        report = check_determinant_character(bad, group)
        assert not report.all_passed

    def test_integrability_flags_sign_flip(self):
        _, _, _, _, cs = pipeline("G(2,1,2)")
        bad = dataclasses.replace(
            cs, numerators=_flip_sign(cs.numerators, 0, 0, 1)
        )
        report = check_integrability(bad)
        assert not report.all_passed
        failure = report.failures()[0]
        assert "pair (1,2)" in failure.witness
        assert "entry" in failure.witness

    def test_cross_validation_flags_sign_flip(self):
        _, inv, _, sc, cs = pipeline("G(2,1,2)")
        bad = dataclasses.replace(cs, matrices=_flip_sign(cs.matrices, 1, 0, 0))
        report = cross_validate(bad, sc, inv)
        assert not report.all_passed
        assert "A_2 entry (1,1)" in report.failures()[0].witness

    def test_rank_one_closed_form_flags_sign_flip(self):
        # the sign group's invariant x1^2 gives A_1 = 1/(2*z1)
        cs = build_system(*sign_group())
        report = check_rank_one(cs)
        assert [c.name for c in report.checks] == ["closed_form[A_1]"]
        assert report.all_passed
        bad = dataclasses.replace(cs, matrices=_flip_sign(cs.matrices, 0, 0, 0))
        assert check_rank_one(bad).failures()[0].witness.startswith("A_1 ")

    def test_cross_validation_reads_the_numerators(self):
        # the display form is left honest; only the certified numerators move
        _, inv, _, sc, cs = pipeline("G(2,1,2)")
        assert cs.numerators[0][1][0]
        bad = dataclasses.replace(cs, numerators=_flip_sign(cs.numerators, 0, 1, 0))
        report = cross_validate(bad, sc, inv)
        assert [c.passed for c in report.checks] == [False, True]
        assert report.failures()[0].witness == "A_1 entry (2,1)"

    def test_cross_validation_flags_wrong_denominator(self):
        _, inv, _, sc, cs = pipeline("G(2,1,2)")
        bad = dataclasses.replace(cs, denominator=cs.denominator * 2)
        report = cross_validate(bad, sc, inv)
        assert [c.witness for c in report.failures()] == [
            "A_1 denominator", "A_2 denominator"
        ]

    def test_cross_validation_makes_no_mpoly_compose_call(self, monkeypatch):
        _, inv, _, sc, cs = pipeline("G4")
        calls = []
        original = MPoly.compose

        def counting(self, args):
            calls.append(self)
            return original(self, args)

        monkeypatch.setattr(MPoly, "compose", counting)
        assert cross_validate(cs, sc, inv).all_passed
        assert calls == []

    @pytest.mark.parametrize("name", ["G4", "G(3,3,3)"])
    def test_cross_validation_composes_each_distinct_numerator_once(self, name, monkeypatch):
        # the mirrored entries Omega_l[r][c] and Omega_c[r][l] are one object
        _, inv, _, sc, cs = _any_pipeline(name)
        calls = []
        original = Rewriter.compose

        def counting(self, g):
            calls.append(g)
            return original(self, g)

        monkeypatch.setattr(Rewriter, "compose", counting)
        assert cross_validate(cs, sc, inv).all_passed
        n = cs.rank
        assert len(calls) == n * n * (n + 1) // 2 + 1
        assert calls[0] is cs.denominator

    @pytest.mark.parametrize("name", ["G4", "G7"])
    def test_cross_validation_inverts_nothing(self, name, monkeypatch):
        # each display entry is compared with its numerator over q by
        # cross-multiplication, with no monic denominator made
        _, inv, _, sc, cs = pipeline(name)
        calls = []
        original = CycloNum.inverse

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(CycloNum, "inverse", counting)
        assert cross_validate(cs, sc, inv).all_passed
        assert calls == []

    def test_denominator_space_mismatch(self):
        _, _, _, sc, cs = pipeline("G(2,1,2)")
        bad = dataclasses.replace(cs, numerators=sc.numerators)  # x-space!
        with pytest.raises(DenominatorMismatch):
            check_integrability(bad)


def _double(matrices, ell, r, c):
    """Copy of a tuple-of-matrices with one entry doubled."""
    return tuple(
        tuple(
            tuple(e * 2 if (i, rr, cc) == (ell, r, c) else e for cc, e in enumerate(row))
            for rr, row in enumerate(mat)
        )
        for i, mat in enumerate(matrices)
    )


def _any_pipeline(name):
    """(group, phi, jd, sc, cs) of a catalog group, or of a rank-3 group on
    its Reynolds invariants."""
    return derived_pipeline(name) if name in ("G(2,1,3)", "G(3,3,3)") else pipeline(name)


class TestTorsionSymmetry:
    @pytest.mark.parametrize("name", ["G(2,1,2)", "G4", "G5", "G6", "G7", "G(2,1,3)", "G(3,3,3)"])
    def test_honest_systems_pass_one_check_per_pair(self, name):
        cs = _any_pipeline(name)[4]
        report = check_torsion_free(cs)
        n = cs.rank
        assert [c.name for c in report.checks] == [
            f"torsion_free[{ell + 1},{c + 1}]" for ell in range(n) for c in range(ell + 1, n)
        ]
        assert report.all_passed

    def test_rank_one_has_no_pair(self):
        assert check_torsion_free(build_system(*sign_group())).checks == []

    @pytest.mark.parametrize("name,where,pair,witness", [
        ("G4", (1, 0, 0), "torsion_free[1,2]", "entry (1,1,2)"),
        ("G4", (0, 1, 1), "torsion_free[1,2]", "entry (1,2,2)"),
        ("G(3,3,3)", (2, 1, 0), "torsion_free[1,3]", "entry (1,2,3)"),
        ("G(3,3,3)", (1, 2, 2), "torsion_free[2,3]", "entry (2,3,3)"),
    ])
    def test_doubled_entry_is_the_witness(self, name, where, pair, witness):
        cs = _any_pipeline(name)[4]
        assert cs.numerators[where[0]][where[1]][where[2]]
        bad = dataclasses.replace(cs, numerators=_double(cs.numerators, *where))
        [failure] = check_torsion_free(bad).failures()
        assert (failure.name, failure.witness) == (pair, witness)


def _reference_integrability(cs):
    """(name, passed, witness) per pair (i, j), from the whole matrices:
    q*d_i(P_j) - q*d_j(P_i) - P_j*d_i(q) + P_i*d_j(q) against
    P_i P_j - P_j P_i, then the first differing entry in row-major order."""
    q, n = cs.denominator, cs.rank

    def partial(p, k):
        return tuple(tuple(e.partial(k) for e in row) for row in p)

    def scale(p, s):
        return tuple(tuple(e * s for e in row) for row in p)

    out = []
    for i in range(n):
        for j in range(i + 1, n):
            pi, pj = cs.numerators[i], cs.numerators[j]
            lhs = mat_sub(
                mat_sub(scale(partial(pj, i + 1), q), scale(partial(pi, j + 1), q)),
                mat_sub(scale(pj, q.partial(i + 1)), scale(pi, q.partial(j + 1))),
            )
            rhs = mat_sub(mat_mul(pi, pj), mat_mul(pj, pi))
            where = next(
                (f"entry ({r + 1},{c + 1})" for r in range(n) for c in range(n)
                 if lhs[r][c] != rhs[r][c]),
                "",
            )
            witness = f"pair ({i + 1},{j + 1}), {where}" if where else ""
            out.append((f"integrability[{i + 1},{j + 1}]", not where, witness))
    return out


class TestIntegrabilityWitnesses:
    @pytest.mark.parametrize("name", ["G4", "G(3,3,3)"])
    def test_each_negated_entry_matches_the_matrix_check(self, name):
        if name == "G4":
            cs = pipeline(name)[4]
        else:
            group = rank3_group(name)
            cs = build_system(group, fundamental_invariants(group))
        flagged = 0
        for ell, mat in enumerate(cs.numerators):
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    if not entry:
                        continue
                    bad = dataclasses.replace(
                        cs, numerators=_flip_sign(cs.numerators, ell, r, c)
                    )
                    got = [(k.name, k.passed, k.witness) for k in check_integrability(bad).checks]
                    assert got == _reference_integrability(bad)
                    flagged += not all(passed for _, passed, _ in got)
        assert flagged


class TestIntegerFormsPerCheck:
    def test_stored_system_puts_each_polynomial_over_its_denominator_once(self, monkeypatch):
        # the stored G(2,1,3) system: 85 distinct polynomials enter the
        # integrability products, which once made 540 normalisations
        group, _, _, _, cs = derived_pipeline("G(2,1,3)")
        stored = system_from_dict(json.loads(render_json(cs, "G(2,1,3)", group.conductor)))
        built = []
        make = poly.integer_form

        def counting(terms):
            built.append(None)
            return make(terms)

        monkeypatch.setattr(poly, "integer_form", counting)
        assert check_integrability(stored).all_passed
        assert len(built) == 85
        # a second check keeps the numerators' forms and builds only those
        # of its fresh partials and gradient of q
        built.clear()
        assert check_integrability(stored).all_passed
        assert len(built) == 57


class TestEachGradientOnce:
    @pytest.mark.parametrize("name", ["G4", "G7"])
    def test_partials_per_scaled_connection(self, name, monkeypatch):
        # n^2 for the gradients of the invariants, taken once for the
        # gradient check and every group check, and n^3 for dJ/dx_k
        group, phi = catalog(name)
        jd = jacobian(phi)
        calls = []
        original = MPoly.partial

        def counting(self, index):
            calls.append(index)
            return original(self, index)

        monkeypatch.setattr(MPoly, "partial", counting)
        sc = scaled_connection(jd, group)
        n = len(jd.jac)
        assert sc.checks and all(c.passed for c in sc.checks)
        assert len(calls) == n * n + n ** 3
        calls.clear()
        assert check_equivariance(jd, group).all_passed
        assert check_determinant_character(jd, group).all_passed
        assert calls == []


def _reference_group_checks(jd, group):
    """(name, passed, witness) of every equivariance and then every
    determinant-character check, by plain substitution: each entry of J and
    D goes through f(x * M^-T) with the action made afresh from M, and the
    witness is the first differing entry of J in row-major order."""
    n = len(jd.jac)
    out = []
    for gi, gen in enumerate(group.generators()):
        lhs = [[e.substitute_linear(gen) for e in row] for row in jd.jac]
        rhs = mat_mul(jd.jac, gen)
        where = next(
            (f"entry ({r + 1},{c + 1})" for r in range(n) for c in range(n)
             if lhs[r][c] != rhs[r][c]),
            "",
        )
        out.append((f"jacobian_equivariance[gen {gi}]", not where,
                    f"generator {gi}, {where}" if where else ""))
    for gi, gen in enumerate(group.generators()):
        passed = jd.det.substitute_linear(gen) == jd.det * det(gen)
        out.append((f"det_relative_invariance[gen {gi}]", passed,
                    "" if passed else f"generator {gi}"))
    return out


def _group_checks(jd, group, tables):
    checks = check_equivariance(jd, group, tables).checks
    checks += check_determinant_character(jd, group, tables).checks
    return [(c.name, c.passed, c.witness) for c in checks]


GROUP_CHECK_SYSTEMS = ("G4", "G7", "G(3,3,3)")


def _group_check_system(name):
    group, _, jd, _, _ = pipeline(name) if name in catalog_names() else derived_pipeline(name)
    return group, jd


@st.composite
def forged_jacobians(draw):
    """A system's JacobianData with one Jacobian entry, D, or both changed
    to a * f + b * x_k^e: a scaled entry is no longer a gradient, a power
    x_c^m added in column c of a row of degree m keeps a gradient but of a
    non-invariant, and e = m + 1 leaves the row inhomogeneous."""
    name = draw(st.sampled_from(GROUP_CHECK_SYSTEMS))
    group, jd = _group_check_system(name)
    n = len(jd.jac)

    def mutate(f):
        a = draw(st.sampled_from([1, 1, -1, 2, 0]))
        b = draw(st.sampled_from([0, 1, -3]))
        k = draw(st.integers(1, n))
        e = f.total_degree() + draw(st.integers(0, 1))
        return f * a + MPoly.variable(k, "x", n, f.conductor) ** max(e, 0) * b

    what = draw(st.sampled_from(["entry", "det", "both"]))
    jac, d = jd.jac, jd.det
    if what != "det":
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        jac = tuple(
            tuple(mutate(e) if (rr, cc) == (r, c) else e for cc, e in enumerate(row))
            for rr, row in enumerate(jac)
        )
    if what != "entry":
        d = mutate(d)
    return group, dataclasses.replace(jd, jac=jac, det=d)


class TestGroupChecksAgainstPlainSubstitution:
    @pytest.mark.parametrize("name", GROUP_CHECK_SYSTEMS)
    def test_honest_systems(self, name):
        group, jd = _group_check_system(name)
        expected = _reference_group_checks(jd, group)
        assert all(passed for _, passed, _ in expected)
        assert _group_checks(jd, group, group.generator_tables()) == expected

    @settings(max_examples=40, deadline=None)
    @given(forged_jacobians())
    def test_forged_jacobian_data(self, case):
        group, jd = case
        expected = _reference_group_checks(jd, group)
        # with tables shared by both checks, as scaled_connection runs them,
        # and with each check making its own
        assert _group_checks(jd, group, group.generator_tables()) == expected
        assert _group_checks(jd, group, None) == expected

    @pytest.mark.parametrize("name", GROUP_CHECK_SYSTEMS)
    def test_twice_det_j_passes_by_substituting_d(self, name, monkeypatch):
        # 2 * det J is relatively invariant but is not det J, so no row
        # certifies it and D itself is substituted, once per generator
        group, jd = _group_check_system(name)
        forged = dataclasses.replace(jd, det=jd.det * 2)
        substituted = []
        original = MPoly.substitute_linear

        def recording(self, action):
            substituted.append(self)
            return original(self, action)

        monkeypatch.setattr(MPoly, "substitute_linear", recording)
        report = check_determinant_character(forged, group)
        monkeypatch.undo()
        assert report.all_passed
        assert substituted.count(forged.det) == len(group.generator_indices)
        assert _group_checks(forged, group, None) == _reference_group_checks(forged, group)

    @pytest.mark.parametrize("name", GROUP_CHECK_SYSTEMS)
    def test_det_plus_x1_power_fails(self, name):
        group, jd = _group_check_system(name)
        x1 = MPoly.variable(1, "x", len(jd.jac), jd.det.conductor)
        forged = dataclasses.replace(jd, det=jd.det + x1 ** 4)
        got = _group_checks(forged, group, group.generator_tables())
        assert got == _reference_group_checks(forged, group)
        assert not all(passed for _, passed, _ in got)


def _gradient_forgeries(jd):
    """(label, forged row index, JacobianData) whose Jacobian is still a
    gradient of invariants, but not of jd.phis: rows 1 and 2 swapped, and
    each row r times 2 or times -1, the gradient of 2 * phi_r or -phi_r."""
    jac = jd.jac
    yield "swap", 0, dataclasses.replace(jd, jac=(jac[1], jac[0], *jac[2:]))
    for r in range(len(jac)):
        for scale in (2, -1):
            rows = tuple(
                tuple(e * scale for e in row) if i == r else row for i, row in enumerate(jac)
            )
            yield f"row {r + 1} times {scale}", r, dataclasses.replace(jd, jac=rows)


class TestGradientsOfOtherInvariants:
    """Rows that are gradients of invariants other than the phi that
    jacobian differentiated are not certified: they, and D, are substituted
    as they stand, and every verdict and witness is plain substitution's."""

    def test_jacobian_keeps_its_invariants(self):
        _, phi, jd, _, _ = pipeline("G4")
        assert jacobian(phi).phis == phi.phis
        assert dataclasses.replace(jd, jac=jd.jac[::-1]).phis == jd.phis

    @pytest.mark.parametrize("name", GROUP_CHECK_SYSTEMS)
    def test_forged_rows_are_substituted(self, name, monkeypatch):
        group, jd = _group_check_system(name)
        original = MPoly.substitute_linear
        for label, r, forged in _gradient_forgeries(jd):
            expected = _reference_group_checks(forged, group)
            # every row is still equivariant and D relatively invariant
            assert all(passed for _, passed, _ in expected), label
            for tables in (group.generator_tables(), None):
                substituted = []

                def recording(self, action):
                    substituted.append(self)
                    return original(self, action)

                monkeypatch.setattr(MPoly, "substitute_linear", recording)
                got = _group_checks(forged, group, tables)
                monkeypatch.undo()
                assert got == expected, label
                assert all(e in substituted for e in forged.jac[r] if e), label
                assert forged.det in substituted, label


class TestEulerIdentity:
    def test_mutated_jacobian_entry_names_its_invariant(self):
        group, inv, jd, sc, cs = pipeline("G4")
        bad_jac = tuple(
            tuple(e * 2 if (r, c) == (1, 0) else e for c, e in enumerate(row))
            for r, row in enumerate(jd.jac)
        )
        bad = dataclasses.replace(jd, jac=bad_jac)
        report = full_report(group, inv, bad, sc, cs)
        assert [(c.name, c.witness) for c in report.failures()] == [
            ("euler_identity", "invariant 2"),
        ]


class TestReport:
    def test_empty_report_passes(self):
        assert VerificationReport().all_passed

    def test_witness_preserved(self):
        r = VerificationReport()
        r.check("demo", lambda: "entry (2,2)")
        assert not r.all_passed
        assert r.failures()[0].witness == "entry (2,2)"
        assert "witness: entry (2,2)" in r.render()
        assert "[FAIL] demo" in r.render()


G4_REPORT_NAMES = [
    "jacobian_equivariance[gen 0]",
    "jacobian_equivariance[gen 1]",
    "det_relative_invariance[gen 0]",
    "det_relative_invariance[gen 1]",
    "integrability[1,2]",
    "cross_validation[A_1]",
    "cross_validation[A_2]",
    "invariants_fixed_by_generators",
    "degree_product_equals_order",
    "reflection_count",
    "euler_identity",
]


class TestReportOrder:
    def test_full_report_reuses_scaled_connection_checks(self):
        group, inv, jd, sc, cs = pipeline("G4")
        report = full_report(group, inv, jd, sc, cs)
        assert [c.name for c in report.checks] == G4_REPORT_NAMES
        assert report.checks[:4] == list(sc.checks)
        assert report.all_passed

    def test_reflection_count_flags_a_missing_reflection(self):
        group, inv, jd, sc, cs = pipeline("G4")
        short = dataclasses.replace(
            group, reflection_indices=group.reflection_indices[:-1]
        )
        report = full_report(short, inv, jd, sc, cs)
        assert [(c.name, c.witness) for c in report.failures()] == [
            ("reflection_count", "sum of d_i - 1 = 8, 7 reflections, deg det J = 8"),
        ]

    def test_non_invariant_phi_names_its_index(self):
        group, inv, jd, sc, cs = pipeline("G4")
        bogus = InvariantTuple(
            phis=(inv.phis[0], px("x1^6 + x2^6")), degrees=(4, 6), source="catalog"
        )
        report = full_report(group, bogus, jd, sc, cs)
        assert [(c.name, c.witness) for c in report.failures()] == [
            ("cross_validation[A_1]", "A_1 denominator"),
            ("cross_validation[A_2]", "A_2 denominator"),
            ("invariants_fixed_by_generators", "invariant 2"),
            ("euler_identity", "invariant 2"),
        ]

    @pytest.mark.parametrize(
        "name", ["G(2,1,2)", "G4", "G5", "G6", "G7", "G(2,1,3)", "G(3,3,3)"]
    )
    def test_every_check_of_an_honest_system_has_an_empty_witness(self, name):
        group, inv, jd, sc, cs = (
            pipeline(name) if name in catalog_names() else derived_pipeline(name)
        )
        checks = full_report(group, inv, jd, sc, cs).checks
        assert [c.witness for c in checks] == [""] * len(checks)

    def test_full_report_refuses_scaled_connection_without_checks(self):
        group, inv, jd, sc, cs = pipeline("G4")
        with pytest.raises(ValueError):
            full_report(group, inv, jd, dataclasses.replace(sc, checks=()), cs)
