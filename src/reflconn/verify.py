"""Exact checkers for the identities the pipeline relies on.

Every check is a polynomial identity over Q(zeta_N); a pass is a
proof-grade certificate, with no tolerances anywhere.  Checking only the
group generators suffices for (equi)variance because the action is a
group action.

The group checks run through the invariants that jacobian differentiated
(JacobianData.phis).  Row r of J is certified when it is grad phi_r
exactly and a generator M fixes phi_r: the chain rule then gives
gamma_M(row) = row * M, and when every row is certified and D == det J,
gamma_M(D) = det(M) * D (Kane, Reflection Groups and Invariant Theory,
section 18).  So each generator substitutes each phi_r once, through one
PowerTable per generator that remembers every image and that
scaled_connection keeps on the ScaledConnection for full_report's
invariance check.  A row or a D that is not certified is substituted as
it stands, so every verdict and witness is that of plain substitution,
for forged JacobianData too.

Each check is one witness function, recorded and timed by
VerificationReport.check: it returns "" for a pass and otherwise the text
that names where the identity fails, so a check fails exactly when it
names a witness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cache
from operator import ne
from typing import TYPE_CHECKING

from .cyclo import CycloNum
from .errors import DenominatorMismatch
from .groups import GroupData
from .invariants import InvariantTuple, is_invariant
from .linalg import det, mat_mul
from .poly import MPoly, RatFun
from .rewrite import Rewriter

if TYPE_CHECKING:
    from .connection import ConnectionSystem, JacobianData, ScaledConnection


@dataclass(frozen=True)
class CheckResult:
    name: str
    witness: str = ""
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.witness


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def check(self, name: str, witness_of) -> None:
        """Time witness_of(), which returns "" for a pass and the witness
        text otherwise, and record the result under name."""
        t0 = time.perf_counter()
        witness = witness_of()
        self.checks.append(CheckResult(name, witness, time.perf_counter() - t0))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name} ({c.seconds:.3f}s)"
            if c.witness:
                line += f"  witness: {c.witness}"
            lines.append(line)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "witness": c.witness,
                    "seconds": round(c.seconds, 6),
                }
                for c in self.checks
            ],
        }


def _first_mismatch(lhs, rhs, differ=ne) -> str:
    """'entry (r,c)' for the first pair of entries a, b of two matrices for
    which differ(a, b) is true, by default a != b; else ''.

    Rows and entries may be generators, so nothing past a mismatch is built.
    """
    for r, (row_l, row_r) in enumerate(zip(lhs, rhs)):
        for c, (a, b) in enumerate(zip(row_l, row_r)):
            if differ(a, b):
                return f"entry ({r + 1},{c + 1})"
    return ""


# gamma_M(f) == f for every generator M; one predicate under both names
check_invariance = is_invariant


def _certified(jd: JacobianData, r: int, table) -> bool:
    """Whether row r of J maps to row * M under the table's generator M
    without being substituted: it does when the row is grad phi_r exactly
    (jd.gradient_rows, taken once per JacobianData) and M fixes phi_r, by
    the chain rule."""
    p = jd.phis[r]
    return jd.gradient_rows[r] and table.image(p) == p


def check_equivariance(jd: JacobianData, group: GroupData, tables=None) -> VerificationReport:
    """gamma_M(J) == J * M entrywise for every generator.

    A row that _certified passes is not substituted, so for J = d(phi)
    only phi_r, of degree d_r, is; every other row is substituted entry by
    entry.  The witness is the first entry that differs, in row-major order.

    tables, one PowerTable per generator (GroupData.generator_tables),
    remember every image, and may be shared with the other group checks of
    the same system; by default the check makes its own.
    """
    report = VerificationReport()
    if tables is None:
        tables = group.generator_tables()
    for gi, (gen, table) in enumerate(zip(group.generators(), tables)):
        def witness():
            for r, row in enumerate(jd.jac):
                if _certified(jd, r, table):
                    continue
                for c, (e, target) in enumerate(zip(row, mat_mul((row,), gen)[0])):
                    if table.image(e) != target:
                        return f"generator {gi}, entry ({r + 1},{c + 1})"
            return ""

        report.check(f"jacobian_equivariance[gen {gi}]", witness)
    return report


def check_determinant_character(
    jd: JacobianData, group: GroupData, tables=None
) -> VerificationReport:
    """gamma_M(D) == det(M) * D for every generator.

    When _certified passes every row of J for the generator and D == det J,
    tested once by one Laplace det, gamma_M(D) = det(J * M) = det(M) * D
    with nothing more substituted; through tables shared with
    check_equivariance, the rows' invariants are already substituted.
    Otherwise D itself, of degree the reflection count, is substituted and
    compared.  tables is as for check_equivariance.
    """
    report = VerificationReport()
    if tables is None:
        tables = group.generator_tables()
    det_is_det_j = cache(lambda: jd.det == det(jd.jac))
    for gi, (gen, table) in enumerate(zip(group.generators(), tables)):
        def witness():
            if all(_certified(jd, r, table) for r in range(len(jd.jac))) and det_is_det_j():
                return ""
            return "" if jd.det.substitute_linear(table) == jd.det * det(gen) else (
                f"generator {gi}"
            )

        report.check(f"det_relative_invariance[gen {gi}]", witness)
    return report


def check_integrability(cs: ConnectionSystem) -> VerificationReport:
    """The cleared-denominator commuting identity for each pair of matrices.

    With A_l = P_l / q the identity d_i(A_j) - d_j(A_i) = A_i A_j - A_j A_i
    clears to  q*d_i(P_j) - q*d_j(P_i) - P_j*d_i(q) + P_i*d_j(q)
             - (P_i P_j - P_j P_i) = 0,  checked exactly, with no division.
    Each entry (r, c) of that difference is one sum of products
    (MPoly.sum_of_products), tested for zero in row-major order; the first
    nonzero entry is the witness.  The partials of q are taken once.
    """
    report = VerificationReport()
    q = cs.denominator
    n = cs.rank
    for p in cs.numerators:
        for row in p:
            for entry in row:
                if entry.alphabet != q.alphabet or entry.conductor != q.conductor:
                    raise DenominatorMismatch("numerators do not share q's space")
    dq = q.gradient()
    for i in range(n):
        for j in range(i + 1, n):
            def witness():
                pi, pj = cs.numerators[i], cs.numerators[j]
                where = next(
                    (
                        f"entry ({r + 1},{c + 1})"
                        for r in range(n)
                        for c in range(n)
                        if MPoly.sum_of_products([
                            (1, q, pj[r][c].partial(i + 1)),
                            (-1, q, pi[r][c].partial(j + 1)),
                            (-1, pj[r][c], dq[i]),
                            (1, pi[r][c], dq[j]),
                            *((-1, pi[r][t], pj[t][c]) for t in range(n)),
                            *((1, pj[r][t], pi[t][c]) for t in range(n)),
                        ])
                    ),
                    "",
                )
                return where and f"pair ({i + 1},{j + 1}), {where}"

            report.check(f"integrability[{i + 1},{j + 1}]", witness)
    return report


def check_rank_one(cs: ConnectionSystem) -> VerificationReport:
    """The closed form of a rank-1 system, which has no pair to integrate.

    Its invariant is c * x1^d, so J = c*d*x1^(d-1) and
    A_1 = J'/J^2 = (d - 1)/(d * z1), with d the stored invariant's degree.
    """
    report = VerificationReport()
    d = cs.invariants_used.degrees[0]
    z1 = MPoly.variable(1, "z", 1, cs.denominator.conductor)

    def witness():
        if d < 1:
            return f"invariant of degree {d}"
        closed = RatFun(MPoly.constant(d - 1, "z", 1, z1.conductor), z1 * d)
        return "" if cs.matrices[0][0][0] == closed else f"A_1 is not {closed}"

    report.check("closed_form[A_1]", witness)
    return report


def check_torsion_free(cs: ConnectionSystem) -> VerificationReport:
    """Omega_l[r][c] == Omega_c[r][l], the torsion symmetry of a connection
    built from a Jacobian (connection module docstring), for each pair
    l < c of matrices, compared on the numerators over the common
    denominator.  The witness is the first entry (l, r, c) that differs.
    """
    report = VerificationReport()
    num = cs.numerators
    n = cs.rank
    for ell in range(n):
        for c in range(ell + 1, n):
            def witness():
                r = next((r for r in range(n) if num[ell][r][c] != num[c][r][ell]), None)
                return "" if r is None else f"entry ({ell + 1},{r + 1},{c + 1})"

            report.check(f"torsion_free[{ell + 1},{c + 1}]", witness)
    return report


def cross_validate(
    cs: ConnectionSystem, sc: ScaledConnection, phi: InvariantTuple
) -> VerificationReport:
    """Substitute z := phi(x) into the z-form and compare with the x-form.

    q(phi) == Delta is checked once, within the time of A_1, then for each
    entry the numerator composed with phi against Omega_l as polynomials,
    and the reduced display entry m against numerator e over q in z, by
    cross-multiplication, m.num * q - e * m.den == 0, with no inverse taken.
    Composition with algebraically independent phi is injective, so this
    ties the numerators that check_integrability certifies, and the display
    form, to Omega_l / Delta.
    Every substitution is Rewriter.compose on a Rewriter made here, so the
    products phi^e are built once per call and none is taken from the
    rewrite that produced cs.  Each distinct numerator object is composed
    once per call, so a mirrored entry is composed once and compared twice.
    """
    report = VerificationReport()
    rewriter = Rewriter(phi)
    q = cs.denominator
    den_ok = cache(lambda: rewriter.compose(q) == sc.discriminant)
    composed_of = {}  # id of a z-numerator -> its composition with phi

    def composed(e):
        x = composed_of.get(id(e))
        if x is None:
            x = composed_of[id(e)] = rewriter.compose(e)
        return x

    def off_quotient(m, e):
        # nonzero exactly when the display entry m is not e / q
        return MPoly.sum_of_products([(1, m.num, q), (-1, e, m.den)])

    for ell in range(cs.rank):
        def witness():
            num = cs.numerators[ell]
            where = "denominator"
            if den_ok():
                where = _first_mismatch(cs.matrices[ell], num, off_quotient) or _first_mismatch(
                    (map(composed, row) for row in num), sc.numerators[ell]
                )
            return where and f"A_{ell + 1} {where}"

        report.check(f"cross_validation[A_{ell + 1}]", witness)
    return report


def full_report(
    group: GroupData,
    phi: InvariantTuple,
    jd: JacobianData,
    sc: ScaledConnection,
    cs: ConnectionSystem,
) -> VerificationReport:
    """All checks for a freshly computed system, in one report.

    The equivariance and determinant-character results are the ones that
    scaled_connection(jd, group) ran and kept on sc, and the invariance of
    the phi goes through the generator tables it kept there (sc.tables),
    which already hold the image of every phi_r whose gradient is its
    Jacobian row, so an honest system substitutes nothing here.

    Together they certify that the differential Galois group over C(z) is
    G.  Y = J solves the system (cross-validation ties it to
    A_l = delta_l(J) J^-1), and Euler's identity J x = (d_i z_i)_i puts x in
    the field that J generates over C(z), so the Picard-Vessiot field is
    C(x) and its Galois group is G exactly when C(x)^G = C(z), that is, when
    the phi generate the invariants of the reflection group G.  For
    invariant, homogeneous phi with det J != 0, which jacobian requires,
    that holds iff the degrees multiply to |G| (Kane, Reflection Groups and
    Invariant Theory, section 18): the check degree_product_equals_order.
    The check reflection_count ties the degrees to the group and to J once
    more: sum(d_i - 1) is the number of reflections of G (same reference)
    and the degree of det J.  The check euler_identity is Euler's identity
    itself, sum_j x_j J_ij = d_i phi_i for each i, which ties J to the
    invariants and their degrees.
    """
    if not sc.checks:
        raise ValueError("sc carries no group checks; build it with scaled_connection")
    report = VerificationReport(list(sc.checks))
    for sub in (check_integrability(cs), cross_validate(cs, sc, phi)):
        report.checks.extend(sub.checks)
    report.check("invariants_fixed_by_generators", lambda: next(
        (
            f"invariant {k + 1}"
            for k, p in enumerate(phi.phis)
            if not check_invariance(p, group, sc.tables)
        ),
        "",
    ))
    prod = math.prod(phi.degrees)
    report.check("degree_product_equals_order", lambda: "" if prod == group.order else (
        f"degree product {prod}, |G| = {group.order}"
    ))
    degree_sum = sum(d - 1 for d in phi.degrees)
    reflections, det_degree = len(group.reflection_indices), jd.det.total_degree()
    report.check("reflection_count", lambda: "" if reflections == det_degree == degree_sum else (
        f"sum of d_i - 1 = {degree_sum}, {reflections} reflections, "
        f"deg det J = {det_degree}"
    ))

    def euler_identity():
        model = phi.phis[0]
        xs = [
            MPoly.variable(j + 1, model.alphabet, model.nvars, model.conductor)
            for j in range(model.nvars)
        ]
        one = CycloNum.one(model.conductor)
        return next(
            (
                f"invariant {i + 1}"
                for i, (row, p, d) in enumerate(zip(jd.jac, phi.phis, phi.degrees))
                if MPoly.sum_of_products([(1, x, e) for x, e in zip(xs, row)] + [(-d, one, p)])
            ),
            "",
        )

    report.check("euler_identity", euler_identity)
    return report
