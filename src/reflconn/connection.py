"""The differential core: Jacobian data, coordinate derivations, and the
connection matrices of the invariant-coordinate differential system.

All x-space computation is polynomial.  With D = det(J) and adj the
adjugate, the coordinate derivations are delta_l = sum_i (adj_il / D) d/dx_i,
and the l-th connection matrix is

    A_l = delta_l(J) J^{-1} = R_l / D^2,
    R_l = (sum_i adj_il * dJ/dx_i) * adj.

Each reflecting hyperplane H, the zero set of a linear form alpha_H, is
fixed pointwise by a cyclic group of order e_H, and D is a constant times
prod_H alpha_H^(e_H - 1).  A_l has at most a logarithmic pole along the
discriminant Delta = prod_H alpha_H^(e_H), up to a constant (K. Saito,
logarithmic vector fields; Orlik-Terao, Arrangements of Hyperplanes,
ch. 6), so with E = prod_H alpha_H^(e_H - 2)

    A_l = Omega_l / Delta,   Delta = D^2 / E,   Omega_l = R_l / E,

two exact divisions, skipped when every e_H = 2 (then E = 1).  Delta and
every entry of Omega_l are invariant polynomials and are rewritten in the
invariant coordinates z.  The invariants phi_k are homogeneous of degrees
d_k, so each entry's degree is fixed: entry (r,c) of Omega_l is homogeneous
of degree deg Delta + d_r - d_l - d_c.

The connection is torsion-free.  Differentiating J * J^{-1} = I along z_l
gives (A_l)_rs = -sum_j (dz_r/dx_j) * d^2 x_j / dz_l dz_s, which is
symmetric in l and s, so

    Omega_l[r][s] = Omega_s[r][l].

scaled_connection therefore forms only the columns c >= l of R_l, n(n+1)/2
of the n^2 column products, and takes entry (r,c) with c < l to be the same
object as Omega_c[r][l].  The identity is one about a Jacobian, so it
refuses JacobianData whose rows are not the gradients of its invariants.
connection_in_z rewrites each distinct entry once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod

from .errors import NonInvariantEntry, SingularJacobian
from .groups import GroupData, hyperplanes
from .invariants import InvariantTuple
from .linalg import adjugate, mat_mul
from .poly import MPoly, PowerTable, RatFun
from .rewrite import Rewriter
from .verify import CheckResult, check_determinant_character, check_equivariance


@dataclass(frozen=True)
class JacobianData:
    jac: tuple[tuple[MPoly, ...], ...]  # row i = gradient of phis[i]
    adj: tuple[tuple[MPoly, ...], ...]
    det: MPoly
    phis: tuple[MPoly, ...]  # the invariants differentiated, for the group checks

    @cached_property
    def gradient_rows(self) -> tuple[bool, ...]:
        """Whether each row r of jac is grad phis[r] exactly, for the
        gradient check of scaled_connection and the group checks of
        verify; the gradients are taken once per object."""
        return tuple(row == self.phis[r].gradient() for r, row in enumerate(self.jac))


@dataclass(frozen=True)
class ScaledConnection:
    """Polynomial numerator matrices Omega_l and the discriminant Delta.

    checks holds the group checks run while building it, and tables the
    group's generator tables they ran through, with the image of every
    polynomial substituted, for full_report to share.
    """

    numerators: tuple[tuple[tuple[MPoly, ...], ...], ...]
    discriminant: MPoly
    checks: tuple[CheckResult, ...]
    tables: tuple[PowerTable, ...] = field(compare=False, repr=False)


@dataclass(frozen=True)
class ConnectionSystem:
    """The z-space system: matrices A_l with a shared polynomial denominator."""

    matrices: tuple[tuple[tuple[RatFun, ...], ...], ...]  # reduced display form
    numerators: tuple[tuple[tuple[MPoly, ...], ...], ...]  # over `denominator`
    denominator: MPoly
    invariants_used: InvariantTuple

    @property
    def rank(self) -> int:
        return len(self.matrices)


def jacobian(phi: InvariantTuple, det_char_order: int = 1) -> JacobianData:
    """The Jacobian of the invariants, its adjugate and determinant.

    There must be one invariant per variable, else ValueError.  D is read
    off the adjugate's first column, D = (J * adj)[0][0], so one Laplace
    expansion serves both.  det_char_order is accepted and unused:
    no power of D depends on it.
    """
    n = len(phi.phis)
    if phi.phis[0].nvars != n:
        raise ValueError(f"{n} invariants in {phi.phis[0].nvars} variables")
    jac = tuple(p.gradient() for p in phi.phis)
    adj = adjugate(jac)
    d = MPoly.sum_of_products([(1, x, adj[j][0]) for j, x in enumerate(jac[0])])
    if not d:
        raise SingularJacobian("invariants are algebraically dependent")
    return JacobianData(jac=jac, adj=adj, det=d, phis=phi.phis)


def delta_apply(ell: int, f: MPoly, jd: JacobianData) -> RatFun:
    """The derivation dual to the ell-th invariant coordinate, applied to f."""
    n = len(jd.jac)
    if not 1 <= ell <= n:
        raise ValueError(f"derivation index {ell} out of range 1..{n}")
    num = MPoly.sum_of_products([(1, jd.adj[i][ell - 1], f.partial(i + 1)) for i in range(n)])
    return RatFun(num, jd.det)


def _excess(group: GroupData) -> MPoly | None:
    """E = prod_H alpha_H^(e_H - 2), or None when every e_H = 2, so that
    E = 1."""
    factors = [alpha ** (e - 2) for alpha, e in hyperplanes(group) if e > 2]
    return prod(factors) if factors else None


def scaled_connection(jd: JacobianData, group: GroupData) -> ScaledConnection:
    """Numerator matrices Omega_l over the discriminant Delta, fully polynomial.

    Each row of jd.jac must be the gradient of the invariant in jd.phis it
    came from, else ValueError: the torsion symmetry that halves the build
    (module docstring) holds for a Jacobian only.

    The Jacobian equivariance and determinant-character checks of `verify` run
    once here; together they imply that D^2 and every entry of R_l are
    relatively invariant, and the rewrite of Delta and Omega_l into z checks
    their invariance exactly.  The check results are kept on the returned
    ScaledConnection, and a failure raises NonInvariantEntry.  Both checks
    share one power table per generator, which certifies each Jacobian row
    by substituting its invariant once and remembers the image; the tables
    are kept on the ScaledConnection, so that full_report's invariance check
    reads those images instead of substituting again.
    """
    n = len(jd.jac)
    if len(jd.phis) != n or not all(jd.gradient_rows):
        raise ValueError("the Jacobian rows are not the gradients of its invariants")
    tables = group.generator_tables()
    checks = tuple(
        check_equivariance(jd, group, tables).checks
        + check_determinant_character(jd, group, tables).checks
    )
    failed = next((c for c in checks if not c.passed), None)
    if failed is not None:
        raise NonInvariantEntry(
            f"check {failed.name} failed, witness: {failed.witness}"
        )
    d_partials = [
        tuple(tuple(jd.jac[i][j].partial(k + 1) for j in range(n)) for i in range(n))
        for k in range(n)
    ]
    excess = _excess(group)
    discriminant = jd.det * jd.det
    if excess is not None:
        discriminant = discriminant.exact_div(excess)
    numerators = []
    for ell in range(n):
        # R_l = (sum_i adj_{i,ell} * dJ/dx_i) * adj, then Omega_l = R_l / E,
        # formed on the columns c >= ell; column c < ell is Omega_c's column ell
        acc = [
            [
                MPoly.sum_of_products([(1, jd.adj[i][ell], d_partials[i][r][c]) for i in range(n)])
                for c in range(n)
            ]
            for r in range(n)
        ]
        half = mat_mul(acc, tuple(row[ell:] for row in jd.adj))
        if excess is not None:
            half = tuple(tuple(e.exact_div(excess) for e in row) for row in half)
        numerators.append(tuple(
            tuple(numerators[c][r][ell] for c in range(ell)) + row
            for r, row in enumerate(half)
        ))
    return ScaledConnection(
        numerators=tuple(numerators), discriminant=discriminant, checks=checks,
        tables=tables,
    )


def connection_in_x(sc: ScaledConnection) -> tuple[tuple[tuple[RatFun, ...], ...], ...]:
    """The x-space matrices delta_l(J) J^{-1} = Omega_l / Delta as rational functions."""
    return tuple(
        tuple(tuple(RatFun(e, sc.discriminant) for e in row) for row in p)
        for p in sc.numerators
    )


def connection_in_z(sc: ScaledConnection, phi: InvariantTuple) -> ConnectionSystem:
    """Rewrite Delta and the numerators Omega_l into z and assemble the system.

    Each distinct entry object is rewritten and reduced once, so a mirrored
    entry of Omega_l stays one object in z.  The display form of an entry
    is its numerator over q made monic, with q's leading coefficient
    inverted once.
    """
    rewriter = Rewriter(phi)
    q = rewriter.rewrite(sc.discriminant)
    q_inv = q.leading_coefficient().inverse()
    q_monic = q * q_inv
    in_z = {}  # id of an x-entry -> (its z-numerator, its display form)

    def entry_in_z(entry):
        done = in_z.get(id(entry))
        if done is None:
            ez = rewriter.rewrite(entry)
            done = in_z[id(entry)] = ez, RatFun(ez * q_inv, q_monic).reduced()
        return done

    pairs = [[[entry_in_z(e) for e in row] for row in p] for p in sc.numerators]
    return ConnectionSystem(
        matrices=tuple(tuple(tuple(m for _, m in row) for row in p) for p in pairs),
        numerators=tuple(tuple(tuple(ez for ez, _ in row) for row in p) for p in pairs),
        denominator=q,
        invariants_used=phi,
    )


def build_system(group: GroupData, phi: InvariantTuple) -> ConnectionSystem:
    """Full pipeline from a validated group and invariants to the z-system."""
    jd = jacobian(phi)
    sc = scaled_connection(jd, group=group)
    return connection_in_z(sc, phi)
