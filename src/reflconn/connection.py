"""The differential core: Jacobian data, coordinate derivations, and the
connection matrices of the invariant-coordinate differential system.

All x-space computation is polynomial.  With D = det(J) and adj the
adjugate, the coordinate derivations are delta_l = sum_i (adj_il / D) d/dx_i,
and the l-th connection matrix is

    A_l = delta_l(J) J^{-1} = P_l / D^m,
    P_l = D^{m-2} * (sum_i adj_il * dJ/dx_i) * adj,

where m is the smallest multiple of the determinant-character order with
m >= 2, so that every entry of P_l and D^m is an invariant homogeneous
polynomial and can be rewritten in the invariant coordinates z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonInvariantEntry, SingularJacobian
from .groups import GroupData
from .invariants import InvariantTuple
from .linalg import adjugate, det, mat_mul
from .poly import MPoly, RatFun
from .rewrite import Rewriter
from .verify import CheckResult, check_determinant_character, check_equivariance


@dataclass(frozen=True)
class JacobianData:
    jac: tuple[tuple[MPoly, ...], ...]  # row i = gradient of phi_i
    adj: tuple[tuple[MPoly, ...], ...]
    det: MPoly
    m: int
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class ScaledConnection:
    """Polynomial numerator matrices P_l and the common denominator D^m.

    checks holds the group checks run while building it.
    """

    numerators: tuple[tuple[tuple[MPoly, ...], ...], ...]
    det_power: MPoly
    m: int
    checks: tuple[CheckResult, ...]


@dataclass(frozen=True)
class ConnectionSystem:
    """The z-space system: matrices A_l with a shared polynomial denominator."""

    matrices: tuple[tuple[tuple[RatFun, ...], ...], ...]  # reduced display form
    numerators: tuple[tuple[tuple[MPoly, ...], ...], ...]  # over `denominator`
    denominator: MPoly
    invariants_used: InvariantTuple
    m: int

    @property
    def rank(self) -> int:
        return len(self.matrices)


def scaling_exponent(det_char_order: int) -> int:
    """Smallest multiple of the determinant-character order that is >= 2."""
    return max(2, det_char_order)


def jacobian(phi: InvariantTuple, det_char_order: int = 1) -> JacobianData:
    n = len(phi.phis)
    jac = tuple(
        tuple(p.partial(j + 1) for j in range(n)) for p in phi.phis
    )
    d = det(jac)
    if not d:
        raise SingularJacobian("invariants are algebraically dependent")
    adj = adjugate(jac)
    return JacobianData(
        jac=jac,
        adj=adj,
        det=d,
        m=scaling_exponent(det_char_order),
        degrees=phi.degrees,
    )


def delta_apply(ell: int, f: MPoly, jd: JacobianData) -> RatFun:
    """The derivation dual to the ell-th invariant coordinate, applied to f."""
    n = len(jd.jac)
    if not 1 <= ell <= n:
        raise ValueError(f"derivation index {ell} out of range 1..{n}")
    num = MPoly.sum_of_products([(1, jd.adj[i][ell - 1], f.partial(i + 1)) for i in range(n)])
    return RatFun(num, jd.det)


def scaled_connection(jd: JacobianData, group: GroupData) -> ScaledConnection:
    """Numerator matrices P_l with common denominator D^m, fully polynomial.

    Every entry is checked to be homogeneous of the predicted degree.  The
    Jacobian equivariance and determinant-character checks of `verify` run
    once here; together they imply that every entry of P_l and D^m is
    invariant.  Their results are kept on the returned ScaledConnection,
    and a failure raises NonInvariantEntry.
    """
    n = len(jd.jac)
    checks = tuple(
        check_equivariance(jd, group).checks
        + check_determinant_character(jd, group).checks
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
    scale = jd.det ** (jd.m - 2)
    det_power = jd.det ** jd.m
    degs = jd.degrees
    refl_count = sum(dd - 1 for dd in degs)
    numerators = []
    for ell in range(n):
        # D^{m-2} * (sum_i adj_{i,ell} * dJ/dx_i) * adj
        acc = [
            [
                MPoly.sum_of_products([(1, jd.adj[i][ell], d_partials[i][r][c]) for i in range(n)])
                for c in range(n)
            ]
            for r in range(n)
        ]
        p = tuple(tuple(e * scale for e in row) for row in mat_mul(acc, jd.adj))
        for r in range(n):
            for c in range(n):
                entry = p[r][c]
                if entry.is_zero():
                    continue
                if not entry.is_homogeneous():
                    raise NonInvariantEntry(
                        f"entry ({r + 1},{c + 1}) of P_{ell + 1} is not homogeneous"
                    )
                expected = (
                    degs[r]
                    - 2
                    + (refl_count - (degs[ell] - 1))
                    + (refl_count - (degs[c] - 1))
                    + (jd.m - 2) * refl_count
                )
                if entry.total_degree() != expected:
                    raise NonInvariantEntry(
                        f"entry ({r + 1},{c + 1}) of P_{ell + 1} has degree "
                        f"{entry.total_degree()}, expected {expected}"
                    )
        numerators.append(p)
    return ScaledConnection(
        numerators=tuple(numerators), det_power=det_power, m=jd.m, checks=checks
    )


def connection_in_x(sc: ScaledConnection) -> tuple[tuple[tuple[RatFun, ...], ...], ...]:
    """The x-space matrices delta_l(J) J^{-1} = P_l / D^m as rational functions."""
    return tuple(
        tuple(tuple(RatFun(e, sc.det_power) for e in row) for row in p)
        for p in sc.numerators
    )


def connection_in_z(sc: ScaledConnection, phi: InvariantTuple) -> ConnectionSystem:
    """Rewrite numerators and denominator into z and assemble the system."""
    rewriter = Rewriter(phi)
    q = rewriter.rewrite(sc.det_power)
    n = len(sc.numerators)
    numerators = []
    matrices = []
    for p in sc.numerators:
        num_rows = []
        mat_rows = []
        for row in p:
            nrow = []
            mrow = []
            for entry in row:
                ez = rewriter.rewrite(entry)
                nrow.append(ez)
                mrow.append(RatFun(ez, q).reduced())
            num_rows.append(tuple(nrow))
            mat_rows.append(tuple(mrow))
        numerators.append(tuple(num_rows))
        matrices.append(tuple(mat_rows))
    return ConnectionSystem(
        matrices=tuple(matrices),
        numerators=tuple(numerators),
        denominator=q,
        invariants_used=phi,
        m=sc.m,
    )


def build_system(group: GroupData, phi: InvariantTuple) -> ConnectionSystem:
    """Full pipeline from a validated group and invariants to the z-system."""
    jd = jacobian(phi, det_char_order=group.det_char_order)
    sc = scaled_connection(jd, group=group)
    return connection_in_z(sc, phi)
