"""Rewriting invariant homogeneous polynomials in the invariant coordinates.

Given fundamental invariants phi_1..phi_n of degrees d_1..d_n and an
invariant homogeneous f(x) of degree D, f = sum c_e phi^e over the exponent
vectors e with sum e_i d_i = D.  The linear algebra is done once per degree
and cached: the products phi^e (each missing one phi_i times phi^(e - u_i),
phi_i the last invariant in e's support), |E| pivot monomials found by
reducing the products against each other by leading monomial, and the
inverse of the pivot block (the products' coefficients at the pivots), one
z-polynomial per pivot.
Rewriting f then reads g as the sum of those z-polynomials weighted by f's
pivot coefficients, in one accumulation, and checks the residual exactly: if
g(phi) != f for g = sum c_e z^e, f is not in the subring the invariants
generate.  The same products serve the other direction: compose(g) is
g(phi) = sum c_e phi^e, used both for that residual and for substituting
z := phi(x) into a whole system when cross-validating it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndependenceSearchFailed, NotInvariant
from .invariants import InvariantTuple
from .linalg import identity_matrix, solve_unique
from .poly import MPoly, grlex_key, require_homogeneous, top_reduce, weighted_exponents


@dataclass(frozen=True)
class ExponentSet:
    target: int
    degrees: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


def exponent_set(target: int, degrees) -> ExponentSet:
    """All e >= 0 with sum e_i * degrees_i == target, lexicographic order."""
    degrees = tuple(degrees)
    if target < 0 or any(d <= 0 for d in degrees):
        raise ValueError("target must be >= 0 and degrees positive")
    members = tuple(weighted_exponents(target, degrees))
    return ExponentSet(target=target, degrees=degrees, members=members)


@dataclass(frozen=True)
class _DegreeSystem:
    """The cached rewriting data of one degree: the pivot monomials, and
    columns[k], the z-polynomial sum_j c_j z^e_j whose coefficients c_j are
    those of phi^e_j per unit of the pivots[k] coefficient."""

    pivots: tuple[tuple[int, ...], ...]
    columns: tuple[MPoly, ...]


class Rewriter:
    """Rewriting engine bound to one invariant tuple; caches products and
    one pivot system per degree.  nvars counts the x-variables; the
    z-space has one variable per invariant."""

    def __init__(self, phi: InvariantTuple):
        self.phi = phi
        model = phi.phis[0]
        self.nvars = model.nvars
        self.nz = len(phi.phis)
        self.conductor = model.conductor
        one = MPoly.constant(1, "x", self.nvars, self.conductor)
        self._products: dict[tuple[int, ...], MPoly] = {(0,) * self.nz: one}
        self._systems: dict[int, _DegreeSystem] = {}

    def product(self, exps: tuple[int, ...]) -> MPoly:
        """phi^exps, one multiply per missing step: walk down from exps to
        a cached product, taking one off the last invariant in the support
        each step, then multiply back up, caching every step.  Nothing
        recurses."""
        steps = []
        while exps not in self._products:
            i = max(k for k, e in enumerate(exps) if e)
            steps.append((exps, i))
            exps = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        hit = self._products[exps]
        for exps, i in reversed(steps):
            hit = self._products[exps] = hit * self.phi.phis[i]
        return hit

    def _system(self, degree: int) -> _DegreeSystem:
        system = self._systems.get(degree)
        if system is not None:
            return system
        members = exponent_set(degree, self.phi.degrees).members
        if not members:
            raise NotInvariant(
                f"degree {degree} is not a nonnegative combination of {self.phi.degrees}"
            )
        products = tuple(self.product(e) for e in members)
        # top-reduce each product by the earlier ones until its leading
        # monomial is new; the leading monomials are then the pivots
        reduced: dict[tuple[int, ...], MPoly] = {}
        for p in products:
            p = top_reduce(p, reduced)
            if not p:
                raise IndependenceSearchFailed(
                    "rewriting products are linearly dependent; invariants are dependent"
                )
            reduced[p.leading_term()[0]] = p
        pivots = tuple(sorted(reduced, key=grlex_key, reverse=True))
        rows = [[p.coefficient(m) for p in products] for m in pivots]
        units = identity_matrix(len(pivots), self.conductor)
        columns = tuple(
            MPoly("z", self.nz, self.conductor, dict(zip(members, col)))
            for col in solve_unique(rows, units)
        )
        system = self._systems[degree] = _DegreeSystem(pivots, columns)
        return system

    def compose(self, g: MPoly) -> MPoly:
        """g(phi) in x, as sum c_e phi^e over the cached products phi^e,
        in one accumulation."""
        if g.alphabet != "z" or g.nvars != self.nz:
            raise ValueError("compose expects a z-space polynomial, one variable per invariant")
        if not g.terms:
            return MPoly.zero("x", self.nvars, self.conductor)
        return MPoly.sum_of_products([(1, c, self.product(e)) for e, c in g.terms.items()])

    def rewrite(self, f: MPoly) -> MPoly:
        """The unique z-polynomial g with g(phi) = f; NotInvariant if none.

        g = sum_k b_k * columns[k] over the pivots whose coefficient b_k in
        f is nonzero, in one accumulation; the residual check is
        compose(g) == f, exactly."""
        if f.alphabet != "x":
            raise ValueError("rewrite expects an x-space polynomial")
        if f.is_zero():
            return MPoly.zero("z", self.nz, self.conductor)
        system = self._system(require_homogeneous(f))
        hits = [
            (1, b, column)
            for b, column in zip(map(f.terms.get, system.pivots), system.columns)
            if b
        ]
        g = MPoly.sum_of_products(hits) if hits else MPoly.zero("z", self.nz, self.conductor)
        if self.compose(g) != f:
            raise NotInvariant(
                "polynomial is not in the subring generated by the invariants"
            )
        return g
