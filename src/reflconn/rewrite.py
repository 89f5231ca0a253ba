"""Rewriting invariant homogeneous polynomials in the invariant coordinates.

Given fundamental invariants phi_1..phi_n of degrees d_1..d_n and an
invariant homogeneous f(x) of degree D, enumerate the exponent vectors e
with sum e_i d_i = D, expand the products prod phi_i^{e_i}, and solve the
exact linear system matching coefficients of x-monomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotInvariant
from .invariants import InvariantTuple
from .linalg import (
    InconsistentSystem,
    UnderdeterminedSystem,
    solve_unique,
)
from .poly import MPoly, grlex_key, require_homogeneous


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
    members: list[tuple[int, ...]] = []

    def rec(prefix, remaining):
        i = len(prefix)
        if i == len(degrees) - 1:
            q, r = divmod(remaining, degrees[i])
            if r == 0:
                members.append(tuple(prefix + [q]))
            return
        d = degrees[i]
        for e in range(remaining // d + 1):
            rec(prefix + [e], remaining - e * d)

    rec([], target)
    members.sort()
    return ExponentSet(target=target, degrees=degrees, members=tuple(members))


class Rewriter:
    """Rewriting engine bound to one invariant tuple; memoizes products."""

    def __init__(self, phi: InvariantTuple):
        self.phi = phi
        model = phi.phis[0]
        self.nvars = model.nvars
        self.conductor = model.conductor
        self._products: dict[tuple[int, ...], MPoly] = {}

    def product(self, exps: tuple[int, ...]) -> MPoly:
        hit = self._products.get(exps)
        if hit is not None:
            return hit
        acc = MPoly.constant(1, "x", self.nvars, self.conductor)
        for p, e in zip(self.phi.phis, exps):
            if e:
                acc = acc * p ** e
        self._products[exps] = acc
        return acc

    def rewrite(self, f: MPoly) -> MPoly:
        """The unique z-polynomial g with g(phi) = f; NotInvariant if none."""
        if f.alphabet != "x":
            raise ValueError("rewrite expects an x-space polynomial")
        if f.is_zero():
            return MPoly.zero("z", self.nvars, self.conductor)
        degree = require_homogeneous(f)
        eset = exponent_set(degree, self.phi.degrees)
        if not eset.members:
            raise NotInvariant(
                f"degree {degree} is not a nonnegative combination of {self.phi.degrees}"
            )
        products = [self.product(e) for e in eset.members]
        monomials = set(f.terms)
        for p in products:
            monomials.update(p.terms)
        monomials = sorted(monomials, key=grlex_key, reverse=True)
        rows = [[p.coefficient(m) for p in products] for m in monomials]
        rhs = [f.coefficient(m) for m in monomials]
        try:
            coeffs = solve_unique(rows, rhs)
        except InconsistentSystem:
            raise NotInvariant(
                "polynomial is not in the subring generated by the invariants"
            ) from None
        except UnderdeterminedSystem:
            raise AssertionError(
                "rewriting system lost full column rank; invariants are dependent"
            ) from None
        terms = {e: c for e, c in zip(eset.members, coeffs) if c}
        return MPoly("z", self.nvars, self.conductor, terms)
