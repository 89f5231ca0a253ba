"""Invariant theory: Reynolds operator, invariant degrees from the fixed
spaces, fundamental invariants, and the built-in catalog of groups with
known invariants.

Both derivations read what the group keeps: the degrees count the fixed
space dimensions that close_group records for each element, and the
Reynolds operator averages over the cosets of the diagonal subgroup
(GroupData.diagonal_cosets), acting through the kept images of one
representative per coset (GroupData.action).  It keeps the terms that the
diagonal subgroup fixes by a test on integer exponents
(GroupData.diagonal_exponents) and substitutes them through every
representative in one orbit sum, one accumulation for all the images.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from operator import mul

from .cyclo import CycloNum
from .errors import (
    DegreeSearchFailed,
    IndependenceSearchFailed,
    InvalidSpec,
    NonHomogeneousInput,
    UnknownGroup,
    shorten,
)
from .groups import GroupData, group_from_spec
from .linalg import det as mat_det
from .parsing import parse_expr
from .poly import MPoly, grlex_key, top_reduce, weighted_exponents


@dataclass(frozen=True)
class InvariantTuple:
    """Homogeneous, algebraically independent generators of the invariant ring.

    Each phi_k must be homogeneous of its stated degree degrees[k], else
    NonHomogeneousInput names invariant k (counted from 1).
    """

    phis: tuple[MPoly, ...]
    degrees: tuple[int, ...]
    source: str  # "catalog" or "reynolds"

    def __post_init__(self) -> None:
        for k, (p, d) in enumerate(zip(self.phis, self.degrees, strict=True), 1):
            if not p.is_homogeneous() or p.total_degree() != d:
                raise NonHomogeneousInput(f"invariant {k} is not homogeneous of degree {d}")


def reynolds(f: MPoly, group: GroupData) -> MPoly:
    """Average f over the group action; the result is invariant.

    The sum runs over the left cosets tH of the diagonal subgroup H
    (GroupData.diagonal_cosets): sum_g g.f = sum_t t.(sum_h h.f).  A
    diagonal h scales x^a by prod_j h_jj^(-a_j), so sum_h h.x^a is x^a
    times sum_h prod_j h_jj^(a_j) (h -> h^-1 permutes H), a character sum
    that is |H| when every product is 1 and 0 otherwise.  The terms of f
    that H fixes (diagonal_fixed_part) are therefore substituted through
    the kept actions of the representatives t alone, and averaged over
    their number, |G|/|H|; when H fixes no term the average is zero and
    nothing is substituted.

    The cost is that of one orbit sum: one substitute_linear over a fresh
    table per representative, in which each power l_j^e that a fixed term
    needs is expanded once by the multinomial theorem, with no lower power
    built.  The images of every term through every table are summed in one
    accumulation, each output coefficient made canonical once, and scaled
    by |H|/|G| once at the end.
    """
    fixed = diagonal_fixed_part(f, group)
    if not fixed:
        return fixed
    representatives = group.diagonal_cosets[1]
    orbit_sum = fixed.substitute_linear([group.action(t) for t in representatives])
    return orbit_sum * Fraction(1, len(representatives))


def diagonal_fixed_part(f: MPoly, group: GroupData) -> MPoly:
    """The terms of f that every diagonal element h of the group fixes.

    With h_jj = w^(k_j) for the root of unity w of order M
    (GroupData.diagonal_exponents), h fixes x^a iff M divides
    sum_j k_j * a_j, a test on integers alone.
    """
    order, exponents = group.diagonal_exponents
    return MPoly(f.alphabet, f.nvars, f.conductor, {
        e: c for e, c in f.terms.items()
        if all(not sum(map(mul, k, e)) % order for k in exponents)
    })


def is_invariant(f: MPoly, group: GroupData, tables=None) -> bool:
    """Invariance under the generators, which suffices by the action law.

    tables, one PowerTable per generator (GroupData.generator_tables), may
    be shared with other calls, and f is substituted through a table only
    if no call has substituted it there before; by default fresh tables.
    """
    if tables is None:
        tables = group.generator_tables()
    return all(t.image(f) == f for t in tables)


# -- degrees ----------------------------------------------------------------

def invariant_degrees(group: GroupData) -> tuple[int, ...]:
    """Degrees of the fundamental invariants, read off the fixed spaces.

    For a reflection group, sum over g of t^(dim V^g) = prod_i (t + d_i - 1)
    (Shephard-Todd 1954; Solomon 1963), with the dims dim V^g that
    close_group keeps in group.fixed_dims, so no linear algebra is done
    here.  The exponents e_i = d_i - 1 sum to the t^(n-1) coefficient, the
    reflection count, so each is found by synthetic division by t + e for e
    from 0 up to it.  A polynomial that does not split that way raises
    DegreeSearchFailed.
    """
    n = group.rank
    counts = [0] * (n + 1)
    for dim in group.fixed_dims:
        counts[dim] += 1
    coeffs = counts[::-1]  # leading coefficient first
    degrees = []
    for e in range(counts[n - 1] + 1):
        while len(coeffs) > 1:
            quotient = [coeffs[0]]
            for c in coeffs[1:]:
                quotient.append(c - e * quotient[-1])
            if quotient.pop():
                break
            coeffs = quotient
            degrees.append(e + 1)
    if len(degrees) != n:
        raise DegreeSearchFailed(
            f"sum of t^dim V^g has coefficients {counts} (constant term first), "
            "not a product of n factors t + d - 1"
        )
    return tuple(degrees)


def molien_series(group: GroupData, precision: int) -> list[CycloNum]:
    """The Molien series to t^(precision - 1), prod_i 1/(1 - t^d_i) over the
    degrees; for a reflection group the two agree (Chevalley).  precision 0
    gives no coefficient; a negative one raises ValueError."""
    if precision < 0:
        raise ValueError(f"precision must be at least 0, got {precision}")
    series = [1] + [0] * (precision - 1) if precision else []
    for d in invariant_degrees(group):
        for k in range(d, precision):
            series[k] += series[k - d]
    return [CycloNum.from_rational(c, group.conductor) for c in series]


# -- fundamental invariants -------------------------------------------------

def fundamental_invariants(group: GroupData) -> InvariantTuple:
    """Reynolds-derived fundamental invariants, picked degree by degree
    modulo the decomposables.

    At each invariant degree d, in ascending order, the degree-d products of
    the invariants already picked are top-reduced into a span; the Reynolds
    images of the degree-d monomials, in grlex order, are kept while they do
    not top-reduce to zero against it, each adding its remainder, until as
    many are kept as d occurs among the degrees.  A kept invariant is the
    monic Reynolds image itself.  det J != 0 certifies the result.
    """
    degrees = invariant_degrees(group)
    n, conductor = group.rank, group.conductor
    one = CycloNum.one(conductor)
    phis: list[MPoly] = []
    for d in sorted(set(degrees)):
        span: dict[tuple[int, ...], MPoly] = {}
        for e in weighted_exponents(d, degrees[: len(phis)]) if phis else ():
            r = top_reduce(math.prod(phi ** k for phi, k in zip(phis, e) if k), span)
            if not r:
                raise IndependenceSearchFailed(
                    f"products of the invariants below degree {d} are dependent"
                )
            span[r.leading_term()[0]] = r
        need = degrees.count(d)
        kept = []
        for exps in sorted(weighted_exponents(d, (1,) * n), key=grlex_key, reverse=True):
            inv = reynolds(MPoly("x", n, conductor, {exps: one}), group)
            r = top_reduce(inv, span)
            if r:
                span[r.leading_term()[0]] = r
                kept.append(inv * inv.leading_coefficient().inverse())
                if len(kept) == need:
                    break
        else:
            raise DegreeSearchFailed(
                f"Reynolds images give {len(kept)} of the {need} degree-{d} "
                "invariants outside the products of lower ones"
            )
        phis.extend(kept)
    if not mat_det([phi.gradient() for phi in phis]):
        raise IndependenceSearchFailed("the invariants found have a zero Jacobian")
    return InvariantTuple(phis=tuple(phis), degrees=degrees, source="reynolds")


# -- catalog ---------------------------------------------------------------

_CATALOG_FILES = {
    "G(2,1,2)": "G2_1_2.json",
    "G4": "G4.json",
    "G5": "G5.json",
    "G6": "G6.json",
    "G7": "G7.json",
}

_catalog_cache: dict[str, tuple[GroupData, InvariantTuple]] = {}


def catalog_names() -> list[str]:
    return list(_CATALOG_FILES)


def load_catalog_spec(name: str) -> dict:
    try:
        fname = _CATALOG_FILES[name]
    except KeyError:
        raise UnknownGroup(f"no catalog entry named {shorten(repr(name))}") from None
    data = resources.files("reflconn.data").joinpath(fname).read_text()
    return json.loads(data)


def invariants_from_spec(spec: dict, group: GroupData) -> InvariantTuple:
    if not isinstance(spec["invariants"], list) or not all(
        isinstance(s, str) for s in spec["invariants"]
    ):
        raise InvalidSpec("invariants must be a list of polynomial strings")
    if len(spec["invariants"]) != group.rank:
        raise InvalidSpec(
            f"invariants must list {group.rank} polynomials, got {len(spec['invariants'])}"
        )
    phis = tuple(
        parse_expr(s, alphabet="x", nvars=group.rank, conductor=group.conductor)
        for s in spec["invariants"]
    )
    degrees = tuple(p.total_degree() for p in phis)
    return InvariantTuple(phis=phis, degrees=degrees, source="catalog")


def catalog_lookup(name: str) -> tuple[GroupData, InvariantTuple]:
    """Validated group plus its stored fundamental invariants."""
    hit = _catalog_cache.get(name)
    if hit is not None:
        return hit
    spec = load_catalog_spec(name)
    group = group_from_spec(spec)
    inv = invariants_from_spec(spec, group)
    _catalog_cache[name] = (group, inv)
    return group, inv
