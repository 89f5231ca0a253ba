"""Invariant theory: Reynolds operator, Molien-series degrees, fundamental
invariants, and the built-in catalog of groups with known invariants."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations

from .cyclo import CycloNum, reciprocal_series_sum
from .errors import (
    DegreeSearchFailed,
    IndependenceSearchFailed,
    InvalidSpec,
    UnknownGroup,
)
from .groups import GroupData, group_from_spec
from .linalg import det as mat_det
from .parsing import parse_expr
from .poly import MPoly, grlex_key, top_reduce, weighted_exponents


@dataclass(frozen=True)
class InvariantTuple:
    """Homogeneous, algebraically independent generators of the invariant ring."""

    phis: tuple[MPoly, ...]
    degrees: tuple[int, ...]
    source: str  # "catalog" or "reynolds"


def reynolds(f: MPoly, group: GroupData) -> MPoly:
    """Average f over the group action, in one accumulation; the result is
    invariant."""
    weight = CycloNum.from_rational(Fraction(1, group.order), f.conductor)
    return MPoly.sum_of_products((1, weight, f.substitute_linear(m)) for m in group.elements)


def is_invariant(f: MPoly, group: GroupData) -> bool:
    """Invariance under the generators, which suffices by the action law."""
    return all(f.substitute_linear(m) == f for m in group.generators())


# -- Molien series ----------------------------------------------------------

def _char_poly_one_minus_tm(m):
    """Coefficients (in t) of det(I - tM): the coefficient of t^k is (-1)^k
    times the sum of the principal k x k minors of M."""
    n = len(m)
    coeffs = [CycloNum.one(m[0][0].conductor)]
    for k in range(1, n + 1):
        minors = sum(
            mat_det([[m[i][j] for j in rows] for i in rows])
            for rows in combinations(range(n), k)
        )
        coeffs.append(-minors if k % 2 else minors)
    return tuple(coeffs)


def molien_series(group: GroupData, precision: int):
    """Truncated Molien series (1/|G|) * sum over M of 1/det(I - tM).

    det(I - tM) depends only on the characteristic polynomial of M, so each
    distinct polynomial is inverted once and weighted by its multiplicity.
    M has finite order, so its eigenvalues are roots of unity and the
    coefficients of det(I - tM), elementary symmetric functions of them,
    are algebraic integers: over the integral basis 1, zeta, ...,
    zeta^(phi(N)-1) they have denominator 1, and each inverse is an integer
    recurrence (cyclo.reciprocal_series_sum).  A coefficient that is not
    integral cannot come from a finite group and raises DegreeSearchFailed.
    """
    counts = Counter(_char_poly_one_minus_tm(m) for m in group.elements)
    try:
        return reciprocal_series_sum(group.conductor, counts, precision, group.order)
    except ValueError:
        raise DegreeSearchFailed(
            "det(I - tM) has a coefficient that is not an algebraic integer, "
            "which no element of a finite group gives"
        ) from None


def invariant_degrees(group: GroupData) -> tuple[int, ...]:
    """Degrees of the fundamental invariants, read off the Molien series.

    sum(d_i - 1) is the reflection count r (Kane, Reflection Groups and
    Invariant Theory, section 18), so every degree is at most r + 1 and the
    series is read to t^(r + 1).  Iteratively strips factors 1/(1 - t^d)
    starting from the lowest nonconstant term; cross-checks the product
    against the group order and the sum against r.
    """
    reflections = len(group.reflection_indices)
    if not reflections:
        raise DegreeSearchFailed("no reflections recorded, so no bound on the degrees")
    precision = reflections + 2
    series = molien_series(group, precision)
    degrees = []
    for _ in range(group.rank):
        d = None
        for k in range(1, precision):
            if series[k]:
                d = k
                break
        if d is None:
            raise DegreeSearchFailed(
                f"no invariant degree found up to {precision - 1}"
            )
        degrees.append(d)
        # multiply by (1 - t^d)
        nxt = list(series)
        for k in range(d, precision):
            nxt[k] = nxt[k] - series[k - d]
        series = nxt
    if any(series[1:]):
        raise DegreeSearchFailed("Molien series is not a product of n factors")
    degrees.sort()
    prod = 1
    for d in degrees:
        prod *= d
    if prod != group.order:
        raise DegreeSearchFailed(
            f"degree product {prod} does not match group order {group.order}"
        )
    if sum(d - 1 for d in degrees) != reflections:
        raise DegreeSearchFailed("degree sum does not match reflection count")
    return tuple(degrees)


# -- fundamental invariants -------------------------------------------------

def fundamental_invariants(group: GroupData) -> InvariantTuple:
    """Reynolds-derived fundamental invariants, picked degree by degree
    modulo the decomposables.

    At each Molien degree d, in ascending order, the degree-d products of
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
    if not mat_det([[phi.partial(j + 1) for j in range(n)] for phi in phis]):
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
        raise UnknownGroup(f"no catalog entry named {name!r}") from None
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
