"""Invariant theory: Reynolds operator, Molien-series degrees, fundamental
invariants, and the built-in catalog of groups with known invariants."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product

from .cyclo import CycloNum
from .errors import (
    DegreeSearchFailed,
    IndependenceSearchFailed,
    InvalidSpec,
    UnknownGroup,
)
from .groups import GroupData, group_from_spec
from .linalg import det as mat_det
from .linalg import row_echelon
from .parsing import parse_expr
from .poly import MPoly, grlex_key


@dataclass(frozen=True)
class InvariantTuple:
    """Homogeneous, algebraically independent generators of the invariant ring."""

    phis: tuple[MPoly, ...]
    degrees: tuple[int, ...]
    source: str  # "catalog" or "reynolds"


def reynolds(f: MPoly, group: GroupData) -> MPoly:
    """Average f over the group action; the result is invariant."""
    acc = MPoly.zero(f.alphabet, f.nvars, f.conductor)
    for m in group.elements:
        acc = acc + f.substitute_linear(m)
    return acc * Fraction(1, group.order)


def is_invariant(f: MPoly, group: GroupData) -> bool:
    """Invariance under the generators, which suffices by the action law."""
    return all(f.substitute_linear(m) == f for m in group.generators())


# -- Molien series ----------------------------------------------------------

def _char_poly_one_minus_tm(m, conductor):
    """Coefficients (in t) of det(I - t*M), by Laplace expansion over MPoly."""
    n = len(m)
    t = MPoly.variable(1, "x", 1, conductor)
    i_minus_tm = [
        [MPoly.constant(int(i == j), "x", 1, conductor) - t * m[i][j] for j in range(n)]
        for i in range(n)
    ]
    d = mat_det(i_minus_tm)
    return [d.coefficient((k,)) for k in range(n + 1)]


def _series_inverse(poly, precision, conductor):
    """Inverse of a power series with unit constant term, truncated."""
    c0 = poly[0]
    inv0 = c0.inverse()
    out = [inv0]
    zero = CycloNum.zero(conductor)
    for k in range(1, precision):
        acc = zero
        for j in range(1, min(k, len(poly) - 1) + 1):
            cj = poly[j] if j < len(poly) else zero
            if cj:
                acc = acc + cj * out[k - j]
        out.append(-inv0 * acc)
    return out


def molien_series(group: GroupData, precision: int):
    """Truncated Molien series (1/|G|) * sum over M of 1/det(I - tM).

    det(I - tM) depends only on the characteristic polynomial of M, so each
    distinct polynomial is inverted once and weighted by its multiplicity.
    """
    counts = Counter(
        tuple(_char_poly_one_minus_tm(m, group.conductor)) for m in group.elements
    )
    total = [CycloNum.zero(group.conductor)] * precision
    for cp, count in counts.items():
        inv = _series_inverse(cp, precision, group.conductor)
        weight = Fraction(count, group.order)
        total = [a + b * weight for a, b in zip(total, inv)]
    return total


def _degrees_from_series(group: GroupData, series) -> tuple[int, ...]:
    """Degrees of the fundamental invariants, read off a truncated Molien
    series.

    Iteratively strips factors 1/(1 - t^d) starting from the lowest
    nonconstant term; cross-checks the product against the group order and
    the sum against the reflection count.
    """
    precision = len(series)
    degrees = []
    for _ in range(group.rank):
        d = None
        for k in range(1, precision):
            if series[k]:
                d = k
                break
        if d is None:
            raise DegreeSearchFailed(
                f"no invariant degree found below {precision - 1}"
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
    if group.reflection_indices and sum(d - 1 for d in degrees) != len(
        group.reflection_indices
    ):
        raise DegreeSearchFailed("degree sum does not match reflection count")
    return tuple(degrees)


def invariant_degrees(group: GroupData, max_degree: int = 64) -> tuple[int, ...]:
    """Degrees of the fundamental invariants, read off the Molien series."""
    return _degrees_from_series(group, molien_series(group, max_degree + 1))


# -- fundamental invariants -------------------------------------------------

def _monomials_of_degree(nvars: int, degree: int):
    """Exponent vectors of total degree, descending grlex."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, nvars)
    out.sort(key=grlex_key, reverse=True)
    return out


def _coefficient_vector(f: MPoly, monomials):
    return [f.coefficient(e) for e in monomials]


def _invariant_basis(group: GroupData, degree: int, dim: int):
    """Linearly independent Reynolds images of degree-d monomials, in
    grlex candidate order, up to dim of them: the dimension of the degree-d
    invariants, from the Molien series."""
    monomials = _monomials_of_degree(group.rank, degree)
    basis = []
    rows = []  # echelon rows for the independence test
    for exps in monomials:
        mono = MPoly(
            "x", group.rank, group.conductor, {exps: CycloNum.one(group.conductor)}
        )
        inv = reynolds(mono, group)
        if inv.is_zero():
            continue
        vec = _coefficient_vector(inv, monomials)
        candidate_rows = rows + [vec]
        reduced, pivots = row_echelon(candidate_rows)
        if len(pivots) > len(rows):
            rows = [r for r in reduced if any(r)]
            # normalize: monic leading coefficient
            lead = inv.leading_coefficient()
            basis.append(inv * lead.inverse())
            if len(basis) == dim:
                return basis
    raise DegreeSearchFailed(
        f"Reynolds images span {len(basis)} of the {dim} degree-{degree} invariants"
    )


def fundamental_invariants(group: GroupData, max_degree: int = 64) -> InvariantTuple:
    """Reynolds-derived fundamental invariants with nonzero Jacobian."""
    series = molien_series(group, max_degree + 1)
    degrees = _degrees_from_series(group, series)
    candidates = {
        d: _invariant_basis(group, d, int(series[d].rational_value()))
        for d in sorted(set(degrees))
    }
    slots = list(degrees)
    index_ranges = [range(len(candidates[d])) for d in slots]
    for combo in product(*index_ranges):
        # repeated degrees must use distinct candidates
        used = {}
        ok = True
        for d, i in zip(slots, combo):
            if (d, i) in used:
                ok = False
                break
            used[(d, i)] = True
        if not ok:
            continue
        phis = tuple(candidates[d][i] for d, i in zip(slots, combo))
        jac = [[phi.partial(j + 1) for j in range(group.rank)] for phi in phis]
        if mat_det(jac):
            return InvariantTuple(phis=phis, degrees=tuple(slots), source="reynolds")
    raise IndependenceSearchFailed(
        "no algebraically independent combination of invariants found"
    )


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
