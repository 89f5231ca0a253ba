"""Finite matrix groups over Q(zeta_N): closure, reflections, validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import lcm

from .cyclo import MAX_RANK, CycloNum
from .errors import (
    CapExceeded,
    InvalidSpec,
    NotAMember,
    NotAReflectionGroup,
    SingularMatrix,
    describe,
)
from .linalg import det, identity_matrix, mat_mul, mat_rank, mat_sub
from .parsing import parse_scalar
from .poly import MPoly, PowerTable, linear_images

DEFAULT_CAP = 1 << 20

Matrix = tuple[tuple[CycloNum, ...], ...]


@dataclass(frozen=True)
class GroupData:
    """A finite matrix group; element 0 is the identity.

    element_index maps each element to its position in elements, as the
    closure found it, and fixed_dims[i] is dim V^g = n - rank(g - I) of
    element i, both filled in by close_group.  reflection_indices and
    det_char_order are filled in by validate_reflection_group.

    Three things are made on first use and kept, so that no element is
    inverted twice and no coset is looked up twice: actions holds the n
    linear images of x1..xn under each acting element (linear_images),
    the size of the element table itself, and never their powers, which
    live in the PowerTable that action makes afresh over them;
    diagonal_cosets holds the diagonal subgroup H and the index of one
    representative per left coset tH; diagonal_exponents holds each
    diagonal of H as integer exponents of one root of unity.
    """

    rank: int
    conductor: int
    elements: tuple[Matrix, ...]
    generator_indices: tuple[int, ...]
    element_index: dict[Matrix, int] = field(compare=False, repr=False)
    fixed_dims: tuple[int, ...] = field(compare=False, repr=False)
    reflection_indices: tuple[int, ...] = ()
    det_char_order: int = 0
    name: str = ""
    actions: dict[int, tuple[MPoly, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def order(self) -> int:
        return len(self.elements)

    def generators(self) -> list[Matrix]:
        return [self.elements[i] for i in self.generator_indices]

    def action(self, i: int) -> PowerTable:
        """A fresh table for the action f(x) -> f(x * M^{-T}) of element i,
        over the images kept from the element's first use."""
        images = self.actions.get(i)
        if images is None:
            images = self.actions[i] = linear_images(self.elements[i], "x", self.conductor)
        return PowerTable(images)

    def generator_tables(self) -> tuple[PowerTable, ...]:
        """One fresh table per generator, for its holder to share among the
        polynomials it substitutes."""
        return tuple(map(self.action, self.generator_indices))

    @cached_property
    def diagonal_cosets(self) -> tuple[tuple[tuple[CycloNum, ...], ...], tuple[int, ...]]:
        """(H, T), made on first use: the diagonal elements, a subgroup H,
        each as its diagonal (h_11, ..., h_nn), and the index of one
        representative t of each left coset tH, the first in element order.

        The coset of t is t with column j scaled by h_jj for each h in H,
        found by one element_index lookup per (t, h).
        """
        n = self.rank
        diagonals = tuple(
            tuple(m[j][j] for j in range(n))
            for m in self.elements
            if not any(m[r][c] for r in range(n) for c in range(n) if r != c)
        )
        covered = [False] * self.order
        representatives = []
        for i, t in enumerate(self.elements):
            if covered[i]:
                continue
            representatives.append(i)
            for h in diagonals:
                coset_element = tuple(tuple(e * s for e, s in zip(row, h)) for row in t)
                covered[self.element_index[coset_element]] = True
        return diagonals, tuple(representatives)

    @cached_property
    def diagonal_exponents(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(M, K), made on first use: M = lcm(2, N) and, for each diagonal
        of diagonal_cosets in its order, the exponents (k_1, ..., k_n) with
        h_jj = w^(k_j), where w is zeta_N for an even conductor N and
        -zeta_N for an odd one.

        The roots of unity in Q(zeta_N) form the cyclic group of order M
        that w generates, and each h_jj is one, so x^a is fixed by h iff
        sum_j k_j * a_j is divisible by M.
        """
        n = self.conductor
        w = CycloNum.zeta(n) * (-1 if n % 2 else 1)
        log, power = {}, CycloNum.one(n)
        for k in range(lcm(2, n)):
            log[power] = k
            power = power * w
        return len(log), tuple(tuple(log[s] for s in h) for h in self.diagonal_cosets[0])

    def index_of(self, matrix: Matrix) -> int:
        try:
            return self.element_index[matrix]
        except KeyError:
            raise NotAMember("matrix is not an element of the group") from None


def _matrix_print(m: Matrix) -> str:
    return ";".join(",".join(str(e) for e in row) for row in m)


def close_group(generators, cap: int = DEFAULT_CAP, name: str = "") -> GroupData:
    """Breadth-first closure of the generated group, deterministic ordering.

    Generators are sorted by canonical print; elements appear in BFS
    discovery order starting from the identity.
    """
    gens = [tuple(tuple(e for e in row) for row in g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    conductor = gens[0][0][0].conductor
    for k, g in enumerate(gens):
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("generators must be square matrices of equal size")
        d = det(g)
        if not d:
            raise SingularMatrix("singular generator")
        # an element of finite order has a root of unity as determinant,
        # and every root of unity in Q(zeta_N) has order dividing lcm(2, N)
        try:
            d.multiplicative_order(cap=lcm(2, conductor))
        except ValueError:
            raise NotAReflectionGroup(
                f"generator {k + 1} ({_matrix_print(g)}) has infinite order: "
                f"its determinant {d} is not a root of unity"
            ) from None
    gens.sort(key=_matrix_print)

    ident = identity_matrix(n, conductor)
    elements: list[Matrix] = [ident]
    seen: dict[Matrix, int] = {ident: 0}
    frontier = [ident]
    while frontier:
        next_frontier = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g)
                if prod not in seen:
                    if len(elements) >= cap:
                        raise CapExceeded(
                            f"group closure exceeded cap of {cap} elements"
                        )
                    seen[prod] = len(elements)
                    elements.append(prod)
                    next_frontier.append(prod)
        frontier = next_frontier

    gen_indices = tuple(seen[g] for g in gens)
    return GroupData(
        rank=n,
        conductor=conductor,
        elements=tuple(elements),
        generator_indices=gen_indices,
        element_index=seen,
        fixed_dims=tuple(n - mat_rank(mat_sub(m, ident)) for m in elements),
        name=name,
    )


def is_reflection_matrix(m: Matrix, conductor: int) -> bool:
    n = len(m)
    diff = mat_sub(m, identity_matrix(n, conductor))
    return mat_rank([list(r) for r in diff]) == 1


def is_reflection(m: Matrix, group: GroupData) -> bool:
    """True iff m is in the group and fixes a hyperplane pointwise."""
    return group.fixed_dims[group.index_of(m)] == group.rank - 1


def hyperplanes(group: GroupData) -> tuple[tuple[MPoly, int], ...]:
    """Each reflecting hyperplane H as (alpha_H, e_H), in the order of its
    first reflection.

    alpha_H is a linear form in x vanishing on H: the first nonzero row of
    s - I for a reflection s fixing H, scaled so that its first nonzero
    coefficient is 1.  e_H is the order of the pointwise stabiliser of H,
    1 plus the number of reflections sharing alpha_H.
    """
    n = group.rank
    ident = identity_matrix(n, group.conductor)
    counts: dict[tuple[CycloNum, ...], int] = {}
    for i in group.reflection_indices:
        row = next(r for r in mat_sub(group.elements[i], ident) if any(r))
        lead = next(e for e in row if e).inverse()
        alpha = tuple(e * lead for e in row)
        counts[alpha] = counts.get(alpha, 0) + 1
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return tuple(
        (MPoly("x", n, group.conductor, dict(zip(units, alpha))), k + 1)
        for alpha, k in counts.items()
    )


def validate_reflection_group(group: GroupData) -> GroupData:
    """Check that the reflections inside the closure generate the whole group.

    Fills in reflection_indices, the elements whose fixed space closure
    found to be a hyperplane (fixed_dims n - 1), and the order of the
    determinant character.
    """
    refl = [i for i, dim in enumerate(group.fixed_dims) if dim == group.rank - 1]
    if not refl:
        raise NotAReflectionGroup("group contains no reflection")

    # closure of the reflections inside the (finite) element set; G is
    # generated by its generators, so it is reached once they all are
    gens = set(group.generator_indices)
    reached = set(refl)
    reached.add(0)
    frontier = list(reached)
    refl_mats = [group.elements[i] for i in refl]
    while frontier and not gens <= reached:
        nxt = []
        for i in frontier:
            for r in refl_mats:
                j = group.element_index[mat_mul(group.elements[i], r)]
                if j not in reached:
                    reached.add(j)
                    nxt.append(j)
        frontier = nxt
    if not gens <= reached:
        raise NotAReflectionGroup(
            f"reflections generate only {len(reached)} of {group.order} elements"
        )

    # det is a homomorphism, so the generators' determinants generate its image
    e = 1
    for g in group.generators():
        e = lcm(e, det(g).multiplicative_order(cap=group.order + 1))
    return replace(group, reflection_indices=tuple(refl), det_char_order=e)


def parse_matrix(rows, conductor: int) -> Matrix:
    """Rows of scalar-grammar entry strings -> CycloNum matrix."""
    return tuple(
        tuple(parse_scalar(entry, conductor) for entry in row) for row in rows
    )


def is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


MAX_NAME = 100


def require_name(value, what: str) -> None:
    """InvalidSpec unless value is a string of at most MAX_NAME characters."""
    if not isinstance(value, str) or len(value) > MAX_NAME:
        raise InvalidSpec(
            f"{what} must be a string of at most {MAX_NAME} characters, got {describe(value)}"
        )


def is_matrix(value, rank: int, is_entry) -> bool:
    """Whether value is a rank x rank list of lists of entries passing is_entry."""
    return isinstance(value, list) and len(value) == rank and all(
        isinstance(row, list) and len(row) == rank and all(is_entry(e) for e in row)
        for row in value
    )


def group_from_spec(spec: dict) -> GroupData:
    """Build and validate a group from the JSON group-specification format.

    Required keys: conductor, rank, generators (list of matrices, each a
    list of rows of scalar strings); optional name (a string of at most
    MAX_NAME characters) and cap.  A missing required key raises InvalidSpec.
    """
    name = spec.get("name", "")
    require_name(name, "name")
    conductor = spec.get("conductor")
    rank = spec.get("rank")
    generators = spec.get("generators")
    if not is_positive_int(conductor):
        raise InvalidSpec(f"conductor must be a positive integer, got {describe(conductor)}")
    if not is_positive_int(rank):
        raise InvalidSpec(f"rank must be a positive integer, got {describe(rank)}")
    if rank > MAX_RANK:
        raise InvalidSpec(f"rank must be at most {MAX_RANK}, got {describe(rank)}")
    if not isinstance(generators, list) or not generators:
        raise InvalidSpec("generators must be a non-empty list of matrices")
    for g in generators:
        if not is_matrix(g, rank, lambda e: isinstance(e, str)):
            raise InvalidSpec(
                f"generator {describe(g)} is not a {rank}x{rank} matrix of entry strings"
            )
    cap = spec.get("cap", DEFAULT_CAP)
    if not is_positive_int(cap):
        raise InvalidSpec(f"cap must be a positive integer, got {describe(cap)}")
    gens = [parse_matrix(g, conductor) for g in generators]
    group = close_group(gens, cap=cap, name=name)
    return validate_reflection_group(group)


def read_json(path, what: str):
    """The JSON value in the file at path.  InvalidSpec names what the file
    is when it is not UTF-8, not JSON, holds an integer too long for int(),
    or is nested too deep to decode."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise InvalidSpec(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidSpec(f"{what} is nested too deep to decode") from None


def load_group_spec(path) -> dict:
    spec = read_json(path, "spec file")
    if not isinstance(spec, dict):
        raise InvalidSpec("spec file must hold a JSON object")
    return spec
