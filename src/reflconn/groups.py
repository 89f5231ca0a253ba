"""Finite matrix groups over Q(zeta_N): closure, reflections, validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import lcm

from .cyclo import CycloNum
from .errors import (
    CapExceeded,
    InvalidSpec,
    NotAMember,
    NotAReflectionGroup,
    SingularMatrix,
)
from .linalg import det, identity_matrix, mat_mul, mat_rank, mat_sub
from .parsing import parse_scalar

DEFAULT_CAP = 1 << 20

Matrix = tuple[tuple[CycloNum, ...], ...]


@dataclass(frozen=True)
class GroupData:
    """A finite matrix group; element 0 is the identity.

    reflection_indices and det_char_order are filled in by
    validate_reflection_group.
    """

    rank: int
    conductor: int
    elements: tuple[Matrix, ...]
    generator_indices: tuple[int, ...]
    reflection_indices: tuple[int, ...] = ()
    det_char_order: int = 0
    name: str = ""

    @property
    def order(self) -> int:
        return len(self.elements)

    def generators(self) -> list[Matrix]:
        return [self.elements[i] for i in self.generator_indices]

    def reflections(self) -> list[Matrix]:
        return [self.elements[i] for i in self.reflection_indices]

    def index_of(self, matrix: Matrix) -> int:
        try:
            return self.elements.index(matrix)
        except ValueError:
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
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("generators must be square matrices of equal size")
        if not det(g):
            raise SingularMatrix("singular generator")
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
        name=name,
    )


def is_reflection_matrix(m: Matrix, conductor: int) -> bool:
    n = len(m)
    diff = mat_sub(m, identity_matrix(n, conductor))
    return mat_rank([list(r) for r in diff]) == 1


def is_reflection(m: Matrix, group: GroupData) -> bool:
    """True iff m is in the group and fixes a hyperplane pointwise."""
    group.index_of(m)
    return is_reflection_matrix(m, group.conductor)


def validate_reflection_group(group: GroupData) -> GroupData:
    """Check that the reflections inside the closure generate the whole group.

    Fills in reflection_indices and the order of the determinant character.
    """
    refl = [
        i
        for i, m in enumerate(group.elements)
        if is_reflection_matrix(m, group.conductor)
    ]
    if not refl:
        raise NotAReflectionGroup("group contains no reflection")

    # closure of the reflections inside the (finite) element set
    element_index = {m: i for i, m in enumerate(group.elements)}
    reached = set(refl)
    reached.add(0)
    frontier = list(reached)
    refl_mats = [group.elements[i] for i in refl]
    while frontier:
        nxt = []
        for i in frontier:
            for r in refl_mats:
                j = element_index[mat_mul(group.elements[i], r)]
                if j not in reached:
                    reached.add(j)
                    nxt.append(j)
        frontier = nxt
    if len(reached) != group.order:
        raise NotAReflectionGroup(
            f"reflections generate only {len(reached)} of {group.order} elements"
        )

    e = 1
    for m in group.elements:
        e = lcm(e, det(m).multiplicative_order(cap=group.order + 1))
    return replace(group, reflection_indices=tuple(refl), det_char_order=e)


def parse_matrix(rows, conductor: int) -> Matrix:
    """Rows of scalar-grammar entry strings -> CycloNum matrix."""
    return tuple(
        tuple(parse_scalar(entry, conductor) for entry in row) for row in rows
    )


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def group_from_spec(spec: dict) -> GroupData:
    """Build and validate a group from the JSON group-specification format.

    Expected keys: name, conductor, rank, generators (list of matrices,
    each a list of rows of scalar strings); optional cap.
    """
    conductor = spec.get("conductor", 12)
    rank = spec.get("rank")
    generators = spec.get("generators")
    if not _is_positive_int(conductor):
        raise InvalidSpec(f"conductor must be a positive integer, got {conductor!r}")
    if not _is_positive_int(rank):
        raise InvalidSpec(f"rank must be a positive integer, got {rank!r}")
    if not isinstance(generators, list) or not generators:
        raise InvalidSpec("generators must be a non-empty list of matrices")
    for g in generators:
        if not isinstance(g, list) or len(g) != rank or any(
            not isinstance(row, list)
            or len(row) != rank
            or not all(isinstance(e, str) for e in row)
            for row in g
        ):
            raise InvalidSpec(
                f"generator {g!r} is not a {rank}x{rank} matrix of entry strings"
            )
    cap = spec.get("cap", DEFAULT_CAP)
    if not _is_positive_int(cap):
        raise InvalidSpec(f"cap must be a positive integer, got {cap!r}")
    gens = [parse_matrix(g, conductor) for g in generators]
    group = close_group(gens, cap=cap, name=spec.get("name", ""))
    return validate_reflection_group(group)


def load_group_spec(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"spec file is not valid JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise InvalidSpec("spec file must hold a JSON object")
    return spec
