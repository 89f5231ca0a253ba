"""Group closure, reflection detection, and validation."""

import pytest

from reflconn.errors import (
    CapExceeded,
    NotAMember,
    NotAReflectionGroup,
    SingularMatrix,
)
from reflconn.groups import (
    close_group,
    group_from_spec,
    is_reflection,
    is_reflection_matrix,
    parse_matrix,
    validate_reflection_group,
)
from reflconn.linalg import det, identity_matrix, mat_inverse, mat_mul

from conftest import catalog, sign_group

SWAP = parse_matrix([["0", "1"], ["1", "0"]], 12)
DIAG = parse_matrix([["-1", "0"], ["0", "1"]], 12)


class TestClosure:
    def test_dihedral_closure(self):
        g = close_group([SWAP, DIAG])
        assert g.order == 8
        assert g.elements[0] == identity_matrix(2, 12)
        assert set(g.generator_indices) <= set(range(g.order))

    def test_closure_deterministic(self):
        a = close_group([SWAP, DIAG])
        b = close_group([DIAG, SWAP])  # generator order must not matter
        assert a.elements == b.elements

    def test_trivial_group(self):
        g = close_group([identity_matrix(2, 12)])
        assert g.order == 1

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            close_group([SWAP, DIAG], cap=5)

    def test_singular_generator(self):
        with pytest.raises(SingularMatrix):
            close_group([parse_matrix([["1", "1"], ["1", "1"]], 12)])

    def test_generator_of_infinite_order(self):
        # det 2 is no root of unity, so closing would stop only at the cap
        double = parse_matrix([["2", "0"], ["0", "1"]], 12)
        with pytest.raises(NotAReflectionGroup, match="generator 2 .* infinite order"):
            close_group([SWAP, double])

    def test_closed_under_product_and_inverse(self):
        g = close_group([SWAP, DIAG])
        elems = set(g.elements)
        for a in g.elements:
            assert mat_inverse(a) in elems
            for b in g.elements:
                assert mat_mul(a, b) in elems


class TestReflections:
    def test_swap_is_reflection(self):
        assert is_reflection_matrix(SWAP, 12)
        assert is_reflection_matrix(DIAG, 12)

    def test_identity_is_not(self):
        assert not is_reflection_matrix(identity_matrix(2, 12), 12)

    def test_rotation_is_not(self):
        rot = parse_matrix([["0", "-1"], ["1", "0"]], 12)
        assert not is_reflection_matrix(rot, 12)

    def test_order_three_reflection(self):
        # a unitary reflection of order 3: diag(1, omega)
        m = parse_matrix([["1", "0"], ["0", "zeta^4"]], 12)
        assert is_reflection_matrix(m, 12)

    def test_index_of_reads_the_closure_map(self):
        g = catalog("G4")[0]
        assert g.element_index == {m: i for i, m in enumerate(g.elements)}
        assert all(g.index_of(m) == i for i, m in enumerate(g.elements))

    def test_membership_required(self):
        g = validate_reflection_group(close_group([SWAP, DIAG]))
        assert is_reflection(SWAP, g)
        outsider = parse_matrix([["2", "0"], ["0", "1"]], 12)
        with pytest.raises(NotAMember):
            is_reflection(outsider, g)


class TestValidation:
    def test_dihedral_counts(self):
        g = validate_reflection_group(close_group([SWAP, DIAG]))
        assert len(g.reflection_indices) == 4
        assert g.det_char_order == 2

    def test_rank_one_sign_group(self):
        g, _ = sign_group()
        assert g.order == 2
        assert len(g.reflection_indices) == 1
        assert g.det_char_order == 2

    def test_rotation_group_rejected(self):
        rot = parse_matrix([["0", "-1"], ["1", "0"]], 12)
        with pytest.raises(NotAReflectionGroup):
            validate_reflection_group(close_group([rot]))

    def test_reflections_present_but_not_generating(self):
        # <-I, i*I>: contains the scalar reflection in rank 1? no reflections
        # at all in rank 2, so use a group whose sole reflection-closure is
        # a proper subgroup: {±1, ±i}·I has no reflections.
        m = parse_matrix([["zeta^3", "0"], ["0", "zeta^3"]], 12)
        with pytest.raises(NotAReflectionGroup):
            validate_reflection_group(close_group([m]))

    def test_reflections_generate_a_proper_subgroup(self):
        # <diag(-1,1), i*I> has order 8; its reflections diag(-1,1) and
        # diag(1,-1) generate only the order-4 diagonal sign group
        i_scalar = parse_matrix([["zeta^3", "0"], ["0", "zeta^3"]], 12)
        with pytest.raises(
            NotAReflectionGroup, match=r"^reflections generate only 4 of 8 elements$"
        ):
            validate_reflection_group(close_group([DIAG, i_scalar]))


class TestCatalogGroups:
    @pytest.mark.parametrize(
        "name,order,nrefl,e",
        [
            ("G(2,1,2)", 8, 4, 2),
            ("G4", 24, 8, 3),
            ("G5", 72, 16, 3),
            ("G6", 48, 14, 6),
            ("G7", 144, 22, 6),
        ],
    )
    def test_catalog_counts(self, name, order, nrefl, e):
        group, _ = catalog(name)
        assert group.order == order
        assert len(group.reflection_indices) == nrefl
        assert group.det_char_order == e

    def test_generators_are_reflections_when_possible(self):
        group, _ = catalog("G4")
        for gen in group.generators():
            assert is_reflection_matrix(gen, group.conductor)

    def test_all_dets_are_roots_of_unity(self):
        group, _ = catalog("G6")
        for m in group.elements:
            assert det(m) ** group.det_char_order == 1


class TestSpecFormat:
    def test_group_from_spec(self):
        spec = {
            "name": "B2",
            "conductor": 12,
            "rank": 2,
            "generators": [
                [["0", "1"], ["1", "0"]],
                [["-1", "0"], ["0", "1"]],
            ],
        }
        g = group_from_spec(spec)
        assert g.order == 8
        assert g.name == "B2"

    def test_spec_rank_mismatch(self):
        spec = {
            "name": "bad",
            "conductor": 12,
            "rank": 3,
            "generators": [[["0", "1"], ["1", "0"]]],
        }
        with pytest.raises(ValueError):
            group_from_spec(spec)

    def test_spec_cap_respected(self):
        spec = {
            "name": "capped",
            "conductor": 12,
            "rank": 2,
            "generators": [
                [["0", "1"], ["1", "0"]],
                [["-1", "0"], ["0", "1"]],
            ],
            "cap": 4,
        }
        with pytest.raises(CapExceeded):
            group_from_spec(spec)
