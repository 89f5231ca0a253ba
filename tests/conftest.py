import functools

import pytest
from hypothesis import settings

from reflconn.connection import build_system, connection_in_z, jacobian, scaled_connection
from reflconn.groups import close_group, parse_matrix, validate_reflection_group
from reflconn.invariants import InvariantTuple, catalog_lookup, fundamental_invariants
from reflconn.parsing import parse_expr

# Derandomised, so that a fuzz failure in CI reproduces from the same
# examples: select it with `pytest --hypothesis-profile=ci`.
settings.register_profile("ci", derandomize=True)


def px(s, nvars=2, conductor=12):
    return parse_expr(s, alphabet="x", nvars=nvars, conductor=conductor)


def pz(s, nvars=2, conductor=12):
    return parse_expr(s, alphabet="z", nvars=nvars, conductor=conductor)


@functools.lru_cache(maxsize=None)
def catalog(name):
    return catalog_lookup(name)


@functools.lru_cache(maxsize=None)
def pipeline(name):
    """(group, phi, jacobian data, scaled connection, z-system), cached."""
    group, phi = catalog(name)
    jd = jacobian(phi, det_char_order=group.det_char_order)
    sc = scaled_connection(jd, group=group)
    cs = connection_in_z(sc, phi)
    return group, phi, jd, sc, cs


@functools.lru_cache(maxsize=None)
def sign_group():
    """The rank-1 group {(1), (-1)} with invariant x^2, a handy oracle."""
    g = validate_reflection_group(
        close_group([parse_matrix([["-1"]], 12)])
    )
    phi = InvariantTuple(
        phis=(px("x1^2", nvars=1),), degrees=(2,), source="catalog"
    )
    return g, phi


# Rank-3 groups outside the catalog, generated as the benchmark writes them:
# the transpositions (1 2) and (2 3), then diag(-1, 1, 1) for G(2,1,3) over Q,
# or the twisted transposition x1 <-> zeta^-1 x2 for G(3,3,3) over Q(zeta_3).
RANK3_GENERATORS = {
    "G(2,1,3)": (1, (
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
        [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    )),
    "G(3,3,3)": (3, (
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
        [["0", "zeta^2", "0"], ["zeta", "0", "0"], ["0", "0", "1"]],
    )),
}


# Groups whose derived invariants or degrees are pinned beyond the
# benchmark's: the transpositions, then diag(zeta, 1, ...) for G(m,1,n) over
# Q(zeta_m), diag(-1, 1, ...) over Q for m = 2.
EXTRA_GENERATORS = {
    "G(4,1,2)": (4, (
        [["0", "1"], ["1", "0"]],
        [["zeta", "0"], ["0", "1"]],
    )),
    "G(3,1,3)": (3, (
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
        [["zeta", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    )),
    "G(2,1,4)": (1, (
        [["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1"]],
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "1", "0"]],
        [["-1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    )),
}


def _closed(conductor, rows):
    return validate_reflection_group(
        close_group([parse_matrix(m, conductor) for m in rows])
    )


@functools.lru_cache(maxsize=None)
def rank3_group(name):
    return _closed(*RANK3_GENERATORS[name])


@functools.lru_cache(maxsize=None)
def extra_group(name):
    return _closed(*EXTRA_GENERATORS[name])


@functools.lru_cache(maxsize=None)
def derived_pipeline(name):
    """(group, phi, jd, sc, cs) of a rank-3 or extra group on its Reynolds
    invariants, cached."""
    group = rank3_group(name) if name in RANK3_GENERATORS else extra_group(name)
    phi = fundamental_invariants(group)
    jd = jacobian(phi, det_char_order=group.det_char_order)
    sc = scaled_connection(jd, group=group)
    return group, phi, jd, sc, connection_in_z(sc, phi)


@pytest.fixture(scope="session")
def d8():
    return catalog("G(2,1,2)")


@pytest.fixture(scope="session")
def g4():
    return catalog("G4")


@pytest.fixture(scope="session")
def d8_pipeline():
    return pipeline("G(2,1,2)")


@pytest.fixture(scope="session")
def g4_pipeline():
    return pipeline("G4")
