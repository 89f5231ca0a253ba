"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact symbolic equalities; rational functions compare
by cross-multiplication.  Run with `pytest -v tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from reflconn.connection import build_system, jacobian
from reflconn.cyclo import CycloNum
from reflconn.invariants import fundamental_invariants, invariant_degrees
from reflconn.poly import MPoly, RatFun
from reflconn.rewrite import Rewriter, exponent_set
from reflconn.verify import (
    check_equivariance,
    check_integrability,
    cross_validate,
)

from conftest import catalog, pipeline, pz, sign_group

CATALOG = ["G(2,1,2)", "G4", "G5", "G6", "G7"]

I3 = "(zeta^2 + zeta^4)"  # i*sqrt(3) in Q(zeta_12)

# Expected connection matrices: per group, two matrices of (num, den) strings.
D8_DEN = "2*(z1^2 - 4*z2)"
G4_DEN = f"z1^3 - 12*{I3}*z2^2"
G5_DEN = f"z1 - 12*{I3}*z2^2"
G6_DEN = f"z1^3 - 12*{I3}*z2"
G7_DEN = f"z1 - 12*{I3}*z2"

GOLDEN = {
    "G(2,1,2)": (
        [
            [("z1", D8_DEN), ("-2", D8_DEN)],
            [("-2*z2", D8_DEN), ("z1", D8_DEN)],
        ],
        [
            [("-2", D8_DEN), ("z1", f"z2*({D8_DEN})")],
            [("z1", D8_DEN), ("z1^2 - 6*z2", f"z2*({D8_DEN})")],
        ],
    ),
    "G4": (
        [
            [("3*z1^2", f"4*({G4_DEN})"), (f"-6*{I3}*z2", G4_DEN)],
            [("-15*z1*z2", f"8*({G4_DEN})"), ("5*z1^2", f"4*({G4_DEN})")],
        ],
        [
            [(f"-6*{I3}*z2", G4_DEN), (f"4*{I3}*z1", G4_DEN)],
            [("5*z1^2", f"4*({G4_DEN})"), (f"-10*{I3}*z2", G4_DEN)],
        ],
    ),
    "G5": (
        [
            [(f"11*z1 - 96*{I3}*z2^2", f"12*z1*({G5_DEN})"), (f"-6*{I3}*z2", G5_DEN)],
            [("-5*z2", f"24*z1*({G5_DEN})"), ("5", f"12*({G5_DEN})")],
        ],
        [
            [(f"-6*{I3}*z2", G5_DEN), (f"12*{I3}*z1", G5_DEN)],
            [("5", f"12*({G5_DEN})"), (f"-10*{I3}*z2", G5_DEN)],
        ],
    ),
    "G6": (
        [
            [("3*z1^2", f"4*({G6_DEN})"), (f"-3*{I3}", G6_DEN)],
            [("-15*z1*z2", f"4*({G6_DEN})"), ("5*z1^2", f"4*({G6_DEN})")],
        ],
        [
            [(f"-3*{I3}", G6_DEN), (f"{I3}*z1", f"z2*({G6_DEN})")],
            [("5*z1^2", f"4*({G6_DEN})"), (f"z1^3 - 22*{I3}*z2", f"2*z2*({G6_DEN})")],
        ],
    ),
    "G7": (
        [
            [(f"11*z1 - 96*{I3}*z2", f"12*z1*({G7_DEN})"), (f"-3*{I3}", G7_DEN)],
            [("-5*z2", f"12*z1*({G7_DEN})"), ("5", f"12*({G7_DEN})")],
        ],
        [
            [(f"-3*{I3}", G7_DEN), (f"3*{I3}*z1", f"z2*({G7_DEN})")],
            [("5", f"12*({G7_DEN})"), (f"z1 - 22*{I3}*z2", f"2*z2*({G7_DEN})")],
        ],
    ),
}


def _report(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    assert ok, line


def _matches_golden(cs, name):
    expected = GOLDEN[name]
    for ell in range(2):
        for r in range(2):
            for c in range(2):
                num, den = expected[ell][r][c]
                want = RatFun(pz(num), pz(den))
                if cs.matrices[ell][r][c] != want:
                    return False
    return True


def test_criterion_1_dihedral_golden():
    group, inv = catalog("G(2,1,2)")
    t0 = time.perf_counter()
    cs = build_system(group, inv)
    elapsed = time.perf_counter() - t0
    ok = _matches_golden(cs, "G(2,1,2)") and elapsed < 1.0
    _report(
        1,
        ok,
        f"dihedral golden system matches entrywise, built in {elapsed:.3f}s (< 1s)",
    )


@pytest.mark.parametrize("name", ["G4", "G5", "G6", "G7"])
def test_criterion_2_tetrahedral_golden(name):
    group, inv = catalog(name)
    t0 = time.perf_counter()
    cs = build_system(group, inv)
    elapsed = time.perf_counter() - t0
    ok = _matches_golden(cs, name) and elapsed < 60.0
    _report(
        2,
        ok,
        f"{name} golden matrices match entrywise, built in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_3_integrability():
    ok = True
    checked = []
    for name in CATALOG:
        _, _, _, _, cs = pipeline(name)
        ok = ok and check_integrability(cs).all_passed
        checked.append(name)
    group, inv = sign_group()
    cs1 = build_system(group, inv)
    half = RatFun(pz("1", nvars=1), pz("2*z1", nvars=1))
    ok = ok and check_integrability(cs1).all_passed
    ok = ok and cs1.matrices[0][0][0] == half
    _report(
        3,
        ok,
        f"integrability identity holds for {', '.join(checked)} "
        "and the rank-1 sign-group system 1/(2*z1)",
    )


def test_criterion_4_equivariance():
    ok = True
    for name in CATALOG:
        group, _, jd, _, _ = pipeline(name)
        ok = ok and check_equivariance(jd, group).all_passed
    _report(4, ok, "Jacobian equivariance holds for all catalog group generators")


def test_criterion_5_degree_bookkeeping():
    ok = True
    details = []
    for name in CATALOG:
        group, inv = catalog(name)
        degs = tuple(sorted(inv.degrees))
        prod = 1
        for d in degs:
            prod *= d
        refl = len(group.reflection_indices)
        ok = ok and prod == group.order and sum(d - 1 for d in degs) == refl
        ok = ok and invariant_degrees(group) == degs
        details.append(f"{name}:{set(degs)}/{group.order}/{refl}")
    d8_group, d8_inv = catalog("G(2,1,2)")
    ok = ok and sorted(d8_inv.degrees) == [2, 4] and d8_group.order == 8
    ok = ok and len(d8_group.reflection_indices) == 4
    g4_group, g4_inv = catalog("G4")
    ok = ok and sorted(g4_inv.degrees) == [4, 6] and g4_group.order == 24
    ok = ok and len(g4_group.reflection_indices) == 8
    _report(5, ok, "degrees multiply to |G| and sum to reflections: " + ", ".join(details))


def _random_weighted_poly(rng, degrees, max_total=6, conductor=12):
    while True:
        e0 = tuple(rng.randrange(max_total + 1) for _ in degrees)
        if 0 < sum(e0) <= max_total:
            break
    target = sum(e * d for e, d in zip(e0, degrees))
    members = [
        e for e in exponent_set(target, degrees) if sum(e) <= max_total
    ]
    terms = {}
    for e in members:
        c = CycloNum(
            conductor, tuple(Fraction(rng.randrange(-3, 4)) for _ in range(4))
        )
        if c:
            terms[e] = c
    if not terms:
        terms[e0] = CycloNum.one(conductor)
    return MPoly("z", len(degrees), conductor, terms)


def test_criterion_6_rewrite_round_trip():
    rng = random.Random(20260823)
    ok = True
    for name in ("G(2,1,2)", "G4"):
        _, inv = catalog(name)
        rewriter = Rewriter(inv)
        for _ in range(100):
            f_tilde = _random_weighted_poly(rng, inv.degrees)
            f = f_tilde.compose(list(inv.phis))
            if rewriter.rewrite(f) != f_tilde:
                ok = False
                break
    _report(6, ok, "100 random degree-<=6 rewrite round trips over each of D8 and G4")


def test_criterion_7_cross_validation():
    ok = True
    for name in CATALOG:
        _, inv, _, sc, cs = pipeline(name)
        ok = ok and cross_validate(cs, sc, inv).all_passed
    _report(
        7, ok, "z := phi(x) substitution reproduces the x-space matrices, all groups"
    )


def test_criterion_8_mutation_detection():
    group, inv, jd, sc, cs = pipeline("G(2,1,2)")

    def flip(matrices, ell, r, c):
        return tuple(
            tuple(
                tuple(
                    -e if (i, rr, cc) == (ell, r, c) else e
                    for cc, e in enumerate(row)
                )
                for rr, row in enumerate(mat)
            )
            for i, mat in enumerate(matrices)
        )

    bad_jac = tuple(
        tuple(-e if (r, c) == (0, 1) else e for c, e in enumerate(row))
        for r, row in enumerate(jd.jac)
    )
    eq_report = check_equivariance(dataclasses.replace(jd, jac=bad_jac), group)
    eq_caught = not eq_report.all_passed and all(
        f.witness for f in eq_report.failures()
    )

    int_report = check_integrability(
        dataclasses.replace(cs, numerators=flip(cs.numerators, 0, 1, 0))
    )
    int_caught = not int_report.all_passed and all(
        f.witness for f in int_report.failures()
    )

    cv_report = cross_validate(
        dataclasses.replace(cs, matrices=flip(cs.matrices, 1, 1, 1)), sc, inv
    )
    cv_caught = not cv_report.all_passed and all(
        f.witness for f in cv_report.failures()
    )

    ok = eq_caught and int_caught and cv_caught
    _report(
        8,
        ok,
        "equivariance, integrability, and cross-validation each flag a "
        "single-entry sign flip with a witness",
    )


def test_criterion_9_reynolds_pipeline():
    group, _ = catalog("G(2,1,2)")
    inv = fundamental_invariants(group)
    jd = jacobian(inv, det_char_order=group.det_char_order)
    from reflconn.connection import connection_in_z, scaled_connection

    sc = scaled_connection(jd, group=group)
    cs = connection_in_z(sc, inv)

    ok = inv.source == "reynolds"
    ok = ok and check_integrability(cs).all_passed
    ok = ok and check_equivariance(jd, group).all_passed
    degs = tuple(sorted(inv.degrees))
    prod = 1
    for d in degs:
        prod *= d
    ok = ok and prod == group.order
    ok = ok and sum(d - 1 for d in degs) == len(group.reflection_indices)
    ok = ok and cross_validate(cs, sc, inv).all_passed
    _report(
        9,
        ok,
        "Reynolds-sourced dihedral invariants yield a system passing "
        "integrability, equivariance, degree bookkeeping, and cross-validation",
    )
