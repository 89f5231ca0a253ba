"""Rendering (text/JSON/LaTeX), serialization round trips, and the CLI."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflconn
from reflconn.cli import main
from reflconn.cyclo import CycloNum
from reflconn.errors import DenominatorMismatch
from reflconn.groups import MAX_NAME
from reflconn.render import (
    readable_poly,
    render_json,
    render_latex,
    render_text,
    system_from_dict,
    system_to_dict,
    to_readable_basis,
)

from conftest import catalog, pipeline, px


class TestReadableBasis:
    def test_decomposition(self):
        z = CycloNum.zeta(12)
        cases = {
            CycloNum.from_rational(Fraction(5, 2), 12): (Fraction(5, 2), 0, 0, 0),
            z ** 3: (0, 1, 0, 0),
            z + z ** 11: (0, 0, 1, 0),
            z ** 2 + z ** 4: (0, 0, 0, 1),
        }
        for value, coords in cases.items():
            assert to_readable_basis(value) == coords

    def test_mixed_value(self):
        z = CycloNum.zeta(12)
        v = 2 + 3 * z ** 3 - (z ** 2 + z ** 4)
        assert to_readable_basis(v) == (2, 3, 0, -1)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(max_denominator=30), min_size=4, max_size=4))
    def test_coordinates_rebuild_the_value(self, coeffs):
        z = CycloNum.zeta(12)
        c = CycloNum.zero(12)
        for k, q in enumerate(coeffs):
            c = c + CycloNum.from_rational(q, 12) * z ** k
        a, b, s, t = (CycloNum.from_rational(q, 12) for q in to_readable_basis(c))
        i, sqrt3 = z ** 3, z + z ** 11
        assert a + b * i + s * sqrt3 + t * i * sqrt3 == c

    def test_readable_poly_uses_i_sqrt3(self):
        f = px("x1^4 + (-2 + 4*zeta^2)*x1^2*x2^2 + x2^4")
        assert readable_poly(f) == "x1^4 + 2*i*sqrt(3)*x1^2*x2^2 + x2^4"

    def test_conductor_three_prints_powers_of_zeta(self):
        # str keeps the scalar grammar, which parses back; readable_poly
        # carries a one-term coefficient's sign into the sum
        f = px("x1^2 - zeta*x1 + (1 + zeta)*x2 + 1/2", conductor=3)
        assert str(f) == "x1^2 + (-zeta)*x1 + (1 + zeta)*x2 + 1/2"
        assert px(str(f), conductor=3) == f
        assert readable_poly(f) == "x1^2 - zeta*x1 + (1 + zeta)*x2 + 1/2"
        assert readable_poly(f, latex=True) == (
            r"x_{1}^{2} - \zeta{}x_{1} + (1 + \zeta{})x_{2} + \tfrac{1}{2}"
        )
        g = px("-2/3*zeta*x1^2*x2", conductor=3)
        assert readable_poly(g) == "-2/3*zeta*x1^2*x2"
        assert readable_poly(g, latex=True) == r"-\tfrac{2}{3}\zeta{}x_{1}^{2}x_{2}"


class TestRenderers:
    def test_text_contains_system(self):
        _, _, _, _, cs = pipeline("G(2,1,2)")
        text = render_text(cs, "G(2,1,2)")
        assert "group: G(2,1,2)" in text
        assert "z1 = x1^2 + x2^2" in text
        assert "A1:" in text and "A2:" in text

    def test_latex_prefactor_form(self):
        _, _, _, _, cs = pipeline("G4")
        tex = render_latex(cs, "G4")
        assert r"\begin{pmatrix}" in tex
        assert r"\frac{1}{" in tex
        assert "i\\sqrt{3}" in tex

    def test_deterministic_output(self):
        from reflconn.connection import build_system

        group, inv = catalog("G(2,1,2)")
        a = build_system(group, inv)
        b = build_system(group, inv)
        assert render_json(a, "G(2,1,2)", 12) == render_json(b, "G(2,1,2)", 12)
        assert render_text(a, "G(2,1,2)") == render_text(b, "G(2,1,2)")


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", ["G(2,1,2)", "G4"])
    def test_round_trip(self, name):
        group, _, _, _, cs = pipeline(name)
        data = json.loads(render_json(cs, name, group.conductor))
        back = system_from_dict(data)
        assert back.denominator == cs.denominator
        for ell in range(cs.rank):
            for r in range(cs.rank):
                for c in range(cs.rank):
                    assert back.matrices[ell][r][c] == cs.matrices[ell][r][c]
                    assert (
                        back.numerators[ell][r][c] == cs.numerators[ell][r][c]
                    )

    def test_schema_fields(self):
        group, _, _, _, cs = pipeline("G(2,1,2)")
        data = system_to_dict(cs, "G(2,1,2)", group.conductor)
        assert set(data) == {
            "group", "conductor", "rank", "invariants", "denominator", "matrices",
        }
        assert data["rank"] == 2 and data["conductor"] == 12
        assert all(
            set(entry) == {"num", "den"}
            for mat in data["matrices"]
            for row in mat
            for entry in row
        )

    def test_bad_denominator_rejected(self):
        group, _, _, _, cs = pipeline("G(2,1,2)")
        data = system_to_dict(cs, "G(2,1,2)", group.conductor)
        data["matrices"][0][0][0]["den"] = "z1^3 + 1"
        with pytest.raises(DenominatorMismatch):
            system_from_dict(data)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "G(2,1,2)" in out and "G7" in out

    def test_compute_text(self, capsys):
        assert main(["compute", "--group", "G(2,1,2)"]) == 0
        out = capsys.readouterr().out
        assert "A1:" in out

    def test_compute_json_then_verify(self, tmp_path, capsys):
        out_file = tmp_path / "d8.json"
        assert main([
            "compute", "--group", "G(2,1,2)", "--format", "json",
            "--out", str(out_file),
        ]) == 0
        data = json.loads(out_file.read_text())
        assert data["group"] == "G(2,1,2)"
        assert main(["verify", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] integrability[1,2]" in out

    def test_verify_detects_mutation(self, tmp_path, capsys):
        out_file = tmp_path / "d8.json"
        main([
            "compute", "--group", "G(2,1,2)", "--format", "json",
            "--out", str(out_file),
        ])
        data = json.loads(out_file.read_text())
        entry = data["matrices"][0][0][0]
        entry["num"] = "-" + entry["num"] if not entry["num"].startswith("-") else entry["num"][1:]
        out_file.write_text(json.dumps(data))
        assert main(["verify", str(out_file)]) == 3
        assert "[FAIL]" in capsys.readouterr().out

    def test_verify_artifact_carrying_m(self, capsys):
        # written by a version that scaled by D^m: G4 over D^3, with "m": 3
        path = Path(__file__).parent / "data" / "g4_with_m.json"
        data = json.loads(path.read_text())
        assert data["m"] == 3
        assert main(["verify", str(path)]) == 0
        assert "[PASS] integrability[1,2]" in capsys.readouterr().out
        # the same system as today's G4, entry by entry
        old, new = system_from_dict(data), pipeline("G4")[4]
        for ell in range(2):
            for r in range(2):
                for c in range(2):
                    assert old.matrices[ell][r][c] == new.matrices[ell][r][c]

    def test_verify_checks_the_torsion_symmetry(self, tmp_path, capsys):
        out_file = tmp_path / "g4.json"
        assert main([
            "compute", "--group", "G4", "--format", "json", "--out", str(out_file),
        ]) == 0
        assert main(["verify", str(out_file)]) == 0
        assert "[PASS] torsion_free[1,2]" in capsys.readouterr().out
        # Omega_2[1][1] is the mirror of Omega_1[1][2]
        data = json.loads(out_file.read_text())
        entry = data["matrices"][1][0][0]
        entry["num"] = f"2*({entry['num']})"
        out_file.write_text(json.dumps(data))
        assert main(["verify", str(out_file)]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] torsion_free[1,2]" in out and "witness: entry (1,1,2)" in out

    @pytest.mark.parametrize("spec", ["g70_70_2.json", "cyclic70.json"])
    def test_degree_above_64_from_spec_file(self, tmp_path, spec):
        # no invariants in the spec: a degree of 70 comes from the Molien series
        out_file = tmp_path / "system.json"
        assert main([
            "compute", "--spec-file", str(Path(__file__).parent / "data" / spec),
            "--format", "json", "--out", str(out_file),
        ]) == 0
        assert main(["verify", str(out_file)]) == 0

    def test_verify_checks_the_rank_one_closed_form(self, tmp_path, capsys):
        # A_1 = (d - 1)/(d*z1) for the invariant x1^70 of the cyclic group
        out_file = tmp_path / "cyclic70.json"
        assert main([
            "compute", "--spec-file", str(Path(__file__).parent / "data" / "cyclic70.json"),
            "--format", "json", "--out", str(out_file),
        ]) == 0
        capsys.readouterr()
        assert main(["verify", str(out_file)]) == 0
        assert "[PASS] closed_form[A_1]" in capsys.readouterr().out
        data = json.loads(out_file.read_text())
        entry = data["matrices"][0][0][0]
        assert (entry["num"], entry["den"]) == ("69/70", "z1")
        entry["num"] = "-(69/70)"
        out_file.write_text(json.dumps(data))
        assert main(["verify", str(out_file)]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] closed_form[A_1]" in out and "witness: A_1" in out
        # a constant invariant has no closed form to divide by
        data["invariants"] = ["3"]
        out_file.write_text(json.dumps(data))
        assert main(["verify", str(out_file)]) == 3
        assert "witness: invariant of degree 0" in capsys.readouterr().out

    @pytest.mark.parametrize("forge", ["zero invariant", "first invariant twice"])
    def test_verify_rejects_dependent_invariants(self, forge, tmp_path, capsys):
        # integrability alone passes; the stored invariants have det J = 0
        out_file = tmp_path / "g4.json"
        assert main([
            "compute", "--group", "G4", "--format", "json", "--out", str(out_file),
        ]) == 0
        data = json.loads(out_file.read_text())
        first = data["invariants"][0]
        data["invariants"] = ["0", "x2^2"] if forge == "zero invariant" else [first, first]
        out_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out
        assert captured.err.startswith("error: SingularJacobian")

    def test_verify_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/system.json"]) == 2

    def test_verify_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad)]) == 2

    def test_unknown_group(self, capsys):
        assert main(["compute", "--group", "G99"]) == 2
        assert "UnknownGroup" in capsys.readouterr().err

    def test_rewrite(self, capsys):
        assert main(["rewrite", "x1^4 + x2^4", "--group", "G(2,1,2)"]) == 0
        assert capsys.readouterr().out.strip() == "z1^2 - 2*z2"

    def test_rewrite_not_invariant(self, capsys):
        assert main(["rewrite", "x1^2 - x2^2", "--group", "G(2,1,2)"]) == 2
        assert "NotInvariant" in capsys.readouterr().err

    def test_invariants_catalog(self, capsys):
        assert main(["invariants", "--group", "G4"]) == 0
        out = capsys.readouterr().out
        assert "order 24" in out and "8 reflections" in out
        assert "i*sqrt(3)" in out

    def test_invariants_reynolds(self, capsys):
        assert main([
            "invariants", "--group", "G(2,1,2)", "--invariants", "reynolds",
        ]) == 0
        out = capsys.readouterr().out
        assert "degree 2" in out and "degree 4" in out

    def test_spec_file(self, tmp_path, capsys):
        spec = {
            "name": "B2-from-file",
            "conductor": 12,
            "rank": 2,
            "generators": [
                [["0", "1"], ["1", "0"]],
                [["-1", "0"], ["0", "1"]],
            ],
            "invariants": ["x1^2 + x2^2", "x1^2*x2^2"],
        }
        path = tmp_path / "b2.json"
        path.write_text(json.dumps(spec))
        assert main(["compute", "--spec-file", str(path)]) == 0
        assert "B2-from-file" in capsys.readouterr().out

    def test_non_fundamental_invariants_exit_3(self, tmp_path, capsys):
        # p2^2 and p4 are invariant and independent, but of degrees 4 and
        # 4: they generate a proper subring of the invariants of G(2,1,2)
        spec = {
            "name": "B2-squared",
            "conductor": 12,
            "rank": 2,
            "generators": [
                [["0", "1"], ["1", "0"]],
                [["-1", "0"], ["0", "1"]],
            ],
            "invariants": ["(x1^2 + x2^2)^2", "x1^4 + x2^4"],
        }
        path = tmp_path / "b2.json"
        path.write_text(json.dumps(spec))
        assert main(["compute", "--spec-file", str(path)]) == 3
        err = capsys.readouterr().err
        assert "[FAIL] degree_product_equals_order" in err
        assert "degree product 16, |G| = 8" in err
        # and sum(d_i - 1) = 6 = deg det J, but G(2,1,2) has 4 reflections
        assert "[FAIL] reflection_count" in err
        assert "sum of d_i - 1 = 6, 4 reflections, deg det J = 6" in err
        assert err.count("[FAIL]") == 2

    @pytest.mark.parametrize("conductor, generators, invariants", [
        # invariant and independent, of degree product 16 against |G| = 8
        (12, [[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]],
         ["x1^2 + x2^2", "x1^4*x2^4"]),
        # the reflection diag(-1, 1) fixes x1^2 and x2^3, but the ring it
        # fixes is generated by x1^2 and x2
        (1, [[["-1", "0"], ["0", "1"]]], ["x1^2", "x2^3"]),
    ])
    def test_invariants_short_of_the_ring_exit_3(
        self, conductor, generators, invariants, tmp_path, capsys
    ):
        # the group checks pass, but an entry of the connection cannot be
        # written in the given invariants: a failed verification
        spec = {"conductor": conductor, "rank": 2, "generators": generators,
                "invariants": invariants}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["compute", "--spec-file", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: NotInvariant: polynomial is not in the subring generated "
            "by the invariants\n"
        )

    def test_non_invariant_spec_invariants_exit_3(self, tmp_path, capsys):
        # x1^2 and x2^2 are independent but not fixed by the swap x1 <-> x2,
        # so the Jacobian equivariance check of the spec's invariants fails
        spec = {
            "name": "B2-not-invariant",
            "conductor": 12,
            "rank": 2,
            "generators": [
                [["0", "1"], ["1", "0"]],
                [["-1", "0"], ["0", "1"]],
            ],
            "invariants": ["x1^2", "x2^2"],
        }
        path = tmp_path / "b2.json"
        path.write_text(json.dumps(spec))
        assert main(["compute", "--spec-file", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("check jacobian_equivariance[gen 1] failed, "
                "witness: generator 1, entry (1,1)") in captured.err

    def test_rewrite_with_non_homogeneous_invariant_exits_2(self, tmp_path, capsys):
        # x1^4 + x2^4 = phi_1^2 - 2*phi_2 + 2*phi_1 in these invariants, but
        # phi_2 is not homogeneous, so the invariants are rejected first
        spec = BAD_INPUTS["invariant_not_homogeneous"][1]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["rewrite", "x1^4 + x2^4", "--spec-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NonHomogeneousInput: invariant 2 " in captured.err

    def test_cap_flag(self, capsys):
        assert main(["compute", "--group", "G(2,1,2)", "--cap", "4"]) == 2
        assert "CapExceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_non_positive_cap_is_rejected(self, cap, capsys):
        assert main(["invariants", "--group", "G4", "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidSpec: cap must be a positive integer")

    def test_verbose_report(self, capsys):
        assert main(["compute", "--group", "G(2,1,2)", "-v"]) == 0
        err = capsys.readouterr().err
        assert "[PASS]" in err

    def test_latex_output(self, capsys):
        assert main([
            "compute", "--group", "G(2,1,2)", "--format", "latex",
        ]) == 0
        assert r"\begin{pmatrix}" in capsys.readouterr().out


def _run_cli(*argv):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a
    traceback on stderr instead of propagating into the test."""
    src = str(Path(reflconn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "reflconn.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _spec_file(tmp_path, spec):
    """A spec file holding spec as JSON, or the text or bytes themselves if
    spec is a str or bytes."""
    path = tmp_path / "spec.json"
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    return str(path)


# files that no JSON reader of the CLI can decode: the verify cases read them
# as stored systems, and BAD_INPUTS reads them as spec files
UNREADABLE_JSON = {
    "not_utf8": b"\xff\xfe{}",
    "nested_too_deep": "[" * 200_000 + "]" * 200_000,
}


# the stored system of the sign group, A_1 = 1/(2*z1); it verifies
SIGN_SYSTEM = dict(
    group="sign", conductor=1, rank=1, invariants=["x1^2"], denominator="z1",
    matrices=[[[{"num": "1/2", "den": "z1"}]]],
)


BAD_INPUTS = {
    "zero_denominator": (["rewrite", "1/0", "--group", "G4"], None),
    "conductor_zero": (
        ["compute"], dict(name="c0", conductor=0, rank=1, generators=[[["-1"]]])
    ),
    # zeta is zeta_5 to the writer, but nothing says so
    "conductor_missing": (["compute"], dict(rank=1, generators=[[["zeta"]]])),
    "rank_mismatch": (
        ["compute"],
        dict(name="bad", conductor=12, rank=3, generators=[[["0", "1"], ["1", "0"]]]),
    ),
    "numeric_entry": (
        ["compute"], dict(name="n", conductor=12, rank=1, generators=[[[-1]]])
    ),
    "numeric_invariant": (
        ["compute"],
        dict(name="n", conductor=12, rank=1, generators=[[["-1"]]], invariants=[2]),
    ),
    "text_cap": (
        ["compute"], dict(name="n", conductor=12, rank=1, generators=[[["-1"]]], cap="x")
    ),
    "conductor_huge": (
        ["compute"], dict(name="big", conductor=1000003, rank=1, generators=[[["-1"]]])
    ),
    "huge_exponent": (
        ["compute"],
        dict(
            name="G(2,1,2)", conductor=1, rank=2,
            generators=[[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]],
            invariants=["x1^2 + x2^2", "(x1*x2)^2000000"],
        ),
    ),
    "too_few_invariants": (
        ["compute"],
        dict(
            name="G(2,1,2)", conductor=1, rank=2,
            generators=[[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]],
            invariants=["x1^2 + x2^2"],
        ),
    ),
    "too_many_invariants": (
        ["compute"],
        dict(
            name="G(2,1,2)", conductor=1, rank=2,
            generators=[[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]],
            invariants=["x1^2 + x2^2", "x1^2*x2^2", "x1^4 + x2^4"],
        ),
    ),
    "deep_nesting": (
        ["rewrite", "(" * 3000 + "x1^2+x2^2" + ")" * 3000, "--group", "G(2,1,2)"], None
    ),
    "long_integer": (["rewrite", "1" * 5000 + "*(x1^2+x2^2)", "--group", "G(2,1,2)"], None),
    "huge_coefficient": (
        ["rewrite", "*".join(["9" * 1000] * 5) + "*(x1^2+x2^2)", "--group", "G(2,1,2)"], None
    ),
    "dependent_invariants": (
        ["rewrite", "x1^4 + x2^4"],
        dict(
            name="G(2,1,2)", conductor=1, rank=2,
            generators=[[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]],
            invariants=["x1^2 + x2^2", "x1^4 + 2*x1^2*x2^2 + x2^4"],
        ),
    ),
    # invariant, but not homogeneous: caught by jacobian before any group check
    "invariant_not_homogeneous": (
        ["compute"],
        dict(
            conductor=1, rank=2,
            generators=[[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]],
            invariants=["x1^2 + x2^2", "x1^2*x2^2 + x1^2 + x2^2"],
        ),
    ),
    "not_a_json_object": (["compute"], ["a", "list"]),
    "invalid_json": (["compute"], "{not json"),
    "not_utf8": (["compute"], UNREADABLE_JSON["not_utf8"]),
    "not_utf8_invariants": (["invariants"], UNREADABLE_JSON["not_utf8"]),
    "nested_too_deep": (["compute"], UNREADABLE_JSON["nested_too_deep"]),
    "nested_too_deep_rewrite": (["rewrite", "x1^2"], UNREADABLE_JSON["nested_too_deep"]),
    # more digits than int() converts from a string (4300 from Python 3.11 on)
    "integer_too_long": (
        ["compute"], '{"conductor": ' + "1" * 5000 + ', "rank": 1, "generators": [[["-1"]]]}'
    ),
    # a name must be a string of bounded length, in a spec file and in a
    # stored system, which verify reads in place of a spec file
    "name_not_a_string": (
        ["compute"], dict(name=list(range(100_000)), conductor=1, rank=1, generators=[[["-1"]]])
    ),
    "stored_group_not_a_string": (["verify"], dict(SIGN_SYSTEM, group=list(range(100_000)))),
}


class TestInputBoundary:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_2_without_traceback(self, case, tmp_path):
        argv, spec = BAD_INPUTS[case]
        if spec is not None:
            path = _spec_file(tmp_path, spec)
            argv = argv + ([path] if argv == ["verify"] else ["--spec-file", path])
        proc = _run_cli(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_verify_artifact_with_huge_conductor_exits_2(self, tmp_path):
        group, _, _, _, cs = pipeline("G(2,1,2)")
        data = system_to_dict(cs, "G(2,1,2)", group.conductor)
        data["conductor"] = 1000003
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        proc = _run_cli("verify", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
    def test_verify_unreadable_json_exits_2(self, case, tmp_path):
        proc = _run_cli("verify", _spec_file(tmp_path, UNREADABLE_JSON[case]))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot load system: stored system is ")

    def test_rank_above_bound_exits_2_at_once(self, tmp_path):
        # the Laplace det and adjugate of the Jacobian cost O(rank!): a zero
        # system with invariants x_i^i, and the group that diag(-1, 1, ..., 1)
        # generates, are refused at rank 9 before either is built
        rank = 9
        zero = [[{"num": "0", "den": "1"}] * rank] * rank
        artifact = dict(group="zero", conductor=1, rank=rank,
                        invariants=[f"x{i}^{i}" for i in range(1, rank + 1)],
                        denominator="1", matrices=[zero] * rank)
        path = tmp_path / "rank9.json"
        path.write_text(json.dumps(artifact))
        reflection = [["-1" if i == j == 0 else "1" if i == j else "0" for j in range(rank)]
                      for i in range(rank)]
        spec = _spec_file(tmp_path, dict(conductor=1, rank=rank, generators=[reflection]))
        for argv in (["verify", str(path)], ["compute", "--spec-file", spec]):
            t0 = time.perf_counter()
            proc = _run_cli(*argv)
            assert time.perf_counter() - t0 < 1.0
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            assert "rank must be at most 8, got 9" in proc.stderr

    def test_long_rejected_value_gives_a_short_error(self, tmp_path):
        # the error names the value's type and a bounded prefix of it
        conductor = list(range(200_000))
        spec = _spec_file(
            tmp_path, dict(conductor=conductor, rank=2, generators=[[["1", "0"], ["0", "1"]]])
        )
        artifact = tmp_path / "artifact.json"
        artifact.write_text(json.dumps(dict(
            group="g", conductor=conductor, rank=2, invariants=[], denominator="1", matrices=[]
        )))
        for argv in (["compute", "--spec-file", spec], ["verify", str(artifact)]):
            proc = _run_cli(*argv)
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            assert "conductor must be a positive integer, got [0, 1, 2" in proc.stderr
            assert "(list)" in proc.stderr
            assert len(proc.stderr.encode()) < 300

    @pytest.mark.parametrize("expr, quoted", [
        # within every parser bound, but not homogeneous: 2,016 terms
        ("(x1+x2+1)^61", "polynomial is not homogeneous: x1^61 + 61*x1^60*x2"),
        ("y" * 100_000, "unknown symbol 'yyy"),
    ])
    def test_long_rejected_expression_gives_a_short_error(self, expr, quoted):
        # the error quotes a bounded prefix of the polynomial or the token
        proc = _run_cli("rewrite", expr, "--group", "G(2,1,2)")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert quoted in proc.stderr
        assert len(proc.stderr.encode()) < 300

    @pytest.mark.parametrize("command", [
        ["invariants"], ["compute"], ["rewrite", "x1^2 + x2^2"],
    ])
    def test_long_unknown_group_gives_a_short_error(self, command):
        # the error quotes a bounded prefix of the --group value
        proc = _run_cli(*command, "--group", "G" * 100_000)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "no catalog entry named 'GGG" in proc.stderr
        assert len(proc.stderr.encode()) < 300

    @pytest.mark.parametrize("length", [MAX_NAME, MAX_NAME + 1])
    def test_names_of_bounded_length(self, length, tmp_path, capsys):
        code = 0 if length <= MAX_NAME else 2
        spec = _spec_file(
            tmp_path, dict(name="n" * length, conductor=1, rank=1, generators=[[["-1"]]])
        )
        assert main(["compute", "--spec-file", spec]) == code
        stored = tmp_path / "stored.json"
        stored.write_text(json.dumps(dict(SIGN_SYSTEM, group="g" * length)))
        assert main(["verify", str(stored)]) == code
        err = capsys.readouterr().err
        if code:
            assert f"name must be a string of at most {MAX_NAME} characters, got 'nnn" in err
            assert f"group must be a string of at most {MAX_NAME} characters, got 'ggg" in err

    def test_generator_of_infinite_order_exits_2_at_once(self, tmp_path):
        # diag(2, 1) would be closed until the default cap of 2^20 elements
        spec = _spec_file(
            tmp_path, dict(conductor=12, rank=2, generators=[[["2", "0"], ["0", "1"]]])
        )
        t0 = time.perf_counter()
        proc = _run_cli("compute", "--spec-file", spec)
        assert time.perf_counter() - t0 < 1.0
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "generator 1 (2,0;0,1) has infinite order" in proc.stderr

    @pytest.mark.parametrize("key, value", [
        ("conductor", "12"),
        ("rank", 2.5),
        ("m", "x"),
        ("matrices", 5),
        ("invariants", [2, 4]),
        ("denominator", 16),
        ("denominator", "0"),
    ])
    def test_verify_artifact_with_bad_header_exits_2(self, key, value, tmp_path):
        group, _, _, _, cs = pipeline("G(2,1,2)")
        data = system_to_dict(cs, "G(2,1,2)", group.conductor)
        data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = _run_cli("verify", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_verify_artifact_with_zero_entry_denominator_exits_2(self, tmp_path):
        group, _, _, _, cs = pipeline("G(2,1,2)")
        data = system_to_dict(cs, "G(2,1,2)", group.conductor)
        data["matrices"][0][0][0]["den"] = "0"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = _run_cli("verify", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("route", ["spec_file", "rewrite"])
    def test_sum_power_above_term_bound_exits_2_quickly(self, route, tmp_path):
        # (x1+x2+x3)^300 is within MAX_DEGREE but has 45,451 terms
        big = "(x1 + x2 + x3)^300"
        invariants = ["x1^2 + x2^2 + x3^2", "x1^4 + x2^4 + x3^4", "x1^6 + x2^6 + x3^6"]
        if route == "spec_file":
            invariants[2] = big
        path = _spec_file(tmp_path, dict(
            name="G(2,1,3)", conductor=1, rank=3,
            generators=[
                [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
                [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
                [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            ],
            invariants=invariants,
        ))
        argv = ["compute"] if route == "spec_file" else ["rewrite", big]
        t0 = time.perf_counter()
        proc = _run_cli(*argv, "--spec-file", path)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "terms" in proc.stderr
        assert elapsed < 1.0

    def test_conductor_two_zeta_spec_computes(self, tmp_path):
        path = _spec_file(
            tmp_path, dict(name="C2", conductor=2, rank=1, generators=[[["zeta"]]])
        )
        proc = _run_cli("compute", "--spec-file", path)
        assert proc.returncode == 0, proc.stderr
        assert "z1 = x1^2" in proc.stdout
