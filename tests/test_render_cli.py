"""Rendering (text/JSON/LaTeX), serialization round trips, and the CLI."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import reflconn
from reflconn.cli import main
from reflconn.cyclo import CycloNum
from reflconn.errors import DenominatorMismatch
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

    def test_readable_poly_uses_i_sqrt3(self):
        f = px("x1^4 + (-2 + 4*zeta^2)*x1^2*x2^2 + x2^4")
        assert readable_poly(f) == "x1^4 + 2*i*sqrt(3)*x1^2*x2^2 + x2^4"


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
        assert back.m == cs.m
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
            "group", "conductor", "rank", "invariants", "m",
            "denominator", "matrices",
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

    def test_cap_flag(self, capsys):
        assert main(["compute", "--group", "G(2,1,2)", "--cap", "4"]) == 2
        assert "CapExceeded" in capsys.readouterr().err

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
    """A spec file holding spec as JSON, or the text itself if spec is a str."""
    path = tmp_path / "spec.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    return str(path)


BAD_INPUTS = {
    "zero_denominator": (["rewrite", "1/0", "--group", "G4"], None),
    "conductor_zero": (
        ["compute"], dict(name="c0", conductor=0, rank=1, generators=[[["-1"]]])
    ),
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
    "not_a_json_object": (["compute"], ["a", "list"]),
    "invalid_json": (["compute"], "{not json"),
}


class TestInputBoundary:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_2_without_traceback(self, case, tmp_path):
        argv, spec = BAD_INPUTS[case]
        if spec is not None:
            argv = argv + ["--spec-file", _spec_file(tmp_path, spec)]
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
