"""Fuzz the CLI's input boundary: spec files for `compute` and stored
artifacts for `verify` must give exit 0, 2 or 3, and nothing may escape."""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reflconn.cli import main

from test_parsing import FUZZ_TOKENS

EXIT_CODES = {0, 2, 3}

fuzz_text = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=20).map("".join)

# Entries that often make a finite reflection group, so that the fuzz also
# reaches the closure, the invariants and the checks behind the parser.
SCALARS = ["0", "1", "-1", "zeta", "-zeta", "zeta^2", "zeta^3", "1/2", "-1/2*zeta^2"]
POLYS = ["x1^2", "x1^2 + x2^2", "x1^2*x2^2", "x1*x2", "x1^4 + x2^4", "x1", "x2^3"]
POLYS_RANK3 = ["x1^2 + x2^2 + x3^2", "x1^4 + x2^4 + x3^4", "x1*x2*x3", "x1 + x2 + x3", "x3^6"]
REFLECTIONS = {
    1: [[["-1"]], [["zeta"]], [["zeta^2"]]],
    2: [
        [["0", "1"], ["1", "0"]],
        [["-1", "0"], ["0", "1"]],
        [["zeta", "0"], ["0", "1"]],
        [["0", "zeta^2"], ["zeta", "0"]],
    ],
    3: [
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
        [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["zeta", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    ],
}


def _run(argv, files):
    """main(argv) in a scratch directory: each {name} in argv is the path
    of a file holding files[name], and {out} a path to write to."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": os.path.join(tmp, "out")}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        output = io.StringIO()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            return main([a.format(**paths) for a in argv])


@st.composite
def specs(draw):
    rank = draw(st.integers(1, 3))
    # mostly reflections and valid entries: a random matrix seldom closes
    entry = st.one_of(*[st.sampled_from(SCALARS)] * 3, fuzz_text)
    matrix = st.one_of(
        *[st.sampled_from(REFLECTIONS[rank])] * 2,
        st.lists(st.lists(entry, min_size=rank, max_size=rank), min_size=rank, max_size=rank),
    )
    spec = {
        "name": "fuzz",
        "conductor": draw(st.integers(1, 12)),
        "rank": rank,
        "cap": draw(st.integers(1, 64)),
        # three generators reach G(2,1,3), which closes within the cap
        "generators": draw(st.lists(matrix, min_size=1, max_size=max(2, rank))),
    }
    if draw(st.booleans()):
        polys = POLYS + POLYS_RANK3 if rank == 3 else POLYS
        poly = st.one_of(*[st.sampled_from(polys)] * 2, fuzz_text)
        spec["invariants"] = draw(st.lists(poly, min_size=rank, max_size=rank))
    return spec


class TestComputeSpecFuzz:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(specs(), st.sampled_from(["catalog", "reynolds"]), st.sampled_from(["json", "text", "latex"]))
    def test_exit_code_and_no_exception(self, spec, invariants, fmt):
        argv = ["compute", "--spec-file", "{spec}", "--invariants", invariants,
                "--format", fmt, "--out", "{out}"]
        assert _run(argv, {"spec": json.dumps(spec)}) in EXIT_CODES


@functools.lru_cache(maxsize=None)
def _artifact() -> str:
    """The JSON artifact of G(2,1,2), computed once."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        assert main(["compute", "--group", "G(2,1,2)", "--format", "json"]) == 0
    return output.getvalue()


@st.composite
def artifacts(draw):
    data = json.loads(_artifact())
    strings = [("invariants", k) for k in range(len(data["invariants"]))]
    strings.append(("denominator",))
    strings += [
        ("matrices", ell, r, c, key)
        for ell, mat in enumerate(data["matrices"])
        for r, row in enumerate(mat)
        for c, _ in enumerate(row)
        for key in ("num", "den")
    ]
    for where in draw(st.lists(st.sampled_from(strings), min_size=1, max_size=4)):
        *path, last = where
        node = data
        for key in path:
            node = node[key]
        node[last] = draw(fuzz_text)
    return json.dumps(data)


class TestVerifyArtifactFuzz:
    def test_the_real_artifact_verifies(self):
        assert _run(["verify", "{a}"], {"a": _artifact()}) == 0

    @settings(max_examples=200, deadline=None)
    @given(artifacts())
    def test_exit_code_and_no_exception(self, text):
        assert _run(["verify", "{a}"], {"a": text}) in EXIT_CODES


def test_unicode_digit_run_exits_2():
    # int() raised ValueError on 5,000 ARABIC-INDIC DIGIT THREEs
    assert _run(["rewrite", "\u0663" * 5000, "--group", "G(2,1,2)"], {}) == 2
