"""The artifact contract: rendered catalog systems are pinned byte for byte.

The JSON digests equal those of `reflconn compute --group <g> --format json`,
with and without `--invariants reynolds`.  A change to any of them is a
change of the program's output.
"""

import functools
import hashlib

import pytest

from reflconn.connection import connection_in_z, jacobian, scaled_connection
from reflconn.invariants import fundamental_invariants
from reflconn.render import render_json, render_latex, render_text

from conftest import RANK3_GENERATORS, catalog, pipeline, rank3_group

SHA256 = {
    "G(2,1,2)": (
        "3d9b0689e28c1248bdb661c2c551edf2e7cc912d5eedb348299e220a02ccc164",
        "1bb8ed10c5b8e374bbcc576b8e63d2466ee0e05ab5ddea548c7b734712f0457a",
        "da26feaff2fcee4f6f84655c6637dff8156dbd68b95d4858e526030af7d60191",
    ),
    "G4": (
        "669b0f70a91b889bb796a05b3f74ae2281541bb11aa764b14e0683fd356a5a8b",
        "4107670cd0cd156340d8cceeca5e74a75871d027387d009c1a5e9f78d351f5a9",
        "eb41bdf772541f7265204796ab2384db462855082b0b85abca1c6caa4c5e813c",
    ),
    "G5": (
        "0e93231feeb2e5660ee16fb9b3ba52a6039e03779433b6ef118b5d4af0c1d1aa",
        "d370ec6b80d4bd19e49b02001025152463f4c7a2c98e4cb9105c299906b3cec8",
        "73439e94c703ef5270a3599a2948ff41dda60e14a48ca6d2c38a74b31d1e6c0d",
    ),
    "G6": (
        "583ddea2dfc5be666e968e7c4a22a22d2e3d80ef05aaf0f6e0dda3dc38faa76a",
        "adceadca5ff0112a44907fd8f4d81bb89df0ca8fad5219654153a824c5326593",
        "c846b638d69631cce4268e649a480dbab0a8e7b5b49a08dd4fad519a3f63047a",
    ),
    "G7": (
        "8ef22226b4c8f6c5af773a09afd250be9e6d3b290ce20ede78c387a632f2f6b0",
        "a55700bcc6da40b74293151af7f144c241a25cf158a8d873d8fb9af6c79e082d",
        "cb03067af1d4ca2907abc72e6b5deff18fb1d390d316666d4f609f1594a26c71",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SHA256))
def test_rendered_artifacts_are_pinned(name):
    group, _, _, _, cs = pipeline(name)
    json_sha, text_sha, latex_sha = SHA256[name]
    assert _sha256(render_json(cs, name, group.conductor)) == json_sha
    assert _sha256(render_text(cs, name)) == text_sha
    assert _sha256(render_latex(cs, name)) == latex_sha


# `reflconn compute --group <g> --invariants reynolds --format json`
REYNOLDS_JSON_SHA256 = {
    "G(2,1,2)": "67a760ffe406a7cd73b20d746481d61f3d3ee292b58d7867552311766d87c6f6",
    "G4": "669b0f70a91b889bb796a05b3f74ae2281541bb11aa764b14e0683fd356a5a8b",
    "G5": "1e0176f103ec65e3cad5b4385d01c8b876e0a3464a048c5c489a5a0dc22acacf",
    "G6": "cbdf3103a9bc9766059ea3a1738fd54db4d382357385e2580177db5c481e5a88",
    "G7": "500853a94c1fccb618e4d6477e80778273c5c05b4d0f9b18042252bdb295a519",
}

# fundamental_invariants of the groups the benchmark derives invariants for
REYNOLDS_PHIS = {
    "G(2,1,2)": ("x1^2 + x2^2", "x1^4 + x2^4"),
    "G4": (
        "x1^4 + (-2 + 4*zeta^2)*x1^2*x2^2 + x2^4",
        "x1^5*x2 - x1*x2^5",
    ),
    "G6": (
        "x1^4 + (-2 + 4*zeta^2)*x1^2*x2^2 + x2^4",
        "x1^12 - 33*x1^8*x2^4 - 33*x1^4*x2^8 + x2^12",
    ),
    "G(2,1,3)": ("x1^2 + x2^2 + x3^2", "x1^4 + x2^4 + x3^4", "x1^6 + x2^6 + x3^6"),
    "G(3,3,3)": ("x1^3 + x2^3 + x3^3", "x1*x2*x3", "x1^6 + x2^6 + x3^6"),
}


@functools.lru_cache(maxsize=None)
def _reynolds_invariants(name):
    group = rank3_group(name) if name in RANK3_GENERATORS else catalog(name)[0]
    return group, fundamental_invariants(group)


@pytest.mark.parametrize("name", sorted(REYNOLDS_JSON_SHA256))
def test_reynolds_artifacts_are_pinned(name):
    group, phi = _reynolds_invariants(name)
    jd = jacobian(phi, det_char_order=group.det_char_order)
    cs = connection_in_z(scaled_connection(jd, group=group), phi)
    assert _sha256(render_json(cs, name, group.conductor)) == REYNOLDS_JSON_SHA256[name]


@pytest.mark.parametrize("name", sorted(REYNOLDS_PHIS))
def test_reynolds_invariants_are_pinned(name):
    _, phi = _reynolds_invariants(name)
    assert tuple(str(p) for p in phi.phis) == REYNOLDS_PHIS[name]


# (json, text, latex) of the rank-3 systems the benchmark builds, on the
# invariants above.  At their conductors, 1 and 3, the LaTeX writes its
# coefficients in powers of zeta, the rational ones as \tfrac.
RANK3_SHA256 = {
    "G(2,1,3)": (
        "1fd51e20078def9051f14bcdebeae97595adf3b882120933f0b46f95ee558566",
        "9ca40744c25f552e86b9e9e62d82da97236ac37ba623d4b67d1b98d1366abc61",
        "8a751020c0fc2f7064bd89b7e314f07893df623a3a5a9fabc602d01ec5ffbd13",
    ),
    "G(3,3,3)": (
        "d313e3a13fc96370336b5ad933d44faf778d8d7417b31a577439d42c089bda6a",
        "7c8316ec379081b4ae295b6a07285b9e3c6891ab204bb3c8f877297c2cba8860",
        "9a92a850671c23c2354155c5b2badaed5bbffab096943fb112a38e9f180f7359",
    ),
}


@pytest.mark.parametrize("name", sorted(RANK3_SHA256))
def test_rank3_artifacts_are_pinned(name):
    group, phi = _reynolds_invariants(name)
    jd = jacobian(phi, det_char_order=group.det_char_order)
    cs = connection_in_z(scaled_connection(jd, group=group), phi)
    latex = render_latex(cs, name)
    json_sha, text_sha, latex_sha = RANK3_SHA256[name]
    assert _sha256(render_json(cs, name, group.conductor)) == json_sha
    assert _sha256(render_text(cs, name)) == text_sha
    assert _sha256(latex) == latex_sha
    # the scalar grammar's "1/2" is not LaTeX
    assert r"\tfrac{" in latex and "/" not in latex
