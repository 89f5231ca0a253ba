"""The artifact contract: rendered catalog systems are pinned byte for byte.

The JSON digests equal those of `reflconn compute --group <g> --format json`,
with and without `--invariants reynolds`.  A change to any of them is a
change of the program's output.
"""

import functools
import hashlib
from pathlib import Path

import pytest

from reflconn.connection import connection_in_z, jacobian, scaled_connection
from reflconn.groups import group_from_spec, load_group_spec
from reflconn.invariants import fundamental_invariants
from reflconn.render import render_json, render_latex, render_text
from reflconn.verify import full_report

from conftest import RANK3_GENERATORS, catalog, derived_pipeline, pipeline, rank3_group

SHA256 = {
    "G(2,1,2)": (
        "ec802f5d3164621646861a3b18bafff8592587bd717b03846219d9a9a1a7f33a",
        "e94ff0796982299361e3de5dbacf0d307653e2fa09b87066367ba9434c3c88de",
        "da26feaff2fcee4f6f84655c6637dff8156dbd68b95d4858e526030af7d60191",
    ),
    "G4": (
        "edd740d8b890a23f48834188581f756bdd7afce5f9d7fbe946205691d0885a4f",
        "033ddd2431bd577c61589f7fbb79d4cdf5a6d3d25e3eaa25b5c6192b00662456",
        "8e1c1d8f31108d77242cfe0f1ae37758d8440dcba19405164c066447dacaa90c",
    ),
    "G5": (
        "38bb633610846c556b893cf9744386f47a0cc10648bfb700a338ddedad65e3e8",
        "c447e4a98f24a825e1f0d3ace1100e63b8a6abe4738f81bff76bd4b09c13c65b",
        "987a3dc01fc92e004dbfe02fa37d601488e16f2c5c86d44ca7a28a76e11503dd",
    ),
    "G6": (
        "52699c6055a135c27dca95c1484fcc596fe2da77b8a722a876790adf2772e040",
        "3e1ddfb887917ec1ac45ca11ba77b48052d12d74933cd11c90da353072182009",
        "cb02350e9d650f801f46e5c9380de67bdc1b2bb84821d355f9fc05b0b7a44b79",
    ),
    "G7": (
        "21658982a42495ba880b25edb67948fc1c40ae5633b220dd545a9800a3880868",
        "1896a80112a879666c740766649e1c07550af4d611ae9f37adfcf5a7f94d1dc8",
        "498190ddfdeba075f0d60f13eaae6e9faf0870040920929234863b2bf95b0bc0",
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
    "G(2,1,2)": "d7f30fd724060036b90c1d3bd9216681bc80b02f5d4185ab2bf53b31e5590116",
    "G4": "edd740d8b890a23f48834188581f756bdd7afce5f9d7fbe946205691d0885a4f",
    "G5": "094207f2f2c458fed9023354e605c27a25b87260cc6a8690486af7a32fbfcfda",
    "G6": "142a057486688e858a72bfdfb659e7454cf0b792bddcdcebf102d4cf4e6b7091",
    "G7": "61773d9d83ee7cda852217d3db36920681f4407859404d3836fac9f3c0165afa",
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
        "92b4608843f7f7a3db7fe298e1a980abd091f639c99b1b8d5e520b3c6ab184c0",
        "c4cc4b9414480a64fd89bb2357bdc4e5caea78ee6e0968525b6676e52fdc347c",
        "8a751020c0fc2f7064bd89b7e314f07893df623a3a5a9fabc602d01ec5ffbd13",
    ),
    "G(3,3,3)": (
        "2b5e721cae60ec1b432a67e54fa77764b9487564e6c76614351cb49aba14668f",
        "23e64fef02a74fac0983c8a41599bb437252783f5ab72abdaa2e0b20656cca92",
        "9a92a850671c23c2354155c5b2badaed5bbffab096943fb112a38e9f180f7359",
    ),
}


@pytest.mark.parametrize("name", sorted(RANK3_SHA256))
def test_rank3_artifacts_are_pinned(name):
    group, _, _, _, cs = derived_pipeline(name)
    latex = render_latex(cs, name)
    json_sha, text_sha, latex_sha = RANK3_SHA256[name]
    assert _sha256(render_json(cs, name, group.conductor)) == json_sha
    assert _sha256(render_text(cs, name)) == text_sha
    assert _sha256(latex) == latex_sha
    # the scalar grammar's "1/2" is not LaTeX
    assert r"\tfrac{" in latex and "/" not in latex


# JSON of the full systems of groups past the catalog and the benchmark, on
# their Reynolds invariants; each also passes every check of full_report
EXTRA_JSON_SHA256 = {
    "G(3,1,3)": "a611bc157ddb341d013a5fc5dcab7c8d15f5839b96bc76a8a70c236c2456a0bc",
    "G(4,1,2)": "cd2aeccb542bae983cef7814c27775ed01c096b23cc590d63589af9eb4b1a459",
}


@pytest.mark.parametrize("name", sorted(EXTRA_JSON_SHA256))
def test_extra_artifacts_are_pinned(name):
    group, phi, jd, sc, cs = derived_pipeline(name)
    assert full_report(group, phi, jd, sc, cs).all_passed
    assert _sha256(render_json(cs, name, group.conductor)) == EXTRA_JSON_SHA256[name]


# (json, text, latex) of `reflconn compute --spec-file tests/data/g2_1_2_zeta5.json`:
# G(2,1,2) over Q(zeta_5), whose Reynolds invariants carry zeta, zeta^2 and
# zeta^3, so the printer's powers-of-zeta branch runs at a conductor other than 12
ZETA5_SHA256 = (
    "bfc72122497819c923cd53fbcbfb18d9613cd69c3cd69af045894fb2cc9ca640",
    "8cbbccd31455510c1fc926ebdd380ded7fee216a3f66e47bf27f988340907a16",
    "44e1022ba3dd9077512d5f4f993aa1207c141e01264e78f3b744dee8d471efef",
)


def test_zeta5_artifacts_are_pinned():
    spec = load_group_spec(str(Path(__file__).parent / "data" / "g2_1_2_zeta5.json"))
    group = group_from_spec(spec)
    phi = fundamental_invariants(group)
    jd = jacobian(phi)
    sc = scaled_connection(jd, group=group)
    cs = connection_in_z(sc, phi)
    assert full_report(group, phi, jd, sc, cs).all_passed
    name = spec["name"]
    latex = render_latex(cs, name)
    assert all(z in latex for z in (r"\zeta{}", r"\zeta^{2}", r"\zeta^{3}"))
    json_sha, text_sha, latex_sha = ZETA5_SHA256
    assert _sha256(render_json(cs, name, group.conductor)) == json_sha
    assert _sha256(render_text(cs, name)) == text_sha
    assert _sha256(latex) == latex_sha
