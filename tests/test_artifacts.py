"""The artifact contract: rendered catalog systems are pinned byte for byte.

The JSON digests equal those of `reflconn compute --group <g> --format json`.
A change to any of them is a change of the program's output.
"""

import hashlib

import pytest

from reflconn.render import render_json, render_latex, render_text

from conftest import pipeline

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
