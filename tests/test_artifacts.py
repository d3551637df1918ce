"""Every bundled config reproduces its artifacts byte for byte.

Each config under ``configs/`` runs through ``cli.main`` from the repository
root, and the SHA-256 of every artifact it writes is pinned here.
``run_report.json`` is left out because it records the wall time.  The
hashes were taken with numpy 2.4.6.  A deliberate change that moves a last
digit updates the hash here, and the change with its new hash is recorded
in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from magnon_hybrid.cli import main

ROOT = Path(__file__).resolve().parents[1]

ARTIFACTS = {
    ("modes", "modes_ring4"): {
        "modes.csv": "1fb71dd37ce55bde61865d2a80edc3d930d3c86bb504e5c9e0244d1bee57afa9",
        "modes.json": "ea064f7962b7daf56604d1a76d04e07846aa20116a667fea746f3217214d7a61",
    },
    ("sweep", "sweep_n4"): {
        "branches.csv": "296d2fc7b179f400798ee3a9803e89f93502551b20f8800078aa62ebaef8e239",
        "branches.svg": "224ce9968b82441488948f812716b3a1ef235c8e5cb1a6a817aa80ea8b61a916",
    },
    ("synth", "synth_n4"): {
        "map.csv": "0e4320df767a22f11ab159c3034c104ba1a976df7f0dfe142fc9580f715682f1",
    },
    ("synth", "synth_n8"): {
        "map.csv": "d7858abc543c79b187c83c52e1128ed51cafce851e6d547b7789ebea174062b6",
    },
    ("fit", "fit_n4"): {
        "fit_result.json": "52dc35c4a18033458ecf347241b1969a115868ec50183fb15a1961da8c7b36a6",
        "regime_report.json": "37c7eda1441bfe5334c1befd9722efe7ccdef277c03dc0143ec27a2e8670c439",
        "residuals.svg": "bbcea884851fe85632239031ea1844728bff482a278f6eaae51b25b1f7683323",
    },
    ("estimate", "estimate_yig"): {
        "estimate.json": "15200623843ba7d27926045d2c920f561d7a9f96cc03e89ba6fd7a9bc6a4a9cb",
    },
}


def test_every_bundled_config_is_pinned():
    assert sorted(p.stem for p in (ROOT / "configs").glob("*.json")) == sorted(
        config for _, config in ARTIFACTS)


def _no_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command, config", list(ARTIFACTS), ids=[c for _, c in ARTIFACTS])
def test_bundled_artifacts_are_byte_identical(tmp_path, monkeypatch, command, config):
    monkeypatch.chdir(ROOT)    # fit_n4 names its data file relative to the root
    out = tmp_path / config
    assert main([command, "--config", f"configs/{config}.json", "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir() if p.name != "run_report.json"}
    assert got == ARTIFACTS[command, config]
    for path in out.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
