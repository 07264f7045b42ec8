"""Byte-identical CLI artifacts on a fixed config set.

Each config runs through ``cli.main`` and every file it writes is hashed.
The expected sha256 digests were recorded before the pair x time kernel
refactor; a change that moves any artifact byte fails here unless the
change declares the numeric difference and records new digests.
"""

import hashlib

import pytest
import yaml

from ifmlab.cli import main

OUTPUT = {"result": "result.json", "trace": "trace.csv", "report": "report.jsonl"}
LINE = {"induced": {"dimension": 1, "base_metric": "euclidean"}}
PLANE = {"induced": {"dimension": 2, "base_metric": "euclidean"}}
TABULATED = {
    "tabulated": {
        "labels": ["a", "b", "c"],
        "pairs": [
            {"between": ["a", "b"], "mu": [[0.5, 0.3], [4.0, 0.995]], "nu": [[0.5, 0.6], [4.0, 0.004]]},
            {"between": ["a", "c"], "mu": [[1.0, 0.2], [8.0, 0.995]], "nu": [[1.0, 0.7], [8.0, 0.004]]},
            {"between": ["b", "c"], "mu": 0.4, "nu": 0.5},
        ],
    }
}
HALF_SHIFT = {"affine": {"matrix": [[0.5]], "offset": [1.0]}}
PLANE_MAP = {"affine": {"matrix": [[0.5, 0.1], [0.0, 0.4]], "offset": [1.0, -1.0]}}

CONFIGS = {
    "solve-closed-ball-readme": ("solve", {
        "seed": 23, "space": LINE, "map": {"affine": {"matrix": [[0.5]], "offset": [0.4]}},
        "action": {"solve": {"regime": "closed_ball",
                             "ball": {"center": [0.0], "radius": 0.5, "time": 1.0}, "k": 0.5}},
    }),
    "solve-picard-plane": ("solve", {
        "seed": 5, "space": PLANE, "map": PLANE_MAP,
        "action": {"solve": {"regime": "picard", "x0": [3.0, 2.0]}},
    }),
    "solve-power": ("solve", {
        "seed": 7, "space": {"induced": {"dimension": 2, "base_metric": "chebyshev"}},
        "map": {"affine": {"matrix": [[0.0, 2.0], [0.125, 0.0]], "offset": [1.0, 0.5]}},
        "action": {"solve": {"regime": "power", "m": 2, "x0": [1.0, -2.0]}},
    }),
    "solve-picard-tabulated": ("solve", {
        "seed": 3, "space": TABULATED, "map": {"table": {"a": "a", "b": "a", "c": "b"}},
        "action": {"solve": {"regime": "picard", "x0": "c"}},
    }),
    "solve-picard-tabulated-unchecked": ("solve", {
        "seed": 3, "space": TABULATED, "map": {"table": {"a": "a", "b": "a", "c": "b"}},
        "solve": {"hypothesis_checks": False},
        "action": {"solve": {"regime": "picard", "x0": "c"}},
    }),
    "solve-closed-ball-tabulated": ("solve", {
        "seed": 3, "space": TABULATED, "map": {"table": {"a": "a", "b": "a", "c": "b"}},
        "action": {"solve": {"regime": "closed_ball",
                             "ball": {"center": "a", "radius": 0.65, "time": 1.0}, "k": 0.5}},
    }),
    "audit-tabulated": ("audit", {
        "seed": 2, "space": TABULATED, "action": {"audit": {"target": "space", "samples": 300}},
    }),
    "audit-induced": ("audit", {
        "seed": 4, "space": {"induced": {"dimension": 2, "base_metric": "absolute-difference"}},
        "action": {"audit": {"target": "space", "samples": 500}},
    }),
    "audit-operators": ("audit", {
        "operators": "product-probsum",
        "space": LINE, "action": {"audit": {"target": "operators", "grid_size": 30}},
    }),
    "check-if-contractive": ("check", {
        "seed": 1, "space": PLANE, "map": PLANE_MAP, "sampling": {"pairs": 300},
        "action": {"check": {"notion": "if_contractive"}},
    }),
    "check-direct-ratio": ("check", {
        "seed": 1, "space": LINE, "map": HALF_SHIFT, "sampling": {"pairs": 300},
        "action": {"check": {"notion": "direct_ratio"}},
    }),
    "check-t-uniform-continuity": ("check", {
        "seed": 1, "space": PLANE, "map": PLANE_MAP, "sampling": {"pairs": 300, "halfwidth": 3.0},
        "action": {"check": {"notion": "t_uniform_continuity", "epsilons": [0.1, 0.01]}},
    }),
    "check-contractive-sequence": ("check", {
        "seed": 1, "space": LINE, "map": HALF_SHIFT,
        "action": {"check": {"notion": "contractive_sequence", "k": 0.5, "x0": [0.0], "steps": 12}},
    }),
    "check-closed-ball-hypotheses": ("check", {
        "seed": 1, "space": LINE, "map": {"affine": {"matrix": [[0.5]], "offset": [0.4]}},
        "action": {"check": {"notion": "closed_ball_hypotheses",
                             "ball": {"center": [0.0], "radius": 0.5, "time": 1.0}, "k": 0.5}},
    }),
}

DIGESTS = {
    "audit-induced": (0, {
        "report.jsonl": "e74af2a89e998d352927b9fd172f67bbcb72fffa03cd59aec8a1395abf8b423c",
    }),
    "audit-operators": (0, {
        "report.jsonl": "44c95a8f0092250e94c0d0fc09e56cd2ef0b1a0fcd01cc468608b5c053a2bb35",
    }),
    "audit-tabulated": (1, {
        "report.jsonl": "cc51bd257e10d4c753cd1ffa63b9d880839172fa4b6d4f84fb92220dc839c7ee",
    }),
    "check-closed-ball-hypotheses": (0, {
        "report.jsonl": "8306b22a604901ff5e28de734f1e6c57b30dc070fbac2c469536d7a91d53a357",
    }),
    "check-contractive-sequence": (0, {
        "report.jsonl": "02bde4d616e731528d47f47e585920cece7c0e388b83dc5696966549efcde70f",
    }),
    "check-direct-ratio": (1, {
        "report.jsonl": "12018875a2dc056a0f3697fa1e765957782beb5d61432e42a5fd7517375736c6",
    }),
    "check-if-contractive": (0, {
        "report.jsonl": "65f45b9a1ce027391ae778902296182539f2a421467e171b150865f632bbcd2b",
    }),
    "check-t-uniform-continuity": (0, {
        "report.jsonl": "7074eeb7ae5900824203f64b2a4ba346715a575a42c32eae11e0818b09afce21",
    }),
    "solve-closed-ball-readme": (0, {
        "report.jsonl": "9e73108cf526061ee7a28a91e3ecc5be323f0d8b1c3ccb289eefcf0f148114ef",
        "result.json": "333cbe3f06ad2faf754b0103ff06ff4b08b47df43201b5500eb87d7760578f30",
        "trace.csv": "ea1b44696e2e66bd337a03033f25347d6fda92da3b6c0077e3cbd07fe782dc3f",
    }),
    "solve-closed-ball-tabulated": (0, {
        "report.jsonl": "2e5ba7c098558930157fa39d4f48d33f76a570679d8571d4b3e41a4d784afb3a",
        "result.json": "e9c3fd34a3feff1f1c361a585e02fdaa88ceec43aa60f7ac07b2e92de937a0cf",
        "trace.csv": "d5ea2937383706e6849f9eba26ae9b58d8af7576866ea398f9f19aab30e52d0c",
    }),
    "solve-picard-plane": (0, {
        "report.jsonl": "306cc0d183b36e4abcf84974f0a8017b17a98d43d01c269be6cd00bf7dd9a392",
        "result.json": "7b37157696e706ed41299d735415563e20a48dec5e79097dd9d5b3adddd863ee",
        "trace.csv": "f790342f1e4354b13321f1b2f051cfeb79f1284e46208ba528d7fc5501870ee0",
    }),
    "solve-picard-tabulated": (1, {
        "report.jsonl": "4b999960eacada33634ebedca000ff1a74f6bbcabfe2bc90350c7ea96b87bc94",
        "result.json": "933552c161eb38aefeeb7ed9d57aefa3de7111a989f7350a2abe6518c65c79f1",
        "trace.csv": "0e8f7df62ca354ec8e1f39c5d483e6aacfcbe70bdb3e7bc0f1acff4a9ecba0a4",
    }),
    "solve-picard-tabulated-unchecked": (0, {
        "report.jsonl": "08f98dae9f82a8f3fd5e3d83095d2fc97d62fba7ea80fa2dabeab381be10c4f7",
        "result.json": "8118899524239f5493b420d829f6fbc4023b547b45038a95e6d006e571f97a20",
        "trace.csv": "fc6415b7636a3324299b4c9dbc4c69a2d507107935c4f141540e05e74cbea660",
    }),
    "solve-power": (0, {
        "report.jsonl": "cca56feaa7be8b178340e33b109bcc92aa46613de5a9affefe561a02561db1e1",
        "result.json": "7dddb9b88bbf30b3a8a75e53aed100e96b0c501f913d7e2d25519365c7fb0df5",
        "trace.csv": "83d49b472afc5bc019e9b4dc754739e55c9d3f8c05d2eeec89237c42a2841689",
    }),
}


def artifact_digests(name, tmp_path):
    """Run one config through the CLI; sha256 of every file it wrote."""
    command, config = CONFIGS[name]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({**config, "output": OUTPUT}))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
    return code, digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_recorded_digests(name, tmp_path):
    code, digests = artifact_digests(name, tmp_path)
    assert (code, digests) == DIGESTS[name]
