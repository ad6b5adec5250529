"""Frozen report digests: every subcommand must reproduce its report bit for bit.

JSON cases compare the report's own digest, which covers the whole payload;
CSV cases compare the SHA-256 of the complete rendered text. Two cases are
aborted runs whose partial reports pin down where a run stops. A digest here
may change only when CHANGES.md says why.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import finharm.cli
from finharm.cli import main

CASES = [
    (["chartable", "symmetric:4"], 0,
     "54d8179927dcc58743af26067f2ab93f5218c0093919e2ab6e46c05cf71f99d5"),
    (["chartable", "dihedral:4", "--format", "csv"], 0,
     "198f157b90909faf87ca7082256549f32d19af190700f9b4ebaabe2c4f59ecad"),
    (["plancherel-check", "quaternion", "--seed", "11"], 0,
     "8f03a8494c2491eaa381673c038f36220f2a646f6ac872512919a48d9be29ba8"),
    # complex-valued psi: the conjugate-multiplicity twist is visible
    (["whittaker-check", "cyclic:4", "--subgroup", "1", "--psi-index", "1"], 0,
     "aef046737b704d3dc2fb594929f06e42100b0c0107d6d6a4494bfbc2292a8a0a"),
    (["conjecture-probe", "quaternion", "--subgroup", "1"], 0,
     "c2133bc27e43c60481b631eef253aaf1fd4efce7aaf278d568561518af345374"),
    (["sweep", "symmetric:3"], 0,
     "630d7f38aa23de945d9a22f1feae571bd9406af9bc694d51e46d94ded39f0528"),
    (["sweep", "symmetric:3", "--format", "csv"], 0,
     "b38cdeb470ecce10b95691c132ec7a2a4d4b6a2355ebe7802423da00b24c8fdf"),
    (["sweep", "product:cyclic:2*cyclic:4"], 0,
     "fc670332bfd523910559bd1a4581771305107db95ff861899d030ce54524d171"),
    # 72 pairs whose 5th, 15th and 30th roots of unity are not quarter turns
    (["sweep", "product:cyclic:5*cyclic:6", "--count", "2"], 0,
     "8461c78f8b9fad5cf4e759f8b74f7fd5f71c1862afa3c039bd6189b37141c587"),
    # aborted after the table: order above the sweep cap
    (["sweep", "cyclic:201"], 2,
     "0988db46eebd3e6307d547c9df98ea9534c44022e43485b355ef25a83437005f"),
    # aborted at the first pair: the trivial subgroup has one character
    (["sweep", "symmetric:3", "--psi-index", "1"], 2,
     "d2bdd1eb6f3e9b581f900de94307b1c046712059e788344ca7b2f7da96681320"),
]


@pytest.mark.parametrize(
    "argv, exit_code, digest", CASES, ids=[" ".join(c[0]) for c in CASES]
)
def test_report_digest_is_frozen(tmp_path, capsys, argv, exit_code, digest):
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == exit_code
    capsys.readouterr()
    text = out.read_text()
    if "csv" in argv:
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        return
    doc = json.loads(text)
    assert doc["digest"] == digest
    del doc["digest"], doc["wall_time"]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest


JSON_CASES = [c for c in CASES if "csv" not in c[0]]


@pytest.mark.parametrize(
    "argv, exit_code", [c[:2] for c in JSON_CASES], ids=[" ".join(c[0]) for c in JSON_CASES]
)
def test_rendered_json_is_json_dumps(monkeypatch, argv, exit_code):
    # the goldens hash the payload; this pins the rendered text around it
    delivered = []
    monkeypatch.setattr(
        finharm.cli, "_deliver", lambda report, path: delivered.append(report) or True
    )
    assert main(argv) == exit_code
    (report,) = delivered
    doc = dict(report.payload, digest=report.digest, wall_time=report.wall_time)
    rendered = report.to_json()
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # equal exactly when the text after the common prefix is; a diff of the
    # whole documents would take pytest minutes
    at = len(os.path.commonprefix([rendered, expected]))
    assert rendered[at:at + 80] == expected[at:at + 80]


# The resample branch of conjecture_probe (|Theta_pi(f)| at or below the
# threshold) is never reached at the real threshold of 1e-6 by any other
# test. Raising the threshold forces it: at 4.0 most slots resample and some
# exhaust the budget, at 6.0 most do.
RESAMPLE_CASES = [
    (4.0, ["conjecture-probe", "symmetric:3", "--subgroup", "1", "--count", "6", "--seed", "4"],
     26, "aa18144fd12b12b695755105c941ffa9a9a7ac78c2bdb14ee54658ac085f50e7"),
    (4.0, ["sweep", "quaternion", "--count", "3", "--seed", "2"],
     19, "83f406db1d62f8112f7f61d4b568919d426d9c507e4f1936fa302f0c97d333dc"),
    (6.0, ["conjecture-probe", "symmetric:3", "--subgroup", "1", "--count", "6", "--seed", "4"],
     36, "98628e15bd4b366b5b58d239d6bde4ca8d4660e4bc5d3bea395723e80a61f7af"),
    (6.0, ["sweep", "quaternion", "--count", "3", "--seed", "2"],
     285, "50c56b9b4555914038cc68cf5d43bd81af326f5000f5020c9dcb086408c1f679"),
]


@pytest.mark.parametrize(
    "threshold, argv, num_flagged, digest",
    RESAMPLE_CASES,
    ids=[f"{c[0]} " + " ".join(c[1]) for c in RESAMPLE_CASES],
)
def test_resample_digest_is_frozen(monkeypatch, capsys, threshold, argv, num_flagged, digest):
    import finharm.induction

    monkeypatch.setattr(finharm.induction, "_THETA_ZERO_THRESHOLD", threshold)
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sum(rec["num_flagged"] for blk in doc["probes"] for rec in blk["per_pi"]) == num_flagged
    assert doc["digest"] == digest
