"""Frozen report digests: every subcommand must reproduce its report bit for bit.

JSON cases compare the report's own digest, which covers the whole payload;
CSV cases compare the SHA-256 of the complete rendered text. Two cases are
aborted runs whose partial reports pin down where a run stops. A digest here
may change only when CHANGES.md says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

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
