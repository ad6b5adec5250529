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

import numpy as np
import pytest

import finharm.cli
import finharm.reports
from finharm import SweepAborted, induced_rep, verify_orthogonality
from finharm.cli import main
from finharm.formatting import fmt_real
from oracle_helpers import assert_classes_are, brute_classes, loop_cosets

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
    # probes only: max_abs_error is the table's 3.10862446895e-15, though the
    # pairs' identity residuals reach 7.9936057773e-15, since residuals count
    # only where a check record carries them
    (["conjecture-probe", "symmetric:3"], 0,
     "82f47c382748017ac3104aebf1526eec30e22378cca0101d68d32cf69c34a443"),
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
    # one conjugacy class: the table of a 1 x 1 class algebra
    (["chartable", "cyclic:1", "--format", "csv"], 0,
     "b763574bf37a3ba7c86b6f535c7e6e24a59c1e28887fbd4714589ff67e220503"),
    # each CSV row section: the inversion row, one pair check, probe records;
    # and the tail of a sweep refused at its first pair
    (["plancherel-check", "quaternion", "--seed", "11", "--format", "csv"], 0,
     "f78a1089f9996f0d3c732bb555ea4d8fad9297b0642c17b554a1b044dbd62ef9"),
    (["whittaker-check", "cyclic:4", "--subgroup", "1", "--psi-index", "1", "--format", "csv"], 0,
     "7bc5bafdcd35956a63397ba73f52b425a5f19f3c88acd6c3b903f9330371f933"),
    (["conjecture-probe", "quaternion", "--subgroup", "1", "--format", "csv"], 0,
     "9455eae65ea20b6e797c8e197daaafb173a2ac2eaaa73da2ed9994be41e598a0"),
    (["sweep", "symmetric:3", "--psi-index", "1", "--format", "csv"], 2,
     "4b1e80d4ec54d1b4138c82214c686bb1458048f305243fdf792eabbe580ae20d"),
]

# Recorded when the one-class groups had a table path of their own, at seeds
# 0, 1 and 7.
ONE_CLASS_DIGESTS = {
    ("chartable", "cyclic:1"): (
        "dc194dd986159e49a6089f5987859287825400d7b2fbdeb4184f8806aa4c6c56",
        "47d12e7e2d2d79ebea0637f0df3c18edebe63a06c7adc3e46f13186a8dc754f7",
        "3584987a3342f69bfd8153ac2a944acb2172284f96c4ed38c02988f22a868378",
    ),
    ("plancherel-check", "cyclic:1"): (
        "8cec31194a03200243e4bb946afc0924e04249441ba90d6021b9b95cece0a20a",
        "f581266435bdda8ed87154c6fc7becf4746778e8c51e1174ae52b826d336f277",
        "4ec1c9dda6669e6effb02b96573735d1c6aca4366be4c99cc51de764933ff422",
    ),
    ("sweep", "cyclic:1"): (
        "25583c3d3cae1c3fb007ba4e67d1be7a4492be1e8d76103aaa044d26fe306de7",
        "c1d522973b7a07ee7e5e4f2650c3504549b0bd88310afbd8386296fba5110944",
        "e0ee4e4633f635db336f7982b028863da42c32acb162ddd36f56f2137ad6e2db",
    ),
    ("chartable", "product:cyclic:1*cyclic:1"): (
        "9c6d8daf934e129340050c32e998d095d843e7cfa9a830a35c1c4974e0d271d2",
        "52f42b8165f9855f038100e967659dbd4bf51d6a0dbfac7eb8982edb26e5cdcb",
        "27a23b680f1aa7927cd4bb16dcafe02ef34256b3a13a1ca95f7c5a761c3c49a9",
    ),
    ("plancherel-check", "product:cyclic:1*cyclic:1"): (
        "4be929fadb275234a0dc757cf9508b99c7eb9071fbdb63d30bda8116db5cf7c9",
        "14da947383e3cefb60f19abcb933ff0e6cd9aa43952f0001dd0d466408291d4e",
        "629de242692556275d6f7edcd578c33a914cbcc5e4237c55065839aacacdcee1",
    ),
    ("sweep", "product:cyclic:1*cyclic:1"): (
        "c5908d9a19b14895f3f741a1b0c5ff95759e2ac2db1614e4f203d065e3d8cd0c",
        "3f898183c9f79e9ff54dba6858d59ff85f2159d567534250c502037753e91e4c",
        "3960c2dad4ed246ebbe22082bd8e29bcc2e085b23ea6817df965dc7921d80008",
    ),
}
CASES += [
    ([command, spec, "--seed", str(seed)], 0, digest)
    for (command, spec), digests in ONE_CLASS_DIGESTS.items()
    for seed, digest in zip((0, 1, 7), digests)
]


@pytest.mark.parametrize(
    "argv, exit_code, digest", CASES, ids=[" ".join(c[0]) for c in CASES]
)
def test_report_digest_is_frozen(tmp_path, capsys, payload_watch, argv, exit_code, digest):
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == exit_code
    capsys.readouterr()
    payload_watch.check()
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


def test_derived_fields_are_their_definitions(monkeypatch, capsys, corpus_tables):
    # every value a table, an orthogonality check, an induced representation
    # or a report derives from its inputs, bit for bit, on the corpus tables
    # and on each table, subgroup and report of the golden cases, the aborted
    # runs included; and the index arrays of groups and subgroups, read-only
    tables, subgroups, reports = list(corpus_tables.values()), [], []
    table_of = finharm.reports.character_table
    characters_of = finharm.reports.linear_characters
    build = finharm.cli.build_report

    def recording_table(*args, **kwargs):
        tables.append(table_of(*args, **kwargs))
        return tables[-1]

    def recording_characters(U):
        subgroups.append(U)
        return characters_of(U)

    def recording_build(command, config):
        try:
            reports.append(build(command, config))
        except SweepAborted as exc:
            reports.append(exc.report)
            raise
        return reports[-1]

    monkeypatch.setattr(finharm.reports, "character_table", recording_table)
    monkeypatch.setattr(finharm.reports, "linear_characters", recording_characters)
    monkeypatch.setattr(finharm.cli, "build_report", recording_build)
    for argv, exit_code, _ in CASES:
        built = len(tables)
        assert main(argv) == exit_code
        report = reports[-1]
        assert report.passed is (report.payload["verdict"] == "pass") is (exit_code == 0)
        if "table" in report.payload:
            assert len(tables) == built + 1
            block, table = report.payload["table"], tables[-1]
            assert block["num_irreps"] == table.num_irreps == len(block["rows"])
            assert block["plancherel_weights"] == [fmt_real(w) for w in table.plancherel_weights]
    capsys.readouterr()
    assert len(reports) == len(CASES) and len(subgroups) > len(CASES)

    for table in tables:
        G = table.group
        assert table.num_irreps == len(table.degrees) == table.values.shape[0]
        weights = table.plancherel_weights
        assert weights.dtype == np.float64 and not weights.flags.writeable
        assert weights.tobytes() == (np.array(table.degrees, dtype=np.float64) / G.order).tobytes()
        ev = table.element_values
        assert ev.flags.c_contiguous and ev.flags.owndata and not ev.flags.writeable
        assert ev.tobytes() == table.values[:, G.class_of].tobytes()
        for orth in (table.orthogonality, verify_orthogonality(table)):
            assert orth.max_deviation == max(orth.max_row_deviation, orth.max_column_deviation)
        assert_classes_are(G, brute_classes(G))
    for U in subgroups:
        coset_of, reps = loop_cosets(U)
        assert U.left_coset_reps.dtype == np.int64 and not U.left_coset_reps.flags.writeable
        assert np.array_equal(U.left_coset_reps, reps)
        rep = induced_rep(U, characters_of(U)[0])
        assert rep.dimension == U.num_cosets == len(reps) == U.parent.order // U.order


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
def test_resample_digest_is_frozen(
    monkeypatch, capsys, payload_watch, threshold, argv, num_flagged, digest
):
    import finharm.induction

    monkeypatch.setattr(finharm.induction, "_THETA_ZERO_THRESHOLD", threshold)
    assert main(argv) == 0
    payload_watch.check()
    doc = json.loads(capsys.readouterr().out)
    assert sum(rec["num_flagged"] for blk in doc["probes"] for rec in blk["per_pi"]) == num_flagged
    assert doc["digest"] == digest
