"""Seconds-long check of the benchmark itself, on the smoke workload.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. It checks that:
- run.py prints exactly the metrics BENCHMARK.json declares, traced and not,
  and that the smoke operations pass the gate against their goldens;
- the gate counts a wrong golden, a failing verdict and a tampered payload;
- the tracer rebinds every module copy of a wrapped function and reports
  functions, methods and modules that do not exist as absent, not as errors.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import run
from tracer import LAYERS, Tracer


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_cli_contract() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "smoke", "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
        ).stdout.splitlines()
        detail, result = json.loads(out[-2]), json.loads(out[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"result keys {sorted(result)}")
        if not (result["correct"] and result["failed"] == 0 and detail["golden_checked"]):
            fail(f"smoke --trace {trace} did not pass its goldens: {detail['failures']}")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != declared:
            fail(f"--trace {trace} metrics differ from {key}: {sorted(set(printed) ^ set(declared))}")
    print("ok: smoke passes its goldens and prints the declared metrics")


def check_gate() -> None:
    ops = run.operations("smoke", 0)
    (rep,) = run.run_lockstep(ops, [(run.child_env(run.SRC), False)], 60)
    attempted, failed, _ = run.gate(ops, [rep], None)
    if (attempted, failed) != (len(ops), 0):
        fail(f"clean smoke repetition: {failed}/{attempted} failed")
    _, failed, _ = run.gate(ops, [rep], ["0" * 64] * len(ops))
    if failed != len(ops):
        fail("a wrong golden digest was not counted")
    report = rep["results"][0]["report"]
    tampered = dict(rep["results"][0], report=report.replace('"verdict": "pass"', '"verdict": "fail"'))
    if run.check_report(tampered)[1] != "digest does not match the report payload":
        fail("a tampered payload was not caught")
    doc = json.loads(report)
    doc["verdict"] = "fail"
    doc.pop("digest")
    doc.pop("wall_time")
    doc["digest"] = run.hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    failing = dict(rep["results"][0], report=json.dumps(doc))
    if run.check_report(failing)[1] != "verdict 'fail'":
        fail("a failing verdict was not caught")
    print("ok: the gate counts wrong goldens, tampered payloads and failing verdicts")


def check_tracer() -> None:
    sys.path.insert(0, str(run.SRC))
    missing = (
        ("groups", "no_such_function", None, None),
        ("no_such_module", "main", None, None),
        ("reports", "SweepReport.no_such_method", None, None),
    )
    tracer = Tracer(LAYERS + missing)
    tracer.install()
    import finharm.cli
    import finharm.harmonic
    import finharm.induction

    if finharm.induction.whittaker_kernel is not finharm.harmonic.whittaker_kernel:
        fail("whittaker_kernel was not rebound in every module")
    for i, argv in enumerate(run.operations("smoke", 0)):
        tracer.begin_op(i)
        with contextlib.redirect_stdout(io.StringIO()):
            if finharm.cli.main(argv) != 0:
                fail(f"traced {' '.join(argv)} failed")
    summary = tracer.summary()
    expected_absent = {f"{mod}.{qual}" for mod, qual, _, _ in missing}
    if set(tracer.absent_metrics()) != expected_absent:
        fail(f"absent spans {tracer.absent_metrics()}")
    if any(summary[f"{name}.calls"] for name in expected_absent):
        fail("an absent span recorded calls")
    # harmonic imports induction.multiplicity_frobenius lazily, inside the batch check
    if "harmonic.generalized_plancherel_check_batch" not in tracer.callers("induction.multiplicity_frobenius"):
        fail("the lazily imported multiplicity_frobenius was not traced")
    if summary["cli.main.calls"] != 3 or summary["cli.main.self_s"] < 0:
        fail("cli.main spans are wrong")
    print("ok: the tracer rebinds module copies and reports missing functions as absent")


if __name__ == "__main__":
    check_cli_contract()
    check_gate()
    check_tracer()
