"""finharm benchmark: closed-loop CLI workloads behind a correctness gate.

    python3 perfbench/run.py --workload {tables,lattice,deep,smoke} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. One client issues one CLI operation at a time (a closed loop), with
BLAS pinned to one thread and every process pinned to one CPU. Every
repetition of the workload's fixed operation list runs in a fresh interpreter
(perfbench/worker.py), because real CLI calls always start cold. Repetitions
come in pairs run in lockstep, one operation of each side in turn, and
continue until ``--seconds`` is spent.

``--trace 0`` pairs the checkout with the frozen reference copy in
perfbench/reference and reports the end-to-end metrics: wall_s (operations
only, import excluded) and setup_s (fresh ``import finharm.cli``), both at
the reference pace (see NOTES.md), peak_rss_mb (peak resident memory of the
process that ran the workload) and pass_ratio (1 - failed/attempted).
``--trace 1`` pairs untraced with traced repetitions of the checkout and
reports the per-layer metrics of perfbench/tracer.py plus the tracing
overhead.

Every operation must exit 0 with verdict pass, a complete report and a digest
that matches its payload; on a seed with recorded goldens (golden.json) the
digest must equal the golden, and on any seed it must be the same in every
repetition, traced or not. The last stdout line is the result object; the
line before it records the environment, the samples and any failures.

``--record`` runs the workload once and stores its digests as the goldens
for that seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
# Frozen copy of src/finharm from the commit that added this benchmark. Each
# timed repetition is paired with one of this copy, and times are reported at
# the copy's pace (see "Pacing" in NOTES.md).
REFERENCE = BENCH / "reference"
# Median seconds of the reference copy on a 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4, scipy 1.17, OpenBLAS on one thread).
REFERENCE_WALL_S = {"tables": 3.67, "lattice": 3.36, "deep": 2.88, "smoke": 0.04}
REFERENCE_SETUP_S = 0.46

SETUP_SAMPLES = 3
# a run never outlives this, whatever --seconds says; workers are killed at it
RUN_CAP_S = 150.0

# Why each workload exists is recorded in perfbench/NOTES.md.
WORKLOADS: dict[str, list[list[str]]] = {
    "tables": [
        ["chartable", spec]
        for spec in (
            "dihedral:500",
            "heisenberg:13",
            "heisenberg:11",
            "cyclic:256",  # r^3 tensor of 134 MB; cyclic:512 would need 1 GiB
            "product:heisenberg:5*dihedral:5",
            "symmetric:6",
            "product:dihedral:6*quaternion",
        )
    ],
    "lattice": [
        ["sweep", spec, "--count", "2"]
        for spec in (
            "symmetric:4",
            "dihedral:12",
            "heisenberg:3",
            "product:quaternion*cyclic:3",
            "product:dihedral:4*cyclic:2",
        )
    ],
    "deep": [
        ["sweep", "heisenberg:5", "--subgroup", "25", "--count", "100"],
        ["sweep", "product:dihedral:6*quaternion", "--subgroup", "1", "--count", "250"],
        ["plancherel-check", "heisenberg:11", "--count", "800"],
    ],
    # seconds-long self-check of the gate and the tracer; not in BENCHMARK.json
    "smoke": [
        ["chartable", "symmetric:3"],
        ["sweep", "symmetric:3", "--count", "2"],
        ["plancherel-check", "symmetric:3", "--count", "5"],
    ],
}

_SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import finharm.cli; "
    "s = time.perf_counter() - t; import finharm; print(s, finharm.__file__)"
)


def operations(workload: str, seed: int) -> list[list[str]]:
    return [argv + ["--seed", str(seed)] for argv in WORKLOADS[workload]]


def child_env(source: Path) -> dict[str, str]:
    """Environment of a child interpreter that imports finharm from `source`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(source)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same set iteration order in every process
    return env


def setup_sample(env: dict[str, str]) -> float:
    """Seconds for a fresh interpreter to import finharm.cli from env's PYTHONPATH."""
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.split()
    source = Path(env["PYTHONPATH"]).resolve()
    if not Path(out[1]).resolve().is_relative_to(source):
        raise RuntimeError(f"finharm imported from {out[1]}, not from {source}")
    return float(out[0])


def _next_message(proc: subprocess.Popen) -> dict | None:
    """The worker's next message, with the report attached to an operation header."""
    line = proc.stdout.readline()
    if not line:
        return None
    message = json.loads(line)
    if "bytes" in message:
        message["report"] = proc.stdout.read(message["bytes"]).decode()
    return message


def _go(proc: subprocess.Popen) -> bool:
    try:
        proc.stdin.write(b"\n")
        proc.stdin.flush()
    except (BrokenPipeError, OSError):
        return False
    return True


def run_lockstep(
    ops: list[list[str]], sides: list[tuple[dict[str, str], bool]], timeout: float, flip: bool = False
) -> list[dict]:
    """One repetition per side, each in a fresh interpreter, run in lockstep.

    A side is (environment, traced). Once every worker has imported, the
    sides take turns one operation at a time, so the same operation of two
    sides is timed seconds apart; the side that goes first alternates from
    one operation to the next, starting with the last side when `flip`.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(ops)]
    procs = [
        subprocess.Popen(cmd + ["1" if traced else "0"], stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, env=env, cwd=ROOT)
        for env, traced in sides
    ]
    reps = [{"traced": traced, "results": [], "done": None} for _, traced in sides]
    watchdog = threading.Timer(max(timeout, 1.0), lambda: [p.kill() for p in procs])
    watchdog.start()
    try:
        alive = [_next_message(p) is not None for p in procs]  # ready lines
        for i in range(len(ops)):
            order = range(len(procs))
            if (i + flip) % 2:
                order = reversed(order)
            for k in order:
                message = alive[k] and _go(procs[k]) and _next_message(procs[k])
                if message:
                    reps[k]["results"].append(message)
                else:
                    alive[k] = False
        for proc in procs:
            proc.stdin.close()  # lets every worker write its summary and exit
        for k, proc in enumerate(procs):
            reps[k]["done"] = _next_message(proc) if alive[k] else None
    finally:
        watchdog.cancel()
        for proc in procs:
            if not proc.stdin.closed:
                proc.stdin.close()
            proc.stdout.close()
            proc.wait()
    for rep, proc in zip(reps, procs):
        rep["returncode"] = proc.returncode
    return reps


def check_report(result: dict) -> tuple[str | None, str | None]:
    """(digest, None) for a passing operation, else (digest or None, reason)."""
    if result["error"]:
        return None, result["error"]
    if result["rc"] != 0:
        return None, f"exit code {result['rc']}"
    try:
        doc = json.loads(result["report"])
    except ValueError:
        return None, "report is not JSON"
    digest = doc.pop("digest", None)
    doc.pop("wall_time", None)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(canonical.encode()).hexdigest() != digest:
        return digest, "digest does not match the report payload"
    if doc.get("incomplete"):
        return digest, "report is incomplete"
    if doc.get("verdict") != "pass":
        return digest, f"verdict {doc.get('verdict')!r}"
    return digest, None


def gate(ops: list[list[str]], reps: list[dict], goldens: list[str] | None) -> tuple[int, int, list[str]]:
    """Check every operation of every repetition; returns (attempted, failed, reasons).

    The reference digest of an operation is its golden when one is recorded,
    otherwise the first passing digest seen in this run.
    """
    reference: list[str | None] = list(goldens) if goldens else [None] * len(ops)
    attempted = failed = 0
    reasons: list[str] = []
    for rep in reps:
        for i, argv in enumerate(ops):
            attempted += 1
            if i < len(rep["results"]):
                digest, reason = check_report(rep["results"][i])
            else:
                digest, reason = None, f"no result (worker exit {rep['returncode']})"
            if reason is None and reference[i] is None:
                reference[i] = digest
            elif reason is None and digest != reference[i]:
                reason = "digest differs from the golden" if goldens else "digest differs between repetitions"
            if reason is not None:
                failed += 1
                trace = "traced " if rep["traced"] else ""
                reasons.append(f"{trace}{' '.join(argv)}: {reason}")
    return attempted, failed, reasons


def wall_s(rep: dict) -> float:
    return sum(r["seconds"] for r in rep["results"])


def load_goldens() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def record(workload: str, seed: int, env: dict[str, str]) -> int:
    ops = operations(workload, seed)
    (rep,) = run_lockstep(ops, [(env, False)], RUN_CAP_S)
    digests = []
    for argv, result in zip(ops, rep["results"]):
        digest, reason = check_report(result)
        if reason is not None:
            print(f"not recorded: {' '.join(argv)}: {reason}", file=sys.stderr)
            return 1
        digests.append(digest)
    if len(digests) != len(ops):
        print("not recorded: the worker stopped early", file=sys.stderr)
        return 1
    goldens = load_goldens()
    goldens.setdefault(str(seed), {})[workload] = digests
    GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {workload} at seed {seed}")
    return 0


def paced(nominal: float, pairs: list[tuple[float, float]]) -> float:
    """`nominal` scaled by the median of the (reference, checkout) time ratios."""
    return nominal * statistics.median(checkout / reference for reference, checkout in pairs)


def paced_operations(nominal: float, pairs: list[tuple[dict, dict]], count: int) -> float:
    """`nominal` scaled by the mean over operations of each operation's median
    (checkout / reference) time ratio, weighted by the operation's median
    reference time. Only pairs in which both sides finished every operation
    count; with none, the result is 0 (and the run is not correct)."""
    complete = [(r, c) for r, c in pairs if len(r["results"]) == len(c["results"]) == count]
    if not complete:
        return 0.0
    weights = [statistics.median(r["results"][i]["seconds"] for r, _ in complete) for i in range(count)]
    ratios = [
        statistics.median(c["results"][i]["seconds"] / r["results"][i]["seconds"] for r, c in complete)
        for i in range(count)
    ]
    return nominal * sum(w * q for w, q in zip(weights, ratios)) / sum(weights)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this seed's digests as goldens")
    args = parser.parse_args()

    if not (SRC / "finharm" / "cli.py").is_file():
        print(f"error: no finharm sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2
    # Every child runs on one CPU, so both sides of a pair share its speed;
    # on a VM, vCPUs can differ in speed for as long as a process lives.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env, ref_env = child_env(SRC), child_env(REFERENCE)
    start = time.perf_counter()
    # compile bytecode and check where finharm comes from; not counted
    setup_sample(env)
    if args.record:
        return record(args.workload, args.seed, env)
    setup_sample(ref_env)

    ops = operations(args.workload, args.seed)
    goldens = load_goldens().get(str(args.seed), {}).get(args.workload)
    setup_pairs = [] if args.trace else [
        (setup_sample(ref_env), setup_sample(env)) for _ in range(SETUP_SAMPLES)
    ]
    deadline = start + args.seconds
    cap = start + RUN_CAP_S
    # trace: (untraced, traced) pairs; otherwise (reference, checkout) pairs
    sides = [(env, False), (env, True)] if args.trace else [(ref_env, False), (env, False)]
    side_a: list[dict] = []
    side_b: list[dict] = []
    while True:
        round_start = time.perf_counter()
        a, b = run_lockstep(ops, sides, cap - round_start, flip=len(side_a) % 2 == 1)
        side_a.append(a)
        side_b.append(b)
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
    if args.trace:
        plain, traced, reference = side_a, side_b, []
    else:
        plain, traced, reference = side_b, [], side_a

    attempted, failed, reasons = gate(ops, plain + traced, goldens)
    _, ref_failed, ref_reasons = gate(ops, reference, goldens)
    runs = plain + traced + reference
    finished = [rep for rep in runs if rep["done"] is not None]
    correct = failed == 0 and ref_failed == 0 and len(finished) == len(runs)
    plain_walls = [wall_s(rep) for rep in plain]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "operations": [" ".join(argv) for argv in ops],
        "env": finished[0]["done"]["env"] if finished else None,
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "golden_checked": goldens is not None,
        "fail_ratio": failed / attempted,
        "failures": (reasons + [f"reference {r}" for r in ref_reasons])[:20],
        "wall_s_samples": plain_walls,
    }
    if args.trace:
        layer_reps = [rep["done"]["layers"] for rep in traced if rep["done"]]
        metrics = {}
        for name, unit in metric_units().items():
            values = [layers[name] for layers in layer_reps if name in layers]
            value = statistics.median(values) if values else 0
            if unit in ("count", "bytes"):
                value = round(value)
            metrics[name] = {"value": value, "unit": unit}
        traced_walls = [wall_s(rep) for rep in traced]
        overhead = paced(1.0, list(zip(plain_walls, traced_walls))) - 1.0
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        detail["traced_wall_s_samples"] = traced_walls
        detail["absent"] = sorted({a for rep in traced if rep["done"] for a in rep["done"]["absent"]})
    else:
        peaks = [rep["done"]["peak_rss_mb"] for rep in plain if rep["done"]]
        ref_walls = [wall_s(rep) for rep in reference]
        detail["reference_wall_s_samples"] = ref_walls
        detail["operation_s"] = [[r["seconds"] for r in rep["results"]] for rep in plain]
        detail["reference_operation_s"] = [[r["seconds"] for r in rep["results"]] for rep in reference]
        detail["setup_s_samples"] = [c for _, c in setup_pairs]
        detail["reference_setup_s_samples"] = [r for r, _ in setup_pairs]
        detail["peak_rss_mb_samples"] = peaks
        metrics = {
            "wall_s": {
                "value": paced_operations(REFERENCE_WALL_S[args.workload], list(zip(reference, plain)), len(ops)),
                "unit": "s",
            },
            "setup_s": {"value": paced(REFERENCE_SETUP_S, setup_pairs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(peaks) if peaks else 0.0, "unit": "MB"},
            "pass_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
