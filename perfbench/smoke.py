"""Smoke check of the benchmark itself (about a minute).

Run from the root of a checkout:

    python3 perfbench/smoke.py

It confirms that a short untraced and a short traced run print every metric
of ``BENCHMARK.json`` with its unit and pass their correctness checks, that
each correctness check rejects output checked against a wrong expected
value, and that the benchmark exits non-zero without printing a result in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(bench.OUT_DIR, "smoke-bare")


def check(cond, message):
    if not cond:
        print(f"smoke: FAILED {message}")
        sys.exit(1)


def result_of(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = result_of("sweep", trace)
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"trace {trace}: {result}")
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"trace {trace}: metrics/units {got} != {want}")
        for name, m in result["metrics"].items():
            check(isinstance(m["value"], (int, float)), f"{name} value {m['value']!r} is not a number")


def check_checks_reject_wrong_expectations():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import heatlab.cli

    for op in workloads.sweep_ops(3):
        code, text, err = workloads.run_operation(heatlab.cli.main, op)
        units, bad, reason = workloads.failed_units(op, code, text)
        check(bad == 0, f"{op.name} failed its own check: {reason} {err}")
        if op.kind.startswith("sweep"):
            for factor in (1.01, 0.5):
                wrong = workloads.Operation(op.name, op.argv, op.kind, op.expected * factor)
                check(workloads.failed_units(wrong, code, text)[1] == 1, f"{op.name} accepted expected x {factor}")
        else:
            check(workloads.failed_units(op, 4, text)[1] == 1, f"{op.name} accepted exit code 4")
    verify = workloads.verify_ops(0)[0]
    lines = "".join(f"[pass] criterion {c:2d} (  0.01s): c\n" for c in range(1, 18))
    check(workloads.failed_units(verify, 0, lines)[1] == 0, "verify rejected 17 passing criteria")
    broken = lines.replace("[pass] criterion  4", "[FAIL] criterion  4")
    check(workloads.failed_units(verify, 4, broken)[1] == 1, "verify accepted a failed criterion")
    wrong = workloads.Operation(verify.name, verify.argv, verify.kind, verify.expected + 1)
    check(workloads.failed_units(wrong, 0, lines)[1] == 1, "verify accepted 17 criteria when 18 were expected")


def check_bare_directory_fails():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    shutil.copy("BENCHMARK.json", SCRATCH)
    shutil.copytree(HERE, os.path.join(SCRATCH, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=SCRATCH, capture_output=True, text=True, timeout=180)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    check(proc.returncode != 0, "benchmark exited 0 without the package sources")
    check('"metrics"' not in proc.stdout, "benchmark printed a result without the package sources")


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_checks_reject_wrong_expectations()
    check_bare_directory_fails()
    check_metrics(spec)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
