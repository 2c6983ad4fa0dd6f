"""Self-test of the benchmark at reduced size.

    python3 bench/selftest.py

Checks that BENCHMARK.json keeps to its format rules, runs every
workload tiny (n=32, 3 steps, a 10-point beta grid) with tracing off and
on, and checks that each run emits every declared metric with its unit,
with no failed operation.  Last, it checks that the benchmark refuses to
run, with a non-zero exit and no result, in a copy that holds only
BENCHMARK.json and the benchmark's own files.  Exits 0 iff all pass.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.match(n) or names.count(n) > 1]
    problems += [f"bad unit {m['unit']!r}" for m in spec["end_to_end"] + spec["per_layer"]
                 if not UNIT.match(m["unit"])]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append(f"bounds out of (0, 0.25]: {bounds}")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must carry the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        problems.append("workload count or run_seconds out of range")
    return problems


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec, workload, trace):
    proc = run(workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"error rate {result['failed']}/{result['attempted']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: {got}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def check_bare_copy(spec):
    """The benchmark must fail cleanly without the package sources."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
        return [f"exit {proc.returncode} with output {proc.stdout[-200:]!r}"]
    return []


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    checks = [("BENCHMARK.json", lambda: check_spec(spec))]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            checks.append((f"{workload} trace={trace}",
                           lambda w=workload, t=trace: check_run(spec, w, t)))
    checks.append(("bare copy refuses to run", lambda: check_bare_copy(spec)))
    failed = 0
    for label, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
