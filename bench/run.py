"""selffield benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload evolve-n64 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each

Run from the repository root; the package is imported from ``src/``.  A
run with ``--trace 0`` measures the end-to-end metrics: a few set-up
probes (fresh processes timing imports plus the workload inputs), then one
measuring process that repeats the workload's timed unit for ``--seconds``
and checks every output.  ``--trace 1`` alternates untraced and traced
units in one process and reports the per-layer metrics from the spans.
Metric names and units come from ``BENCHMARK.json``; the last line of
standard output is the JSON result.  Scratch files, full results and
span dumps go to ``.bench_out/``.  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4          # set-up probes per run, plus the measuring process
RUN_LIMIT_S = 170.0       # every run ends well inside the 180 s limit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced sizes (n=32, 3 steps, 10-point beta grid)")
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# machine facts and thread pinning
# ---------------------------------------------------------------------------

def _nproc():
    return len(os.sched_getaffinity(0))


def pinned_env(workload):
    """Environment for workload processes: SELFFIELD_THREADS (the FFT
    workers and the sweep pool) as requested, else the workload's own
    setting, else nproc, and never above nproc; one BLAS/OpenMP thread
    unless set."""
    env = dict(os.environ)
    requested = env.get("SELFFIELD_THREADS", "").strip()
    if requested.isdigit() and int(requested) > 0:
        threads = int(requested)
    else:
        threads = WORKLOADS[workload].threads or _nproc()
    env["SELFFIELD_THREADS"] = str(min(threads, _nproc()))
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts():
    import numpy
    import scipy

    facts = {"nproc": _nproc(), "cpu": _cpu_model(),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": scipy.__version__}
    for var in ("SELFFIELD_THREADS",) + THREAD_VARS:
        facts[var] = os.environ.get(var)
    return facts


# ---------------------------------------------------------------------------
# workload process
# ---------------------------------------------------------------------------

def _run_units(workload, seconds, tracer):
    """Repeat the timed unit until the next one would overrun ``seconds``.

    Traced runs alternate untraced and traced units, at least one of each.
    """
    units, start = [], time.perf_counter()
    while True:
        traced = tracer is not None and len(units) % 2 == 1
        run_id = f"main/unit{len(units)}"
        with tracer.active(run_id) if traced else nullcontext():
            t0 = time.perf_counter()
            ops = workload.unit()
            wall = time.perf_counter() - t0
        units.append({"wall": wall, "traced": traced, "run": run_id,
                      "ops": [_op_record(workload, op) for op in ops]})
        elapsed = time.perf_counter() - start
        need_traced = tracer is not None and len(units) < 2
        if not need_traced and elapsed + elapsed / len(units) > seconds:
            return units


def _op_record(workload, op):
    failure = op.error
    if failure is None:
        try:
            failure = workload.check(op)
        except Exception as exc:  # malformed output fails the operation
            failure = f"{op.kind}: unreadable output ({type(exc).__name__}: {exc})"
    return {"kind": op.kind, "seconds": op.seconds, "items": op.items,
            "failure": failure}


def _layer_metrics(tracer, workload, units, seed, workdir):
    """Per-layer metrics from the traced units; layers those never reach
    come from one tiny unit of each other workload (the coverage pass)."""
    from spans import layer_metrics

    sources = [("main", sum(u["traced"] for u in units))]
    coverage_units = []
    for name, cls in WORKLOADS.items():
        if name == workload.name:
            continue
        other = cls(seed, True, os.path.join(workdir, name))
        os.makedirs(os.path.join(workdir, name))
        with tracer.active(f"coverage:{name}/setup"):
            other.setup()
        with tracer.active(f"coverage:{name}/unit0"):
            ops = other.unit()
        coverage_units.append({"wall": None, "traced": True, "run": f"coverage:{name}",
                               "ops": [_op_record(other, op) for op in ops]})
        sources.append((f"coverage:{name}", 1))
    metrics = {}
    for source, n_units in sources:
        spans = [s for s in tracer.spans if s.run.split("/")[0] == source]
        for key, (value, unit) in layer_metrics(spans, n_units).items():
            metrics.setdefault(key, (value, unit, source))
    traced = [u["wall"] for u in units if u["traced"]]
    plain = [u["wall"] for u in units if not u["traced"]]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio", "main")
    return metrics, coverage_units


def workload_process(args):
    """Body of a set-up probe or of the measuring process."""
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        import selffield.cli  # noqa: F401  (imports are part of set-up)
        import selffield.dynamics  # noqa: F401

        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        with tracer.active("main/setup") if tracer else nullcontext():
            workload.setup()
        setup_end = time.perf_counter()
        if args.role == "setup":
            print(json.dumps({"setup_end": setup_end}))
            return 0
        units = _run_units(workload, args.seconds, tracer)
        import resource
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {"setup_end": setup_end, "units": units, "peak_rss_mb": peak_mib,
                  "describe": workload.describe(), "machine": machine_facts()}
        if tracer is not None:
            layer, coverage = _layer_metrics(tracer, workload, units, args.seed,
                                             workdir)
            result.update(layer=layer, coverage=coverage, missing=tracer.missing)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# orchestration and reporting
# ---------------------------------------------------------------------------

class RunFailed(Exception):
    pass


def _argv(args, workload, *extra):
    """Command line re-running this script for one workload."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), *extra] + (["--tiny"] if args.tiny else [])


def _child(args, role, deadline):
    argv = _argv(args, args.workload, "--role", role)
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=pinned_env(args.workload), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{role} process timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"{role} process exited {proc.returncode}:\n{proc.stderr}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["setup_end"] - started
    return data


def summary(values):
    """(median, sample count, highest percentile with >= 10 samples beyond it)."""
    values = sorted(values)
    n = len(values)
    tail = None
    for p in (99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            tail = (p, values[rank - 1])
            break
    return statistics.median(values), n, tail


def _line(name, values, unit):
    median, n, tail = summary(values)
    extra = f", p{tail[0]:g} {tail[1]:.6g}" if tail else ", no percentile with >=10 beyond"
    print(f"  {name:<22} {median:<14.6g} {unit:<6} (median of n={n}{extra})")
    return median


def _declared(mode):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec[mode]]


def orchestrate(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append(_child(args, "setup", deadline)["setup_s"])
    data = _child(args, "measure", deadline)
    setup.append(data["setup_s"])
    units = data["units"] + data.get("coverage", [])
    attempted = sum(len(u["ops"]) for u in units)
    failures = [op["failure"] for u in units for op in u["ops"] if op["failure"]]

    machine = data["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {data['describe']}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for failure in failures:
        print(f"# FAILED: {failure}")
    plain = [u for u in data["units"] if not u["traced"]]
    kind, rate_name = WORKLOADS[args.workload].rate
    rates = []
    for u in plain:
        ops = [op for op in u["ops"] if op["kind"] == kind]
        rates.append(sum(op["items"] for op in ops) / sum(op["seconds"] for op in ops))
    computed = {}
    if args.trace:
        for name, (value, unit, source) in sorted(data["layer"].items()):
            computed[name] = (value, unit)
            note = "" if source == "main" else f"  [from {source}]"
            print(f"  {name:<46} {value:<14.6g} {unit}{note}")
        for target in data["missing"]:
            print(f"# wrap target absent: {target}")
    else:
        computed["setup_s"] = (_line("setup_s", setup, "s"), "s")
        computed["wall_s"] = (_line("wall_s", [u["wall"] for u in plain], "s"), "s")
        computed["throughput_per_s"] = (_line(rate_name, rates, "1/s"), "1/s")
        for kind_name, metric in (("cli-call", "cli_call_s"), ("validate", "validate_s")):
            samples = [op["seconds"] for u in plain for op in u["ops"]
                       if op["kind"] == kind_name]
            if samples:
                _line(metric, samples, "s")
        computed["peak_rss_mb"] = (data["peak_rss_mb"], "MiB")
        print(f"  {'peak_rss_mb':<22} {data['peak_rss_mb']:<14.6g} MiB")
        print(f"  {'error_rate':<22} {len(failures) / attempted:<14.6g} ratio "
              f"({len(failures)} failed of {attempted})")
    metrics = {}
    for name, unit in _declared("per_layer" if args.trace else "end_to_end"):
        if name not in computed:
            print(f"# metric absent: {name}")
            continue
        value, got_unit = computed[name]
        if got_unit != unit:
            raise RunFailed(f"{name}: unit {got_unit}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"result": result, "machine": machine, "setup_s": setup,
                   "units": units, "describe": data["describe"]}, fh, indent=1)
    print(json.dumps(result))


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "selffield" / "__init__.py").is_file():
        print(f"bench: no selffield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.role is not None:
        return workload_process(args)
    if args.workload is None:
        code = 0
        for name in WORKLOADS:
            code = max(code, subprocess.run(_argv(args, name)).returncode)
        return code
    try:
        orchestrate(args)
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
