"""pipeflow benchmark: CLI-shaped jobs in a closed loop.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs jobs back to back for S seconds: each job is a fresh
interpreter (`job.py`) and the next starts only after the previous one
has ended.  Everything is single-threaded; the BLAS thread variables are
pinned to 1.  With `--trace 0` the last line of standard output reports
the end-to-end metrics as medians over the jobs that passed the
correctness gate, with times at a reference machine speed (see
job.Timeline); with `--trace 1` untraced and traced jobs alternate
and the last line reports the per-layer medians of the traced jobs plus
the tracing overhead.  Inputs come from `--seed` (see workloads.py).
Everything the run writes goes under `.bench_work/` in the checkout;
the result record is `.bench_work/BENCH_<workload>_seed<N>_trace<T>.json`
(`_tiny` appended for a --tiny run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = os.path.join(workloads.ROOT, ".bench_work")
JOB_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = dict(tracing.LAYER_UNITS, **{"trace.overhead_s": "s"})


def stem(spec):
    """Names a run's files under .bench_work; a tiny run never shares a
    name with a real one."""
    return (f"{spec['name']}_seed{spec['seed']}_trace{int(spec['trace'])}"
            + ("_tiny" if spec["tiny"] else ""))


def job_environment():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = workloads.SOURCE_DIR + (os.pathsep + path if path else "")
    return env


def machine_record(traced):
    """Interpreter, library versions and hardware, stored with each result."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu_model, caches = None, {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
        cache_dir = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache_dir)):
            def read(field, index=index):
                with open(os.path.join(cache_dir, index, field)) as fh:
                    return fh.read().strip()
            caches[f"L{read('level')} {read('type')}"] = read("size")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "sympy": version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "threads": {var: "1" for var in THREAD_VARS},
        "traced": bool(traced),
    }


def run_job(spec, directory, env):
    """One job in a fresh interpreter; returns its result dict."""
    os.makedirs(directory)
    spec = dict(spec, out_dir=os.path.join(directory, "out"))
    spec_path = os.path.join(directory, "spec.json")
    result_path = os.path.join(directory, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable, os.path.join(HERE, "job.py"), spec_path, result_path]
    try:
        proc = subprocess.run(cmd, env=env, cwd=directory, capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        stderr = f"job exceeded {JOB_TIMEOUT_S} s and was killed"
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"ok": False, "failures": [f"no result: {stderr[-2000:]}"]}
    result["traced"] = spec["trace"]
    if spec["trace"] and os.path.exists(os.path.join(directory, "spans.json")):
        os.replace(os.path.join(directory, "spans.json"),
                   os.path.join(WORK_ROOT, f"spans_{stem(spec)}.json"))
    shutil.rmtree(spec["out_dir"], ignore_errors=True)
    return result


def closed_loop(spec, seconds, traced, work_dir):
    """Jobs back to back for `seconds`: the next job starts only if the
    previous one's duration still fits.  At least one job runs (two in a
    traced run, which alternates untraced and traced jobs so both sides
    see the same machine state)."""
    env = job_environment()
    results, start = [], time.perf_counter()
    while True:
        trace = traced and len(results) % 2 == 1
        job_start = time.perf_counter()
        results.append(run_job(dict(spec, trace=trace),
                               os.path.join(work_dir, f"job{len(results)}"),
                               env))
        now = time.perf_counter()
        next_end = now - start + (now - job_start)
        if traced and len(results) < 2 and next_end <= RUN_LIMIT_S:
            continue
        if next_end > seconds:
            return results


def end_to_end(passed):
    """Medians over the passed jobs, times at the reference speed (see
    job.Timeline)."""
    phases = [r["scaled_phases"] for r in passed]
    return {
        "wall_s": median([p["wall_s"] for p in phases]),
        "setup_s": median([p["setup_s"] for p in phases]),
        "steps_per_s": median([r["steps"] / r["scaled_phases"]["run_s"]
                               for r in passed]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in passed]),
    }


def summarize(results, traced):
    """The result line: counts over every job, metrics over passed jobs."""
    passed = [r for r in results if r["ok"]]
    failed = len(results) - len(passed)
    if traced:
        plain = [r for r in passed if not r["traced"]]
        traced_ok = [r for r in passed if r["traced"]]
        names = list(traced_ok[0]["layers"]) if traced_ok else []
        values = {n: median([r["layers"][n] for r in traced_ok]) for n in names}
        if plain and traced_ok:
            # measured, not scaled: like the spans, and traced jobs
            # calibrate only between the top-level calls
            values["trace.overhead_s"] = (
                median([r["phases"]["wall_s"] for r in traced_ok])
                - median([r["phases"]["wall_s"] for r in plain]))
        metrics = {n: {"value": v, "unit": PER_LAYER[n]}
                   for n, v in values.items()}
    else:
        metrics = ({n: {"value": v, "unit": END_TO_END[n]}
                    for n, v in end_to_end(passed).items()} if passed else {})
    return {"correct": failed == 0 and bool(passed),
            "attempted": len(results), "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="coarse grid and a few steps, for the smoke test")
    args = parser.parse_args(argv)

    for needed in (os.path.join(workloads.SOURCE_DIR, "pipeflow", "cli.py"),
                   workloads.SCENARIO_DIR):
        if not os.path.exists(needed):
            print(f"error: {needed} is missing; run from a pipeflow checkout",
                  file=sys.stderr)
            return 2
    with open(os.path.join(HERE, "gate.json")) as fh:
        gate = json.load(fh)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = os.path.join(WORK_ROOT, tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    spec = workloads.generate(args.workload, args.seed,
                              os.path.join(work_dir, "inputs"), tiny=args.tiny)
    spec["gate"] = gate

    results = closed_loop(spec, args.seconds, bool(args.trace), work_dir)
    summary = summarize(results, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "tiny": args.tiny,
              "machine": machine_record(args.trace),
              "jobs": results, "summary": summary}
    name = stem(dict(spec, trace=args.trace))
    with open(os.path.join(WORK_ROOT, f"BENCH_{name}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work_dir, ignore_errors=True)

    for i, r in enumerate(results):
        wall = r.get("phases", {}).get("wall_s")
        state = "ok" if r["ok"] else "FAILED " + "; ".join(r["failures"])[:400]
        print(f"job {i} traced={int(r['traced'])} wall_s={wall} {state}")
    print("machine " + json.dumps(record["machine"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
