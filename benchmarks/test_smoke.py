"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import importlib.util
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(name):
    sys.path.insert(0, HERE)
    spec = importlib.util.spec_from_file_location(
        f"pipeflow_bench_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_every_metric_printed_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    for workload in names:
        result = _run(workload, trace=0)
        assert result["correct"] and result["failed"] == 0, result
        assert _units(result) == _declared("end_to_end")
    result = _run("study_eps_y", trace=1)
    assert result["correct"] and result["attempted"] >= 2, result
    assert _units(result) == _declared("per_layer")


def test_broken_result_counts_as_failed():
    job, harness = _load("job"), _load("run")
    with open(os.path.join(HERE, "gate.json")) as fh:
        gate = json.load(fh)
    pinned = gate["pins"]["simulate_y1024"]["final_energy"]
    spec = {"name": "simulate_y1024", "kind": "simulate", "seed": 0,
            "tiny": False}
    assert job.check_outputs(spec, {"run_failures": [], "final_energy": pinned},
                             gate) == []
    broken = job.check_outputs(
        spec, {"run_failures": [], "final_energy": pinned * (1 + 1e-3)}, gate)
    assert broken

    phases = {"wall_s": 2.0, "setup_s": 1.0, "run_s": 0.5, "write_s": 0.1}
    good = {"ok": True, "scaled_phases": phases, "steps": 10,
            "peak_rss_mb": 100.0}
    bad = {"ok": False, "failures": broken,
           "scaled_phases": dict(phases, wall_s=0.1), "steps": 10,
           "peak_rss_mb": 1.0}
    summary = harness.summarize([good, bad, good], traced=False)
    assert (summary["attempted"], summary["failed"]) == (3, 1)
    assert summary["correct"] is False
    # the failed job is never timed as a success
    assert summary["metrics"]["wall_s"]["value"] == 2.0
    assert summary["metrics"]["peak_rss_mb"]["value"] == 100.0


def test_seed_zero_copies_the_committed_scenarios(tmp_path):
    workloads = _load("workloads")
    for name in workloads.WORKLOADS:
        spec = workloads.generate(name, 0, str(tmp_path / f"{name}-0"))
        with open(os.path.join(workloads.SCENARIO_DIR,
                               workloads.WORKLOADS[name]["scenario"])) as fh:
            committed = fh.read()
        with open(spec["scenario_path"]) as fh:
            assert fh.read() == committed
        jittered = workloads.generate(name, 7, str(tmp_path / f"{name}-7"))
        with open(jittered["scenario_path"]) as fh:
            assert fh.read() != committed
