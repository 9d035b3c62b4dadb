"""One benchmark job, run in a fresh interpreter.

    python3 benchmarks/job.py SPEC.json RESULT.json

The job makes the public calls that `pipeflow simulate` or `pipeflow
study epsilon` makes, in the same order, and times the phases between
them: import, load_scenario, build_system, initial_state, run (or the
study), the writers.  Calibration rounds spread through the job measure
the machine's speed (see `Calibration`).  The job checks the outputs
(see `check_outputs`) in a phase of its own, which no end-to-end time
includes, and writes one JSON result.  With `"trace": true` in the
spec it also installs the span wrappers and reports per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from dataclasses import replace

clock = time.perf_counter
SETUP = ("import", "load", "build", "initial_state")
LABELS = SETUP + ("run", "write", "gate")
CALIBRATE_EVERY_S = 0.25
# Seconds of one calibration round at the reference speed, about its
# median on a quiet 2-core Xeon; the end-to-end times are reported at
# that speed.
CALIBRATION_REF_S = 0.017


class Calibration:
    """A fixed piece of work that uses no pipeflow code: pure-Python
    loops, small numpy operations and two sparse LU solves (scipy's
    SuperLU) of a 2-D Laplacian, the three kinds of work the workloads
    do.  Its duration measures the machine's speed at that moment."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sparse
        from scipy.sparse.linalg import splu

        m = 40
        line = sparse.diags([np.full(m - 1, -1.0), np.full(m, 2.0),
                             np.full(m - 1, -1.0)], [-1, 0, 1])
        eye = sparse.eye(m)
        self.matrix = (sparse.kron(line, eye) + sparse.kron(eye, line)
                       + 0.1 * sparse.eye(m * m)).tocsc()
        self.rhs = np.ones(m * m)
        self.vector = np.linspace(0.0, 1.0, 64)
        self.np, self.splu = np, splu

    def __call__(self):
        """Seconds one round of the work takes."""
        start = clock()
        total = 0
        for i in range(100000):
            total += i * i
        counts = {}
        for i in range(30000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        for _ in range(100):
            self.vector.dot(self.vector)
            self.np.sin(self.vector)
        for _ in range(2):
            self.splu(self.matrix).solve(self.rhs)
        return clock() - start


class Timeline:
    """Seconds per kind of work along the job: each `mark(label)` adds
    the time since the previous mark to `label`.  At a mark at least
    CALIBRATE_EVERY_S after the last calibration (always at the first
    mark), a calibration round runs; its time counts under no label.
    Besides the measured seconds, the timeline keeps the seconds at the
    reference speed: the time marked between two calibration rounds,
    scaled by CALIBRATION_REF_S over the duration of the round that
    closes it.  The speed of a shared machine swings by half within
    seconds and drifts by a third over minutes; the round next to the
    work measures the speed it ran at."""

    def __init__(self):
        self.last = clock()
        self.last_calibration = float("-inf")
        self.pending = dict.fromkeys(LABELS, 0.0)
        self.seconds = dict.fromkeys(LABELS, 0.0)
        self.scaled = dict.fromkeys(LABELS, 0.0)
        self.calibration = None
        self.calibration_s = []

    def mark(self, label):
        now = clock()
        self.pending[label] += now - self.last
        self.last = now
        if now - self.last_calibration >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self):
        """Run a calibration round; it closes the time marked since the
        previous one."""
        if self.calibration is None:
            self.calibration = Calibration()
        took = self.calibration()
        self.calibration_s.append(took)
        for label, seconds in self.pending.items():
            self.seconds[label] += seconds
            self.scaled[label] += seconds * CALIBRATION_REF_S / took
        self.pending = dict.fromkeys(LABELS, 0.0)
        self.last = self.last_calibration = clock()

    def mark_steps(self, solver_mod):
        """Mark "run" after every solver step, so that calibration rounds
        are spread through the run."""
        for cls in (solver_mod.HyperbolicStepper, solver_mod.ParabolicStepper):
            cls.step = self._marked(cls.step)

    def _marked(self, step):
        def marked(*args, **kwargs):
            result = step(*args, **kwargs)
            self.mark("run")
            return result
        return marked


def phases(seconds):
    """Seconds per label as `<label>_s`, plus wall_s (everything but the
    gate) and setup_s."""
    totals = {f"{label}_s": t for label, t in seconds.items()}
    totals["wall_s"] = sum(t for label, t in seconds.items()
                           if label != "gate")
    totals["setup_s"] = sum(seconds[label] for label in SETUP)
    return totals


def run_simulate(spec, timeline):
    from pipeflow import scenario as scenario_mod
    from pipeflow import solver as solver_mod

    scenario = scenario_mod.load_scenario(spec["scenario_path"])
    if spec["cells"] is not None:
        scenario = replace(scenario, cells_per_edge=spec["cells"])
    timeline.mark("load")
    system = scenario.build_system()
    timeline.mark("build")
    state0 = scenario.initial_state(system)
    timeline.mark("initial_state")
    traj = solver_mod.run(system, state0, scenario.solver, scenario.boundary,
                          bounds=scenario.bounds)
    timeline.mark("run")
    out = spec["out_dir"]
    os.makedirs(out, exist_ok=True)
    if spec["outputs"] == "snapshots":
        scenario_mod.write_trajectory(out, system, traj,
                                      fmt=scenario.output_format)
    scenario_mod.write_energy_trace(os.path.join(out, "energy.csv"), traj)
    scenario_mod.write_manifest(os.path.join(out, "manifest.txt"), scenario,
                                extra={"command": "simulate"})
    timeline.mark("write")
    run_failures = check_run(system, scenario.solver, traj, spec["gate"])
    timeline.mark("gate")
    return {"steps": len(traj.states) - 1,
            "final_energy": traj.reports[-1].energy,
            "run_failures": run_failures}


def run_study(spec, timeline):
    from pipeflow import scenario as scenario_mod
    from pipeflow import studies as studies_mod

    scenario = scenario_mod.load_scenario(spec["scenario_path"])
    if spec["cells"] is not None:
        scenario = replace(scenario, cells_per_edge=spec["cells"])
    timeline.mark("load")

    # Check each run as it returns, so the job holds no trajectory the
    # study itself would have freed; the checks are "gate" time.
    steps, run_failures = [], []
    study_run = studies_mod.run

    def checked(system, state0, config, boundary, **kwargs):
        traj = study_run(system, state0, config, boundary, **kwargs)
        timeline.mark("run")
        steps.append(len(traj.states) - 1)
        run_failures.extend(check_run(system, config, traj, spec["gate"]))
        timeline.mark("gate")
        return traj
    studies_mod.run = checked

    result = studies_mod.epsilon_limit_study(scenario, spec["eps_list"],
                                             certify=True, threads=1)
    timeline.mark("run")
    out = spec["out_dir"]
    os.makedirs(out, exist_ok=True)
    result.write_table(os.path.join(out, "study_epsilon.csv"))
    for i, cert in enumerate(result.certificates):
        cert.write_trace(os.path.join(
            out, f"stability_epsilon_{result.parameters[i]:g}.csv"))
    scenario_mod.write_manifest(
        os.path.join(out, "manifest.txt"), scenario,
        extra={"command": "study epsilon",
               "study.parameters": ",".join(map(str, result.parameters)),
               "study.slope": result.slope, "threads": 1})
    timeline.mark("write")
    return {"steps": sum(steps),
            "errors": [float(e) for e in result.errors],
            "slope": result.slope,
            "certified": bool(result.all_certified),
            "run_failures": run_failures}


def check_run(system, config, traj, gate):
    """Power balance on a hyperbolic run and junction mass conservation
    on every state a step produced.

    The power-balance residual is not zero: implicit midpoint keeps only
    quadratic energies exactly, so the floor sits well above the
    scheme's own O(dt^3) defect and below what a wrong residual or
    Jacobian leaves behind."""
    import numpy as np

    failures = []
    if traj.warnings:
        failures.append(f"admissibility lost: {traj.warnings[0]}")
    if not config.parabolic and len(traj.reports) > 1:
        residual = max(abs(r.balance_residual) for r in traj.reports[1:])
        floor = gate["power_balance_floor"] * max(
            1.0, abs(traj.reports[0].energy))
        if not residual <= floor:
            failures.append(f"power-balance residual {residual:.3e} "
                            f"exceeds {floor:.3e}")
    if system.n_junctions and len(traj.states) > 1:
        defect = max(float(np.max(np.abs(system.junction_mass_defect(s))))
                     for s in traj.states[1:])
        if not defect <= gate["junction_defect_max"]:
            failures.append(f"junction mass defect {defect:.3e} exceeds "
                            f"{gate['junction_defect_max']:.1e}")
    return failures


def _off_pin(value, pinned, rtol):
    return not abs(value - pinned) <= rtol * abs(pinned)


def check_outputs(spec, outcome, gate):
    """The correctness gate: a list of failures, empty when the job passes."""
    failures = list(outcome["run_failures"])
    pins = gate["pins"].get(spec["name"]) if spec["seed"] == 0 and not spec["tiny"] else None
    rtol = gate["pin_rtol"]
    if spec["kind"] == "study":
        if not outcome["certified"]:
            failures.append("stability certificate failed")
        lo, hi = gate["slope_band"]
        if not lo <= outcome["slope"] <= hi:
            failures.append(f"slope {outcome['slope']:.4f} outside [{lo}, {hi}]")
        if pins is not None:
            if _off_pin(outcome["slope"], pins["slope"], rtol):
                failures.append(f"slope {outcome['slope']!r} differs from "
                                f"pinned {pins['slope']!r}")
            for got, want in zip(outcome["errors"], pins["errors"]):
                if _off_pin(got, want, rtol):
                    failures.append(f"study error {got!r} differs from "
                                    f"pinned {want!r}")
    elif pins is not None and _off_pin(outcome["final_energy"],
                                       pins["final_energy"], rtol):
        failures.append(f"final energy {outcome['final_energy']!r} differs "
                        f"from pinned {pins['final_energy']!r}")
    return failures


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    gate = spec["gate"]
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    result = {"ok": False, "failures": []}
    timeline = Timeline()
    start = timeline.last
    try:
        import pipeflow.cli  # noqa: F401  (the import every CLI call pays)
        imported = clock()
        timeline.mark("import")
        from pipeflow import solver as solver_mod
        if tracer is not None:
            tracer.record("cli.import", start, imported)
            tracer.install()
        else:
            # inside a traced run the rounds would add to the run spans
            timeline.mark_steps(solver_mod)
        body = run_study if spec["kind"] == "study" else run_simulate
        try:
            outcome = body(spec, timeline)
        except solver_mod.StepFailure as failure:
            result["failures"].append(f"step failure at tau={failure.tau}: "
                                      f"{failure}")
        else:
            result["failures"] = check_outputs(spec, outcome, gate)
            result["steps"] = outcome["steps"]
            for key in ("final_energy", "errors", "slope"):
                if key in outcome:
                    result[key] = outcome[key]
        timeline.calibrate()
    except Exception:  # reported to the harness, which counts the job failed
        result["failures"].append(traceback.format_exc())
    result["ok"] = not result["failures"]
    result["phases"] = phases(timeline.seconds)
    result["scaled_phases"] = phases(timeline.scaled)
    result["calibration_s"] = timeline.calibration_s
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    if tracer is not None:
        from tracing import layer_metrics
        tracer.dump(os.path.join(os.path.dirname(result_path), "spans.json"))
        result["layers"] = layer_metrics(tracer.spans)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
