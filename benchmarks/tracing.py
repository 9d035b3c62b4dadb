"""Spans around the calls into pipeflow's public functions.

The wrappers are installed from the benchmark's own files; nothing in
the package changes.  A span is [name, start, end, parent, attrs]: the
parent is the index of the enclosing span (-1 at the top) and attrs
holds counts read from the call's result.  Spans stay in memory and are
written out when the job ends; `layer_metrics` derives every per-layer
number from them.
"""

from __future__ import annotations

import functools
import json
import os
import time

RUN_SPANS = ("solver.run", "studies.reference_run", "studies.member_run")
STEP_SPANS = ("solver.hyperbolic_step", "solver.parabolic_step")
REPORT_SPANS = ("energy.hamiltonian", "energy.dissipation",
                "energy.boundary_flux")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.scenario_dt = 0.0

    def record(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, None])

    def wrap(self, name, fn, on_exit=None):
        """`fn` recording one span per call; `name` may be a function of
        the call's positional arguments, and `on_exit(args, kwargs,
        result)` returns the span's attrs."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_exit is not None:
                span[4] = on_exit(args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner, attr, name, on_exit=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_exit))

    def install(self):
        """Wrap the layer boundaries of an imported pipeflow."""
        from pipeflow import discretization, energy, scenario, solver, studies

        # a study's reference runs take a finer step than the loaded
        # scenario's; the other runs are its members
        def loaded(args, kwargs, result):
            self.scenario_dt = result.solver.dt

        def run_kind(args):
            if args[2].dt < self.scenario_dt:
                return "studies.reference_run"
            return "studies.member_run"

        scen = scenario.Scenario
        self.patch(scenario, "load_scenario", "scenario.load", loaded)
        self.patch(scen, "build_system", "discretization.build_system")
        self.patch(scen, "initial_state", "scenario.initial_state")
        self.patch(scenario, "write_trajectory", "scenario.write_trajectory",
                   _bytes_written)
        self.patch(scenario, "write_energy_trace", "scenario.write_energy_trace")
        self.patch(scenario, "write_manifest", "scenario.write_manifest")
        self.patch(discretization.NetworkSystem, "check_state",
                   "gas.check_admissible")

        def steps(args, kwargs, traj):
            return {"steps": len(traj.states) - 1}

        def iterations(args, kwargs, result):
            return {"iterations": result[1]["iterations"]}

        self.patch(solver, "run", "solver.run", steps)
        self.patch(solver.HyperbolicStepper, "step", "solver.hyperbolic_step",
                   iterations)
        self.patch(solver.ParabolicStepper, "step", "solver.parabolic_step",
                   iterations)
        factor = self.wrap("solver.lu_factor", solver.splu)

        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _TracedLU(self.wrap("solver.lu_solve", lu.solve))
        solver.splu = traced_splu

        for fn in ("hamiltonian", "dissipation", "boundary_flux",
                   "gronwall_monitor", "lipschitz_estimates",
                   "stability_constants"):
            self.patch(energy, fn, f"energy.{fn}")
            if hasattr(studies, fn):
                self.patch(studies, fn, f"energy.{fn}")
        self.patch(energy.GronwallCertificate, "write_trace",
                   "energy.write_trace")

        self.patch(studies, "run", run_kind, steps)
        self.patch(studies, "_pair_errors", "studies.pair_errors")
        self.patch(studies.StudyResult, "write_table", "studies.write_table")

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _TracedLU:
    """Stands in for the SuperLU object; the steppers only call solve."""

    __slots__ = ("solve",)

    def __init__(self, solve):
        self.solve = solve


def _bytes_written(args, kwargs, result):
    directory, prefix = args[0], kwargs.get("prefix", "states")
    return {"bytes": sum(os.path.getsize(os.path.join(directory, n))
                         for n in os.listdir(directory)
                         if n.startswith(prefix))}


def layer_metrics(spans):
    """Per-layer totals, counts and self times from a job's spans."""
    import numpy as np

    duration = [s[2] - s[1] for s in spans]
    names = [s[0] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += duration[i]

    def ancestors(i):
        i = spans[i][3]
        while i >= 0:
            yield names[i]
            i = spans[i][3]

    def select(pred):
        return [i for i in range(len(spans)) if pred(i)]

    def total(idx):
        return float(sum(duration[i] for i in idx))

    def named(*wanted):
        return select(lambda i: names[i] in wanted)

    def attr(idx, key):
        return int(sum((spans[i][4] or {}).get(key, 0) for i in idx))

    steps = named(*STEP_SPANS)
    factor = named("solver.lu_factor")
    n_steps = len(steps)
    reports = select(lambda i: names[i] in REPORT_SPANS
                     and not any(a.startswith("energy.") for a in ancestors(i)))
    checks = select(lambda i: names[i] == "gas.check_admissible"
                    and any(a in RUN_SPANS for a in ancestors(i)))
    step_ms = np.array([duration[i] for i in steps]) * 1e3
    reference = named("studies.reference_run")
    member = named("studies.member_run")
    write_traj = named("scenario.write_trajectory")
    return {
        "cli.import_s": total(named("cli.import")),
        "scenario.load_s": total(named("scenario.load")),
        "scenario.initial_state_s": total(named("scenario.initial_state")),
        "scenario.write_trajectory_s": total(write_traj),
        "scenario.bytes_written": attr(write_traj, "bytes"),
        "scenario.write_energy_trace_s": total(
            named("scenario.write_energy_trace")),
        "discretization.build_system_s": total(
            named("discretization.build_system")),
        "solver.steps": n_steps,
        "solver.newton_iters": attr(steps, "iterations"),
        "solver.newton_iters_per_step":
            attr(steps, "iterations") / max(n_steps, 1),
        "solver.lu_factorizations": len(factor),
        "solver.lu_per_step": len(factor) / max(n_steps, 1),
        "solver.lu_factor_s": total(factor),
        "solver.lu_solve_s": total(named("solver.lu_solve")),
        "solver.step_self_s": float(sum(duration[i] - child_time[i]
                                        for i in steps)),
        "solver.hyperbolic_step_s": total(named("solver.hyperbolic_step")),
        "solver.parabolic_step_s": total(named("solver.parabolic_step")),
        "solver.step_ms_p50": float(np.percentile(step_ms, 50)) if n_steps else 0.0,
        "solver.step_ms_p95": float(np.percentile(step_ms, 95)) if n_steps else 0.0,
        "solver.step_samples": n_steps,
        "energy.report_s": total(reports),
        "energy.report_calls": len(reports),
        "energy.gronwall_s": total(named("energy.gronwall_monitor")),
        "energy.lipschitz_s": total(named("energy.lipschitz_estimates")),
        "gas.check_admissible_s": total(checks),
        "gas.check_admissible_calls": len(checks),
        "studies.reference_run_s": total(reference),
        "studies.reference_steps": attr(reference, "steps"),
        "studies.member_run_s": total(member),
        "studies.member_steps": attr(member, "steps"),
        "studies.pair_errors_s": total(named("studies.pair_errors")),
    }


LAYER_UNITS = {
    "cli.import_s": "s",
    "scenario.load_s": "s",
    "scenario.initial_state_s": "s",
    "scenario.write_trajectory_s": "s",
    "scenario.bytes_written": "bytes",
    "scenario.write_energy_trace_s": "s",
    "discretization.build_system_s": "s",
    "solver.steps": "count",
    "solver.newton_iters": "count",
    "solver.newton_iters_per_step": "1/step",
    "solver.lu_factorizations": "count",
    "solver.lu_per_step": "1/step",
    "solver.lu_factor_s": "s",
    "solver.lu_solve_s": "s",
    "solver.step_self_s": "s",
    "solver.hyperbolic_step_s": "s",
    "solver.parabolic_step_s": "s",
    "solver.step_ms_p50": "ms",
    "solver.step_ms_p95": "ms",
    "solver.step_samples": "count",
    "energy.report_s": "s",
    "energy.report_calls": "count",
    "energy.gronwall_s": "s",
    "energy.lipschitz_s": "s",
    "gas.check_admissible_s": "s",
    "gas.check_admissible_calls": "count",
    "studies.reference_run_s": "s",
    "studies.reference_steps": "count",
    "studies.member_run_s": "s",
    "studies.member_steps": "count",
    "studies.pair_errors_s": "s",
}
