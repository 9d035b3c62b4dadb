"""Report-only scale sweep; it gates nothing.

    python3 benchmarks/sweep.py

Two sweeps, each with STEPS midpoint steps:
* `y_transient.scn` with cells per edge doubling from 16 to MAX_CELLS;
* the `loop` builtin with n_edges doubling from 2 to MAX_EDGES at 32
  cells per edge.
For every size it prints n_z (the unknowns per Newton system), the
median ms per step, LU factorisations per step and the time of
`initial_state`, and writes the table to .bench_work/BENCH_scale_sweep.json.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as harness  # noqa: E402
import workloads  # noqa: E402

for _var in harness.THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, workloads.SOURCE_DIR)

STEPS = 10
MAX_CELLS = 8192
MAX_EDGES = 256

LOOP_SCENARIO = """\
[model]
law = isothermal
sound_speed = 1.0
epsilon = 0.4

[topology]
builtin = loop
n_edges = {n_edges}

[grid]
cells_per_edge = 32

[initial]
rho = 1 + 0.1*sin(pi*x/L)
w = 0.0

[solver]
scheme = midpoint
dt = 1e-3
t_final = {t_final}
"""


def measure(tracer, scenario):
    from pipeflow import solver

    system = scenario.build_system()
    start = time.perf_counter()
    state0 = scenario.initial_state(system)
    initial_s = time.perf_counter() - start
    first = len(tracer.spans)
    solver.run(system, state0, scenario.solver, scenario.boundary,
               bounds=scenario.bounds)
    spans = tracer.spans[first:]
    steps = [s[2] - s[1] for s in spans if s[0] == "solver.hyperbolic_step"]
    factors = sum(1 for s in spans if s[0] == "solver.lu_factor")
    return {"n_z": system.n_cells + system.n_faces + system.n_junctions,
            "step_ms": statistics.median(steps) * 1e3,
            "lu_per_step": factors / len(steps),
            "initial_state_s": initial_s}


def main():
    from dataclasses import replace

    from pipeflow import scenario as scenario_mod
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    rows = []
    base = scenario_mod.load_scenario(
        os.path.join(workloads.SCENARIO_DIR, "y_transient.scn"))
    t_final = STEPS * base.solver.dt
    cells = 16
    while cells <= MAX_CELLS:
        scen = replace(base, cells_per_edge=cells,
                       solver=replace(base.solver, t_final=t_final))
        rows.append({"sweep": "y_transient", "cells_per_edge": cells,
                     **measure(tracer, scen)})
        print(json.dumps(rows[-1]), flush=True)
        cells *= 2
    n_edges = 2
    while n_edges <= MAX_EDGES:
        text = LOOP_SCENARIO.format(n_edges=n_edges,
                                    t_final=STEPS * 1e-3)
        scen = scenario_mod.parse_scenario(text, path="loop.scn")
        rows.append({"sweep": "loop", "n_edges": n_edges,
                     **measure(tracer, scen)})
        print(json.dumps(rows[-1]), flush=True)
        n_edges *= 2
    os.makedirs(harness.WORK_ROOT, exist_ok=True)
    with open(os.path.join(harness.WORK_ROOT, "BENCH_scale_sweep.json"),
              "w") as fh:
        json.dump({"steps": STEPS,
                   "machine": harness.machine_record(traced=True),
                   "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
