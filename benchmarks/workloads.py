"""Benchmark workloads and the seeded scenario generator.

Each workload is one CLI-shaped job: the committed scenario file, the
command-line overrides a user would pass, and the outputs the command
writes.  Seed 0 copies the committed scenario text unchanged.  Any other
seed jitters the boundary schedules and the initial data by a few
percent; the ranges below keep every state of every run inside the
scenario's own [bounds] section (the job gate checks that it does).
"""

from __future__ import annotations

import os
import random
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(ROOT, "scenarios")
SOURCE_DIR = os.path.join(ROOT, "src")

# `cells` is the `--cells` override of the CLI; `outputs` names what the
# job writes: "snapshots" is `simulate --out` in full, "traces" only the
# energy trace and manifest, "study" the study table, the certificate
# traces and the manifest, as `study --out` writes them.
WORKLOADS = {
    "simulate_y1024": {
        "kind": "simulate", "scenario": "y_transient.scn", "cells": 1024,
        "outputs": "traces",
    },
    "study_eps_y": {
        "kind": "study", "scenario": "y_limit.scn", "cells": None,
        "eps_list": [0.2, 0.1, 0.05, 0.025], "outputs": "study",
    },
    "export_y256_csv": {
        "kind": "simulate", "scenario": "y_transient.scn", "cells": 256,
        "outputs": "snapshots",
    },
}

# Small variants for the harness smoke test: a few steps on a coarse grid.
TINY = {
    "simulate_y1024": {"cells": 8, "t_final": "0.01"},
    "study_eps_y": {"cells": 6, "t_final": "0.05",
                    "eps_list": [0.2, 0.1, 0.05]},
    "export_y256_csv": {"cells": 8, "t_final": "0.01"},
}


def _uniform(rng, centre, half_width):
    return round(centre + rng.uniform(-half_width, half_width), 6)


# The jitter is small on purpose: the Newton iteration count follows the
# steepness of the data, and a seed should change the inputs, not the
# amount of work a job does.

def _jitter_y_transient(rng):
    # rest enthalpy 1 + log(rho) stays within [0.995, 1.005], so rho is
    # within 0.5% of 1; the inlet ramp peaks at most at 1.155
    rest = _uniform(rng, 1.0, 0.005)
    peak = _uniform(rng, 1.15, 0.005)
    return {
        ("initial", "rest"): f"{rest}",
        ("boundary inlet", "table"): f"0:{rest}, 0.05:{peak}, 1:{peak}",
        ("boundary outlet_a", "h"): f"{_uniform(rng, 1.0, 0.002)}",
        ("boundary outlet_b", "h"): f"{_uniform(rng, 0.99, 0.002)}",
    }


def _jitter_y_limit(rng):
    amplitude = _uniform(rng, 0.08, 0.005)
    return {
        ("initial", "rho"): f"1 + {amplitude}*sin(pi*x/L)",
        ("boundary inlet", "h"): f"{_uniform(rng, 1.0, 0.002)}",
        ("boundary outlet_a", "h"): f"{_uniform(rng, 1.0, 0.002)}",
        ("boundary outlet_b", "h"): f"{_uniform(rng, 0.99, 0.002)}",
    }


JITTERS = {
    "y_transient.scn": _jitter_y_transient,
    "y_limit.scn": _jitter_y_limit,
}


def rewrite(text, values):
    """Replace `key = value` lines, addressed by (section, key)."""
    out, section, seen = [], None, set()
    for line in text.splitlines(keepends=True):
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
        elif "=" in stripped:
            key = stripped.split("=", 1)[0].strip()
            if (section, key) in values:
                line = f"{key} = {values[section, key]}\n"
                seen.add((section, key))
        out.append(line)
    missing = set(values) - seen
    if missing:
        raise ValueError(f"scenario has no line for {sorted(missing)}")
    return "".join(out)


def generate(name, seed, directory, tiny=False):
    """Write the workload's scenario for `seed` into `directory`.

    Returns the job spec: the workload's settings plus the path of the
    generated scenario file.  Included topology files are copied next
    to it, so the program only ever reads generated inputs.
    """
    workload = dict(WORKLOADS[name])
    source = os.path.join(SCENARIO_DIR, workload["scenario"])
    with open(source) as fh:
        text = fh.read()
    values = {}
    if seed != 0:
        values.update(JITTERS[workload["scenario"]](random.Random(seed)))
    if tiny:
        small = dict(TINY[name])
        values[("solver", "t_final")] = small.pop("t_final")
        workload.update(small)
    if values:
        text = rewrite(text, values)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, workload["scenario"])
    with open(path, "w") as fh:
        fh.write(text)
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "include":
            include = value.split("#", 1)[0].strip()
            shutil.copyfile(os.path.join(SCENARIO_DIR, include),
                            os.path.join(directory, include))
    workload.update(name=name, seed=seed, tiny=tiny, scenario_path=path)
    return workload
