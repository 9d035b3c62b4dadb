"""Perturbation and limit studies: sweeps, error norms, rate fits.

Error norms follow the stability estimates: squared discrete L2 norm of
the density difference (plus the eps^2-weighted velocity part where both
runs share eps), taken sup over snapshot times, plus the time integral
of the cubed discrete L3 norm of the velocity difference.  Reference
solutions are computed on the same grid with 4x finer time steps and 10x
tighter Newton tolerance, so sweep errors isolate the perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .discretization import NetworkState
from .energy import (
    gronwall_monitor,
    lipschitz_estimates,
    stability_constants,
)
from .solver import Batch, SolverConfig, StepFailure, Trajectory, run


def fit_loglog_slope(x, y):
    """Least-squares slope of log y against log x.

    If the relative fit residual (in log space, against the data range)
    exceeds 0.10, the largest-x point is discarded once and the
    slope refitted.  Returns (slope, mask of points used).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least three sweep points for a slope")
    if np.unique(x).size != x.size:
        raise ValueError("sweep values must be distinct; no slope otherwise")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("slope fit needs positive values")
    lx, ly = np.log(x), np.log(y)

    def fit(mask):
        coef = np.polyfit(lx[mask], ly[mask], 1)
        resid = np.abs(np.polyval(coef, lx[mask]) - ly[mask])
        spread = max(np.ptp(ly[mask]), 1.0)
        return coef[0], np.max(resid) / spread

    mask = np.ones(x.size, dtype=bool)
    slope, rel = fit(mask)
    if rel > 0.10:
        mask[np.argmax(x)] = False
        slope, _ = fit(mask)
    return float(slope), mask


@dataclass
class StudyResult:
    name: str
    parameter_name: str
    parameters: list
    x_values: list
    errors: list
    density_sup_sq: list
    velocity_l3: list
    slope: float
    used: list
    certificates: list = field(default_factory=list)

    @property
    def all_certified(self):
        return all(c.ok for c in self.certificates) if self.certificates else None

    def format(self):
        lines = [f"{self.name}: slope {self.slope:.3f} "
                 f"(vs {self.parameter_name})"]
        for p, x, e, u in zip(self.parameters, self.x_values, self.errors,
                              self.used):
            tag = "" if u else "  [excluded from fit]"
            lines.append(f"  {self.parameter_name}={p:<10.5g} x={x:<12.5g} "
                         f"error={e:.6e}{tag}")
        if self.certificates:
            ok = sum(c.ok for c in self.certificates)
            lines.append(f"  stability certificates: {ok}/"
                         f"{len(self.certificates)} hold")
        return "\n".join(lines)

    def write_table(self, path):
        with open(path, "w") as fh:
            fh.write(f"{self.parameter_name},x,error,density_sup_sq,"
                     "velocity_l3,used,certified\n")
            for i in range(len(self.parameters)):
                cert = (self.certificates[i].ok
                        if i < len(self.certificates) else "")
                fh.write(f"{self.parameters[i]:.12g},{self.x_values[i]:.12g},"
                         f"{self.errors[i]:.12g},{self.density_sup_sq[i]:.12g},"
                         f"{self.velocity_l3[i]:.12g},{int(self.used[i])},"
                         f"{cert}\n")


def _subsample(trajectory, stride):
    """Every stride-th snapshot, stacked once; the states are views of
    the stacks' rows."""
    times, kept = trajectory.times[::stride], trajectory.states[::stride]
    rho, w = np.array([s.rho for s in kept]), np.array([s.w for s in kept])
    return Trajectory(times=times,
                      states=[NetworkState(*s) for s in zip(times, rho, w)],
                      reports=trajectory.reports[::stride],
                      warnings=list(trajectory.warnings), stacks=(rho, w))


def _pair_errors(system, traj_u, traj_hat, include_kinetic=True):
    """(sup_tau of C-type squared error, integral of the cubed L3 norm)."""
    if len(traj_u.states) != len(traj_hat.states):
        raise ValueError("trajectories have different snapshot counts")
    d_w = traj_u.w_array() - traj_hat.w_array()
    sq = system.l2sq_cells(traj_u.rho_array() - traj_hat.rho_array())
    if include_kinetic:
        sq += system.epsilon**2 * system.l2sq_faces(d_w)
    return (float(sq.max()),
            float(np.trapezoid(system.l3_faces(d_w), traj_u.times)))


def _reference_config(config, parabolic=False):
    return SolverConfig(dt=config.dt / 4.0, t_final=config.t_final,
                        scheme=config.scheme,
                        newton_tol=config.newton_tol / 10.0,
                        max_iter=config.max_iter + 20,
                        parabolic=parabolic)


def _require_bounds(scenario):
    if scenario.bounds is None:
        raise ValueError("studies need a [bounds] section in the scenario "
                         "for the stability constants")
    return scenario.bounds


def _sweep_values(values, what):
    """Three finite, distinct floats at least, checked before any run."""
    values = [float(v) for v in values]
    if len(values) < 3:
        raise ValueError(f"need at least three {what}")
    if not all(map(math.isfinite, values)):  # nan passes every comparison
        raise ValueError(f"{what} must be finite")
    if len(set(values)) != len(values):
        raise ValueError(f"{what} must be distinct; no slope otherwise")
    return values


def _named(label, fn, *args):
    """fn(*args), a StepFailure from it naming the study run."""
    try:
        return fn(*args)
    except StepFailure as failure:
        failure.run_label = label
        raise


def _sweep(name, parameter_name, parameters, member, scenario, system,
           ref_config, certify):
    """Measure one member per parameter against one reference run.

    The reference runs on `system` with `ref_config` and is subsampled to
    the members' snapshot times.  `member(p)` returns the arguments of
    parameter p's run, (system, state0, config, boundary), and `pair(traj,
    ref)`, which gives (x, system, u, u_hat, monitor_kwargs): the abscissa
    of p and the trajectory pair it contributes, compared on that system
    with the Lipschitz constants taken along u_hat.  The members run as
    one Batch, made first so that they step in its child process while
    the reference runs here; each is measured and dropped before the
    next.
    """
    def measure(args, pair):
        x, pair_system, u, u_hat, monitor_kwargs = pair(
            run(*args, batch=batch), ref)
        # the limit reference has no eps^2 kinetic norm contribution
        sup_sq, l3 = _pair_errors(pair_system, u, u_hat,
                                  include_kinetic=not ref_config.parabolic)
        cert = None
        if certify:
            lip = lipschitz_estimates(pair_system, u_hat)
            constants = stability_constants(
                scenario.bounds, scenario.law, lip_drho=lip[0],
                lip_eps_dw=lip[1],
                n_boundary=max(len(pair_system.boundary_vertices), 1))
            cert = gronwall_monitor(pair_system, u, u_hat, constants,
                                    scenario.boundary, **monitor_kwargs)
        return x, sup_sq + l3, sup_sq, l3, cert

    members = [member(p) for p in parameters]
    with Batch(args for args, _ in members) as batch:
        # only the subsample is kept, not the full-resolution run
        ref = _subsample(_named("reference", run, system,
                                scenario.initial_state(system), ref_config,
                                scenario.boundary), 4)
        results = [_named(f"{parameter_name}={p:g}", measure, *m)
                   for p, m in zip(parameters, members)]
    x = [r[0] for r in results]
    errors = [r[1] for r in results]
    slope, mask = fit_loglog_slope(x, errors)
    return StudyResult(
        name=name, parameter_name=parameter_name, parameters=parameters,
        x_values=x, errors=errors,
        density_sup_sq=[r[2] for r in results],
        velocity_l3=[r[3] for r in results],
        slope=slope, used=list(mask),
        certificates=[r[4] for r in results if r[4] is not None],
    )


def epsilon_limit_study(scenario, eps_list, certify=True, threads=1):
    """High-friction limit: hyperbolic runs against the limit model.

    The boundary schedules are shared, so they must be given as limit
    enthalpies; initial velocities are recovered from the initial
    density, which realizes the compatible-data assumptions.  The fitted
    slope is log(error) vs log(eps^2).
    """
    if threads != 1:  # the keyword stays because benchmarks/job.py passes 1
        raise ValueError("members step as one batch in one forked process; "
                         "threads must be 1")
    eps_list = _sweep_values(eps_list, "epsilon values")
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("epsilon values must be positive; the limit model "
                         "is the reference, not a sweep point")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be strictly decreasing")
    if certify:
        _require_bounds(scenario)

    def member(eps):
        system = replace(scenario, epsilon=eps).build_system()

        def pair(traj, ref):
            return eps**2, system, traj, ref, {"eps_hat": 0.0}
        return (system, scenario.initial_state(system), scenario.solver,
                scenario.boundary), pair

    return _sweep("high-friction limit study", "epsilon", eps_list, member,
                  scenario, scenario.build_system(),
                  _reference_config(scenario.solver, parabolic=True),
                  certify)


def gamma_perturbation_study(scenario, offsets, certify=True):
    """Friction-coefficient perturbations against a fine unperturbed run."""
    offsets = _sweep_values(offsets, "offsets")
    if any(o == 0.0 for o in offsets):
        raise ValueError("offsets must be nonzero")
    if len({math.copysign(1, o) for o in offsets}) != 1:
        raise ValueError("offsets must share one sign")
    bounds = scenario.bounds if not certify else _require_bounds(scenario)
    if bounds is not None:
        # the offset shifts every breakpoint of every edge
        frictions = []
        for edge in scenario.topology.edges:
            fr = edge.params.friction
            frictions += [y for _, y in fr] if isinstance(fr, tuple) else [fr]
        for o in offsets:
            lo, hi = min(frictions) + o, max(frictions) + o
            if lo < bounds.friction_min or hi > bounds.friction_max:
                raise ValueError(f"perturbed friction [{lo}, {hi}] leaves the "
                                 f"bounds [{bounds.friction_min}, "
                                 f"{bounds.friction_max}]")

    system = scenario.build_system()

    def member(offset):
        scen = scenario.with_friction_offset(offset)
        pert_system = scen.build_system()

        def pair(traj_hat, ref):
            return abs(offset), system, ref, traj_hat, {
                "eps_hat": system.epsilon,
                "gamma_hat": system.gamma_faces + offset}
        return (pert_system, scenario.initial_state(pert_system), scen.solver,
                scen.boundary), pair

    return _sweep("friction perturbation study", "gamma_offset", offsets,
                  member, scenario, system, _reference_config(scenario.solver),
                  certify)


def boundary_perturbation_study(scenario, amplitudes, certify=True):
    """Perturbations of the first boundary vertex's schedule; the
    abscissa is the time integral of the boundary discrepancy."""
    amplitudes = _sweep_values(amplitudes, "amplitudes")
    if any(a <= 0.0 for a in amplitudes):
        raise ValueError("amplitudes must be positive")
    if certify:
        _require_bounds(scenario)

    system = scenario.build_system()
    if not system.boundary_vertices:
        raise ValueError("the scenario's network has no boundary vertices")
    vertex = system.boundary_vertices[0]
    t_final = scenario.solver.t_final

    def bump(tau):
        return math.sin(math.pi * min(max(tau / t_final, 0.0), 1.0)) ** 2

    def member(amplitude):
        base = scenario.boundary[vertex]
        pert = {**scenario.boundary,
                vertex: (lambda tau, b=base, a=amplitude:
                         (b(tau) if callable(b) else b) + a * bump(tau))}

        def pair(traj_hat, ref):
            times = np.asarray(ref.times)
            bump_integral = np.trapezoid([bump(t) for t in times], times)
            return amplitude * bump_integral, system, ref, traj_hat, {
                "schedule_hat": pert, "eps_hat": system.epsilon}
        return (system, scenario.initial_state(system), scenario.solver,
                pert), pair

    return _sweep("boundary perturbation study", "amplitude", amplitudes,
                  member, scenario, system, _reference_config(scenario.solver),
                  certify)
