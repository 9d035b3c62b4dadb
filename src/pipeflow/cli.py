"""Command-line interface: simulate, study, verify, mms."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import energy as energy_mod
from .discretization import NetworkState
from .scenario import (
    ConfigError,
    load_scenario,
    write_energy_trace,
    write_manifest,
    write_trajectory,
)
from .solver import StepFailure, run


def _list_of(cast):
    def parse(text):
        try:
            return [cast(x) for x in text.replace(",", " ").split()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse list {text!r}") from None
    return parse


def _int_at_least(minimum):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not 0.0 < value < math.inf:  # false on nan
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {value}")
    return value


def _two_or_more(parse):
    """A list type that needs two values at least: an order of
    convergence compares two resolutions."""
    def parse_list(text):
        values = parse(text)
        if len(values) < 2:
            raise argparse.ArgumentTypeError(
                f"need at least two values, got {len(values)}")
        return values
    return parse_list


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pipeflow",
        description="Structure-preserving gas network simulation and "
                    "stability verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--scenario", required=True, help="scenario file")
        if out:
            p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--cells", type=_int_at_least(2), default=None,
                       help="override cells per edge (at least 2)")
        p.add_argument("--dt", type=_positive_float, default=None,
                       help="override time step (positive, finite)")
        p.add_argument("--scheme", choices=("midpoint", "backward-euler"),
                       default=None, help="override time scheme")

    p_sim = sub.add_parser("simulate", help="run one scenario")
    common(p_sim)

    p_study = sub.add_parser("study", help="parameter sweep studies")
    p_study.add_argument("kind", choices=("epsilon", "gamma", "boundary"))
    common(p_study)
    p_study.add_argument("--eps-list", type=_list_of(float),
                         default=[0.2, 0.1, 0.05, 0.025])
    p_study.add_argument("--gamma-offsets", type=_list_of(float),
                         default=[0.4, 0.2, 0.1, 0.05])
    p_study.add_argument("--amplitudes", type=_list_of(float),
                         default=[0.2, 0.1, 0.05])
    p_study.add_argument("--no-certify", action="store_true",
                         help="skip the stability certificates")

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    common(p_ver, out=False)  # verify writes nothing
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for randomized sampling")
    p_ver.add_argument("--samples", type=_int_at_least(1), default=200,
                       help="random samples per check (at least 1)")

    # no abbreviations: --cells and --dt would be read as --cells-list
    # and --dt-list
    p_mms = sub.add_parser("mms", help="manufactured-solution convergence",
                           allow_abbrev=False)
    p_mms.add_argument("--out", default=None, help="output directory")
    p_mms.add_argument("--cells-list", type=_two_or_more(_list_of(int)),
                       default=[12, 24, 48])
    p_mms.add_argument("--dt-list", type=_two_or_more(_list_of(float)),
                       default=[2e-3, 1e-3, 5e-4])
    return parser


def _load(args):
    scenario = load_scenario(args.scenario)
    if args.cells is not None:
        scenario = replace(scenario, cells_per_edge=args.cells)
    solver = scenario.solver
    if args.dt is not None:
        solver = replace(solver, dt=args.dt)
    if args.scheme is not None:
        solver = replace(solver, scheme=args.scheme)
    scenario = replace(scenario, solver=solver)
    if getattr(args, "out", None) is not None:
        scenario = replace(scenario, output_dir=args.out)
    return scenario


def _failure_text(failure):
    """The failed step, which run of a study it was in, and why."""
    residual = ("n/a" if failure.residual is None
                else f"{failure.residual:.6g}")
    run_name = f"the {failure.run_label} run, " if failure.run_label else ""
    return (f"{run_name}step {failure.step} from tau={failure.tau:.6g} with "
            f"dt={failure.dt:.6g}, residual {residual}: {failure}")


def cmd_simulate(args):
    scenario = _load(args)
    system = scenario.build_system()
    state0 = scenario.initial_state(system)
    out = scenario.output_dir
    if out:
        os.makedirs(out, exist_ok=True)
    try:
        trajectory = run(system, state0, scenario.solver, scenario.boundary,
                         bounds=scenario.bounds)
    except StepFailure as failure:
        # the energy trace of every accepted snapshot, and the failure in
        # the manifest; main reports it
        if out:
            write_energy_trace(os.path.join(out, "energy.csv"), failure.partial)
            write_manifest(os.path.join(out, "manifest.txt"), scenario,
                           extra={"command": "simulate",
                                  "failure": _failure_text(failure)})
            print(f"wrote {out}/ ({len(failure.partial.states)} snapshots "
                  "in energy.csv)", file=sys.stderr)
        raise
    for w in trajectory.warnings:
        print(f"warning: {w}", file=sys.stderr)
    last = trajectory.reports[-1]
    print(f"simulated {len(trajectory.states) - 1} steps to "
          f"tau={trajectory.times[-1]:.6g}")
    print(f"final energy {last.energy:.9g}, dissipation {last.dissipation:.6g}")
    iterations = trajectory.iterations
    if iterations:
        print(f"solver: {len(iterations)} steps, Newton iterations per step "
              f"{sum(iterations) / len(iterations):.2f} mean, "
              f"{max(iterations)} max, "
              f"LU factorizations {sum(trajectory.factorizations)}")
    if out:
        write_trajectory(out, system, trajectory, fmt=scenario.output_format)
        write_energy_trace(os.path.join(out, "energy.csv"), trajectory)
        write_manifest(os.path.join(out, "manifest.txt"), scenario,
                       extra={"command": "simulate"})
        print(f"wrote {out}/")
    return 0


def _label(p):
    """p as '%g' where that reads back as p, else as repr(p), so that
    distinct parameters get distinct trace names."""
    text = f"{p:g}"
    return text if float(text) == p else repr(p)


def cmd_study(args):
    from . import studies as studies_mod

    scenario = _load(args)
    certify = not args.no_certify
    if scenario.output_dir:
        os.makedirs(scenario.output_dir, exist_ok=True)
    if args.kind == "epsilon":
        result = studies_mod.epsilon_limit_study(scenario, args.eps_list,
                                                 certify=certify)
    elif args.kind == "gamma":
        result = studies_mod.gamma_perturbation_study(
            scenario, args.gamma_offsets, certify=certify)
    else:
        result = studies_mod.boundary_perturbation_study(
            scenario, args.amplitudes, certify=certify)
    print(result.format())
    if scenario.output_dir:
        result.write_table(os.path.join(scenario.output_dir,
                                        f"study_{args.kind}.csv"))
        for p, cert in zip(result.parameters, result.certificates):
            cert.write_trace(os.path.join(
                scenario.output_dir, f"stability_{args.kind}_{_label(p)}.csv"))
        write_manifest(
            os.path.join(scenario.output_dir, "manifest.txt"), scenario,
            extra={"command": f"study {args.kind}",
                   "study.parameters": ",".join(map(str, result.parameters)),
                   "study.slope": result.slope})
        print(f"wrote {scenario.output_dir}/")
    if result.certificates and not result.all_certified:
        print("stability certificate failed", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args):
    scenario = _load(args)
    rng = np.random.default_rng(args.seed)
    system = scenario.build_system()
    failures = []

    def report(name, ok, detail):
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)

    # interconnection structure
    worst = 0.0
    for _ in range(args.samples):
        z = rng.standard_normal(system.n_z)
        worst = max(worst, abs(z @ system.apply_j(z)) / (z @ z))
    report("skew-symmetry", worst < 1e-12, f"max |<Jz,z>|/||z||^2 = {worst:.2e}")
    report("weight-positivity", bool(np.all(system.c_state > 0)),
           "C diagonal strictly positive")

    def balance(traj):
        return np.array([r.balance_residual for r in traj.reports[1:]])

    def junction_defect(traj, start=0):
        stack = NetworkState(None, traj.rho_array()[start:],
                             traj.w_array()[start:])
        return np.max(np.abs(system.junction_mass_defect(stack)))

    bounds = scenario.bounds
    if bounds is None:
        report("admissible-bounds", False,
               "scenario has no [bounds] section; sandwich checks skipped")
    else:
        state = energy_mod.random_admissible_state(system, bounds, rng)
        ok_r = bool(np.all(system.r_diag(state) >= 0))
        report("friction-nonnegativity", ok_r, "R(u) diagonal >= 0")
        try:
            lo, hi = energy_mod.c0_constants(bounds, scenario.law)
        except ValueError as exc:
            report("norm-equivalence", False, str(exc))
        else:
            bad = 0
            for _ in range(args.samples):
                u = energy_mod.random_admissible_state(system, bounds, rng)
                uh = energy_mod.random_admissible_state(system, bounds, rng)
                nrm = system.c_norm_sq(u.rho - uh.rho, u.w - uh.w)
                rel = energy_mod.relative_energy(system, u, uh)
                if not (lo * nrm <= rel + 1e-12 and rel <= hi * nrm + 1e-12):
                    bad += 1
            report("norm-equivalence", bad == 0,
                   f"{args.samples} random pairs, {bad} violations "
                   f"(c0={lo:.4g}, C0={hi:.4g})")

    # power balance along a short transient of the scenario
    state0 = scenario.initial_state(system)
    short = replace(scenario.solver, t_final=20 * scenario.solver.dt,
                    parabolic=False)
    try:
        traj = run(system, state0, short, scenario.boundary)
    except (StepFailure, ValueError) as exc:
        report("power-balance", False, f"transient failed: {exc}")
        traj = None
    else:
        res = np.max(np.abs(balance(traj)))
        try:
            traj2 = run(system, state0, replace(short, dt=short.dt / 2),
                        scenario.boundary)
        except (StepFailure, ValueError) as exc:
            report("power-balance", False,
                   f"half-step transient failed: {exc}")
        else:
            res2 = np.max(np.abs(balance(traj2)))
            # the midpoint term O(dt^3) falls to 1/8 under dt/2, down to
            # the level at which the steps' Newton tolerance shows in the
            # balance
            floor = short.newton_tol * max(1.0, abs(traj.reports[0].energy))
            ok = res2 <= max(0.35 * res, floor)
            report("power-balance", ok,
                   f"max step residual {res:.2e} -> {res2:.2e} under dt/2")
        # backward Euler on the convex limit energy: residuals <= 0
        limit = replace(short, parabolic=True)
        try:
            traj0 = run(system, state0, limit, scenario.boundary)
        except (StepFailure, ValueError) as exc:
            report("limit-energy-balance", False, f"transient failed: {exc}")
        else:
            worst = np.max(balance(traj0))
            tol = limit.newton_tol * max(
                1.0, abs(energy_mod.limit_energy(system, state0.rho)))
            report("limit-energy-balance", worst <= tol,
                   f"max parabolic step residual {worst:.2e} <= {tol:.0e}")
            if system.n_junctions:
                # the accepted states: limit_flow's start velocities may
                # leave a defect of about sqrt(ulp) at a junction
                worst = junction_defect(traj0, start=1)
                report("limit-junction-conservation", worst < 1e-10,
                       f"max |signed mass flow sum| = {worst:.2e} after "
                       "the start")
    if not system.n_junctions:
        print("ok   junction-conservation: no interior junctions")
    elif traj is None:
        report("junction-conservation", False, "transient failed")
    else:
        worst = junction_defect(traj)
        report("junction-conservation", worst < 1e-10,
               f"max |signed mass flow sum| = {worst:.2e}")
    return 1 if failures else 0


def cmd_mms(args):
    from .mms import manufactured_solution_test

    if args.out:
        os.makedirs(args.out, exist_ok=True)
    table = manufactured_solution_test(cells_list=tuple(args.cells_list),
                                       dt_list=tuple(args.dt_list))
    print(table.format())
    if args.out:
        with open(os.path.join(args.out, "mms.txt"), "w") as fh:
            fh.write(table.format() + "\n")
    ok = (np.all(table.spatial_orders > 1.5)
          and np.all(table.temporal_orders > 1.5))
    if not ok:
        print("convergence orders below 1.5", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "study":
            return cmd_study(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_mms(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StepFailure as failure:
        print(f"error: step failure in {_failure_text(failure)}",
              file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
