"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
line and timing of every criterion.  The perturbation and limit studies
are shared between the rate criteria and the certificate criterion
through module-scoped fixtures.
"""

import os
import time

import numpy as np
import pytest
import scipy.sparse as sp

from pipeflow.discretization import NetworkState, build_system
from pipeflow.energy import (
    c0_constants,
    random_admissible_state,
    relative_dissipation,
    relative_energy,
)
from pipeflow.gas import AdmissibleBounds, IsothermalLaw, PowerLaw
from pipeflow.mms import manufactured_solution_test
from pipeflow.network import loop_network, single_pipe, y_network
from pipeflow.scenario import load_scenario
from pipeflow.solver import (
    HyperbolicStepper,
    ParabolicStepper,
    SolverConfig,
    run,
)
from pipeflow.studies import (
    boundary_perturbation_study,
    epsilon_limit_study,
    gamma_perturbation_study,
)

from helpers import balance_residuals, constant_state

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(REPO, "scenarios")
ISO = IsothermalLaw(1.0)


class _Clock:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(number, ok, budget, clock, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status} [{clock.elapsed:6.1f} s / "
          f"budget {budget:.0f} s]: {detail}")
    assert ok, f"criterion {number}: {detail}"
    assert clock.elapsed < budget, (
        f"criterion {number}: runtime {clock.elapsed:.1f} s over budget "
        f"{budget:.0f} s")


@pytest.fixture(scope="module")
def limit_study_pipe():
    scenario = load_scenario(os.path.join(SCEN, "pipe_limit.scn"))
    with _Clock() as clock:
        result = epsilon_limit_study(scenario, [0.2, 0.1, 0.05, 0.025],
                                     certify=True)
    return result, clock


@pytest.fixture(scope="module")
def limit_study_network():
    scenario = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    with _Clock() as clock:
        result = epsilon_limit_study(scenario, [0.2, 0.1, 0.05, 0.025],
                                     certify=True)
    return result, clock


@pytest.fixture(scope="module")
def gamma_study():
    scenario = load_scenario(os.path.join(SCEN, "pipe_perturbation.scn"))
    with _Clock() as clock:
        result = gamma_perturbation_study(scenario, [0.4, 0.2, 0.1, 0.05],
                                          certify=True)
    return result, clock


@pytest.fixture(scope="module")
def boundary_study():
    scenario = load_scenario(os.path.join(SCEN, "pipe_perturbation.scn"))
    with _Clock() as clock:
        result = boundary_perturbation_study(scenario, [0.2, 0.1, 0.05],
                                             certify=True)
    return result, clock


def test_criterion_01_structure():
    bounds = AdmissibleBounds(rho_min=0.7, rho_max=1.4, w_max=0.9,
                              eps_max=0.45)
    rng = np.random.default_rng(101)
    with _Clock() as clock:
        system = build_system(y_network(), cells_per_edge=32,
                              law=ISO, epsilon=0.45)
        worst_skew = 0.0
        for _ in range(50):
            state = random_admissible_state(system, bounds, rng)
            assert np.all(system.c_state > 0.0)
            assert np.all(system.r_diag(state) >= 0.0)
            z = rng.standard_normal(system.n_z)
            worst_skew = max(worst_skew,
                             abs(z @ system.apply_j(z) / (z @ z)))
    _report(1, worst_skew < 1e-12, 5.0, clock,
            f"50 states on the 3-edge network: max |<Jz,z>|/||z||^2 = "
            f"{worst_skew:.2e}, C > 0, R(u) >= 0")


def test_criterion_02_power_balance():
    with _Clock() as clock:
        system = build_system(single_pipe(), cells_per_edge=32,
                              law=ISO, epsilon=0.5)
        rho0 = 1.0 + 0.2 * np.exp(-50.0 * (system.x_cells - 0.5) ** 2)
        boundary = {"inlet": 1.0, "outlet": 1.0}
        dts = np.array([1e-2, 5e-3, 2.5e-3])
        maxres = []
        for dt in dts:
            state = NetworkState(0.0, rho0.copy(), np.zeros(system.n_faces))
            traj = run(system, state, SolverConfig(dt=dt, t_final=0.2),
                       boundary)
            maxres.append(np.max(np.abs(balance_residuals(traj))))
        slope = np.polyfit(np.log(dts), np.log(maxres), 1)[0]
        state = NetworkState(0.0, rho0.copy(), np.zeros(system.n_faces))
        be = run(system, state,
                 SolverConfig(dt=5e-3, t_final=0.2, scheme="backward-euler"),
                 boundary)
        be_max = float(np.max(balance_residuals(be)))
    ok = slope >= 1.8 and be_max <= 1e-10
    _report(2, ok, 30.0, clock,
            f"midpoint residual order {slope:.2f} (>= 1.8), backward-Euler "
            f"max signed residual {be_max:+.2e} (<= +1e-10)")


def _sandwich_cases():
    return [
        (ISO, AdmissibleBounds(rho_min=0.7, rho_max=1.4, w_max=0.9,
                               eps_max=0.5)),
        (PowerLaw(1.0, 2.0), AdmissibleBounds(rho_min=0.6, rho_max=1.6,
                                              w_max=0.95, eps_max=0.5)),
    ]


def test_criterion_03_norm_equivalence():
    rng = np.random.default_rng(303)
    with _Clock() as clock:
        violations = 0
        for law, bounds in _sandwich_cases():
            system = build_system(single_pipe(), cells_per_edge=64, law=law,
                                  epsilon=bounds.eps_max)
            lo, hi = c0_constants(bounds, law)
            for _ in range(500):
                u = random_admissible_state(system, bounds, rng)
                uh = random_admissible_state(system, bounds, rng)
                nrm = system.c_norm_sq(u.rho - uh.rho, u.w - uh.w)
                rel = relative_energy(system, u, uh)
                if not (lo * nrm <= rel + 1e-12 and rel <= hi * nrm + 1e-12):
                    violations += 1
    _report(3, violations == 0, 5.0, clock,
            f"1000 random pairs (isothermal + power-law), {violations} "
            "sandwich violations with computed constants")


def test_criterion_04_relative_dissipation_bound():
    rng = np.random.default_rng(404)
    with _Clock() as clock:
        violations = 0
        for law, bounds in _sandwich_cases():
            system = build_system(single_pipe(), cells_per_edge=64, law=law,
                                  epsilon=bounds.eps_max)
            c_d = bounds.friction_min * bounds.area_min * bounds.rho_min / 16.0
            for _ in range(500):
                u = random_admissible_state(system, bounds, rng)
                uh = random_admissible_state(system, bounds, rng)
                lhs = relative_dissipation(system, u, uh)
                rhs = c_d * system.l3_faces(u.w - uh.w)
                if lhs < rhs - 1e-13:
                    violations += 1
    _report(4, violations == 0, 5.0, clock,
            f"1000 random pairs, {violations} violations of "
            "D(u|uhat) >= c_D ||w - what||_L3^3")


def test_criterion_05_limit_rate_pipe(limit_study_pipe):
    result, clock = limit_study_pipe
    _report(5, result.slope >= 0.9, 120.0, clock,
            f"single-pipe limit slope {result.slope:.3f} vs eps^2 (>= 0.9)")


def test_criterion_06_limit_rate_network(limit_study_network):
    result, clock = limit_study_network
    _report(6, result.slope >= 0.9, 240.0, clock,
            f"network limit slope {result.slope:.3f} vs eps^2 (>= 0.9)")


def test_criterion_07_friction_stability_rate(gamma_study):
    result, clock = gamma_study
    _report(7, result.slope >= 1.4, 120.0, clock,
            f"friction perturbation slope {result.slope:.3f} vs |offset| "
            "(>= 1.4)")


def test_criterion_08_boundary_stability_rate(boundary_study):
    result, clock = boundary_study
    _report(8, result.slope >= 0.9, 120.0, clock,
            f"boundary perturbation slope {result.slope:.3f} vs integrated "
            "discrepancy (>= 0.9)")


def test_criterion_09_certificates(limit_study_pipe, limit_study_network,
                                   gamma_study, boundary_study):
    with _Clock() as clock:
        certs = []
        for result, _ in (limit_study_pipe, limit_study_network, gamma_study,
                          boundary_study):
            certs.extend(result.certificates)
        ok = all(c.ok for c in certs)
        min_slack = min(c.min_slack for c in certs)
    _report(9, ok and min_slack >= 0.0, 30.0, clock,
            f"{len(certs)} trajectory pairs certified, smallest slack "
            f"{min_slack:.3e}")


def test_criterion_10_junction_conservation():
    scenario = load_scenario(os.path.join(SCEN, "y_transient.scn"))
    with _Clock() as clock:
        system = scenario.build_system()
        state0 = scenario.initial_state(system)
        traj = run(system, state0, scenario.solver, scenario.boundary)
        worst_mass = 0.0
        worst_flux = 0.0
        for k, state in enumerate(traj.states):
            defect = system.junction_mass_defect(state)
            worst_mass = max(worst_mass, np.max(np.abs(defect)))
            hv = traj.junction_h[min(k, len(traj.junction_h) - 1)]
            worst_flux = max(worst_flux, np.max(np.abs(hv * defect)))
        moved = np.max(np.abs(traj.states[-1].w))
    ok = worst_mass < 1e-10 and worst_flux < 1e-10 and moved > 1e-3
    _report(10, ok, 60.0, clock,
            f"transient with flow (max |w| = {moved:.3f}): junction mass sum "
            f"{worst_mass:.2e}, energy-flux sum {worst_flux:.2e} (< 1e-10)")


def _jacobian_error_ratio(stepper, rng, dt=0.05):
    """The ratio of the central-difference errors of a stepper's Newton
    Jacobian along a random direction, at steps 1e-2 and 5e-3.

    The start state and the iterate x = (rho, w, h_v) are random and
    admissible, and they share each face's flow direction with
    |w| >= 0.1.  A difference step moves w by 1e-2 at most, so neither
    the iterate nor the midpoint stage crosses w = 0, where the
    friction term |w| w has no second derivative.
    """
    system = stepper.system
    n_c, n_f = system.n_cells, system.n_faces
    sign = rng.choice((-1.0, 1.0), size=n_f)
    state = NetworkState(0.0, rng.uniform(0.8, 1.3, n_c),
                         sign * rng.uniform(0.1, 0.9, n_f))
    x = np.concatenate((rng.uniform(0.8, 1.3, n_c),
                        sign * rng.uniform(0.1, 0.9, n_f),
                        rng.uniform(0.5, 1.5, system.n_junctions)))
    d = rng.uniform(-1.0, 1.0, system.n_z)
    boundary = {v: 1.0 for v in system.boundary_vertices}
    _, loads = stepper._stage(state, dt, boundary, dt)
    _, cache = stepper._residual(dt, state, loads, x)
    data, indices, indptr, shape = stepper._jacobian(dt, cache)
    jd = sp.csc_matrix((data, indices, indptr), shape=shape) @ d

    def fd_error(step):
        plus = stepper._residual(dt, state, loads, x + step * d)[0]
        minus = stepper._residual(dt, state, loads, x - step * d)[0]
        return np.linalg.norm((plus - minus) / (2 * step) - jd)

    return fd_error(1e-2) / fd_error(5e-3)


def test_criterion_11_jacobian_consistency():
    # the Jacobian each stepper factors is the derivative of its own
    # residual; PowerLaw's exponent 1.4 keeps P' from being quadratic,
    # on which central differences would be exact
    rng = np.random.default_rng(1111)
    with _Clock() as clock:
        ratios = []
        for network in (y_network, loop_network):
            for law in (ISO, PowerLaw(1.0, 1.4)):
                topology = network(friction=2.0,
                                   area=((0.0, 1.0), (1.0, 1.3)))
                system = build_system(topology, cells_per_edge=6, law=law,
                                      epsilon=0.4)
                for stepper in (HyperbolicStepper(system),
                                HyperbolicStepper(system,
                                                  scheme="backward-euler"),
                                ParabolicStepper(system)):
                    for _ in range(5):
                        ratios.append(_jacobian_error_ratio(stepper, rng))
        ok = all(3.5 < r < 4.5 for r in ratios)
    _report(11, ok, 5.0, clock,
            f"{len(ratios)} random iterates of the midpoint, backward-Euler "
            f"and parabolic Newton Jacobians: finite-difference error "
            f"ratios in [{min(ratios):.3f}, {max(ratios):.3f}] "
            f"(window [3.5, 4.5])")


def test_criterion_12_friction_decay_oracle():
    eps, gamma, w0 = 0.5, 1.0, 1.0
    with _Clock() as clock:
        system = build_system(loop_network(friction=gamma),
                              cells_per_edge=8, law=ISO, epsilon=eps)

        def sup_error(dt):
            traj = run(system, constant_state(system, 1.0, w0),
                       SolverConfig(dt=dt, t_final=1.0), {})
            worst = 0.0
            for s in traj.states:
                exact = w0 / (1.0 + gamma * w0 * s.tau / eps**2)
                worst = max(worst, np.max(np.abs(s.w - exact)))
            return worst

        e_coarse = sup_error(0.02)
        e_fine = sup_error(0.01)
        ratio = e_coarse / e_fine
    _report(12, 3.5 < ratio < 4.5, 30.0, clock,
            f"closed-loop decay vs closed form: errors {e_coarse:.2e} -> "
            f"{e_fine:.2e}, ratio {ratio:.2f} (window [3.5, 4.5])")


def test_criterion_13_manufactured_solutions():
    with _Clock() as clock:
        table = manufactured_solution_test()
        sp_ok = np.all((table.spatial_orders > 1.7)
                       & (table.spatial_orders < 2.3))
        tm_ok = np.all((table.temporal_orders > 1.7)
                       & (table.temporal_orders < 2.3))
    _report(13, bool(sp_ok and tm_ok), 60.0, clock,
            "orders in [1.7, 2.3]: spatial "
            + ", ".join(f"{o:.2f}" for o in table.spatial_orders)
            + "; temporal "
            + ", ".join(f"{o:.2f}" for o in table.temporal_orders))
