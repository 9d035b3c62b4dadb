import os
from dataclasses import replace

import numpy as np
import pytest

from pipeflow.discretization import NetworkState, build_system
from pipeflow.energy import (
    boundary_flux,
    boundary_perturbation,
    c0_constants,
    dissipation,
    gronwall_monitor,
    hamiltonian,
    limit_energy,
    lipschitz_estimates,
    perturbation_functional,
    power_balance_residual,
    random_admissible_state,
    relative_dissipation,
    relative_energy,
    residual_fields,
    stability_constants,
)
from pipeflow.gas import AdmissibleBounds, IsothermalLaw, PowerLaw
from pipeflow.network import loop_network, single_pipe, y_network
from pipeflow.scenario import load_scenario
from pipeflow.solver import HyperbolicStepper, SolverConfig, Trajectory, run

from helpers import (
    constant_state,
    costate_defect_closed,
    costate_defect_direct,
)

SCEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "scenarios")
LAW = IsothermalLaw(1.0)
BOUNDS = AdmissibleBounds(rho_min=0.7, rho_max=1.4, w_max=0.9, eps_max=0.5)


def pipe_system(eps=0.5, n=16, law=LAW, **params):
    return build_system(single_pipe(**params), cells_per_edge=n,
                        law=law, epsilon=eps)


class TestHamiltonian:
    def test_reference_rest_state(self):
        system = pipe_system()
        assert hamiltonian(system, constant_state(system, 1.0)) == pytest.approx(0.0)

    def test_kinetic_energy(self):
        system = pipe_system(eps=1.0)
        # one pipe of length 1: a*l*eps^2*rho*w^2/2 with rho=w=1
        state = constant_state(system, 1.0, 1.0)
        assert hamiltonian(system, state) == pytest.approx(0.5)

    def test_potential_energy(self):
        system = pipe_system()
        state = constant_state(system, np.e)
        assert hamiltonian(system, state) == pytest.approx(np.e)


class TestDissipation:
    def test_rest(self):
        system = pipe_system()
        assert dissipation(system, constant_state(system, 1.0)) == 0.0

    def test_constants(self):
        system = pipe_system()
        state = constant_state(system, 2.0, -1.0)
        assert dissipation(system, state) == pytest.approx(2.0)

    def test_even_in_w(self):
        system = pipe_system()
        a = dissipation(system, constant_state(system, 1.3, 0.7))
        b = dissipation(system, constant_state(system, 1.3, -0.7))
        assert a == pytest.approx(b, rel=1e-14)

    @pytest.mark.parametrize("scheme", ["midpoint", "backward-euler"])
    def test_cube_matches_power_formula(self, scheme):
        # |w|^3 is taken as a product: exact zeros, velocities whose cube
        # underflows to zero, and ordinary ones give the pow formula's sum
        system = pipe_system(n=32)
        rng = np.random.default_rng(7)
        w = rng.uniform(-0.5, 0.5, system.n_faces)
        w[::4] = 0.0
        w[1::4] = rng.uniform(-3.0, 3.0, w[1::4].size) * 1e-120
        state = NetworkState(0.0, rng.uniform(0.9, 1.1, system.n_cells), w)
        assert dissipation(system, state) == pytest.approx(
            _cube_power(system, state.rho, state.w), rel=1e-15, abs=0.0)
        new, info = HyperbolicStepper(system, scheme=scheme).step(
            state, 0.01, {"inlet": 1.0, "outlet": 1.0})
        rho_s, w_s = new.rho, new.w
        if scheme == "midpoint":
            rho_s = state.rho + 0.5 * (new.rho - state.rho)
            w_s = state.w + 0.5 * (new.w - state.w)
        assert info["stage_dissipation"] == pytest.approx(
            _cube_power(system, rho_s, w_s), rel=1e-15, abs=0.0)


def _cube_power(system, rho, w):
    """Friction power by the libm pow formula."""
    return float(np.dot(system.omega_gamma * system.arho_faces(rho),
                        np.abs(w) ** 3))


class TestCNorm:
    def test_zero(self):
        system = pipe_system()
        assert system.c_norm_sq(np.zeros(system.n_cells),
                                np.zeros(system.n_faces)) == 0.0

    def test_constant_density_field(self):
        system = pipe_system(eps=0.0, area=4.0)
        val = system.c_norm_sq(np.ones(system.n_cells), np.zeros(system.n_faces))
        assert val == pytest.approx(4.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        system = pipe_system(eps=0.3)
        dr = rng.standard_normal(system.n_cells)
        dw = rng.standard_normal(system.n_faces)
        assert system.c_norm_sq(2 * dr, 2 * dw) == pytest.approx(
            4 * system.c_norm_sq(dr, dw), rel=1e-13)


class TestRelativeEnergy:
    def test_zero_at_equal_states(self):
        system = pipe_system()
        rng = np.random.default_rng(1)
        u = random_admissible_state(system, BOUNDS, rng)
        assert relative_energy(system, u, u) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_law_density_difference(self):
        system = pipe_system(law=PowerLaw(1.0, 2.0))
        u = constant_state(system, 2.0, 0.7)
        uhat = constant_state(system, 1.0, 0.7)
        # P(rho|rhohat) = (rho - rhohat)^2 for kappa=1, exponent 2; the
        # kinetic relative term reduces to (rho-rhohat) w dw = 0 at w=what
        # plus rho (w^2 - w^2)/2 = 0... with equal w it is
        # eps^2 [rho(w^2-w^2)/2 - rhohat*w*(w-w)] = 0
        assert relative_energy(system, u, uhat) == pytest.approx(1.0, rel=1e-13)

    def test_kinetic_difference(self):
        system = pipe_system(eps=0.5)
        u = constant_state(system, 1.0, 2.0)
        uhat = constant_state(system, 1.0, 1.0)
        assert relative_energy(system, u, uhat) == pytest.approx(0.125, rel=1e-13)

    def test_matches_bregman_of_hamiltonian(self):
        rng = np.random.default_rng(2)
        system = pipe_system(eps=0.4, elevation=((0.0, 0.0), (1.0, 0.3)))
        for _ in range(20):
            u = random_admissible_state(system, BOUNDS, rng)
            uhat = random_admissible_state(system, BOUNDS, rng)
            h, m = system.costate(uhat)
            linear = (np.dot(system.c_rho * h, u.rho - uhat.rho)
                      + np.dot(system.c_w * m, u.w - uhat.w))
            direct = hamiltonian(system, u) - hamiltonian(system, uhat) - linear
            assert relative_energy(system, u, uhat) == pytest.approx(
                direct, rel=1e-9, abs=1e-11)

    def test_positive_for_distinct_admissible_pairs(self):
        rng = np.random.default_rng(3)
        system = pipe_system(eps=0.45)
        for _ in range(50):
            u = random_admissible_state(system, BOUNDS, rng)
            uhat = random_admissible_state(system, BOUNDS, rng)
            assert relative_energy(system, u, uhat) > 0.0

    def test_gravity_shift_invariance(self):
        rng = np.random.default_rng(4)
        base = pipe_system(eps=0.4, elevation=((0.0, 0.0), (1.0, 0.5)))
        shifted = pipe_system(eps=0.4, elevation=((0.0, 10.0), (1.0, 10.5)))
        u = random_admissible_state(base, BOUNDS, rng)
        uhat = random_admissible_state(base, BOUNDS, rng)
        assert relative_energy(base, u, uhat) == pytest.approx(
            relative_energy(shifted, u, uhat), rel=1e-13)

    def test_grid_mismatch_rejected(self):
        a = pipe_system(n=8)
        b = pipe_system(n=16)
        u = constant_state(a, 1.0)
        with pytest.raises(ValueError):
            relative_energy(b, u, u)


class TestRelativeDissipation:
    def test_zero_at_equal_velocity(self):
        system = pipe_system()
        u = constant_state(system, 1.2, 0.8)
        uhat = constant_state(system, 0.9, 0.8)
        assert relative_dissipation(system, u, uhat) == 0.0

    def test_constant_fields(self):
        system = pipe_system()
        u = constant_state(system, 1.0, 2.0)
        uhat = constant_state(system, 1.0, 0.0)
        assert relative_dissipation(system, u, uhat) == pytest.approx(0.5)

    def test_lower_bound_random(self):
        rng = np.random.default_rng(5)
        bounds = AdmissibleBounds(rho_min=0.7, rho_max=1.4, w_max=0.9,
                                  eps_max=0.5, friction_min=1.0,
                                  friction_max=1.0)
        system = pipe_system()
        c_d = bounds.friction_min * bounds.area_min * bounds.rho_min / 16.0
        for _ in range(200):
            u = random_admissible_state(system, bounds, rng)
            uhat = random_admissible_state(system, bounds, rng)
            lhs = relative_dissipation(system, u, uhat)
            rhs = c_d * system.l3_faces(u.w - uhat.w)
            assert lhs >= rhs - 1e-14


class TestCostateDefect:
    def test_two_evaluations_agree(self):
        rng = np.random.default_rng(6)
        system = pipe_system(eps=0.4, area=((0.0, 1.0), (1.0, 1.8)))
        for _ in range(25):
            u = random_admissible_state(system, BOUNDS, rng)
            uhat = random_admissible_state(system, BOUNDS, rng)
            d1, d2 = costate_defect_direct(system, u, uhat)
            c1, c2 = costate_defect_closed(system, u, uhat)
            assert np.max(np.abs(d1 - c1)) < 1e-12
            assert np.max(np.abs(d2 - c2)) < 1e-12


class TestC0Constants:
    def test_degenerate_interval(self):
        bounds = AdmissibleBounds(rho_min=1.0, rho_max=1.0, w_max=2.0,
                                  eps_max=0.1)
        lo, hi = c0_constants(bounds, LAW)
        assert lo == pytest.approx(0.25)
        assert hi == pytest.approx(0.75)
        assert lo <= hi

    def test_sandwich_random_pairs(self):
        rng = np.random.default_rng(7)
        for law in (LAW, PowerLaw(1.0, 2.0)):
            bounds = AdmissibleBounds(rho_min=0.6, rho_max=1.6, w_max=1.0,
                                      eps_max=0.45)
            system = pipe_system(eps=0.45, law=law)
            lo, hi = c0_constants(bounds, law)
            for _ in range(200):
                u = random_admissible_state(system, bounds, rng)
                uhat = random_admissible_state(system, bounds, rng)
                nrm = system.c_norm_sq(u.rho - uhat.rho, u.w - uhat.w)
                rel = relative_energy(system, u, uhat)
                assert lo * nrm <= rel + 1e-12
                assert rel <= hi * nrm + 1e-12

    def test_widening_never_increases_lower_constant(self):
        narrow = AdmissibleBounds(rho_min=0.9, rho_max=1.1, w_max=1.0,
                                  eps_max=0.2)
        wide = AdmissibleBounds(rho_min=0.5, rho_max=2.0, w_max=1.0,
                                eps_max=0.2)
        assert c0_constants(wide, LAW)[0] <= c0_constants(narrow, LAW)[0]

    def test_margin_violation_rejected(self):
        bounds = AdmissibleBounds(rho_min=1.0, rho_max=1.0, w_max=1.0,
                                  eps_max=1.0)
        with pytest.raises(ValueError, match="margin"):
            c0_constants(bounds, LAW)


def make_trajectory(system, times, w_fn, rho=1.0):
    traj = Trajectory()
    for t in times:
        state = NetworkState(t, np.full(system.n_cells, rho),
                             np.full(system.n_faces, w_fn(t)))
        traj.append(state, None)
    return traj


class TestResidualFields:
    def test_unperturbed_is_zero(self):
        system = pipe_system(eps=0.3)
        traj = make_trajectory(system, np.linspace(0, 1, 5), lambda t: 1.0)
        e1, e2 = residual_fields(system, traj, 0.3)
        assert np.max(np.abs(e1)) == 0.0
        assert np.max(np.abs(e2)) == 0.0

    def test_stationary_friction_offset(self):
        system = pipe_system(eps=0.3, friction=1.0)
        traj = make_trajectory(system, np.linspace(0, 1, 5), lambda t: 1.0)
        e1, e2 = residual_fields(system, traj, 0.3, gamma_hat=0.9)
        assert np.allclose(e2, 0.1)

    def test_time_varying_uniform_velocity(self):
        system = pipe_system(eps=0.4, friction=1.0)
        times = np.linspace(0.0, 1.0, 9)
        w_fn = lambda t: 1.0 + 0.5 * t**2
        traj = make_trajectory(system, times, w_fn)
        eps, eps_hat, gamma_hat = 0.4, 0.1, 0.8
        e1, e2 = residual_fields(system, traj, eps_hat, gamma_hat=gamma_hat)
        # spatially uniform: the kinetic slope vanishes and the formula
        # reduces to the scalar expression with the same time quotients
        k = 4
        dtw = (w_fn(times[k + 1]) - w_fn(times[k - 1])) / (times[k + 1] - times[k - 1])
        expected = (eps**2 - eps_hat**2) * dtw + (1.0 - gamma_hat) * w_fn(times[k])**2
        assert np.allclose(e2[k], expected, rtol=1e-12)

    def test_needs_two_snapshots(self):
        system = pipe_system()
        traj = make_trajectory(system, [0.0], lambda t: 1.0)
        with pytest.raises(ValueError):
            residual_fields(system, traj, 0.0)


class TestPerturbationFunctional:
    @pytest.fixture
    def setup(self):
        system = pipe_system(eps=0.4)
        constants = stability_constants(BOUNDS, LAW, lip_drho=1.0,
                                        lip_eps_dw=1.0, n_boundary=2)
        return system, constants

    def test_zero(self, setup):
        system, constants = setup
        val = perturbation_functional(system, np.zeros(system.n_cells),
                                      np.zeros(system.n_faces), constants)
        assert val == 0.0

    def test_unit_momentum_residual(self, setup):
        system, constants = setup
        val = perturbation_functional(system, np.zeros(system.n_cells),
                                      np.ones(system.n_faces), constants)
        assert val == pytest.approx(constants.p2 + constants.p3, rel=1e-12)

    def test_scaling_between_powers(self, setup):
        system, constants = setup
        rng = np.random.default_rng(8)
        e2 = rng.standard_normal(system.n_faces)
        base = perturbation_functional(system, np.zeros(system.n_cells), e2,
                                       constants)
        scaled = perturbation_functional(system, np.zeros(system.n_cells),
                                         3.0 * e2, constants)
        assert 3.0**1.5 * base <= scaled <= 9.0 * base + 1e-12


class TestBoundaryPerturbation:
    @pytest.fixture
    def setup(self):
        system = pipe_system(eps=0.4)
        constants = stability_constants(BOUNDS, LAW, n_boundary=2)
        return system, constants

    def test_identical_schedules(self, setup):
        system, constants = setup
        sched = {"inlet": 1.0, "outlet": 1.0}
        val = boundary_perturbation(system, sched, sched, 0.5, 0.4, constants)
        assert val == 0.0

    def test_single_vertex_offset(self, setup):
        system, constants = setup
        a = {"inlet": 1.2, "outlet": 1.0}
        b = {"inlet": 1.0, "outlet": 1.0}
        val = boundary_perturbation(system, a, b, 0.0, 0.4, constants)
        assert val == pytest.approx(0.2 * constants.c_boundary, rel=1e-12)

    def test_two_vertices_rss_and_epsilon(self, setup):
        system, constants = setup
        a = {"inlet": 1.3, "outlet": 1.4}
        b = {"inlet": 1.0, "outlet": 1.0}
        val = boundary_perturbation(system, a, b, 0.0, 0.2, constants)
        expected = constants.c_boundary * (0.5 + abs(0.4**2 - 0.2**2))
        assert val == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", ["pipe_limit", "y_limit"])
def test_limit_energy_balance_on_committed_scenarios(name):
    # backward Euler on the convex limit energy: every step's residual is
    # <= 0 up to solver tolerance
    scenario = load_scenario(os.path.join(SCEN, f"{name}.scn"))
    scenario = replace(scenario, solver=replace(scenario.solver, parabolic=True))
    system = scenario.build_system()
    traj = run(system, scenario.initial_state(system), scenario.solver,
               scenario.boundary)
    res = power_balance_residual(traj)
    assert res.size == len(traj.states) - 1 >= 600
    assert np.max(res) <= 1e-10


class TestPowerBalance:
    def test_rest_state_residuals_vanish(self):
        system = pipe_system(eps=0.4)
        state = system.rest_state(1.0)
        traj = run(system, state, SolverConfig(dt=0.02, t_final=0.2),
                   {"inlet": 1.0, "outlet": 1.0})
        assert np.max(np.abs(power_balance_residual(traj))) < 1e-12

    def test_friction_loop_residual_second_order(self):
        system = build_system(loop_network(), cells_per_edge=8,
                              law=LAW, epsilon=0.5)
        rho0 = 1.0 + 0.1 * np.sin(np.pi * system.x_cells)
        maxres = []
        for dt in (4e-3, 2e-3, 1e-3):
            state = NetworkState(0.0, rho0.copy(),
                                 np.full(system.n_faces, 0.5))
            traj = run(system, state, SolverConfig(dt=dt, t_final=0.2), {})
            maxres.append(np.max(np.abs(power_balance_residual(traj))))
        orders = np.log2(np.array(maxres[:-1]) / np.array(maxres[1:]))
        assert np.all(orders > 1.8), orders

    def test_lossless_loop_energy_drift_high_order(self):
        system = build_system(loop_network(friction=0.0),
                              cells_per_edge=8, law=LAW, epsilon=0.5)
        rho0 = 1.0 + 0.05 * np.sin(2 * np.pi * system.x_cells / 2.0)
        drifts = []
        for dt in (4e-3, 2e-3):
            state = NetworkState(0.0, rho0.copy(), np.zeros(system.n_faces))
            traj = run(system, state, SolverConfig(dt=dt, t_final=0.1), {})
            energies = np.array([r.energy for r in traj.reports])
            drifts.append(np.max(np.abs(np.diff(energies))))
        order = np.log2(drifts[0] / drifts[1])
        assert order > 2.5, (drifts, order)

    def test_backward_euler_residual_nonpositive(self):
        system = pipe_system(eps=0.5, n=24)
        rho0 = 1.0 + 0.2 * np.exp(-50 * (system.x_cells - 0.5) ** 2)
        state = NetworkState(0.0, rho0, np.zeros(system.n_faces))
        traj = run(system, state,
                   SolverConfig(dt=5e-3, t_final=0.1, scheme="backward-euler"),
                   {"inlet": 1.0, "outlet": 1.0})
        assert np.max(power_balance_residual(traj)) <= 1e-10

    def test_committed_transient(self):
        # every report's dissipation is the pow formula's to roundoff, and
        # the midpoint residual falls under dt/2 as `pipeflow verify` asks
        scenario = load_scenario(os.path.join(SCEN, "y_transient.scn"))
        system = scenario.build_system()
        state0 = scenario.initial_state(system)
        worst = []
        for dt in (scenario.solver.dt, scenario.solver.dt / 2):
            traj = run(system, state0, replace(scenario.solver, dt=dt),
                       scenario.boundary)
            for state, report in zip(traj.states, traj.reports, strict=True):
                assert report.dissipation == pytest.approx(
                    _cube_power(system, state.rho, state.w), rel=1e-15,
                    abs=0.0)
            worst.append(np.max(np.abs(power_balance_residual(traj))))
        assert worst[1] <= 0.35 * worst[0]

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_parabolic_residual_nonpositive(self, eps):
        # on a parabolic run the residual is that of the limit energy
        # (no eps^2 kinetic term), which backward Euler dissipates
        system = build_system(y_network(), cells_per_edge=10,
                              law=LAW, epsilon=eps)
        ramp = lambda tau: 1.0 + 0.12 * min(tau / 0.05, 1.0)
        sched = {"inlet": ramp, "outlet_a": 1.0, "outlet_b": 0.99}
        dt = 5e-3
        traj = run(system, system.rest_state(1.0),
                   SolverConfig(dt=dt, t_final=0.2, parabolic=True), sched)
        res = power_balance_residual(traj)
        energy = np.array([limit_energy(system, s.rho) for s in traj.states])
        expected = (np.diff(energy) + dt * np.array(traj.stage_dissipation)
                    - dt * np.array(traj.stage_flux))
        assert np.array_equal(res, expected)
        assert np.max(res) <= 1e-11
        assert np.min(res) < -1e-8  # the ramp drives a dissipative flow


class TestGronwallMonitor:
    def make_pair(self):
        system = pipe_system(eps=0.4, n=12)
        rho0 = 1.0 + 0.08 * np.sin(np.pi * system.x_cells)
        state0 = NetworkState(0.0, rho0, np.zeros(system.n_faces))
        sched = {"inlet": 1.0, "outlet": 1.0}
        config = SolverConfig(dt=0.01, t_final=0.2)
        traj = run(system, state0, config, sched)
        return system, traj, sched

    def test_identical_trajectories_hold_with_zero_slack(self):
        system, traj, sched = self.make_pair()
        constants = stability_constants(BOUNDS, LAW, n_boundary=2)
        cert = gronwall_monitor(system, traj, traj, constants, sched)
        assert cert.ok
        assert cert.min_slack == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_friction_pair_certified(self):
        system, traj, sched = self.make_pair()
        pert = build_system(
            single_pipe().with_friction_offset(0.2),
            cells_per_edge=12, law=LAW, epsilon=0.4)
        state0 = traj.states[0].copy()
        traj_hat = run(pert, state0, SolverConfig(dt=0.01, t_final=0.2), sched)
        lip = lipschitz_estimates(system, traj_hat)
        constants = stability_constants(BOUNDS, LAW, lip_drho=lip[0],
                                        lip_eps_dw=lip[1], n_boundary=2)
        cert = gronwall_monitor(system, traj, traj_hat, constants, sched,
                                eps_hat=0.4, gamma_hat=1.2)
        assert cert.ok
        assert cert.min_slack >= 0.0

    def test_corrupted_trajectory_fails(self):
        system, traj, sched = self.make_pair()
        constants = stability_constants(BOUNDS, LAW, n_boundary=2)
        bad = Trajectory()
        for k, s in enumerate(traj.states):
            s2 = s.copy()
            if k == len(traj.states) // 2:
                s2.rho = s2.rho + 0.5
            bad.append(s2, traj.reports[k])
        cert = gronwall_monitor(system, bad, traj, constants, sched)
        assert not cert.ok


def _residual_fields_loop(system, traj, eps, eps_hat, gamma_hat):
    """residual_fields one snapshot at a time, as it was computed before
    it took the snapshot stack; the reference for the batched form."""
    times = np.asarray(traj.times)
    w = traj.w_array()
    dtw = np.empty_like(w)
    dtw[1:-1] = (w[2:] - w[:-2]) / (times[2:] - times[:-2])[:, None]
    dtw[0] = (w[1] - w[0]) / (times[1] - times[0])
    dtw[-1] = (w[-1] - w[-2]) / (times[-1] - times[-2])
    gamma = system.gamma_faces
    lc, rc = system.face_left_cell, system.face_right_cell
    interior, start, end = (lc >= 0) & (rc >= 0), lc < 0, rc < 0
    lf, rf = system.cell_left_face, system.cell_right_face
    om = system.omega_faces
    e2 = np.empty_like(w)
    for k, wk in enumerate(w):
        kin_c = 0.25 * (wk[lf] ** 2 + wk[rf] ** 2)
        dkin = np.empty(system.n_faces)
        dkin[interior] = (kin_c[rc[interior]] - kin_c[lc[interior]]) / om[interior]
        dkin[start] = (kin_c[rc[start]] - 0.5 * wk[start] ** 2) / om[start]
        dkin[end] = (0.5 * wk[end] ** 2 - kin_c[lc[end]]) / om[end]
        e2[k] = ((eps**2 - eps_hat**2) * (dtw[k] + dkin)
                 + (gamma - gamma_hat) * np.abs(wk) * wk)
    return np.zeros((len(w), system.n_cells)), e2


def _gronwall_loop(system, traj_u, traj_hat, constants, schedule,
                   schedule_hat, eps_hat, gamma_hat):
    """The certificate ingredients and bound sides one snapshot at a time."""
    from pipeflow.energy import _exp_trapz_accumulate

    times = np.asarray(traj_u.times)
    e1, e2 = _residual_fields_loop(system, traj_hat, system.epsilon, eps_hat,
                                   gamma_hat)
    out = {key: [] for key in ("cnorm_sq", "rel_dissipation", "rel_energy",
                               "p_residual", "p_boundary")}
    for k, (u, uh) in enumerate(zip(traj_u.states, traj_hat.states)):
        out["cnorm_sq"].append(system.c_norm_sq(u.rho - uh.rho, u.w - uh.w))
        out["rel_dissipation"].append(relative_dissipation(system, u, uh))
        out["rel_energy"].append(relative_energy(system, u, uh))
        out["p_residual"].append(
            perturbation_functional(system, e1[k], e2[k], constants))
        out["p_boundary"].append(boundary_perturbation(
            system, schedule, schedule_hat, times[k], eps_hat, constants))
    out = {key: np.array(v) for key, v in out.items()}
    rate = constants.growth
    i_diss = _exp_trapz_accumulate(times, out["rel_dissipation"], rate)
    i_pert = _exp_trapz_accumulate(times, out["p_residual"] + out["p_boundary"],
                                   rate)
    out["lhs"] = constants.c0_lower * out["cnorm_sq"] + i_diss
    out["rhs"] = (constants.c0_upper * out["cnorm_sq"][0]
                  * np.exp(rate * times) + i_pert)
    slack = out["rhs"] - out["lhs"]
    out["ok"] = bool(np.all(slack >= -1e-10 * np.maximum(1.0, np.abs(out["rhs"]))))
    return out


class TestBatchedCertificate:
    """The certificate over the snapshot stack against per-snapshot loops."""

    def pair(self, kind):
        system = build_system(y_network(), cells_per_edge=6, law=LAW, epsilon=0.3)
        rho0 = 1.0 + 0.08 * np.sin(np.pi * system.x_cells)
        ramp = lambda tau: 1.0 + 0.1 * min(tau / 0.05, 1.0)
        sched = {"inlet": ramp, "outlet_a": 1.0, "outlet_b": 0.99}
        config = SolverConfig(dt=5e-3, t_final=0.1)
        if kind == "epsilon":
            # a hyperbolic run against the limit model
            traj = run(system, NetworkState(0.0, rho0, np.zeros(system.n_faces)),
                       config, sched)
            limit = SolverConfig(dt=5e-3, t_final=0.1, parabolic=True)
            ref = run(system, NetworkState(0.0, rho0, np.zeros(system.n_faces)),
                      limit, sched)
            return system, traj, ref, sched, {"eps_hat": 0.0, "gamma_hat": None}
        pert = build_system(y_network().with_friction_offset(0.2),
                            cells_per_edge=6, law=LAW, epsilon=0.3)
        state0 = NetworkState(0.0, rho0, np.zeros(system.n_faces))
        traj = run(system, state0, config, sched)
        traj_hat = run(pert, state0, config, sched)
        return system, traj, traj_hat, sched, {
            "eps_hat": 0.3, "gamma_hat": system.gamma_faces + 0.2}

    @pytest.mark.parametrize("kind", ["epsilon", "gamma"])
    def test_functionals_on_stacks_match_rows(self, kind):
        system, traj, traj_hat, _, kw = self.pair(kind)
        u = NetworkState(np.asarray(traj.times), traj.rho_array(), traj.w_array())
        uh = NetworkState(u.tau, traj_hat.rho_array(), traj_hat.w_array())
        for fn in (relative_energy, relative_dissipation):
            batched = fn(system, u, uh)
            rows = [fn(system, a, b) for a, b in zip(traj.states, traj_hat.states)]
            assert batched.shape == (len(rows),)
            np.testing.assert_allclose(batched, rows, rtol=1e-13, atol=0)
        constants = stability_constants(BOUNDS, LAW, lip_drho=1.0,
                                        lip_eps_dw=1.0, n_boundary=3)
        e1, e2 = residual_fields(system, traj_hat, kw["eps_hat"],
                                 gamma_hat=kw["gamma_hat"])
        ref_e1, ref_e2 = _residual_fields_loop(
            system, traj_hat, 0.3, kw["eps_hat"],
            system.gamma_faces if kw["gamma_hat"] is None else kw["gamma_hat"])
        assert np.array_equal(e1, ref_e1)
        np.testing.assert_allclose(e2, ref_e2, rtol=1e-13, atol=0)
        batched = perturbation_functional(system, e1, e2, constants)
        rows = [perturbation_functional(system, a, b, constants)
                for a, b in zip(e1, e2)]
        np.testing.assert_allclose(batched, rows, rtol=1e-13, atol=0)
        with pytest.raises(ValueError, match="grids"):
            relative_energy(system, u, traj_hat.states[0])

    @pytest.mark.parametrize("kind", ["epsilon", "gamma"])
    def test_monitor_matches_per_snapshot_loop(self, kind):
        system, traj, traj_hat, sched, kw = self.pair(kind)
        lip = lipschitz_estimates(system, traj_hat)
        constants = stability_constants(BOUNDS, LAW, lip_drho=lip[0],
                                        lip_eps_dw=lip[1], n_boundary=3)
        cert = gronwall_monitor(system, traj, traj_hat, constants, sched, **kw)
        gamma_hat = (system.gamma_faces if kw["gamma_hat"] is None
                     else kw["gamma_hat"])
        ref = _gronwall_loop(system, traj, traj_hat, constants, sched, sched,
                             kw["eps_hat"], gamma_hat)
        assert cert.ok == ref["ok"]
        for key in ("lhs", "rhs", "cnorm_sq", "rel_dissipation", "rel_energy",
                    "p_residual", "p_boundary"):
            np.testing.assert_allclose(getattr(cert, key), ref[key],
                                       rtol=1e-12, atol=0, err_msg=key)


def test_lipschitz_estimates_linear_motion():
    system = pipe_system(eps=0.5)
    times = np.linspace(0, 1, 6)
    traj = Trajectory()
    for t in times:
        traj.append(NetworkState(t, np.full(system.n_cells, 1.0 + 0.3 * t),
                                 np.full(system.n_faces, 2.0 * t)), None)
    drho, depsw = lipschitz_estimates(system, traj)
    assert drho == pytest.approx(0.3, rel=1e-12)
    assert depsw == pytest.approx(0.5 * 2.0, rel=1e-12)


class TestPerturbedSubstitution:
    def test_residual_formula_matches_substitution_at_order_two(self):
        # a discrete solution of the perturbed system, substituted into
        # the unperturbed semi-discrete equations with centered time
        # quotients, leaves exactly the model-perturbation residual up
        # to time-discretization error
        eps, gamma, gamma_hat = 0.45, 1.0, 1.25
        gaps = []
        for dt in (2e-3, 1e-3):
            base = pipe_system(eps=eps, n=16, friction=gamma)
            pert = pipe_system(eps=eps, n=16, friction=gamma_hat)
            rho0 = 1.0 + 0.1 * np.sin(np.pi * pert.x_cells)
            state0 = NetworkState(0.0, rho0, np.zeros(pert.n_faces))
            sched = {"inlet": 1.0, "outlet": 1.0}
            traj = run(pert, state0, SolverConfig(dt=dt, t_final=0.1), sched)

            _, e2 = residual_fields(base, traj, eps, gamma_hat=gamma_hat)
            times = np.asarray(traj.times)
            worst = 0.0
            for k in range(1, len(times) - 1):
                s = traj.states[k]
                h, m = base.costate(s)
                wdot = (traj.states[k + 1].w - traj.states[k - 1].w) / (
                    times[k + 1] - times[k - 1])
                fr = base.gamma_faces * np.abs(s.w) * s.w
                row = (base.c_w * wdot
                       + base.apply_gs(h, np.zeros(base.n_junctions))
                       + base.omega_faces * fr - base.boundary_load(sched))
                substitution = row / base.omega_faces
                worst = max(worst, np.max(np.abs(substitution - e2[k])))
            gaps.append(worst)
        order = np.log2(gaps[0] / gaps[1])
        assert order > 1.5, (gaps, order)


def test_unperturbed_pair_error_at_solver_floor():
    # identical problems solved at dt and dt/4 differ only by the
    # time-discretization floor, far below any perturbation signal
    system = pipe_system(eps=0.5, n=16)
    rho0 = 1.0 + 0.1 * np.sin(np.pi * system.x_cells)
    state0 = NetworkState(0.0, rho0, np.zeros(system.n_faces))
    sched = {"inlet": 1.0, "outlet": 1.0}
    coarse = run(system, state0, SolverConfig(dt=2e-3, t_final=0.1), sched)
    fine = run(system, state0, SolverConfig(dt=5e-4, t_final=0.1), sched)
    d_rho = coarse.states[-1].rho - fine.states[-1].rho
    assert np.sqrt(system.l2sq_cells(d_rho)) < 1e-6


def test_total_energy_scales_with_pipe_length():
    system = build_system(single_pipe(length=2.0),
                          cells_per_edge=16, law=LAW, epsilon=1.0)
    state = constant_state(system, 1.0, 1.0)
    assert hamiltonian(system, state) == pytest.approx(1.0)


def test_backward_euler_dissipative_on_network():
    from pipeflow.network import y_network

    system = build_system(y_network(), cells_per_edge=10, law=LAW, epsilon=0.4)
    state0 = system.rest_state(1.0)
    ramp = lambda tau: 1.0 + 0.12 * min(tau / 0.05, 1.0)
    sched = {"inlet": ramp, "outlet_a": 1.0, "outlet_b": 0.99}
    traj = run(system, state0,
               SolverConfig(dt=5e-3, t_final=0.2, scheme="backward-euler"),
               sched)
    # junction coupling transmits no energy, so the signed per-step
    # balance stays nonpositive on networks too
    assert np.max(power_balance_residual(traj)) <= 1e-10


def _tabulated_law():
    from pipeflow.gas import TabulatedLaw

    rho = np.linspace(0.3, 3.0, 12)
    return TabulatedLaw(rho, PowerLaw(1.0, 1.4).pressure(rho))


@pytest.mark.parametrize("law", [LAW, PowerLaw(1.0, 1.4), _tabulated_law()],
                         ids=["isothermal", "power", "tabulated"])
def test_report_functionals_on_stacks_equal_their_rows(law):
    # the run reports a block of snapshots with one call per functional;
    # each row is the float of that snapshot alone, bit for bit
    topology = y_network(elevation=((0.0, 0.0), (1.0, 0.2)), gravity=0.5)
    system = build_system(topology, cells_per_edge=7, law=law, epsilon=0.3)
    rng = np.random.default_rng(5)
    k = 6
    rho = 0.8 + 0.6 * rng.random((k, system.n_cells))
    w = rng.standard_normal((k, system.n_faces))
    taus = np.linspace(0.0, 0.5, k).tolist()
    values = {v: 1.0 + 0.1 * rng.random(k) for v in system.boundary_vertices}
    stack = NetworkState(taus, rho, w)
    states = [NetworkState(t, r, u) for t, r, u in zip(taus, rho, w)]
    row_values = [{v: float(x[i]) for v, x in values.items()} for i in range(k)]
    cases = {
        "hamiltonian": (hamiltonian(system, stack),
                        [hamiltonian(system, s) for s in states]),
        "limit_energy": (limit_energy(system, rho),
                         [limit_energy(system, r) for r in rho]),
        "dissipation": (dissipation(system, stack),
                        [dissipation(system, s) for s in states]),
        "boundary_flux": (boundary_flux(system, stack, values),
                          [boundary_flux(system, s, x)
                           for s, x in zip(states, row_values)]),
    }
    for name, (batched, rows) in cases.items():
        assert batched.shape == (k,), name
        assert all(type(r) is float for r in rows), name
        assert batched.tobytes() == np.array(rows).tobytes(), name
