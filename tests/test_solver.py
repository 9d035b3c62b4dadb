import inspect
import os
import pickle
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
import scipy.sparse as sp
from scipy.sparse import linalg as sp_linalg

from pipeflow import energy as energy_mod
from pipeflow import solver as solver_mod
from pipeflow.discretization import NetworkState, build_system, schedule_values
from pipeflow.gas import AdmissibleBounds, IsothermalLaw, PowerLaw
from pipeflow.network import loop_network, single_pipe, y_network
from pipeflow.scenario import load_scenario
from pipeflow.solver import (
    HyperbolicStepper,
    ParabolicStepper,
    SolverConfig,
    StepFailure,
    limit_flow,
    run,
    velocity_recovery,
)

from helpers import (assert_csc_is_the_coo_sum, assert_no_child_processes,
                     constant_state, total_mass)

LAW = IsothermalLaw(1.0)
SCEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "scenarios")
NO_JUNCTIONS = np.zeros(0)  # junction enthalpies of a single pipe


def friction_decay(w0, gamma, eps, tau):
    return w0 / (1.0 + gamma * w0 * tau / eps**2)


class TestHyperbolicStep:
    def test_rest_state_fixed_point(self):
        topo = single_pipe(elevation=((0.0, 0.0), (1.0, 0.2)))
        system = build_system(topo, cells_per_edge=12, law=LAW, epsilon=0.4)
        state = system.rest_state(1.1)
        boundary = {"inlet": 1.1, "outlet": 1.1}
        for scheme in ("midpoint", "backward-euler"):
            new, _ = HyperbolicStepper(system, scheme=scheme).step(
                state, 0.05, boundary)
            assert np.max(np.abs(new.rho - state.rho)) < 1e-11
            assert np.max(np.abs(new.w)) < 1e-11

    def test_friction_decay_matches_closed_form(self):
        eps, gamma, w0 = 0.5, 1.0, 1.0
        system = build_system(loop_network(friction=gamma),
                              cells_per_edge=6, law=LAW, epsilon=eps)
        errors = []
        for dt in (0.02, 0.01):
            config = SolverConfig(dt=dt, t_final=1.0)
            traj = run(system, constant_state(system, 1.0, w0), config, {})
            w_num = traj.states[-1].w
            assert np.ptp(w_num) < 1e-10  # stays spatially constant
            assert np.ptp(traj.states[-1].rho) < 1e-10
            errors.append(abs(w_num[0] - friction_decay(w0, gamma, eps, 1.0)))
        ratio = errors[0] / errors[1]
        assert 3.4 < ratio < 4.6

    def test_midpoint_self_convergence_order_two(self):
        system = build_system(single_pipe(), cells_per_edge=12, law=LAW, epsilon=0.5)
        rho0 = 1.0 + 0.1 * np.exp(-40 * (system.x_cells - 0.5) ** 2)
        state0 = NetworkState(0.0, rho0, np.zeros(system.n_faces))
        boundary = {"inlet": 1.0, "outlet": 1.0}

        def solve(dt):
            traj = run(system, state0, SolverConfig(dt=dt, t_final=0.2), boundary)
            return traj.states[-1]

        ref = solve(0.2 / 256)
        errs = []
        for dt in (0.02, 0.01):
            s = solve(dt)
            errs.append(np.sqrt(system.l2sq_cells(s.rho - ref.rho)
                                + system.l2sq_faces(s.w - ref.w)))
        order = np.log2(errs[0] / errs[1])
        assert 1.7 < order < 2.3

    def test_epsilon_zero_rejected(self):
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.0)
        with pytest.raises(ValueError, match="parabolic"):
            HyperbolicStepper(system)

    @pytest.mark.parametrize("epsilon, stepper", [(0.05, HyperbolicStepper),
                                                  (0.0, ParabolicStepper)],
                             ids=["hyperbolic", "parabolic"])
    def test_newton_failure_diagnostics(self, epsilon, stepper):
        system = build_system(single_pipe(), cells_per_edge=8,
                              law=LAW, epsilon=epsilon)
        rho0 = 1.0 + 0.3 * np.sin(2 * np.pi * system.x_cells)
        state0 = NetworkState(0.0, rho0, np.zeros(system.n_faces))
        with pytest.raises(StepFailure) as info:
            stepper(system, max_iter=1).step(state0, 0.5,
                                             {"inlet": 1.0, "outlet": 1.0})
        assert info.value.residual is not None
        assert info.value.iterations == 1
        assert info.value.dt == 0.5

    @pytest.mark.parametrize("model", ["hyperbolic", "parabolic"])
    def test_nan_boundary_value_fails_the_step(self, model):
        _, state0, boundary, make = _y_flow(model)
        boundary["outlet_a"] = float("nan")
        with pytest.raises(StepFailure, match="not finite") as info:
            make().step(state0, 0.01, boundary)
        assert info.value.iterations == 0

    def test_nan_velocity_fails_the_step(self):
        system, state0, boundary, make = _y_flow("hyperbolic")
        state0.w[5] = np.nan
        with pytest.raises(StepFailure, match="not finite"):
            make().step(state0, 0.01, boundary)
        with pytest.raises(StepFailure) as info:
            run(system, state0, SolverConfig(dt=0.01, t_final=0.05), boundary)
        assert info.value.step == 0

    def test_scaled_norm_propagates_nan(self):
        for k in range(4):
            res = np.array([1e-3, 2.0, -5.0, 0.5])
            res[k] = np.nan
            assert np.isnan(solver_mod._scaled_norm(res, np.full(4, 2.0)))
        assert solver_mod._scaled_norm(np.array([1.0, -6.0, 3.0]),
                                       np.array([1.0, 2.0, 4.0])) == 3.0


class _SolveOnly:
    """A factorization that offers nothing but solve."""

    __slots__ = ("solve",)

    def __init__(self, solve):
        self.solve = solve


@pytest.fixture
def lu_calls(monkeypatch):
    """Count the factorizations made through pipeflow.solver.splu."""
    calls = []
    splu = solver_mod.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return _SolveOnly(splu(*args, **kwargs).solve)

    monkeypatch.setattr(solver_mod, "splu", counting)
    return calls


def _y_flow(model):
    """A y-network filling from its inlet, and a stepper factory for it."""
    epsilon = 0.4 if model == "hyperbolic" else 0.0
    system = build_system(y_network(), cells_per_edge=16, law=LAW, epsilon=epsilon)
    boundary = {"inlet": 1.1, "outlet_a": 1.0, "outlet_b": 0.99}
    if model == "hyperbolic":
        make = lambda: HyperbolicStepper(system)
    else:
        make = lambda: ParabolicStepper(system)
    return system, constant_state(system, 1.0), boundary, make


@pytest.mark.parametrize("model", ["hyperbolic", "parabolic"])
class TestFactorizationReuse:
    def test_run_factors_less_than_once_per_step(self, model, lu_calls):
        system, state0, boundary, _ = _y_flow(model)
        config = SolverConfig(dt=0.02, t_final=1.0,
                              parabolic=model == "parabolic")
        traj = run(system, state0, config, boundary)
        assert len(traj.iterations) == len(traj.factorizations) == 50
        assert 0 < len(lu_calls) < 50
        assert sum(traj.factorizations) == len(lu_calls)
        assert sum(traj.iterations) >= len(lu_calls)

    def test_held_lu_is_refreshed_after_max_lu_age_steps(self, model,
                                                         lu_calls):
        # every iterating step uses an LU factored at most max_lu_age = 20
        # steps before it; without the limit the hyperbolic run of
        # y_limit keeps its first LU for all 300 steps
        scenario = load_scenario(os.path.join(SCEN, "y_limit.scn"))
        system = scenario.build_system()
        config = replace(scenario.solver, t_final=300 * scenario.solver.dt,
                         parabolic=model == "parabolic")
        traj = run(system, scenario.initial_state(system), config,
                   scenario.boundary)
        assert len(traj.iterations) == len(traj.factorizations) == 300
        assert sum(traj.factorizations) == len(lu_calls)
        factored = None
        for k, (its, lus) in enumerate(zip(traj.iterations,
                                           traj.factorizations)):
            if lus:
                factored = k
            elif its:
                assert k - factored <= 20

    def test_new_dt_factors_again(self, model, lu_calls):
        system, state0, boundary, make = _y_flow(model)
        stepper = make()
        stepper.step(state0, 0.02, boundary)
        before = len(lu_calls)
        half, info = stepper.step(state0, 0.01, boundary)
        assert info["factorizations"] >= 1
        assert len(lu_calls) - before == info["factorizations"]
        fresh, _ = make().step(state0, 0.01, boundary)
        assert np.max(np.abs(half.rho - fresh.rho)) < 1e-10
        assert np.max(np.abs(half.w - fresh.w)) < 1e-10


def _transient_jacobians(stepper, eps, cells):
    """The Jacobians a stepper factors over three steps of y_transient
    filling from rest, each with its scipy CSC matrix."""
    jacobians = []
    splu = solver_mod.splu

    def capturing(jac, **kwargs):
        jacobians.append(jac)
        return splu(jac, **kwargs)

    scenario = load_scenario(os.path.join(SCEN, "y_transient.scn"))
    scenario = replace(scenario, epsilon=eps)
    system = replace(scenario, cells_per_edge=cells).build_system()
    state = scenario.initial_state(system)
    newton = stepper(system)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "splu", capturing)
        for _ in range(3):
            state = newton.step(state, scenario.solver.dt,
                                scenario.boundary)[0]
    assert jacobians
    return [(jac, sp.csc_matrix((jac.data, jac.indices, jac.indptr),
                                shape=jac.shape)) for jac in jacobians]


@pytest.mark.parametrize("stepper, eps", [(HyperbolicStepper, 0.4),
                                          (HyperbolicStepper, 0.025),
                                          (HyperbolicStepper, 0.005),
                                          (ParabolicStepper, 0.4)])
def test_stepper_ordering_keeps_fill_linear(stepper, eps):
    # y_transient filling from rest at 256 cells per edge: the factors
    # hold about 6 entries per row; MMD_AT_PLUS_A on the parabolic
    # Jacobian, whose momentum diagonal vanishes where the gas rests,
    # holds more than 300 from the second step on
    for jac, csc in _transient_jacobians(stepper, eps, cells=256):
        lu = sp_linalg.splu(csc, permc_spec=stepper.ordering)
        assert lu.L.nnz + lu.U.nnz <= 10 * jac.shape[0]


@pytest.mark.parametrize("stepper", [HyperbolicStepper, ParabolicStepper])
def test_splu_factors_as_scipy_does(stepper):
    # pipeflow calls SuperLU's extension itself; on the steppers'
    # Jacobians, under their orderings, that factorization is scipy's
    rng = np.random.default_rng(0)
    for jac, csc in _transient_jacobians(stepper, 0.4, cells=64):
        ours = solver_mod.splu(jac, permc_spec=stepper.ordering)
        ref = sp_linalg.splu(csc, permc_spec=stepper.ordering)
        b = rng.standard_normal(jac.shape[0])
        assert ours.solve(b).tobytes() == ref.solve(b).tobytes()
        assert ours.L.nnz + ours.U.nnz == ref.L.nnz + ref.U.nnz
        assert np.array_equal(ours.perm_c, ref.perm_c)


def test_splu_loads_no_scipy_package():
    # only the extension is loaded; scipy.sparse.linalg, imported
    # afterwards, shares it and still factors
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(SCEN), "src"),
         os.environ.get("PYTHONPATH", "")])}
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from pipeflow import solver\n"
        "jac = solver.CSC(np.array([4.0, 1.0, 2.0, 3.0, 1.0]),\n"
        "                 np.array([0, 1, 0, 1, 2], dtype=np.intc),\n"
        "                 np.array([0, 2, 4, 5], dtype=np.intc), (3, 3))\n"
        "b = np.array([1.0, 2.0, 3.0])\n"
        "x = solver.splu(jac, permc_spec='COLAMD').solve(b)\n"
        "assert [m for m in sys.modules if m.startswith('scipy')] == [\n"
        "    'scipy.sparse.linalg._dsolve._superlu']\n"
        "import scipy.sparse as sp\n"
        "from scipy.sparse.linalg import splu\n"
        "csc = sp.csc_matrix(jac[:3], shape=jac.shape)\n"
        "assert splu(csc, permc_spec='COLAMD').solve(b).tobytes() == x.tobytes()\n"
        "assert np.allclose(csc @ x, b)\n"
        "assert solver.splu(jac).L.nnz == splu(csc).L.nnz\n")
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def _start_and_step(stepper, state, dt, boundary):
    """The unknowns a step starts Newton from, and the step's new state."""
    starts = []
    residual = stepper._residual

    def recording(dt, state, loads, x):
        starts.append(x.copy())
        return residual(dt, state, loads, x)

    stepper._residual = recording
    try:
        new, _ = stepper.step(state, dt, boundary)
    finally:
        del stepper._residual
    return starts[0], new


@pytest.mark.parametrize("model, bound", [("parabolic", 2.0),
                                          ("hyperbolic", 2.5)])
def test_predicted_start_cuts_iterations_on_y_limit(model, bound):
    # starting from the previous state took 4.37 (parabolic) and 4.55
    # (hyperbolic) iterations per step, the quadratic start 2.73 and 3.48;
    # the variable-order start takes 1.46 and 2.66, with the held LU
    # refreshed after max_lu_age steps 1.44 and 1.99
    scenario = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    system = scenario.build_system()
    config = replace(scenario.solver, parabolic=model == "parabolic")
    traj = run(system, scenario.initial_state(system), config,
               scenario.boundary)
    assert np.mean(traj.iterations) < bound


def _polynomial_sequence(degree, n_steps, size=7):
    """Vectors x_k = sum_i c_i k^i with small integer coefficients, whose
    differences and extrapolations are exact in floating point."""
    rng = np.random.default_rng(degree)
    coeffs = rng.integers(-3, 4, size=(degree + 1, size)).astype(float)
    coeffs[0] += 1000.0  # positive "densities"
    return [sum(c * float(k)**i for i, c in enumerate(coeffs))
            for k in range(n_steps)]


class TestDifferenceTable:
    def _table(self, xs):
        system = build_system(single_pipe(), cells_per_edge=3,
                              law=LAW, epsilon=0.4)
        stepper = HyperbolicStepper(system)
        for x in xs:
            stepper._accept(x, 0.01)
        return stepper

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_exact_on_polynomial_sequences(self, degree):
        xs = _polynomial_sequence(degree, 9)
        stepper = self._table(xs[:-1])
        assert len(stepper._diffs) == HyperbolicStepper.max_order + 2
        assert np.array_equal(stepper._predict(), xs[-1])

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_order_follows_the_degree(self, degree):
        # the order-p miss nabla^(p+1) x_n vanishes from p = degree on;
        # the lowest such order wins, and at least the linear one
        xs = _polynomial_sequence(degree, 9)
        assert self._table(xs)._order() == max(degree, 1)
        # a short table is limited by its length: x_n, then linear,
        # then up to the number of differences less one
        for n in range(1, 7):
            assert self._table(xs[:n])._order() == (
                n - 1 if n < 3 else min(max(degree, 1), n - 2))

    def test_order_drops_on_an_oscillation(self):
        # a linear sequence plus a (-1)^k mode: its differences double
        # with each order, so the lowest order wins
        xs = _polynomial_sequence(1, 9)
        xs = [x + 0.1 * (-1.0)**k for k, x in enumerate(xs)]
        assert self._table(xs)._order() == 1

    def test_update_is_one_subtraction_per_entry(self):
        xs = _polynomial_sequence(4, 9)
        stepper = self._table(xs)
        table = [np.array(xs[-6:])]
        for _ in range(5):
            table.append(table[-1][1:] - table[-1][:-1])
        assert all(np.array_equal(d, t[-1])
                   for d, t in zip(stepper._diffs, table))


def _rest_on_a_y_network(model):
    """A sloped y-network at rest, boundary enthalpies at rest, and a stepper."""
    topo = y_network(elevation=((0.0, 0.0), (1.0, 0.3)), gravity=1.0)
    system = build_system(topo, cells_per_edge=8, law=LAW,
                          epsilon=0.4 if model == "hyperbolic" else 0.0)
    state = system.rest_state(1.2)
    boundary = {v: 1.2 for v in system.boundary_vertices}
    stepper = (HyperbolicStepper(system) if model == "hyperbolic"
               else ParabolicStepper(system))
    return system, state, boundary, stepper


@pytest.mark.parametrize("model", ["hyperbolic", "parabolic"])
def test_rest_state_stays_at_rest_bit_for_bit(model):
    # once a step has found the junction enthalpies, every prediction is
    # the last state itself and Newton accepts it without an iteration;
    # past max_lu_age steps the held LU is dropped, and nothing is
    # factored in its place
    system, state, boundary, stepper = _rest_on_a_y_network(model)
    states, iterations, factorizations = [state], [], []
    for _ in range(45):
        state, info = stepper.step(state, 0.05, boundary)
        states.append(state)
        iterations.append(info["iterations"])
        factorizations.append(info["factorizations"])
    assert iterations[1:] == [0] * 44
    assert factorizations[1:] == [0] * 44
    assert stepper._lu is None
    for s in states[2:]:
        assert np.array_equal(s.rho, states[1].rho)
        assert np.array_equal(s.w, states[1].w)
    assert np.max(np.abs(states[1].rho - states[0].rho)) < 1e-12


@pytest.mark.parametrize("model", ["hyperbolic", "parabolic"])
class TestPredictor:
    def _stepped(self, model, n=3):
        """A stepper and the states it returned over n steps of the y flow."""
        system, state, boundary, make = _y_flow(model)
        stepper = make()
        states = [state]
        for _ in range(n):
            states.append(stepper.step(states[-1], 0.02, boundary)[0])
        return system, boundary, make, stepper, states

    def test_start_is_the_prediction(self, model):
        # the parabolic stepper also starts from the predicted unknowns as
        # they are, velocities included
        system, boundary, _, stepper, states = self._stepped(model, n=6)
        p = stepper._order()
        assert p >= 1
        predicted = sum(stepper._diffs[1:p + 1], stepper._diffs[0])
        start, _ = _start_and_step(stepper, states[-1], 0.02, boundary)
        assert np.array_equal(start, predicted)

    @pytest.mark.parametrize("case", ["new dt", "foreign state",
                                      "nonpositive prediction"])
    def test_restart_starts_as_a_fresh_stepper(self, model, case):
        system, boundary, make, stepper, states = self._stepped(model)
        state, dt = states[-1], 0.02
        if case == "new dt":
            dt = 0.01
        elif case == "foreign state":
            state = state.copy()
        else:
            # x_n + nabla x_n falls below zero
            stepper._diffs[1][:system.n_cells] -= 10.0
            assert stepper._order() == 1
        start, new = _start_and_step(stepper, state, dt, boundary)
        fresh_start, _ = _start_and_step(make(), state, dt, boundary)
        assert np.array_equal(start, fresh_start)
        # the table restarts from the accepted step
        assert len(stepper._diffs) == 1
        again, _ = _start_and_step(stepper, new, dt, boundary)
        assert np.array_equal(again[:system.n_cells], new.rho)


class TestVelocityRecovery:
    def test_constant_density_flat_pipe(self):
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.0)
        w = velocity_recovery(system, np.ones(system.n_cells),
                              {"inlet": 1.0, "outlet": 1.0}, NO_JUNCTIONS)
        assert np.allclose(w, 0.0)

    def test_exponential_profile(self):
        # rho = exp(-x): P' = 1 - x, slope -1 everywhere, w = 1 for gamma=1
        system = build_system(single_pipe(), cells_per_edge=16, law=LAW, epsilon=0.0)
        rho = np.exp(-system.x_cells)
        w = velocity_recovery(system, rho, {"inlet": 1.0, "outlet": 0.0},
                              NO_JUNCTIONS)
        assert np.allclose(w, 1.0, atol=1e-12)

    def test_gamma_scaling(self):
        system = build_system(single_pipe(friction=4.0),
                              cells_per_edge=16, law=LAW, epsilon=0.0)
        rho = np.exp(-system.x_cells)
        w = velocity_recovery(system, rho, {"inlet": 1.0, "outlet": 0.0},
                              NO_JUNCTIONS)
        assert np.allclose(w, 0.5, atol=1e-12)

    def test_friction_law_satisfied_exactly(self):
        rng = np.random.default_rng(4)
        system = build_system(single_pipe(friction=2.0),
                              cells_per_edge=12, law=LAW, epsilon=0.0)
        rho = 1.0 + 0.2 * rng.random(system.n_cells)
        boundary = {"inlet": 1.1, "outlet": 0.95}
        w = velocity_recovery(system, rho, boundary, NO_JUNCTIONS)
        h = system.law.dpotential(rho)
        lc, rc = system.face_left_cell, system.face_right_cell
        s = np.zeros(system.n_faces)
        inner = (lc >= 0) & (rc >= 0)
        s[inner] = (h[rc[inner]] - h[lc[inner]]) / system.omega_faces[inner]
        s[0] = (h[0] - boundary["inlet"]) / system.omega_faces[0]
        s[-1] = (boundary["outlet"] - h[-1]) / system.omega_faces[-1]
        assert np.max(np.abs(system.gamma_faces * np.abs(w) * w + s)) < 1e-13


class TestParabolic:
    def test_uniform_state_stationary(self):
        system = build_system(single_pipe(), cells_per_edge=10, law=LAW, epsilon=0.0)
        state = constant_state(system, 1.0)
        boundary = {"inlet": 1.0, "outlet": 1.0}
        new, _ = ParabolicStepper(system).step(state, 0.05, boundary)
        assert np.max(np.abs(new.rho - 1.0)) < 1e-12
        assert np.max(np.abs(new.w)) < 1e-12

    def test_two_cell_steady_state_against_root_finder(self):
        # drive a 2-cell pipe to steady state, then check it against an
        # independent nested scalar root finder on the face relations
        gamma = 1.3
        system = build_system(single_pipe(friction=gamma),
                              cells_per_edge=2, law=LAW, epsilon=0.0)
        h_left, h_right = 1.2, 1.0
        boundary = {"inlet": h_left, "outlet": h_right}
        state = constant_state(system, 1.0)
        config = SolverConfig(dt=0.5, t_final=60.0, parabolic=True,
                              newton_tol=1e-13)
        traj = run(system, state, config, boundary)
        rho = traj.states[-1].rho
        m = system.arho_faces(rho) * traj.states[-1].w
        assert np.ptp(m) < 1e-10  # steady state: uniform mass flux

        dx = system.dx_cells[0]
        hp = LAW.dpotential

        def flux_from_left(r0):
            # inlet face: gamma w^2 = -(h(r0) - h_left)/(dx/2), flow rightward
            return r0 * np.sqrt((h_left - float(hp(r0))) * 2.0 / dx / gamma)

        def rho1_from_flux(mstar):
            # outlet face: gamma (m/r1)^2 = (h(r1) - h_right)/(dx/2)
            def g(r1):
                return gamma * (mstar / r1) ** 2 - (float(hp(r1)) - h_right) * 2.0 / dx

            lo = np.exp(h_right - 1.0) + 1e-12
            return brentq(g, lo, 1e3, xtol=1e-14)

        def middle_defect(r0):
            mstar = flux_from_left(r0)
            r1 = rho1_from_flux(mstar)
            w_mid = mstar / (0.5 * (r0 + r1))
            s_mid = (float(hp(r1)) - float(hp(r0))) / dx
            return gamma * abs(w_mid) * w_mid + s_mid

        r0_star = brentq(middle_defect, 1.0, np.exp(h_left - 1.0) - 1e-9,
                         xtol=1e-14)
        m_star = flux_from_left(r0_star)
        r1_star = rho1_from_flux(m_star)
        assert rho[0] == pytest.approx(r0_star, abs=1e-8)
        assert rho[1] == pytest.approx(r1_star, abs=1e-8)
        assert m[0] == pytest.approx(m_star, abs=1e-8)

    def test_mass_conserved_on_closed_loop(self):
        system = build_system(loop_network(), cells_per_edge=10, law=LAW, epsilon=0.0)
        rho0 = 1.0 + 0.15 * np.sin(2 * np.pi * system.x_cells / 2.0)
        state = NetworkState(0.0, rho0, np.zeros(system.n_faces))
        config = SolverConfig(dt=0.01, t_final=0.5, parabolic=True)
        traj = run(system, state, config, {})
        masses = [total_mass(system, s) for s in traj.states]
        assert np.max(np.abs(np.diff(masses))) < 1e-10
        # the profile must actually evolve
        assert np.max(np.abs(traj.states[-1].rho - rho0)) > 1e-3

    def test_junction_enthalpy_balances_fluxes(self):
        system = build_system(y_network(), cells_per_edge=8, law=LAW, epsilon=0.0)
        rng = np.random.default_rng(8)
        rho = 1.0 + 0.1 * rng.random(system.n_cells)
        boundary = {"inlet": 1.1, "outlet_a": 1.0, "outlet_b": 0.95}
        w, _ = limit_flow(system, rho, boundary)
        m = system.arho_faces(rho) * w
        assert abs(system.apply_st(m)[0]) < 1e-12

    def test_step_satisfies_limit_equations_on_network(self):
        # the stepper's residual is not used: the friction law is checked
        # against velocity recovery, the mass update against D and S^T
        system = build_system(y_network(), cells_per_edge=12, law=LAW, epsilon=0.0)
        rho0 = 1.0 + 0.05 * np.sin(np.pi * system.x_cells)
        state = NetworkState(0.0, rho0, np.zeros(system.n_faces))
        boundary = {"inlet": lambda tau: 1.0 + tau, "outlet_a": 1.0,
                    "outlet_b": 0.97}
        stepper = ParabolicStepper(system)
        dt = 0.02
        for _ in range(2):  # the second step starts from held junction values
            new, info = stepper.step(state, dt, boundary)
            values = schedule_values(boundary, system.boundary_vertices,
                                     new.tau)
            w_rec = velocity_recovery(system, new.rho, values,
                                      junction_h=info["junction_h"])
            # friction form: the square root amplifies rounding near w = 0
            friction = system.gamma_faces * np.abs(new.w) * new.w
            recovered = system.gamma_faces * np.abs(w_rec) * w_rec
            assert np.max(np.abs(friction - recovered)) < 1e-10
            m = system.arho_faces(new.rho) * new.w
            mass = (system.c_rho * (new.rho - state.rho)
                    + dt * system.apply_d(m))
            assert np.max(np.abs(mass / system.c_rho)) < 1e-10
            assert np.max(np.abs(system.apply_st(m))) < 1e-10
            assert np.max(np.abs(new.w)) > 1e-2  # the step moves mass
            state = new


class TestRun:
    def test_zero_horizon(self):
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.5)
        config = SolverConfig(dt=0.01, t_final=0.0)
        traj = run(system, system.rest_state(1.0), config,
                   {"inlet": 1.0, "outlet": 1.0})
        assert len(traj.states) == 1

    @pytest.mark.parametrize("t_final", [0.4, 0.6, 1.4])
    def test_horizon_off_the_step_grid_is_an_error(self, t_final):
        # 0.4 rounds to zero steps, which used to run none without a word
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.5)
        config = SolverConfig(dt=1.0, t_final=t_final)
        with pytest.raises(ValueError,
                           match="t_final must be an integer multiple of dt"):
            run(system, system.rest_state(1.0), config,
                {"inlet": 1.0, "outlet": 1.0})

    def test_rest_state_over_time(self):
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.5)
        config = SolverConfig(dt=0.05, t_final=1.0)
        state0 = system.rest_state(1.0)
        traj = run(system, state0, config, {"inlet": 1.0, "outlet": 1.0})
        for s in traj.states:
            assert np.max(np.abs(s.rho - state0.rho)) < 1e-10
            assert np.max(np.abs(s.w)) < 1e-10

    def test_partial_trajectory_on_failure(self):
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.05)
        rho0 = 1.0 + 0.3 * np.sin(2 * np.pi * system.x_cells)
        state0 = NetworkState(0.0, rho0, np.zeros(system.n_faces))
        config = SolverConfig(dt=0.5, t_final=5.0, max_iter=1)
        with pytest.raises(StepFailure) as info:
            run(system, state0, config, {"inlet": 1.0, "outlet": 1.0})
        assert info.value.partial is not None
        assert len(info.value.partial.states) >= 1
        assert info.value.dt == 0.5

    def test_admissibility_flagging(self):
        bounds = AdmissibleBounds(rho_min=0.999, rho_max=1.001, w_max=0.5,
                                  eps_max=0.5)
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.5)
        rho0 = 1.0 + 0.1 * np.sin(np.pi * system.x_cells)
        state0 = NetworkState(0.0, rho0, np.zeros(system.n_faces))
        config = SolverConfig(dt=0.01, t_final=0.05)
        traj = run(system, state0, config, {"inlet": 1.0, "outlet": 1.0},
                   bounds=bounds)
        assert traj.warnings

    @pytest.mark.parametrize("model", ["hyperbolic", "parabolic"])
    def test_one_hamiltonian_per_snapshot(self, model, monkeypatch):
        system, state0, boundary, _ = _y_flow(model)
        hamiltonian = energy_mod.hamiltonian
        calls = []

        def counting(system, state):  # one state or a block of them
            calls.extend(np.atleast_1d(state.tau).tolist())
            return hamiltonian(system, state)

        monkeypatch.setattr(energy_mod, "hamiltonian", counting)
        config = SolverConfig(dt=0.01, t_final=0.1,
                              parabolic=model == "parabolic")
        traj = run(system, state0, config, boundary)
        assert len(traj.states) == 11
        assert calls == traj.times
        for state, report in zip(traj.states, traj.reports):
            assert report.energy == hamiltonian(system, state)

    def test_junction_constraint_on_snapshots(self):
        system = build_system(y_network(), cells_per_edge=8, law=LAW, epsilon=0.4)
        state0 = system.rest_state(1.0)
        ramp = lambda tau: 1.0 + 0.15 * min(tau / 0.05, 1.0)
        boundary = {"inlet": ramp, "outlet_a": 1.0, "outlet_b": 1.0}
        config = SolverConfig(dt=0.005, t_final=0.15)
        traj = run(system, state0, config, boundary)
        worst = max(np.max(np.abs(system.junction_mass_defect(s)))
                    for s in traj.states)
        assert worst < 1e-10
        # the run must actually transport mass through the junction
        assert abs(system.junction_mass_defect(traj.states[-1])).max() < 1e-10
        assert np.max(np.abs(traj.states[-1].w)) > 1e-3


def test_parabolic_well_balanced_on_slope():
    # rest state over a sloped pipe stays stationary in the limit model
    from pipeflow.discretization import build_system as _bs

    topo = single_pipe(elevation=((0.0, 0.0), (1.0, 0.4)), gravity=1.0)
    system = _bs(topo, cells_per_edge=12, law=LAW, epsilon=0.0)
    state = system.rest_state(1.2)
    boundary = {"inlet": 1.2, "outlet": 1.2}
    config = SolverConfig(dt=0.05, t_final=0.5, parabolic=True)
    traj = run(system, state, config, boundary)
    for s in traj.states:
        assert np.max(np.abs(s.rho - state.rho)) < 1e-11
        # the square-root recovery amplifies rounding-level enthalpy
        # imbalance to sqrt(eps_mach/dx)-sized velocities
        assert np.max(np.abs(s.w)) < 5e-6
    assert np.max(np.abs(traj.states[-1].w)) < 1e-11


def _sloped_pipe(length, z0, z1, area=1.0, friction=1.0):
    from pipeflow.gas import PipeParameters
    return PipeParameters(length=length, area=area, friction=friction,
                          elevation=((0.0, z0), (length, z1)))


def _sloped_tree():
    # v3 is a junction where both its pipes start
    return {"a": ("v1", "v0", _sloped_pipe(1.0, 0.1, 0.5)),
            "b": ("v0", "v2", _sloped_pipe(1.0, 0.5, 0.3)),
            "c": ("v3", "v0", _sloped_pipe(1.0, 0.3, 0.5)),
            "d": ("v3", "v4", _sloped_pipe(1.0, 0.3, 0.2))}, 2.0


def _sloped_cycle():
    # a two-pipe cycle with two branches, every pipe different
    return {"a": ("v0", "v1", _sloped_pipe(1.0, 0.0, 0.4)),
            "b": ("v1", "v0", _sloped_pipe(1.5, 0.4, 0.0, 0.8, 1.4)),
            "c": ("v1", "v2", _sloped_pipe(0.7, 0.4, 0.1, 1.2, 0.9)),
            "d": ("v3", "v1", _sloped_pipe(1.2, 0.2, 0.4, 0.9, 1.1))}, 1.0


@pytest.mark.parametrize("network", [_sloped_tree, _sloped_cycle])
def test_parabolic_rest_on_sloped_networks(network):
    # a flow out of both pipes of the tree's v3, or around the cycle,
    # changes no density: without the Jacobian's |w| floor the rest
    # state's roundoff met a singular factorization at step 0
    from pipeflow.network import Edge, NetworkTopology

    edges, h = network()
    topo = NetworkTopology([Edge(name, *e) for name, e in edges.items()])
    system = build_system(topo, cells_per_edge=5, law=LAW)
    rest = system.rest_state(h)
    config = SolverConfig(dt=0.01, t_final=0.1, parabolic=True)
    traj = run(system, rest, config,
               dict.fromkeys(system.boundary_vertices, h))
    assert len(traj.states) == 11
    for s in traj.states:
        assert np.max(np.abs(s.rho - rest.rho)) < 1e-13
        # gamma w^2 = -s with a roundoff slope s: |w| ~ sqrt(1e-15)
        assert np.max(np.abs(s.w)) < 1e-7


def test_jacobian_floor_skips_frictionless_faces():
    topo = single_pipe(friction=((0.0, 0.0), (1.0, 2.0)))
    system = build_system(topo, cells_per_edge=4, law=LAW)
    st = ParabolicStepper(system, newton_tol=1e-10)
    gamma = system.gamma_faces
    assert gamma[0] == 0.0 and st._w_floor[0] == 0.0
    assert np.array_equal(st._w_floor[1:], np.sqrt(1e-10 / gamma[1:]))


def test_reports_use_boundary_data_at_their_own_time():
    # the midpoint stage sees the inlet ramp at tau_n + dt/2; each report
    # describes the state at its own tau
    system = build_system(y_network(), cells_per_edge=8, law=LAW, epsilon=0.4)
    ramp = lambda tau: 1.0 + 0.15 * min(tau / 0.05, 1.0)
    fixed = {"outlet_a": 1.0, "outlet_b": 0.99}
    config = SolverConfig(dt=0.01, t_final=0.08, scheme="midpoint")
    traj = run(system, constant_state(system, 1.0), config,
               {"inlet": ramp, **fixed})
    for state, report in zip(traj.states, traj.reports, strict=True):
        values = {"inlet": ramp(state.tau), **fixed}
        assert report.boundary_flux == energy_mod.boundary_flux(system, state,
                                                                values)


# ---------------------------------------------------------------------------
# the run's snapshot bookkeeping and the Newton step's CSC Jacobian

def _per_state_reports(system, config, boundary, traj, bounds):
    """Reports and warnings built one snapshot at a time, with the
    stepping loop's own per-step formulas, as the reference for run's
    block-wise bookkeeping."""
    reports, warnings, h_prev = [], [], np.nan
    for k, state in enumerate(traj.states):
        values = schedule_values(boundary, system.boundary_vertices,
                                 state.tau)
        energy = energy_mod.hamiltonian(system, state)
        h = (energy_mod.limit_energy(system, state.rho) if config.parabolic
             else energy)
        residual = np.nan
        if k:
            residual = (h - h_prev + config.dt * traj.stage_dissipation[k - 1]
                        - config.dt * traj.stage_flux[k - 1])
        h_prev = h
        reports.append((state.tau, energy, energy_mod.dissipation(system, state),
                        energy_mod.boundary_flux(system, state, values),
                        residual))
        if bounds is not None and (kinds := system.check_state(state, bounds)):
            warnings.append((k, state.tau, tuple(kinds)))
    return reports, warnings


def _assert_reports_match_per_state(system, config, boundary, traj, bounds):
    reports, warnings = _per_state_reports(system, config, boundary, traj,
                                           bounds)
    got = [(r.tau, r.energy, r.dissipation, r.boundary_flux,
            r.balance_residual) for r in traj.reports]
    assert len(got) == len(reports) == len(traj.states)
    assert all(type(v) is float for row in got for v in row[1:])
    assert np.array_equal(np.array(got), np.array(reports), equal_nan=True)
    assert np.isnan(got[0][4]) and not np.isnan([r[4] for r in got[1:]]).any()
    assert traj.warnings == warnings
    assert [str(w) for w in traj.warnings] == [
        f"step {k} (tau={tau:.6g}): admissibility lost ({', '.join(kinds)})"
        for k, tau, kinds in warnings]


@pytest.mark.parametrize("parabolic", [False, True],
                         ids=["hyperbolic", "parabolic"])
@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCEN)
                                        if f.endswith(".scn")))
def test_block_reports_equal_per_state_functionals(name, parabolic,
                                                   monkeypatch):
    scen = load_scenario(os.path.join(SCEN, name))
    system = scen.build_system()
    config = replace(scen.solver, parabolic=parabolic,
                     t_final=min(scen.solver.t_final, 300 * scen.solver.dt))
    # blocks of 7 snapshots: several of them, and a shorter last one
    monkeypatch.setattr(solver_mod, "_BLOCK_VALUES", 7 * system.n_faces)
    assert int(round(config.t_final / config.dt)) % 7
    traj = run(system, scen.initial_state(system), config, scen.boundary,
               bounds=scen.bounds)
    _assert_reports_match_per_state(system, config, scen.boundary, traj,
                                    scen.bounds)


def test_block_reports_on_a_failed_run(monkeypatch):
    # single_pipe.scn from rest = 3.0 fails at step 6 when a midpoint
    # step's end density turns negative (see the scenario tests): the
    # partial trajectory is reported up to its last accepted state, which
    # ends inside a block of 4, and states outside the bounds are flagged
    from pipeflow.scenario import parse_scenario

    with open(os.path.join(SCEN, "single_pipe.scn")) as fh:
        text = fh.read().split("[bounds]")[0]
    head, _, tail = text.partition("[initial]\n")
    scen = parse_scenario(head + "[initial]\nrest = 3.0\n"
                          + tail.split("\n\n", 1)[1])
    system = scen.build_system()
    monkeypatch.setattr(solver_mod, "_BLOCK_VALUES", 4 * system.n_faces)
    bounds = AdmissibleBounds(rho_min=0.5, rho_max=7.5, w_max=5.0,
                              eps_max=0.05)
    with pytest.raises(StepFailure, match="end density") as info:
        run(system, scen.initial_state(system), scen.solver, scen.boundary,
            bounds=bounds)
    partial = info.value.partial
    assert len(partial.states) == 7
    assert partial.warnings
    _assert_reports_match_per_state(system, scen.solver, scen.boundary,
                                    partial, bounds)
    assert partial.rho_array().shape == (len(partial.states), system.n_cells)


def _star(n_edges):
    from pipeflow.gas import PipeParameters
    from pipeflow.network import Edge, NetworkTopology

    p = PipeParameters(length=1.0)
    return NetworkTopology([Edge(f"e{i}", f"v{i}", "hub", p) if i % 2 else
                            Edge(f"e{i}", "hub", f"v{i}", p)
                            for i in range(n_edges)])


def _chain():
    from pipeflow.gas import PipeParameters
    from pipeflow.network import Edge, NetworkTopology

    p = PipeParameters(length=1.0, elevation=((0.0, 0.0), (1.0, 0.2)))
    return NetworkTopology([Edge("a", "in", "j1", p), Edge("b", "j1", "j2", p),
                            Edge("c", "j2", "out", p)])


NETWORKS = {"y": y_network, "loop": lambda: loop_network(n_edges=3),
            "chain": _chain, "star": lambda: _star(9)}


def _concatenated_jacobian_data(st, dt, cache):
    """The Jacobian's values as parts joined by concatenate: the
    reference for the one-buffer form."""
    sys = st.system
    dth = dt * st.theta
    rho_s, w_s, arho_s, _, _, rho_end, w_end = cache
    d2p = sys.law._d2potential(rho_s)
    rr_l, rr_r, rw_l, rw_r = st._rr_left, st._rr_right, st._rw_left, st._rw_right
    parts = [
        sys.c_rho,
        dth * w_s[sys.pair_face[rr_l]] * sys.pair_kappa[rr_l],
        -dth * w_s[sys.pair_face[rr_r]] * sys.pair_kappa[rr_r],
        dth * arho_s[rw_l],
        -dth * arho_s[rw_r],
        dth * d2p[sys.face_right_cell[rw_r]],
        -dth * d2p[sys.face_left_cell[rw_l]],
    ]
    if st.eps:
        # through each face's right cell, then through its left cell
        parts += [sign * dth * 0.5 * st.eps**2 * w_s[fp]
                  for sign, fp in zip((1.0, -1.0), st._ww_fp)]
    abs_w = np.abs(w_s) if st.eps else np.maximum(np.abs(w_s), st._w_floor)
    friction = dth * 2.0 * sys.omega_faces * sys.gamma_faces * abs_w
    jf, signs = sys.junction_term_faces, sys.junction_term_signs
    parts += [
        st._c_w + friction if st.eps else friction,
        dt * signs,
        signs * w_end[jf] * st._j_kappa,
        signs * sys.arho_faces(rho_end)[jf],
    ]
    return np.concatenate(parts)


@pytest.mark.parametrize("scheme, name", [
    ("midpoint", "midpoint"), ("implicit-midpoint", "midpoint"),
    ("Midpoint", "midpoint"), (" Implicit-Midpoint ", "midpoint"),
    ("backward-euler", "backward-euler"), ("be", "backward-euler"),
    ("BE", "backward-euler")])
def test_scheme_aliases_name_one_scheme(scheme, name):
    # the config and the stepper read a name alike
    assert SolverConfig(dt=0.1, t_final=1.0, scheme=scheme).scheme == name
    system = build_system(y_network(), cells_per_edge=3, law=LAW, epsilon=0.3)
    theta = HyperbolicStepper(system, scheme=scheme).theta
    assert theta == {"midpoint": 0.5, "backward-euler": 1.0}[name]


@pytest.mark.parametrize("stepper, keys", [
    (HyperbolicStepper, ("scheme", "newton_tol", "max_iter")),
    (ParabolicStepper, ("newton_tol", "max_iter"))])
def test_stepper_defaults_are_the_config_defaults(stepper, keys):
    # a stepper made directly solves as a run with the default config
    params = inspect.signature(stepper).parameters
    assert {k: params[k].default for k in keys} == {
        k: getattr(SolverConfig, k) for k in keys}


def test_unknown_scheme_is_an_error():
    with pytest.raises(ValueError, match="unknown scheme 'trapezoid'"):
        SolverConfig(dt=0.1, t_final=1.0, scheme="trapezoid")
    system = build_system(y_network(), cells_per_edge=3, law=LAW, epsilon=0.3)
    with pytest.raises(ValueError, match="unknown scheme 'trapezoid'"):
        HyperbolicStepper(system, scheme="trapezoid")


@pytest.mark.parametrize("moving", [True, False])
@pytest.mark.parametrize("stepper", ["midpoint", "backward-euler", "parabolic"])
@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_csc_jacobian_equals_coo_conversion(network, stepper, moving):
    system = build_system(NETWORKS[network](), cells_per_edge=5, law=LAW,
                          epsilon=0.3)
    if stepper == "parabolic":
        st = ParabolicStepper(system)
    else:
        st = HyperbolicStepper(system, scheme=stepper)
    rng = np.random.default_rng(len(network))
    state = NetworkState(0.0, 1.0 + 0.2 * rng.random(system.n_cells),
                         0.3 * rng.standard_normal(system.n_faces) * moving)
    x = np.concatenate((state.rho * (1.0 + 0.01 * rng.random(system.n_cells)),
                        state.w + 0.01 * rng.standard_normal(system.n_faces)
                        * moving,
                        rng.random(system.n_junctions)))
    values = {v: 1.0 + 0.1 * rng.random() for v in system.boundary_vertices}
    _, cache = st._residual(0.01, state, (None, system.boundary_load(values)), x)
    jac = st._jacobian(0.01, cache)
    data = st._jacobian_data(0.01, cache)
    assert data.tobytes() == _concatenated_jacobian_data(st, 0.01, cache).tobytes()
    # moving, no entry sums zeros only, so the data are the conversion's
    # byte for byte; at rest (w = 0) the advection entries of a cell's
    # faces are +0.0 and -0.0, and sums of -0.0 only come out +0.0
    zero_sums = assert_csc_is_the_coo_sum(st, jac, data)
    assert (zero_sums == 0) == moving
    # some entries sum three values, where the order of the sum shows
    rows, cols = st._entries()
    assert (np.bincount(np.ravel_multi_index((rows, cols), jac.shape)) == 3).any()


SLOPED = {"single_pipe": single_pipe, "y_network": y_network}


@pytest.mark.parametrize("stepper", ["midpoint", "backward-euler", "parabolic"])
@pytest.mark.parametrize("network", sorted(SLOPED))
def test_jacobian_is_the_derivative_of_the_residual(network, stepper):
    # with an area profile, a slope under gravity and boundary loads,
    # which the acceptance check of the Jacobian leaves out; each face
    # keeps its flow direction with |w| >= 0.1, so |w| w is smooth
    topology = SLOPED[network](friction=1.5, gravity=2.0,
                               area=((0.0, 1.0), (1.0, 1.4)),
                               elevation=((0.0, 0.0), (1.0, 0.3)))
    system = build_system(topology, cells_per_edge=5, law=PowerLaw(1.0, 3.0),
                          epsilon=0.3)
    if stepper == "parabolic":
        st = ParabolicStepper(system)
    else:
        st = HyperbolicStepper(system, scheme=stepper)
    rng = np.random.default_rng(len(network) + len(stepper))
    sign = rng.choice((-1.0, 1.0), size=system.n_faces)
    state = NetworkState(0.0, rng.uniform(0.8, 1.3, system.n_cells),
                         sign * rng.uniform(0.1, 0.9, system.n_faces))
    x = np.concatenate((rng.uniform(0.8, 1.3, system.n_cells),
                        sign * rng.uniform(0.1, 0.9, system.n_faces),
                        rng.uniform(0.5, 1.5, system.n_junctions)))
    values = {v: rng.uniform(0.8, 1.2) for v in system.boundary_vertices}
    loads = (None, system.boundary_load(values))
    dt, step = 0.05, 1e-6
    _, cache = st._residual(dt, state, loads, x)
    data, indices, indptr, shape = st._jacobian(dt, cache)
    jac = sp.csc_matrix((data, indices, indptr), shape=shape)
    for _ in range(3):
        d = rng.uniform(-1.0, 1.0, system.n_z)
        plus = st._residual(dt, state, loads, x + step * d)[0]
        minus = st._residual(dt, state, loads, x - step * d)[0]
        jd = jac @ d
        assert np.linalg.norm((plus - minus) / (2 * step) - jd) \
            <= 1e-7 * np.linalg.norm(jd)


def test_run_memory_stays_near_the_trajectory():
    # the block-wise reports and the Newton step keep their temporaries
    # small: the traced peak of a large-grid run exceeds what the
    # returned trajectory holds by at most 1 MB
    import tracemalloc

    scen = load_scenario(os.path.join(SCEN, "y_transient.scn"))
    system = replace(scen, cells_per_edge=512).build_system()
    state0 = scen.initial_state(system)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = run(system, state0, scen.solver, scen.boundary,
                   bounds=scen.bounds)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    arrays = traj.rho_array().nbytes + traj.w_array().nbytes
    assert len(traj.states) == 301 and arrays < held < arrays + 2**18
    assert peak - held <= 2**20, (peak - held) / 2**20


def _members(scen, epsilons, n_steps, bounds=None):
    """Run arguments of members differing in eps."""
    config = replace(scen.solver, t_final=n_steps * scen.solver.dt)
    members = []
    for eps in epsilons:
        system = replace(scen, epsilon=eps).build_system()
        members.append((system, scen.initial_state(system), config,
                        scen.boundary, bounds))
    return members


@pytest.mark.parametrize("parabolic", [False, True])
def test_batch_of_one_equals_run_bit_for_bit(parabolic):
    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    scen = replace(scen, solver=replace(scen.solver, parabolic=parabolic))
    member, = _members(scen, [0.1], 60)
    alone = run(*member)
    batched = run(*member, batch=solver_mod.Batch([member]))
    for name in ("times", "iterations", "factorizations", "stage_dissipation",
                 "stage_flux"):
        assert getattr(batched, name) == getattr(alone, name), name
    assert list(map(repr, batched.reports)) == list(map(repr, alone.reports))
    for a, b in zip(alone.states, batched.states):
        assert a.rho.tobytes() == b.rho.tobytes()
        assert a.w.tobytes() == b.w.tobytes()
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(alone.junction_h, batched.junction_h))


@pytest.mark.parametrize("stepper", ["midpoint", "backward-euler", "parabolic"])
def test_tiled_jacobian_equals_block_diag(stepper):
    topology = y_network(friction=1.5, gravity=2.0,
                         elevation=((0.0, 0.0), (1.0, 0.3)))
    law = PowerLaw(1.0, 3.0)  # the members share the law object
    systems = [build_system(topology.with_friction_offset(offset),
                            cells_per_edge=5, law=law, epsilon=eps)
               for eps, offset in ((0.3, 0.0), (0.1, 0.4), (0.05, -0.5))]

    def make(system):
        if stepper == "parabolic":
            return ParabolicStepper(system)
        return HyperbolicStepper(system, scheme=stepper)

    rng = np.random.default_rng(len(stepper))
    n_c, n_f, n_j = (systems[0].n_cells, systems[0].n_faces,
                     systems[0].n_junctions)
    rho = rng.uniform(0.8, 1.3, (3, n_c))
    w = rng.uniform(-0.5, 0.5, (3, n_f))
    w[:, ::4] = 0.0  # where the parabolic floor applies
    x = np.concatenate((rho * rng.uniform(0.99, 1.01, (3, n_c)),
                        w + rng.uniform(-0.01, 0.01, (3, n_f)),
                        rng.uniform(0.5, 1.5, (3, n_j))), axis=1)
    values = [{v: rng.uniform(0.8, 1.2) for v in systems[0].boundary_vertices}
              for _ in systems]
    batch = make(systems)
    state = NetworkState(0.0, rho, w)
    loads = (None, systems[0].boundary_load(
        {v: [x[v] for x in values] for v in systems[0].boundary_vertices}))
    jac = batch._jacobian(0.01, batch._residual(0.01, state, loads, x)[1])
    blocks = []
    for i, system in enumerate(systems):
        single = make(system)
        _, cache = single._residual(0.01, NetworkState(0.0, rho[i], w[i]),
                                    (None, system.boundary_load(values[i])),
                                    x[i])
        data, indices, indptr, shape = single._jacobian(0.01, cache)
        blocks.append(sp.csc_matrix((data, indices, indptr), shape=shape))
    ref = sp.block_diag(blocks, format="csc")
    assert jac.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        assert getattr(jac, name).tobytes() == getattr(ref, name).tobytes(), name


def test_stepper_of_one_system_steps_it_alone():
    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    system = scen.build_system()
    for stepper in (HyperbolicStepper([system]), ParabolicStepper((system,))):
        assert stepper.members is None and stepper.system is system


def test_recorded_trajectory_pickles_as_its_stacks():
    # y_limit's densities leave [1, 1.09], so the warnings are not empty
    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    tight = replace(scen.bounds, rho_min=1.0, rho_max=1.09)
    member, = _members(scen, [0.1], 20, bounds=tight)
    traj = run(*member)
    assert traj.warnings and traj.stacks is None
    back = pickle.loads(pickle.dumps(traj, pickle.HIGHEST_PROTOCOL))
    rho, w = back.stacks  # kept, so that nothing is stacked again
    assert back.rho_array() is rho and back.w_array() is w
    for k, (state, own) in enumerate(zip(back.states, traj.states,
                                         strict=True)):
        assert state.tau == own.tau
        assert np.shares_memory(state.rho, rho[k])
        assert np.shares_memory(state.w, w[k])
        assert state.rho.tobytes() == own.rho.tobytes()
        assert state.w.tobytes() == own.w.tobytes()
    assert list(map(repr, back.reports)) == list(map(repr, traj.reports))
    for name in ("times", "stage_dissipation", "stage_flux", "iterations",
                 "factorizations", "warnings"):
        assert getattr(back, name) == getattr(traj, name), name
    assert all(type(x) is float
               for x in back.stage_dissipation + back.stage_flux)
    assert [a.tobytes() for a in back.junction_h] == [
        a.tobytes() for a in traj.junction_h]


def test_batch_members_must_share_grid_and_config():
    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    a, b = _members(scen, [0.2, 0.1], 4)
    coarse = replace(scen, cells_per_edge=4).build_system()
    with pytest.raises(ValueError, match="share topology"):
        HyperbolicStepper([a[0], coarse])
    other = (b[0], b[1], replace(b[2], dt=b[2].dt / 2), b[3], b[4])
    batch = solver_mod.Batch([a, other])
    with pytest.raises(ValueError, match="one SolverConfig"):
        run(*a, batch=batch)
    with pytest.raises(ValueError, match="nothing more to load"):
        run(*other, batch=batch)
    with pytest.raises(ValueError, match="all 2 members of this batch"):
        run(*b, batch=batch)
    # the config check failed in the batch's child and was raised here
    assert_no_child_processes()


def _assert_same_runs(received, expected):
    for got, want in zip(received, expected, strict=True):
        for name in ("times", "iterations", "factorizations",
                     "stage_dissipation", "stage_flux", "warnings"):
            assert getattr(got, name) == getattr(want, name), name
        assert list(map(repr, got.reports)) == list(map(repr, want.reports))
        assert len(got.states) == len(want.states)
        for a, b in zip(got.states, want.states):
            assert a.tau == b.tau
            assert a.rho.tobytes() == b.rho.tobytes()
            assert a.w.tobytes() == b.w.tobytes()
        assert len(got.junction_h) == len(want.junction_h)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(got.junction_h, want.junction_h))


def test_batch_checks_each_member_against_its_own_bounds():
    # y_limit's densities start in [1, 1.08] and leave [1, 1.09]; the
    # last member runs without bounds.  The checks run in the child.
    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    tight = replace(scen.bounds, rho_min=1.0, rho_max=1.09)
    members = (_members(scen, [0.2, 0.1], 20, bounds=tight)
               + _members(scen, [0.05], 20))
    with solver_mod.Batch(members) as batch:
        received = [run(*m, batch=batch) for m in members]
    serial = [run(*m) for m in members]
    assert [t.warnings for t in received] == [t.warnings for t in serial]
    assert received[0].warnings and received[1].warnings
    assert received[2].warnings == []
    # a batch of one is its member's run bit for bit, warnings included
    for member, own in zip(members, serial):
        with solver_mod.Batch([member]) as batch:
            _assert_same_runs([run(*member, batch=batch)], [own])
    assert_no_child_processes()


@pytest.mark.parametrize("parabolic", [False, True])
def test_batch_child_sends_the_runs_bit_for_bit(parabolic):
    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    scen = replace(scen, solver=replace(scen.solver, parabolic=parabolic))
    members = _members(scen, [0.2, 0.1, 0.05], 30)
    with solver_mod.Batch(members) as batch:
        assert batch._child is not None
        # in this process, while the child steps
        expected = solver_mod._run_members(members)
        received = [run(*m, batch=batch) for m in members]
    _assert_same_runs(received, expected)
    for traj in expected + received:
        # the split gives each member its row as a Python float
        assert all(type(x) is float
                   for x in traj.stage_dissipation + traj.stage_flux)
    for traj in received:
        # the states are rows of the received stacks, so the certificates
        # stack nothing a second time
        rho, w = traj.rho_array(), traj.w_array()
        assert rho is traj.rho_array() and w is traj.w_array()
        for k, state in enumerate(traj.states):
            assert np.shares_memory(state.rho, rho[k])
            assert np.shares_memory(state.w, w[k])
    assert_no_child_processes()


def _no_processes():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("fork", ["missing", "failing"])
def test_batch_without_fork_steps_in_process(monkeypatch, fork):
    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    members = _members(scen, [0.2, 0.1], 20)
    batch = solver_mod.Batch(members)
    forked = [run(*m, batch=batch) for m in members]
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _no_processes)
    batch = solver_mod.Batch(members)
    assert_no_child_processes()  # the members wait for the first take
    _assert_same_runs([run(*m, batch=batch) for m in members], forked)
    assert_no_child_processes()


def test_batch_without_fork_holds_its_runs_once_more_at_most(monkeypatch):
    # the stand-in runs the members into a temporary file, so the peak
    # exceeds what the received runs hold by less than those runs; an
    # in-memory buffer held them once more, pickled, while they were
    # received, and the peak exceeded them by 1.31 times what they hold
    import tracemalloc

    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    members = _members(scen, [0.2, 0.1, 0.05, 0.025], 600)
    monkeypatch.delattr(os, "fork")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with solver_mod.Batch(members) as batch:
            received = [run(*m, batch=batch) for m in members]
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    arrays = sum(t.rho_array().nbytes + t.w_array().nbytes for t in received)
    assert arrays < held
    assert peak - held <= held, (peak - held) / held


@pytest.mark.parametrize("fork", ["present", "missing", "failing"])
def test_batch_step_failure_comes_from_the_members_own_runs(monkeypatch,
                                                            fork):
    # a boundary study from rest whose members may take 2 Newton
    # iterations: amplitude 0.1 runs through alone, 0.2 fails alone at
    # step 29, so their joint run fails and the child reruns them
    from pipeflow import studies

    scen = load_scenario(os.path.join(SCEN, "pipe_perturbation.scn"))
    scen = replace(scen, initial=replace(scen.initial, rho="1"),
                   solver=replace(scen.solver, max_iter=2, t_final=0.1))
    taken = []

    def run_and_keep(*args, **kwargs):
        traj = run(*args, **kwargs)
        taken.append((args, traj))
        return traj

    monkeypatch.setattr(studies, "run", run_and_keep)
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    elif fork == "failing":
        monkeypatch.setattr(os, "fork", _no_processes)
    with pytest.raises(StepFailure) as failure:
        studies.boundary_perturbation_study(scen, [0.1, 0.2, 0.4],
                                            certify=False)
    assert failure.value.run_label == "amplitude=0.2"
    assert failure.value.step == 29
    assert len(failure.value.partial.states) == 30
    _, (member_args, received) = taken  # the reference, then amplitude 0.1
    _assert_same_runs([received], [run(*member_args)])
    assert_no_child_processes()


def test_batch_hands_trajectories_out_in_member_order():
    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    members = _members(scen, [0.2, 0.1], 4)
    with solver_mod.Batch(members) as batch:
        with pytest.raises(ValueError, match="expected member 0 of 2"):
            run(*members[1], batch=batch)
        run(*members[0], batch=batch)
        with pytest.raises(ValueError, match="expected member 1 of 2"):
            run(*members[0], batch=batch)  # taken before
        other = _members(scen, [0.1], 4)[0]  # equal, but not the member
        with pytest.raises(ValueError, match="expected member 1 of 2"):
            run(*other, batch=batch)
        run(*members[1], batch=batch)
        with pytest.raises(ValueError, match="all 2 members"):
            run(*members[1], batch=batch)  # the child is reaped
    assert_no_child_processes()


@pytest.mark.parametrize("death, message", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
])
def test_batch_child_that_dies_is_an_error(monkeypatch, death, message):
    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    members = _members(scen, [0.2, 0.1], 4)
    # runs only in the forked child, which thus ends without sending
    monkeypatch.setattr(solver_mod, "_run_members", lambda members: death())
    with solver_mod.Batch(members) as batch:
        with pytest.raises(RuntimeError,
                           match=f"{message} before sending its runs"):
            run(*members[0], batch=batch)
    assert_no_child_processes()


def test_batch_closed_early_kills_its_child():
    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    batch = solver_mod.Batch(_members(scen, [0.2, 0.1], 2000))
    assert batch._child.reap() == -signal.SIGKILL
    batch.close()  # nothing left to stop
    assert_no_child_processes()
