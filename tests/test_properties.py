"""Seeded property tests of the discrete structure.

Hypothesis draws the cases from a fixed seed (``derandomize=True``) and
keeps no example database, so every run checks the same cases; its
other caches go to a temporary directory, so a run leaves no
``.hypothesis`` directory behind.
"""

import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from pipeflow.discretization import (  # noqa: E402
    EdgeGrid, NetworkState, NetworkSystem)
from pipeflow.energy import limit_energy  # noqa: E402
from pipeflow.gas import IsothermalLaw, PipeParameters, PowerLaw  # noqa: E402
from pipeflow.network import Edge, NetworkTopology  # noqa: E402
from pipeflow.solver import (  # noqa: E402
    Batch, HyperbolicStepper, ParabolicStepper, SolverConfig, run)

from helpers import (  # noqa: E402
    assert_csc_is_the_coo_sum, balance_residuals)


# hypothesis caches the constants of the loaded modules under its home
# directory, by default .hypothesis in the working directory, already
# while pytest collects the tests; this one is removed at exit
_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_home.name)


@st.composite
def multigraph_systems(draw, epsilon=st.floats(0.0, 1.0),
                       law=st.just(IsothermalLaw(1.0))):
    """A connected multigraph of 2-6 vertices: a spanning tree, one pipe
    parallel to a tree pipe (so there is a cycle) and up to three more
    pipes, each with its own direction, length, grid, slope and constant
    or linear area; its epsilon drawn from ``epsilon``, its gas law from
    ``law``."""
    n = draw(st.integers(2, 6))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    ends.append(draw(st.sampled_from(ends)))
    ends += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))
                          .filter(lambda ab: ab[0] != ab[1]), max_size=3))
    edges, grids = [], {}
    for k, (a, b) in enumerate(ends):
        if draw(st.booleans()):
            a, b = b, a
        length = draw(st.floats(0.25, 2.0))
        area = draw(st.one_of(
            st.floats(0.5, 2.0),
            st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0))
            .map(lambda ab: ((0.0, ab[0]), (length, ab[1])))))
        slope = ((0.0, draw(st.floats(-1.0, 1.0))),
                 (length, draw(st.floats(-1.0, 1.0))))
        params = PipeParameters(length=length, area=area, elevation=slope,
                                gravity=draw(st.floats(0.0, 2.0)))
        edges.append(Edge(f"e{k}", f"v{a}", f"v{b}", params))
        grids[f"e{k}"] = EdgeGrid(length, draw(st.integers(2, 6)))
    return NetworkSystem(NetworkTopology(edges), grids, draw(law),
                         epsilon=draw(epsilon))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_j_is_skew_on_random_multigraphs(data):
    system = data.draw(multigraph_systems())
    z = data.draw(arrays(np.float64, system.n_z,
                         elements=st.floats(-1e3, 1e3)))
    assert abs(system.apply_j(z) @ z) <= 1e-12 * (z @ z)


@pytest.mark.parametrize("scheme", ["midpoint", "backward-euler", "parabolic"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data())
def test_csc_jacobian_is_the_coo_sum_on_random_multigraphs(scheme, data):
    # at rest or at a random state, with random junction enthalpies
    if scheme == "parabolic":
        stepper = ParabolicStepper(data.draw(multigraph_systems()))
    else:
        stepper = HyperbolicStepper(
            data.draw(multigraph_systems(epsilon=st.floats(0.01, 1.0))),
            scheme=scheme)
    system = stepper.system
    rho = data.draw(arrays(np.float64, system.n_cells,
                           elements=st.floats(0.5, 2.0)))
    w = np.zeros(system.n_faces)
    if not data.draw(st.booleans()):  # not at rest
        w = data.draw(arrays(np.float64, system.n_faces,
                             elements=st.floats(-1.0, 1.0)))
    hv = data.draw(arrays(np.float64, system.n_junctions,
                          elements=st.floats(0.0, 2.0)))
    state = NetworkState(0.0, rho, w)
    values = {v: 1.0 for v in system.boundary_vertices}
    dt = data.draw(st.floats(1e-3, 1.0))
    _, cache = stepper._residual(dt, state,
                                 (None, system.boundary_load(values)),
                                 np.concatenate((rho, w, hv)))
    assert_csc_is_the_coo_sum(stepper, stepper._jacobian(dt, cache),
                              stepper._jacobian_data(dt, cache))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data())
def test_midpoint_junction_rows_are_the_whole_grid_flux(data):
    # the residual gathers the end-of-step flux at the junction faces
    # alone; its rows equal S^T over every face's flux bit for bit, for
    # one state and for a batch's (2, n) stack
    system = data.draw(multigraph_systems(epsilon=st.floats(0.01, 1.0)))
    n_c, n_f, n_j = system.n_cells, system.n_faces, system.n_junctions

    def unknowns():
        return np.concatenate((
            data.draw(arrays(np.float64, n_c, elements=st.floats(0.5, 2.0))),
            data.draw(arrays(np.float64, n_f, elements=st.floats(-1.0, 1.0))),
            data.draw(arrays(np.float64, n_j, elements=st.floats(0.0, 2.0)))))

    x0 = np.array([unknowns(), unknowns()])
    x = np.array([unknowns(), unknowns()])
    load = system.boundary_load({v: 1.0 for v in system.boundary_vertices})
    for stepper, start, end, dt_load in (
            (HyperbolicStepper(system), x0[0], x[0], load),
            (HyperbolicStepper([system, system]), x0, x,
             np.array([load, load]))):
        state = NetworkState(0.0, start[..., :n_c], start[..., n_c:n_c + n_f])
        res, _ = stepper._residual(0.01, state, (None, dt_load), end)
        flux = system.apply_st(system.arho_faces(end[..., :n_c])
                               * end[..., n_c:n_c + n_f])
        assert res[..., n_c + n_f:].tobytes() == flux.tobytes()


# the steppers' properties: eps = 0 is the limit model's alone
EPSILONS = [0.0, 0.1, 0.5, 1.0]
LAWS = [IsothermalLaw(1.0), PowerLaw(1.0, 2.0)]
MODELS = ["hyperbolic", "parabolic"]


def _epsilons(model):
    return st.sampled_from(EPSILONS if model == "parabolic" else EPSILONS[1:])


def _model_system(data, model):
    """A random multigraph with eps from EPSILONS and a law from LAWS."""
    return data.draw(multigraph_systems(epsilon=_epsilons(model),
                                        law=st.sampled_from(LAWS)))


def _config(model, scheme="midpoint"):
    return SolverConfig(dt=0.01, t_final=0.05, scheme=scheme,
                        parabolic=model == "parabolic")


def _rest(system):
    """The rest state with density 2 at the mean elevation, and its
    boundary enthalpies."""
    h = float(system.law.dpotential(np.full(1, 2.0))[0]
              + np.mean(system.gz_cells))
    return system.rest_state(h), dict.fromkeys(system.boundary_vertices, h)


def _driven(data, system):
    """The rest state, with boundary enthalpies off rest by up to 0.05."""
    state, boundary = _rest(system)
    return state, {v: h + data.draw(st.floats(-0.05, 0.05))
                   for v, h in boundary.items()}


@pytest.mark.parametrize("model", MODELS)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data())
def test_junction_mass_is_conserved_on_random_multigraphs(model, data):
    system = _model_system(data, model)
    state0, boundary = _driven(data, system)
    traj = run(system, state0, _config(model), boundary)
    # not the parabolic start: limit_flow balances its velocities only
    # to the float resolution of a junction enthalpy, through sqrt
    for state in traj.states[1:]:
        assert np.max(np.abs(system.junction_mass_defect(state)),
                      initial=0.0) < 1e-10


@pytest.mark.parametrize("model", MODELS)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data())
def test_backward_euler_balance_on_random_multigraphs(model, data):
    # backward Euler dissipates the Hamiltonian, or the limit model's
    # convex energy, up to the steps' Newton tolerance (pipeflow verify)
    system = _model_system(data, model)
    state0, boundary = _driven(data, system)
    config = _config(model, scheme="backward-euler")
    traj = run(system, state0, config, boundary)
    h0 = (limit_energy(system, state0.rho) if config.parabolic
          else traj.reports[0].energy)
    assert (np.max(balance_residuals(traj))
            <= config.newton_tol * max(1.0, abs(h0)))


@pytest.mark.parametrize("model", MODELS)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data())
def test_rest_is_well_balanced_on_random_multigraphs(model, data):
    system = _model_system(data, model)
    rest, boundary = _rest(system)
    config = _config(model)
    traj = run(system, rest, config, boundary)
    # gamma w^2 = -s with a roundoff slope s, which Newton leaves below
    # its tolerance
    w_max = np.sqrt(config.newton_tol / system.gamma_faces)
    for state in traj.states:
        assert np.all(np.abs(state.rho - rest.rho) <= 1e-13 * rest.rho)
        if config.parabolic:
            assert np.all(np.abs(state.w) <= w_max)


@pytest.mark.parametrize("model", MODELS)
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(st.data())
def test_a_batch_is_its_members_runs_on_random_multigraphs(model, data):
    # members differ in eps and boundary data on one network
    system = _model_system(data, model)
    config = _config(model)
    members = []
    for _ in range(data.draw(st.integers(2, 3))):
        member = NetworkSystem(system.topology, system.grids, system.law,
                               epsilon=data.draw(_epsilons(model)))
        state0, boundary = _driven(data, member)
        members.append((member, state0, config, boundary, None))
    # the limit model sets w by gamma |w| w = -s, so near rest w holds
    # only to sqrt(tol / gamma) and the slope is what the runs share
    flow = ((lambda w: system.gamma_faces * np.abs(w) * w)
            if config.parabolic else (lambda w: w))
    with Batch(members) as batch:
        for member in members:
            traj, own = run(*member, batch=batch), run(*member)
            np.testing.assert_allclose(traj.rho_array(), own.rho_array(),
                                       rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(flow(traj.w_array()),
                                       flow(own.w_array()), rtol=0.0,
                                       atol=1e-9)
