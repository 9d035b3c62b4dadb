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
from pipeflow.gas import IsothermalLaw, PipeParameters  # noqa: E402
from pipeflow.network import Edge, NetworkTopology  # noqa: E402
from pipeflow.solver import HyperbolicStepper, ParabolicStepper  # noqa: E402

from helpers import assert_csc_is_the_coo_sum  # noqa: E402


# hypothesis caches the constants of the loaded modules under its home
# directory, by default .hypothesis in the working directory, already
# while pytest collects the tests; this one is removed at exit
_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_home.name)


@st.composite
def multigraph_systems(draw, epsilon=st.floats(0.0, 1.0)):
    """A connected multigraph of 2-6 vertices: a spanning tree, one pipe
    parallel to a tree pipe (so there is a cycle) and up to three more
    pipes, each with its own direction, length, grid, slope and constant
    or linear area; its epsilon drawn from ``epsilon``."""
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
    return NetworkSystem(NetworkTopology(edges), grids, IsothermalLaw(1.0),
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
