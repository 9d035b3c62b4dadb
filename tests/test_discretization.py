import os
from dataclasses import replace

import numpy as np
import pytest

from pipeflow.discretization import (
    EdgeGrid,
    NetworkState,
    NetworkSystem,
    build_system,
)
from pipeflow.energy import random_admissible_state
from pipeflow.gas import (
    AdmissibleBounds,
    IsothermalLaw,
    PipeParameters,
    PowerLaw,
    TabulatedLaw,
)
from pipeflow.network import (
    Edge,
    NetworkTopology,
    loop_network,
    single_pipe,
    y_network,
)
from pipeflow.scenario import load_scenario

from helpers import constant_state, csr_operators, spatial_residual

SCEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "scenarios")

LAW = IsothermalLaw(1.0)
BOUNDS = AdmissibleBounds(rho_min=0.7, rho_max=1.4, w_max=1.5, eps_max=0.5)


class TestGrids:
    def test_uniform_grid(self):
        g = EdgeGrid(1.0, 4)
        assert g.dx == 0.25
        assert g.cell_centers.shape == (4,)
        assert g.faces.shape == (5,)
        assert np.all(np.diff(g.faces) > 0)
        assert g.face_volumes[0] == g.face_volumes[-1] == 0.125
        assert np.all(g.face_volumes[1:-1] == 0.25)

    def test_y_network_counts(self):
        topo = y_network()
        system = build_system(topo, cells_per_edge=8, law=LAW)
        assert system.n_cells == 3 * 8
        assert system.n_faces == 3 * 9
        assert system.n_junctions == 1

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            EdgeGrid(1.0, 1)


class TestStructure:
    def test_skew_symmetry_random(self):
        rng = np.random.default_rng(11)
        system = build_system(y_network(), cells_per_edge=16, law=LAW, epsilon=0.3)
        for _ in range(20):
            z = rng.standard_normal(system.n_z)
            val = z @ system.apply_j(z)
            assert abs(val) / (z @ z) < 1e-13

    def test_j_blocks_negative_transpose(self):
        # single pipe, N=4: the m->cells block of the applied J is the
        # signed pair difference matrix and the h->faces block its
        # negative transpose
        system = build_system(single_pipe(), cells_per_edge=4, law=LAW, epsilon=0.4)
        d_expected = np.zeros((4, 5))
        for c in range(4):
            d_expected[c, c] = -1.0
            d_expected[c, c + 1] = 1.0
        j = np.column_stack([system.apply_j(e) for e in np.eye(system.n_z)])
        n_c, n_f = system.n_cells, system.n_faces
        assert np.array_equal(j[:n_c, n_c:n_c + n_f], d_expected)
        assert np.array_equal(j[n_c:n_c + n_f, :n_c], -d_expected.T)
        assert np.array_equal(j, -j.T)
        # with junctions: each of a closed loop's three junction rows
        # holds its two terms, and J = -J^T entry by entry
        loop = build_system(loop_network(n_edges=3), cells_per_edge=3, law=LAW)
        j = np.column_stack([loop.apply_j(e) for e in np.eye(loop.n_z)])
        assert np.array_equal(np.count_nonzero(j[loop.n_state:], axis=1),
                              [2, 2, 2])
        assert np.array_equal(j, -j.T)

    def test_c_diagonal_positive(self):
        system = build_system(y_network(), cells_per_edge=8, law=LAW, epsilon=0.25)
        assert np.all(system.c_state > 0.0)

    def test_r_entries(self):
        # face with gamma=1, a=1, rho=1, |w|=2 has R entry 2*face volume
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.5)
        state = constant_state(system, 1.0, 2.0)
        diag = system.r_diag(state)
        m_slots = slice(system.n_cells, system.n_cells + system.n_faces)
        assert np.allclose(diag[m_slots], 2.0 * system.omega_faces)
        assert np.all(diag >= 0.0)

    def test_r_nonnegative_random(self):
        rng = np.random.default_rng(5)
        system = build_system(y_network(), cells_per_edge=8, law=LAW, epsilon=0.3)
        for _ in range(10):
            state = random_admissible_state(system, BOUNDS, rng)
            assert np.all(system.r_diag(state) >= 0.0)

    def test_validate_rejects_bad_state(self):
        system = build_system(single_pipe(), cells_per_edge=4, law=LAW, epsilon=0.5)
        state = constant_state(system, 1.0)
        state.rho[2] = -1.0
        with pytest.raises(ValueError, match="density"):
            state.validate()
        state = constant_state(system, 1.0)
        state.w[1] = np.nan
        with pytest.raises(ValueError, match="velocity"):
            state.validate()


class TestCostate:
    def test_constant_state(self):
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.2)
        state = constant_state(system, 1.0, 2.0)
        h, m = system.costate(state)
        assert np.allclose(h, 0.5 * 0.04 * 4.0 + 1.0)
        assert np.allclose(m, 2.0)

    def test_face_average_of_mass_flux(self):
        system = build_system(single_pipe(), cells_per_edge=4, law=LAW, epsilon=0.2)
        rho = np.array([1.0, 2.0, 3.0, 4.0])
        state = NetworkState(0.0, rho, np.ones(5))
        _, m = system.costate(state)
        assert m[0] == pytest.approx(1.0)       # one-sided at the ends
        assert m[1] == pytest.approx(1.5)
        assert m[2] == pytest.approx(2.5)
        assert m[4] == pytest.approx(4.0)

    def test_rest_state(self):
        law = PowerLaw(1.2, 2.0)
        system = build_system(y_network(), cells_per_edge=4, law=law, epsilon=0.3)
        rho = np.linspace(0.8, 1.3, system.n_cells)
        h, m = system.costate(NetworkState(0.0, rho, np.zeros(system.n_faces)))
        assert np.allclose(h, law.dpotential(rho), rtol=1e-15, atol=0.0)
        assert np.all(m == 0.0)

    def test_mass_flux_product(self):
        system = build_system(single_pipe(area=2.0),
                              cells_per_edge=4, law=LAW, epsilon=0.2)
        _, m = system.costate(constant_state(system, 1.5, 2.0))
        assert np.allclose(m, 6.0)

    def test_gravity_term(self):
        topo = single_pipe(elevation=((0.0, 0.0), (1.0, 2.0)), gravity=3.0)
        system = build_system(topo, cells_per_edge=4, law=LAW, epsilon=0.2)
        h, _ = system.costate(constant_state(system, 1.0))
        assert np.allclose(h, 1.0 + 3.0 * 2.0 * system.x_cells)

    def test_energy_gradient_consistency(self):
        # the discrete co-state is exactly C^{-1} grad H
        from pipeflow.energy import hamiltonian

        rng = np.random.default_rng(2)
        system = build_system(y_network(elevation=((0.0, 0.0), (1.0, 0.2))),
                              cells_per_edge=5, law=PowerLaw(1.2, 2.0),
                              epsilon=0.35)
        state = random_admissible_state(system, BOUNDS, rng)
        h, m = system.costate(state)
        step = 1e-6
        for idx in (0, 3, system.n_cells - 1):
            sp = state.copy(); sp.rho[idx] += step
            sm = state.copy(); sm.rho[idx] -= step
            fd = (hamiltonian(system, sp) - hamiltonian(system, sm)) / (2 * step)
            assert fd == pytest.approx(system.c_rho[idx] * h[idx], rel=1e-6)
        for idx in (0, 4, system.n_faces - 1):
            sp = state.copy(); sp.w[idx] += step
            sm = state.copy(); sm.w[idx] -= step
            fd = (hamiltonian(system, sp) - hamiltonian(system, sm)) / (2 * step)
            assert fd == pytest.approx(system.c_w[idx] * m[idx], rel=1e-6, abs=1e-12)


class TestJunctions:
    def test_mass_defect_of_constrained_state(self):
        # a state whose terminal fluxes balance has exactly zero defect
        system = build_system(y_network(), cells_per_edge=6, law=LAW, epsilon=0.3)
        state = constant_state(system, 1.0, 0.0)
        assert np.allclose(system.junction_mass_defect(state), 0.0)
        # feed 2*w into the junction, split evenly into the branches
        state.w[system.edge_faces("feed")] = 0.5
        state.w[system.edge_faces("branch_a")] = 0.25
        state.w[system.edge_faces("branch_b")] = 0.25
        assert abs(system.junction_mass_defect(state)[0]) < 1e-15

    def test_junction_energy_flux_vanishes(self):
        # with a single junction enthalpy the signed energy flux is
        # h_v * (signed mass sum) and vanishes for balanced states
        system = build_system(y_network(), cells_per_edge=6, law=LAW, epsilon=0.3)
        state = constant_state(system, 1.0, 0.0)
        state.w[system.edge_faces("feed")] = 0.5
        state.w[system.edge_faces("branch_a")] = 0.25
        state.w[system.edge_faces("branch_b")] = 0.25
        hv = np.array([1.23])
        defect = system.junction_mass_defect(state)
        assert abs(hv[0] * defect[0]) < 1e-15

    @staticmethod
    def _terminal_signs(system):
        faces = np.concatenate((system.junction_term_faces,
                                system.boundary_term_faces))
        signs = np.concatenate((system.junction_term_signs,
                                system.boundary_term_signs))
        return dict(zip(faces.tolist(), signs.tolist()))

    def test_terminal_face_signs(self):
        # a pipe's flow leaves the vertex it starts at and enters the
        # vertex it ends at
        system = build_system(y_network(), cells_per_edge=4, law=LAW, epsilon=0.3)
        signs = self._terminal_signs(system)
        assert len(signs) == 2 * len(system.topology.edges)
        for e in system.topology.edges:
            faces = system.edge_faces(e.name)
            assert signs[faces.start] == -1.0
            assert signs[faces.stop - 1] == 1.0

    def test_signs_cancel_per_edge(self):
        system = build_system(loop_network(n_edges=3),
                              cells_per_edge=4, law=LAW, epsilon=0.3)
        assert system.boundary_term_faces.size == 0
        signs = self._terminal_signs(system)
        for e in system.topology.edges:
            faces = system.edge_faces(e.name)
            assert signs[faces.start] + signs[faces.stop - 1] == 0.0

    def test_junction_terms_come_from_incident_edges(self):
        system = build_system(loop_network(n_edges=3),
                              cells_per_edge=4, law=LAW, epsilon=0.3)
        for slot, v in enumerate(system.junction_vertices):
            faces = system.junction_term_faces[system.junction_term_slots == slot]
            expected = []
            for e in system.topology.edges_at(v):
                edge = system.edge_faces(e.name)
                expected.append(edge.start if e.start == v else edge.stop - 1)
            assert sorted(faces.tolist()) == sorted(expected)

    def test_loop_counts(self):
        system = build_system(loop_network(), cells_per_edge=8, law=LAW, epsilon=0.5)
        assert system.n_junctions == 2
        assert len(system.boundary_vertices) == 0


class TestSpatialResidual:
    def test_rest_state_is_stationary(self):
        topo = single_pipe(elevation=((0.0, 0.0), (1.0, 0.3)), gravity=1.0)
        system = build_system(topo, cells_per_edge=16, law=LAW, epsilon=0.4)
        state = system.rest_state(1.2)
        drho, dw = spatial_residual(
            system, state, {"inlet": 1.2, "outlet": 1.2})
        assert np.max(np.abs(drho)) < 1e-13
        assert np.max(np.abs(dw)) < 1e-12

    def test_rest_state_solves_once_per_flat_network(self):
        sizes = []

        class CountingLaw(IsothermalLaw):
            def dpotential(self, rho):
                sizes.append(np.size(rho))
                return super().dpotential(rho)

        system = build_system(y_network(), cells_per_edge=64,
                              law=CountingLaw(1.0), epsilon=0.4)
        state = system.rest_state(1.1)
        # one target whatever the number of cells: the law only ever sees
        # one-element arrays
        assert sizes and set(sizes) == {1}
        assert np.all(state.rho == state.rho[0])
        assert np.all(state.w == 0.0)

    def test_rest_state_matches_per_cell_roots(self):
        from scipy.optimize import brentq

        topo = single_pipe(elevation=((0.0, 0.0), (1.0, 0.2)))
        for law in (LAW, PowerLaw(1.0, 1.4)):
            system = build_system(topo, cells_per_edge=12, law=law,
                                  epsilon=0.4)
            targets = 1.1 - system.gz_cells
            reference = np.array([brentq(lambda r: law.dpotential(r) - t,
                                         1e-8, 1e8, xtol=1e-14, rtol=1e-15)
                                  for t in targets])
            rho = system.rest_state(1.1).rho

            def residual(r):
                return np.abs(law.dpotential(r) - targets)

            np.testing.assert_allclose(rho, reference, rtol=1e-14, atol=0.0)
            assert np.all(residual(rho) <= residual(reference))
            for toward in (0.0, np.inf):
                assert np.all(residual(rho)
                              <= residual(np.nextafter(rho, toward)))

    def test_tabulated_rest_state_on_slope(self):
        table = np.linspace(0.2, 3.0, 57)
        law = TabulatedLaw(table, table**1.3)
        flat = build_system(single_pipe(), cells_per_edge=8, law=law, epsilon=0.4)
        assert flat.rest_state(law.dpotential([1.1])[0]).rho == pytest.approx(
            1.1, rel=1e-14)
        topo = single_pipe(elevation=((0.0, 0.0), (1.0, 0.5)))
        system = build_system(topo, cells_per_edge=64, law=law, epsilon=0.4)
        h = law.dpotential([1.1])[0]
        rho = system.rest_state(h).rho
        targets = h - system.gz_cells
        residual = np.abs(law.dpotential(rho) - targets)
        assert np.all(residual <= 4 * np.spacing(np.abs(targets)))
        for toward in (0.0, np.inf):
            neighbour = np.abs(law.dpotential(np.nextafter(rho, toward)) - targets)
            assert np.all(residual <= neighbour)
        assert np.all(np.diff(rho) < 0.0)  # less gas higher up
        # a target beyond the table's densities is named, not clipped
        high = law.dpotential([3.0])[0] + 0.25
        with pytest.raises(ValueError, match=f"{high:.17g}"):
            flat.rest_state(high)

    def test_friction_decay_on_loop(self):
        eps, gamma, w0 = 0.5, 0.8, 1.0
        system = build_system(loop_network(friction=gamma),
                              cells_per_edge=8, law=LAW, epsilon=eps)
        state = constant_state(system, 1.0, w0)
        drho, dw = spatial_residual(system, state, {})
        assert np.max(np.abs(drho)) < 1e-13
        assert np.allclose(dw, -gamma * w0**2 / eps**2, rtol=1e-12)

    def test_missing_boundary_datum(self):
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.4)
        state = constant_state(system, 1.0)
        with pytest.raises(ValueError, match="outlet"):
            spatial_residual(system, state, {"inlet": 1.0})

    def test_epsilon_zero_rejected(self):
        system = build_system(single_pipe(), cells_per_edge=8, law=LAW, epsilon=0.0)
        state = constant_state(system, 1.0)
        with pytest.raises(ValueError, match="parabolic"):
            spatial_residual(system, state, {"inlet": 1.0, "outlet": 1.0})

    def test_manufactured_consistency_second_order(self):
        # symbolic forcing oracle: the semi-discrete residual matches the
        # analytic time derivatives at second order in dx
        import sympy as sy

        eps, gamma, kappa = 0.3, 1.0, 1.0
        x, t = sy.symbols("x tau")
        rho_s = 1 + sy.Rational(1, 10) * sy.sin(2 * sy.pi * x) * (1 + t)
        w_s = sy.Rational(2, 5) * 16 * x**2 * (1 - x) ** 2 * (1 + t / 2)
        dpot = kappa * (2 * rho_s - 1)
        h_s = eps**2 * w_s**2 / 2 + dpot
        f1_s = sy.diff(rho_s, t) + sy.diff(rho_s * w_s, x)
        f2_s = eps**2 * sy.diff(w_s, t) + sy.diff(h_s, x) + gamma * w_s**2
        fns = {k: sy.lambdify((x, t), v, "numpy") for k, v in
               dict(rho=rho_s, w=w_s, h=h_s, f1=f1_s, f2=f2_s,
                    drho=sy.diff(rho_s, t), dw=sy.diff(w_s, t)).items()}

        tau0 = 0.3
        errs = []
        for n in (16, 32, 64):
            system = build_system(single_pipe(friction=gamma),
                                  cells_per_edge=n, law=PowerLaw(kappa, 2.0),
                                  epsilon=eps)
            state = NetworkState(tau0, fns["rho"](system.x_cells, tau0),
                                 fns["w"](system.x_faces, tau0))
            boundary = {"inlet": float(fns["h"](0.0, tau0)),
                        "outlet": float(fns["h"](1.0, tau0))}
            forcing = (lambda xs, s: fns["f1"](xs, s),
                       lambda xs, s: fns["f2"](xs, s))
            drho, dw = spatial_residual(system, state, boundary, forcing=forcing)
            err_r = np.sqrt(system.l2sq_cells(drho - fns["drho"](system.x_cells, tau0)))
            err_w = np.sqrt(system.l2sq_faces(dw - fns["dw"](system.x_faces, tau0)))
            errs.append(err_r + err_w)
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.6), orders


def test_instantaneous_dynamics_match_small_implicit_steps():
    # the explicit junction-enthalpy reduction must reproduce the
    # implicit stepper's dynamics as dt -> 0
    from pipeflow.solver import HyperbolicStepper

    system = build_system(y_network(), cells_per_edge=8, law=LAW, epsilon=0.4)
    # constant density and a split velocity field keep the junction
    # balance exact, which the instantaneous dynamics require
    state = constant_state(system, 1.05)
    state.w[system.edge_faces("feed")] = 0.1
    state.w[system.edge_faces("branch_a")] = 0.05
    state.w[system.edge_faces("branch_b")] = 0.05
    assert np.max(np.abs(system.junction_mass_defect(state))) < 1e-15
    boundary = {"inlet": 1.05, "outlet_a": 1.0, "outlet_b": 0.99}
    drho, dw = spatial_residual(system, state, boundary)
    gaps = []
    for dt in (1e-4, 5e-5):
        new, _ = HyperbolicStepper(system, newton_tol=1e-13).step(
            state, dt, boundary)
        gaps.append(np.max(np.abs((new.w - state.w) / dt - dw)))
    assert gaps[1] < 0.75 * gaps[0]  # first-order agreement in dt
    assert gaps[0] < 0.05 * np.max(np.abs(dw))


def _assert_gather_forms_match_csr(system, seed):
    rng = np.random.default_rng(seed)
    n_c, n_f, n_j = system.n_cells, system.n_faces, system.n_junctions
    ref = csr_operators(system)
    for _ in range(5):
        h, m, hv = (rng.standard_normal(n) for n in (n_c, n_f, n_j))
        assert np.array_equal(system.arho_faces(h), ref.k @ h)
        assert np.array_equal(system.apply_d(m), ref.d @ m)
        assert np.array_equal(system.apply_gs(h, np.zeros(n_j)), ref.g @ h)
        assert np.array_equal(system.apply_gs(np.zeros(n_c), hv), ref.s @ hv)
        assert np.array_equal(system.apply_gs(h, hv), ref.g @ h + ref.s @ hv)
        st = system.apply_st(m)
        assert st.shape == (n_j,)
        assert np.array_equal(st, ref.s.T @ m)
        z = np.concatenate((h, m, hv))
        jz = system.apply_j(z)
        assert jz.shape == (system.n_z,)
        assert np.array_equal(jz, ref.j @ z)


@pytest.mark.parametrize("cells", [2, 3, 24, 1024])
@pytest.mark.parametrize("name", ["y_transient", "y_limit", "single_pipe",
                                  "pipe_limit"])
def test_gather_forms_match_csr(name, cells):
    scenario = load_scenario(os.path.join(SCEN, f"{name}.scn"))
    _assert_gather_forms_match_csr(
        replace(scenario, cells_per_edge=cells).build_system(), seed=cells)


def _mixed_junction_systems():
    # junctions of degree 3 and 4, edges entering and leaving them, and
    # unequal cell counts; a closed loop has degree-2 junctions only
    p = PipeParameters(length=1.0, area=((0.0, 1.0), (1.0, 1.5)),
                       elevation=((0.0, 0.0), (1.0, 0.3)))
    edges = [Edge("feed", "inlet", "j1", p), Edge("mid", "j1", "j2", p),
             Edge("side", "j1", "out1", p), Edge("b1", "j2", "out2", p),
             Edge("b2", "out3", "j2", p), Edge("b3", "j2", "out4", p)]
    cells = {"feed": 2, "mid": 5, "side": 3, "b1": 4, "b2": 2, "b3": 7}
    system = NetworkSystem(NetworkTopology(edges),
                           {e.name: EdgeGrid(1.0, cells[e.name]) for e in edges},
                           LAW)
    assert system.n_junctions == 2
    loop = build_system(loop_network(n_edges=3), cells_per_edge=4, law=LAW)
    return system, loop


@pytest.mark.parametrize("epsilon", [-0.1, np.nan, np.inf])
def test_build_system_rejects_bad_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be nonnegative and "
                                         "finite"):
        build_system(single_pipe(), cells_per_edge=4, law=LAW, epsilon=epsilon)


def test_gather_forms_match_csr_on_mixed_junctions():
    for seed, system in enumerate(_mixed_junction_systems(), start=1):
        _assert_gather_forms_match_csr(system, seed=seed)


def test_gather_forms_match_csr_at_a_lone_junction_of_high_degree():
    # nine edges at one junction: S^T adds nine terms per junction, which
    # numpy would sum pairwise over a single column
    p = PipeParameters(length=1.0)
    edges = [Edge(f"e{i}", "hub", f"v{i}", p) if i % 3 else
             Edge(f"e{i}", f"v{i}", "hub", p) for i in range(9)]
    system = NetworkSystem(NetworkTopology(edges),
                           {e.name: EdgeGrid(1.0, 2 + i % 4)
                            for i, e in enumerate(edges)}, LAW)
    assert system.n_junctions == 1
    _assert_gather_forms_match_csr(system, seed=9)


def test_boundary_load_per_snapshot():
    # per-snapshot values give one load row per snapshot
    system = build_system(y_network(), cells_per_edge=4, law=LAW)
    values = {"inlet": np.array([1.1, 1.2, 1.3]), "outlet_a": [1.0, 0.9, 0.8],
              "outlet_b": np.full(3, 0.95)}
    rows = [system.boundary_load({v: float(x[k]) for v, x in values.items()})
            for k in range(3)]
    assert np.array_equal(system.boundary_load(values), np.array(rows))


def test_boundary_load_on_y_network():
    # faces 0-4 feed (inlet -> junction), 5-9 branch_a, 10-14 branch_b;
    # the load is -n h: +h where a pipe starts, -h where it ends
    system = build_system(y_network(), cells_per_edge=4, law=LAW)
    values = {"inlet": 1.1, "outlet_a": 1.0, "outlet_b": 0.95}
    expected = np.zeros(15)
    expected[[0, 9, 14]] = [1.1, -1.0, -0.95]
    assert np.array_equal(system.boundary_load(values), expected)
    del values["outlet_b"]
    with pytest.raises(ValueError,
                       match="missing boundary enthalpy for vertex 'outlet_b'"):
        system.boundary_load(values)


def test_velocity_recovery_matches_per_face_reference():
    # every face's slope built on its own: the centered cell difference
    # inside a pipe, and (vertex value - h_adj)/omega, signed by the
    # edge's direction, at each terminal face
    from pipeflow.solver import velocity_recovery

    rng = np.random.default_rng(3)
    for system in _mixed_junction_systems():
        rho = 1.0 + 0.2 * rng.random(system.n_cells)
        values = {v: 1.0 + 0.1 * rng.random() for v in system.boundary_vertices}
        hv = 1.0 + 0.1 * rng.random(system.n_junctions)
        vertex_h = {**values, **dict(zip(system.junction_vertices, hv))}
        h = LAW.dpotential(rho) + system.gz_cells
        omega = system.omega_faces
        s = np.empty(system.n_faces)
        for e in system.topology.edges:
            cells, faces = system.edge_cells(e.name), system.edge_faces(e.name)
            hc = h[cells]
            s[faces.start + 1:faces.stop - 1] = (
                (hc[1:] - hc[:-1]) / omega[faces.start + 1:faces.stop - 1])
            s[faces.start] = (hc[0] - vertex_h[e.start]) / omega[faces.start]
            s[faces.stop - 1] = ((vertex_h[e.end] - hc[-1])
                                 / omega[faces.stop - 1])
        expected = -np.sign(s) * np.sqrt(np.abs(s) / system.gamma_faces)
        assert np.array_equal(velocity_recovery(system, rho, values, hv),
                              expected)


def _junction_enthalpy_reference(system, rho, xtol, rtol):
    """Each junction's enthalpy by brentq on its own recovered mass
    balance, built from the edges at the junction."""
    from scipy.optimize import brentq

    h = LAW.dpotential(rho) + system.gz_cells
    arho = system.arho_faces(rho)
    hv = []
    for v in system.junction_vertices:
        terms = []  # (sign, face, adjacent cell): + where the edge ends
        for e in system.topology.edges_at(v):
            cells, faces = system.edge_cells(e.name), system.edge_faces(e.name)
            if e.end == v:
                terms.append((1.0, faces.stop - 1, cells.stop - 1))
            else:
                terms.append((-1.0, faces.start, cells.start))

        def defect(x):
            total = 0.0
            for sign, f, c in terms:
                s = sign * (x - h[c]) / system.omega_faces[f]
                w = -np.sign(s) * np.sqrt(abs(s) / system.gamma_faces[f])
                total += sign * arho[f] * w
            return total

        adjacent = [h[c] for _, _, c in terms]
        hv.append(brentq(defect, min(adjacent), max(adjacent),
                         xtol=xtol, rtol=rtol))
    return np.array(hv)


def test_limit_flow_matches_brentq_reference():
    from pipeflow.solver import limit_flow

    xtol, rtol = 1e-14, 8.9e-16
    rng = np.random.default_rng(5)
    loop = build_system(loop_network(), cells_per_edge=6, law=LAW)
    mixed, _ = _mixed_junction_systems()
    for system in (loop, mixed):
        assert system.n_junctions == 2
        rho = 1.0 + 0.2 * rng.random(system.n_cells)
        values = {v: 1.0 + 0.1 * rng.random() for v in system.boundary_vertices}
        w, hv = limit_flow(system, rho, values)
        assert np.max(np.abs(system.apply_st(system.arho_faces(rho) * w))) <= 1e-13
        reference = _junction_enthalpy_reference(system, rho, xtol, rtol)
        assert np.all(np.abs(hv - reference) <= xtol + rtol * np.abs(reference))


def test_limit_flow_degenerate_bracket():
    # a junction whose adjacent cells share one enthalpy gets exactly it,
    # and no flow through its faces; the other junction is still solved
    from pipeflow.solver import limit_flow

    system = build_system(loop_network(), cells_per_edge=6, law=LAW)
    rho = 1.0 + 0.2 * np.random.default_rng(6).random(system.n_cells)
    level = system.junction_term_slots == 0
    rho[system.junction_term_cells[level]] = 1.3
    w, hv = limit_flow(system, rho, {})
    assert hv[0] == LAW.dpotential(np.array([1.3]))[0]
    assert np.all(w[system.junction_term_faces[level]] == 0.0)
    assert np.all(w[system.junction_term_faces[~level]] != 0.0)
    assert abs(system.apply_st(system.arho_faces(rho) * w)[1]) <= 1e-13
    flat_w, flat_hv = limit_flow(system, np.full(system.n_cells, 1.3), {})
    assert np.all(flat_hv == LAW.dpotential(np.array([1.3]))[0])
    assert np.all(flat_w == 0.0)


def test_subsonic_margin_computed_once_per_bounds(monkeypatch):
    system = build_system(y_network(), cells_per_edge=6, law=LAW, epsilon=0.5)
    calls = []
    margin = AdmissibleBounds.subsonic_margin

    def counting(self, law):
        calls.append(self)
        return margin(self, law)

    monkeypatch.setattr(AdmissibleBounds, "subsonic_margin", counting)
    tight = AdmissibleBounds(rho_min=0.7, rho_max=1.4, w_max=1.0, eps_max=1.0)
    state = constant_state(system, 1.0, w=0.2)
    for bounds in (BOUNDS, BOUNDS, tight, BOUNDS, tight):
        kinds = system.check_state(state, bounds)
    assert calls == [BOUNDS, tight]
    assert kinds == ["subsonic_margin"]


def _template_loops(system):
    """The per-face loops that built the reconstruction pairs and the
    stepper's kinetic block, kept as the reference for their order."""
    n_c = system.n_cells
    flc, frc = system.face_left_cell, system.face_right_cell
    pair_face, pair_cell = [], []
    for f in range(system.n_faces):
        for c in (flc[f], frc[f]):
            if c >= 0:
                pair_face.append(f)
                pair_cell.append(c)
    ww_rows, ww_cols, ww_sign, ww_fp = [], [], [], []
    for f in range(system.n_faces):
        for c, sign in ((frc[f], 1.0), (flc[f], -1.0)):
            if c >= 0:
                for fp in (system.cell_left_face[c], system.cell_right_face[c]):
                    ww_rows.append(n_c + f)
                    ww_cols.append(n_c + fp)
                    ww_sign.append(sign)
                    ww_fp.append(fp)
    return {"pair_face": np.asarray(pair_face, dtype=int),
            "pair_cell": np.asarray(pair_cell, dtype=int),
            "ww_rows": np.asarray(ww_rows, dtype=int),
            "ww_cols": np.asarray(ww_cols, dtype=int),
            "ww_sign": np.asarray(ww_sign),
            "ww_fp": np.asarray(ww_fp, dtype=int)}


def _y_transient_systems():
    scenario = load_scenario(os.path.join(SCEN, "y_transient.scn"))
    return [replace(scenario, cells_per_edge=n).build_system()
            for n in (2, 3, 24)]


@pytest.mark.parametrize("system", _y_transient_systems()
                         + list(_mixed_junction_systems()),
                         ids=["y2", "y3", "y24", "mixed", "loop"])
def test_setup_arrays_match_per_face_loops(system):
    from pipeflow.solver import HyperbolicStepper

    ref = _template_loops(system)
    stepper = HyperbolicStepper(system)
    # the kinetic block comes right before the momentum diagonal and the
    # three junction blocks
    rows, cols = stepper._entries()
    end = (rows.size - system.n_faces
           - 3 * system.junction_term_faces.size)
    ww = slice(end - ref["ww_rows"].size, end)
    arrays = {"pair_face": system.pair_face, "pair_cell": system.pair_cell,
              "ww_rows": rows[ww], "ww_cols": cols[ww],
              "ww_sign": stepper._ww_sign, "ww_fp": stepper._ww_fp}
    for name, value in arrays.items():
        assert value.dtype == ref[name].dtype, name
        assert np.array_equal(value, ref[name]), name


@pytest.mark.parametrize("system", _y_transient_systems()[1:]
                         + list(_mixed_junction_systems()),
                         ids=["y3", "y24", "mixed", "loop"])
def test_gather_forms_and_norms_on_stacks(system):
    # a (K, n) stack goes through in one call: the gather forms equal
    # the row-by-row results bitwise, the reductions to rounding
    rng = np.random.default_rng(system.n_faces)
    rho = 1.0 + 0.3 * rng.random((7, system.n_cells))
    w = rng.standard_normal((7, system.n_faces))
    for name, stack in (("arho_faces", rho), ("kinetic_cells", w)):
        fn = getattr(system, name)
        assert np.array_equal(fn(stack), np.array([fn(row) for row in stack]))
    d_rho, d_w = rho - 1.0, w - w[::-1]
    for name, args in (("l2sq_cells", (d_rho,)), ("l2sq_faces", (d_w,)),
                       ("l3_faces", (d_w,)), ("c_norm_sq", (d_rho, d_w))):
        fn = getattr(system, name)
        batched = fn(*args)
        rows = [fn(*row) for row in zip(*args)]
        assert batched.shape == (7,), name
        assert all(type(r) is float for r in rows), name
        np.testing.assert_allclose(batched, rows, rtol=1e-13, atol=0)
