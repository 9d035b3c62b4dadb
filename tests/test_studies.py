import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from pipeflow import solver, studies
from pipeflow.energy import hamiltonian
from pipeflow.network import Edge, NetworkTopology
from pipeflow.scenario import load_scenario
from pipeflow.studies import (
    boundary_perturbation_study,
    epsilon_limit_study,
    fit_loglog_slope,
    gamma_perturbation_study,
)

from helpers import assert_no_child_processes, monotone_violations

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(REPO, "scenarios")


class TestSlopeFit:
    def test_exact_power_law(self):
        x = np.array([0.4, 0.2, 0.1, 0.05])
        slope, mask = fit_loglog_slope(x, 3.0 * x**1.5)
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert all(mask)

    def test_guard_drops_preasymptotic_point(self):
        x = np.array([0.8, 0.2, 0.1, 0.05])
        y = 2.0 * x**2
        y[0] *= 40.0  # corrupt the coarsest point
        slope, mask = fit_loglog_slope(x, y)
        assert not mask[0]
        assert slope == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("x", [[0.1, 0.1, 0.2], [0.1, math.nan, 0.2]])
    def test_identical_values_rejected(self, x):
        with pytest.raises(ValueError, match="slope"):
            fit_loglog_slope(x, [1.0, 1.0, 2.0])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([0.1, 0.2], [1.0, 2.0])


def test_monotone_violations():
    assert monotone_violations([4.0, 2.0, 1.0]) == 0
    assert monotone_violations([4.0, 5.0, 1.0]) == 1


@pytest.fixture(scope="module")
def perturbation_scenario():
    return load_scenario(os.path.join(SCEN, "pipe_perturbation.scn"))


class TestStudyValidation:
    @pytest.fixture
    def scenario(self, perturbation_scenario):
        return perturbation_scenario

    def test_epsilon_list_checks(self, scenario):
        with pytest.raises(ValueError, match="decreasing"):
            epsilon_limit_study(scenario, [0.1, 0.2, 0.05])
        with pytest.raises(ValueError, match="positive"):
            epsilon_limit_study(scenario, [0.2, 0.1, 0.0])
        with pytest.raises(ValueError):
            epsilon_limit_study(scenario, [0.2, 0.1])

    def test_gamma_offset_checks(self, scenario):
        with pytest.raises(ValueError, match="nonzero"):
            gamma_perturbation_study(scenario, [0.4, 0.0, 0.1])
        with pytest.raises(ValueError, match="sign"):
            gamma_perturbation_study(scenario, [0.4, -0.2, 0.1])
        with pytest.raises(ValueError, match="bounds"):
            gamma_perturbation_study(scenario, [2.0, 1.0, 0.5])

        # bounds are [0.8, 1.6]; the offset shifts every breakpoint of
        # every edge, so each must stay inside
        def with_edges(*frictions):
            edges = [Edge(f"e{i}", f"v{i}", f"v{i + 1}",
                          replace(scenario.topology.edges[0].params,
                                  friction=fr))
                     for i, fr in enumerate(frictions)]
            return replace(scenario, topology=NetworkTopology(edges))

        with pytest.raises(ValueError, match="bounds"):
            gamma_perturbation_study(with_edges(1.0, 1.5), [0.2, 0.1, 0.05])
        with pytest.raises(ValueError, match="bounds"):
            gamma_perturbation_study(with_edges(((0.0, 1.0), (1.0, 0.85))),
                                     [-0.1, -0.05, -0.02])

    def test_amplitude_checks(self, scenario):
        with pytest.raises(ValueError, match="positive"):
            boundary_perturbation_study(scenario, [0.2, 0.1, -0.05])

    @pytest.mark.parametrize("study, values, error", [
        (epsilon_limit_study, [0.2, math.nan, 0.05, 0.025], "finite"),
        (boundary_perturbation_study, [0.2, math.inf, 0.05], "finite"),
        (gamma_perturbation_study, [0.4, math.nan, 0.1], "finite"),
        (gamma_perturbation_study, [-math.inf, -0.2, -0.1], "finite"),
        (epsilon_limit_study, [0.2, 0.1, 0.1], "distinct"),
        (boundary_perturbation_study, [0.2, 0.1, 0.2], "distinct"),
        (gamma_perturbation_study, [0.4, 0.1, 0.1], "distinct"),
    ])
    def test_values_checked_before_any_run(self, scenario, monkeypatch,
                                           study, values, error):
        # nan passes every comparison, and a repeated value leaves the
        # slope fit short of distinct points only after every run
        def no_run(*args, **kwargs):
            raise AssertionError("a study ran before checking its values")
        monkeypatch.setattr(studies, "run", no_run)
        for certify in (True, False):
            with pytest.raises(ValueError, match=error):
                study(scenario, values, certify=certify)

    def test_epsilon_study_runs_serially_only(self, scenario):
        with pytest.raises(ValueError, match="threads must be 1"):
            epsilon_limit_study(scenario, [0.2, 0.1, 0.05], threads=2)


@pytest.mark.slow
class TestStudiesEndToEnd:
    def test_gamma_study_smoke(self):
        scenario = load_scenario(os.path.join(SCEN, "pipe_perturbation.scn"))
        result = gamma_perturbation_study(scenario, [0.4, 0.2, 0.1],
                                          certify=True)
        assert result.slope > 1.4
        assert result.all_certified
        assert monotone_violations(result.errors) <= 1

    def test_epsilon_study_accepts_one_thread(self):
        scenario = load_scenario(os.path.join(SCEN, "pipe_limit.scn"))
        scenario = replace(scenario,
                           solver=replace(scenario.solver, t_final=0.05))
        serial = epsilon_limit_study(scenario, [0.2, 0.1, 0.05], certify=False)
        one = epsilon_limit_study(scenario, [0.2, 0.1, 0.05], certify=False,
                                  threads=1)
        assert one.errors == serial.errors

    def test_study_table_written(self, tmp_path):
        scenario = load_scenario(os.path.join(SCEN, "pipe_perturbation.scn"))
        result = gamma_perturbation_study(scenario, [0.4, 0.2, 0.1],
                                          certify=False)
        path = tmp_path / "table.csv"
        result.write_table(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("gamma_offset,")


def test_trajectories_are_stacked_once():
    # a trajectory stacks its states once; the study's subsample stacks
    # the states it keeps, and its states are views of those stacks
    from pipeflow.solver import run
    from pipeflow.studies import _subsample

    scen = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    system = scen.build_system()
    config = replace(scen.solver, t_final=40 * scen.solver.dt)
    traj = run(system, scen.initial_state(system), config, scen.boundary)
    rho, w = traj.rho_array(), traj.w_array()
    assert traj.rho_array() is rho and traj.w_array() is w
    assert rho.shape == (41, system.n_cells) and w.shape == (41, system.n_faces)
    for k, s in enumerate(traj.states):
        assert np.array_equal(s.rho, rho[k]) and np.array_equal(s.w, w[k])
    sub = _subsample(traj, 4)
    assert sub.times == traj.times[::4]
    assert np.array_equal(sub.rho_array(), rho[::4])
    assert np.array_equal(sub.w_array(), w[::4])
    assert not np.shares_memory(sub.rho_array(), rho)
    assert all(np.shares_memory(s.rho, sub.rho_array()) for s in sub.states)


def _recording(monkeypatch):
    """Wrap studies.run as the benchmark does; returns the list that
    collects each call's arguments and trajectory."""
    runs, real = [], studies.run

    def recorded(system, state0, config, boundary, **kwargs):
        traj = real(system, state0, config, boundary, **kwargs)
        runs.append(((system, state0, config, boundary), traj))
        return traj
    monkeypatch.setattr(studies, "run", recorded)
    return runs


def _with_params(scenario, **params):
    """The scenario with its edges' parameters replaced."""
    edges = [replace(e, params=replace(e.params, **params))
             for e in scenario.topology.edges]
    return replace(scenario, topology=NetworkTopology(edges))


# pipe_limit's box: area in [1, 1], friction in [0.8, 1.6], eps <= 0.25
@pytest.mark.parametrize("study, values, change, error", [
    (gamma_perturbation_study, [0.2, 0.1, 0.05],
     dict(area=((0.0, 1.0), (1.0, 1.2))),
     r"area \[1.0, 1.2\] leaves the bounds \[1.0, 1.0\]"),
    (boundary_perturbation_study, [0.2, 0.1, 0.05], dict(friction=3.0),
     r"friction \[3.0, 3.0\] leaves the bounds \[0.8, 1.6\]"),
    (epsilon_limit_study, [0.5, 0.4, 0.3], {},
     r"epsilon \[0.3, 0.5\] exceeds eps_max = 0.25"),
    (boundary_perturbation_study, [0.2, 0.1, 0.05], dict(epsilon=0.3),
     r"epsilon \[0.3, 0.3\] exceeds eps_max = 0.25"),
], ids=["area", "friction", "swept-epsilon", "scenario-epsilon"])
def test_certified_study_checks_its_box_before_any_run(monkeypatch, study,
                                                       values, change, error):
    scenario = load_scenario(os.path.join(SCEN, "pipe_limit.scn"))
    scenario = replace(scenario, cells_per_edge=8, solver=replace(
        scenario.solver, t_final=20 * scenario.solver.dt))
    if "epsilon" in change:
        scenario = replace(scenario, epsilon=change["epsilon"])
    elif change:
        scenario = _with_params(scenario, **change)
    runs = _recording(monkeypatch)
    with pytest.raises(ValueError, match=f"^{error}$"):
        study(scenario, values)
    assert runs == []
    # the box bounds the certificates' constants only
    study(scenario, values, certify=False)
    assert len(runs) == 1 + len(values)


@pytest.mark.parametrize("run_out", ["reference", "epsilon=0.1"])
def test_certificate_holds_only_while_its_runs_stay_in_the_box(monkeypatch,
                                                               run_out):
    # one density of one recorded snapshot of one run pushed above
    # rho_max, in a copy, so that the run steps on as before; the
    # reference's snapshot 7 falls between the members' times (stride 4).
    # The members' recorders run in the batch's child, which inherits
    # the patch.
    scenario = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    dt = scenario.solver.dt
    scenario = replace(scenario, solver=replace(scenario.solver,
                                                t_final=20 * dt))
    real = solver._Recorder.add

    def pushed(recorder, state, info=None):
        label = ("reference" if recorder.dt < dt
                 else f"epsilon={recorder.system.epsilon:g}")
        if label == run_out and len(recorder.traj.states) == 7:
            state = state.copy()
            state.rho[0] = 2.0
        real(recorder, state, info)
    monkeypatch.setattr(solver._Recorder, "add", pushed)
    result = epsilon_limit_study(scenario, [0.2, 0.1, 0.05])
    tau = 7 * dt / 4 if run_out == "reference" else 7 * dt
    why = (f"the {run_out} run leaves the [bounds] box (density_high) from "
           f"tau={tau:.6g}")
    voided = [run_out == "reference" or p == 0.1 for p in result.parameters]
    assert [c.outside for c in result.certificates] == [
        (why,) if v else () for v in voided]
    assert [c.ok for c in result.certificates] == [not v for v in voided]
    assert result.format().count(why) == 1
    assert epsilon_limit_study(scenario, [0.2, 0.1, 0.05],
                               certify=False).certificates == []


@pytest.mark.parametrize("study, name, values", [
    (epsilon_limit_study, "y_limit.scn", [0.2, 0.1, 0.05, 0.025]),
    (gamma_perturbation_study, "pipe_perturbation.scn", [0.4, 0.2, 0.1, 0.05]),
    (boundary_perturbation_study, "y_transient.scn", [0.2, 0.1, 0.05]),
])
def test_batched_members_match_serial_runs(monkeypatch, study, name, values):
    # the members iterate to a joint residual norm, which moves them at
    # tolerance level only
    scenario = replace(load_scenario(os.path.join(SCEN, name)),
                       cells_per_edge=8)
    runs = _recording(monkeypatch)
    study(scenario, values, certify=False)
    assert len(runs) == 1 + len(values)
    for args, traj in runs[1:]:
        serial = solver.run(*args)
        assert np.max(np.abs(traj.rho_array() - serial.rho_array())) < 1e-9
        assert np.max(np.abs(traj.w_array() - serial.w_array())) < 1e-9
        floor = 1e-7 * max(1.0, abs(traj.reports[0].energy))
        assert max(abs(r.balance_residual) for r in traj.reports[1:]) < floor


def test_epsilon_study_keeps_the_benchmark_contract(monkeypatch):
    # the benchmark counts steps and gates each run by wrapping
    # studies.run: one call per run, each returning that run's whole
    # trajectory, which neither the study nor the batch keeps
    scenario = load_scenario(os.path.join(SCEN, "y_limit.scn"))
    scenario = replace(scenario, solver=replace(
        scenario.solver, t_final=40 * scenario.solver.dt))
    eps_list = [0.2, 0.1, 0.05, 0.025]
    refs, real = [], studies.run

    def checked(system, state0, config, boundary, **kwargs):
        traj = real(system, state0, config, boundary, **kwargs)
        assert len(traj.states) == round(config.t_final / config.dt) + 1
        assert np.array_equal(traj.states[0].rho, state0.rho)
        assert traj.reports[0].energy == pytest.approx(
            hamiltonian(system, traj.states[0]), rel=1e-13)
        # the study measures each run and drops it before the next
        assert all(ref() is None for ref in refs)
        refs.append(weakref.ref(traj))
        return traj
    monkeypatch.setattr(studies, "run", checked)
    result = epsilon_limit_study(scenario, eps_list, certify=True, threads=1)
    assert result.all_certified
    assert len(refs) == 1 + len(eps_list)
    assert all(ref() is None for ref in refs)
    assert_no_child_processes()


def _run_with_live_blas_threads(script):
    """Run script in a fresh interpreter with the BLAS thread pool at its
    default size, busy once before the script forks a child; its exit
    status."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH", "")])
    script = ("import numpy as np\n"
              "a = np.ones((256, 256))\n"
              "assert (a @ a)[0, 0] == 256.0\n" + script)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          timeout=120).returncode


def test_study_forks_with_live_blas_threads():
    script = (
        "from dataclasses import replace\n"
        "from pipeflow.scenario import load_scenario\n"
        "from pipeflow.studies import epsilon_limit_study\n"
        f"scenario = load_scenario({os.path.join(SCEN, 'y_limit.scn')!r})\n"
        "scenario = replace(scenario, solver=replace(\n"
        "    scenario.solver, t_final=40 * scenario.solver.dt))\n"
        "result = epsilon_limit_study(scenario, [0.2, 0.1, 0.05])\n"
        "assert result.all_certified\n")
    assert _run_with_live_blas_threads(script) == 0


def test_csv_writer_forks_with_live_blas_threads(tmp_path):
    script = (
        "from dataclasses import replace\n"
        "from pipeflow.scenario import load_scenario, write_trajectory\n"
        "from pipeflow.solver import run\n"
        f"scenario = load_scenario({os.path.join(SCEN, 'y_transient.scn')!r})\n"
        "system = scenario.build_system()\n"
        "traj = run(system, scenario.initial_state(system), replace(\n"
        "    scenario.solver, t_final=20 * scenario.solver.dt),\n"
        "    scenario.boundary)\n"
        "assert len(traj.states) == 21\n"
        f"write_trajectory({str(tmp_path)!r}, system, traj)\n")
    assert _run_with_live_blas_threads(script) == 0
    system = load_scenario(os.path.join(SCEN, "y_transient.scn")).build_system()
    for name, rows in (("cells", system.n_cells), ("faces", system.n_faces)):
        table = (tmp_path / f"states_{name}.csv").read_bytes()
        assert table.count(b"\n") == 1 + 21 * rows
