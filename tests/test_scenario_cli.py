import ast
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from pipeflow import network as net
from pipeflow.cli import main
from pipeflow.discretization import EdgeGrid, NetworkState, NetworkSystem
from pipeflow.gas import PipeParameters, make_law
from pipeflow.scenario import (
    _EXPR_ENV,
    ConfigError,
    _checked_tree,
    eval_profile_expression,
    load_scenario,
    load_topology,
    parse_scenario,
    write_trajectory,
)
from pipeflow.solver import (HyperbolicStepper, ParabolicStepper, StepFailure,
                             Trajectory, run)

from helpers import assert_no_child_processes

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(REPO, "scenarios")
# the only scipy module a run loads: SuperLU's extension, without scipy
SCIPY_MODULES = ["scipy.sparse.linalg._dsolve._superlu"]


MINIMAL = """
[model]
law = isothermal
epsilon = 0.5

[topology]
builtin = single-pipe

[boundary inlet]
h = 1.0

[boundary outlet]
h = 1.0

[solver]
dt = 0.01
t_final = 0.1
"""


class TestScenarioParsing:
    def test_minimal(self):
        scen = parse_scenario(MINIMAL)
        assert scen.epsilon == 0.5
        assert scen.cells_per_edge == 32
        assert set(scen.boundary) == {"inlet", "outlet"}

    def test_missing_boundary_names_vertex(self):
        text = MINIMAL.replace("[boundary outlet]\nh = 1.0\n", "")
        with pytest.raises(ConfigError, match="outlet"):
            parse_scenario(text)

    def test_malformed_line_anchored(self):
        text = "[model]\nlaw isothermal, no equals sign\n"
        with pytest.raises(ConfigError, match="bad.scn:2"):
            parse_scenario(text, path="bad.scn")

    def test_unknown_vertex_in_boundary(self):
        text = MINIMAL + "\n[boundary nowhere]\nh = 1.0\n"
        with pytest.raises(ConfigError, match="nowhere"):
            parse_scenario(text)

    def test_boundary_on_junction_names_file_and_line(self):
        # a junction's enthalpy is an unknown of the model, not a datum
        text = (MINIMAL.replace("single-pipe", "y-network")
                .replace("[boundary outlet]", "[boundary outlet_a]")
                + "\n[boundary outlet_b]\nh = 1.0\n"
                + "\n[boundary junction]\nh = 1.0\n")
        with pytest.raises(ConfigError,
                           match=r"^s\.scn:22: vertex 'junction' has degree 3"):
            parse_scenario(text, path="s.scn")
        parse_scenario(text.rsplit("\n[boundary junction]", 1)[0], path="s.scn")

    def test_bad_numeric_value(self):
        text = MINIMAL.replace("dt = 0.01", "dt = fast")
        with pytest.raises(ConfigError, match="dt"):
            parse_scenario(text)

    def test_unknown_key_names_file_and_line(self):
        text = MINIMAL.replace("dt = 0.01", "dtt = 0.01")
        with pytest.raises(ConfigError, match=r"s\.scn:16: .*'dtt'.*\[solver\]"):
            parse_scenario(text, path="s.scn")

    def test_unknown_section_names_file_and_line(self):
        text = MINIMAL.replace("[solver]", "[solvr]")
        with pytest.raises(ConfigError, match=r"s\.scn:15: unknown section \[solvr\]"):
            parse_scenario(text, path="s.scn")

    @pytest.mark.parametrize("raw, value", [("1", True), ("TRUE", True),
                                            ("yes", True), ("On", True),
                                            ("0", False), ("false", False),
                                            ("No", False), ("off", False)])
    def test_boolean_values(self, raw, value):
        text = MINIMAL + f"parabolic = {raw}\n"
        assert parse_scenario(text).solver.parabolic is value

    def test_unknown_boolean_names_file_and_line(self):
        text = MINIMAL + "parabolic = ture\n"
        with pytest.raises(ConfigError,
                           match=r"s\.scn:18: cannot parse parabolic = 'ture'"):
            parse_scenario(text, path="s.scn")

    def test_topology_error_names_file_and_line(self, tmp_path):
        topo = tmp_path / "net.topo"
        topo.write_text("[vertices]\na\nb\n\n[edge pipe]\nfrom = a\nto b\n")
        text = MINIMAL.replace("builtin = single-pipe", "include = net.topo")
        with pytest.raises(ConfigError, match=r"net\.topo:7: "):
            parse_scenario(text, path=str(tmp_path / "s.scn"))

    def test_initial_expression(self):
        text = MINIMAL + "\n[initial]\nrho = 1 + 0.1*sin(pi*x/L)\nw = 0.0\n"
        scen = parse_scenario(text)
        system = scen.build_system()
        state = scen.initial_state(system)
        assert np.all(state.rho >= 1.0 - 1e-12)
        assert np.max(state.rho) > 1.05

    @pytest.mark.parametrize("key", ["rho", "w"])
    @pytest.mark.parametrize("expr, error", [
        ("1 + foo", "unknown name 'foo'"),
        ("1 +", "cannot parse"),
        ("1 + x\0", "cannot parse"),
        ("().__class__.__base__.__subclasses__().__len__() + 0*x",
         "unknown name '__class__'"),
        ("__import__('os').getpid() + x", "unknown name '__import__'"),
        ("(lambda: open)() + x", "unknown name 'open'"),
        ("x.real", "unknown name 'real'"),
        ("__import__('os')", "unknown name '__import__'"),
        ("lambda: x", "Lambda not allowed"),
        ("(x)[0]", "Subscript not allowed"),
        ("[t for t in ()]", "unknown name 't'"),
        ("[x for x in (x,)]", "ListComp not allowed"),
        ("minimum(x, out=x)", "keyword argument not allowed"),
        ("sin(x, x)", "sin takes 1 argument"),
        ("pi(x)", "only abs, cos"),
        ("sin(*x)", "Starred not allowed"),
        ("'1' + x", "str constant '1' not allowed"),
        ("x < 1", "Compare not allowed"),
        ("x % 2", "Mod not allowed"),
        ("x.sin", "Attribute not allowed"),
    ])
    def test_bad_initial_expression_fails_at_parse_time(self, key, expr, error):
        head = MINIMAL + "\n[initial]\n"
        line = head.count("\n") + 1
        with pytest.raises(ConfigError, match=rf"^s\.scn:{line}: {error}"):
            parse_scenario(head + f"{key} = {expr}\n", path="s.scn")

    def test_tabulated_law_needs_table(self):
        text = MINIMAL.replace("law = isothermal", "law = tabulated")
        with pytest.raises(ConfigError, match=r"^s\.scn:2: the tabulated "
                           r"law needs 'table = <file>'"):
            parse_scenario(text, path="s.scn")

    def test_law_rejects_key_of_another_law(self):
        text = MINIMAL.replace("epsilon = 0.5", "epsilon = 0.5\nkappa = 3.0")
        with pytest.raises(ConfigError, match=r"^s\.scn:5: 'kappa' is not a "
                           r"parameter of the isothermal law"):
            parse_scenario(text, path="s.scn")

    def test_expression_numbers_become_floats(self):
        # a huge power is a float overflow, not a huge integer: inspect
        # the checked tree only, never evaluate it
        tree = ast.parse("9**9**9 * x + (-2)**1000", mode="eval")
        checked = _checked_tree(tree.body)
        numbers = sorted(node.value for node in ast.walk(checked)
                         if isinstance(node, ast.Constant))
        assert numbers == [2.0, 9.0, 9.0, 9.0, 1000.0]
        assert all(type(v) is float for v in numbers)

    def test_committed_profiles_evaluate_as_plain_eval(self):
        # reference: eval of the raw text, as profiles were evaluated
        # before the grammar check
        exprs = set()
        for name in os.listdir(SCEN):
            if name.endswith(".scn"):
                scen = load_scenario(os.path.join(SCEN, name))
                exprs |= {scen.initial.rho, scen.initial.w} - {"recover"}
        assert "1 + 0.08*sin(pi*x/L)" in exprs
        x = np.linspace(0.0, 2.0, 257)
        for expr in exprs:
            env = {**_EXPR_ENV, "x": x, "L": 2.0}
            plain = eval(expr, {"__builtins__": {}}, env)
            value = eval_profile_expression(expr, x, 2.0)
            assert np.array_equal(value, np.broadcast_to(plain, x.shape))

    def test_recover_only_for_velocity(self):
        with pytest.raises(ConfigError, match="unknown name 'recover'"):
            parse_scenario(MINIMAL + "\n[initial]\nrho = recover\n")

    def test_recover_initial_velocity(self):
        text = MINIMAL + "\n[initial]\nrho = 1 + 0.05*sin(pi*x/L)\nw = recover\n"
        scen = parse_scenario(text)
        system = scen.build_system()
        state = scen.initial_state(system)
        # friction law holds at interior faces for the recovered field
        h = system.law.dpotential(state.rho)
        lc, rc = system.face_left_cell, system.face_right_cell
        inner = (lc >= 0) & (rc >= 0)
        s = (h[rc[inner]] - h[lc[inner]]) / system.omega_faces[inner]
        w = state.w[inner]
        assert np.max(np.abs(system.gamma_faces[inner] * np.abs(w) * w + s)) < 1e-12

    def test_schedule_table(self):
        text = MINIMAL.replace("[boundary inlet]\nh = 1.0",
                               "[boundary inlet]\ntable = 0:1.0, 0.1:1.2, 1:1.2")
        scen = parse_scenario(text)
        assert scen.boundary["inlet"](0.0) == pytest.approx(1.0)
        assert scen.boundary["inlet"](0.05) == pytest.approx(1.1)
        assert scen.boundary["inlet"](0.5) == pytest.approx(1.2)

    def test_shipped_scenarios_load(self):
        for name in ("single_pipe.scn", "pipe_limit.scn", "y_limit.scn",
                     "pipe_perturbation.scn", "y_transient.scn"):
            scen = load_scenario(os.path.join(SCEN, name))
            scen.check_boundary_complete()

    def test_manifest_resolves_parameters(self):
        scen = parse_scenario(MINIMAL)
        text = scen.manifest(extra={"seed": 7})
        assert "model.epsilon = 0.5" in text
        assert "seed = 7" in text
        assert "solver.dt = 0.01" in text


TOPO = """[vertices]
a
b

[edge p]
from = a
to = b
length = 1

[boundary a]
h = 1.0
"""


def _topo(old, new):
    assert old in TOPO
    return TOPO.replace(old, new, 1)


# bad input in either file kind fails with one path:line prefix: the line
# of the bad value or repeat, or of the section a bad parameter came from
@pytest.mark.parametrize("kind, text, line", [
    ("topology", _topo("length = 1", "length = abc"), 8),
    ("topology", _topo("length = 1", "length = 1\ngravity = x"), 9),
    ("topology", _topo("h = 1.0", "h = abc"), 11),
    ("topology", _topo("length = 1", "length = -1"), 5),
    ("topology", _topo("length = 1", "length = 1\narea = -1"), 5),
    ("topology", TOPO + "\n[edge p]\nfrom = a\nto = b\nlength = 1\n", 13),
    ("topology", _topo("length = 1", "length = 1\nlength = 2"), 9),
    ("topology", TOPO + "\n[boundary a]\nh = 3.0\n", 13),
    ("topology", _topo("b\n", "b\nb\n"), 4),
    ("scenario", MINIMAL + "\n[grid]\ncells_per_edge = 8\ncells_per_edge = 16\n",
     21),
    ("scenario", MINIMAL + "\n[boundary inlet]\nh = 2.0\n", 19),
    ("scenario", MINIMAL.replace("single-pipe", "single-pipe\nlength = -1"), 6),
    ("scenario", MINIMAL.replace("dt = 0.01", "dt = fast"), 16),
    ("topology", _topo("[edge p]", "[edge p,q]"), 5),
], ids=["length-abc", "gravity-x", "h-abc", "length-negative", "area-negative",
        "repeated-edge", "repeated-key", "repeated-boundary", "repeated-vertex",
        "repeated-cells", "repeated-scenario-boundary", "builtin-length",
        "solver-dt", "edge-comma"])
def test_bad_input_names_file_and_line(tmp_path, kind, text, line):
    path = tmp_path / ("net.topo" if kind == "topology" else "s.scn")
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        if kind == "topology":
            load_topology(path)
        else:
            load_scenario(str(path))
    prefix = f"{path}:{line}: "
    message = str(info.value)
    assert message.startswith(prefix)
    assert str(path) not in message[len(prefix):]


class TestCli:
    def test_simulate_rest_state(self, tmp_path, capsys):
        scn = tmp_path / "rest.scn"
        scn.write_text(MINIMAL + "\n[initial]\nrest = 1.0\n")
        code = main(["simulate", "--scenario", str(scn),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated" in out
        energy = (tmp_path / "out" / "energy.csv").read_text().splitlines()
        values = [float(line.split(",")[1]) for line in energy[1:]]
        assert np.allclose(values, values[0], atol=1e-12)

    def test_energy_trace_counts_solver_work(self, tmp_path):
        code = main(["simulate", "--scenario",
                     os.path.join(SCEN, "y_transient.scn"),
                     "--out", str(tmp_path / "out"), "--cells", "8",
                     "--dt", "0.01"])
        assert code == 0
        lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
        assert lines[0].endswith(",iterations,factorizations")
        rows = [[int(v) for v in line.split(",")[-2:]] for line in lines[1:]]
        assert len(rows) == 31
        assert rows[0] == [0, 0]
        assert all(it >= 1 for it, _ in rows[1:])
        assert 1 <= sum(lu for _, lu in rows) < 30

    def test_simulate_prints_solver_summary(self, tmp_path, capsys):
        code = main(["simulate", "--scenario",
                     os.path.join(SCEN, "y_transient.scn"),
                     "--out", str(tmp_path / "out"), "--cells", "8",
                     "--dt", "0.01"])
        assert code == 0
        lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
        rows = [[int(v) for v in line.split(",")[-2:]] for line in lines[2:]]
        its = [it for it, _ in rows]
        summary = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("solver:")]
        assert summary == [
            f"solver: 30 steps, Newton iterations per step "
            f"{sum(its) / 30:.2f} mean, {max(its)} max, "
            f"LU factorizations {sum(lu for _, lu in rows)}"]

    def test_simulate_writes_manifest(self, tmp_path):
        scn = tmp_path / "s.scn"
        scn.write_text(MINIMAL)
        code = main(["simulate", "--scenario", str(scn),
                     "--out", str(tmp_path / "out"), "--cells", "8",
                     "--dt", "0.02"])
        assert code == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "grid.cells_per_edge = 8" in manifest
        assert "solver.dt = 0.02" in manifest

    def test_missing_schedule_exits_nonzero(self, tmp_path, capsys):
        scn = tmp_path / "broken.scn"
        scn.write_text(MINIMAL.replace("[boundary outlet]\nh = 1.0\n", ""))
        code = main(["simulate", "--scenario", str(scn)])
        assert code == 2
        assert "outlet" in capsys.readouterr().err

    def test_malformed_config_line_number(self, tmp_path, capsys):
        scn = tmp_path / "broken.scn"
        scn.write_text("[model]\nepsilon = sideways\n")
        code = main(["simulate", "--scenario", str(scn)])
        assert code == 2
        err = capsys.readouterr().err
        assert "broken.scn:2" in err

    def test_verify_y_network(self, capsys):
        code = main(["verify", "--scenario",
                     os.path.join(SCEN, "y_transient.scn"),
                     "--samples", "50", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "junction-conservation" in out
        assert "ok   limit-energy-balance" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("name", sorted(
        f for f in os.listdir(SCEN) if f.endswith(".scn")))
    def test_verify_passes_on_committed_scenarios(self, name, capsys):
        # pipe_perturbation's balance residuals (7e-13) lie below what its
        # Newton tolerance allows, where halving dt no longer cuts them
        code = main(["verify", "--scenario", os.path.join(SCEN, name),
                     "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out

    @pytest.mark.parametrize("name", ["y_transient.scn",
                                      "pipe_perturbation.scn"])
    def test_verify_catches_a_broken_power_balance(self, name, monkeypatch,
                                                   capsys):
        # hyperbolic steps that report no stage dissipation
        stage_power = HyperbolicStepper._stage_power
        monkeypatch.setattr(
            HyperbolicStepper, "_stage_power",
            lambda self, loads, cache: (0.0,
                                        stage_power(self, loads, cache)[1]))
        code = main(["verify", "--scenario", os.path.join(SCEN, name),
                     "--samples", "5", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL power-balance" in out
        assert out.count("FAIL") == 1

    def test_verify_catches_corrupted_parabolic_step(self, monkeypatch,
                                                     capsys):
        step = ParabolicStepper.step

        def corrupted(self, *args, **kwargs):
            state, info = step(self, *args, **kwargs)
            return NetworkState(state.tau, state.rho * (1 + 1e-3),
                                state.w), info

        monkeypatch.setattr(ParabolicStepper, "step", corrupted)
        code = main(["verify", "--scenario",
                     os.path.join(SCEN, "y_transient.scn"),
                     "--samples", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL limit-energy-balance" in out
        assert "ok   power-balance" in out

    def test_verify_catches_a_j_that_is_not_skew(self, monkeypatch, capsys):
        # a junction row of S^T off by a relative 1e-6: the steppers still
        # converge, and only the skew check on the applied J can see it
        apply_st = NetworkSystem.apply_st
        monkeypatch.setattr(NetworkSystem, "apply_st",
                            lambda self, m: apply_st(self, m) * (1 + 1e-6))
        code = main(["verify", "--scenario",
                     os.path.join(SCEN, "y_transient.scn"),
                     "--samples", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL skew-symmetry" in out
        assert out.count("FAIL") == 1

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_needs_one_sample_at_least(self, samples, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--scenario",
                  os.path.join(SCEN, "y_transient.scn"),
                  f"--samples={samples}"])
        assert info.value.code == 2
        assert "--samples: must be at least 1" in capsys.readouterr().err

    def test_verify_has_no_out(self, tmp_path, capsys):
        # verify writes nothing, so it takes no output directory
        with pytest.raises(SystemExit) as info:
            main(["verify", "--scenario",
                  os.path.join(SCEN, "single_pipe.scn"), "--samples", "5",
                  "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", [
        ["--cells", "3"], ["--dt", "5"], ["--scheme", "backward-euler"]])
    def test_mms_takes_no_scenario_overrides(self, option, capsys):
        # mms runs its own manufactured case, so the options that
        # override a scenario's grid and solver are unknown to it
        with pytest.raises(SystemExit) as info:
            main(["mms", *option, "--cells-list", "6,12",
                  "--dt-list", "2e-3,1e-3"])
        assert info.value.code == 2
        assert (f"unrecognized arguments: {' '.join(option)}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("option, value", [
        ("--dt", "inf"), ("--dt", "nan"), ("--dt", "0"), ("--dt", "-1e-3"),
        ("--dt", "fast"), ("--cells", "1"), ("--cells", "0"),
        ("--cells", "2.5")])
    def test_bad_dt_or_cells_is_a_usage_error(self, option, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--scenario",
                  os.path.join(SCEN, "y_transient.scn"), f"{option}={value}"])
        assert info.value.code == 2
        assert f"{option}: " in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("dt", "inf"), ("dt", "nan"), ("t_final", "inf"), ("t_final", "nan"),
        ("newton_tol", "inf"), ("newton_tol", "nan"), ("max_iter", "0")])
    def test_nonfinite_solver_setting_fails_at_its_section(
            self, tmp_path, key, value, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text(MINIMAL.replace("dt = 0.01\nt_final = 0.1",
                                       f"{key} = {value}"))
        # a number that is not finite fails at its key, a bad setting of
        # SolverConfig at the section
        line = scn.read_text().splitlines().index(
            "[solver]" if key == "max_iter" else f"{key} = {value}") + 1
        assert main(["simulate", "--scenario", str(scn)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {scn}:{line}: ")
        assert ("max_iter must be at least 1" in err if key == "max_iter"
                else "finite" in err)

    @pytest.mark.parametrize("command", [
        ["simulate", "--scenario", os.path.join(SCEN, "y_transient.scn")],
        ["study", "epsilon", "--scenario", os.path.join(SCEN, "y_limit.scn")]],
        ids=["simulate", "study"])
    def test_unusable_out_fails_before_the_run(self, tmp_path, command,
                                               monkeypatch, capsys):
        import pipeflow.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli, "run", no_run)
        monkeypatch.setattr(cli.studies_mod, "epsilon_limit_study", no_run)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        assert main(command + ["--out", str(taken)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(taken) in captured.err
        assert captured.out == ""

    def test_writer_failure_is_an_error_line(self, tmp_path, capsys):
        scn = tmp_path / "rest.scn"
        scn.write_text(MINIMAL + "\n[initial]\nrest = 1.0\n")
        faces = tmp_path / "out" / "states_faces.csv"
        faces.mkdir(parents=True)
        assert main(["simulate", "--scenario", str(scn),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {faces}: ")

    @pytest.mark.parametrize("option, values, other", [
        ("--cells-list", "12", "--dt-list=2e-3,1e-3"),
        ("--cells-list", "", "--dt-list=2e-3,1e-3"),
        ("--dt-list", "1e-3", "--cells-list=8,16"),
        ("--dt-list", "", "--cells-list=8,16")])
    def test_mms_needs_two_values_per_list(self, option, values, other,
                                           capsys):
        # one resolution gives no order of convergence to check
        with pytest.raises(SystemExit) as info:
            main(["mms", f"{option}={values}", other])
        assert info.value.code == 2
        assert f"{option}: need at least two values" in capsys.readouterr().err

    def test_study_has_no_threads_option(self, tmp_path):
        scn = tmp_path / "s.scn"
        scn.write_text(MINIMAL)
        with pytest.raises(SystemExit) as info:
            main(["study", "gamma", "--scenario", str(scn), "--threads", "2"])
        assert info.value.code == 2

    def test_import_does_not_load_sympy(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c",
                        "import sys, pipeflow.mms, pipeflow.cli; "
                        "assert 'sympy' not in sys.modules; "
                        "assert 'concurrent.futures' not in sys.modules; "
                        "assert 'logging' not in sys.modules; "
                        f"assert {SCIPY_MODULES!r} == "
                        "[m for m in sys.modules if m.startswith('scipy')]"],
                       env=env, check=True)

    def test_runs_do_not_load_scipy_optimize(self):
        # rest and recovered initial states, and both steppers
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH", "")])}
        script = (
            "import os, sys\n"
            "from dataclasses import replace\n"
            "from pipeflow.scenario import load_scenario\n"
            "from pipeflow.solver import run\n"
            "for name in ('y_transient', 'y_limit'):\n"
            f"    scen = load_scenario(os.path.join({SCEN!r}, name + '.scn'))\n"
            "    system = scen.build_system()\n"
            "    state = scen.initial_state(system)\n"
            "    for parabolic in (False, True):\n"
            "        config = replace(scen.solver, t_final=3 * scen.solver.dt,\n"
            "                         parabolic=parabolic)\n"
            "        traj = run(system, state, config, scen.boundary)\n"
            "        assert len(traj.states) == 4\n"
            f"assert {SCIPY_MODULES!r} == [\n"
            "    m for m in sys.modules if m.startswith('scipy')]\n")
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_tabulated_runs_load_no_heavy_modules(self, tmp_path):
        rho = np.linspace(0.5, 2.0, 40)
        np.savetxt(tmp_path / "gas.dat", np.column_stack([rho, rho]))
        scn = tmp_path / "s.scn"
        scn.write_text(MINIMAL.replace("law = isothermal",
                                       "law = tabulated\ntable = gas.dat")
                       .replace("h = 1.0", "h = 1.05", 1))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH", "")])}
        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from pipeflow.scenario import load_scenario\n"
            "from pipeflow.solver import run\n"
            f"scen = load_scenario({str(scn)!r})\n"
            "system = scen.build_system()\n"
            "state = scen.initial_state(system)\n"
            "for parabolic in (False, True):\n"
            "    config = replace(scen.solver, t_final=3 * scen.solver.dt,\n"
            "                     parabolic=parabolic)\n"
            "    traj = run(system, state, config, scen.boundary)\n"
            "    assert len(traj.states) == 4\n"
            "    assert traj.states[-1].rho[0] > 1.01\n"
            "assert 'sympy' not in sys.modules\n"
            f"assert {SCIPY_MODULES!r} == [\n"
            "    m for m in sys.modules if m.startswith('scipy')]\n")
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_mms_smoke(self, capsys):
        code = main(["mms", "--cells-list", "8,16", "--dt-list",
                     "4e-3,2e-3"])
        assert code == 0
        assert "observed orders" in capsys.readouterr().out


def test_npz_trajectory_output(tmp_path):
    import numpy as np

    from pipeflow.scenario import parse_scenario, write_trajectory
    from pipeflow.solver import run

    scen = parse_scenario(MINIMAL + "\n[initial]\nrest = 1.0\n")
    system = scen.build_system()
    traj = run(system, scen.initial_state(system), scen.solver, scen.boundary)
    write_trajectory(tmp_path, system, traj, fmt="npz")
    data = np.load(tmp_path / "states.npz")
    assert data["rho"].shape == (len(traj.states), system.n_cells)
    assert data["w"].shape == (len(traj.states), system.n_faces)


def test_cli_study_writes_tables(tmp_path, capsys):
    code = main(["study", "gamma", "--scenario",
                 os.path.join(SCEN, "pipe_perturbation.scn"),
                 "--gamma-offsets", "0.4,0.2,0.1",
                 "--out", str(tmp_path), "--dt", "2e-3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "slope" in out
    assert (tmp_path / "study_gamma.csv").exists()
    assert (tmp_path / "stability_gamma_0.4.csv").exists()
    header = (tmp_path / "stability_gamma_0.4.csv").read_text().splitlines()[0]
    assert "bound_lhs" in header and "slack" in header


def test_study_writes_one_trace_per_parameter(tmp_path, capsys):
    # 0.1000001 prints as 0.1 under %g
    with open(os.path.join(SCEN, "y_limit.scn")) as fh:
        text = fh.read().replace("t_final = 0.3", "t_final = 0.04")
    (tmp_path / "y_limit.scn").write_text(text)
    (tmp_path / "y_network.topo").write_text(
        open(os.path.join(SCEN, "y_network.topo")).read())
    out = tmp_path / "out"
    assert main(["study", "epsilon", "--scenario", str(tmp_path / "y_limit.scn"),
                 "--eps-list", "0.2,0.1000001,0.1,0.05", "--cells", "4",
                 "--dt", "2e-3", "--out", str(out)]) == 0
    assert "stability certificates: 4/4 hold" in capsys.readouterr().out
    assert sorted(p.name for p in out.glob("stability_*.csv")) == [
        "stability_epsilon_0.05.csv", "stability_epsilon_0.1.csv",
        "stability_epsilon_0.1000001.csv", "stability_epsilon_0.2.csv"]


def test_initial_state_from_file(tmp_path):
    import numpy as np

    from pipeflow.scenario import parse_scenario
    from pipeflow.solver import run

    scen = parse_scenario(MINIMAL)
    system = scen.build_system()
    rho = 1.0 + 0.05 * np.sin(np.pi * system.x_cells)
    w = np.zeros(system.n_faces)
    np.savez(tmp_path / "init.npz", rho=rho, w=w)
    text = MINIMAL + f"\n[initial]\nfile = {tmp_path / 'init.npz'}\n"
    scen2 = parse_scenario(text, path=str(tmp_path / "s.scn"))
    state = scen2.initial_state(system)
    assert np.allclose(state.rho, rho)

    bad = MINIMAL + f"\n[initial]\nfile = {tmp_path / 'missing.npz'}\n"
    scen3 = parse_scenario(bad, path=str(tmp_path / "s.scn"))
    with pytest.raises(ConfigError, match="missing.npz"):
        scen3.initial_state(system)


def test_verify_without_bounds_fails(tmp_path, capsys):
    scn = tmp_path / "nobounds.scn"
    scn.write_text(MINIMAL)
    code = main(["verify", "--scenario", str(scn), "--samples", "10"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_scheme_alias_accepted(tmp_path):
    from pipeflow.scenario import parse_scenario

    scen = parse_scenario(MINIMAL.replace("dt = 0.01",
                                          "dt = 0.01\nscheme = implicit-midpoint"))
    assert scen.solver.scheme == "midpoint"


def test_tabulated_law_scenario(tmp_path):
    import numpy as np

    from pipeflow.gas import IsothermalLaw
    from pipeflow.scenario import parse_scenario

    base = IsothermalLaw(1.0)
    rho = np.linspace(0.5, 2.0, 40)
    np.savetxt(tmp_path / "gas.dat", np.column_stack([rho, base.pressure(rho)]))
    text = MINIMAL.replace("law = isothermal",
                           "law = tabulated\ntable = gas.dat")
    scen = parse_scenario(text, path=str(tmp_path / "s.scn"))
    assert scen.law.kind == "tabulated"
    assert scen.law.potential(1.5) == pytest.approx(base.potential(1.5),
                                                    rel=1e-8)


def test_tabulated_law_scenario_rejects_nonfinite_table(tmp_path):
    from pipeflow.scenario import parse_scenario

    np.savetxt(tmp_path / "gas.dat",
               [[0.5, 0.5], [1.0, 1.0], [1.5, np.nan], [2.0, 2.0]])
    text = MINIMAL.replace("law = isothermal",
                           "law = tabulated\ntable = gas.dat")
    with pytest.raises(ConfigError, match=r"s\.scn:2: .*only finite values"):
        parse_scenario(text, path=str(tmp_path / "s.scn"))


def test_bounds_outside_the_tabulated_range_fail_at_bounds(tmp_path):
    from pipeflow.gas import IsothermalLaw

    rho = np.linspace(0.5, 2.0, 40)
    np.savetxt(tmp_path / "gas.dat",
               np.column_stack([rho, IsothermalLaw(1.0).pressure(rho)]))
    text = (MINIMAL.replace("law = isothermal", "law = tabulated\ntable = gas.dat")
            + "\n[initial]\nrest = 1.0\n"
            + "\n[bounds]\nrho_min = 0.6\nrho_max = 1.9\nw_max = 0.5\n"
            "eps_max = 0.5\n")
    path = str(tmp_path / "s.scn")
    assert parse_scenario(text, path=path).bounds.rho_max == 1.9
    line = text.splitlines().index("[bounds]") + 1
    with pytest.raises(ConfigError) as info:
        parse_scenario(text.replace("rho_max = 1.9", "rho_max = 3.0"), path=path)
    assert str(info.value) == (f"{path}:{line}: density outside the "
                               "tabulated range")


def _reference_write_csv(directory, system, trajectory, encoding=None):
    """The snapshot tables row by row, one f-string per row, both in this
    process: the reference the two-process writer must match byte for
    byte."""
    cells_path = os.path.join(directory, "states_cells.csv")
    faces_path = os.path.join(directory, "states_faces.csv")
    with open(cells_path, "w", encoding=encoding) as fc, \
            open(faces_path, "w", encoding=encoding) as ff:
        fc.write("tau,edge,node,x,rho,h\n")
        ff.write("tau,edge,node,x,w,m\n")
        for state in trajectory.states:
            h, m = system.costate(state)
            for e in system.topology.edges:
                cells = system.edge_cells(e.name)
                faces = system.edge_faces(e.name)
                for i, c in enumerate(range(cells.start, cells.stop)):
                    fc.write(f"{state.tau:.12g},{e.name},{i},"
                             f"{system.x_cells[c]:.12g},{state.rho[c]:.12g},"
                             f"{h[c]:.12g}\n")
                for i, f in enumerate(range(faces.start, faces.stop)):
                    ff.write(f"{state.tau:.12g},{e.name},{i},"
                             f"{system.x_faces[f]:.12g},{state.w[f]:.12g},"
                             f"{m[f]:.12g}\n")


def _assert_tables_match_reference(tmp_path, system, trajectory,
                                   encoding=None):
    write_trajectory(tmp_path / "new", system, trajectory)
    os.makedirs(tmp_path / "ref")
    _reference_write_csv(tmp_path / "ref", system, trajectory,
                         encoding=encoding)
    for name in ("states_cells.csv", "states_faces.csv"):
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "ref" / name).read_bytes()
    return new


def test_csv_tables_match_reference_on_y_transient(tmp_path):
    scen = load_scenario(os.path.join(SCEN, "y_transient.scn"))
    system = replace(scen, cells_per_edge=8).build_system()
    traj = run(system, scen.initial_state(system),
               replace(scen.solver, t_final=0.05), scen.boundary)
    faces = _assert_tables_match_reference(tmp_path, system, traj)
    assert faces.count(b"\n") == 1 + len(traj.states) * system.n_faces


def _star_system(names):
    """A star of four edges with the given names, of 2, 5, 3 and 7 cells."""
    params = PipeParameters(length=1.5)
    edges = [net.Edge(name, start, end, params) for name, start, end in
             zip(names, ["a", "j", "j", "j"], ["j", "b", "c", "d"])]
    topology = net.NetworkTopology(edges)
    grids = {name: EdgeGrid(params.length, n)
             for name, n in zip(names, [2, 5, 3, 7])}
    return NetworkSystem(topology, grids, make_law("isothermal"))


def _random_trajectory(system, times):
    rng = np.random.default_rng(3)
    traj = Trajectory()
    for tau in times:
        traj.append(NetworkState(tau, 1 + 0.1 * rng.random(system.n_cells),
                                 rng.standard_normal(system.n_faces)), None)
    return traj


def test_csv_tables_match_reference_with_format_characters_in_names(tmp_path):
    system = _star_system(["p%", "q%s", "{tau}", "}"])
    traj = _random_trajectory(system, (0.0, 0.125, 1 / 3))
    faces = _assert_tables_match_reference(tmp_path, system, traj)
    assert b",q%s,1," in faces and b",{tau},0," in faces


@pytest.mark.parametrize("encoding", [None, "latin-1"])
def test_csv_tables_match_reference_with_non_ascii_names(tmp_path, encoding,
                                                         monkeypatch):
    # the face table is written in the encoding the cell table was opened
    # with, here also one that is not this process's default
    import functools

    import pipeflow.scenario as scenario_mod

    if encoding is not None:
        monkeypatch.setattr(scenario_mod, "open",
                            functools.partial(open, encoding=encoding),
                            raising=False)
    system = _star_system(["café", "Öl", "ñu", "x"])
    traj = _random_trajectory(system, (0.0, 0.5))
    faces = _assert_tables_match_reference(tmp_path, system, traj,
                                           encoding=encoding)
    assert ",Öl,4,".encode(encoding or "utf-8") in faces


@pytest.mark.parametrize("snapshots", [0, 1])
def test_csv_tables_match_reference_with_few_snapshots(tmp_path, snapshots):
    system = _star_system(["a", "b", "c", "d"])
    traj = _random_trajectory(system, [0.25] * snapshots)
    faces = _assert_tables_match_reference(tmp_path, system, traj)
    assert faces.count(b"\n") == 1 + snapshots * system.n_faces


@pytest.fixture
def writers(monkeypatch):
    """The face-table writers that write_trajectory starts."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)
    # write_trajectory imports subprocess when it writes CSV
    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


@pytest.mark.parametrize("snapshots", [1, 400])
def test_unwritable_face_table_raises_naming_it(tmp_path, snapshots, writers):
    # one snapshot fits the pipe, so the writer's exit status reports the
    # failure; 400 snapshots (137 KB, past a pipe's 64 KB) break the pipe
    system = _star_system(["a", "b", "c", "d"])
    traj = _random_trajectory(system, np.linspace(0, 1, snapshots))
    faces = tmp_path / "states_faces.csv"
    faces.mkdir()
    with pytest.raises(OSError) as info:
        write_trajectory(tmp_path, system, traj)
    assert str(info.value).startswith(f"cannot write {faces}: ")
    assert "Is a directory" in str(info.value)
    assert [w.returncode for w in writers] == [1]


def test_failing_snapshot_stops_the_face_writer(tmp_path, monkeypatch,
                                                writers):
    system = _star_system(["a", "b", "c", "d"])
    traj = _random_trajectory(system, np.linspace(0, 1, 6))
    costate = system.costate
    calls = []

    def failing_costate(state):
        calls.append(state.tau)
        if len(calls) == 4:
            raise RuntimeError("snapshot 3 fails")
        return costate(state)
    monkeypatch.setattr(system, "costate", failing_costate)
    with pytest.raises(RuntimeError, match="snapshot 3 fails"):
        write_trajectory(tmp_path, system, traj)
    # the writer saw its input end after three whole snapshots
    assert [w.returncode for w in writers] == [0]
    faces = (tmp_path / "states_faces.csv").read_bytes()
    assert faces.count(b"\n") == 1 + 3 * system.n_faces


def test_csv_tables_match_reference_on_exponent_and_sign_forms(tmp_path):
    scen = parse_scenario(MINIMAL)
    system = replace(scen, cells_per_edge=4).build_system()
    w = np.array([-0.0, 1e-300, 123456789012345.6, -2.5e-7, 0.1 + 0.2])
    rho = np.array([1e-300, 1.0, 123456789012345.6, 1e16])
    traj = Trajectory()
    traj.append(NetworkState(-0.0, rho, w), None)
    traj.append(NetworkState(1e-5, rho[::-1].copy(), -w), None)
    faces = _assert_tables_match_reference(tmp_path, system, traj)
    assert b",-0,-0\n" in faces and b"e-300," in faces


def test_unknown_trajectory_format_is_rejected(tmp_path):
    scen = parse_scenario(MINIMAL)
    system = replace(scen, cells_per_edge=4).build_system()
    traj = Trajectory()
    traj.append(scen.initial_state(system), None)
    with pytest.raises(ValueError, match="'parquet'"):
        write_trajectory(tmp_path / "out", system, traj, fmt="parquet")
    assert not (tmp_path / "out").exists()


def _single_pipe_initial(initial, bounds=True):
    """single_pipe.scn with its [initial] section replaced, and without
    its [bounds] section unless asked; the line of [initial]'s first key."""
    with open(os.path.join(SCEN, "single_pipe.scn")) as fh:
        text = fh.read()
    if not bounds:
        text = text.split("[bounds]")[0]
    head, _, tail = text.partition("[initial]\n")
    tail = tail.split("\n\n", 1)[1]
    return head + "[initial]\n" + initial + "\n" + tail, head.count("\n") + 2


def test_midpoint_step_rejects_negative_end_density():
    # rest = 3.0 gives density 7.39 against boundary enthalpies 1.0; the
    # outflow empties the end cells until a midpoint step's end density
    # 2 rho_s - rho_n goes negative while its stage density stays positive
    text, _ = _single_pipe_initial("rest = 3.0", bounds=False)
    scen = parse_scenario(text, path="p.scn")
    system = scen.build_system()
    with pytest.raises(StepFailure, match="end density is not positive") as info:
        run(system, scen.initial_state(system), scen.solver, scen.boundary)
    failure = info.value
    assert failure.step == 6
    assert failure.dt == scen.solver.dt
    assert failure.tau == pytest.approx(6 * scen.solver.dt)
    assert len(failure.partial.states) == 7
    assert min(s.rho.min() for s in failure.partial.states) > 0.0


def test_simulate_reports_a_step_failure(tmp_path, capsys):
    # the end-density failure above, through the CLI: the failure's step,
    # tau, dt and residual on stderr, the accepted snapshots' energy
    # trace and a manifest naming the failure, exit code 1
    text, _ = _single_pipe_initial("rest = 3.0", bounds=False)
    scn = tmp_path / "p.scn"
    scn.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out)]) == 1
    dt = parse_scenario(text).solver.dt
    where = f"step 6 from tau={6 * dt:.6g} with dt={dt:.6g}, residual "
    err = capsys.readouterr().err
    assert f"step failure in {where}" in err
    residual = float(err.split(where)[1].split(":")[0])
    assert 0.0 <= residual <= parse_scenario(text).solver.newton_tol
    assert "end density is not positive" in err
    rows = (out / "energy.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == pytest.approx(
        [k * dt for k in range(7)])
    assert rows[0].split(",")[4] == "nan"
    assert all(r.split(",")[4] != "nan" for r in rows[1:])
    manifest = (out / "manifest.txt").read_text()
    assert "command = simulate" in manifest
    failure_line = next(line for line in manifest.splitlines()
                        if line.startswith("failure = "))
    assert where in failure_line
    assert failure_line.endswith("end density is not positive or outside "
                                 "the gas law's table")
    assert not (out / "states_cells.csv").exists()


@pytest.mark.parametrize("initial, bad_key", [
    ("rho = 1.0\nrest = 1.0", 1),
    ("rest = 1.0\nw = 0.1", 1),
    ("file = init.npz\nrho = 1.0", 1),
    ("rho = 1.0\nw = recover\nrest = 1.0", 2),
    ("rest = 1.0\nfile = init.npz", 1),
], ids=["rho-rest", "rest-w", "file-rho", "rho-w-rest", "rest-file"])
def test_initial_sources_are_exclusive(tmp_path, initial, bad_key):
    text, line = _single_pipe_initial(initial)
    path = tmp_path / "s.scn"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_scenario(str(path))
    assert str(info.value).startswith(f"{path}:{line + bad_key}: ")
    assert "takes one source" in str(info.value)


def _write_state_file(tmp_path, name, **arrays):
    system = load_scenario(os.path.join(SCEN, "single_pipe.scn")).build_system()
    state = {"rho": np.full(system.n_cells, 1.1), "w": np.zeros(system.n_faces)}
    state.update(arrays)
    state = {k: v for k, v in state.items() if v is not None}
    if name.endswith(".npy"):
        np.save(tmp_path / name, state["rho"])
    else:
        np.savez(tmp_path / name, **state)
    return system


@pytest.mark.parametrize("name, arrays, error", [
    ("init.npy", {}, "is not an .npz archive"),
    ("init.npz", {"rho": None}, r"holds \['w'\], not rho and w"),
    ("init.npz", {"w": None}, r"holds \['rho'\], not rho and w"),
    ("init.npz", {"rho": np.ones(5)}, r"has shapes \(5,\)/\(33,\)"),
    ("init.npz", {"rho": np.full(32, 2.0)}, r"violates the admissible bounds "
                                            r"\(density_high\)"),
    ("init.npz", {"rho": np.full(32, -1.0)}, "must be positive"),
    ("gone.npz", {}, "cannot read initial state file"),
], ids=["npy", "no-rho", "no-w", "shape", "bounds", "negative", "missing"])
def test_bad_initial_file_names_line(tmp_path, name, arrays, error):
    system = _write_state_file(tmp_path, "init.npy" if name == "init.npy"
                               else "init.npz", **arrays)
    text, line = _single_pipe_initial(f"file = {name}")
    path = tmp_path / "s.scn"
    path.write_text(text)
    scen = load_scenario(str(path))
    with pytest.raises(ConfigError, match=error) as info:
        scen.initial_state(system)
    assert str(info.value).startswith(f"{path}:{line}: ")


def test_rest_state_checked_against_bounds(tmp_path):
    text, line = _single_pipe_initial("\n# a dense rest state\nrest = 3.0")
    path = tmp_path / "s.scn"
    path.write_text(text)
    scen = load_scenario(str(path))
    with pytest.raises(ConfigError) as info:
        scen.initial_state(scen.build_system())
    assert str(info.value) == (f"{path}:{line + 2}: initial state violates "
                               "the admissible bounds (density_high)")


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("name, old, new", [
    ("y_transient.scn", "epsilon = 0.4", "epsilon = {}"),
    ("y_network.topo", "area = 1.0", "area = {}"),
    ("y_transient.scn", "rest = 1.0", "rest = {}"),
    ("y_transient.scn", "table = 0:1.0, 0.05:1.15", "table = 0:1.0, 0.05:{}"),
    ("y_transient.scn", "h = 1.0", "h = {}"),
    ("y_transient.scn", "dt = 1e-3", "dt = {}"),
    ("y_transient.scn", "w_max = 0.95", "w_max = {}"),
], ids=["model", "topology-file", "initial", "boundary-table", "boundary-h",
        "solver", "bounds"])
def test_nonfinite_number_fails_at_its_key(tmp_path, name, old, new, value,
                                           capsys):
    for f in ("y_transient.scn", "y_network.topo"):
        with open(os.path.join(SCEN, f)) as fh:
            text = fh.read()
        if f == name:
            assert old in text
            text = text.replace(old, new.format(value), 1)
            line = text[:text.index(new.format(value))].count("\n") + 1
        (tmp_path / f).write_text(text)
    assert main(["simulate", "--scenario",
                 str(tmp_path / "y_transient.scn")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {tmp_path / name}:{line}: ")
    assert "is not finite" in err


def _y_transient_copy(tmp_path, *replacements):
    """y_transient.scn and its topology in tmp_path, the old -> new
    replacements made in the scenario; its path."""
    with open(os.path.join(SCEN, "y_transient.scn")) as fh:
        text = fh.read()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new, 1)
    with open(os.path.join(SCEN, "y_network.topo")) as fh:
        (tmp_path / "y_network.topo").write_text(fh.read())
    path = tmp_path / "y_transient.scn"
    path.write_text(text)
    return path


def test_negative_epsilon_fails_at_its_line(tmp_path, capsys):
    path = _y_transient_copy(tmp_path, ("epsilon = 0.4", "epsilon = -0.1"))
    line = path.read_text().splitlines().index("epsilon = -0.1") + 1
    assert main(["simulate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (f"configuration error: {path}:{line}: "
                                       "epsilon must be nonnegative\n")


def test_density_leaving_the_table_is_a_step_failure(tmp_path, capsys):
    # the inlet enthalpy ramps to 1.15, whose density exp(0.15) = 1.16 lies
    # above the table; without [bounds] the run goes on until a step's
    # densities leave it, which fails that step and keeps the ones before
    rho = np.linspace(0.9, 1.1, 9)
    np.savetxt(tmp_path / "gas.dat", np.column_stack([rho, rho]))
    path = _y_transient_copy(
        tmp_path, ("law = isothermal\nsound_speed = 1.0",
                   "law = tabulated\ntable = gas.dat"))
    path.write_text(path.read_text().split("[bounds]")[0])
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: step failure in step ")
    assert err.endswith("density is not positive or outside the gas law's "
                        "table")
    step = int(err.split("step failure in step ")[1].split()[0])
    assert step > 0
    rows = (out / "energy.csv").read_text().splitlines()[1:]
    assert len(rows) == step + 1
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert f"failure = {err.split('step failure in ')[1]}" in manifest


def test_tight_bounds_warning_lines(tmp_path, capsys):
    """The warnings of a y_transient run that leaves a tight box: the
    kinds each step violates, in sorted order."""
    with open(os.path.join(SCEN, "y_transient.scn")) as fh:
        text = fh.read()
    for old, new in (("include = y_network.topo", "include = "
                      + os.path.join(SCEN, "y_network.topo")),
                     ("t_final = 0.3", "t_final = 0.05"),
                     ("rho_min = 0.6\nrho_max = 1.6\nw_max = 0.95",
                      "rho_min = 0.99\nrho_max = 1.02\nw_max = 0.05")):
        assert old in text
        text = text.replace(old, new)
    (tmp_path / "tight.scn").write_text(text)
    assert main(["simulate", "--scenario", str(tmp_path / "tight.scn")]) == 0
    warnings = capsys.readouterr().err.splitlines()
    lost = "warning: step {} (tau={}): admissibility lost ({})"
    assert len(warnings) == 37
    assert warnings[0] == lost.format(14, 0.014, "velocity")
    assert warnings[10] == lost.format(24, 0.024, "velocity")
    assert warnings[11] == lost.format(25, 0.025, "density_high, velocity")
    assert warnings[17] == lost.format(31, 0.031,
                                       "density_high, density_low, velocity")
    assert warnings[-1] == lost.format(50, 0.05,
                                       "density_high, density_low, velocity")


def _with_max_iter_1(tmp_path, name):
    """A committed scenario whose Newton iterations stop after one."""
    with open(os.path.join(SCEN, name)) as fh:
        text = fh.read().replace("[solver]\n", "[solver]\nmax_iter = 1\n")
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _step_failure_line(err):
    """The one line a step failure prints: no traceback."""
    assert "Traceback" not in err
    line, = err.strip().splitlines()
    assert line.startswith("error: step failure in ")
    return line


def test_study_step_failure_names_the_member(tmp_path, capsys):
    # the members take the scenario's max_iter, the reference 20 more
    scn = _with_max_iter_1(tmp_path, "pipe_perturbation.scn")
    assert main(["study", "gamma", "--no-certify", "--scenario", scn]) == 1
    line = _step_failure_line(capsys.readouterr().err)
    assert line.startswith("error: step failure in the gamma_offset=0.4 run, "
                           "step 0 from tau=0 with dt=0.001, residual ")
    assert "Newton did not converge in 1 iterations" in line
    # the joint step failed in the batch's child; the member reran here
    assert_no_child_processes()


def _failing_run(real_run, fails):
    def run_or_fail(system, state0, config, boundary, **kwargs):
        if fails(config):
            raise StepFailure("Newton did not converge", step=2,
                              tau=2 * config.dt, dt=config.dt, residual=0.5)
        return real_run(system, state0, config, boundary, **kwargs)
    return run_or_fail


def test_study_step_failure_names_the_reference(monkeypatch, capsys):
    from pipeflow import studies

    monkeypatch.setattr(studies, "run", _failing_run(
        studies.run, lambda config: config.parabolic))
    scn = os.path.join(SCEN, "pipe_limit.scn")
    assert main(["study", "epsilon", "--no-certify", "--scenario", scn]) == 1
    dt = load_scenario(scn).solver.dt / 4
    assert _step_failure_line(capsys.readouterr().err) == (
        f"error: step failure in the reference run, step 2 from "
        f"tau={2 * dt:.6g} with dt={dt:.6g}, residual 0.5: Newton did not "
        "converge")
    # the members were stepping in the batch's child when it failed
    assert_no_child_processes()


def test_mms_step_failure_is_reported(monkeypatch, capsys):
    from pipeflow import mms

    monkeypatch.setattr(mms, "run", _failing_run(
        mms.run, lambda config: config.dt == 2e-3))
    assert main(["mms", "--cells-list", "8,16", "--dt-list",
                 "4e-3,2e-3"]) == 1
    assert _step_failure_line(capsys.readouterr().err) == (
        "error: step failure in step 2 from tau=0.004 with dt=0.002, "
        "residual 0.5: Newton did not converge")


def test_verify_step_failure_at_half_step(monkeypatch, capsys):
    from pipeflow import cli

    scn = os.path.join(SCEN, "y_transient.scn")
    dt = load_scenario(scn).solver.dt
    monkeypatch.setattr(cli, "run", _failing_run(
        cli.run, lambda config: config.dt < dt))
    assert main(["verify", "--samples", "5", "--scenario", scn]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert ("FAIL power-balance: half-step transient failed: Newton did not "
            "converge\n") in out
    # the checks after the dt/2 run are still reported
    assert "ok   limit-energy-balance: " in out
    assert "ok   junction-conservation: " in out
    assert out.count("FAIL") == 1


def test_verify_failed_transient_without_junctions(tmp_path, capsys):
    scn = _with_max_iter_1(tmp_path, "single_pipe.scn")
    assert main(["verify", "--samples", "5", "--scenario", scn]) == 1
    out = capsys.readouterr().out
    assert "FAIL power-balance: transient failed: Newton did not" in out
    assert out.endswith("ok   junction-conservation: no interior junctions\n")
    assert out.count("FAIL") == 1
