"""Every module-level import of a pipeflow module is used in it, every
field of the configuration dataclasses is read somewhere, only
solver._Child starts a second process, only
discretization.schedule_values reads boundary schedules, only the
run's recorder checks snapshots against their bounds, and every test's
name is ASCII."""

import ast
import dataclasses
import importlib
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "pipeflow")
MODULES = sorted(f for f in os.listdir(PACKAGE)
                 if f.endswith(".py") and f != "__init__.py")


def _unused_imports(source):
    """The names that module-level imports bind and the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_finds_an_unused_import():
    assert _unused_imports("import os\nimport numpy as np\nfrom a import b, c\n"
                           "np.zeros(c)\n") == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert _unused_imports(fh.read()) == []


def _attributes_read(source):
    """The attribute names a module reads, outside __post_init__ (which
    checks a field but does not use it)."""
    read = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)
    visit(ast.parse(source))
    return read


def test_finds_the_attributes_read():
    assert _attributes_read("class A:\n    def __post_init__(self):\n"
                            "        self.a\n    def f(self):\n"
                            "        self.b.c = self.d\n") == {"b", "d"}


@pytest.mark.parametrize("module, name", [
    ("solver", "SolverConfig"), ("gas", "AdmissibleBounds"),
    ("gas", "PipeParameters"), ("scenario", "InitialSpec"),
    ("scenario", "Scenario")])
def test_config_fields_are_read(module, name):
    # a field nothing reads is an option that buys nothing
    read = set()
    for source in sorted(os.listdir(PACKAGE)):
        if source.endswith(".py"):
            with open(os.path.join(PACKAGE, source)) as fh:
                read |= _attributes_read(fh.read())
    cls = getattr(importlib.import_module(f"pipeflow.{module}"), name)
    assert [f.name for f in dataclasses.fields(cls)
            if f.name not in read] == []


def _fork_uses(source):
    """(line, enclosing top-level class or None) of each use of os.fork or
    os.pipe."""
    uses = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                named = (node.attr in ("fork", "pipe")
                         and isinstance(node.value, ast.Name)
                         and node.value.id == "os")
            else:
                named = (isinstance(node, ast.ImportFrom)
                         and node.module == "os"
                         and any(a.name in ("fork", "pipe")
                                 for a in node.names))
            if named:
                uses.append((node.lineno, owner))
    return uses


def test_finds_fork_uses():
    assert _fork_uses("import os\nclass A:\n    def f(self):\n"
                      "        os.fork()\nfrom os import pipe\n"
                      "os.forkpty()\n") == [(4, "A"), (5, None)]


def test_only_the_child_helper_forks():
    # so what happens without a fork is decided in one place
    stray, owned = [], 0
    for module in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, module)) as fh:
            for line, owner in _fork_uses(fh.read()):
                if (module, owner) == ("solver.py", "_Child"):
                    owned += 1
                else:
                    stray.append(f"{module}:{line}")
    assert stray == []
    assert owned == 2  # the guard sees _Child's own os.pipe and os.fork


def _callable_calls(source):
    """(line, enclosing top-level function or class, or None) of each
    call of callable()."""
    calls = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "callable"):
                calls.append((node.lineno, owner))
    return calls


def test_finds_callable_calls():
    assert _callable_calls("def f(x):\n    return callable(x)\nclass A:\n"
                           "    g = callable\ncallable(1)\n") == [(2, "f"),
                                                                  (5, None)]


def test_only_the_schedule_reader_decodes_schedules():
    # a schedule entry is a number or a callable of one time, and
    # discretization.schedule_values alone tells them apart
    stray, owned = [], 0
    for module in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, module)) as fh:
            for line, owner in _callable_calls(fh.read()):
                if (module, owner) == ("discretization.py", "schedule_values"):
                    owned += 1
                else:
                    stray.append(f"{module}:{line}")
    assert stray == []
    assert owned == 1


def _check_state_calls(source):
    """(line, enclosing top-level function or Class.method, or None) of
    each call of check_state, as a name or an attribute."""
    calls = []
    for top in ast.parse(source).body:
        in_class = isinstance(top, ast.ClassDef)
        for part in top.body if in_class else [top]:
            owner = getattr(part, "name", None)
            if in_class:
                owner = f"{top.name}.{owner}" if owner else top.name
            for node in ast.walk(part):
                if isinstance(node, ast.Call) and "check_state" in (
                        getattr(node.func, "attr", None),
                        getattr(node.func, "id", None)):
                    calls.append((node.lineno, owner))
    return calls


def test_finds_check_state_calls():
    assert _check_state_calls(
        "def f(s):\n    s.check_state(1, 2)\nclass A:\n    def g(self):\n"
        "        check_state(3)\n    x = check_state(4)\n"
        "check_state(5)\nclass B:\n    check_state = 1\n") == [
            (2, "f"), (5, "A.g"), (6, "A"), (7, None)]


def test_only_the_recorder_checks_a_runs_snapshots():
    # a run's snapshots are checked against its bounds in one place, a
    # block at a time; the scenario checks the initial state it builds
    stray, owners = [], set()
    for module in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, module)) as fh:
            for line, owner in _check_state_calls(fh.read()):
                if (module, owner) in (("solver.py", "_Recorder.flush"),
                                       ("scenario.py",
                                        "Scenario.initial_state")):
                    owners.add(owner)
                else:
                    stray.append(f"{module}:{line}")
    assert stray == []
    assert owners == {"_Recorder.flush", "Scenario.initial_state"}


def _test_names(source):
    """(line, name) of each function whose name starts with test_."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("test_")]


def test_test_names_are_ascii():
    # pytest -k and a search for the name find a test only by its letters
    tests = os.path.dirname(os.path.abspath(__file__))
    stray = []
    for module in sorted(f for f in os.listdir(tests) if f.endswith(".py")):
        with open(os.path.join(tests, module), encoding="utf-8") as fh:
            stray += [f"{module}:{line} {name}"
                      for line, name in _test_names(fh.read())
                      if not name.isascii()]
    assert stray == []
