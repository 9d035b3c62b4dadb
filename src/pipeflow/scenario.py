"""Scenario and topology files, manifests and output writers.

Both input formats are plain-text files of key-value sections, read by
one section reader.  A scenario gives the model, topology, initial and
boundary data and solver setup; its topology is included from a
topology file or taken from the built-in families.  Boundary sections
give one constant or piecewise-linear schedule per boundary vertex.
Parsing is line-anchored: every error message carries the file and line
it came from, and a repeated section or key is an error.
"""

from __future__ import annotations

import ast
import marshal
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import network as net
from .discretization import NetworkState, build_system
from .gas import (LAW_KEYS, AdmissibleBounds, PipeParameters, law_kind,
                  make_law)
from .solver import SolverConfig, limit_flow


class ConfigError(ValueError):
    pass


_EXPR_ENV = {
    "pi": np.pi, "e": np.e, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "tanh": np.tanh,
    "abs": np.abs, "minimum": np.minimum, "maximum": np.maximum,
}


# the grammar of [initial] expressions: numbers, x, L and the names of
# _EXPR_ENV, + - * / **, unary + and -, and calls of the functions of
# _EXPR_ENV with their number of positional arguments (a further one
# would be the ufunc's output array)
_EXPR_NAMES = {"x", "L", *_EXPR_ENV}
_EXPR_FUNCTIONS = {name: value.nin for name, value in _EXPR_ENV.items()
                   if isinstance(value, np.ufunc)}
_EXPR_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_EXPR_UNARY = (ast.UAdd, ast.USub)


def _check_names(tree):
    """Every identifier of the expression, attribute names included, in
    source order, must be a name of the grammar."""
    names = sorted((node.end_lineno, node.end_col_offset,
                    node.id if isinstance(node, ast.Name) else node.attr)
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))
    for *_, name in names:
        if name not in _EXPR_NAMES:
            raise ValueError(f"unknown name {name!r}")


def _checked_tree(node):
    """The expression node, its names already checked, with every number
    a float constant, so that ``**`` cannot build huge integers;
    ValueError names the first node outside the grammar."""
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):
            raise ValueError(f"{type(node.value).__name__} constant "
                             f"{node.value!r} not allowed")
        try:
            value = float(node.value)
        except OverflowError:
            raise ValueError("integer constant too large") from None
        return ast.copy_location(ast.Constant(value), node)
    if isinstance(node, ast.Name):
        return node
    if isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_BINARY):
        node.left = _checked_tree(node.left)
        node.right = _checked_tree(node.right)
        return node
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _EXPR_UNARY):
        node.operand = _checked_tree(node.operand)
        return node
    if isinstance(node, ast.Call):
        func = _checked_tree(node.func)
        if not (isinstance(func, ast.Name) and func.id in _EXPR_FUNCTIONS):
            raise ValueError(f"only {', '.join(sorted(_EXPR_FUNCTIONS))} "
                             "can be called")
        if node.keywords:
            raise ValueError("keyword argument not allowed")
        node.args = [_checked_tree(arg) for arg in node.args]
        if len(node.args) != _EXPR_FUNCTIONS[func.id]:
            raise ValueError(f"{func.id} takes {_EXPR_FUNCTIONS[func.id]} "
                             f"argument(s), not {len(node.args)}")
        return node
    kind = type(getattr(node, "op", node)).__name__
    raise ValueError(f"{kind} not allowed")


def _compile_expression(expr):
    """Compile a profile expression after checking it against the
    grammar above; ValueError says what is wrong."""
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError) as exc:  # ValueError: a null byte
        raise ValueError(f"cannot parse: {getattr(exc, 'msg', exc)}") from None
    except RecursionError:
        raise ValueError("cannot parse: nested too deeply") from None
    try:
        _check_names(tree)
        tree.body = _checked_tree(tree.body)
        return compile(ast.fix_missing_locations(tree), "<expression>", "eval")
    except RecursionError:
        raise ValueError("nested too deeply") from None


def eval_profile_expression(expr, x, length):
    """Evaluate an initial-profile expression of x (and pipe length L)."""
    env = dict(_EXPR_ENV)
    env.update({"x": x, "L": length})
    try:
        value = eval(_compile_expression(expr), {"__builtins__": {}}, env)
    except Exception as exc:
        raise ConfigError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    return np.broadcast_to(np.asarray(value, dtype=float), np.shape(x)).copy()


def _check_expression(section, key, path):
    """Check the profile expression under ``key`` against the grammar."""
    expr = section[key]
    try:
        _compile_expression(expr)
    except ValueError as exc:
        raise ConfigError(f"{path}:{section.lines[key]}: {exc} in "
                          f"{key} = {expr!r}") from None


class _Section(dict):
    """Key-value section remembering the source line of every key and
    which keys the parser has read."""

    def __init__(self, name, lineno):
        super().__init__()
        self.name = name
        self.lineno = lineno
        self.lines = {}
        self.read = set()

    def set(self, key, value, lineno):
        self[key] = value
        self.lines[key] = lineno

    def check_read(self, path):
        for key in self:
            if key not in self.read:
                raise ConfigError(f"{path}:{self.lines[key]}: unknown or unused "
                                  f"key {key!r} in [{self.name}]")


def _parse_sections(text, path, bare=()):
    """The sections of a file by name, in file order.  Sections named in
    ``bare`` hold one entry per line (stored as keys with empty values);
    all others hold 'key = value' lines.  A repeated section or key is
    an error."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{where}: malformed section header")
            name = " ".join(line[1:-1].split())
            if name in sections:
                raise ConfigError(f"{where}: duplicate section [{name}]")
            current = sections[name] = _Section(name, lineno)
            continue
        if current is None:
            raise ConfigError(f"{where}: content before any section")
        if current.name in bare:
            key, value = line, ""
        elif "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        else:
            key, value = (s.strip() for s in line.split("=", 1))
        if key in current:
            raise ConfigError(f"{where}: duplicate {key!r} in [{current.name}]")
        current.set(key, value, lineno)
    return sections


def _section_arg(section, what, path):
    """The <what> named in a '[kind <what>]' section header."""
    kind, _, arg = section.name.partition(" ")
    if not arg or " " in arg:
        raise ConfigError(f"{path}:{section.lineno}: {kind} section needs a "
                          f"{what}: [{kind} <{what}>]")
    return arg


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _get(section, key, cast, default=None, path="", required=False):
    section.read.add(key)
    if key not in section:
        if required:
            raise ConfigError(f"{path}:{section.lineno}: section "
                              f"[{section.name}] needs {key!r}")
        return default
    raw = section[key]
    try:
        if cast is bool:
            return _BOOLEANS[raw.strip().lower()]
        value = cast(raw)
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"{path}:{section.lines[key]}: cannot parse "
                          f"{key} = {raw!r}") from None
    if cast in (float, _breakpoints) and not np.isfinite(value).all():
        raise ConfigError(f"{path}:{section.lines[key]}: {key} = {raw!r} is "
                          "not finite")
    return value


def _given(section, casts, path):
    """The optional keys of (key, cast) pairs that the section gives."""
    values = {key: _get(section, key, cast, path=path) for key, cast in casts}
    return {key: value for key, value in values.items() if value is not None}


@contextmanager
def _at(path, lineno):
    """Report a ValueError or OSError of the model's constructors as a
    ConfigError at path:lineno."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{path}:{lineno}: {exc}") from exc


def _breakpoints(text):
    """A number, or piecewise-linear breakpoints 'a:b, a:b, ...' as a
    tuple of (a, b) pairs."""
    if ":" not in text:
        return float(text)
    points = []
    for item in text.split(","):
        a, b = item.split(":")
        points.append((float(a), float(b)))
    return tuple(points)


def _schedule(spec, where):
    """Boundary value as a function of tau: a constant, or linear between
    (time, value) breakpoints with increasing times."""
    if not isinstance(spec, tuple):
        return lambda tau, v=spec: v
    ts, vs = (np.array(column) for column in zip(*spec))
    if np.any(np.diff(ts) <= 0):
        raise ConfigError(f"{where}: schedule times must increase")
    return lambda tau: float(np.interp(tau, ts, vs))


def _boundary_vertex(section, topology, path):
    """The vertex of a [boundary <vertex>] section, in scenario and
    topology files alike: only degree-one vertices take boundary data."""
    vertex = _section_arg(section, "vertex", path)
    where = f"{path}:{section.lineno}"
    if vertex not in topology.vertices:
        raise ConfigError(f"{where}: unknown boundary vertex {vertex!r}")
    degree = topology.degree(vertex)
    if degree != 1:
        raise ConfigError(f"{where}: vertex {vertex!r} has degree {degree}; "
                          "boundary data go on degree-one vertices only")
    return vertex


# ---------------------------------------------------------------------------
# topology files

def _edge(section, path):
    name = _section_arg(section, "name", path)
    start = _get(section, "from", str, path=path, required=True)
    end = _get(section, "to", str, path=path, required=True)
    length = _get(section, "length", float, path=path, required=True)
    params = _given(section, (("area", _breakpoints), ("friction", _breakpoints),
                              ("elevation", _breakpoints), ("gravity", float)),
                    path)
    section.check_read(path)
    with _at(path, section.lineno):
        return net.Edge(name, start, end,
                        PipeParameters(length=length, **params))


def parse_topology(text, path="<string>"):
    """Parse the plain-text topology format.

    Returns (topology, boundary_defaults) where boundary_defaults maps
    boundary vertex names to constant enthalpy values when the file
    declares them.
    """
    sections = _parse_sections(text, path, bare=("vertices",))
    vertices = sections.pop("vertices", _Section("vertices", 1))
    edges, boundary_sections = [], []
    for sec in sections.values():
        kind = sec.name.partition(" ")[0]
        if kind == "edge":
            edges.append(_edge(sec, path))
        elif kind == "boundary":
            boundary_sections.append(sec)
        else:
            raise ConfigError(f"{path}:{sec.lineno}: unknown section [{sec.name}]")
    with _at(path, vertices.lineno):
        topology = net.NetworkTopology(edges, vertices=list(vertices) or None,
                                       name=path)
    boundary = {}
    for sec in boundary_sections:
        vertex = _boundary_vertex(sec, topology, path)
        boundary[vertex] = _get(sec, "h", float, path=path, required=True)
        sec.check_read(path)
    return topology, boundary


def load_topology(path):
    with open(path) as fh:
        text = fh.read()
    return parse_topology(text, path=str(path))


@dataclass
class InitialSpec:
    """One initial-state source and the line of its first key."""

    rho: str = "1.0"
    w: str = "0.0"
    rest_enthalpy: float | None = None
    file: str | None = None
    line: int = 0


@dataclass
class Scenario:
    """Fully resolved experiment description."""

    topology: net.NetworkTopology
    law: object
    cells_per_edge: int
    initial: InitialSpec
    boundary: dict
    solver: SolverConfig
    epsilon: float = 1.0
    bounds: AdmissibleBounds | None = None
    output_dir: str | None = None
    output_format: str = "csv"
    name: str = "scenario"
    source: str = "<memory>"
    law_spec: dict = field(default_factory=dict)

    def with_friction_offset(self, offset):
        return replace(self, topology=self.topology.with_friction_offset(offset))

    def build_system(self):
        return build_system(self.topology, cells_per_edge=self.cells_per_edge,
                            law=self.law, epsilon=self.epsilon)

    def initial_state(self, system):
        """Build the initial state; w = 'recover' uses the limit-model
        velocity consistent with the initial density and boundary data.
        Any source failing to load, to be positive and finite or to lie in
        [bounds] is a ConfigError at the source's line."""
        with _at(self.source, self.initial.line):
            if self.initial.file is not None:
                state = self._initial_from_file(system)
            elif self.initial.rest_enthalpy is not None:
                state = system.rest_state(self.initial.rest_enthalpy)
            else:
                state = self._initial_from_expressions(system)
            state.validate()
            if self.bounds is not None:
                kinds = system.check_state(state, self.bounds)
                if kinds:
                    raise ValueError("initial state violates the admissible "
                                     f"bounds ({', '.join(kinds)})")
        return state

    def _initial_from_expressions(self, system):
        rho = np.empty(system.n_cells)
        w = np.empty(system.n_faces)
        recover = self.initial.w.strip().lower() == "recover"
        for e in self.topology.edges:
            cells = system.edge_cells(e.name)
            faces = system.edge_faces(e.name)
            xc = system.x_cells[cells]
            xf = system.x_faces[faces]
            rho[cells] = eval_profile_expression(self.initial.rho, xc,
                                                 e.params.length)
            if not recover:
                w[faces] = eval_profile_expression(self.initial.w, xf,
                                                   e.params.length)
        if recover:
            values = {v: (s(0.0) if callable(s) else float(s))
                      for v, s in self.boundary.items()}
            w, _ = limit_flow(system, rho, values)
        return NetworkState(0.0, rho, w)

    def _initial_from_file(self, system):
        path = self.initial.file
        if not os.path.isabs(path):
            path = os.path.join(os.path.dirname(self.source) or ".", path)
        try:
            data = np.load(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read initial state file {path!r}: "
                             f"{exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"initial state file {path!r} is not an .npz "
                             "archive")
        with data:
            if not {"rho", "w"} <= set(data.files):
                raise ValueError(f"initial state file {path!r} holds "
                                 f"{data.files}, not rho and w")
            rho, w = (np.asarray(data[k], dtype=float) for k in ("rho", "w"))
        if rho.shape != (system.n_cells,) or w.shape != (system.n_faces,):
            raise ValueError(
                f"initial state file {path!r} has shapes "
                f"{rho.shape}/{w.shape}; the grid needs "
                f"({system.n_cells},)/({system.n_faces},)")
        return NetworkState(0.0, rho, w)

    def check_boundary_complete(self):
        missing = [v for v in net.classify(self.topology).boundary
                   if v not in self.boundary]
        if missing:
            raise ConfigError(f"{self.source}: missing boundary schedule for "
                              f"vertex {missing[0]!r}")

    def manifest(self, extra=None):
        """All resolved parameters as sorted 'key = value' lines."""
        items = {
            "scenario.name": self.name,
            "scenario.source": self.source,
            "model.epsilon": self.epsilon,
            "model.law": self.law.kind,
            "grid.cells_per_edge": self.cells_per_edge,
            "solver.scheme": self.solver.scheme,
            "solver.dt": self.solver.dt,
            "solver.t_final": self.solver.t_final,
            "solver.newton_tol": self.solver.newton_tol,
            "solver.max_iter": self.solver.max_iter,
            "solver.parabolic": self.solver.parabolic,
            "topology.edges": ",".join(e.name for e in self.topology.edges),
            "topology.vertices": ",".join(self.topology.vertices),
        }
        for k, v in self.law_spec.items():
            items[f"model.{k}"] = v
        for e in self.topology.edges:
            p = e.params
            items[f"edge.{e.name}"] = (f"{e.start}->{e.end} length={p.length} "
                                       f"area={p.area} friction={p.friction} "
                                       f"elevation={p.elevation} gravity={p.gravity}")
        if self.bounds is not None:
            b = self.bounds
            items["bounds"] = (f"rho=[{b.rho_min},{b.rho_max}] w<={b.w_max} "
                               f"eps<={b.eps_max} a=[{b.area_min},{b.area_max}] "
                               f"gamma=[{b.friction_min},{b.friction_max}]")
        items.update(extra or {})
        lines = [f"{k} = {items[k]}" for k in sorted(items)]
        return "\n".join(lines) + "\n"


_BUILTIN_TOPOLOGIES = {
    "single-pipe": net.single_pipe,
    "y-network": net.y_network,
    "loop": net.loop_network,
}


def _build_topology(section, base_dir, path):
    include = _get(section, "include", str, path=path)
    if include is not None:
        topo_path = os.path.join(base_dir, include)
        if not os.path.exists(topo_path):
            raise ConfigError(f"{path}:{section.lines['include']}: topology "
                              f"file {topo_path!r} not found")
        return load_topology(topo_path)
    builtin = _get(section, "builtin", str, path=path, required=True)
    if builtin not in _BUILTIN_TOPOLOGIES:
        raise ConfigError(f"{path}:{section.lines['builtin']}: unknown builtin "
                          f"topology {builtin!r} (choose from "
                          f"{sorted(_BUILTIN_TOPOLOGIES)})")
    kwargs = _given(section, (("length", float), ("area", float),
                              ("friction", float), ("gravity", float),
                              ("n_edges", int), ("elevation", _breakpoints)), path)
    with _at(path, section.lineno):
        return _BUILTIN_TOPOLOGIES[builtin](**kwargs), {}


def parse_scenario(text, path="<string>"):
    base_dir = os.path.dirname(path) if os.path.dirname(path) else "."
    sections = _parse_sections(text, path)
    boundary_sections = [sections.pop(header) for header in list(sections)
                         if header.partition(" ")[0] == "boundary"]
    taken = list(boundary_sections)

    def take(name):
        """The named section (empty if absent); sections never taken are
        reported as unknown."""
        sec = sections.pop(name, None)
        if sec is None:
            return _Section(name, 0)
        taken.append(sec)
        return sec

    if "model" not in sections:
        raise ConfigError(f"{path}:1: missing [model] section")
    model = take("model")
    epsilon = _get(model, "epsilon", float, default=1.0, path=path)
    if epsilon < 0.0:
        raise ConfigError(f"{path}:{model.lines['epsilon']}: epsilon must be "
                          "nonnegative")
    law_name = _get(model, "law", str, default="isothermal", path=path)
    with _at(path, model.lineno):
        kind = law_kind(law_name)
    for key in model:  # in file order
        if key not in LAW_KEYS[kind] and any(key in keys for keys in
                                             LAW_KEYS.values()):
            raise ConfigError(f"{path}:{model.lines[key]}: {key!r} is not a "
                              f"parameter of the {kind} law")
    law_kwargs = _given(model, (("sound_speed", float), ("kappa", float),
                                ("exponent", float)), path)
    table = _get(model, "table", str, path=path)
    if table is not None:
        law_kwargs["table"] = os.path.join(base_dir, table)
    with _at(path, model.lineno):
        law = make_law(kind, **law_kwargs)

    if "topology" not in sections:
        raise ConfigError(f"{path}:1: missing [topology] section")
    topology, boundary_defaults = _build_topology(take("topology"), base_dir,
                                                  path)

    grid = take("grid")
    cells = _get(grid, "cells_per_edge", int, default=32, path=path)
    if cells < 2:
        raise ConfigError(f"{path}:{grid.lines.get('cells_per_edge', 0)}: "
                          "need at least two cells per edge")

    init_sec = take("initial")
    # rho/w, rest and file are exclusive: a second source fails at its key
    sources = {"rho": "rho/w", "w": "rho/w", "rest": "rest", "file": "file"}
    given = sorted((line, key) for key, line in init_sec.lines.items()
                   if key in sources)
    for line, key in given:
        if sources[key] != sources[given[0][1]]:
            raise ConfigError(f"{path}:{line}: [initial] takes one source, "
                              f"rho/w, rest or file: {key!r} follows "
                              f"{given[0][1]!r}")
    initial = InitialSpec(
        rho=_get(init_sec, "rho", str, default="1.0", path=path),
        w=_get(init_sec, "w", str, default="0.0", path=path),
        rest_enthalpy=_get(init_sec, "rest", float, path=path),
        file=_get(init_sec, "file", str, path=path),
        line=given[0][0] if given else init_sec.lineno,
    )
    for key in ("rho", "w"):
        if key in init_sec and not (key == "w" and initial.w.strip().lower()
                                    == "recover"):
            _check_expression(init_sec, key, path)

    boundary = {v: (lambda tau, _v=val: _v)
                for v, val in boundary_defaults.items()}
    for sec in boundary_sections:
        vertex = _boundary_vertex(sec, topology, path)
        key = "h" if "h" in sec else "table"
        if key not in sec:
            raise ConfigError(f"{path}:{sec.lineno}: boundary section for "
                              f"{vertex!r} needs 'h = ...' or 'table = ...'")
        spec = _get(sec, key, _breakpoints, path=path)
        boundary[vertex] = _schedule(spec, f"{path}:{sec.lines[key]}")

    sol = take("solver")
    with _at(path, sol.lineno):
        solver = SolverConfig(
            dt=_get(sol, "dt", float, default=1e-3, path=path),
            t_final=_get(sol, "t_final", float, default=1.0, path=path),
            scheme=_get(sol, "scheme", str, default="midpoint", path=path),
            newton_tol=_get(sol, "newton_tol", float, default=1e-11, path=path),
            max_iter=_get(sol, "max_iter", int, default=30, path=path),
            parabolic=_get(sol, "parabolic", bool, default=False, path=path),
        )

    bounds = None
    if "bounds" in sections:
        bsec = take("bounds")
        with _at(path, bsec.lineno):
            bounds = AdmissibleBounds(
                rho_min=_get(bsec, "rho_min", float, path=path, required=True),
                rho_max=_get(bsec, "rho_max", float, path=path, required=True),
                w_max=_get(bsec, "w_max", float, path=path, required=True),
                eps_max=_get(bsec, "eps_max", float, path=path, required=True),
                area_min=_get(bsec, "area_min", float, default=1.0, path=path),
                area_max=_get(bsec, "area_max", float, default=1.0, path=path),
                friction_min=_get(bsec, "friction_min", float, default=1.0,
                                  path=path),
                friction_max=_get(bsec, "friction_max", float, default=1.0,
                                  path=path),
                gz_max=_get(bsec, "gz_max", float, default=0.0, path=path),
            )
            bounds.subsonic_margin(law)  # the law must cover [rho_min, rho_max]

    out = take("output")
    output_dir = _get(out, "dir", str, path=path)
    output_format = _get(out, "format", str, default="csv", path=path)
    if output_format not in ("csv", "npz"):
        raise ConfigError(f"{path}:{out.lines.get('format', 0)}: output format "
                          "must be csv or npz")
    for sec in sections.values():
        raise ConfigError(f"{path}:{sec.lineno}: unknown section [{sec.name}]")
    for sec in taken:
        sec.check_read(path)

    scenario = Scenario(
        topology=topology, law=law, cells_per_edge=cells, initial=initial,
        boundary=boundary, solver=solver, epsilon=epsilon, bounds=bounds,
        output_dir=output_dir, output_format=output_format,
        name=os.path.splitext(os.path.basename(path))[0],
        source=path, law_spec={"law": law_name, **law_kwargs},
    )
    scenario.check_boundary_complete()
    return scenario


def load_scenario(path):
    with open(path) as fh:
        text = fh.read()
    return parse_scenario(text, path=path)


# ---------------------------------------------------------------------------
# output writers

def write_manifest(path, scenario, extra=None):
    with open(path, "w") as fh:
        fh.write(scenario.manifest(extra=extra))


def _row_pieces(system, x, block):
    """The constant parts of a snapshot table's rows: a leading empty
    piece, then ',edge,node,x,%.12g,%.12g\n' per row, edges in topology
    order.  Joined on a snapshot's tau text and %-formatted with its two
    value columns interleaved, they are the snapshot's rows.  A '%' in an
    edge name is doubled, so the name comes out as written."""
    pieces = [""]
    for e in system.topology.edges:
        name = e.name.replace("%", "%%")
        pieces += [f",{name},{i},{xi:.12g},%.12g,%.12g\n"
                   for i, xi in enumerate(x[block(e.name)].tolist())]
    return pieces


# The face table's writer, run by a bare interpreter beside the process
# that writes the cell table.  Its stdin carries a length-prefixed marshal
# header (path, encoding, header line, row pieces, doubles per snapshot),
# then per snapshot tau and the (w, m) pairs as native doubles; the rows
# are formatted as the cell rows are.  A short block fails the format.
_FACE_TABLE_WRITER = """\
import marshal, sys
from array import array
read = sys.stdin.buffer.read
path, encoding, header, pieces, count = marshal.loads(
    read(int.from_bytes(read(8), "little")))
with open(path, "w", encoding=encoding) as fh:
    fh.write(header)
    while block := read(8 * (1 + count)):
        values = array("d", block)
        fh.write(f"{values[0]:.12g}".join(pieces) % tuple(values[1:]))
"""


def _write_all(pipe, data):
    """Write all of data to an unbuffered pipe, whose writes may be short."""
    view = memoryview(data)
    while view:
        view = view[pipe.write(view):]


def write_trajectory(directory, system, trajectory, fmt="csv"):
    """Snapshot tables: cell rows (tau, edge, node, x, rho, h) and face
    rows (tau, edge, node, x, w, m), numbers as %.12g; per snapshot the
    rows run through the edges in topology order, then the node index.
    ``fmt="npz"`` writes the arrays instead.

    This process writes the cell table.  A second interpreter, started
    for the call and ended before it returns, formats and writes the face
    table from the doubles this process sends it, so the two tables are
    formatted on two cores.  An OSError naming the face table reports
    that writer's failure."""
    if fmt not in ("csv", "npz"):
        raise ValueError(f"unknown trajectory format {fmt!r}: use csv or npz")
    os.makedirs(directory, exist_ok=True)
    if fmt == "npz":
        np.savez_compressed(
            os.path.join(directory, "states.npz"),
            times=np.asarray(trajectory.times),
            rho=trajectory.rho_array(),
            w=trajectory.w_array(),
            x_cells=system.x_cells,
            x_faces=system.x_faces,
            edges=np.array([e.name for e in system.topology.edges]),
        )
        return
    import subprocess  # 5-10 ms of every start if imported at the top

    # edges own consecutive cell and face blocks in topology order, so the
    # rows of a snapshot follow the flat arrays; one snapshot's text at a
    # time is formatted in C and written
    cell_rows = _row_pieces(system, system.x_cells, system.edge_cells)
    face_rows = _row_pieces(system, system.x_faces, system.edge_faces)
    cells_path = os.path.join(directory, "states_cells.csv")
    faces_path = os.path.join(directory, "states_faces.csv")
    with open(cells_path, "w") as fc, subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _FACE_TABLE_WRITER],
            stdin=subprocess.PIPE, stderr=subprocess.PIPE,
            bufsize=0) as faces:
        header = marshal.dumps((faces_path, fc.encoding,
                                "tau,edge,node,x,w,m\n", face_rows,
                                2 * system.n_faces))
        try:
            _write_all(faces.stdin, len(header).to_bytes(8, "little") + header)
            fc.write("tau,edge,node,x,rho,h\n")
            for state in trajectory.states:
                h, m = system.costate(state)
                _write_all(faces.stdin, np.float64(state.tau).tobytes()
                           + np.column_stack((state.w, m)).tobytes())
                fc.write(f"{state.tau:.12g}".join(cell_rows)
                         % tuple(np.column_stack((state.rho, h)).ravel()
                                 .tolist()))
            faces.stdin.close()
        except BrokenPipeError:
            pass  # the writer has ended: its stderr and status say why
        reason = faces.stderr.read().decode(errors="replace").splitlines()
        if faces.wait():
            raise OSError(f"cannot write {faces_path}: "
                          + (reason[-1] if reason else
                             "its writer exited with status "
                             f"{faces.returncode}"))


def write_energy_trace(path, trajectory):
    """One row per snapshot, with the Newton iterations and LU
    factorizations of the step that produced it (0 on the initial row)."""
    iterations = [0] + trajectory.iterations
    factorizations = [0] + trajectory.factorizations
    with open(path, "w") as fh:
        fh.write("tau,energy,dissipation,boundary_flux,balance_residual,"
                 "iterations,factorizations\n")
        for r, it, lu in zip(trajectory.reports, iterations, factorizations,
                             strict=True):
            fh.write(f"{r.tau:.12g},{r.energy:.15g},{r.dissipation:.15g},"
                     f"{r.boundary_flux:.15g},{r.balance_residual:.6g},"
                     f"{it:d},{lu:d}\n")
