"""Directed pipe-network topology, vertex classification and file format.

A network is a connected directed graph whose edges carry pipe
parameters.  Vertices of degree one are boundary vertices (they receive
boundary data); all others are interior junctions, including degree-two
pass-through vertices, which get the full coupling treatment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gas import PipeParameters


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    name: str
    start: str
    end: str
    params: PipeParameters

    def __post_init__(self):
        if self.start == self.end:
            raise TopologyError(f"edge {self.name!r} must have distinct endpoints")


@dataclass(frozen=True)
class VertexClass:
    interior: frozenset
    boundary: frozenset


class NetworkTopology:
    """Finite connected directed graph of pipes."""

    def __init__(self, edges, vertices=None, name="network"):
        edges = tuple(edges)
        if not edges:
            raise TopologyError("a network needs at least one edge")
        names = [e.name for e in edges]
        if len(set(names)) != len(names):
            raise TopologyError("edge names must be unique")
        self.name = name
        self.edges = edges
        seen = []
        for e in edges:
            for v in (e.start, e.end):
                if v not in seen:
                    seen.append(v)
        declared = list(vertices) if vertices is not None else seen
        for v in seen:
            if v not in declared:
                raise TopologyError(f"edge endpoint {v!r} not declared as a vertex")
        self.vertices = tuple(declared)
        self._adjacency = {v: tuple(e for e in edges if v in (e.start, e.end))
                           for v in self.vertices}
        self._validate()

    def _validate(self):
        for v, adj in self._adjacency.items():
            if not adj:
                raise TopologyError(f"vertex {v!r} is isolated")
        # connectivity by breadth-first search over the undirected graph
        todo = [self.vertices[0]]
        reached = {self.vertices[0]}
        while todo:
            v = todo.pop()
            for e in self._adjacency[v]:
                other = e.end if e.start == v else e.start
                if other not in reached:
                    reached.add(other)
                    todo.append(other)
        if reached != set(self.vertices):
            missing = sorted(set(self.vertices) - reached)
            raise TopologyError(f"network is not connected; unreachable: {missing}")
        eps = {e.params.epsilon for e in self.edges}
        if len(eps) > 1:
            raise TopologyError("all pipes must share the same epsilon")

    @property
    def epsilon(self):
        return self.edges[0].params.epsilon

    def with_epsilon(self, epsilon):
        new_edges = [replace(e, params=replace(e.params, epsilon=epsilon))
                     for e in self.edges]
        return NetworkTopology(new_edges, vertices=self.vertices, name=self.name)

    def with_friction_offset(self, offset):
        """Shift every friction profile by a constant (for perturbation runs)."""
        new_edges = []
        for e in self.edges:
            fr = e.params.friction
            if isinstance(fr, tuple):
                fr = tuple((x, y + offset) for x, y in fr)
            else:
                fr = fr + offset
            new_edges.append(replace(e, params=replace(e.params, friction=fr)))
        return NetworkTopology(new_edges, vertices=self.vertices, name=self.name)

    def edges_at(self, vertex):
        try:
            return self._adjacency[vertex]
        except KeyError:
            raise TopologyError(f"unknown vertex {vertex!r}") from None

    def degree(self, vertex):
        return len(self.edges_at(vertex))


def incidence(vertex, edge):
    """+1 if the edge ends at the vertex, -1 if it starts there, else 0."""
    if edge.end == vertex:
        return 1
    if edge.start == vertex:
        return -1
    return 0


def classify(topology):
    """Split vertices into interior (degree > 1) and boundary (degree 1)."""
    interior = frozenset(v for v in topology.vertices if topology.degree(v) > 1)
    boundary = frozenset(v for v in topology.vertices if topology.degree(v) == 1)
    return VertexClass(interior=interior, boundary=boundary)


def boundary_data_error(topology, vertex):
    """Why boundary data cannot be given at vertex, or None if they can:
    only degree-one vertices take them."""
    if vertex not in topology.vertices:
        return f"unknown boundary vertex {vertex!r}"
    if topology.degree(vertex) != 1:
        return (f"vertex {vertex!r} has degree {topology.degree(vertex)}; "
                "boundary data go on degree-one vertices only")
    return None


# ---------------------------------------------------------------------------
# convenience builders

def single_pipe(length=1.0, name="pipe", **params):
    edge = Edge(name, "inlet", "outlet", PipeParameters(length=length, **params))
    return NetworkTopology([edge], name="single-pipe")


def loop_network(length=1.0, n_edges=2, **params):
    """Closed loop of pipes; every vertex is interior, no boundary data."""
    if n_edges < 2:
        raise TopologyError("a loop needs at least two edges")
    verts = [f"n{i}" for i in range(n_edges)]
    edges = [Edge(f"seg{i}", verts[i], verts[(i + 1) % n_edges],
                  PipeParameters(length=length, **params))
             for i in range(n_edges)]
    return NetworkTopology(edges, name="loop")


def y_network(length=1.0, **params):
    """One feed pipe splitting into two branches at a single junction."""
    p = PipeParameters(length=length, **params)
    edges = [
        Edge("feed", "inlet", "junction", p),
        Edge("branch_a", "junction", "outlet_a", p),
        Edge("branch_b", "junction", "outlet_b", p),
    ]
    return NetworkTopology(edges, name="y-network")


# ---------------------------------------------------------------------------
# plain-text topology files

def _format_profile(spec):
    if isinstance(spec, tuple):
        return ", ".join(f"{x:.17g}:{y:.17g}" for x, y in spec)
    return f"{spec:.17g}"


def _parse_profile(text, where):
    text = text.strip()
    if ":" not in text:
        try:
            return float(text)
        except ValueError:
            raise TopologyError(f"{where}: cannot parse profile {text!r}") from None
    pts = []
    for item in text.split(","):
        try:
            x, y = item.split(":")
            pts.append((float(x), float(y)))
        except ValueError:
            raise TopologyError(f"{where}: cannot parse breakpoint {item!r}") from None
    return tuple(pts)


def format_topology(topology, boundary_defaults=None):
    """Serialize a topology to the plain-text format parsed below."""
    lines = ["[vertices]"]
    lines += list(topology.vertices)
    for e in topology.edges:
        p = e.params
        lines += [
            "",
            f"[edge {e.name}]",
            f"from = {e.start}",
            f"to = {e.end}",
            f"length = {p.length:.17g}",
            f"area = {_format_profile(p.area)}",
            f"friction = {_format_profile(p.friction)}",
            f"elevation = {_format_profile(p.elevation)}",
            f"gravity = {p.gravity:.17g}",
        ]
    for v, value in (boundary_defaults or {}).items():
        lines += ["", f"[boundary {v}]", f"h = {value:.17g}"]
    return "\n".join(lines) + "\n"


_EDGE_KEYS = ("from", "to", "length", "area", "friction", "elevation", "gravity")


def parse_topology(text, epsilon=1.0, name="network"):
    """Parse the plain-text topology format.

    Returns (topology, boundary_defaults) where boundary_defaults maps
    boundary vertex names to constant enthalpy values when the file
    declares them.
    """
    vertices = []
    edge_specs = []
    boundary = {}
    boundary_lines = {}
    section = None
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise TopologyError(f"{where}: malformed section header {line!r}")
            header = line[1:-1].split()
            if header[0] == "vertices":
                section = "vertices"
            elif header[0] == "edge":
                if len(header) != 2:
                    raise TopologyError(f"{where}: edge section needs a name")
                current = {"name": header[1], "line": lineno}
                edge_specs.append(current)
                section = "edge"
            elif header[0] == "boundary":
                if len(header) != 2:
                    raise TopologyError(f"{where}: boundary section needs a vertex")
                current = {"vertex": header[1]}
                boundary_lines[header[1]] = lineno
                section = "boundary"
            else:
                raise TopologyError(f"{where}: unknown section {header[0]!r}")
            continue
        if section == "vertices":
            vertices.append(line)
        elif section in ("edge", "boundary"):
            if "=" not in line:
                raise TopologyError(f"{where}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if section == "edge":
                if key not in _EDGE_KEYS:
                    raise TopologyError(f"{where}: unknown key {key!r} in "
                                        f"[edge {current['name']}]")
                current[key] = value
            else:
                if key != "h":
                    raise TopologyError(f"{where}: boundary sections only take 'h'")
                boundary[current["vertex"]] = float(value)
        else:
            raise TopologyError(f"{where}: content outside any section")
    edges = []
    for spec in edge_specs:
        where = f"edge {spec['name']} (line {spec['line']})"
        for key in ("from", "to", "length"):
            if key not in spec:
                raise TopologyError(f"{where}: missing {key!r}")
        params = PipeParameters(
            length=float(spec["length"]),
            area=_parse_profile(spec.get("area", "1"), where),
            friction=_parse_profile(spec.get("friction", "1"), where),
            elevation=_parse_profile(spec.get("elevation", "0"), where),
            gravity=float(spec.get("gravity", 1.0)),
            epsilon=epsilon,
        )
        edges.append(Edge(spec["name"], spec["from"], spec["to"], params))
    topo = NetworkTopology(edges, vertices=vertices or None, name=name)
    for vertex, lineno in boundary_lines.items():
        error = boundary_data_error(topo, vertex)
        if error:
            raise TopologyError(f"line {lineno}: {error}")
    return topo, boundary


def load_topology(path, epsilon=1.0):
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_topology(text, epsilon=epsilon, name=str(path))
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from exc
