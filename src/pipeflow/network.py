"""Directed pipe-network topology and vertex classification.

A network is a connected directed graph whose edges carry pipe
parameters.  Vertices of degree one are boundary vertices (they receive
boundary data); all others are interior junctions, including degree-two
pass-through vertices, which get the full coupling treatment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
        # the snapshot tables are comma-separated rows with a column of
        # edge names
        if any(c in self.name for c in ",\n\r"):
            raise TopologyError(f"edge name {self.name!r} contains a comma "
                                "or a line break")
        if self.start == self.end:
            raise TopologyError(f"edge {self.name!r} must have distinct endpoints")


@dataclass(frozen=True)
class VertexClass:
    interior: frozenset
    boundary: frozenset


class NetworkTopology:
    """Finite connected directed graph of pipes (epsilon is the system's)."""

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
        if len(set(declared)) != len(declared):
            raise TopologyError("vertex names must be unique")
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


def classify(topology):
    """Split vertices into interior (degree > 1) and boundary (degree 1)."""
    interior = frozenset(v for v in topology.vertices if topology.degree(v) > 1)
    boundary = frozenset(v for v in topology.vertices if topology.degree(v) == 1)
    return VertexClass(interior=interior, boundary=boundary)


# ---------------------------------------------------------------------------
# convenience builders

def single_pipe(length=1.0, **params):
    edge = Edge("pipe", "inlet", "outlet", PipeParameters(length=length, **params))
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

