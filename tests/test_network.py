import pytest

from pipeflow.gas import PipeParameters
from pipeflow.network import (
    Edge,
    NetworkTopology,
    TopologyError,
    classify,
    loop_network,
    single_pipe,
    y_network,
)
from pipeflow.scenario import ConfigError, load_topology, parse_topology

from helpers import format_topology


def make_edge(name, start, end, length=1.0):
    return Edge(name, start, end, PipeParameters(length=length))


class TestAdjacency:
    def test_edges_at_lists_incident_edges(self):
        topo = y_network()
        assert {e.name for e in topo.edges_at("junction")} == {
            "feed", "branch_a", "branch_b"}
        assert [e.name for e in topo.edges_at("outlet_a")] == ["branch_a"]
        for e in topo.edges:
            assert e in topo.edges_at(e.start) and e in topo.edges_at(e.end)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(TopologyError, match="unknown vertex 'nosuch'"):
            single_pipe().edges_at("nosuch")


class TestClassify:
    def test_single_edge(self):
        topo = single_pipe()
        cls = classify(topo)
        assert cls.interior == frozenset()
        assert cls.boundary == {"inlet", "outlet"}

    def test_y_junction(self):
        cls = classify(y_network())
        assert cls.interior == {"junction"}
        assert len(cls.boundary) == 3

    def test_path_middle_vertex_interior(self):
        edges = [make_edge("a", "v0", "v1"), make_edge("b", "v1", "v2")]
        cls = classify(NetworkTopology(edges))
        assert cls.interior == {"v1"}
        assert cls.boundary == {"v0", "v2"}

    def test_partition(self):
        topo = loop_network(n_edges=3)
        cls = classify(topo)
        assert cls.interior | cls.boundary == set(topo.vertices)
        assert not (cls.interior & cls.boundary)


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            make_edge("e", "v", "v")

    @pytest.mark.parametrize("name", ["p,q", "p\nq", "p\rq"])
    def test_edge_name_fit_for_snapshot_rows_in_code(self, name):
        # the snapshot tables hold one comma-separated row per line
        with pytest.raises(TopologyError, match="edge name"):
            make_edge(name, "a", "b")

    def test_isolated_vertex_rejected(self):
        with pytest.raises(TopologyError, match="isolated"):
            NetworkTopology([make_edge("e", "a", "b")], vertices=["a", "b", "c"])

    def test_disconnected_rejected(self):
        edges = [make_edge("e1", "a", "b"), make_edge("e2", "c", "d")]
        with pytest.raises(TopologyError, match="not connected"):
            NetworkTopology(edges)

    def test_duplicate_edge_names_rejected(self):
        edges = [make_edge("e", "a", "b"), make_edge("e", "b", "c")]
        with pytest.raises(TopologyError, match="unique"):
            NetworkTopology(edges)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(TopologyError, match="vertex names must be unique"):
            NetworkTopology([make_edge("e", "a", "b")], vertices=["a", "b", "b"])

    def test_mixed_epsilon_rejected(self):
        edges = [
            Edge("e1", "a", "b", PipeParameters(length=1.0, epsilon=0.1)),
            Edge("e2", "b", "c", PipeParameters(length=1.0, epsilon=0.2)),
        ]
        with pytest.raises(TopologyError, match="epsilon"):
            NetworkTopology(edges)


def test_handshake():
    for topo in (single_pipe(), y_network(), loop_network(n_edges=4)):
        assert sum(topo.degree(v) for v in topo.vertices) == 2 * len(topo.edges)


def test_round_trip():
    edges = [
        Edge("main", "in", "mid", PipeParameters(
            length=2.0, area=((0.0, 1.0), (1.0, 2.0), (2.0, 1.5)),
            friction=0.7, elevation=((0.0, 0.0), (2.0, 0.4)), gravity=9.81)),
        Edge("tail", "mid", "out", PipeParameters(length=1.5, area=1.2)),
    ]
    topo = NetworkTopology(edges)
    text = format_topology(topo, boundary_defaults={"in": 1.25})
    topo2, boundary = parse_topology(text)
    assert boundary == {"in": 1.25}
    assert topo2.vertices == topo.vertices
    for e1, e2 in zip(topo.edges, topo2.edges):
        assert e1.name == e2.name
        assert (e1.start, e1.end) == (e2.start, e2.end)
        assert e1.params.length == e2.params.length
        assert e1.params.area == e2.params.area
        assert e1.params.friction == e2.params.friction
        assert e1.params.elevation == e2.params.elevation
        assert e1.params.gravity == e2.params.gravity
    assert format_topology(topo2, boundary_defaults=boundary) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="^<string>:1: "):
        parse_topology("stray content before any section\n[vertices]\nv\n")
    text = "[edge pipe]\nfrom = a\nto = b\n"  # missing length
    with pytest.raises(ConfigError, match="^<string>:1: .*length"):
        parse_topology(text)


def test_unknown_edge_key_names_line():
    text = "[vertices]\na\nb\n\n[edge pipe]\nfrom = a\nto = b\nlength = 1\nfrictoin = 5\n"
    with pytest.raises(ConfigError, match=r"^<string>:9: unknown or unused "
                                          r"key 'frictoin' in \[edge pipe\]"):
        parse_topology(text)


@pytest.mark.parametrize("vertex, error", [
    ("junction", "vertex 'junction' has degree 3; boundary data go on "
                 "degree-one vertices only"),
    ("nosuch", "unknown boundary vertex 'nosuch'")])
def test_boundary_section_needs_a_boundary_vertex(tmp_path, vertex, error):
    text = format_topology(y_network(), boundary_defaults={"inlet": 1.0})
    line = len(text.splitlines()) + 2
    path = tmp_path / "net.topo"
    path.write_text(text + f"\n[boundary {vertex}]\nh = 1.0\n")
    with pytest.raises(ConfigError) as info:
        load_topology(path)
    assert str(info.value) == f"{path}:{line}: {error}"


def test_with_helpers():
    topo = single_pipe(epsilon=0.5)
    assert topo.with_epsilon(0.1).epsilon == 0.1
    shifted = topo.with_friction_offset(0.25)
    assert shifted.edges[0].params.friction == pytest.approx(1.25)
