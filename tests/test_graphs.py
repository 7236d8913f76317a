"""Graph builders and adjacency queries."""

import numpy as np
import pytest

from qwalksim.errors import MissingSeedError
from qwalksim.graphs import (GlueSpec, Graph, build_cycle, build_glued_trees,
                             build_hypercube, build_line, dump_edge_list,
                             glued_trees_entrance_exit, neighbors)

ALL_BUILDERS = [
    build_line(7),
    build_cycle(5),
    build_cycle(4),
    build_hypercube(3),
    build_glued_trees(2, GlueSpec("symmetric")),
    build_glued_trees(3, GlueSpec("random-cycle", seed=5)),
]


def test_line_smallest():
    g = build_line(3)
    assert g.num_vertices == 3
    assert g.edges == ((0, 1), (1, 2))
    assert list(g.coordinates) == [-1, 0, 1]
    assert g.degree(0) == 1 and g.degree(1) == 2


def test_line_sized_for_hundred_steps():
    g = build_line(201)
    assert g.num_vertices == 201
    assert len(g.edges) == 200
    assert g.coordinates[g.params["origin"]] == 0


def test_line_degenerate_single_vertex():
    g = build_line(1)
    assert g.num_vertices == 1
    assert g.edges == ()


@pytest.mark.parametrize("bad", [0, 2, 10, -3])
def test_line_rejects_even_or_nonpositive(bad):
    with pytest.raises(ValueError):
        build_line(bad)


def test_cycle_triangle():
    g = build_cycle(3)
    assert len(g.edges) == 3
    assert all(g.degree(v) == 2 for v in range(3))


def test_cycle_degrees_and_wraparound():
    g = build_cycle(5)
    assert all(g.degree(v) == 2 for v in range(5))
    assert g.neighbors(0) == (1, 4)


def test_cycle_rejects_small():
    with pytest.raises(ValueError):
        build_cycle(2)


def test_hypercube_counts():
    g = build_hypercube(3)
    assert g.num_vertices == 8
    assert len(g.edges) == 12
    assert all(g.degree(v) == 3 for v in range(8))


def test_hypercube_single_edge():
    g = build_hypercube(1)
    assert g.edges == ((0, 1),)


def test_hypercube_two_is_a_four_cycle():
    g = build_hypercube(2)
    assert all(g.degree(v) == 2 for v in range(4))
    # 0-1-3-2-0 traversal closes
    assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_hypercube_rejects_zero():
    with pytest.raises(ValueError):
        build_hypercube(0)


def test_neighbors_ordering():
    assert neighbors(build_cycle(4), 0) == [1, 3]
    assert neighbors(build_line(3), 0) == [1]
    assert neighbors(build_hypercube(2), 0) == [1, 2]


def test_neighbors_out_of_range():
    with pytest.raises(ValueError):
        build_cycle(4).neighbors(4)


@pytest.mark.parametrize("g", ALL_BUILDERS)
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.num_vertices)) == 2 * len(g.edges)


@pytest.mark.parametrize("g", ALL_BUILDERS)
def test_direction_index_inverts_neighbors(g):
    for v in range(g.num_vertices):
        for c, u in enumerate(g.neighbors(v)):
            assert g.direction_index(v, u) == c


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 1), (-1, 2)])
    # two triples must not be read as three pairs
    with pytest.raises(ValueError, match="pairs"):
        Graph(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="pairs"):
        Graph(3, [(0, 1, 2), (1, 2, 0)])
    with pytest.raises(ValueError, match="pairs"):
        Graph(3, [(0, 1), (1, 2, 0)])
    with pytest.raises(ValueError, match="integers"):
        Graph(3, [(0, 1.5)])


def test_graph_without_edges():
    g = Graph(3, [])
    assert g.edges == () and g.half_edge_count == 0
    assert [g.degree(v) for v in range(3)] == [0, 0, 0]
    assert list(g.offsets) == [0, 0, 0, 0]


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)
    assert g.half_edge_count == 2


def test_direction_index_rejects_non_neighbors():
    g = Graph(5, [(0, 2), (0, 3), (2, 3)])
    with pytest.raises(ValueError):
        g.direction_index(0, 1)  # between two neighbors
    with pytest.raises(ValueError):
        g.direction_index(0, 4)  # above every neighbor
    with pytest.raises(ValueError):
        g.direction_index(1, 0)  # vertex 1 has no neighbors
    with pytest.raises(ValueError):
        g.direction_index(5, 0)  # no such vertex


def test_half_edge_table_is_read_only():
    g = build_cycle(4)
    for table in (g.heads, g.reverse, g.degrees, g.offsets, g.half_edge_vertex):
        with pytest.raises(ValueError):
            table[0] = 1


def test_glued_trees_smallest():
    g = build_glued_trees(1, GlueSpec("symmetric"))
    assert g.num_vertices == 6
    sizes = np.bincount([g.labels[v] for v in range(6)])
    assert list(sizes) == [1, 2, 2, 1]


def test_glued_trees_depth_two_shape():
    g = build_glued_trees(2, GlueSpec("symmetric"))
    assert g.num_vertices == 14
    entrance, exit_vertex = glued_trees_entrance_exit(g)
    assert g.degree(entrance) == 2 and g.degree(exit_vertex) == 2


@pytest.mark.parametrize("glue", [GlueSpec("symmetric"),
                                  GlueSpec("random-cycle", seed=3)])
def test_glued_trees_vertex_count_and_degrees(glue):
    depth = 3
    g = build_glued_trees(depth, glue)
    assert g.num_vertices == 2 * (2 ** (depth + 1) - 1)
    entrance, exit_vertex = glued_trees_entrance_exit(g)
    leaf_degree = 3 if glue.mode == "random-cycle" else 2
    for v in range(g.num_vertices):
        col = g.labels[v]
        if v in (entrance, exit_vertex):
            assert g.degree(v) == 2
        elif col in (depth, depth + 1):
            assert g.degree(v) == leaf_degree
        else:
            assert g.degree(v) == 3


@pytest.mark.parametrize("glue", [GlueSpec("symmetric"),
                                  GlueSpec("random-cycle", seed=9)])
def test_glued_trees_columns_adjacent_only(glue):
    g = build_glued_trees(3, glue)
    for u, v in g.edges:
        assert abs(g.labels[u] - g.labels[v]) == 1


@pytest.mark.parametrize("glue", [GlueSpec("symmetric"),
                                  GlueSpec("random-cycle", seed=2)])
def test_glued_trees_entrance_exit_distance(glue):
    depth = 3
    g = build_glued_trees(depth, glue)
    entrance, exit_vertex = glued_trees_entrance_exit(g)
    dist = {entrance: 0}
    frontier = [entrance]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    assert dist[exit_vertex] == 2 * depth + 1


def test_random_cycle_glue_deterministic_per_seed():
    a = build_glued_trees(2, GlueSpec("random-cycle", seed=7))
    b = build_glued_trees(2, GlueSpec("random-cycle", seed=7))
    assert a.edges == b.edges


def test_random_cycle_glue_varies_with_seed():
    edge_sets = {build_glued_trees(3, GlueSpec("random-cycle", seed=s)).edges
                 for s in range(6)}
    assert len(edge_sets) > 1


def test_random_cycle_requires_seed():
    with pytest.raises(MissingSeedError):
        build_glued_trees(2, GlueSpec("random-cycle"))


def test_glue_mode_validated():
    with pytest.raises(ValueError):
        GlueSpec("zipper")


def test_glued_trees_rejects_zero_depth():
    with pytest.raises(ValueError):
        build_glued_trees(0, GlueSpec("symmetric"))


def test_dump_edge_list_roundtrips():
    g = build_cycle(4)
    text = dump_edge_list(g)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# cycle")
    parsed = [tuple(map(int, line.split())) for line in lines[1:]]
    assert tuple(parsed) == g.edges
