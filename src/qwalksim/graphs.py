"""Graph construction and adjacency queries for walk position spaces.

Vertices are dense integer indices. Builders cover the centred line, the
N-cycle, the n-dimensional hypercube and the glued-binary-trees network;
every walk engine operates on the same immutable Graph structure. Neighbor
lists are stored in ascending order so coin-direction indexing is
deterministic across runs.

The line rule: a line stands in for the infinite line, so a walk may reach
an end vertex only on its last step; a step from an end would reflect and
silently diverge from the line walk. ``check_line_headroom`` alone decides
it, for every engine and for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryOverflowError, MissingSeedError

GLUE_MODES = ("symmetric", "random-cycle")


@dataclass(frozen=True)
class GlueSpec:
    """How the two leaf layers of a glued-trees network are joined.

    ``symmetric`` joins leaf i of the left tree to leaf i of the right tree
    (deterministic test fixture). ``random-cycle`` joins the layers by a
    seeded cycle that alternates sides, giving every leaf exactly two glue
    edges.
    """

    mode: str = "symmetric"
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in GLUE_MODES:
            raise ValueError(f"glue mode must be one of {GLUE_MODES}, got {self.mode!r}")


class Graph:
    """Immutable undirected simple graph on vertices 0..num_vertices-1.

    ``coordinates``, when present, assigns each vertex a numeric position
    (line and cycle); ``labels`` carries per-vertex tags such as the
    glued-trees column index. Instances are safe to share across threads.
    """

    def __init__(self, num_vertices: int, edges, labels=None, coordinates=None,
                 kind: str = "custom", params: dict | None = None):
        if num_vertices < 1:
            raise ValueError(f"num_vertices must be >= 1, got {num_vertices}")
        canonical: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for {num_vertices} vertices")
            canonical.add((min(u, v), max(u, v)))

        self.num_vertices = num_vertices
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canonical))
        self.labels = dict(labels) if labels is not None else None
        self.coordinates = None if coordinates is None else np.asarray(coordinates, dtype=float)
        if self.coordinates is not None and len(self.coordinates) != num_vertices:
            raise ValueError("coordinates length must match num_vertices")
        self.kind = kind
        self.params = dict(params) if params is not None else {}

        nbrs: list[list[int]] = [[] for _ in range(num_vertices)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._neighbors: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(ns)) for ns in nbrs)
        self._slot: dict[tuple[int, int], int] = {
            (v, u): c for v in range(num_vertices) for c, u in enumerate(self._neighbors[v])
        }

        degrees = np.array([len(ns) for ns in self._neighbors], dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(degrees)))
        self.half_edge_count = int(self._offsets[-1])
        # vertex owning each half-edge slot, for marginalizing over coins
        self.half_edge_vertex = np.repeat(np.arange(num_vertices), degrees)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._neighbors[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._neighbors[v]

    def direction_index(self, v: int, u: int) -> int:
        """Slot of neighbor u in v's ascending neighbor list."""
        try:
            return self._slot[(v, u)]
        except KeyError:
            raise ValueError(f"{u} is not a neighbor of {v}") from None

    def coin_offset(self, v: int) -> int:
        """First half-edge index belonging to vertex v."""
        self._check_vertex(v)
        return int(self._offsets[v])

    def half_edge(self, v: int, c: int) -> int:
        if not 0 <= c < self.degree(v):
            raise ValueError(f"direction {c} out of range at vertex {v} (degree {self.degree(v)})")
        return int(self._offsets[v]) + c

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_vertices, self.num_vertices))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise ValueError(f"vertex {v} out of range [0, {self.num_vertices})")

    def __repr__(self) -> str:
        return (f"<Graph {self.kind}: |V|={self.num_vertices}, "
                f"|E|={len(self.edges)}>")


def neighbors(g: Graph, v: int) -> list[int]:
    """Neighbors of v in deterministic ascending order."""
    return list(g.neighbors(v))


def check_line_headroom(kind: str, num_vertices: int, occupied, steps: int) -> None:
    """Raise ``BoundaryOverflowError`` if a line walk from ``occupied`` breaks the rule."""
    occupied = np.asarray(occupied)
    if kind != "line" or steps == 0 or occupied.size == 0:
        return
    lo, hi = int(occupied.min()), int(occupied.max())
    if lo - steps < 0 or hi + steps > num_vertices - 1:
        raise BoundaryOverflowError(
            f"occupied vertices [{lo}, {hi}] plus {steps} steps exceed a line of "
            f"{num_vertices} positions; enlarge the graph")


def build_line(num_positions: int) -> Graph:
    """Path graph centred at the origin; vertex k sits at x = k - (n-1)/2.

    num_positions must be odd so the origin is a vertex; a walk of t steps
    needs 2t+1 positions.
    """
    if num_positions < 1 or num_positions % 2 == 0:
        raise ValueError(f"num_positions must be a positive odd integer, got {num_positions}")
    edges = [(k, k + 1) for k in range(num_positions - 1)]
    offset = (num_positions - 1) // 2
    coords = np.arange(num_positions) - offset
    return Graph(num_positions, edges, coordinates=coords, kind="line",
                 params={"num_positions": num_positions, "origin": offset})


def build_cycle(n: int) -> Graph:
    """N-cycle: a line segment of length n with the ends joined."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    edges = [(k, (k + 1) % n) for k in range(n)]
    return Graph(n, edges, coordinates=np.arange(n), kind="cycle", params={"n": n})


def build_hypercube(n: int) -> Graph:
    """n-dimensional hypercube: 2^n vertices, edges between labels one bit apart."""
    if n < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {n}")
    edges = []
    for v in range(2 ** n):
        for bit in range(n):
            u = v ^ (1 << bit)
            if u > v:
                edges.append((v, u))
    return Graph(2 ** n, edges, kind="hypercube", params={"dimension": n})


def build_glued_trees(depth: int, glue: GlueSpec) -> Graph:
    """Two complete binary trees of the given depth joined leaf layer to leaf layer.

    The entrance is the left root (vertex 0, column 0) and the exit is the
    right root (column 2*depth+1). Columns are attached as vertex labels.
    Random-cycle glue: the right-leaf order is shuffled with the seeded
    generator and the two layers are then joined by a single alternating
    cycle L[0]-R[0]-L[1]-R[1]-...-L[0], so every leaf gets two glue edges.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if glue.mode == "random-cycle" and glue.seed is None:
        raise MissingSeedError("random-cycle glue requires a seed")

    tree_size = 2 ** (depth + 1) - 1
    edges = []
    labels: dict[int, int] = {}

    # left tree in heap order: children of i are 2i+1, 2i+2
    for i in range(tree_size):
        labels[i] = (i + 1).bit_length() - 1
        for child in (2 * i + 1, 2 * i + 2):
            if child < tree_size:
                edges.append((i, child))

    # right tree mirrored: heap order from the exit root, columns counted down
    for j in range(tree_size):
        labels[tree_size + j] = 2 * depth + 1 - ((j + 1).bit_length() - 1)
        for child in (2 * j + 1, 2 * j + 2):
            if child < tree_size:
                edges.append((tree_size + j, tree_size + child))

    left_leaves = list(range(2 ** depth - 1, tree_size))
    right_leaves = [tree_size + j for j in range(2 ** depth - 1, tree_size)]

    if glue.mode == "symmetric":
        edges.extend(zip(left_leaves, right_leaves))
    else:
        order = np.array(right_leaves)
        np.random.default_rng(glue.seed).shuffle(order)
        m = len(left_leaves)
        for i in range(m):
            edges.append((left_leaves[i], int(order[i])))
            edges.append((int(order[i]), left_leaves[(i + 1) % m]))

    return Graph(2 * tree_size, edges, labels=labels, kind="glued_trees",
                 params={"depth": depth, "glue_mode": glue.mode, "glue_seed": glue.seed})


def glued_trees_entrance_exit(g: Graph) -> tuple[int, int]:
    """Entrance (column 0) and exit (last column) vertices of a glued-trees graph."""
    if g.kind != "glued_trees" or g.labels is None:
        raise ValueError("not a glued-trees graph")
    last = max(g.labels.values())
    entrance = next(v for v, c in g.labels.items() if c == 0)
    exit_vertex = next(v for v, c in g.labels.items() if c == last)
    return entrance, exit_vertex


def dump_edge_list(g: Graph) -> str:
    """Edge list as text: one `u v` pair per line, builder and parameters in a header comment."""
    params = " ".join(f"{k}={v}" for k, v in sorted(g.params.items()))
    lines = [f"# {g.kind} {params}".rstrip()]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
