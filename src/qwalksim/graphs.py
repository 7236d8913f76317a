"""Graph construction and adjacency queries for walk position spaces.

Vertices are dense integer indices. Builders cover the centred line, the
N-cycle, the n-dimensional hypercube and the glued-binary-trees network;
every walk engine operates on the same immutable Graph structure.

The half-edge table: edge {u, v} is two half-edges, (u, v) leaving u and
(v, u) leaving v. ``Graph`` numbers them once, by tail and then by head, so
each vertex owns one block whose directions are its neighbors in ascending
order, deterministic across runs. Every engine reads the table instead of
rebuilding the layout: ``degrees[v]``; ``offsets[v]``, where v's block
starts (half-edge ``offsets[v] + c`` is direction c at v, and
``offsets[-1]`` is the count H); ``heads[h]``, the neighbor h points to;
``reverse[h]``, the half-edge running back along the same edge; and
``half_edge_vertex[h]``, the tail of h. All five arrays are read-only.

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
        lo, hi = _edge_ends(edges, num_vertices)
        # one key per undirected edge: duplicates and reversed pairs collapse
        keys = np.unique(lo * num_vertices + hi)
        lo, hi = np.divmod(keys, num_vertices)

        self.num_vertices = num_vertices
        self.edges: tuple[tuple[int, int], ...] = tuple(zip(lo.tolist(), hi.tolist()))
        self.labels = dict(labels) if labels is not None else None
        self.coordinates = None if coordinates is None else np.asarray(coordinates, dtype=float)
        if self.coordinates is not None and len(self.coordinates) != num_vertices:
            raise ValueError("coordinates length must match num_vertices")
        self.kind = kind
        self.params = dict(params) if params is not None else {}

        # half-edge (tail, head) has key tail * num_vertices + head; sorted,
        # the keys number the half-edges as the module docstring says
        half = np.sort(np.concatenate((keys, hi * num_vertices + lo)))
        self.half_edge_vertex, self.heads = np.divmod(half, num_vertices)
        self.reverse = np.searchsorted(half, self.heads * num_vertices + self.half_edge_vertex)
        self.degrees = np.bincount(self.half_edge_vertex, minlength=num_vertices)
        self.offsets = np.concatenate(([0], np.cumsum(self.degrees)))
        self.half_edge_count = len(half)
        for table in (self.heads, self.reverse, self.degrees, self.offsets,
                      self.half_edge_vertex):
            table.flags.writeable = False

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.degrees[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(self.heads[self.offsets[v]:self.offsets[v + 1]].tolist())

    def direction_index(self, v: int, u: int) -> int:
        """Slot of neighbor u in v's ascending neighbor list."""
        if 0 <= v < self.num_vertices:
            lo, hi = self.offsets[v], self.offsets[v + 1]
            h = lo + int(np.searchsorted(self.heads[lo:hi], u))
            if h < hi and self.heads[h] == u:
                return int(h - lo)
        raise ValueError(f"{u} is not a neighbor of {v}")

    def coin_offset(self, v: int) -> int:
        """First half-edge index belonging to vertex v."""
        self._check_vertex(v)
        return int(self.offsets[v])

    def half_edge(self, v: int, c: int) -> int:
        if not 0 <= c < self.degree(v):
            raise ValueError(f"direction {c} out of range at vertex {v} (degree {self.degree(v)})")
        return int(self.offsets[v]) + c

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_vertices, self.num_vertices))
        a[self.half_edge_vertex, self.heads] = 1.0
        return a

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise ValueError(f"vertex {v} out of range [0, {self.num_vertices})")

    def __repr__(self) -> str:
        return (f"<Graph {self.kind}: |V|={self.num_vertices}, "
                f"|E|={len(self.edges)}>")


def _edge_ends(edges, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower and the higher end of every edge, each pair checked."""
    try:
        pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges))
    except ValueError:  # sequences of unequal length
        pairs = np.empty((0, 0))
    if pairs.shape == (0,):
        pairs = pairs.astype(np.int64).reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    if pairs.dtype.kind not in "iu":
        raise ValueError(f"edge endpoints must be integers, got {pairs.dtype}")
    pairs = pairs.astype(np.int64)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    bad = (lo == hi) | (lo < 0) | (hi >= num_vertices)
    if bad.any():
        u, v = pairs[np.argmax(bad)].tolist()
        raise ValueError(f"self-loop at vertex {u} not allowed" if u == v else
                         f"edge ({u}, {v}) out of range for {num_vertices} vertices")
    return lo, hi


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
    # every vertex with each of its n neighbors; Graph collapses the repeats
    v = np.arange(2 ** n)
    edges = np.column_stack((np.repeat(v, n), (v[:, None] ^ (1 << np.arange(n))).ravel()))
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
    # each tree in heap order (the parent of i is (i - 1) // 2) and vertex
    # i in column floor(log2(i + 1)); the right tree is numbered from the
    # exit root, its columns counted down
    child = np.arange(1, tree_size)
    tree = np.column_stack(((child - 1) // 2, child))
    column = np.frexp(np.arange(1, tree_size + 1))[1] - 1
    labels = dict(enumerate(np.concatenate((column, 2 * depth + 1 - column)).tolist()))

    left_leaves = np.arange(2 ** depth - 1, tree_size)
    right_leaves = left_leaves + tree_size
    if glue.mode == "symmetric":
        glue_edges = np.column_stack((left_leaves, right_leaves))
    else:
        order = right_leaves.copy()
        np.random.default_rng(glue.seed).shuffle(order)
        glue_edges = np.column_stack((np.concatenate((left_leaves, np.roll(left_leaves, -1))),
                                      np.concatenate((order, order))))
    edges = np.concatenate((tree, tree + tree_size, glue_edges))
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
