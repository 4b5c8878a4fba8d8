"""Static network topologies for the load-balancing system.

A topology is an undirected simple graph on ``n_nodes`` schedulers.  Each
scheduler owns one queue and may forward work only to direct neighbors, so
everything downstream (rate computation, decision rules, the event engine)
consumes the adjacency structure built here.

Builders cover five families: a cycle, cube-connected cycles, a 2-d torus,
an erased configuration model with degrees drawn from a fixed set, and a
finite Bethe lattice (rooted tree).  Arbitrary graphs round-trip through a
plain-text edge list.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Topology",
    "build_cyc1d",
    "build_ccc",
    "build_torus",
    "build_config_model",
    "build_bethe",
    "bethe_size",
    "from_edges",
    "save_edge_list",
    "load_edge_list",
]


@dataclass(frozen=True)
class Topology:
    """Immutable undirected graph with per-node sorted neighbor lists."""

    n_nodes: int
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if len(self.neighbors) != self.n_nodes:
            raise ValueError("neighbor table length differs from n_nodes")

    # ---- derived arrays (computed once, shared by the hot paths) ----

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.array([len(nb) for nb in self.neighbors], dtype=np.int64)
        d.setflags(write=False)
        return d

    @cached_property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n_nodes else 0

    @cached_property
    def padded_neighbors(self) -> np.ndarray:
        """(n, max(max_degree, 1)) neighbor table: row i lists i's neighbors
        in index order, then repeats i to the full width."""
        pad = np.repeat(np.arange(self.n_nodes, dtype=np.int64)[:, None],
                        max(self.max_degree, 1), axis=1)
        for i, nb in enumerate(self.neighbors):
            pad[i, : len(nb)] = nb
        pad.setflags(write=False)
        return pad

    @cached_property
    def padded_mask(self) -> np.ndarray:
        """True where a slot of ``padded_neighbors`` holds a neighbor."""
        mask = np.arange(self.padded_neighbors.shape[1]) < self.degrees[:, None]
        mask.setflags(write=False)
        return mask

    # ---- queries ----

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list with i < j, sorted."""
        out = []
        for i, nb in enumerate(self.neighbors):
            for j in nb:
                if i < j:
                    out.append((i, j))
        return out

    def is_connected(self) -> bool:
        if self.n_nodes <= 1:
            return True
        seen = np.zeros(self.n_nodes, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            i = stack.pop()
            for j in self.neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return bool(seen.all())

    def degree_histogram(self) -> dict[int, int]:
        vals, counts = np.unique(self.degrees, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


def from_edges(n_nodes: int, edges) -> Topology:
    """Build a Topology from an iterable of (i, j) pairs.

    Self-loops and duplicate edges are rejected.
    """
    adj: list[set[int]] = [set() for _ in range(n_nodes)]
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(f"edge ({i},{j}) out of range")
        if j in adj[i]:
            raise ValueError(f"duplicate edge ({i},{j})")
        adj[i].add(j)
        adj[j].add(i)
    neighbors = tuple(tuple(sorted(s)) for s in adj)
    return Topology(n_nodes, neighbors)


# ---- builders ----


def build_cyc1d(n: int) -> Topology:
    """Cycle on n >= 3 nodes; every node has degree 2."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return from_edges(n, edges)


def build_ccc(order: int) -> Topology:
    """Cube-connected cycles of the given order (>= 3).

    Nodes are pairs (cycle position p, binary word v of length ``order``);
    p is linked around its cycle and across the hypercube edge that flips
    bit p of v.  The graph is 3-regular with order * 2**order nodes.
    """
    if order < 3:
        raise ValueError("ccc needs order >= 3")
    width = 1 << order

    def node(p: int, v: int) -> int:
        return p * width + v

    edges = set()
    for p in range(order):
        for v in range(width):
            a = node(p, v)
            edges.add(tuple(sorted((a, node((p + 1) % order, v)))))
            edges.add(tuple(sorted((a, node((p - 1) % order, v)))))
            edges.add(tuple(sorted((a, node(p, v ^ (1 << p))))))
    return from_edges(order * width, sorted(edges))


def build_torus(side: int) -> Topology:
    """side x side torus grid (side >= 3); 4-regular."""
    if side < 3:
        raise ValueError("torus needs side >= 3")
    edges = set()
    for r in range(side):
        for c in range(side):
            a = r * side + c
            edges.add(tuple(sorted((a, ((r + 1) % side) * side + c))))
            edges.add(tuple(sorted((a, r * side + (c + 1) % side))))
    return from_edges(side * side, sorted(edges))


def build_config_model(n: int, degree_set, seed, max_retries: int = 200) -> Topology:
    """Erased configuration model.

    Per-node degrees are drawn uniformly from ``degree_set``.  If the stub
    total is odd, one uniformly chosen node's degree is re-drawn from the
    opposite-parity values of the set (incremented by one when the set has
    none, which keeps the handshake condition satisfiable).  Stubs are
    matched by a uniform shuffle; self-loops and duplicate pairs are erased,
    so a few realized degrees may fall below their draw.  Disconnected
    results are rejected and the whole draw retried with fresh randomness.
    """
    if n < 4:
        raise ValueError("configuration model needs n >= 4")
    degree_set = sorted(set(int(d) for d in degree_set))
    if not degree_set or degree_set[0] < 1:
        raise ValueError("degree_set must contain positive integers")
    if degree_set[-1] >= n:
        raise ValueError("degrees must be < n")
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        degrees = rng.choice(degree_set, size=n)
        if degrees.sum() % 2 == 1:
            k = int(rng.integers(n))
            flip = [d for d in degree_set if (d - degrees[k]) % 2 == 1]
            if flip:
                degrees[k] = flip[int(rng.integers(len(flip)))]
            else:
                degrees[k] += 1
        stubs = np.repeat(np.arange(n), degrees)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = set()
        for i, j in pairs:
            if i == j:
                continue
            edges.add((min(int(i), int(j)), max(int(i), int(j))))
        topo = from_edges(n, sorted(edges))
        if topo.is_connected():
            return topo
    raise RuntimeError(
        f"configuration model stayed disconnected after {max_retries} attempts")


def bethe_size(depth: int, branching: int) -> int:
    """Node count of the finite Bethe lattice: root plus branching*(b-1)**(o-1) per level."""
    return 1 + sum(branching * (branching - 1) ** (o - 1) for o in range(1, depth + 1))


def build_bethe(depth: int, branching: int) -> Topology:
    """Finite Bethe lattice (rooted tree).

    The root has ``branching`` children; every internal node below it has
    branching - 1 children; leaves sit at the given depth.
    """
    if depth < 1:
        raise ValueError("bethe needs depth >= 1")
    if branching < 3:
        raise ValueError("bethe needs branching >= 3")
    edges = []
    frontier = [0]
    next_id = 1
    for level in range(depth):
        new_frontier = []
        for parent in frontier:
            n_children = branching if parent == 0 else branching - 1
            for _ in range(n_children):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    n = next_id
    assert n == bethe_size(depth, branching)
    return from_edges(n, edges)


# ---- plain-text edge list i/o ----


def save_edge_list(topo: Topology, path) -> None:
    """Write ``n_nodes=<N>`` then one ``i j`` line per undirected edge."""
    with open(path, "w") as fh:
        fh.write(f"n_nodes={topo.n_nodes}\n")
        for i, j in topo.edges():
            fh.write(f"{i} {j}\n")


def load_edge_list(path) -> Topology:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("n_nodes="):
            raise ValueError("edge list must start with an n_nodes=<N> header")
        n = int(header.split("=", 1)[1])
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            i, j = line.split()
            edges.append((int(i), int(j)))
    return from_edges(n, edges)
