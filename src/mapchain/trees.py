"""Random spanning trees and balanced tree cuts.

This is the computational kernel shared by the recombination chain and the
ab-initio tree plan generator: draw a spanning tree over a node subset, then
look for a tree edge whose removal splits the subset into two population-
balanced connected parts.

Two tree distributions are available. ``uniform`` draws a uniform spanning
tree by Wilson's loop-erased random walk; ``mst`` draws the minimum spanning
tree under i.i.d. random edge weights, which is faster on large regions but
not uniform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .graph import PrecinctGraph, component_labels, neighbor_arrays

TREE_METHODS = ("uniform", "mst")


class _Induced:
    """Induced subgraph on a node subset, with local 0..m-1 indexing.

    ``adj[i]`` lists local node i's neighbours in ascending local order.
    """

    __slots__ = ("nodes", "m", "adj", "edge_a", "edge_b")

    def __init__(self, graph: PrecinctGraph, subset):
        nodes = np.unique(np.asarray(subset, dtype=np.int64))
        if nodes.size == 0:
            raise errors.EmptyInput("empty node subset")
        self.nodes = nodes
        self.m = int(nodes.size)
        local_of = np.full(graph.n, -1, dtype=np.int64)
        local_of[nodes] = np.arange(self.m)
        la = local_of[graph.edge_a]
        lb = local_of[graph.edge_b]
        mask = (la >= 0) & (lb >= 0)
        self.edge_a = la[mask]
        self.edge_b = lb[mask]
        self.adj = neighbor_arrays(self.m, self.edge_a, self.edge_b)

    def connected(self) -> bool:
        return not component_labels(self.adj).any()


@dataclass
class SpanningTree:
    """Rooted spanning tree over a node subset, with subtree population tallies.

    ``nodes[i]`` is the graph ordinal of local index ``i``; ``parent[i]`` is
    the local parent index (-1 at the root); ``order`` lists local indices
    with every parent before its children; ``subtree_pop[i]`` is the
    population of the subtree rooted at ``i``.
    """

    nodes: np.ndarray
    parent: np.ndarray
    order: np.ndarray
    subtree_pop: np.ndarray
    root: int

    @property
    def m(self) -> int:
        return int(self.nodes.size)

    @property
    def n_edges(self) -> int:
        return self.m - 1

    @property
    def total_population(self) -> int:
        return int(self.subtree_pop[self.root])

    def edges(self):
        """Tree edges as (child, parent) pairs of graph ordinals."""
        return [
            (int(self.nodes[i]), int(self.nodes[self.parent[i]]))
            for i in range(self.m)
            if self.parent[i] >= 0
        ]

    def local_index(self, node: int) -> int:
        # nodes is sorted (np.unique), so binary search suffices
        i = int(np.searchsorted(self.nodes, node))
        if i >= self.m or self.nodes[i] != node:
            raise KeyError(f"node {node} not in tree")
        return i

    def subtree_nodes(self, child: int) -> np.ndarray:
        """Graph ordinals of the subtree rooted at ``child``."""
        mark = np.zeros(self.m, dtype=bool)
        mark[self.local_index(child)] = True
        for i in self.order:
            p = self.parent[i]
            if p >= 0 and mark[p] and not mark[i]:
                mark[i] = True
        return self.nodes[mark]


def _finish_tree(induced: _Induced, parent: np.ndarray, root: int, pops) -> SpanningTree:
    """Topologically order the tree and accumulate subtree populations."""
    m = induced.m
    children: list = [[] for _ in range(m)]
    for i in range(m):
        p = parent[i]
        if p >= 0:
            children[p].append(i)
    order = np.empty(m, dtype=np.int64)
    stack = [root]
    pos = 0
    while stack:
        u = stack.pop()
        order[pos] = u
        pos += 1
        stack.extend(children[u])
    subtree = np.asarray(pops, dtype=np.int64)[induced.nodes].copy()
    for i in order[::-1]:
        p = parent[i]
        if p >= 0:
            subtree[p] += subtree[i]
    return SpanningTree(
        nodes=induced.nodes, parent=parent, order=order, subtree_pop=subtree, root=int(root)
    )


def _wilson(induced: _Induced, rng: np.random.Generator):
    """Uniform spanning tree via loop-erased random walks (Wilson).

    Walk from each untouched node until the current tree is hit; overwriting
    ``succ`` along the way erases loops automatically.
    """
    m = induced.m
    in_tree = np.zeros(m, dtype=bool)
    succ = np.full(m, -1, dtype=np.int64)
    root = int(rng.integers(m))
    in_tree[root] = True
    for start in range(m):
        u = start
        while not in_tree[u]:
            nbrs = induced.adj[u]
            succ[u] = int(nbrs[int(rng.integers(nbrs.size))])
            u = int(succ[u])
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = int(succ[u])
    parent = np.where(in_tree, succ, -1)
    parent[root] = -1
    return parent, root


def _random_mst(induced: _Induced, rng: np.random.Generator):
    """Kruskal over i.i.d. uniform edge weights, then root at local 0."""
    m = induced.m
    weights = rng.random(induced.edge_a.size)
    order = np.argsort(weights, kind="stable")
    uf = np.arange(m, dtype=np.int64)

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = int(uf[x])
        return x

    adj: list = [[] for _ in range(m)]
    taken = 0
    for idx in order:
        a, b = int(induced.edge_a[idx]), int(induced.edge_b[idx])
        ra, rb = find(a), find(b)
        if ra != rb:
            uf[ra] = rb
            adj[a].append(b)
            adj[b].append(a)
            taken += 1
            if taken == m - 1:
                break
    parent = np.full(m, -1, dtype=np.int64)
    root = 0
    seen = np.zeros(m, dtype=bool)
    seen[root] = True
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                stack.append(v)
    return parent, root


def random_spanning_tree(
    graph: PrecinctGraph,
    subset,
    rng: np.random.Generator,
    method: str = "uniform",
) -> SpanningTree:
    """Spanning tree of the induced subgraph on ``subset``.

    Deterministic given the rng state. Raises ``DisconnectedSubset`` when the
    induced subgraph is not connected.
    """
    induced = _Induced(graph, subset)
    if not induced.connected():
        raise errors.DisconnectedSubset(
            f"subset of {induced.m} nodes does not induce a connected subgraph"
        )
    return _draw_tree(graph, induced, rng, method)


def _draw_tree(graph, induced, rng, method) -> SpanningTree:
    if method == "uniform":
        parent, root = _wilson(induced, rng)
    elif method == "mst":
        parent, root = _random_mst(induced, rng)
    else:
        raise ValueError(f"unknown tree method {method!r}; use one of {TREE_METHODS}")
    return _finish_tree(induced, parent, root, graph.populations)


@dataclass(frozen=True)
class Cut:
    """A qualifying tree cut: removing (child, parent) splits the subset."""

    child: int
    parent: int
    subtree_is_first: bool  # subtree side matches target_pops[0]

    @property
    def edge(self):
        return (self.child, self.parent)


def find_balanced_cut(
    tree: SpanningTree,
    target_pops,
    tolerance: float,
    rng: np.random.Generator,
):
    """Tree edge whose removal yields parts within tolerance of the targets.

    An edge qualifies when its subtree/complement populations match
    ``(p1, p2)`` in either orientation, each within ``tolerance * target``.
    Among multiple qualifying edges one is chosen uniformly at random (to
    avoid directional bias from the tree orientation). Returns ``None`` when
    no edge qualifies; absence is a value, not an error.
    """
    p1, p2 = float(target_pops[0]), float(target_pops[1])
    total = tree.total_population
    qualifiers = []
    for i in range(tree.m):
        if tree.parent[i] < 0:
            continue
        s = int(tree.subtree_pop[i])
        c = total - s
        first = abs(s - p1) <= tolerance * p1 and abs(c - p2) <= tolerance * p2
        second = abs(s - p2) <= tolerance * p2 and abs(c - p1) <= tolerance * p1
        if first or second:
            qualifiers.append((i, first))
    if not qualifiers:
        return None
    i, first = qualifiers[int(rng.integers(len(qualifiers)))]
    return Cut(
        child=int(tree.nodes[i]),
        parent=int(tree.nodes[tree.parent[i]]),
        subtree_is_first=bool(first),
    )


def bipartition_region(
    graph: PrecinctGraph,
    subset,
    target_pops,
    tolerance: float,
    rng: np.random.Generator,
    max_tree_retries: int = 50,
    method: str = "uniform",
):
    """Split ``subset`` into two connected, population-balanced parts.

    Draws up to ``max_tree_retries`` spanning trees, searching each for a
    balanced cut; returns ``(part1, part2)`` node arrays aligned to
    ``target_pops``, or ``None`` once the budget is exhausted. Both parts are
    connected by construction (each is one side of a tree cut).
    """
    induced = _Induced(graph, subset)
    if not induced.connected():
        raise errors.DisconnectedSubset(
            f"subset of {induced.m} nodes does not induce a connected subgraph"
        )
    for _ in range(max_tree_retries):
        tree = _draw_tree(graph, induced, rng, method)
        cut = find_balanced_cut(tree, target_pops, tolerance, rng)
        if cut is None:
            continue
        sub = tree.subtree_nodes(cut.child)
        mask = np.zeros(graph.n, dtype=bool)
        mask[induced.nodes] = True
        mask[sub] = False
        rest = np.flatnonzero(mask)
        if cut.subtree_is_first:
            return sub, rest
        return rest, sub
    return None
