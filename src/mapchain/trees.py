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
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from . import errors
from .graph import PrecinctGraph, component_labels, lower_end_edges, neighbor_lists

TREE_METHODS = ("uniform", "mst")

_WORD = 1 << 32  # Generator.integers(n) for n < 2**32 draws uint32 words
_MASK = _WORD - 1


class _Induced:
    """Induced subgraph on a node subset, with local 0..m-1 indexing.

    ``adj[i]`` lists local node i's neighbours in ascending local order and
    ``deg[i]`` is its length; ``pops[i]`` is local node i's population.
    """

    __slots__ = ("nodes", "m", "adj", "deg", "pops", "edge_a", "edge_b")

    def __init__(self, graph: PrecinctGraph, subset):
        nodes = np.unique(np.asarray(subset, dtype=np.int64))
        if nodes.size == 0:
            raise errors.EmptyInput("empty node subset")
        self.nodes = nodes
        self.m = int(nodes.size)
        # the edges whose upper end is a node too, kept in ascending edge
        # order so that the mst weights line up
        edges, width = lower_end_edges(graph, nodes)
        far = graph.edge_b[edges]
        local = np.searchsorted(nodes, far)
        inside = nodes[np.minimum(local, self.m - 1)] == far
        self.edge_a = np.repeat(np.arange(self.m), width)[inside]
        self.edge_b = local[inside]
        self.adj = neighbor_lists(self.m, self.edge_a, self.edge_b)
        self.deg = [len(nbrs) for nbrs in self.adj]
        self.pops = graph.populations[nodes].tolist()

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

    def local_index(self, node: int) -> int:
        # nodes is sorted (np.unique), so binary search suffices
        i = int(np.searchsorted(self.nodes, node))
        if i >= self.m or self.nodes[i] != node:
            raise KeyError(f"node {node} not in tree")
        return i

    def subtree_mask(self, child: int) -> np.ndarray:
        """Local mask of the subtree rooted at graph ordinal ``child``.

        Pointer doubling: after round k, ``inside[i]`` tells whether ``child``
        is ``i`` or one of its first 2**k - 1 ancestors, and ``up[i]`` is its
        2**k-th ancestor (the root stands in for ancestors above it).
        """
        inside = np.zeros(self.m, dtype=bool)
        inside[self.local_index(child)] = True
        up = self.parent.copy()
        up[self.root] = self.root
        for _ in range((self.m - 1).bit_length()):
            inside |= inside[up]
            up = up[up]
        return inside

    def subtree_nodes(self, child: int) -> np.ndarray:
        """Graph ordinals of the subtree rooted at ``child``, ascending."""
        return self.nodes[self.subtree_mask(child)]


def _finish_tree(induced: _Induced, parent: list, order: list) -> SpanningTree:
    """Accumulate subtree populations; ``order`` starts at the root and lists
    every parent before its children."""
    subtree = induced.pops.copy()
    for i in reversed(order[1:]):
        subtree[parent[i]] += subtree[i]
    return SpanningTree(
        nodes=induced.nodes,
        parent=np.array(parent, dtype=np.int64),
        order=np.array(order, dtype=np.int64),
        subtree_pop=np.array(subtree, dtype=np.int64),
        root=int(order[0]),
    )


def _wilson(induced: _Induced, rng: np.random.Generator):
    """Uniform spanning tree via loop-erased random walks (Wilson).

    Walk from each untouched node until the current tree is hit; overwriting
    ``succ`` along the way erases loops automatically.

    Each step takes neighbour ``rng.integers(degree)`` exactly as numpy's
    scalar call would pick it: 32-bit Lemire over the generator's uint32
    words, redrawing while the low half of ``word * degree`` falls below
    ``2**32 % degree``, and drawing nothing at a degree-1 node. The words
    are drawn in chunks ahead of need, one chunk held at a time; at the end
    the generator is reset and advanced by exactly the words used, so it
    ends where the scalar calls would have left it.
    """
    m = induced.m
    adj = induced.adj
    deg = induced.deg
    root = int(rng.integers(m))
    in_tree = [False] * m
    in_tree[root] = True
    succ = [-1] * m
    order = [root]
    saved = rng.bit_generator.state
    chunk = 2 * m + 64
    words: list = []
    pos = chunk  # index of the next unused word in ``words``
    drawn = 0
    for start in range(m):
        if in_tree[start]:
            continue
        u = start
        while not in_tree[u]:
            d = deg[u]
            if d == 1:
                succ[u] = u = adj[u][0]
                continue
            if pos == chunk:
                words = rng.integers(0, _WORD, size=chunk, dtype=np.uint32).tolist()
                drawn += chunk
                pos = 0
            x = words[pos] * d
            pos += 1
            # rejected: redraw at the same node (x & _MASK < d is the cheap precheck)
            if x & _MASK < d and x & _MASK < _WORD % d:
                continue
            succ[u] = u = adj[u][x >> 32]
        # the new branch runs from start to the tree: add it tree end first
        u = start
        branch = []
        while not in_tree[u]:
            in_tree[u] = True
            branch.append(u)
            u = succ[u]
        order += reversed(branch)
    if drawn:
        rng.bit_generator.state = saved
        rng.integers(0, _WORD, size=drawn - chunk + pos, dtype=np.uint32)
    return succ, order


def _random_mst(induced: _Induced, rng: np.random.Generator):
    """Minimum spanning tree under i.i.d. uniform edge weights, rooted at local 0."""
    m = induced.m
    weights = rng.random(induced.edge_a.size)
    # csgraph drops zero entries; the smallest positive double keeps the order
    weights[weights == 0.0] = np.nextafter(0.0, 1.0)
    tree = minimum_spanning_tree(
        coo_matrix((weights, (induced.edge_a, induced.edge_b)), shape=(m, m))
    )
    order, parent = breadth_first_order(tree, 0, directed=False, return_predecessors=True)
    parent[0] = -1
    return parent.tolist(), order.tolist()


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
    return _draw_tree(induced, rng, method)


def _draw_tree(induced, rng, method) -> SpanningTree:
    if method == "uniform":
        parent, order = _wilson(induced, rng)
    elif method == "mst":
        parent, order = _random_mst(induced, rng)
    else:
        raise ValueError(f"unknown tree method {method!r}; use one of {TREE_METHODS}")
    return _finish_tree(induced, parent, order)


@dataclass(frozen=True)
class Cut:
    """A qualifying tree cut: removing (child, parent) splits the subset."""

    child: int
    parent: int
    subtree_is_first: bool  # subtree side matches target_pops[0]


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
    s = tree.subtree_pop
    c = tree.total_population - s
    first = (np.abs(s - p1) <= tolerance * p1) & (np.abs(c - p2) <= tolerance * p2)
    second = (np.abs(s - p2) <= tolerance * p2) & (np.abs(c - p1) <= tolerance * p1)
    ok = first | second
    ok[tree.root] = False
    qualifiers = np.flatnonzero(ok)
    if not qualifiers.size:
        return None
    i = int(qualifiers[int(rng.integers(qualifiers.size))])
    return Cut(
        child=int(tree.nodes[i]),
        parent=int(tree.nodes[tree.parent[i]]),
        subtree_is_first=bool(first[i]),
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
        tree = _draw_tree(induced, rng, method)
        cut = find_balanced_cut(tree, target_pops, tolerance, rng)
        if cut is None:
            continue
        inside = tree.subtree_mask(cut.child)
        sub, rest = induced.nodes[inside], induced.nodes[~inside]
        if cut.subtree_is_first:
            return sub, rest
        return rest, sub
    return None
