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
from operator import itemgetter

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from . import errors
from .graph import PrecinctGraph, component_labels, lower_end_edges, neighbor_lists

TREE_METHODS = ("uniform", "mst")

_WORD = 1 << 32  # Generator.integers(n) for n < 2**32 draws uint32 words
_MASK = _WORD - 1

# Wilson's walk takes a step from a node of degree 2.._TABLE_DEGREE with one
# lookup. For each such degree d, numpy's pick ``(w * d) >> 32`` from a uint32
# word w is constant between the bounds ceil(j * 2**32 / d), so the union of
# these bounds cuts the words into intervals on each of which every degree's
# pick is fixed. A word that numpy redraws at degree d (the low half of w * d
# below 2**32 % d) is the first word of one of d's intervals; it gets a
# one-word interval of its own. The table stops at degree 4 because every
# benchmark workload is a rook grid, whose nodes have at most 4 neighbours:
# each further degree adds columns to every row built (7 intervals at 4, 29
# at 8) that those grids never read. Nodes of higher degree take the exact
# step.
_TABLE_DEGREE = 4


def _word_intervals(top: int):
    """The sorted first words of the intervals for degrees 2..``top``, and per
    degree d in 0..``top`` the itemgetter that picks a row (see ``_walk_rows``)
    out of a node's neighbours followed by its exit value, which is at index d."""
    starts, redrawn = {0}, {}
    for d in range(2, top + 1):
        redrawn[d] = set()
        for j in range(d):
            w = -(-(j << 32) // d)
            starts.add(w)
            if w * d & _MASK < _WORD % d:
                redrawn[d].add(w)
                starts.add(w + 1)
    starts = sorted(starts)
    picks = [itemgetter(*[d] * (len(starts) + 1)) for d in (0, 1)]
    for d in range(2, top + 1):
        picks.append(itemgetter(*[d if w in redrawn[d] else (w * d) >> 32 for w in starts], d))
    return np.array(starts, dtype=np.uint32), tuple(picks)


_STARTS, _PICK = _word_intervals(_TABLE_DEGREE)
_BOUNDS = _STARTS[1:]
_END = _STARTS.size  # the column of every row that follows each chunk of words


def _word_codes(words: np.ndarray) -> list:
    """The interval of each uint32 word, then ``_END``."""
    codes = np.searchsorted(_BOUNDS, words, side="right").tolist()
    codes.append(_END)
    return codes


def _walk_rows(adj: list) -> list:
    """Per node u, its next node for each word interval c: ``row[c]`` is
    ``adj[u][(w * d) >> 32]`` for the words w of interval c, or the exit
    value ``m + u`` where the walk must leave the table: in column ``_END``,
    for a word numpy redraws at degree d, and in every column when d is 0, 1
    or above ``_TABLE_DEGREE``."""
    m = len(adj)
    return [
        _PICK[len(nbrs)](nbrs + [m + u])
        if len(nbrs) <= _TABLE_DEGREE
        else (m + u,) * (_END + 1)
        for u, nbrs in enumerate(adj)
    ]


class _Induced:
    """Induced subgraph on a node subset, with local 0..m-1 indexing.

    ``adj[i]`` lists local node i's neighbours in ascending local order and
    ``deg[i]`` is its length; ``pops[i]`` is local node i's population.
    ``walk_table()`` holds what Wilson's walk reads besides these.
    """

    __slots__ = ("nodes", "m", "adj", "deg", "pops", "edge_a", "edge_b", "_walk")

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
        self._set_edges(np.repeat(np.arange(self.m), width)[inside], local[inside])
        self.pops = graph.populations[nodes].tolist()

    def _set_edges(self, edge_a: np.ndarray, edge_b: np.ndarray) -> None:
        """Keep the local edge list and the adjacency built from it."""
        self.edge_a = edge_a
        self.edge_b = edge_b
        self.adj = neighbor_lists(self.m, edge_a, edge_b)
        self.deg = [len(nbrs) for nbrs in self.adj]
        self._walk = None

    def walk_table(self):
        """Per node, its row of next walk nodes (see ``_walk_rows``) and
        whether it takes the exact step: degree 1 or above ``_TABLE_DEGREE``.
        Built on the first uniform draw and kept for the retries."""
        if self._walk is None:
            exact = [d == 1 or d > _TABLE_DEGREE for d in self.deg]
            self._walk = (_walk_rows(self.adj), exact)
        return self._walk

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
    are drawn in chunks ahead of need, one chunk held at a time, and each
    chunk is classified once into word intervals (``_word_codes``). A step
    from a node u of degree 2.._TABLE_DEGREE is then one lookup in its row of
    next nodes (``_Induced.walk_table``). The lookup gives a value of m or
    more instead where the table does not decide: ``2 * m`` at a tree node,
    which ends the walk, and u's exit value ``m + u`` at a node of another
    degree, at a word numpy redraws and at the end of a chunk. The walk then
    steps back over that word and takes exact steps (a degree-1 node's only
    neighbour, or the word rule above on the chunk's words as Python ints)
    until it reaches a node the table decides, or draws the next chunk. At
    the end the generator is reset and advanced by exactly the words used,
    so it ends where the scalar calls would have left it.
    """
    m = induced.m
    adj = induced.adj
    deg = induced.deg
    rows, exact = induced.walk_table()
    # a node that joins the tree gets a row of 2 * m, which is no node's exit
    # value; the walk writes it to the succ of the tree node it ends at, so
    # the tree's edges are kept apart in ``parent``
    tree_exit = 2 * m
    tree_row = (tree_exit,) * (_END + 1)
    rows = rows.copy()
    exact = exact.copy()
    root = int(rng.integers(m))
    rows[root] = tree_row
    exact[root] = False
    succ = [-1] * m
    parent = [-1] * m
    order = [root]
    saved = rng.bit_generator.state
    block, words, codes = None, None, [_END]
    pos = chunk = 0  # codes[pos] is the next unused word's interval
    drawn = 0
    for start in range(m):
        if rows[start] is tree_row:
            continue
        u = start
        while True:
            while u < m:
                succ[u] = u = rows[u][codes[pos]]
                pos += 1
            pos -= 1
            if u == tree_exit:
                break
            u -= m
            while True:
                d = deg[u]
                if d == 1:
                    succ[u] = u = adj[u][0]
                elif pos == chunk:  # back to the table with the next chunk
                    chunk = 2 * m + 64
                    block = rng.integers(0, _WORD, size=chunk, dtype=np.uint32)
                    codes = _word_codes(block)
                    words = None  # the block as ints, made on its first exact step
                    drawn += chunk
                    pos = 0
                    break
                else:
                    if words is None:
                        words = block.tolist()
                    x = words[pos] * d
                    pos += 1
                    # rejected: redraw at the same node (x & _MASK < d is the cheap precheck)
                    if x & _MASK < d and x & _MASK < _WORD % d:
                        continue
                    succ[u] = u = adj[u][x >> 32]
                if not exact[u]:
                    break
        # the new branch runs from start to the tree: add it tree end first
        u = start
        branch = []
        while rows[u] is not tree_row:
            rows[u] = tree_row
            exact[u] = False
            branch.append(u)
            parent[u] = u = succ[u]
        order += reversed(branch)
    if drawn:
        rng.bit_generator.state = saved
        rng.integers(0, _WORD, size=drawn - chunk + pos, dtype=np.uint32)
    return parent, order


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
