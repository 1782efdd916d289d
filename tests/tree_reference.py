"""Scalar reference kernels for ``mapchain.trees``.

These are the straightforward versions of the tree kernel: Wilson's walk
with one ``rng.integers(degree)`` call per step, scipy's csgraph minimum
spanning tree for ``mst``, a per-edge loop for the balanced cut and mark
propagation for cut subtrees. The library's list-and-batch kernel must draw
the same trees, pick the same cuts and leave the generator in the same
state. The walk table is built here one node at a time, from Python
neighbour lists and ``itemgetter`` picks; ``trees._Induced`` must build the
same rows in numpy.
"""
from __future__ import annotations

from operator import itemgetter

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from mapchain.trees import _MASK, _WORD, Cut, SpanningTree


def neighbor_lists(n, edge_a, edge_b):
    """Each node's neighbours over an undirected edge list, as Python lists in
    ascending order."""
    src = np.concatenate([edge_a, edge_b])
    dst = np.concatenate([edge_b, edge_a])
    flat = dst[np.lexsort((dst, src))].tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return [flat[i:j] for i, j in zip([0] + ends[:-1], ends)]


def word_intervals(top):
    """The sorted first words of the word intervals for degrees 2..``top``, and
    per degree d in 0..``top`` the itemgetter that picks a walk row out of a
    node's neighbours followed by its exit value, which is at index d."""
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
    return starts, picks


def walk_rows(adj, top):
    """Per node u, its next node for each word interval c: ``row[c]`` is
    ``adj[u][(w * d) >> 32]`` for the words w of interval c, or the exit
    value ``m + u`` where the walk must leave the table: in the last column,
    for a word numpy redraws at degree d, and in every column when d is 0, 1
    or above ``top``."""
    starts, picks = word_intervals(top)
    m = len(adj)
    return [
        list(picks[len(nbrs)](nbrs + [m + u]))
        if len(nbrs) <= top
        else [m + u] * (len(starts) + 1)
        for u, nbrs in enumerate(adj)
    ]


def tree_edges(tree):
    """A tree's edges as (child, parent) pairs of graph ordinals."""
    return [
        (int(tree.nodes[i]), int(tree.nodes[tree.parent[i]]))
        for i in range(tree.m)
        if tree.parent[i] >= 0
    ]


def cut_edge(cut):
    """The (child, parent) tree edge that a cut removes."""
    return (cut.child, cut.parent)


def finish_tree(induced, parent, root, pops) -> SpanningTree:
    m = induced.m
    parent = np.asarray(parent, dtype=np.int64)
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


def wilson(induced, rng):
    m = induced.m
    adj = neighbor_lists(m, induced.edge_a, induced.edge_b)
    in_tree = np.zeros(m, dtype=bool)
    succ = np.full(m, -1, dtype=np.int64)
    root = int(rng.integers(m))
    in_tree[root] = True
    for start in range(m):
        u = start
        while not in_tree[u]:
            nbrs = adj[u]
            succ[u] = int(nbrs[int(rng.integers(len(nbrs)))])
            u = int(succ[u])
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = int(succ[u])
    parent = np.where(in_tree, succ, -1)
    parent[root] = -1
    return parent, root


def scipy_mst(induced, rng):
    """``mst`` by scipy's csgraph: the minimum spanning tree under the same
    ``rng.random`` edge weights, rooted at local 0."""
    m = induced.m
    weights = rng.random(induced.edge_a.size)
    # csgraph drops zero entries; the smallest positive double keeps the order
    weights[weights == 0.0] = np.nextafter(0.0, 1.0)
    tree = minimum_spanning_tree(
        coo_matrix((weights, (induced.edge_a, induced.edge_b)), shape=(m, m))
    )
    _, parent = breadth_first_order(tree, 0, directed=False, return_predecessors=True)
    parent = parent.astype(np.int64)
    parent[0] = -1
    return parent, 0


def find_balanced_cut(tree, target_pops, tolerance, rng):
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


def subtree_nodes(tree, child):
    mark = np.zeros(tree.m, dtype=bool)
    mark[tree.local_index(child)] = True
    for i in tree.order:
        p = tree.parent[i]
        if p >= 0 and mark[p] and not mark[i]:
            mark[i] = True
    return tree.nodes[mark]


def bipartition_region(graph, induced, target_pops, tolerance, rng, max_tree_retries, method):
    draw = wilson if method == "uniform" else scipy_mst
    for _ in range(max_tree_retries):
        parent, root = draw(induced, rng)
        tree = finish_tree(induced, parent, root, graph.populations)
        cut = find_balanced_cut(tree, target_pops, tolerance, rng)
        if cut is None:
            continue
        sub = subtree_nodes(tree, cut.child)
        rest = np.setdiff1d(induced.nodes, sub)
        if cut.subtree_is_first:
            return sub, rest
        return rest, sub
    return None
