"""Whole-graph reference for the chain's pair choice and induced subgraph.

Here every step counts the adjacent district pairs over all edges, and the
merged region's subgraph is cut out of the whole graph with masks over all
n nodes and m edges. A chain run with these in place of
``mapchain.chain.PairTable``, ``mapchain.chain.adjacent_district_pairs`` and
``mapchain.trees._Induced`` must write the same trace, byte for byte.
"""
from __future__ import annotations

import numpy as np

from mapchain.trees import _Induced

from tree_reference import neighbor_lists


def cross_edges(graph, plan) -> np.ndarray:
    """Ids of the edges whose ends lie in different districts, ascending."""
    return np.flatnonzero(plan.assignment[graph.edge_a] != plan.assignment[graph.edge_b])


def pair_keys(graph, plan) -> np.ndarray:
    """``lo * k + hi`` of every adjacent district pair, ascending."""
    a = plan.assignment[graph.edge_a]
    b = plan.assignment[graph.edge_b]
    cross = a != b
    lo = np.minimum(a[cross], b[cross])
    hi = np.maximum(a[cross], b[cross])
    return np.unique(lo * plan.k + hi)


def adjacent_district_pairs(graph, plan, pairs=None) -> np.ndarray:
    """Counted over all edges, whatever ``pairs`` holds."""
    keys = pair_keys(graph, plan)
    return np.stack([keys // plan.k, keys % plan.k], axis=1)


class RecountedPairs:
    """Stands in for ``PairTable``: every move recounts over all edges."""

    def __init__(self, graph, plan, pair_selection):
        self.graph = graph
        self.move(plan, None, None)

    def move(self, plan, districts, nodes):
        self.keys = pair_keys(self.graph, plan)
        self.cross = cross_edges(self.graph, plan)


class MaskedInduced(_Induced):
    """``_Induced`` built by mapping every graph node to its local index and
    masking all edges, which keeps them in ascending edge order, with
    neighbour lists sorted from those edges."""

    def __init__(self, graph, subset, region=None):
        nodes = np.unique(np.asarray(subset, dtype=np.int64))  # ``region`` is not read
        self.nodes = nodes
        self.m = int(nodes.size)
        local_of = np.full(graph.n, -1, dtype=np.int64)
        local_of[nodes] = np.arange(self.m)
        la = local_of[graph.edge_a]
        lb = local_of[graph.edge_b]
        mask = (la >= 0) & (lb >= 0)
        adj = neighbor_lists(self.m, la[mask], lb[mask])
        nbr = np.array([v for nbrs in adj for v in nbrs], dtype=np.int64)
        deg = np.array([len(nbrs) for nbrs in adj], dtype=np.int64)
        self._set_adjacency(la[mask], lb[mask], nbr, deg)
        self.pops = graph.populations[nodes].tolist()
