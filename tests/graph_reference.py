"""References for ``graph.build_graph_from_arrays``'s node checks and for
``graph.graph_components``.

The node checks: a straight loop over ``PrecinctNode`` records, one node at
a time: the way the graph builder checked nodes when it stored one record per
node. The vectorized checks over node columns must report the same node with
the same error.

The components: a plain union-find, one edge at a time.
"""
import math

from mapchain import errors


def first_node_fault(nodes):
    """The error for the first faulty node in node order, or ``None``.

    Within a node: a repeated precinct id, then a negative population, then
    an area and a perimeter that are not finite and > 0.
    """
    seen = set()
    for node in nodes:
        if node.precinct_id in seen:
            return errors.DuplicatePrecinctId(
                f"precinct id {node.precinct_id!r} appears more than once"
            )
        seen.add(node.precinct_id)
        if node.population < 0:
            return errors.InvalidNodeData(
                f"{node.precinct_id}: population {node.population} < 0"
            )
        if not (math.isfinite(node.area) and node.area > 0):
            return errors.InvalidNodeData(f"{node.precinct_id}: area must be finite and > 0")
        if not (math.isfinite(node.perimeter) and node.perimeter > 0):
            return errors.InvalidNodeData(f"{node.precinct_id}: perimeter must be finite and > 0")
    return None


def union_find_components(n, edge_a, edge_b):
    """The smallest node of each node's component over the undirected edges
    ``zip(edge_a, edge_b)``, by union-find: each union keeps the smaller of
    the two roots, so a root is its component's smallest node."""
    parent = list(range(n))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for a, b in zip(edge_a, edge_b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(u) for u in range(n)]
