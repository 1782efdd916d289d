"""Reference for the node checks of ``graph.build_graph_from_arrays``.

A straight loop over ``PrecinctNode`` records, one node at a time: the way
the graph builder checked nodes when it stored one record per node. The
vectorized checks over node columns must report the same node with the same
error.
"""
from mapchain import errors


def first_node_fault(nodes):
    """The error for the first faulty node in node order, or ``None``.

    Within a node: a repeated precinct id, then a negative population, then
    an area and a perimeter that are not > 0.
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
        if not node.area > 0:
            return errors.InvalidNodeData(f"{node.precinct_id}: area must be > 0")
        if not node.perimeter > 0:
            return errors.InvalidNodeData(f"{node.precinct_id}: perimeter must be > 0")
    return None
