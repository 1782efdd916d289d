"""Precinct adjacency graph, district plans, and structural queries.

The graph is immutable after construction: each node attribute (id,
population, administrative units, precomputed area and perimeter) is one
column indexed by node ordinal, and adjacency is one set of edge arrays with
shared boundary lengths. No coordinate geometry anywhere. District labels
are dense integers ``0..k-1``.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import errors


@dataclass(frozen=True)
class PrecinctNode:
    """One precinct's record, an input to :func:`build_graph`: population,
    admin units, and geometry scalars. The graph keeps each field as a column."""

    precinct_id: str
    population: int
    county_id: str
    muni_id: str
    area: float
    perimeter: float


# The node attributes, in nodes.csv column order; also the keys of the node
# columns that build_graph_from_arrays takes.
NODE_COLUMNS = tuple(f.name for f in fields(PrecinctNode))


@dataclass(frozen=True)
class AdjacencyEdge:
    """Undirected adjacency between two precincts, by node ordinal."""

    a: int
    b: int
    shared_perimeter: float = 1.0


@dataclass(frozen=True)
class Contest:
    """Two-party vote counts for one contest, one entry per node ordinal."""

    name: str
    dem: np.ndarray
    rep: np.ndarray


class ElectionSet:
    """Named two-party contests over a fixed node ordering."""

    def __init__(self, contests: Sequence[Contest]):
        self.contests = tuple(contests)
        self._index = {c.name: i for i, c in enumerate(self.contests)}
        if len(self._index) != len(self.contests):
            names = [c.name for c in self.contests]
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise errors.DuplicateContest(f"duplicate contest names: {dupes}")

    def names(self) -> tuple:
        return tuple(c.name for c in self.contests)

    def index(self, name: str) -> int:
        """Position of the named contest in ``contests``."""
        try:
            return self._index[name]
        except KeyError:
            raise errors.UnknownContest(name, self.names()) from None

    def get(self, name: str) -> Contest:
        return self.contests[self.index(name)]

    def __contains__(self, name) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self.contests)

    def __len__(self) -> int:
        return len(self.contests)


class Plan:
    """Assignment of every node to one of ``k`` districts.

    Labels are dense: every value lies in ``0..k-1`` and every district is
    nonempty. The assignment array is frozen; derive new plans by copying.
    """

    __slots__ = ("assignment", "k")

    def __init__(self, assignment, k: int):
        arr = np.ascontiguousarray(assignment, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("assignment must be a nonempty 1-d sequence")
        k = int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= k:
            raise ValueError(f"district labels must lie in 0..{k - 1}, saw {lo}..{hi}")
        counts = np.bincount(arr, minlength=k)
        if (counts == 0).any():
            empty = np.flatnonzero(counts == 0).tolist()
            raise ValueError(f"empty districts: {empty}")
        arr.setflags(write=False)
        self.assignment = arr
        self.k = k

    @classmethod
    def unchecked(cls, assignment: np.ndarray, k: int) -> "Plan":
        """A plan of an int64 ``assignment`` that the caller knows is valid,
        without the O(n) label checks; ``assignment`` is frozen in place."""
        plan = cls.__new__(cls)
        assignment.setflags(write=False)
        plan.assignment = assignment
        plan.k = k
        return plan

    @property
    def n(self) -> int:
        return int(self.assignment.size)

    def district_nodes(self, d: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == d)

    def __eq__(self, other):
        return (
            isinstance(other, Plan)
            and self.k == other.k
            and np.array_equal(self.assignment, other.assignment)
        )

    def __hash__(self):
        return hash((self.k, self.assignment.tobytes()))

    def __repr__(self):
        return f"Plan(k={self.k}, n={self.n})"


def canonical_form(plan: Plan) -> tuple:
    """Assignment relabeled by order of first appearance in node order.

    Two plans are the same partition iff their canonical forms are equal.
    """
    first = {}
    return tuple(first.setdefault(x, len(first)) for x in plan.assignment.tolist())


@dataclass(frozen=True, eq=False)
class PrecinctGraph:
    """Connected precinct adjacency graph with votes attached.

    Construct with :func:`build_graph` or :func:`build_graph_from_arrays`;
    all fields, including the numpy arrays, are treated as immutable and are
    safe to share across workers. Each node attribute is stored once, as a
    column indexed by node ordinal; ``county_codes``/``muni_codes`` index
    ``county_names``/``muni_names``. Adjacency is stored once, as edge arrays
    sorted by ``(edge_a, edge_b)`` with ``edge_a < edge_b``; ``edge_shared``
    is each edge's shared boundary.
    """

    precinct_ids: tuple
    node_index: dict
    elections: ElectionSet
    populations: np.ndarray
    areas: np.ndarray
    perimeters: np.ndarray
    county_codes: np.ndarray
    muni_codes: np.ndarray
    county_names: tuple
    muni_names: tuple
    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_shared: np.ndarray

    @property
    def n(self) -> int:
        return len(self.precinct_ids)

    @property
    def n_edges(self) -> int:
        return int(self.edge_a.size)

    @property
    def n_counties(self) -> int:
        return len(self.county_names)

    @property
    def n_munis(self) -> int:
        return len(self.muni_names)

    @property
    def total_population(self) -> int:
        return int(self.populations.sum())

    def __repr__(self):
        return (
            f"PrecinctGraph(n={self.n}, edges={self.n_edges}, "
            f"counties={self.n_counties}, munis={self.n_munis}, "
            f"contests={len(self.elections)})"
        )


def neighbor_lists(n: int, edge_a: np.ndarray, edge_b: np.ndarray) -> list:
    """Each node's neighbours over an undirected edge list, as Python lists in
    ascending order."""
    src = np.concatenate([edge_a, edge_b])
    dst = np.concatenate([edge_b, edge_a])
    flat = dst[np.lexsort((dst, src))].tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return [flat[i:j] for i, j in zip([0] + ends[:-1], ends)]


def concat_ranges(first: np.ndarray, width: np.ndarray) -> np.ndarray:
    """``first[i], ..., first[i] + width[i] - 1`` for every ``i`` in turn, as
    one array: the positions of several slices of one array."""
    starts = first + width
    starts -= np.cumsum(width)
    out = np.repeat(starts, width)
    out += np.arange(out.size)
    return out


def lower_end_edges(graph: PrecinctGraph, nodes: np.ndarray):
    """``(edges, width)``: the ids of the edges whose lower end ``edge_a`` is
    among ``nodes`` (ascending), in ascending edge order, and how many of
    them each node has. Every edge with both ends among the nodes is one."""
    first = np.searchsorted(graph.edge_a, nodes)
    width = np.searchsorted(graph.edge_a, nodes, side="right") - first
    return concat_ranges(first, width), width


def graph_components(n: int, edge_a: np.ndarray, edge_b: np.ndarray) -> np.ndarray:
    """Connected-component id of every node over an undirected edge list,
    numbered in no set order, by scipy's csgraph: over a whole graph it is
    ten times faster than :func:`component_labels`, which costs less on
    regions of a few hundred nodes."""
    adjacency = coo_matrix((np.ones(edge_a.size, dtype=np.int8), (edge_a, edge_b)), shape=(n, n))
    return connected_components(adjacency, directed=False)[1]


def component_labels(neighbors: Sequence[list]) -> np.ndarray:
    """Connected-component id of every node, by iterative flood fill.

    Components are numbered 0, 1, ... in the order of their smallest node.
    """
    label = [-1] * len(neighbors)
    comp = 0
    for start in range(len(neighbors)):
        if label[start] >= 0:
            continue
        label[start] = comp
        stack = [start]
        while stack:
            for v in neighbors[stack.pop()]:
                if label[v] < 0:
                    label[v] = comp
                    stack.append(v)
        comp += 1
    return np.array(label, dtype=np.int64)


def build_graph(
    nodes: Sequence[PrecinctNode],
    edges: Iterable[AdjacencyEdge],
    elections: ElectionSet,
) -> PrecinctGraph:
    """Validate records and assemble an immutable :class:`PrecinctGraph`
    from node records and edge records whose endpoints are node ordinals.

    Raises ``DanglingEdge`` and ``DuplicateEdge`` for the first bad edge
    record, then what :func:`build_graph_from_arrays` raises.
    """
    columns = {name: [getattr(node, name) for node in nodes] for name in NODE_COLUMNS}
    ids = columns["precinct_id"]
    edges = list(edges)
    edge_a = np.array([edge.a for edge in edges], dtype=np.int64)
    edge_b = np.array([edge.b for edge in edges], dtype=np.int64)
    outside = np.flatnonzero(
        (np.minimum(edge_a, edge_b) < 0) | (np.maximum(edge_a, edge_b) >= len(ids))
    )
    if outside.size:
        a, b = int(edge_a[outside[0]]), int(edge_b[outside[0]])
        raise errors.DanglingEdge(f"edge ordinal out of range: ({a}, {b})")
    repeated = repeated_pairs(edge_a, edge_b)
    if repeated.size:
        a, b = sorted((int(edge_a[repeated[0]]), int(edge_b[repeated[0]])))
        raise errors.DuplicateEdge(f"duplicate edge for node pair ({a}, {b})")
    edge_shared = np.array([edge.shared_perimeter for edge in edges], dtype=np.float64)
    return build_graph_from_arrays(
        columns, dict(zip(ids, range(len(ids)))), edge_a, edge_b, edge_shared, elections
    )


def repeated_pairs(edge_a: np.ndarray, edge_b: np.ndarray) -> np.ndarray:
    """Positions of the edges whose unordered pair occurs at an earlier position."""
    lo = np.minimum(edge_a, edge_b)
    hi = np.maximum(edge_a, edge_b)
    order = np.lexsort((hi, lo))  # stable: equal pairs keep their input order
    same = (lo[order][1:] == lo[order][:-1]) & (hi[order][1:] == hi[order][:-1])
    return np.sort(order[1:][same])


def build_graph_from_arrays(
    columns: dict,
    node_index: dict,
    edge_a: np.ndarray,
    edge_b: np.ndarray,
    edge_shared: np.ndarray,
    elections: ElectionSet,
) -> PrecinctGraph:
    """Validate inputs and assemble an immutable :class:`PrecinctGraph` from
    node columns and edge ordinal arrays.

    ``columns`` maps each name in ``NODE_COLUMNS`` to one value per node, in
    node order, and ``node_index`` is ``dict(zip(ids, range(n)))`` over its
    precinct ids. The caller guarantees that the edge ordinals lie in
    ``0..n-1`` and that no unordered pair repeats (:func:`build_graph` and
    ``io.read_edges`` check both with their own messages).

    The first faulty node in node order raises: a repeated precinct id
    (``DuplicatePrecinctId``), then a negative population or an area or
    perimeter that is not finite and > 0 (``InvalidNodeData``), checked in
    that order within a node. Then raises ``InvalidEdge`` (a self-loop, or a
    shared perimeter that is not finite and >= 0), ``MissingVoteColumn``,
    ``InvalidNodeData`` for negative votes, or
    :class:`~mapchain.errors.DisconnectedGraph` (listing components).
    """
    ids = tuple(columns["precinct_id"])
    n = len(ids)
    if not n:
        raise errors.EmptyInput("no nodes")
    populations = np.array(columns["population"], dtype=np.int64)
    areas = np.array(columns["area"], dtype=np.float64)
    perimeters = np.array(columns["perimeter"], dtype=np.float64)
    repeated = np.zeros(n, dtype=bool)
    if len(node_index) < n:  # every occurrence of an id but its first
        first = dict(zip(reversed(ids), range(n - 1, -1, -1)))
        repeated[:] = True
        repeated[list(first.values())] = False
    faults = np.stack([repeated, populations < 0, ~(np.isfinite(areas) & (areas > 0)),
                       ~(np.isfinite(perimeters) & (perimeters > 0))])
    bad = np.flatnonzero(faults.any(axis=0))
    if bad.size:
        i = int(bad[0])
        pid = ids[i]
        raise (
            errors.DuplicatePrecinctId(f"precinct id {pid!r} appears more than once"),
            errors.InvalidNodeData(f"{pid}: population {int(populations[i])} < 0"),
            errors.InvalidNodeData(f"{pid}: area must be finite and > 0"),
            errors.InvalidNodeData(f"{pid}: perimeter must be finite and > 0"),
        )[int(np.argmax(faults[:, i]))]

    edge_shared = np.asarray(edge_shared, dtype=np.float64)
    bad = np.flatnonzero((edge_a == edge_b) | ~(np.isfinite(edge_shared) & (edge_shared >= 0)))
    if bad.size:
        a, b, shared = int(edge_a[bad[0]]), int(edge_b[bad[0]]), float(edge_shared[bad[0]])
        if a == b:
            raise errors.InvalidEdge(f"self-loop at node {a}")
        raise errors.InvalidEdge(
            f"edge ({a}, {b}): shared_perimeter {shared} must be finite and >= 0"
        )
    lo = np.minimum(edge_a, edge_b)
    hi = np.maximum(edge_a, edge_b)
    order = np.lexsort((hi, lo))
    edge_a, edge_b = lo[order], hi[order]
    edge_shared = edge_shared[order]

    for contest in elections:
        for side, arr in (("D", contest.dem), ("R", contest.rep)):
            arr = np.asarray(arr)
            if arr.shape != (n,):
                raise errors.MissingVoteColumn(
                    f"contest {contest.name!r} side {side}: expected {n} vote "
                    f"entries, got {arr.shape}"
                )
            if (arr < 0).any():
                raise errors.InvalidNodeData(
                    f"contest {contest.name!r} side {side}: negative vote count"
                )
    elections = ElectionSet(
        [
            Contest(
                c.name,
                np.ascontiguousarray(c.dem, dtype=np.int64),
                np.ascontiguousarray(c.rep, dtype=np.int64),
            )
            for c in elections
        ]
    )

    labels = graph_components(n, edge_a, edge_b)
    if labels.max() > 0:
        _, first = np.unique(labels, return_index=True)  # each component's smallest node
        raise errors.DisconnectedGraph(
            [np.flatnonzero(labels == c).tolist() for c in labels[np.sort(first)]]
        )

    counties, county_codes = np.unique(columns["county_id"], return_inverse=True)
    munis, muni_codes = np.unique(columns["muni_id"], return_inverse=True)

    return PrecinctGraph(
        precinct_ids=ids,
        node_index=node_index,
        elections=elections,
        populations=populations,
        areas=areas,
        perimeters=perimeters,
        county_codes=county_codes.astype(np.int64),
        muni_codes=muni_codes.astype(np.int64),
        county_names=tuple(counties.tolist()),
        muni_names=tuple(munis.tolist()),
        edge_a=edge_a,
        edge_b=edge_b,
        edge_shared=edge_shared,
    )


def district_populations(graph: PrecinctGraph, plan: Plan) -> np.ndarray:
    """Population of each district; sums exactly to the graph total."""
    out = np.bincount(
        plan.assignment, weights=graph.populations.astype(np.float64), minlength=plan.k
    )
    return out.astype(np.int64)


def is_contiguous(graph: PrecinctGraph, plan: Plan) -> list:
    """Per-district flag: does the district induce a connected subgraph?

    One component search over the edges internal to districts; a district
    is contiguous when its nodes form exactly one component.
    """
    assign = plan.assignment
    internal = assign[graph.edge_a] == assign[graph.edge_b]
    labels = graph_components(graph.n, graph.edge_a[internal], graph.edge_b[internal])
    _, first = np.unique(labels, return_index=True)
    return (np.bincount(assign[first], minlength=plan.k) == 1).tolist()


def district_perimeter_area(graph: PrecinctGraph, plan: Plan):
    """Per-district ``(perimeters, areas)`` arrays (:func:`district_geometry`);
    raises ``NegativePerimeter`` when a perimeter is not strictly positive
    (the shared_perimeter inputs then violate the per-edge bound)."""
    perims, areas = district_geometry(
        graph, plan.assignment, np.arange(graph.n), plan.assignment, plan.k
    )
    require_positive_perimeters(perims)
    return perims, areas


def district_geometry(graph: PrecinctGraph, assignment, nodes, local, size: int):
    """``(perimeters, areas)`` of the ``size`` districts holding ``nodes``
    (ascending) under ``assignment``, ``local`` being each node's district
    among them: perimeter(d) is the sum of node perimeters in d minus twice
    the shared boundary of the edges internal to d. Nodes and edges are added
    in ascending order, as ``np.bincount`` adds a whole plan, so a district's
    sums are the same whichever other districts are asked for."""
    areas = np.bincount(local, graph.areas[nodes], size)
    perimeters = np.bincount(local, graph.perimeters[nodes], size)
    edges, width = lower_end_edges(graph, nodes)
    inside = assignment[graph.edge_a[edges]] == assignment[graph.edge_b[edges]]
    shared = np.bincount(np.repeat(local, width)[inside], graph.edge_shared[edges[inside]], size)
    return perimeters - 2.0 * shared, areas


def require_positive_perimeters(perims: np.ndarray) -> None:
    """Raise ``NegativePerimeter`` naming every district whose perimeter is
    not strictly positive."""
    if (perims <= 0).any():
        bad = np.flatnonzero(perims <= 0).tolist()
        raise errors.NegativePerimeter(
            f"districts {bad} have non-positive perimeter; "
            "check shared_perimeter inputs"
        )
