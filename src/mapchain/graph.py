"""Precinct adjacency graph, district plans, and structural queries.

The graph is immutable after construction: nodes carry precomputed geometry
scalars (area, perimeter) and administrative ids, adjacency arrives as an
explicit edge list with shared boundary lengths. No coordinate geometry
anywhere. District labels are dense integers ``0..k-1``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import errors


@dataclass(frozen=True)
class PrecinctNode:
    """One precinct: population, admin units, and geometry scalars."""

    precinct_id: str
    population: int
    county_id: str
    muni_id: str
    area: float
    perimeter: float


@dataclass(frozen=True)
class AdjacencyEdge:
    """Undirected adjacency between two precincts.

    Endpoints are node ordinals in a built graph; the ingestion layer may
    construct edges with precinct-id string endpoints and let ``build_graph``
    resolve them.
    """

    a: "int | str"
    b: "int | str"
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
    mapping = np.full(plan.k, -1, dtype=np.int64)
    nxt = 0
    out = np.empty(plan.n, dtype=np.int64)
    for i, lab in enumerate(plan.assignment):
        m = mapping[lab]
        if m < 0:
            mapping[lab] = m = nxt
            nxt += 1
        out[i] = m
    return tuple(out.tolist())


@dataclass(frozen=True, eq=False)
class PrecinctGraph:
    """Connected precinct adjacency graph with votes attached.

    Construct with :func:`build_graph`; all fields, including the numpy
    arrays, are treated as immutable and are safe to share across workers.
    Adjacency is stored once, as edge arrays sorted by ``(edge_a, edge_b)``
    with ``edge_a < edge_b``; ``edge_shared`` is each edge's shared boundary.
    """

    nodes: tuple
    node_index: dict
    elections: ElectionSet
    populations: np.ndarray
    areas: np.ndarray
    perimeters: np.ndarray
    county_codes: np.ndarray
    muni_codes: np.ndarray
    n_counties: int
    n_munis: int
    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_shared: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return int(self.edge_a.size)

    @property
    def total_population(self) -> int:
        return int(self.populations.sum())

    def precinct_ids(self) -> tuple:
        return tuple(node.precinct_id for node in self.nodes)

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
    """Validate inputs and assemble an immutable :class:`PrecinctGraph` from
    edge records whose endpoints are ordinals or precinct ids.

    Raises ``DanglingEdge`` and ``DuplicateEdge`` for the records, then what
    :func:`build_graph_from_arrays` raises.
    """
    nodes = tuple(nodes)
    node_index = {node.precinct_id: i for i, node in enumerate(nodes)}
    n = len(nodes)
    ends_a, ends_b, shared = [], [], []
    for edge in edges:
        a, b = edge.a, edge.b
        if isinstance(a, str):
            if a not in node_index:
                raise errors.DanglingEdge(f"edge endpoint {a!r} is not a precinct")
            a = node_index[a]
        if isinstance(b, str):
            if b not in node_index:
                raise errors.DanglingEdge(f"edge endpoint {b!r} is not a precinct")
            b = node_index[b]
        a, b = int(a), int(b)
        if not (0 <= a < n and 0 <= b < n):
            raise errors.DanglingEdge(f"edge ordinal out of range: ({a}, {b})")
        ends_a.append(a)
        ends_b.append(b)
        shared.append(float(edge.shared_perimeter))
    edge_a = np.array(ends_a, dtype=np.int64)
    edge_b = np.array(ends_b, dtype=np.int64)
    repeated = repeated_pairs(edge_a, edge_b)
    if repeated.size:
        a, b = sorted((int(edge_a[repeated[0]]), int(edge_b[repeated[0]])))
        raise errors.DuplicateEdge(f"duplicate edge for node pair ({a}, {b})")
    return build_graph_from_arrays(
        nodes, edge_a, edge_b, np.array(shared, dtype=np.float64), elections
    )


def repeated_pairs(edge_a: np.ndarray, edge_b: np.ndarray) -> np.ndarray:
    """Positions of the edges whose unordered pair occurs at an earlier position."""
    lo = np.minimum(edge_a, edge_b)
    hi = np.maximum(edge_a, edge_b)
    order = np.lexsort((hi, lo))  # stable: equal pairs keep their input order
    same = (lo[order][1:] == lo[order][:-1]) & (hi[order][1:] == hi[order][:-1])
    return np.sort(order[1:][same])


def build_graph_from_arrays(
    nodes: Sequence[PrecinctNode],
    edge_a: np.ndarray,
    edge_b: np.ndarray,
    edge_shared: np.ndarray,
    elections: ElectionSet,
) -> PrecinctGraph:
    """Validate inputs and assemble an immutable :class:`PrecinctGraph` from
    edge ordinal arrays, one entry per edge.

    The caller guarantees that the ordinals lie in ``0..n-1`` and that no
    unordered pair repeats (:func:`build_graph` and ``io.read_edges`` check
    both with their own messages). Raises :class:`~mapchain.errors.DisconnectedGraph`
    (listing components), ``DuplicatePrecinctId``, ``InvalidEdge``,
    ``InvalidNodeData``, or ``MissingVoteColumn``.
    """
    nodes = tuple(nodes)
    if not nodes:
        raise errors.EmptyInput("no nodes")
    n = len(nodes)

    node_index: dict = {}
    for i, node in enumerate(nodes):
        if node.precinct_id in node_index:
            raise errors.DuplicatePrecinctId(
                f"precinct id {node.precinct_id!r} appears more than once"
            )
        node_index[node.precinct_id] = i
        if node.population < 0:
            raise errors.InvalidNodeData(
                f"{node.precinct_id}: population {node.population} < 0"
            )
        if not node.area > 0:
            raise errors.InvalidNodeData(f"{node.precinct_id}: area must be > 0")
        if not node.perimeter > 0:
            raise errors.InvalidNodeData(f"{node.precinct_id}: perimeter must be > 0")

    bad = np.flatnonzero((edge_a == edge_b) | (edge_shared < 0))
    if bad.size:
        a, b, shared = int(edge_a[bad[0]]), int(edge_b[bad[0]]), float(edge_shared[bad[0]])
        if a == b:
            raise errors.InvalidEdge(f"self-loop at node {a}")
        raise errors.InvalidEdge(f"edge ({a}, {b}): shared_perimeter {shared} < 0")
    lo = np.minimum(edge_a, edge_b)
    hi = np.maximum(edge_a, edge_b)
    order = np.lexsort((hi, lo))
    edge_a, edge_b = lo[order], hi[order]
    edge_shared = np.asarray(edge_shared, dtype=np.float64)[order]

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

    labels = component_labels(neighbor_lists(n, edge_a, edge_b))
    if labels.max() > 0:
        raise errors.DisconnectedGraph(
            [np.flatnonzero(labels == c).tolist() for c in range(labels.max() + 1)]
        )

    counties, county_codes = np.unique([nd.county_id for nd in nodes], return_inverse=True)
    munis, muni_codes = np.unique([nd.muni_id for nd in nodes], return_inverse=True)

    return PrecinctGraph(
        nodes=nodes,
        node_index=node_index,
        elections=elections,
        populations=np.array([nd.population for nd in nodes], dtype=np.int64),
        areas=np.array([nd.area for nd in nodes], dtype=np.float64),
        perimeters=np.array([nd.perimeter for nd in nodes], dtype=np.float64),
        county_codes=county_codes.astype(np.int64),
        muni_codes=muni_codes.astype(np.int64),
        n_counties=len(counties),
        n_munis=len(munis),
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

    One flood fill over the edges internal to districts; a district is
    contiguous when its nodes form exactly one component.
    """
    assign = plan.assignment
    internal = assign[graph.edge_a] == assign[graph.edge_b]
    labels = component_labels(
        neighbor_lists(graph.n, graph.edge_a[internal], graph.edge_b[internal])
    )
    _, first = np.unique(labels, return_index=True)
    return (np.bincount(assign[first], minlength=plan.k) == 1).tolist()


def district_perimeter_area(graph: PrecinctGraph, plan: Plan):
    """Per-district ``(perimeters, areas)`` arrays.

    perimeter(d) = sum of node perimeters in d minus twice the shared
    boundary over edges internal to d. Raises ``NegativePerimeter`` when the
    result is not strictly positive (the shared_perimeter inputs then violate
    the per-edge bound).
    """
    assign = plan.assignment
    k = plan.k
    areas = np.bincount(assign, weights=graph.areas, minlength=k)
    perims = np.bincount(assign, weights=graph.perimeters, minlength=k)
    internal = assign[graph.edge_a] == assign[graph.edge_b]
    if internal.any():
        shared = np.bincount(
            assign[graph.edge_a[internal]],
            weights=graph.edge_shared[internal],
            minlength=k,
        )
        perims = perims - 2.0 * shared
    require_positive_perimeters(perims)
    return perims, areas


def require_positive_perimeters(perims: np.ndarray) -> None:
    """Raise ``NegativePerimeter`` naming every district whose perimeter is
    not strictly positive."""
    if (perims <= 0).any():
        bad = np.flatnonzero(perims <= 0).tolist()
        raise errors.NegativePerimeter(
            f"districts {bad} have non-positive perimeter; "
            "check shared_perimeter inputs"
        )
