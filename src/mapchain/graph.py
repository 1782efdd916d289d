"""Precinct adjacency graph, district plans, and structural queries.

The graph is immutable after construction: each node attribute (id,
population, administrative units, precomputed area and perimeter) is one
column indexed by node ordinal, and adjacency is one set of edge arrays with
shared boundary lengths. No coordinate geometry anywhere. District labels
are dense integers ``0..k-1``. :func:`within_window` is the one
population-balance rule that the samplers and the oracle apply;
:func:`window_bounds` gives its integer bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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
INT64_MAX = 2**63 - 1


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
    is each edge's shared boundary. ``votes`` holds every contest's Democratic
    counts, then every contest's Republican counts, one row each in contest
    order; each ``Contest`` of ``elections`` has two of its rows as arrays.
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
    votes: np.ndarray

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

    @cached_property
    def total_population(self) -> int:
        """The population of every node, summed once (a chain step reads it)."""
        return int(self.populations.sum())

    @cached_property
    def neighbors(self) -> "NeighborIndex":
        """The graph's :class:`NeighborIndex`, built on first use and kept."""
        return NeighborIndex.of(self.n, self.edge_a, self.edge_b)

    def __repr__(self):
        return (
            f"PrecinctGraph(n={self.n}, edges={self.n_edges}, "
            f"counties={self.n_counties}, munis={self.n_munis}, "
            f"contests={len(self.elections)})"
        )


@dataclass(frozen=True)
class NeighborIndex:
    """Every node's incident edges, at either end, sorted by neighbour: node v's
    neighbours are ``nbrs[start[v]:start[v] + degree[v]]``, ascending, and
    ``edges`` holds the id of the edge to each one at the same positions.

    ``position`` is an n-sized scratch array, all -1, that :meth:`gather`
    writes its nodes' local ids into and resets before it returns, so that it
    maps neighbours to local ids in O(region). Two threads must not gather
    from one graph at once; the CLI's workers are processes, each with its
    own graph."""

    start: np.ndarray
    degree: np.ndarray
    nbrs: np.ndarray
    edges: np.ndarray
    position: np.ndarray

    @classmethod
    def of(cls, n: int, edge_a: np.ndarray, edge_b: np.ndarray) -> "NeighborIndex":
        ends = np.concatenate((edge_a, edge_b))
        far = np.concatenate((edge_b, edge_a))
        order = np.lexsort((far, ends))  # position e and e + n_edges both hold edge e
        degree = np.bincount(ends, minlength=n)
        return cls(degree.cumsum() - degree, degree, far[order], order % edge_a.size,
                   np.full(n, -1, dtype=np.int64))

    def gather(self, nodes: np.ndarray) -> "Region":
        """The :class:`Region` of ``nodes``, an ascending int64 array of
        distinct node ordinals: their slices of this index, in one gather."""
        m = nodes.size
        width = self.degree[nodes]
        at = concat_ranges(self.start[nodes], width)
        far = self.nbrs[at]
        ids = np.arange(m)
        position = self.position  # all -1 but during this gather
        position[nodes] = ids
        local = position[far]
        position[nodes] = -1
        return Region(nodes, width, ids.repeat(width), far, self.edges[at], local)


class Region(NamedTuple):
    """A node set's slices of the graph's :class:`NeighborIndex`, gathered
    once and read by everything a ReCom step does to its merged districts:
    the subgraph the tree is drawn on (``trees._Induced``), the districts'
    geometry (:func:`district_geometry`) and the pair table's move.

    ``nodes`` are ascending, and node i, the local id, has ``width[i]``
    neighbours. The gathered positions run node by node, each node's
    neighbours ascending: at each, ``near`` is the local id of its node,
    ``far`` the neighbour, ``edges`` the edge between them and ``local`` the
    neighbour's local id, or -1 outside the set. An edge with both ends in
    the set appears twice, once from each end; from its lower end (where
    ``local > near``) the positions list those edges in ascending edge id,
    the order that ``edge_a``/``edge_b`` hold them in."""

    nodes: np.ndarray
    width: np.ndarray
    near: np.ndarray
    far: np.ndarray
    edges: np.ndarray
    local: np.ndarray


def label_order(labels: np.ndarray, size: int) -> np.ndarray:
    """A stable argsort of ``labels``, each in ``0..size-1``: the positions
    grouped by label, ascending within each group. Labels that fit 16 bits
    are sorted as uint16, which numpy radix-sorts in O(n); an int64 sort of
    a whole plan's labels costs ten times as much."""
    if size <= 1 << 16:
        labels = labels.astype(np.uint16)
    return np.argsort(labels, kind="stable")


def concat_ranges(first: np.ndarray, width: np.ndarray) -> np.ndarray:
    """``first[i], ..., first[i] + width[i] - 1`` for every ``i`` in turn, as
    one array: the positions of several slices of one array. (The array
    methods skip the wrappers of ``np.cumsum`` and ``np.repeat``, which cost
    more than the work on a region's few hundred nodes.)"""
    starts = first + width
    starts -= width.cumsum()
    out = starts.repeat(width)
    out += np.arange(out.size)
    return out


def graph_components(n: int, edge_a: np.ndarray, edge_b: np.ndarray) -> np.ndarray:
    """Label of every node over an undirected edge list: the smallest node
    of its component, so the component roots are the nodes labelled with
    themselves and ``labels.max() > 0`` means more than one component.

    Searched in rounds. At the start of a round every label is a root, a
    node labelled with itself. Edges whose two ends share a label are dropped
    for good (none is, in the first round of a graph without self-loops, so
    its edges are not copied). Each root hooks to the smallest root across
    its remaining edges when that one is smaller, and ``label = label[label]``
    runs until no label moves, into one reused buffer. A hook points to a
    smaller node, so none closes a cycle and every label stays at or below
    its node: once no edge is left, each label is its component's smallest
    node. A root that neither hooks nor is hooked to in a round has only
    neighbours that hooked to smaller roots, so it hooks in the next round.
    Two rounds thus leave at most as many roots with edges as the first
    round hooked to, at most half of those it began with: O(log n) rounds.
    """
    label = np.arange(n)
    up = np.empty_like(label)
    lo, hi = edge_a, edge_b  # the labels of the edges' two ends
    while True:
        differ = lo != hi
        if not differ.all():
            # flatnonzero, not a boolean mask: four takes by a mask with no
            # pattern cost more than the rest of a round on a permuted grid
            keep = np.flatnonzero(differ)
            edge_a, edge_b, lo, hi = edge_a[keep], edge_b[keep], lo[keep], hi[keep]
        if not edge_a.size:
            return label
        np.minimum.at(label, np.maximum(lo, hi), np.minimum(lo, hi))
        while True:
            label.take(label, out=up)
            if np.array_equal(up, label):
                break
            label, up = up, label
        lo, hi = label[edge_a], label[edge_b]


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
    ``InvalidNodeData`` for negative votes or for a population or vote
    column whose total exceeds ``2**63 - 1``, or
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
    votes = np.array([c.dem for c in elections] + [c.rep for c in elections],
                     dtype=np.int64).reshape(2 * len(elections), n)
    # an int64 sum of a column whose total exceeds 2**63 - 1 wraps; the exact
    # total is taken only where max * n could be that large
    labels = ["population"] + [f"contest {c.name!r} side {s}" for s in "DR" for c in elections]
    for label, column in zip(labels, [populations, *votes]):
        total = sum(column.tolist()) if int(column.max()) * n > INT64_MAX else 0
        if total > INT64_MAX:
            raise errors.InvalidNodeData(f"{label}: total {total} exceeds 2**63 - 1")
    elections = ElectionSet(
        [Contest(c.name, votes[i], votes[len(elections) + i]) for i, c in enumerate(elections)]
    )

    labels = graph_components(n, edge_a, edge_b)
    if labels.max() > 0:
        roots = np.flatnonzero(labels == np.arange(n))  # each component's smallest node
        raise errors.DisconnectedGraph([np.flatnonzero(labels == c).tolist() for c in roots])

    counties, county_codes = _unit_codes(columns["county_id"])
    munis, muni_codes = _unit_codes(columns["muni_id"])

    return PrecinctGraph(
        precinct_ids=ids,
        node_index=node_index,
        elections=elections,
        populations=populations,
        areas=areas,
        perimeters=perimeters,
        county_codes=county_codes,
        muni_codes=muni_codes,
        county_names=counties,
        muni_names=munis,
        edge_a=edge_a,
        edge_b=edge_b,
        edge_shared=edge_shared,
        votes=votes,
    )


def _unit_codes(ids) -> tuple:
    """The distinct unit ``ids``, sorted, and each id's position among them
    as an int64 array. Python strings, not a numpy string array, which would
    drop trailing NUL characters and merge ``"A"`` with ``"A\\x00"``."""
    names = sorted(set(ids))
    code = dict(zip(names, range(len(names))))
    return tuple(names), np.fromiter(map(code.__getitem__, ids), dtype=np.int64, count=len(ids))


def district_populations(graph: PrecinctGraph, plan: Plan) -> np.ndarray:
    """Population of each district, summed exactly in int64 (the graph total
    fits in int64, so no district sum can wrap)."""
    out = np.zeros(plan.k, dtype=np.int64)
    np.add.at(out, plan.assignment, graph.populations)
    return out


def within_window(pops, target, tolerance: float):
    """The population-balance rule, for a number or an array of populations:
    ``abs(pops - target) <= tolerance * target``. The chain's cut search (by
    its integer form, :func:`window_bounds`), its plan check and the oracle's
    catalog all apply this one rule, so the catalog lists exactly the plans
    the chain can accept."""
    return abs(pops - target) <= tolerance * target


def window_bounds(target, tolerance: float) -> tuple:
    """``(lo, hi)``: the smallest and largest integer population in the int64
    range, which holds every population, that :func:`within_window` accepts
    at ``target``; ``lo > hi`` when it accepts none (a negative or NaN
    tolerance, ``0 * inf``, or no integer close enough).

    Found by evaluating ``within_window`` itself, so the bounds are exact
    where its float arithmetic rounds, past 2**53 too. Its value
    ``fl(fl(x) - target)`` does not decrease as x grows, so the integers it
    accepts form one interval, and that interval holds ``floor(target)`` or
    the integer after it when it is not empty. Each end is searched from
    ``target -/+ tolerance * target``: usually two evaluations."""
    low, high = -INT64_MAX - 1, INT64_MAX

    def accepts(x: int) -> bool:
        return bool(within_window(x, target, tolerance))

    if not math.isfinite(target):  # every population is as far away: all or none
        return (low, high) if accepts(0) else (1, 0)
    center = min(max(math.floor(target), low), high)
    if not accepts(center):
        center = min(center + 1, high)
        if not accepts(center):
            return (1, 0)
    reach = tolerance * target

    def guess(edge: float) -> int:
        return int(min(max(edge, low), high))

    hi = center + _reach(lambda y: accepts(center + y), guess(target + reach) - center,
                         high - center)
    lo = center - _reach(lambda y: accepts(center - y), center - guess(target - reach),
                         center - low)
    return lo, hi


def _reach(accepts, guess: int, top: int) -> int:
    """The largest y in ``0..top`` that ``accepts``, which holds on ``0..Y``
    and nowhere else: tries ``guess`` (clamped into ``0..top``), brackets Y
    by steps of 1, 2, 4, ... away from it, then bisects."""
    guess, step = min(max(guess, 0), top), 1
    if accepts(guess):
        inside, outside = guess, min(guess + step, top + 1)
        while outside <= top and accepts(outside):
            inside, step = outside, 2 * step
            outside = min(inside + step, top + 1)
    else:
        inside, outside = max(guess - step, 0), guess
        while not accepts(inside):
            outside, step = inside, 2 * step
            inside = max(outside - step, 0)
    while outside - inside > 1:
        mid = (inside + outside) // 2
        if accepts(mid):
            inside = mid
        else:
            outside = mid
    return inside


def is_contiguous(graph: PrecinctGraph, plan: Plan) -> list:
    """Per-district flag: does the district induce a connected subgraph?

    One component search over the edges internal to districts; a district
    is contiguous when its nodes form exactly one component.
    """
    assign = plan.assignment
    internal = assign[graph.edge_a] == assign[graph.edge_b]
    labels = graph_components(graph.n, graph.edge_a[internal], graph.edge_b[internal])
    roots = np.flatnonzero(labels == np.arange(graph.n))
    return (np.bincount(assign[roots], minlength=plan.k) == 1).tolist()


def district_perimeter_area(graph: PrecinctGraph, plan: Plan):
    """Per-district ``(perimeters, areas)`` arrays (:func:`district_geometry`);
    raises ``NegativePerimeter`` when a perimeter is not strictly positive
    (the shared_perimeter inputs then violate the per-edge bound)."""
    perims, areas = district_geometry(graph, np.arange(graph.n), plan.assignment, plan.k)
    require_positive_perimeters(perims)
    return perims, areas


def district_geometry(graph: PrecinctGraph, nodes, local, size: int, region=None):
    """``(perimeters, areas)`` of the ``size`` districts that hold exactly
    ``nodes`` (ascending), ``local`` being each node's district among them:
    perimeter(d) is the sum of node perimeters in d minus twice the shared
    boundary of the edges internal to d. ``nodes`` are every node of the
    graph, or those of ``region``, their :class:`Region`, which lists their
    internal edges. Nodes and edges are added in ascending order, as
    ``np.bincount`` adds a whole plan, so a district's sums are the same
    whichever other districts are asked for."""
    areas = np.bincount(local, graph.areas[nodes], size)
    perimeters = np.bincount(local, graph.perimeters[nodes], size)
    if region is None:
        ends = local[graph.edge_a]
        inside = np.flatnonzero(ends == local[graph.edge_b])
        shared = np.bincount(ends[inside], graph.edge_shared[inside], size)
    else:  # each internal edge from its lower end, in ascending edge order
        low = np.flatnonzero(region.local > region.near)
        ends = local[region.near[low]]
        inside = ends == local[region.local[low]]
        shared = np.bincount(ends[inside], graph.edge_shared[region.edges[low[inside]]], size)
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
