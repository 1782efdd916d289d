import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapchain import errors
from mapchain.graph import (
    AdjacencyEdge,
    Contest,
    ElectionSet,
    Plan,
    PrecinctNode,
    build_graph,
    canonical_form,
    district_perimeter_area,
    district_populations,
    graph_components,
    is_contiguous,
    window_bounds,
    within_window,
)
from mapchain.synth import grid_graph, grid_nodes_edges
from mapchain.trees import TREE_METHODS, _Induced, random_spanning_tree

from conftest import CountingRng, make_path_graph
from graph_reference import first_node_fault, union_find_components


def small_election(n):
    return ElectionSet([Contest("E", np.full(n, 5, dtype=np.int64), np.full(n, 5, dtype=np.int64))])


def test_build_2x2_grid():
    nodes, edges = grid_nodes_edges(2, 2)
    g = build_graph(nodes, edges, small_election(4))
    assert g.n == 4
    assert g.n_edges == 4
    assert g.total_population == 4


def test_disconnected_graph_lists_components():
    nodes, _ = grid_nodes_edges(2, 2)
    with pytest.raises(errors.DisconnectedGraph) as err:
        build_graph(nodes, [AdjacencyEdge(0, 1)], small_election(4))
    comps = err.value.components
    assert [0, 1] in comps
    assert [2] in comps and [3] in comps


def test_disconnected_graph_message_orders_components_by_smallest_node():
    # five components, node 10 alone; the message shows the first four
    edges = [AdjacencyEdge(a, b) for a, b in ((6, 2), (0, 8), (5, 1), (7, 3), (4, 9), (9, 0))]
    with pytest.raises(errors.DisconnectedGraph) as err:
        build_graph(unit_nodes(11), edges, small_election(11))
    assert str(err.value) == "graph has 5 components: [0, 4, 8, 9], [1, 5], [2, 6], [3, 7], ..."


def test_grid4_fixture_counts(grid4):
    assert grid4.n == 16
    assert grid4.n_edges == 24  # 2 * 4 * 3 rook edges


def test_duplicate_precinct_id():
    nodes = [
        PrecinctNode("p0", 1, "C0", "M0", 1.0, 4.0),
        PrecinctNode("p0", 1, "C0", "M0", 1.0, 4.0),
    ]
    with pytest.raises(errors.DuplicatePrecinctId):
        build_graph(nodes, [AdjacencyEdge(0, 1)], small_election(2))


def test_dangling_edge_and_self_loop_and_duplicate():
    nodes = [
        PrecinctNode("p0", 1, "C0", "M0", 1.0, 4.0),
        PrecinctNode("p1", 1, "C0", "M0", 1.0, 4.0),
    ]
    with pytest.raises(errors.DanglingEdge):
        build_graph(nodes, [AdjacencyEdge(0, 2)], small_election(2))
    with pytest.raises(errors.InvalidEdge):
        build_graph(nodes, [AdjacencyEdge(0, 0)], small_election(2))
    with pytest.raises(errors.DuplicateEdge):
        build_graph(
            nodes,
            [AdjacencyEdge(0, 1), AdjacencyEdge(1, 0)],
            small_election(2),
        )


@pytest.mark.parametrize("shared", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_shared_perimeter_must_be_finite_and_nonnegative(shared):
    nodes = [PrecinctNode(f"p{i}", 1, "C0", "M0", 1.0, 4.0) for i in range(3)]
    edges = [AdjacencyEdge(0, 1, 0.0), AdjacencyEdge(1, 2, shared)]
    with pytest.raises(errors.InvalidEdge, match=r"edge \(1, 2\): shared_perimeter .* must be"):
        build_graph(nodes, edges, small_election(3))
    assert build_graph(nodes, edges[:1] + [AdjacencyEdge(1, 2, 0.0)], small_election(3)).n == 3


def test_missing_vote_column_length():
    nodes = [
        PrecinctNode("p0", 1, "C0", "M0", 1.0, 4.0),
        PrecinctNode("p1", 1, "C0", "M0", 1.0, 4.0),
    ]
    bad = ElectionSet([Contest("E", np.array([1]), np.array([1, 2]))])
    with pytest.raises(errors.MissingVoteColumn):
        build_graph(nodes, [AdjacencyEdge(0, 1)], bad)


def test_bad_node_scalars():
    with pytest.raises(errors.InvalidNodeData):
        build_graph(
            [PrecinctNode("p0", -1, "C0", "M0", 1.0, 4.0)], [], small_election(1)
        )
    with pytest.raises(errors.InvalidNodeData):
        build_graph(
            [PrecinctNode("p0", 1, "C0", "M0", 0.0, 4.0)], [], small_election(1)
        )


@pytest.mark.parametrize("column, label", [
    ("population", "population"), ("dem", "contest 'E' side D"), ("rep", "contest 'E' side R"),
])
def test_column_total_past_int64_is_rejected(column, label):
    # an int64 sum of a column whose total exceeds 2**63 - 1 wraps: four
    # nodes of 2**62 sum to 0
    def path_of(values):
        ones = [1] * len(values)
        dem, rep = (values if column == side else ones for side in ("dem", "rep"))
        contest = Contest("E", np.array(dem, dtype=np.int64), np.array(rep, dtype=np.int64))
        pops = values if column == "population" else None
        return make_path_graph(len(values), pops=pops, contests=[contest])

    with pytest.raises(errors.InvalidNodeData) as raised:
        path_of([2**62] * 4)
    assert str(raised.value) == f"{label}: total {2**64} exceeds 2**63 - 1"
    with pytest.raises(errors.InvalidNodeData, match="exceeds"):
        path_of([2**62, 2**62])
    assert path_of([2**62, 2**62 - 1]).n == 2  # a total of exactly 2**63 - 1 fits
    assert path_of([2**63 - 1]).n == 1


_FAULTS = st.one_of(
    st.tuples(st.just("precinct_id"), st.integers(0, 11).map(lambda j: f"p{j}")),
    st.tuples(st.just("population"), st.integers(-10**12, -1)),
    st.tuples(st.sampled_from(["area", "perimeter"]),
              st.sampled_from([0.0, -1.0, float("nan"), float("inf")])),
)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_build_graph_reports_the_first_faulty_node_as_the_record_loop(data):
    n = data.draw(st.integers(1, 12))
    nodes = [
        PrecinctNode(
            f"p{i}", data.draw(st.integers(0, 10**12)), "C0", "M0",
            data.draw(st.floats(0.01, 100.0)), data.draw(st.floats(0.01, 100.0)),
        )
        for i in range(n)
    ]
    planted = data.draw(st.lists(st.tuples(st.integers(0, n - 1), _FAULTS), max_size=4))
    for i, (field, value) in planted:
        nodes[i] = dataclasses.replace(nodes[i], **{field: value})
    edges = [AdjacencyEdge(i, i + 1) for i in range(n - 1)]
    expected = first_node_fault(nodes)
    if expected is None:
        assert build_graph(nodes, edges, small_election(n)).n == n
        return
    with pytest.raises(errors.MapchainError) as err:
        build_graph(nodes, edges, small_election(n))
    assert type(err.value) is type(expected)
    assert str(err.value) == str(expected)


def test_plan_validation():
    with pytest.raises(ValueError):
        Plan([0, 1, 3], 4)  # label 2 empty
    with pytest.raises(ValueError):
        Plan([0, 1, 2], 2)  # label out of range
    plan = Plan([1, 0, 1], 2)
    assert plan.k == 2
    with pytest.raises(ValueError):
        plan.assignment[0] = 5  # frozen array


def test_district_populations_simple(grid22):
    plan = Plan([0, 0, 1, 1], 2)
    assert district_populations(grid22, plan).tolist() == [2, 2]
    whole = Plan([0, 0, 0, 0], 1)
    assert district_populations(grid22, whole).tolist() == [4]


def test_district_populations_row_bands(grid4, band4):
    assert district_populations(grid4, band4).tolist() == [4, 4, 4, 4]


@st.composite
def _populated_plans(draw):
    pops = []
    for _ in range(draw(st.integers(1, 8))):  # a graph total never passes 2**63 - 1
        pops.append(draw(st.integers(0, min(2**62, 2**63 - 1 - sum(pops)))))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(pops), max_size=len(pops)))
    dense = {}
    labels = [dense.setdefault(label, len(dense)) for label in labels]
    return pops, Plan(labels, len(dense))


@given(_populated_plans())
@example(([2**53, 1], Plan([0, 0], 1)))  # a float64 sum rounds 2**53 + 1 to 2**53
@settings(max_examples=200, deadline=None)
def test_district_populations_are_exact(case):
    pops, plan = case
    graph = make_path_graph(len(pops), pops=pops)
    expected = [0] * plan.k
    for d, pop in zip(plan.assignment.tolist(), pops):
        expected[d] += pop
    assert district_populations(graph, plan).tolist() == expected
    assert sum(expected) == graph.total_population


def test_is_contiguous_cases(grid4, grid22, band4):
    assert is_contiguous(grid4, band4) == [True, True, True, True]
    # opposite corners of the 2x2 grid share no rook edge (both districts here
    # are diagonal pairs)
    corners = Plan([0, 1, 1, 0], 2)
    assert is_contiguous(grid22, corners) == [False, False]
    columns = Plan([0, 1, 0, 1], 2)
    assert is_contiguous(grid22, columns) == [True, True]


def test_is_contiguous_snake(grid4):
    # a snake: row 0 plus the right column vs everything else
    assignment = np.ones(16, dtype=np.int64)
    snake = [0, 1, 2, 3, 7, 11, 15]
    for i in snake:
        assignment[i] = 0
    plan = Plan(assignment, 2)
    assert is_contiguous(grid4, plan) == [True, True]


def test_perimeter_area_single_square():
    g = make_path_graph(1)
    perims, areas = district_perimeter_area(g, Plan([0], 1))
    assert perims[0] == pytest.approx(4.0)
    assert areas[0] == pytest.approx(1.0)


def test_perimeter_area_domino():
    g = make_path_graph(2)
    perims, areas = district_perimeter_area(g, Plan([0, 0], 1))
    assert perims[0] == pytest.approx(6.0)
    assert areas[0] == pytest.approx(2.0)


def test_perimeter_area_2x2_block(grid22):
    perims, areas = district_perimeter_area(grid22, Plan([0, 0, 0, 0], 1))
    assert perims[0] == pytest.approx(8.0)  # 4*4 - 2*4 internal
    assert areas[0] == pytest.approx(4.0)


def test_negative_perimeter_detected():
    nodes = [
        PrecinctNode("p0", 1, "C0", "M0", 1.0, 4.0),
        PrecinctNode("p1", 1, "C0", "M0", 1.0, 4.0),
    ]
    # shared boundary longer than either node perimeter
    g = build_graph(nodes, [AdjacencyEdge(0, 1, 5.0)], small_election(2))
    with pytest.raises(errors.NegativePerimeter):
        district_perimeter_area(g, Plan([0, 0], 1))


@st.composite
def grid_plans(draw):
    rows = draw(st.integers(2, 3))
    cols = draw(st.integers(2, 4))
    n = rows * cols
    k = draw(st.integers(1, min(4, n)))
    labels = draw(
        st.lists(st.integers(0, k - 1), min_size=n, max_size=n).filter(
            lambda ls: len(set(ls)) == k
        )
    )
    return rows, cols, Plan(np.array(labels), k)


@given(grid_plans())
@settings(max_examples=40, deadline=None)
def test_conservation_properties(case):
    rows, cols, plan = case
    g = grid_graph(rows, cols)
    pops = district_populations(g, plan)
    assert pops.sum() == g.total_population
    # merging everything into one district recovers the global geometry sums
    merged = Plan(np.zeros(g.n, dtype=np.int64), 1)
    perims, areas = district_perimeter_area(g, merged)
    assert areas.sum() == pytest.approx(g.areas.sum())
    assert perims.sum() == pytest.approx(
        g.perimeters.sum() - 2.0 * g.edge_shared.sum()
    )
    # per-plan area conservation
    _, plan_areas = district_perimeter_area(g, plan)
    assert plan_areas.sum() == pytest.approx(g.areas.sum())


def _flood_fill_connected(g, members):
    members = set(int(m) for m in members)
    if not members:
        return False
    neighbors = {u: set() for u in range(g.n)}
    for a, b in zip(g.edge_a.tolist(), g.edge_b.tolist()):
        neighbors[a].add(b)
        neighbors[b].add(a)
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in neighbors[u]:
            if v in members and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == members


@given(grid_plans())
@settings(max_examples=40, deadline=None)
def test_contiguity_matches_flood_fill_oracle(case):
    rows, cols, plan = case
    g = grid_graph(rows, cols)
    flags = is_contiguous(g, plan)
    expected = [
        _flood_fill_connected(g, plan.district_nodes(d)) for d in range(plan.k)
    ]
    assert flags == expected


def test_canonical_form_first_appearance():
    plan = Plan([2, 2, 0, 1], 3)
    assert canonical_form(plan) == (0, 0, 1, 2)


def unit_nodes(n):
    return [PrecinctNode(f"p{i}", 1, "C0", "M0", 1.0, 4.0) for i in range(n)]


@st.composite
def irregular_edges(draw, n):
    """Node pairs of a random connected graph on ``n`` nodes: a random tree
    plus extra edges, with node ids shuffled so no grid or id order shows."""
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    perm = draw(st.permutations(range(n)))
    return [(perm[a], perm[b]) for a, b in pairs]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_induced_adjacency_on_irregular_graphs(data):
    n = data.draw(st.integers(1, 16))
    pairs = data.draw(irregular_edges(n))
    g = build_graph(unit_nodes(n), [AdjacencyEdge(a, b) for a, b in pairs], small_election(n))
    subset = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    if not _flood_fill_connected(g, subset):
        # the region is built or not, but no tree draw over it succeeds
        for method in TREE_METHODS:
            rng = CountingRng(np.random.default_rng(0), 1000)
            with pytest.raises(errors.DisconnectedSubset):
                random_spanning_tree(g, subset, rng, method=method)
        return
    induced = _Induced(g, subset)
    local = {v: i for i, v in enumerate(subset)}
    for i, v in enumerate(subset):
        inside = {a if b == v else b for a, b in pairs if v in (a, b)} & local.keys()
        first, deg = induced.first[i], induced.deg[i]
        assert induced.nbr[first:first + deg] == sorted(local[u] for u in inside)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_contiguity_on_irregular_graphs(data):
    n = data.draw(st.integers(1, 16))
    pairs = data.draw(irregular_edges(n))
    g = build_graph(unit_nodes(n), [AdjacencyEdge(a, b) for a, b in pairs], small_election(n))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    _, dense = np.unique(labels, return_inverse=True)
    plan = Plan(dense, int(dense.max()) + 1)
    expected = [_flood_fill_connected(g, plan.district_nodes(d)) for d in range(plan.k)]
    assert is_contiguous(g, plan) == expected


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_disconnected_irregular_graph_lists_its_components(data):
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    n = sum(sizes)
    perm = data.draw(st.permutations(range(n)))
    components, edges, offset = [], [], 0
    for size in sizes:
        for a, b in data.draw(irregular_edges(size)):
            edges.append(AdjacencyEdge(perm[offset + a], perm[offset + b]))
        components.append(sorted(perm[offset:offset + size]))
        offset += size
    with pytest.raises(errors.DisconnectedGraph) as err:
        build_graph(unit_nodes(n), edges, small_election(n))
    assert err.value.components == sorted(components)


@st.composite
def component_inputs(draw):
    """``(n, pairs)``: node pairs on ``n`` nodes, with self-loops, repeated
    pairs, both orientations and isolated nodes, plus a path through drawn
    nodes in drawn order, so a long component's ids are shuffled."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=n))
    path = draw(st.lists(node, unique=True))
    pairs += list(zip(path, path[1:]))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=n))
    return n, pairs


def _assert_components_match_union_find(n, edge_a, edge_b):
    labels = graph_components(n, edge_a, edge_b)
    assert labels.tolist() == union_find_components(n, edge_a.tolist(), edge_b.tolist())
    for label in set(labels.tolist()):
        assert label == np.flatnonzero(labels == label).min()


@given(component_inputs())
@example((1, []))
@example((5, []))
@example((3, [(1, 1), (2, 0), (0, 2), (2, 0)]))
@example((6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]))
@example((7, [(6, 0), (6, 1), (6, 2), (6, 3), (6, 4), (6, 5)]))
@settings(max_examples=300, deadline=None)
def test_graph_components_match_union_find(case):
    n, pairs = case
    edge_a = np.array([a for a, _ in pairs], dtype=np.int64)
    edge_b = np.array([b for _, b in pairs], dtype=np.int64)
    _assert_components_match_union_find(n, edge_a, edge_b)


def test_graph_components_match_union_find_on_a_permuted_grid():
    # shuffled ids take the search several rounds, each with deep pointer chains
    g = grid_graph(30, 30)
    rng = np.random.default_rng(3)
    perm = rng.permutation(g.n)
    kept = rng.random(g.n_edges) < 0.6  # dozens of components, one of hundreds of nodes
    _assert_components_match_union_find(g.n, perm[g.edge_a[kept]], perm[g.edge_b[kept]])


# --- the integer form of the population window


_INT64 = (-(2**63), 2**63 - 1)


def _accepted(band, target, tolerance):
    """``within_window`` on the int64 populations of ``band`` that lie in the
    int64 range, as the plan checks apply it to district populations."""
    x = np.arange(max(band[0], _INT64[0]), min(band[1], _INT64[1]) + 1, dtype=np.int64)
    return x, within_window(x, target, tolerance)


@given(
    st.one_of(
        st.integers(0, 10**6).map(float),
        st.floats(0, 10**6),
        st.integers(2**52, 2**62).map(float),
        st.floats(2.0**52, 2.0**62),
    ),
    st.one_of(
        st.just(0.0),
        st.floats(1e-18, 1e-12),
        st.floats(0, 1),
        st.floats(1, 1e6),
        st.sampled_from([math.inf, math.nan, -0.01, -1.0]),
    ),
)
@settings(max_examples=300, deadline=None)
@example(0.0, math.inf)  # 0 * inf is NaN: no population fits
@example(5.0, math.inf)
@example(2.0**53 + 2, 0.0)
@example(2.0**60, 1e-15)
@example(181.11111111111111, 0.02)
def test_window_bounds_match_within_window_at_both_edges(target, tolerance):
    lo, hi = window_bounds(target, tolerance)
    band = 64
    if lo > hi:
        _, accepted = _accepted((math.floor(target) - band, math.floor(target) + band),
                                target, tolerance)
        assert not accepted.any()
        return
    assert lo <= target + 1 and hi >= target - 1
    for edge in (lo, hi):
        x, accepted = _accepted((edge - band, edge + band), target, tolerance)
        assert accepted.tolist() == ((x >= lo) & (x <= hi)).tolist()
