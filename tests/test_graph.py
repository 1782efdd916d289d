import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
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
    is_contiguous,
)
from mapchain.synth import grid_graph, grid_nodes_edges
from mapchain.trees import _Induced

from conftest import make_path_graph
from graph_reference import first_node_fault


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


_FAULTS = st.one_of(
    st.tuples(st.just("precinct_id"), st.integers(0, 11).map(lambda j: f"p{j}")),
    st.tuples(st.just("population"), st.integers(-10**12, -1)),
    st.tuples(st.sampled_from(["area", "perimeter"]), st.sampled_from([0.0, -1.0, float("nan")])),
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
    induced = _Induced(g, subset)
    local = {v: i for i, v in enumerate(subset)}
    for i, v in enumerate(subset):
        inside = {a if b == v else b for a, b in pairs if v in (a, b)} & local.keys()
        assert induced.adj[i] == sorted(local[u] for u in inside)
    assert induced.connected() == _flood_fill_connected(g, subset)


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
