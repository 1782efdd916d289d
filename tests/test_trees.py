from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_reference as ref
from mapchain import errors
from mapchain.graph import AdjacencyEdge, Plan, PrecinctNode, build_graph, is_contiguous
from mapchain.synth import grid_graph
from mapchain.trees import (
    _END,
    _STARTS,
    _TABLE_DEGREE,
    _Induced,
    _random_mst,
    _walk_rows,
    _wilson,
    _word_codes,
    bipartition_region,
    find_balanced_cut,
    random_spanning_tree,
)

from conftest import make_path_graph, make_star_graph
from test_graph import irregular_edges, small_election


def edge_set(tree):
    return {frozenset(e) for e in ref.tree_edges(tree)}


def test_single_node_tree():
    g = make_path_graph(1)
    tree = random_spanning_tree(g, [0], np.random.default_rng(0))
    assert tree.n_edges == 0
    assert tree.total_population == 1


def test_path_tree_is_forced():
    g = make_path_graph(3)
    tree = random_spanning_tree(g, np.arange(3), np.random.default_rng(0))
    assert edge_set(tree) == {frozenset((0, 1)), frozenset((1, 2))}


def test_disconnected_subset_rejected():
    g = make_path_graph(4)
    with pytest.raises(errors.DisconnectedSubset):
        random_spanning_tree(g, [0, 3], np.random.default_rng(0))


def test_bipartition_of_a_disconnected_subset_rejected():
    g = make_path_graph(4)
    with pytest.raises(errors.DisconnectedSubset):
        bipartition_region(g, [0, 1, 3], (1.5, 1.5), 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("method", ["uniform", "mst"])
def test_tree_spans_subset(method):
    g = grid_graph(3, 3)
    rng = np.random.default_rng(42)
    subset = np.array([0, 1, 2, 4, 5, 7, 8])
    tree = random_spanning_tree(g, subset, rng, method=method)
    assert tree.n_edges == subset.size - 1
    assert sorted(tree.nodes.tolist()) == sorted(subset.tolist())


def test_uniform_distribution_on_4cycle():
    # the 2x2 grid is a 4-cycle with exactly 4 spanning trees; each should
    # appear with frequency 1/4
    g = grid_graph(2, 2)
    rng = np.random.default_rng(1)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        counts[frozenset(edge_set(random_spanning_tree(g, np.arange(4), rng)))] += 1
    assert len(counts) == 4
    for count in counts.values():
        assert abs(count / draws - 0.25) < 0.02


def test_subtree_populations_match_brute_force():
    g = make_path_graph(6, pops=[3, 1, 4, 1, 5, 9])
    rng = np.random.default_rng(3)
    tree = random_spanning_tree(g, np.arange(6), rng)
    for i in range(tree.m):
        node = int(tree.nodes[i])
        members = tree.subtree_nodes(node)
        assert tree.subtree_pop[i] == g.populations[members].sum()


def test_balanced_cut_path4_middle_edge():
    g = make_path_graph(4)
    rng = np.random.default_rng(0)
    tree = random_spanning_tree(g, np.arange(4), rng)
    cut = find_balanced_cut(tree, (2, 2), 0.01, rng)
    assert frozenset(ref.cut_edge(cut)) == frozenset((1, 2))


def test_balanced_cut_star_absent():
    g = make_star_graph(4)
    rng = np.random.default_rng(0)
    tree = random_spanning_tree(g, np.arange(5), rng)
    assert find_balanced_cut(tree, (2, 3), 0.01, rng) is None


def test_balanced_cut_path6_qualifier_set():
    # enumeration oracle: unit pops, targets (3,3), tol 0.40 allows part
    # populations in [1.8, 4.2], so cutting after node 2, 3, or 4 qualifies
    g = make_path_graph(6)
    qualifying = set()
    for left in range(1, 6):
        if abs(left - 3) <= 0.40 * 3 and abs(6 - left - 3) <= 0.40 * 3:
            qualifying.add(frozenset((left - 1, left)))
    assert qualifying == {
        frozenset((1, 2)),
        frozenset((2, 3)),
        frozenset((3, 4)),
    }
    rng = np.random.default_rng(7)
    tree = random_spanning_tree(g, np.arange(6), rng)
    observed = set()
    for _ in range(300):
        cut = find_balanced_cut(tree, (3, 3), 0.40, rng)
        observed.add(frozenset(ref.cut_edge(cut)))
    assert observed == qualifying


def test_bipartition_2x2_exact():
    # enumeration: the only connected 2-2 splits of the 2x2 grid are rows
    # and columns
    g = grid_graph(2, 2)
    valid = [{frozenset((0, 1)), frozenset((2, 3))}, {frozenset((0, 2)), frozenset((1, 3))}]
    seen = set()
    for seed in range(40):
        parts = bipartition_region(g, np.arange(4), (2, 2), 0.0, np.random.default_rng(seed))
        split = {frozenset(parts[0].tolist()), frozenset(parts[1].tolist())}
        assert split in valid
        seen.add(frozenset(frozenset(s) for s in split))
    assert len(seen) == 2  # both splits occur across seeds


def test_bipartition_star_absent():
    g = make_star_graph(4)
    parts = bipartition_region(
        g, np.arange(5), (2, 3), 0.01, np.random.default_rng(0), max_tree_retries=20
    )
    assert parts is None


def test_bipartition_deterministic(grid4):
    subset = np.arange(8)  # top two rows: connected
    a = bipartition_region(grid4, subset, (4, 4), 0.0, np.random.default_rng(123))
    b = bipartition_region(grid4, subset, (4, 4), 0.0, np.random.default_rng(123))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@given(st.integers(0, 10_000), st.sampled_from(["uniform", "mst"]))
@settings(max_examples=25, deadline=None)
def test_bipartition_parts_connected_and_balanced(seed, method):
    g = grid_graph(3, 4)
    rng = np.random.default_rng(seed)
    parts = bipartition_region(g, np.arange(12), (6, 6), 0.0, rng, method=method)
    assert parts is not None
    p1, p2 = parts
    assert sorted(np.concatenate([p1, p2]).tolist()) == list(range(12))
    assert g.populations[p1].sum() == 6
    assert g.populations[p2].sum() == 6
    labels = np.zeros(12, dtype=np.int64)
    labels[p2] = 1
    assert all(is_contiguous(g, Plan(labels, 2)))


def test_bipartition_aligns_unequal_targets():
    # targets (2, 4) on a path of 6: part1 must carry ~2 people
    g = make_path_graph(6)
    for seed in range(20):
        parts = bipartition_region(
            g, np.arange(6), (2, 4), 0.0, np.random.default_rng(seed)
        )
        assert parts is not None
        assert g.populations[parts[0]].sum() == 2
        assert g.populations[parts[1]].sum() == 4


# --- the list-and-batch kernel against the scalar references (tree_reference.py)


def _graph(n, pairs, pops):
    nodes = [PrecinctNode(f"p{i}", pops[i], "C0", "M0", 1.0, 4.0) for i in range(n)]
    return build_graph(nodes, [AdjacencyEdge(a, b) for a, b in pairs], small_election(n))


@st.composite
def connected_subset(draw, n, pairs):
    """A connected node set grown from a random start, one neighbour at a time."""
    size = draw(st.integers(1, n))
    subset = {draw(st.integers(0, n - 1))}
    while len(subset) < size:
        touching = {b for a, b in pairs if a in subset} | {a for a, b in pairs if b in subset}
        frontier = sorted(touching - subset)
        if not frontier:
            break
        subset.add(frontier[draw(st.integers(0, len(frontier) - 1))])
    return sorted(subset)


def _assert_same_tree(tree, expected):
    assert tree.root == expected.root
    assert tree.parent.tolist() == expected.parent.tolist()
    assert tree.subtree_pop.tolist() == expected.subtree_pop.tolist()
    assert sorted(tree.order.tolist()) == list(range(tree.m))
    position = np.argsort(tree.order)
    children = tree.parent >= 0
    assert (position[tree.parent[children]] < position[children]).all()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_scalar_reference_on_irregular_graphs(data):
    n = data.draw(st.integers(1, 18))
    pairs = data.draw(irregular_edges(n))
    pops = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    g = _graph(n, pairs, pops)
    subset = data.draw(connected_subset(n, pairs))
    seed = data.draw(st.integers(0, 2**32 - 1))
    tolerance = data.draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    method = data.draw(st.sampled_from(["uniform", "mst"]))
    induced = _Induced(g, subset)
    draw_ref = ref.wilson if method == "uniform" else ref.kruskal

    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    tree = random_spanning_tree(g, subset, rng, method=method)
    expected = ref.finish_tree(induced, *draw_ref(induced, rng_ref), g.populations)
    _assert_same_tree(tree, expected)
    assert rng.bit_generator.state == rng_ref.bit_generator.state

    pop = int(g.populations[subset].sum())
    kk = data.draw(st.integers(2, 3))
    targets = (pop * ((kk + 1) // 2) / kk, pop * (kk // 2) / kk)
    cut = find_balanced_cut(tree, targets, tolerance, rng)
    assert cut == ref.find_balanced_cut(expected, targets, tolerance, rng_ref)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    for node in subset:
        assert tree.subtree_nodes(node).tolist() == ref.subtree_nodes(expected, node).tolist()

    parts = bipartition_region(g, subset, targets, tolerance, rng, 5, method)
    expected_parts = ref.bipartition_region(g, induced, targets, tolerance, rng_ref, 5, method)
    if expected_parts is None:
        assert parts is None
    else:
        assert [p.tolist() for p in parts] == [p.tolist() for p in expected_parts]
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def _lollipop():
    """A 4-cycle with a pendant path and a pendant star: several degree-1 nodes,
    where a scalar ``rng.integers(1)`` draws no random word."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (1, 7), (7, 8), (7, 9)]
    return _graph(10, pairs, [1] * 10)


def _wheel(spokes):
    """A hub (node 1) joined to every node of a cycle of ``spokes`` nodes."""
    rim = [0] + list(range(2, spokes + 1))
    pairs = [(1, v) for v in rim] + [(rim[i - 1], rim[i]) for i in range(spokes)]
    return _graph(spokes + 1, pairs, [1] * (spokes + 1))


def _complete(n):
    return _graph(n, [(a, b) for b in range(n) for a in range(b)], [1] * n)


def _complete_bipartite(left, right):
    pairs = [(a, left + b) for a in range(left) for b in range(right)]
    return _graph(left + right, pairs, [1] * (left + right))


def _queen_grid(side):
    """A grid with diagonal neighbours too: degrees 3 at the corners, 5 on the
    sides and 8 inside."""
    pairs = [(r * side + c, (r + dr) * side + c + dc)
             for r in range(side) for c in range(side)
             for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1))
             if r + dr < side and 0 <= c + dc < side]
    return _graph(side * side, pairs, [1] * side * side)


@pytest.mark.parametrize("subset", [range(10), [3, 4, 5, 6], [5, 6], [6], [1, 7, 8, 9]])
def test_wilson_matches_reference_at_leaves(subset):
    g = _lollipop()
    induced = _Induced(g, list(subset))
    for seed in range(40):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        parent, order = _wilson(induced, rng)
        expected, expected_root = ref.wilson(induced, rng_ref)
        assert (parent, order[0]) == (expected.tolist(), expected_root)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_wilson_matches_reference_across_word_chunks():
    # a 144-node walk takes several chunks of 2 * 144 + 64 pre-drawn words
    g = grid_graph(12, 12)
    induced = _Induced(g, np.arange(g.n))
    for seed in range(10):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        parent, order = _wilson(induced, rng)
        expected, expected_root = ref.wilson(induced, rng_ref)
        assert (parent, order[0]) == (expected.tolist(), expected_root)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def _rng_next_output_zero(seed):
    """A PCG64 generator whose next 64-bit output is 0: its next two uint32
    words are 0 and its next ``random()`` is exactly 0.0."""
    mult = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    target = (12345 << 64) | 12345  # XSL-RR output of this state is 0
    state["state"]["state"] = (target - state["state"]["inc"]) * pow(mult, -1, 1 << 128) % (1 << 128)
    state["has_uint32"] = 0
    rng.bit_generator.state = state
    check = np.random.default_rng(0)
    check.bit_generator.state = state
    assert check.integers(0, 2**32, size=2, dtype=np.uint32).tolist() == [0, 0]
    return rng


def test_wilson_redraws_rejected_words_as_numpy_does():
    # On m nodes, a power of 2, the root draw takes the first zero word
    # unrejected and picks root 0. The first walk step, from node 1, takes the
    # second. There 2**32 % degree is 1 for degrees 3 and 5 and 4 for 31, so
    # numpy discards the zero word and redraws: through the table's exit at
    # degree 3 (K4), in the exact step at degree 5 (K6 with a tail) and at
    # the wheel's hub, of degree 31.
    k6_with_a_tail = _graph(8, [(a, b) for b in range(6) for a in range(b)] + [(0, 6), (6, 7)],
                            [1] * 8)
    for graph, m, degree in ((_complete(4), 4, 3), (k6_with_a_tail, 8, 5), (_wheel(40), 32, 31)):
        induced = _Induced(graph, range(m))
        assert induced.deg[1] == degree
        for seed in range(10):
            rng, rng_ref = _rng_next_output_zero(seed), _rng_next_output_zero(seed)
            parent, order = _wilson(induced, rng)
            expected, expected_root = ref.wilson(induced, rng_ref)
            assert parent == expected.tolist()
            assert order[0] == expected_root == 0
            assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("d", range(1, _TABLE_DEGREE + 2))
def test_word_intervals_pick_as_numpy_does(d):
    # node 0 of a star has neighbours 1..d, so its row holds pick + 1, and
    # its exit value is m + 0 = d + 1
    row = _walk_rows([list(range(1, d + 1))] + [[0]] * d)[0]
    exit_value = d + 1
    words = {0, 1, 2**32 - 1}
    for bound in _STARTS.tolist() + [-(-(j << 32) // d) for j in range(d)]:
        words |= {bound - 1, bound, bound + 1}
    words = sorted(w for w in words if 0 <= w < 2**32)
    redrawn = {w for w in words if (w * d) % 2**32 < 2**32 % d}
    codes = _word_codes(np.array(words, dtype=np.uint32))
    assert codes[-1] == _END and row[_END] == exit_value
    for w, code in zip(words, codes):
        if d == 1 or d > _TABLE_DEGREE or w in redrawn:
            assert row[code] == exit_value  # the exact step decides
        else:
            assert row[code] == ((w * d) >> 32) + 1


@pytest.mark.parametrize(
    "graph",
    [_wheel(40), _complete_bipartite(2, 12), _complete(12), _queen_grid(8)],
    ids=["wheel40", "K2_12", "K12", "queen8"],
)
def test_wilson_matches_reference_above_the_table_degree(graph):
    # hubs of degree 40 and 12 and a clique of degree 11 take the exact step;
    # on the queen grid the walk goes back and forth between the table at the
    # corners and exact steps at degrees 5 and 8
    induced = _Induced(graph, np.arange(graph.n))
    assert max(induced.deg) > _TABLE_DEGREE
    for seed in range(40):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        parent, order = _wilson(induced, rng)
        expected, expected_root = ref.wilson(induced, rng_ref)
        assert (parent, order[0]) == (expected.tolist(), expected_root)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_mst_matches_kruskal_on_grid():
    g = grid_graph(48, 48)
    induced = _Induced(g, np.arange(g.n))
    for seed in range(30):
        parent, order = _random_mst(induced, np.random.default_rng(seed))
        expected, expected_root = ref.kruskal(induced, np.random.default_rng(seed))
        assert (parent, order[0]) == (expected.tolist(), expected_root)


def test_mst_keeps_a_zero_weight_edge():
    # the first edge (0, 1) draws weight exactly 0.0 and must stay in the tree
    g = grid_graph(3, 3)
    induced = _Induced(g, np.arange(g.n))
    for seed in range(5):
        parent, _ = _random_mst(induced, _rng_next_output_zero(seed))
        expected, _ = ref.kruskal(induced, _rng_next_output_zero(seed))
        assert parent == expected.tolist()
        assert parent[1] == 0
