"""The tree kernel's laws, checked against exact enumeration.

Wilson's walk must draw every spanning tree of a region with probability
1/τ, and ``bipartition_region`` must split a region by the exact law that
``oracle.bipartition_law`` derives from the trees. Each test draws from a
fixed seed and compares the counts with the exact law by a chi-square test
that fails at p < ``ALPHA``; its draw count is set so that the test has
power ``POWER`` at that level against any law whose chi-square divergence
from the exact one, sum((p - e)**2 / e), is at least ``DIVERGENCE``
(``_assert_power`` checks this for every test). A wrong pick column in the
walk table, an exact step that never takes a node's last neighbour, or a
cut taken first among the qualifying edges instead of uniformly moves the
law far more than that.
"""
from collections import Counter

import numpy as np
import pytest
from scipy.special import chdtri, chndtr, gammaincc

from mapchain import oracle
from mapchain.synth import grid_graph
from mapchain.trees import _TABLE_DEGREE, _Induced, _wilson, bipartition_region

from conftest import CountingRng
from test_trees import _graph, _wheel

ALPHA = 1e-3
POWER = 0.99
DIVERGENCE = 0.012


def _assert_power(cells: int, draws: int) -> None:
    """The chi-square test over ``cells`` cells and ``draws`` draws rejects,
    at level ``ALPHA``, a law ``DIVERGENCE`` away with probability POWER."""
    critical = chdtri(cells - 1, ALPHA)
    assert 1 - chndtr(critical, cells - 1, draws * DIVERGENCE) >= POWER


def _chi_square_p(observed: Counter, expected: dict, draws: int) -> float:
    """p-value of the counts ``observed`` against the probabilities
    ``expected`` (keyed alike). Cells expected fewer than 5 times are pooled
    into one, which is dropped if it is still expected fewer than 5 times."""
    assert set(observed) <= set(expected), "a draw the exact law does not allow"
    statistic, cells, pooled_o, pooled_e = 0.0, 0, 0, 0.0
    for key, probability in expected.items():
        e = draws * float(probability)
        if e < 5:
            pooled_o += observed[key]
            pooled_e += e
            continue
        statistic += (observed[key] - e) ** 2 / e
        cells += 1
    if pooled_e >= 5:
        statistic += (pooled_o - pooled_e) ** 2 / pooled_e
        cells += 1
    return float(gammaincc((cells - 1) / 2, statistic / 2))


def _tree_key(induced, parent) -> frozenset:
    """The drawn tree as a frozenset of ``(a, b)`` node pairs, a < b."""
    nodes = induced.nodes.tolist()
    return frozenset(
        (min(nodes[i], nodes[p]), max(nodes[i], nodes[p])) for i, p in enumerate(parent) if p >= 0
    )


def _with_tails():
    """The 3 x 3 grid with a leaf on node 0 and a two-node tail on node 8:
    three nodes of degree 1 or 2 where a walk takes no word or a forced step."""
    pairs = [(a, b) for a, b in zip(grid_graph(3, 3).edge_a.tolist(),
                                    grid_graph(3, 3).edge_b.tolist())]
    pairs += [(0, 9), (8, 10), (10, 11)]
    return _graph(12, pairs, [1] * 12)


def _barbell():
    """Two 5-cycles joined by a path of 20 edges (29 nodes, 25 trees): walks
    from one end cross the path many times, so most draws use more words
    than one chunk holds (8 per node, plus 64)."""
    path = [0] + list(range(5, 25))
    ring = [24, 25, 26, 27, 28]
    pairs = [(i, (i + 1) % 5) for i in range(5)] + list(zip(path, path[1:]))
    pairs += [(ring[i - 1], ring[i]) for i in range(5)]
    return _graph(29, pairs, [1] * 29)


# (graph, subset, draws per tree, seed); draws are counted over all τ trees
WILSON_CASES = {
    "grid3x3": (grid_graph(3, 3), range(9), 60, 11),
    # the hub has degree 6 > _TABLE_DEGREE: every step from it is exact
    "wheel7": (_wheel(6), range(7), 50, 12),
    "tails": (_with_tails(), range(12), 60, 13),
    # a 2 x 6 block of a 4 x 6 grid: a region of a larger graph, 780 trees
    "ladder_block": (grid_graph(4, 6), range(6, 18), 30, 14),
    "barbell": (_barbell(), range(29), 240, 15),
}


def test_spanning_trees_match_the_laplacian_count():
    cases = [(grid_graph(3, 3), range(9), 192), (_wheel(6), range(7), 320),
             (grid_graph(4, 6), range(6, 18), 780), (_with_tails(), range(12), 192),
             (grid_graph(3, 3), [0, 1, 3, 4], 4), (grid_graph(3, 3), [4], 1),
             (_barbell(), range(29), 25), (grid_graph(3, 3), [0, 2], 0),
             (grid_graph(3, 3), [0, 1, 2, 5, 8, 7, 6, 3], 8)]
    for graph, subset, tau in cases:
        trees = oracle.spanning_trees(graph, subset)
        assert len(trees) == len(set(trees)) == oracle.spanning_tree_count(graph, subset) == tau
        for tree in trees:
            assert len(tree) == len(list(subset)) - 1


@pytest.mark.parametrize("case", sorted(WILSON_CASES))
def test_wilson_draws_every_spanning_tree_uniformly(case):
    graph, subset, per_tree, seed = WILSON_CASES[case]
    trees = oracle.spanning_trees(graph, subset)
    draws = per_tree * len(trees)
    _assert_power(len(trees), draws)
    induced = _Induced(graph, list(subset))
    rng = np.random.default_rng(seed)
    counts = Counter(_tree_key(induced, _wilson(induced, rng)[0]) for _ in range(draws))
    assert _chi_square_p(counts, dict.fromkeys(trees, 1 / len(trees)), draws) >= ALPHA


def test_the_law_cases_reach_past_the_walk_table_and_across_chunks():
    # the wheel's hub steps outside the table, the tails hold nodes of
    # degree 1, and most barbell draws read words from several raw chunks
    assert max(_Induced(*WILSON_CASES["wheel7"][:2]).deg) > _TABLE_DEGREE
    assert 1 in _Induced(*WILSON_CASES["tails"][:2]).deg
    graph, subset = WILSON_CASES["barbell"][:2]
    induced = _Induced(graph, list(subset))
    chunks = []
    for seed in range(100):
        rng = CountingRng(np.random.default_rng(seed))
        _wilson(induced, rng)
        chunks.append(rng.raw_chunks)
    assert sum(c >= 2 for c in chunks) >= 50 and max(chunks) >= 4


# the 3 x 3 grid with populations 1 to 3 (16 in all)
_WEIGHTED = _graph(9, list(zip(grid_graph(3, 3).edge_a.tolist(), grid_graph(3, 3).edge_b.tolist())),
                   [2, 1, 3, 1, 2, 1, 1, 3, 2])

# (graph, subset, targets, tolerance, max_tree_retries, draws, seed)
SPLIT_CASES = {
    # a ReCom step's equal targets: 29 splits; many trees have several
    # qualifying edges, and 30% have none, so 9% of the calls give up
    "equal": (_WEIGHTED, range(9), (8.0, 8.0), 0.2, 2, 10_000, 21),
    # a tree plan's first stage for k = 3: 18 splits of unequal parts
    "thirds": (_WEIGHTED, range(9), (16 * 2 / 3, 16 / 3), 0.2, 2, 8_000, 22),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_bipartition_follows_the_exact_split_law(case):
    graph, subset, targets, tolerance, retries, draws, seed = SPLIT_CASES[case]
    law = oracle.bipartition_law(graph, subset, targets, tolerance, retries)
    assert sum(law.values()) == 1
    assert draws * law[None] >= 50  # the retry's normalisation is tested too
    _assert_power(len(law), draws)
    induced = _Induced(graph, list(subset))
    rng = np.random.default_rng(seed)
    counts = Counter()
    for _ in range(draws):
        parts = bipartition_region(graph, list(subset), targets, tolerance, rng,
                                   max_tree_retries=retries, induced=induced)
        counts[None if parts is None else tuple(tuple(part.tolist()) for part in parts)] += 1
    assert _chi_square_p(counts, law, draws) >= ALPHA
