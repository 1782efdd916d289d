import os
import time

import numpy as np
import pytest

from mapchain.chain import ChainState, random_tree_plan, recom_step
from mapchain.constraints import ConstraintGate
from mapchain.graph import (
    AdjacencyEdge,
    Contest,
    ElectionSet,
    PrecinctNode,
    build_graph,
    canonical_form,
)
from mapchain.metrics import MetricsConfig
from mapchain.oracle import enumerate_partitions
from mapchain.synth import band_plan, grid4_graph, grid_graph

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def nodes_of(graph):
    """The graph's node columns as ``PrecinctNode`` records, to rebuild it."""
    return [
        PrecinctNode(pid, pop, graph.county_names[county], graph.muni_names[muni], area, perim)
        for pid, pop, county, muni, area, perim in zip(
            graph.precinct_ids, graph.populations.tolist(), graph.county_codes.tolist(),
            graph.muni_codes.tolist(), graph.areas.tolist(), graph.perimeters.tolist(),
        )
    ]


def edges_of(graph):
    """The graph's adjacency as ``AdjacencyEdge`` records, to rebuild it."""
    return [
        AdjacencyEdge(a, b, s)
        for a, b, s in zip(
            graph.edge_a.tolist(), graph.edge_b.tolist(), graph.edge_shared.tolist()
        )
    ]


def make_path_graph(n, pops=None, contests=None):
    pops = pops or [1] * n
    nodes = [
        PrecinctNode(f"p{i}", pops[i], "C0", "M0", 1.0, 4.0) for i in range(n)
    ]
    edges = [AdjacencyEdge(i, i + 1, 1.0) for i in range(n - 1)]
    if contests is None:
        contests = [Contest("E", np.full(n, 55, dtype=np.int64), np.full(n, 45, dtype=np.int64))]
    return build_graph(nodes, edges, ElectionSet(contests))


def make_star_graph(n_leaves):
    n = n_leaves + 1
    nodes = [PrecinctNode(f"p{i}", 1, "C0", "M0", 1.0, 4.0) for i in range(n)]
    edges = [AdjacencyEdge(0, i, 1.0) for i in range(1, n)]
    contests = [Contest("E", np.full(n, 55, dtype=np.int64), np.full(n, 45, dtype=np.int64))]
    return build_graph(nodes, edges, ElectionSet(contests))


def make_two_node_graph(contests):
    """Two connected precincts; used with k=1 for single-district fixtures."""
    nodes = [
        PrecinctNode("p0", 1, "C0", "M0", 1.0, 4.0),
        PrecinctNode("p1", 1, "C0", "M0", 1.0, 4.0),
    ]
    return build_graph(nodes, [AdjacencyEdge(0, 1, 1.0)], ElectionSet(contests))


def pathology_graph(fifth_scale=1):
    """Five contests for one seat: four split 51/49 D, the fifth 20/80.

    ``fifth_scale`` multiplies the fifth contest's turnout.
    """
    zeros = np.zeros(2, dtype=np.int64)
    contests = []
    for i in range(4):
        contests.append(
            Contest(f"E{i}", np.array([51, 0], dtype=np.int64), np.array([49, 0], dtype=np.int64))
        )
    contests.append(
        Contest(
            "E4",
            np.array([20 * fifth_scale, 0], dtype=np.int64),
            np.array([80 * fifth_scale, 0], dtype=np.int64),
        )
    )
    return make_two_node_graph(contests)


class CountingRng:
    """A generator that counts the chunks of words drawn from it: the
    ``integers`` calls with a ``size`` and its bit generator's
    ``random_raw`` calls, the latter also on their own (``raw_chunks``).
    Past ``limit`` chunks it raises, so a Wilson walk that never ends fails
    instead of hanging. The tree kernels read nothing else of it but
    ``random`` and ``bit_generator``."""

    def __init__(self, rng, limit=None):
        self.rng, self.chunks, self.raw_chunks, self.limit = rng, 0, 0, limit
        self.bit_generator = _CountingBits(self)

    def count_chunk(self):
        self.chunks += 1
        if self.limit is not None and self.chunks > self.limit:
            raise RuntimeError(f"more than {self.limit} chunks of words drawn")

    def integers(self, *args, **kwargs):
        if "size" in kwargs:
            self.count_chunk()
        return self.rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)


class _CountingBits:
    """A ``CountingRng``'s bit generator: ``random_raw`` counts a chunk;
    ``state`` and ``advance`` act on the wrapped generator's."""

    def __init__(self, owner):
        self.owner = owner

    @property
    def state(self):
        return self.owner.rng.bit_generator.state

    @state.setter
    def state(self, value):
        self.owner.rng.bit_generator.state = value

    def random_raw(self, *args, **kwargs):
        self.owner.raw_chunks += 1
        self.owner.count_chunk()
        return self.owner.rng.bit_generator.random_raw(*args, **kwargs)

    def advance(self, delta):
        self.owner.rng.bit_generator.advance(delta)


@pytest.fixture(scope="session")
def grid4():
    return grid4_graph()


@pytest.fixture(scope="session")
def catalog4(grid4):
    return enumerate_partitions(grid4, 4, 0.0)


@pytest.fixture(scope="session")
def band4():
    return band_plan(4, 4, 4)


@pytest.fixture(scope="session")
def chain4_run(grid4, band4):
    """Criterion 01's run, which the kernel tests reuse: 50,000 ReCom steps
    on the 4x4 grid at tolerance 0 (uniform pairs, no gate, seed 7) from the
    band plan. The canonical form of the seed and of each step's plan, and
    the seconds the steps took."""
    t0 = time.perf_counter()
    state = ChainState(plan=band4, rng=np.random.default_rng(7))
    forms = [canonical_form(band4)]
    for _ in range(50_000):
        recom_step(state, grid4, 0.0, ConstraintGate.permissive())
        forms.append(canonical_form(state.plan))
    return forms, time.perf_counter() - t0


@pytest.fixture(scope="session")
def tree_plans4(grid4):
    """Criterion 02's draws, which the tree-law test reuses: a 4-district
    tree plan of the 4x4 grid at tolerance 0 from each of seeds 0..9,999
    (``None`` where one fails), and the seconds they took."""
    t0 = time.perf_counter()
    plans = [random_tree_plan(grid4, 4, 0.0, np.random.default_rng(seed))
             for seed in range(10_000)]
    return plans, time.perf_counter() - t0


@pytest.fixture(scope="session")
def mcfg2():
    return MetricsConfig(("PRES", "SEN"))


@pytest.fixture()
def grid22():
    return grid_graph(2, 2)


@pytest.fixture()
def fixtures_dir():
    return FIXTURES
