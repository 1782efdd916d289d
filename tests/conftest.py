import os

import numpy as np
import pytest

from mapchain.graph import (
    AdjacencyEdge,
    Contest,
    ElectionSet,
    PrecinctNode,
    build_graph,
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
def mcfg2():
    return MetricsConfig(("PRES", "SEN"))


@pytest.fixture()
def grid22():
    return grid_graph(2, 2)


@pytest.fixture()
def fixtures_dir():
    return FIXTURES
