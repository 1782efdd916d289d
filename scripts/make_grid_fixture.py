#!/usr/bin/env python3
"""Regenerate the committed 4x4 grid fixture under tests/fixtures/grid4/.

The fixture is deterministic; rerunning this script must be a no-op diff.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from mapchain.graph import Plan
from mapchain.io import write_assignment, write_edges, write_nodes
from mapchain.synth import grid4_graph

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "grid4")

CONFIG = """\
# 4x4 grid fixture run configuration
nodes = tests/fixtures/grid4/nodes.csv
edges = tests/fixtures/grid4/edges.csv
assignment = tests/fixtures/grid4/assignment.csv
steps = 60
pop_tolerance = 0.01
seed = 7
burn_in = 0
thinning = 1
mode = permissive
contests = PRES,SEN
out_dir = out/grid4
n_chains = 1
workers = 1
n_plans = 40
hist_bins = 8
acf_max_lag = 20
county_cap = 4
muni_cap = 6
gibbs_weight_district_county = 0.3
sweep_caps = 2,3,4
sweep_replicates = 2
bench_iterations = 200
bench_tree_plans = 10
"""


def write_fixture(out) -> None:
    """Write the fixture's nodes, edges, assignment and config under ``out``."""
    graph = grid4_graph()
    # column districts: they match the column counties (0 county splits), so
    # rejection sweeps over the county cap genuinely bind
    plan = Plan(np.arange(16) % 4, 4)
    write_nodes(graph, os.path.join(out, "nodes.csv"))
    write_edges(graph, os.path.join(out, "edges.csv"))
    write_assignment(plan, graph, os.path.join(out, "assignment.csv"),
                     names={0: "A", 1: "B", 2: "C", 3: "D"})
    with open(os.path.join(out, "chain.cfg"), "w", encoding="utf-8") as fh:
        fh.write(CONFIG)


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    write_fixture(OUT)
    print(f"wrote fixture under {os.path.normpath(OUT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
