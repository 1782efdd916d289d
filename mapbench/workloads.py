"""Benchmark workloads: seeded synthetic inputs written as mapchain files.

Every workload is a rook grid from ``mapchain.synth`` with unit population,
written to ``nodes.csv``/``edges.csv``/``assignment.csv`` plus a config
file, so the program under test sees only files. The benchmark seed picks
the vote data and the per-command chain seeds; the grid, the district
count and the snake-band seed plan are fixed per workload.

Run as a script, it writes one workload's inputs into each given directory:

    python3 workloads.py '<Workload fields as JSON>' <seed> <dir> [<dir> ...]

``run.py`` generates inputs that way, in a child process, so that building
the synthetic graph does not set the peak memory of the process it measures.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from mapchain.graph import ElectionSet, build_graph
from mapchain.io import write_assignment, write_edges, write_nodes
from mapchain.synth import band_plan, column_lean_contest, grid_nodes_edges, row_lean_contest

POP_TOLERANCE = 0.02
CONFIG = "run.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # mapchain subcommand: "chain" or "tree"
    rows: int
    cols: int
    k: int
    n_contests: int
    per_command: int  # chain steps, or tree plans, per command run
    county_block: int  # counties are county_block x county_block squares
    settings: tuple = ()  # extra (key, value) config lines

    @property
    def work_key(self) -> str:
        return "steps" if self.command == "chain" else "n_plans"


# Why each workload was chosen is recorded in BENCHMARK.json.
# max_tree_retries = 10 on the chain: at 2% tolerance some merged pairs have
# (almost) no balanced cut, and at the default 50 retries the few such steps
# in a run decide its speed, which then swings by 25% between seeds.
# A k = 20 chain on this grid (1000-node regions) is not a workload: its
# ReCom steps vary in cost with a coefficient of variation of about 1.2, so
# the ~250 steps a run could fit next to two other workloads differed by
# 10-15% between seeds. tree_ensemble measures large-region tree drawing
# instead: it spends nearly all its time there, and its plans vary by only
# about 0.2.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chain_house",
            command="chain", rows=100, cols=100, k=200, n_contests=8, per_command=150,
            county_block=10,
            settings=(("mode", "gibbs"), ("gibbs_weight_district_county", "1.0"),
                      ("max_tree_retries", "10")),
        ),
        Workload(
            name="tree_ensemble",
            command="tree", rows=48, cols=48, k=36, n_contests=1, per_command=4,
            county_block=8,
        ),
    )
}


def _graph(workload: Workload, seed: int):
    rows, cols = workload.rows, workload.cols
    nodes, edges = grid_nodes_edges(rows, cols, county_mode="single", muni_mode="single")
    b = workload.county_block
    nodes = [
        dataclasses.replace(
            node,
            county_id=f"C{(i // cols) // b}_{(i % cols) // b}",
            muni_id=f"M{(i // cols) // max(b // 2, 1)}_{(i % cols) // max(b // 2, 1)}",
        )
        for i, node in enumerate(nodes)
    ]
    rng = np.random.default_rng(np.random.SeedSequence([seed, rows, cols, workload.k]))
    contests = []
    for j in range(workload.n_contests):
        # alternate column- and row-leaning contests so plans differ in seats
        make, length = (column_lean_contest, cols) if j % 2 == 0 else (row_lean_contest, rows)
        lean = rng.integers(30, 71, size=length)
        contests.append(
            make(rows, cols, f"E{j}", lean, noise=5, seed=int(rng.integers(2**31)))
        )
    return build_graph(nodes, edges, ElectionSet(contests))


def write_inputs(workload: Workload, seed: int, directory: str) -> str:
    """Write the workload's input files under ``directory``; return the config path."""
    os.makedirs(directory, exist_ok=True)
    graph = _graph(workload, seed)
    paths = {key: os.path.join(directory, f"{key}.csv") for key in ("nodes", "edges", "assignment")}
    write_nodes(graph, paths["nodes"])
    write_edges(graph, paths["edges"])
    lines = [
        f"nodes = {paths['nodes']}",
        f"edges = {paths['edges']}",
        f"pop_tolerance = {POP_TOLERANCE}",
        "burn_in = 0",
        "n_chains = 1",
        "workers = 1",
        f"{workload.work_key} = {workload.per_command}",
    ]
    if workload.command == "chain":
        plan = band_plan(workload.rows, workload.cols, workload.k)
        write_assignment(plan, graph, paths["assignment"])
        lines.append(f"assignment = {paths['assignment']}")
    else:
        lines.append(f"districts = {workload.k}")
    lines += [f"{key} = {value}" for key, value in workload.settings]
    config = os.path.join(directory, CONFIG)
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return config


if __name__ == "__main__":
    spec, seed, *directories = sys.argv[1:]
    fields = json.loads(spec)
    fields["settings"] = tuple(tuple(pair) for pair in fields["settings"])
    for directory in directories:
        write_inputs(Workload(**fields), int(seed), directory)
