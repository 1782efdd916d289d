#!/usr/bin/env python3
"""Time the pieces of a ReCom step on inputs of the chain_house benchmark's
shape.

    python3 scripts/step_micro.py --rounds 5 --against ../parent

The inputs come from ``mapchain.synth``: the 100 x 100 unit-population
grid with 10 x 10 counties, 5 x 5 municipalities and 8 contests (column-
and row-leaning in turn), the 200-district band plan, 2% tolerance, a Gibbs
gate of weight 1 on the per-district county penalty and 10 tree draws at
most per step, as chain_house runs them. Each round runs ``run_chain`` for
``STEPS`` steps from seeds 0, 1, ... (``CHAINS`` chains, no periodic
from-scratch check) with a timer around every piece of a step, and reports,
per piece, the median over rounds of its microseconds per step:

- ``pair_choice``: ``chain.adjacent_district_pairs``;
- ``subgraph_build``: the merged region's subgraph, ``trees._Induced``
  (with ``NeighborIndex.gather``, where the checkout has it);
- ``tree_draws``: ``bipartition_region`` without the subgraph it builds:
  the tree draws and the cut search;
- ``tally_propose``, ``gate``, ``tally_apply``: ``PlanTally.propose``,
  ``gate_accept`` and ``PlanTally.apply`` (which splits the two districts'
  gathered votes by the labels ``propose`` read off the proposal, where the
  checkout has that path, and regroups them by a sort otherwise);
- ``pair_move``: ``PairTable.move``;
- ``score_read``: ``score_plan`` reading a new plan's report off the
  chain's tally, where the read updates kept rows. The read that builds
  them is in no piece: ``run_chain`` reads the seed's report before the
  first step, where the checkout does that (``ChainTrace.seed_report``),
  and the chain's first in-loop read builds them otherwise;
- ``step_rest``: the rest of ``recom_step``: the region's nodes (a mask
  over all n nodes, or the merge of two kept district lists), the
  proposal's copy and the bookkeeping.

A piece's time is its own, without the pieces timed inside it. The timers
add about a microsecond per call, alike on both sides.

``--against DIR`` times the ``mapchain`` package under ``DIR/src`` too. Each
round runs each checkout in a fresh process of its own, alternating which
goes first; both must write the same trace. Prints a table and then one
JSON line with the same numbers.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEPS = 150
CHAINS = 3
PIECES = ("pair_choice", "subgraph_build", "tree_draws", "tally_propose", "gate",
          "tally_apply", "pair_move", "score_read", "step_rest")


def _inputs():
    """The chain_house graph and seed plan, built with ``mapchain.synth``."""
    import numpy as np
    from mapchain.graph import ElectionSet, build_graph
    from mapchain.synth import band_plan, column_lean_contest, grid_nodes_edges, row_lean_contest

    rows = cols = 100
    nodes, edges = grid_nodes_edges(rows, cols, county_mode="single", muni_mode="single")
    nodes = [dataclasses.replace(node, county_id=f"C{i // cols // 10}_{i % cols // 10}",
                                 muni_id=f"M{i // cols // 5}_{i % cols // 5}")
             for i, node in enumerate(nodes)]
    rng = np.random.default_rng(1)
    contests = []
    for j in range(8):
        make, length = (column_lean_contest, cols) if j % 2 == 0 else (row_lean_contest, rows)
        contests.append(make(rows, cols, f"E{j}", rng.integers(30, 71, size=length), noise=5,
                             seed=int(rng.integers(2**31))))
    graph = build_graph(nodes, edges, ElectionSet(contests))
    return graph, band_plan(rows, cols, 200)


class Timers:
    """Exclusive nanoseconds per piece: a piece's time less the time of the
    pieces timed inside it."""

    def __init__(self):
        self.ns = dict.fromkeys(PIECES, 0)
        self.calls = dict.fromkeys(PIECES, 0)
        self._inner = []  # per open timer, the time of the pieces inside it

    def wrap(self, piece, fn, counted=None):
        def timed(*args, **kwargs):
            if counted is not None and not counted(args):
                return fn(*args, **kwargs)
            self._inner.append(0)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter_ns() - start
                inner = self._inner.pop()
                self.ns[piece] += spent - inner
                self.calls[piece] += 1
                if self._inner:
                    self._inner[-1] += spent
        return timed


def _round(src: str) -> dict:
    """One round on the checkout whose package is under ``src``: microseconds
    per step of each piece, and the traces' bytes as a digest."""
    sys.path.insert(0, src)
    import hashlib

    import numpy as np
    import mapchain.chain as chain
    import mapchain.graph as graph_module
    import mapchain.metrics as metrics
    import mapchain.trees as trees
    from mapchain.constraints import ConstraintGate
    from mapchain.metrics import MetricsConfig

    graph, plan = _inputs()
    gate = ConstraintGate.gibbs({"per_district_county_penalty": 1.0})
    config = MetricsConfig(graph.elections.names())

    def run(seed):
        return chain.run_chain(graph, plan, STEPS, 0.02, gate, config, np.random.default_rng(seed),
                               max_tree_retries=10, validate_every=0)

    run(CHAINS)  # warm up
    timers = Timers()

    def updating_read(args):  # not a read that builds the tally's kept rows
        return args[3].rows is not None

    patches = [
        (chain, "adjacent_district_pairs", "pair_choice", None),
        (trees._Induced, "__init__", "subgraph_build", None),
        (graph_module.NeighborIndex, "gather", "subgraph_build", None),
        (chain, "bipartition_region", "tree_draws", None),
        (metrics.PlanTally, "propose", "tally_propose", None),
        (chain, "gate_accept", "gate", None),
        (metrics.PlanTally, "apply", "tally_apply", None),
        (chain.PairTable, "move", "pair_move", None),
        (chain, "score_plan", "score_read", updating_read),
        (chain, "recom_step", "step_rest", None),
    ]
    originals = []
    for owner, name, piece, counted in patches:
        if hasattr(owner, name):
            originals.append((owner, name, getattr(owner, name)))
            setattr(owner, name, timers.wrap(piece, getattr(owner, name), counted))
    digest = hashlib.sha256()
    try:
        for seed in range(CHAINS):
            digest.update(run(seed).rows.tobytes())
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    steps = CHAINS * STEPS
    return {"us_per_step": {p: timers.ns[p] / 1e3 / steps for p in PIECES},
            "calls_per_step": {p: timers.calls[p] / steps for p in PIECES},
            "trace_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--against", metavar="DIR",
                        help="a second mapchain checkout whose package is timed too")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    sides = {"this": os.path.join(ROOT, "src")}
    if args.against:
        sides["against"] = os.path.join(os.path.abspath(args.against), "src")
    samples = {side: [] for side in sides}
    context = multiprocessing.get_context("spawn")
    for r in range(args.rounds):
        for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            # a fresh process per round and side: each imports its own mapchain
            with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
                samples[side].append(pool.submit(_round, sides[side]).result())
    digests = {s["trace_sha256"] for side in sides for s in samples[side]}
    if len(digests) != 1:
        raise SystemExit("the checkouts write different traces")
    result = {"rounds": args.rounds, "steps": CHAINS * STEPS,
              "unit": "us per step, median over rounds of perf_counter_ns",
              "trace_sha256": digests.pop()}
    for side in sides:
        per_step = {p: round(statistics.median(s["us_per_step"][p] for s in samples[side]), 1)
                    for p in PIECES}
        per_step["total"] = round(sum(per_step.values()), 1)
        result[side] = {"us_per_step": per_step,
                        "calls_per_step": {p: round(samples[side][0]["calls_per_step"][p], 3)
                                           for p in PIECES}}
    print(f"{'piece':<16}" + "".join(f"{side:>10}" for side in sides))
    for piece in PIECES + ("total",):
        print(f"{piece:<16}" + "".join(f"{result[side]['us_per_step'][piece]:>10.1f}"
                                       for side in sides))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
