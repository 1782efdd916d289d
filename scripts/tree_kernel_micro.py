#!/usr/bin/env python3
"""Time the tree kernel per call: a region's build and a Wilson draw on it.

    python3 scripts/tree_kernel_micro.py --rounds 8 --against ../parent

The regions, all on unit-population rook grids from ``mapchain.synth``:

- ``strip``: 20 merged adjacent district pairs of the 100 x 100 grid's
  200-district band plan (100 nodes each), chosen by a seeded generator;
  most chain_house steps split such a pair.
- ``mid_chain``: 20 merged adjacent pairs of the plan that 1,000 ReCom steps
  (permissive gate, 2% tolerance, seed 0) reach from that band plan.
- ``whole_48x48``: every node of the 48 x 48 grid, which each tree_ensemble
  plan splits first.
- ``block_576``: the 24 x 24 corner block of the 48 x 48 grid.

Each round times, per region, ``BUILDS`` builds (``_Induced``) and
``DRAWS`` draws (``_wilson``, generator seeds 0, 1, ...) spread over the
region's subsets, with ``time.process_time``. Prints, per region, the median
over rounds of the mean microseconds per build and per draw, then one JSON
line with the same numbers.

``--against DIR`` loads ``DIR/src/mapchain/trees.py`` as a second module of
this checkout's ``mapchain`` package (so it uses this checkout's
``graph.py`` and ``errors.py``) and times it in the same rounds, alternating
which of the two goes first; draws must give the same trees on both.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mapchain.trees as trees  # noqa: E402
from mapchain.chain import ChainState, recom_step  # noqa: E402
from mapchain.constraints import ConstraintGate  # noqa: E402
from mapchain.synth import band_plan, grid_graph  # noqa: E402

# per round and region: (builds, draws)
CALLS = {"strip": (100, 100), "mid_chain": (100, 200), "whole_48x48": (10, 20),
         "block_576": (40, 40)}
PAIRS = 20  # merged pairs per chain_house region kind
CHAIN_STEPS = 1000


def _merged_pairs(graph, plan, rng):
    """``PAIRS`` distinct adjacent district pairs of ``plan``, merged."""
    a, b = plan.assignment[graph.edge_a], plan.assignment[graph.edge_b]
    cross = a != b
    keys = np.unique(np.minimum(a, b)[cross] * plan.k + np.maximum(a, b)[cross])
    chosen = rng.choice(keys, size=PAIRS, replace=False)
    return [np.flatnonzero(np.isin(plan.assignment, divmod(int(key), plan.k)))
            for key in chosen]


def regions():
    """Each region kind's graph and its node subsets, sorted ascending."""
    house = grid_graph(100, 100)
    plan = band_plan(100, 100, 200)
    strips = _merged_pairs(house, plan, np.random.default_rng(1))
    state = ChainState(plan=plan, rng=np.random.default_rng(0))
    gate = ConstraintGate.permissive()
    for _ in range(CHAIN_STEPS):
        recom_step(state, house, 0.02, gate)
    mid = _merged_pairs(house, state.plan, np.random.default_rng(2))
    small = grid_graph(48, 48)
    block = (np.arange(24)[:, None] * 48 + np.arange(24)).ravel()
    return {"strip": (house, strips), "mid_chain": (house, mid),
            "whole_48x48": (small, [np.arange(small.n)]), "block_576": (small, [block])}


def load_trees(directory: str):
    """``directory``'s ``trees.py`` as a module of this ``mapchain`` package."""
    path = os.path.join(directory, "src", "mapchain", "trees.py")
    name = "mapchain._trees_against"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def time_round(module, graph, subsets, builds, draws, induced):
    """Mean process-time microseconds per build and per draw."""
    gc.collect()
    t0 = time.process_time()
    for i in range(builds):
        module._Induced(graph, subsets[i % len(subsets)])
    t1 = time.process_time()
    for seed in range(draws):
        module._wilson(induced[seed % len(induced)], np.random.default_rng(seed))
    t2 = time.process_time()
    return 1e6 * (t1 - t0) / builds, 1e6 * (t2 - t1) / draws


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--against", metavar="DIR",
                        help="a second mapchain checkout whose trees.py is timed too")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    modules = {"this": trees}
    if args.against:
        modules["against"] = load_trees(args.against)
    kinds = regions()
    induced = {(side, kind): [module._Induced(graph, s) for s in subsets]
               for side, module in modules.items() for kind, (graph, subsets) in kinds.items()}
    for kind, (graph, subsets) in kinds.items():  # warm up; both sides draw the same trees
        for i, _ in enumerate(subsets):
            drawn = [modules[side]._wilson(induced[side, kind][i], np.random.default_rng(i))
                     for side in modules]
            if any(d != drawn[0] for d in drawn):
                raise SystemExit(f"{kind}: the two trees.py draw different trees")
    samples = {(side, kind): [] for side in modules for kind in kinds}
    for r in range(args.rounds):
        sides = list(modules) if r % 2 == 0 else list(modules)[::-1]
        for kind, (graph, subsets) in kinds.items():
            for side in sides:
                samples[side, kind].append(time_round(modules[side], graph, subsets,
                                                      *CALLS[kind], induced[side, kind]))
    result = {"rounds": args.rounds, "unit": "us per call, median over rounds of process_time"}
    for side in modules:
        result[side] = {
            kind: {what: round(statistics.median(s[j] for s in samples[side, kind]), 1)
                   for j, what in enumerate(("build_us", "draw_us"))}
            for kind in kinds}
    print(f"{'region':<12} {'call':<6} " + " ".join(f"{side:>9}" for side in modules))
    for kind in kinds:
        for what in ("build_us", "draw_us"):
            print(f"{kind:<12} {what[:-3]:<6} "
                  + " ".join(f"{result[side][kind][what]:>9.1f}" for side in modules))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
