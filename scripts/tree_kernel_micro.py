#!/usr/bin/env python3
"""Time the tree kernel per call: a region's build, a Wilson draw on it, and
a whole bipartition of it.

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

Each round times, per region, with ``time.process_time``: builds
(``_Induced``), draws (``_wilson``, generator seeds 0, 1, ...) and
bipartitions (``bipartition_region``, seeds 0, 1, ...: the build, every
draw, its subtree populations, cut search and the mask of the cut taken),
each spread over the region's subsets in the numbers ``CALLS`` gives. A
merged pair is split as a chain_house step splits it, at targets
``(ideal, ideal)`` with ``ideal = total / 200`` and 10 tree draws at most;
a tree-plan region at tree_ensemble's proportional targets for its k
(36 for the whole grid, 9 for the block) and 50 draws at most; both at 2%
tolerance. Prints, per region, the median over rounds of the mean
microseconds per build, per draw and per bipartition, and the mean number
of tree draws per bipartition (counted outside the timed rounds), then one
JSON line with the same numbers.

``--against DIR`` loads ``DIR/src/mapchain/trees.py`` as a second module of
this checkout's ``mapchain`` package (so it uses this checkout's
``graph.py`` and ``errors.py``) and times it in the same rounds, alternating
which of the two goes first; draws must give the same trees, and
bipartitions the same parts, on both.
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

# per round and region: (builds, draws, bipartitions)
CALLS = {"strip": (100, 100, 50), "mid_chain": (100, 200, 50), "whole_48x48": (10, 20, 10),
         "block_576": (40, 40, 20)}
CALL_NAMES = ("build_us", "draw_us", "bipartition_us")
PAIRS = 20  # merged pairs per chain_house region kind
CHAIN_STEPS = 1000
TOLERANCE = 0.02
# a region kind's bipartition: (districts per merged pair or None for the
# chain's (ideal, ideal) targets, districts of the whole tree plan, draws at most)
SPLITS = {"strip": (None, 200, 10), "mid_chain": (None, 200, 10),
          "whole_48x48": (36, 36, 50), "block_576": (9, 36, 50)}


def _merged_pairs(graph, plan, rng):
    """``PAIRS`` distinct adjacent district pairs of ``plan``, merged."""
    a, b = plan.assignment[graph.edge_a], plan.assignment[graph.edge_b]
    cross = a != b
    keys = np.unique(np.minimum(a, b)[cross] * plan.k + np.maximum(a, b)[cross])
    chosen = rng.choice(keys, size=PAIRS, replace=False)
    return [np.flatnonzero(np.isin(plan.assignment, divmod(int(key), plan.k)))
            for key in chosen]


def targets(graph, subset, kind):
    """The population targets at which ``kind``'s bipartition splits ``subset``."""
    kk, k, _ = SPLITS[kind]
    if kk is None:
        ideal = graph.total_population / k
        return (ideal, ideal)
    pop = int(graph.populations[subset].sum())
    return (pop * ((kk + 1) // 2) / kk, pop * (kk // 2) / kk)


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


def bipartitions(module, graph, subsets, kind, calls):
    """``calls`` bipartitions of ``kind``'s subsets, generator seeds 0, 1, ..."""
    retries = SPLITS[kind][2]
    return [module.bipartition_region(graph, subsets[seed % len(subsets)],
                                      targets(graph, subsets[seed % len(subsets)], kind),
                                      TOLERANCE, np.random.default_rng(seed), retries)
            for seed in range(calls)]


def counted_bipartitions(module, graph, subsets, kind, calls):
    """The parts of ``calls`` bipartitions, as lists, and the mean number of
    tree draws per call: ``bipartition_region`` searches each draw for a cut
    through the module's ``find_balanced_cut``, wrapped here to count."""
    search, draws = module.find_balanced_cut, [0]

    def counting(*args):
        draws[0] += 1
        return search(*args)

    module.find_balanced_cut = counting
    try:
        parts = bipartitions(module, graph, subsets, kind, calls)
    finally:
        module.find_balanced_cut = search
    return [p if p is None else [a.tolist() for a in p] for p in parts], draws[0] / calls


def time_round(module, graph, subsets, kind, induced):
    """Mean process-time microseconds per build, per draw and per bipartition."""
    builds, draws, splits = CALLS[kind]
    gc.collect()
    t0 = time.process_time()
    for i in range(builds):
        module._Induced(graph, subsets[i % len(subsets)])
    t1 = time.process_time()
    for seed in range(draws):
        module._wilson(induced[seed % len(induced)], np.random.default_rng(seed))
    t2 = time.process_time()
    bipartitions(module, graph, subsets, kind, splits)
    t3 = time.process_time()
    return 1e6 * (t1 - t0) / builds, 1e6 * (t2 - t1) / draws, 1e6 * (t3 - t2) / splits


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
    draws_per_call = {}
    for kind, (graph, subsets) in kinds.items():  # warm up; both sides draw the same trees
        for i, _ in enumerate(subsets):
            drawn = [modules[side]._wilson(induced[side, kind][i], np.random.default_rng(i))
                     for side in modules]
            if any(d != drawn[0] for d in drawn):
                raise SystemExit(f"{kind}: the two trees.py draw different trees")
        split = [counted_bipartitions(modules[side], graph, subsets, kind, CALLS[kind][2])
                 for side in modules]
        if any(s != split[0] for s in split):
            raise SystemExit(f"{kind}: the two trees.py take different cuts")
        draws_per_call[kind] = round(split[0][1], 2)
    samples = {(side, kind): [] for side in modules for kind in kinds}
    for r in range(args.rounds):
        sides = list(modules) if r % 2 == 0 else list(modules)[::-1]
        for kind, (graph, subsets) in kinds.items():
            for side in sides:
                samples[side, kind].append(time_round(modules[side], graph, subsets, kind,
                                                      induced[side, kind]))
    result = {"rounds": args.rounds, "unit": "us per call, median over rounds of process_time",
              "draws_per_bipartition": draws_per_call}
    for side in modules:
        result[side] = {
            kind: {what: round(statistics.median(s[j] for s in samples[side, kind]), 1)
                   for j, what in enumerate(CALL_NAMES)}
            for kind in kinds}
    print(f"{'region':<12} {'call':<12} " + " ".join(f"{side:>9}" for side in modules))
    for kind in kinds:
        for what in CALL_NAMES:
            print(f"{kind:<12} {what[:-3]:<12} "
                  + " ".join(f"{result[side][kind][what]:>9.1f}" for side in modules))
        print(f"{kind:<12} {'draws/call':<12} {draws_per_call[kind]:>9.2f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
