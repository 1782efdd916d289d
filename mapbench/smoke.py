#!/usr/bin/env python3
"""Smoke test of the benchmark's own code, in a few seconds.

    python3 mapbench/smoke.py

Runs both workload shapes on tiny grids, untraced and traced, and
checks that every metric named in BENCHMARK.json is emitted with its unit,
that the outputs pass their checks, that every layer runs on the chain
shapes and only chain-only layers are idle on the tree shape, that no span
wrapper is left installed after a traced run, and that a failing command is
counted as failed.
Exits 0 when all checks pass.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys

import run  # sets up the import path to the checkout's src/
import tracing
from workloads import WORKLOADS

TINY = {
    "chain_house": dict(rows=10, cols=10, k=10, per_command=8),
    "tree_ensemble": dict(rows=8, cols=8, k=4, per_command=4),
}
# metrics of layers that only a chain command calls
CHAIN_ONLY = ("chain.steps", "chain.accept_ratio", "chain.no_cut_ratio", "chain.step_",
              "chain.pair_select_s", "constraints.gate", "graph.", "io.read_assignment_s")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    for name, size in TINY.items():
        workload = dataclasses.replace(WORKLOADS[name], **size)
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result, not_run = run.run(workload, seed=1, seconds=0.5, trace=trace)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0, f"{label}: not correct")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            got = result["metrics"]
            for metric in declared:
                entry = got.get(metric["name"])
                expect(entry is not None and entry["unit"] == metric["unit"],
                       f"{label}: metric {metric['name']} missing or wrong unit: {entry}")
            idle = [m for m in not_run if not m.startswith(CHAIN_ONLY)]
            expect(not idle if workload.command == "tree" else not not_run,
                   f"{label}: layers that should run did not: {not_run}")
            expect(not tracing.installed_wrappers(),
                   f"{label}: wrappers left installed: {tracing.installed_wrappers()}")

    broken = dataclasses.replace(
        WORKLOADS["chain_house"], **TINY["chain_house"],
        settings=(("mode", "reject"),),  # county_cap 0 refuses the split seed plan: exit 3
    )
    result, _ = run.run(broken, seed=1, seconds=0.1, trace=False)
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "a failing command was not counted as failed")

    for problem in problems:
        print(f"SMOKE FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
