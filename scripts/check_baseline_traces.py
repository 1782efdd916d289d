#!/usr/bin/env python3
"""Check that the program still writes the benchmark baseline's traces.

    python3 scripts/check_baseline_traces.py

For seeds 1-10 of each workload in ``mapbench/baseline.json``, runs
``mapbench/run.py --seconds 0.1 --trace 0`` through ``mapbench/record.py``'s
``run_one`` (one command or a few, about 2.5 s each), as the baseline was
recorded, and compares the sha256 of command 0's trace.csv with the one the
baseline holds for that seed. A change that keeps the RNG stream and the
output format writes every trace byte for byte, so any difference means the
stream or the outputs changed. Prints one line per run and exits 1 on a
mismatch, an incorrect run or a failed one, 0 when all match. Changes
nothing under ``mapbench/``; run.py keeps its scratch files in ``.mapbench/``.
"""
from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "mapbench"))

from record import run_one  # noqa: E402

SEEDS = range(1, 11)


def main() -> int:
    with open(os.path.join(ROOT, "mapbench", "baseline.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["end_to_end"]["workloads"]
    mismatches = 0
    for workload, entry in recorded.items():
        for seed in SEEDS:
            expected = entry["trace_sha256"][str(seed)]
            result = run_one(workload, seed, 0.1, 0)
            ok = result["correct"] and result["trace_sha256"] == expected
            mismatches += not ok
            verdict = "match" if ok else (
                f"MISMATCH {result['trace_sha256']} != {expected}, correct={result['correct']}")
            print(f"{workload} seed {seed}: {verdict}", flush=True)
    total = len(recorded) * len(SEEDS)
    print(f"{total - mismatches}/{total} traces match mapbench/baseline.json")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
