#!/usr/bin/env python3
"""Count the garbage collections a benchmark workload's commands trigger.

    python3 scripts/gc_counts.py --workload chain_house --seed 201 --commands 10

Writes the workload's inputs as ``mapbench/run.py`` does (``mapbench/
workloads.py`` in a child process), then runs its command through
``mapchain.cli.main`` in this process ``--commands`` times. Every collection
is counted by generation and by phase: ``reads`` is the time inside
``cli._load`` and ``cli._seed_plan`` (reading and validating the inputs),
``rest`` the remainder of the command. Prints one JSON object with the mean
collections and collection milliseconds per command in each phase, and the
mean wall milliseconds of each phase.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "mapbench")]

import mapchain.cli as cli  # noqa: E402
from workloads import CONFIG, WORKLOADS  # noqa: E402

PHASES = ("reads", "rest")


class Counter:
    """Collections per (phase, generation) and their time, from ``gc.callbacks``."""

    def __init__(self):
        self.phase = "rest"
        self.counts = {(p, g): 0 for p in PHASES for g in range(3)}
        self.gc_s = dict.fromkeys(PHASES, 0.0)
        self.wall_s = dict.fromkeys(PHASES, 0.0)
        self._start = 0.0

    def __call__(self, event, info):
        if event == "start":
            self._start = time.perf_counter()
        else:
            self.counts[self.phase, info["generation"]] += 1
            self.gc_s[self.phase] += time.perf_counter() - self._start

    def reading(self, fn):
        def wrapped(*args):
            self.phase, t0 = "reads", time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.wall_s["reads"] += time.perf_counter() - t0
                self.phase = "rest"
        return wrapped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--commands", type=int, default=10)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as work:
        spec = json.dumps(dataclasses.asdict(workload))
        subprocess.run([sys.executable, os.path.join(ROOT, "mapbench", "workloads.py"), spec,
                        str(args.seed), work],
                       env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}, check=True)
        counter = Counter()
        cli._load, cli._seed_plan = counter.reading(cli._load), counter.reading(cli._seed_plan)
        gc.callbacks.append(counter)
        total_s = 0.0
        for i in range(args.commands):
            argv = [workload.command, "--config", os.path.join(work, CONFIG),
                    "--set", f"seed={args.seed * 1000 + i}",
                    "--set", f"out_dir={os.path.join(work, 'out')}"]
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    sys.exit(f"command {i} failed")
            total_s += time.perf_counter() - t0
        gc.callbacks.remove(counter)
    n = args.commands
    counter.wall_s["rest"] = total_s - counter.wall_s["reads"]
    result = {"workload": workload.name, "seed": args.seed, "commands": n}
    for phase in PHASES:
        result[phase] = {
            **{f"gen{g}_per_command": counter.counts[phase, g] / n for g in range(3)},
            "gc_ms_per_command": 1e3 * counter.gc_s[phase] / n,
            "wall_ms_per_command": 1e3 * counter.wall_s[phase] / n,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
