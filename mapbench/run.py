#!/usr/bin/env python3
"""mapchain benchmark: one workload, one seed, end-to-end or traced.

    python3 mapbench/run.py --workload chain_house --seed 1 --seconds 48 --trace 0

Runs from the root of a mapchain checkout and imports the program from its
``src/``. The seed generates the workload's input files (see
``workloads.py``); the program then runs as the ``mapchain`` CLI would,
through ``mapchain.cli.main`` in this process, one command after another
(each with its own chain seed) for about ``--seconds`` seconds. Every
command's outputs are checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
``read_config`` + ``read_graph`` + ``read_assignment``, timed before every
command), ``samples_per_s`` (trace.csv rows over command wall time, summed
over the run's commands), both scaled to a reference machine speed (see
``end_to_end``), and ``peak_rss_mb`` (this process's peak; the inputs are
generated in a child process). ``--trace 1`` runs ``TRACE_COMMANDS``
commands untraced, then the same commands again with span wrappers
installed (``tracing.py``), and reports the per-layer metrics and the
tracing overhead; it also checks sampled scored plans against the oracle
and each traced trace.csv against its untraced twin. Metric names and units
come from ``BENCHMARK.json``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".mapbench")
PROBE_INTERVAL = 0.4  # seconds between SpeedProbe samples
# the reference_kernel time that end_to_end scales to: about its mean on the
# 2-vCPU Intel Xeon VM that recorded baseline.json
REFERENCE_SECONDS = 0.018
TRACE_COMMANDS = 3  # fixed, so layer totals compare across commits
INPUT_FILES = ("nodes.csv", "edges.csv", "assignment.csv")
NOT_RUN = "(layer did not run)"  # marks a per-layer metric line; record.py reads it

if not os.path.isfile(os.path.join(SRC, "mapchain", "cli.py")):
    sys.exit(f"mapbench: no mapchain sources under {SRC}; run from a mapchain checkout")
sys.path.insert(0, SRC)

import mapchain.cli  # noqa: E402
import numpy as np  # noqa: E402
from mapchain.io import read_assignment, read_config, read_graph  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import CONFIG, POP_TOLERANCE, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)
# metric name -> unit, in report order
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Runner:
    """Runs one workload's commands in this process and collects their checks."""

    def __init__(self, workload, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.out_dir = os.path.join(work, "out")
        inputs, again = os.path.join(work, "inputs"), os.path.join(work, "inputs-again")
        self.config = os.path.join(inputs, CONFIG)
        self.problems = []  # run-level problems (not tied to one command)
        self.attempted = 0
        self.failed = 0
        self.clock = time.perf_counter  # end_to_end swaps in SpeedProbe.clock
        spec = json.dumps(dataclasses.asdict(workload))
        path = os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
        subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"), spec, str(seed), inputs, again],
            env={**os.environ, "PYTHONPATH": path}, check=True, timeout=120,
        )
        for name in INPUT_FILES:
            a, b = os.path.join(inputs, name), os.path.join(again, name)
            if os.path.exists(a) and _sha256(a) != _sha256(b):
                self.problems.append(f"{name} differs between two generations from one seed")

    def command_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def setup_seconds(self) -> float:
        """Time to load and validate the inputs the command reads."""
        gc.collect()  # start from the same heap each time, not the last command's garbage
        t0 = self.clock()
        cfg = read_config(self.config)
        graph = read_graph(cfg.nodes, cfg.edges)
        if cfg.assignment:
            read_assignment(cfg.assignment, graph)
        return self.clock() - t0

    def command(self, i: int, recorder=None):
        """Run command ``i``; return (wall seconds, trace rows, trace sha256, problems)."""
        w = self.workload
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [w.command, "--config", self.config, "--set", f"seed={self.command_seed(i)}",
                "--set", f"out_dir={self.out_dir}"]
        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = self.clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if recorder is None:
                    rc = mapchain.cli.main(argv)
                else:
                    rc = recorder.call("cli.main", mapchain.cli.main, argv)
            except SystemExit as e:
                rc = e.code
            except Exception:
                traceback.print_exc(file=err)
        wall = self.clock() - t0
        self.attempted += 1
        problems = []
        if rc != 0 or err.getvalue():
            problems.append(f"exit {rc}: {err.getvalue().strip()[-500:]}")
        else:
            problems += checks.check_outputs(w.command, w.per_command, out.getvalue(),
                                             self.out_dir)
        trace_csv = os.path.join(self.out_dir, "trace.csv")
        rows = w.per_command if not problems else 0
        digest = _sha256(trace_csv) if os.path.exists(trace_csv) else ""
        return wall, rows, digest, problems

    def record(self, i: int, problems: list) -> None:
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL command {i} (seed {self.command_seed(i)}): {p}", file=sys.stderr)

    def timed(self, i: int):
        """Run command ``i`` untraced and record its problems; return (wall, rows, digest)."""
        wall, rows, digest, problems = self.command(i)
        self.record(i, problems)
        print(f"command {i}: seed {self.command_seed(i)}, {rows} rows in {wall:.3f} s, "
              f"trace sha256 {digest}")
        return wall, rows, digest


def reference_kernel() -> None:
    """A fixed piece of work shaped like the program's hot loops.

    A random walk with one ``rng.integers`` call and numpy scalar indexing per
    step, as in Wilson's algorithm, then whole-array passes over 10,000
    values, as in scoring. Its code and inputs never change, so its time
    follows only how fast the machine runs this kind of code at the moment.
    """
    rng = np.random.default_rng(20220826)
    side = 64
    visits = np.zeros(side * side, dtype=np.int64)
    moves = (1, -1, side, -side)
    u = 0
    for _ in range(5_000):
        v = u + moves[int(rng.integers(4))]
        if 0 <= v < visits.size:
            u = v
            visits[u] += 1
    labels = rng.integers(200, size=10_000)
    weights = rng.random(10_000)
    for _ in range(150):
        np.bincount(labels, weights=weights, minlength=200).argmax()


class SpeedProbe:
    """Times ``reference_kernel`` every PROBE_INTERVAL seconds from a SIGALRM handler.

    ``clock`` is ``time.perf_counter`` less the time spent in the probe, so
    what is timed with it leaves the probe out.
    """

    def __init__(self):
        self.samples = []
        self.paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self._tick(None, None)  # so that even a run shorter than one interval has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def end_to_end(runner: Runner, seconds: float) -> dict:
    """The end-to-end metrics of untraced commands run for about ``seconds``.

    On a shared machine the speed available to this process swings by up to
    40% from one few-second stretch to the next. A ``SpeedProbe`` therefore
    samples the machine's speed throughout the run, and the time metrics,
    measured without the probe's time, are scaled by the run's mean kernel
    time to read as if the machine ran at the speed at which the kernel takes
    REFERENCE_SECONDS. The unscaled figures are printed too.
    """
    setups, walls, rows = [], [], 0
    with SpeedProbe() as probe:
        runner.clock = probe.clock
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + walls[-1] / 2 < seconds:
            setups.append(runner.setup_seconds())
            wall, n, _ = runner.timed(len(walls))
            walls.append(wall)
            rows += n
    kernel = statistics.mean(probe.samples)
    setup, samples_per_s = statistics.median(setups), rows / sum(walls)
    print(f"unscaled: samples_per_s {samples_per_s:.6g} 1/s, setup_s {setup:.6g} s; "
          f"{len(probe.samples)} probes, mean {kernel * 1e3:.4g} ms, "
          f"{REFERENCE_SECONDS / kernel:.4f}x the reference speed")
    return {
        "setup_s": setup * REFERENCE_SECONDS / kernel,
        "samples_per_s": samples_per_s * kernel / REFERENCE_SECONDS,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, spans_path: str) -> dict:
    w = runner.workload
    untraced = [runner.timed(i) for i in range(TRACE_COMMANDS)]
    stages = 1 if w.command == "chain" else math.ceil(math.log2(w.k))
    recorder = tracing.Recorder(sample_every=max(1, w.per_command // 2))
    traced_wall = 0.0
    bytes_written = 0
    tracing.install(recorder)
    try:
        for i, (_, _, untraced_digest) in enumerate(untraced):
            wall, _, digest, problems = runner.command(i, recorder)
            traced_wall += wall
            if not problems:
                bytes_written += _dir_bytes(runner.out_dir)
            if digest != untraced_digest:
                problems.append("trace.csv differs between two runs with the same seed")
            for graph, plan, mcfg, report in recorder.sampled_plans:
                problems += checks.check_plan(graph, plan, mcfg, report, POP_TOLERANCE, stages)
            recorder.sampled_plans.clear()
            runner.record(i, problems)
    finally:
        tracing.uninstall()
    tracing.write_spans(recorder, spans_path)
    metrics, not_run = tracing.layer_metrics(recorder)
    metrics["io.bytes_written"] = bytes_written
    untraced_wall = sum(r[0] for r in untraced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return metrics, not_run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, _ = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(workload, seed: int, seconds: float, trace: bool) -> tuple:
    """Measure one workload and print every metric with its unit.

    Returns the result object and the names of the per-layer metrics whose
    layer did not run. Those still appear in the result, reading 0, because
    a traced run reports every per-layer metric in BENCHMARK.json.
    """
    tag = f"{workload.name}-{seed}-{'trace' if trace else 'e2e'}"
    work = os.path.join(STATE, "work", f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
    try:
        runner = Runner(workload, seed, work)
        if trace:
            spans_path = os.path.join(STATE, "spans", f"{tag}.csv")
            metrics, not_run = per_layer(runner, spans_path)
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        else:
            metrics, not_run = end_to_end(runner, seconds), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    units = PER_LAYER if trace else END_TO_END
    error_rate = runner.failed / runner.attempted
    print(f"workload {workload.name}, seed {seed}, {runner.attempted} command runs")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}"
              + (f" {NOT_RUN}" if name in not_run else ""))
    print(f"  error_rate = {error_rate:.6g} ratio ({runner.failed}/{runner.attempted})")
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, not_run


if __name__ == "__main__":
    sys.exit(main())
