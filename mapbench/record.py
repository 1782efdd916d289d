#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 mapbench/record.py --seeds 1-10 [--workloads chain_house,...]
                               [--trace 0|1] [--write mapbench/baseline.json]

Each (workload, seed) runs ``run.py`` in its own process, one at a time,
from the checkout root, with ``run_seconds`` from ``BENCHMARK.json``. For
every metric it prints the median, the quartiles (``statistics.quantiles``,
n=4) and the quartile spread as a share of the median, against the bound in
``BENCHMARK.json``. A per-layer metric whose layer did not run on a workload
(``run.py`` marks its line) is listed under ``not_run`` instead of being
summarized. ``--write`` stores the summary, the per-seed values, the SHA-256
of each seed's first trace.csv and the machine in a JSON file, under the key
``end_to_end`` or ``per_layer`` (by ``--trace``), keeping the other.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    match = re.search(r"^command 0: .* trace sha256 (\w+)$", proc.stdout, re.M)
    result["trace_sha256"] = match.group(1) if match else None
    result["not_run"] = re.findall(r"^  (\S+) = .* \(layer did not run\)$", proc.stdout, re.M)
    return result


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="JSON file for the summary")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    seeds = parse_seeds(args.seeds)
    report = {"machine": machine(), "run_seconds": bench["run_seconds"], "trace": args.trace,
              "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_one(workload, seed, bench["run_seconds"], args.trace)
            runs.append(result)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                     if k in bounds and "bound" in bounds[k]}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        metrics = {}
        not_run = sorted(set().union(*(r["not_run"] for r in runs)))
        for name, meta in bounds.items():
            if name not in runs[0]["metrics"] or name in not_run:
                continue
            values = [r["metrics"][name]["value"] for r in runs]
            summary = summarize(values)
            summary.update({"unit": meta["unit"], "better": meta["better"],
                            "bound": meta.get("bound"), "values": values})
            metrics[name] = summary
            if meta.get("bound") is not None:
                print(f"  {name}: median {summary['median']:.6g} {meta['unit']} "
                      f"q1 {summary['q1']:.6g} q3 {summary['q3']:.6g} "
                      f"spread {summary['spread']:.3f} (bound {meta['bound']})")
        report["workloads"][workload] = {
            "why": whys.get(workload),
            "error_rate": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "trace_sha256": {str(s): r["trace_sha256"] for s, r in zip(seeds, runs)},
            "metrics": metrics,
            "not_run": not_run,
        }
        print(f"  error_rate: {report['workloads'][workload]['error_rate']}", flush=True)
    if args.write:
        stored = {}
        if os.path.exists(args.write):
            with open(args.write, encoding="utf-8") as fh:
                stored = json.load(fh)
        stored["per_layer" if args.trace else "end_to_end"] = report
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
