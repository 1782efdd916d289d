"""Output checks for one command run; each returns a list of problems (empty = ok)."""
from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import fields

import numpy as np

from mapchain.graph import district_populations, is_contiguous
from mapchain.io import TRACE_COLUMNS
from mapchain.metrics import TRACE_METRIC_FIELDS
from mapchain.oracle import naive_score

_CHAIN_COUNTERS = re.compile(
    r"proposed=(\d+) accepted=(\d+) rejected_by_constraint=(\d+) rejected_no_cut=(\d+)"
)
_TREE_COUNTERS = re.compile(r"plans=(\d+) k=(\d+) failed_draws=(\d+)")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_outputs(command: str, expected_rows: int, stdout: str, out_dir: str) -> list:
    """trace.csv row count, printed counters, and summary.csv against trace.csv."""
    try:
        header, rows = _read_csv(os.path.join(out_dir, "trace.csv"))
        summary_header, summary = _read_csv(os.path.join(out_dir, "summary.csv"))
    except OSError as e:
        return [f"missing output: {e}"]
    problems = []
    if tuple(header) != TRACE_COLUMNS:
        problems.append(f"trace.csv header {header}")
    if len(rows) != expected_rows:
        problems.append(f"trace.csv has {len(rows)} rows, expected {expected_rows}")
    accepted_rows = sum(int(row[1]) for row in rows)

    if command == "chain":
        match = _CHAIN_COUNTERS.search(stdout)
        if match is None:
            return problems + ["no acceptance counters printed"]
        proposed, accepted, by_constraint, no_cut = map(int, match.groups())
        if proposed != accepted + by_constraint + no_cut:
            problems.append(f"counters do not add up: {match.group(0)}")
        if proposed != expected_rows or accepted != accepted_rows:
            problems.append(f"counters {match.group(0)} disagree with trace.csv")
    else:
        match = _TREE_COUNTERS.search(stdout)
        if match is None:
            return problems + ["no plan count printed"]
        if int(match.group(1)) != expected_rows or accepted_rows != len(rows):
            problems.append(f"plan count {match.group(0)} disagrees with trace.csv")

    if summary_header != ["metric", "mean", "std", "min", "max"]:
        problems.append(f"summary.csv header {summary_header}")
    by_metric = {row[0]: [float(v) for v in row[1:]] for row in summary}
    for i, (column, _) in enumerate(TRACE_METRIC_FIELDS, start=2):
        values = np.array([float(row[i]) for row in rows], dtype=np.float64)
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        expected = [float(values.mean()), std, float(values.min()), float(values.max())]
        got = by_metric.get(column)
        if got is None or not all(_close(a, b) for a, b in zip(got, expected)):
            problems.append(f"summary.csv {column} {got} != trace.csv {expected}")
    return problems


def check_plan(graph, plan, metrics_config, report, tolerance: float, stages: int = 1) -> list:
    """Contiguity, population window, and score_plan against oracle.naive_score.

    ``stages`` is the number of balanced splits a district went through: the
    chain re-splits against the ideal (1), while the tree generator's stage
    tolerances compound over ceil(log2 k) stages.
    """
    problems = []
    flags = is_contiguous(graph, plan)
    if not all(flags):
        problems.append(f"districts {[d for d, ok in enumerate(flags) if not ok]} not contiguous")
    ideal = graph.total_population / plan.k
    pops = district_populations(graph, plan)
    low, high = ideal * (1 - tolerance) ** stages, ideal * (1 + tolerance) ** stages
    if (pops < low - 1e-9).any() or (pops > high + 1e-9).any():
        problems.append(f"district populations {pops.min()}..{pops.max()} outside the window")
    slow = naive_score(graph, plan, metrics_config)
    for field in fields(report):
        a, b = getattr(report, field.name), getattr(slow, field.name)
        if not (_close(a, b) if isinstance(a, float) else a == b):
            problems.append(f"score_plan {field.name}={a!r}, naive_score gives {b!r}")
    return problems
