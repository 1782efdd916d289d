"""Span tracing of mapchain's layers from outside the program.

``install`` replaces module-level names that mapchain's callers resolve at
call time (``mapchain.chain.recom_step``, ``mapchain.cli.read_graph``, ...)
with wrappers that record one span per call: name, start, end, parent span
and a few per-call attributes. ``uninstall`` puts the originals back. Spans
live in memory; ``layer_metrics`` turns them into the per-layer metrics and
``write_spans`` writes them out when the run ends. A span's self time is its
duration minus the durations of its child spans.
"""
from __future__ import annotations

import csv
import functools
import time

import numpy as np

import mapchain.chain
import mapchain.cli
import mapchain.metrics
import mapchain.trees


class Recorder:
    """In-memory span store. Each span is ``[name, start_ns, end_ns, parent, attrs]``."""

    def __init__(self, sample_every: int):
        self.spans = []
        self._stack = []
        self.sample_every = sample_every
        self.sampled_plans = []  # (graph, plan, metrics config, report)
        self._scores_seen = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def keep_scored(self, graph, plan, metrics_config, report) -> None:
        """Keep every ``sample_every``-th scored plan for the oracle check."""
        self._scores_seen += 1
        if (self._scores_seen - 1) % self.sample_every == 0:
            self.sampled_plans.append((graph, plan, metrics_config, report))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span (used for the benchmark's own root span)."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)


# --- per-call hooks: before(args) -> token; after(recorder, args, result, token) -> attrs


def _step_before(args):
    state = args[0]
    return state.accepted, state.rejected_no_cut


def _step_after(recorder, args, result, before):
    state = args[0]
    return {"accepted": state.accepted > before[0], "no_cut": state.rejected_no_cut > before[1]}


def _bipartition_after(recorder, args, result, _):
    return {"m": int(np.asarray(args[1]).size), "found": result is not None}


def _gate_after(recorder, args, result, _):
    return {"accepted": bool(result)}


def _score_after(recorder, args, result, _):
    recorder.keep_scored(args[0], args[1], args[2], result)


# (module, attribute, span name, before, after)
WRAPPED = (
    (mapchain.cli, "read_config", "io.read_config", None, None),
    (mapchain.cli, "read_graph", "io.read_graph", None, None),
    (mapchain.cli, "read_assignment", "io.read_assignment", None, None),
    (mapchain.cli, "write_trace", "io.write_trace", None, None),
    (mapchain.cli, "write_summary", "io.write_summary", None, None),
    (mapchain.cli, "write_acf_csv", "io.write_acf_csv", None, None),
    (mapchain.cli, "write_histogram_svg", "io.write_histogram_svg", None, None),
    (mapchain.cli, "estimate_burn_in", "diagnostics.estimate_burn_in", None, None),
    (mapchain.cli, "burn_thin", "diagnostics.burn_thin", None, None),
    (mapchain.cli, "autocorrelation", "diagnostics.autocorrelation", None, None),
    (mapchain.cli, "run_chain", "chain.run_chain", None, None),
    (mapchain.cli, "tree_ensemble", "chain.tree_ensemble", None, None),
    (mapchain.cli, "score_plan", "metrics.score_plan", None, _score_after),
    (mapchain.chain, "recom_step", "chain.recom_step", _step_before, _step_after),
    (mapchain.chain, "adjacent_district_pairs", "chain.adjacent_district_pairs", None, None),
    (mapchain.chain, "bipartition_region", "trees.bipartition_region", None, _bipartition_after),
    (mapchain.chain, "score_plan", "metrics.score_plan", None, _score_after),
    (mapchain.chain, "split_report", "constraints.split_report", None, None),
    (mapchain.chain, "gate_accept", "constraints.gate_accept", None, _gate_after),
    (mapchain.chain, "is_contiguous", "graph.is_contiguous", None, None),
    (mapchain.chain, "district_populations", "graph.district_populations", None, None),
    (mapchain.trees, "find_balanced_cut", "trees.find_balanced_cut", None, None),
    (mapchain.metrics, "split_report", "constraints.split_report", None, None),
)

ORIGINALS = {(module.__name__, attr): getattr(module, attr) for module, attr, *_ in WRAPPED}


def _wrap(recorder: Recorder, name: str, fn, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            recorder.spans[index][4] = after(recorder, args, result, token)
        return result

    return wrapper


def install(recorder: Recorder) -> None:
    for module, attr, name, before, after in WRAPPED:
        original = ORIGINALS[(module.__name__, attr)]
        setattr(module, attr, _wrap(recorder, name, original, before, after))


def uninstall() -> None:
    for module, attr, *_ in WRAPPED:
        setattr(module, attr, ORIGINALS[(module.__name__, attr)])


def installed_wrappers() -> list:
    """Names still replaced by a wrapper (empty after ``uninstall``)."""
    return [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in WRAPPED
        if getattr(module, attr) is not ORIGINALS[(module.__name__, attr)]
    ]


def write_spans(recorder: Recorder, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span", "name", "start_ns", "end_ns", "parent"])
        for i, (name, start, end, parent, _) in enumerate(recorder.spans):
            writer.writerow([i, name, start, end, parent])


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 where the layer did no work."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder) -> tuple:
    """Per-layer metrics from the spans, and the names of those whose layer
    made no calls (their values read 0 and mean "did not run").

    ``io.bytes_written`` and ``trace.overhead_pct`` are not here: the caller
    measures them around the commands. Shares (``*_share_pct``) are of the
    sampling time (``chain.sample_s``); ``metrics.share_pct`` counts
    ``score_plan``'s self time, as ``metrics.score_s`` does, and
    ``constraints.gate_share_pct`` the gate plus the split reports made for it.
    """
    spans = recorder.spans
    n = len(spans)
    duration = np.array([(s[2] - s[1]) / 1e9 for s in spans], dtype=np.float64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    names = np.array([s[0] for s in spans], dtype=object)
    child_time = np.zeros(n)
    child_draws = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    is_cut = names == "trees.find_balanced_cut"
    np.add.at(child_draws, parent[is_cut & has_parent], 1)
    self_time = duration - child_time

    def of(name):
        return names == name

    def total(*wanted):
        return float(sum(duration[of(w)].sum() for w in wanted))

    def calls(*wanted):
        return int(sum(of(w).sum() for w in wanted))

    def self_of(*wanted):
        return float(sum(self_time[of(w)].sum() for w in wanted))

    def attr_sum(name, key):
        return sum(float(s[4][key]) for s in spans if s[0] == name and s[4])

    bip = of("trees.bipartition_region")
    bipartitions = int(bip.sum())
    region = np.array([s[4]["m"] for s in spans if s[0] == "trees.bipartition_region"],
                      dtype=np.float64)
    node_draws = float((child_draws[bip] * region).sum()) if bipartitions else 0.0
    draw_s = self_of("trees.bipartition_region")
    draws = int(is_cut.sum())

    steps_ms = duration[of("chain.recom_step")] * 1e3
    steps = int(steps_ms.size)
    gates = calls("constraints.gate_accept")
    scores = calls("metrics.score_plan")
    score_self = self_of("metrics.score_plan")
    samplers = ("chain.run_chain", "chain.tree_ensemble")
    sample_s = total(*samplers)
    # split reports made for the gate, i.e. not inside a score_plan span
    score_idx = set(np.flatnonzero(of("metrics.score_plan")).tolist())
    gate_splits = float(sum(
        duration[i] for i in np.flatnonzero(of("constraints.split_report"))
        if parent[i] not in score_idx
    ))

    validators = ("graph.is_contiguous", "graph.district_populations")
    writers = ("io.write_trace", "io.write_summary", "io.write_acf_csv", "io.write_histogram_svg")
    post = ("diagnostics.estimate_burn_in", "diagnostics.burn_thin", "diagnostics.autocorrelation")
    metrics, not_run = {}, []
    # (calls into the layer, its metrics): a layer with no calls did not run
    for n_calls, values in (
        (bipartitions, {
            "trees.bipartition_s": total("trees.bipartition_region"),
            "trees.bipartitions": bipartitions,
            "trees.tree_draws": draws,
            "trees.draws_per_bipartition": _ratio(draws, bipartitions),
            "trees.draw_s": draw_s,
            "trees.cut_s": total("trees.find_balanced_cut"),
            "trees.region_nodes_mean": float(region.mean()) if bipartitions else 0.0,
            "trees.cut_found_ratio": _ratio(attr_sum("trees.bipartition_region", "found"),
                                            bipartitions),
            "trees.draw_us_per_region_node": _ratio(draw_s * 1e6, node_draws),
            "trees.share_pct": _ratio(100.0 * total("trees.bipartition_region"), sample_s),
        }),
        (scores, {
            "metrics.score_s": score_self,
            "metrics.scores": scores,
            "metrics.score_ms_mean": _ratio(total("metrics.score_plan") * 1e3, scores),
            "metrics.share_pct": _ratio(100.0 * score_self, sample_s),
        }),
        (calls("constraints.split_report"), {
            "constraints.split_report_s": total("constraints.split_report"),
            "constraints.split_reports": calls("constraints.split_report"),
        }),
        (gates, {
            "constraints.gate_s": total("constraints.gate_accept"),
            "constraints.gates": gates,
            "constraints.gate_accept_ratio": _ratio(
                attr_sum("constraints.gate_accept", "accepted"), gates
            ),
            "constraints.gate_share_pct": _ratio(
                100.0 * (gate_splits + total("constraints.gate_accept")), sample_s
            ),
        }),
        (calls(*samplers), {
            "chain.sample_s": sample_s,
            "chain.loop_self_s": self_of(*samplers),
        }),
        (steps, {
            "chain.steps": steps,
            "chain.accept_ratio": _ratio(attr_sum("chain.recom_step", "accepted"), steps),
            "chain.no_cut_ratio": _ratio(attr_sum("chain.recom_step", "no_cut"), steps),
            "chain.step_ms_p50": float(np.percentile(steps_ms, 50)) if steps else 0.0,
            "chain.step_ms_p95": float(np.percentile(steps_ms, 95)) if steps else 0.0,
            "chain.step_self_s": self_of("chain.recom_step"),
        }),
        (calls("chain.adjacent_district_pairs"),
         {"chain.pair_select_s": total("chain.adjacent_district_pairs")}),
        (calls(*validators), {"graph.validate_s": total(*validators)}),
        (calls("io.read_graph"), {"io.read_graph_s": total("io.read_graph")}),
        (calls("io.read_assignment"), {"io.read_assignment_s": total("io.read_assignment")}),
        (calls(*writers), {"io.write_s": total(*writers)}),
        (calls(*post), {"diagnostics.post_s": total(*post)}),
        (calls("cli.main"), {"cli.self_s": self_of("cli.main")}),
    ):
        metrics.update(values)
        if not n_calls:
            not_run += values
    return metrics, not_run
