"""Operator CLI: chain | tree | score | sweep | bench | enumerate.

Every command takes ``--config FILE`` (flat key=value, keys matching
RunConfig fields) plus repeatable ``--set key=value`` overrides; flags win
over the file. Exit codes: 0 success, 2 config error, 3 data error,
4 runtime error (running out of memory included). The rng is numpy's
default PCG64, so identical configs produce identical output files.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import errors
from .chain import COUNTERS, ChainTrace, run_chain, tree_ensemble
from .constraints import ConstraintGate
from .diagnostics import autocorrelation, estimate_burn_in, burn_thin, constraint_sweep
from .io import (
    RunConfig,
    read_assignment,
    read_config,
    read_graph,
    replacing,
    write_acf_csv,
    write_assignment,
    write_histogram_svg,
    write_summary,
    write_sweep_csv,
    write_sweep_svg,
    write_trace,
)
from .metrics import MetricsConfig, score_plan
from .oracle import enumerate_partitions

def _gate_from_config(cfg: RunConfig) -> ConstraintGate:
    if cfg.mode == "permissive":
        return ConstraintGate.permissive()
    if cfg.mode == "reject":
        return ConstraintGate.reject(cfg.county_cap, cfg.muni_cap)
    weights = {}
    if cfg.gibbs_weight_county:
        weights["county_splits"] = cfg.gibbs_weight_county
    if cfg.gibbs_weight_muni:
        weights["muni_splits"] = cfg.gibbs_weight_muni
    if cfg.gibbs_weight_district_county:
        weights["per_district_county_penalty"] = cfg.gibbs_weight_district_county
    return ConstraintGate.gibbs(weights)


def _require(cfg: RunConfig, *keys) -> None:
    for key in keys:
        if not getattr(cfg, key):
            raise errors.ConfigError(f"config key {key!r} is required for this command")


def _load(cfg: RunConfig):
    _require(cfg, "nodes", "edges")
    graph = read_graph(cfg.nodes, cfg.edges)
    contests = cfg.validate_contests(graph)
    mcfg = MetricsConfig(contests, cfg.fractional_sigma)
    return graph, mcfg


def _seed_plan(cfg: RunConfig, graph):
    """The plan in ``cfg.assignment``: the chains' seed, the plan to score."""
    _require(cfg, "assignment")
    plan, _ = read_assignment(cfg.assignment, graph)
    return plan


def _chain_job(args):
    """One chain of ``steps`` steps under ``cfg``'s gate and tree settings,
    from the generator that ``default_rng(seed)`` gives."""
    graph, plan, cfg, steps, seed, mcfg = args
    return run_chain(
        graph, plan, steps, cfg.pop_tolerance, _gate_from_config(cfg), mcfg,
        np.random.default_rng(seed),
        max_tree_retries=cfg.max_tree_retries, tree_method=cfg.tree_method,
        pair_selection=cfg.pair_selection,
    )


def _tree_job(graph, k, n_plans, cfg: RunConfig, mcfg):
    """``n_plans`` random-tree plans of ``k`` districts under ``cfg``'s tree
    settings, from the generator that ``default_rng(cfg.seed)`` gives."""
    return tree_ensemble(
        graph, k, cfg.pop_tolerance, n_plans, mcfg, np.random.default_rng(cfg.seed),
        retry_budget=cfg.max_tree_retries, global_retry_cap=cfg.tree_retry_cap,
        tree_method=cfg.tree_method,
    )


def _require_rows_after_burn_in(cfg: RunConfig) -> None:
    """Fail before sampling when ``burn_in`` would drop every step."""
    if cfg.burn_in >= cfg.steps:
        raise errors.ConfigError(
            f"burn_in={cfg.burn_in} leaves no rows of steps={cfg.steps}"
        )


def _run_chains(graph, plan, cfg: RunConfig, mcfg):
    # chain 0 draws from SeedSequence(seed), the stream default_rng(seed) gives,
    # so a one-chain run is unchanged; chain i >= 1 from the root's spawned child i-1
    root = np.random.SeedSequence(cfg.seed)
    seeds = [root] + root.spawn(cfg.n_chains - 1)
    jobs = [(graph, plan, cfg, cfg.steps, s, mcfg) for s in seeds]
    # the pool starts all its processes at once: no more than the machine has CPUs
    workers = min(cfg.workers, cfg.n_chains, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_chain_job, jobs))
    return [_chain_job(job) for job in jobs]


def _concat_post_burn(traces, burn: int, thin: int) -> ChainTrace:
    kept = [burn_thin(trace, burn, thin) for trace in traces]
    return ChainTrace(
        np.concatenate([trace.rows for trace in kept]),
        **{name: sum(getattr(trace, name) for trace in traces) for name in COUNTERS},
    )


def _write_ensemble_outputs(cfg, combined, raw_trace, reference):
    os.makedirs(cfg.out_dir, exist_ok=True)
    trace_path = os.path.join(cfg.out_dir, "trace.csv")
    write_trace(combined, trace_path)
    write_summary(combined, os.path.join(cfg.out_dir, "summary.csv"))
    series = raw_trace.series("seats_avg")
    max_lag = min(cfg.acf_max_lag, series.size - 2)
    acf = None
    if max_lag >= 1:
        try:
            acf = autocorrelation(series, max_lag)
        except errors.ZeroVariance:
            print("note: seats_avg series is constant; skipping acf.csv")
    acf_path = os.path.join(cfg.out_dir, "acf.csv")
    if acf is not None:
        write_acf_csv(acf, acf_path)
    else:  # an earlier run's acf.csv would describe another trace
        with contextlib.suppress(FileNotFoundError):
            os.remove(acf_path)
    for metric, column in (("seats_avg", "seats_avg"), ("seats_index", "seats_index")):
        write_histogram_svg(
            combined.series(metric),
            cfg.hist_bins,
            os.path.join(cfg.out_dir, f"hist_{column}.svg"),
            reference_line=getattr(reference, metric) if reference else None,
        )
    return trace_path


def cmd_chain(cfg: RunConfig) -> int:
    graph, mcfg = _load(cfg)
    plan = _seed_plan(cfg, graph)
    _require_rows_after_burn_in(cfg)
    traces = _run_chains(graph, plan, cfg, mcfg)
    burn = cfg.burn_in if cfg.burn_in >= 0 else estimate_burn_in(traces[0])
    combined = _concat_post_burn(traces, burn, cfg.thinning)
    reference = score_plan(graph, plan, mcfg)
    trace_path = _write_ensemble_outputs(cfg, combined, traces[0], reference)
    print(f"chains={cfg.n_chains} steps={cfg.steps} burn_in={burn} thinning={cfg.thinning}")
    print(" ".join(f"{name}={getattr(combined, name)}" for name in COUNTERS))
    print(f"wrote {trace_path}")
    return 0


def _district_count(cfg: RunConfig, graph):
    """``(k, plan)``: k from ``districts``, else from the assignment's plan."""
    plan = None if cfg.districts > 0 else _seed_plan(cfg, graph)
    k = cfg.districts if plan is None else plan.k
    if not 1 <= k <= graph.n:
        raise errors.ConfigError(f"districts must lie in 1..{graph.n}, got {k}")
    return k, plan


def cmd_tree(cfg: RunConfig) -> int:
    graph, mcfg = _load(cfg)
    k, plan = _district_count(cfg, graph)
    reference = score_plan(graph, plan, mcfg) if plan is not None else None
    trace = _tree_job(graph, k, cfg.n_plans, cfg, mcfg)
    trace_path = _write_ensemble_outputs(cfg, trace, trace, reference)
    print(f"plans={cfg.n_plans} k={k} failed_draws={trace.rejected_no_cut}")
    print(f"wrote {trace_path}")
    return 0


def cmd_score(cfg: RunConfig) -> int:
    graph, mcfg = _load(cfg)
    report = score_plan(graph, _seed_plan(cfg, graph), mcfg)
    for key, value in report.as_dict().items():
        print(f"{key} = {value}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    out = os.path.join(cfg.out_dir, "report.csv")
    items = list(report.as_dict().items())
    with replacing(out) as fh:
        fh.write(",".join(key for key, _ in items) + "\n")
        fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for _, v in items) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    graph, mcfg = _load(cfg)
    plan = _seed_plan(cfg, graph)
    if len(set(cfg.sweep_caps)) < 2:
        raise errors.ConfigError("sweep_caps needs at least 2 distinct caps")
    _require_rows_after_burn_in(cfg)
    baseline_trace = _tree_job(graph, plan.k, cfg.n_plans, cfg, mcfg)
    baseline = float(np.mean(baseline_trace.series(cfg.sweep_metric)))
    burn = cfg.burn_in if cfg.burn_in >= 0 else cfg.steps // 5
    samples = []
    for i, cap in enumerate(cfg.sweep_caps):
        capped = replace(cfg, mode="reject", county_cap=cap)
        pooled = [
            burn_thin(
                _chain_job((graph, plan, capped, cfg.steps, [cfg.seed, i, r], mcfg)),
                burn, cfg.thinning,
            ).series(cfg.sweep_metric)
            for r in range(cfg.sweep_replicates)
        ]
        samples.append((cap, np.concatenate(pooled)))
    extrapolate = None
    if cfg.sweep_extrapolate_cap == cfg.sweep_extrapolate_cap:  # not NaN
        extrapolate = cfg.sweep_extrapolate_cap
    result = constraint_sweep(samples, baseline=baseline, extrapolate_at=extrapolate)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_sweep_csv(result, os.path.join(cfg.out_dir, "sweep.csv"))
    write_sweep_svg(result, os.path.join(cfg.out_dir, "sweep.svg"))
    print(
        f"fit: slope={result.fit_slope:.6g} intercept={result.fit_intercept:.6g} "
        f"value@{result.extrapolated_at:g}={result.extrapolated_value:.6g} "
        f"tree_baseline={baseline:.6g}"
    )
    print(f"wrote {os.path.join(cfg.out_dir, 'sweep.csv')}")
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    graph, mcfg = _load(cfg)
    plan = _seed_plan(cfg, graph)
    read_in = time.perf_counter() - t0
    rows = []  # (configuration, iterations, seconds)
    for name, mode in (("unconstrained", "permissive"), ("reject", "reject"), ("gibbs", "gibbs")):
        t = time.perf_counter()
        _chain_job((graph, plan, replace(cfg, mode=mode), cfg.bench_iterations, cfg.seed, mcfg))
        rows.append((f"chain_{name}", cfg.bench_iterations, time.perf_counter() - t))
    t = time.perf_counter()
    _tree_job(graph, plan.k, cfg.bench_tree_plans, cfg, mcfg)
    rows.append(("random_tree", cfg.bench_tree_plans, time.perf_counter() - t))
    os.makedirs(cfg.out_dir, exist_ok=True)
    out = os.path.join(cfg.out_dir, "bench.csv")
    with replacing(out) as fh:
        fh.write("configuration,read_in_sec,iterations,seconds\n")
        for i, (name, iterations, seconds) in enumerate(rows):
            cell = f"{read_in:.4f}" if i == 0 else ""
            fh.write(f"{name},{cell},{iterations},{seconds:.4f}\n")
    for name, iterations, seconds in rows:
        print(f"{name}: {iterations} iterations in {seconds:.3f}s")
    print(f"read-in: {read_in:.3f}s")
    print(f"wrote {out}")
    return 0


def cmd_enumerate(cfg: RunConfig) -> int:
    graph, _ = _load(cfg)
    k, _ = _district_count(cfg, graph)
    tolerance = cfg.pop_tolerance
    catalog = enumerate_partitions(graph, k, tolerance)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(glob.escape(cfg.out_dir), "catalog_*.csv")):
        os.remove(stale)  # an earlier catalog's files
    for i, plan in enumerate(catalog.plans):
        write_assignment(plan, graph, os.path.join(cfg.out_dir, f"catalog_{i:04d}.csv"))
    print(f"catalog size: {len(catalog)} (k={k}, tolerance={tolerance:g})")
    return 0


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise errors.ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapchain",
        description="District-plan ensembles over precinct graphs: "
        "recombination chains, random-tree baselines, fairness metrics, "
        "and mixing diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("chain", "run recombination chains and write trace/summary/histograms"),
        ("tree", "run an independent random-tree ensemble"),
        ("score", "score a single plan file"),
        ("sweep", "constraint-relaxation sweep with linear extrapolation"),
        ("bench", "time read-in and sampling configurations"),
        ("enumerate", "exhaustively enumerate valid partitions (tiny graphs)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable; flags win)")
        if name == "score":
            p.add_argument("--assignment", help="plan file to score "
                           "(falls back to the config's assignment)")
    return parser


_COMMANDS = {
    "chain": cmd_chain,
    "tree": cmd_tree,
    "score": cmd_score,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
    "enumerate": cmd_enumerate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _parse_overrides(args.set)
        if getattr(args, "assignment", None):  # score's flag wins over --set
            overrides["assignment"] = args.assignment
        return _COMMANDS[args.command](read_config(args.config, overrides=overrides))
    except (errors.MapchainError, OSError, MemoryError) as e:
        # numpy's failed allocations are MemoryError subclasses; name the base
        name = "MemoryError" if isinstance(e, MemoryError) else type(e).__name__
        print(f"ERROR {name}: {e}", file=sys.stderr)
        if isinstance(e, errors.ConfigError):
            return 2
        return 3 if isinstance(e, errors.DataError) else 4


if __name__ == "__main__":
    sys.exit(main())
