"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a pytest failure on any test is the corresponding FAIL line.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from mapchain import errors
from mapchain.chain import run_chain
from mapchain.cli import main as cli_main
from mapchain.constraints import ConstraintGate, SplitReport, gate_accept
from mapchain.diagnostics import autocorrelation, constraint_sweep, fit_line
from mapchain.graph import Plan
from mapchain.io import write_assignment, write_edges, write_nodes
from mapchain.metrics import (
    MetricsConfig,
    efficiency_gap,
    efficiency_gap_from_votes,
    normal_cdf,
    score_plan,
    seats_fractional,
    vote_index,
)
from mapchain.oracle import naive_score
from mapchain.synth import band_plan, column_lean_contest, grid_graph

from conftest import make_path_graph, pathology_graph

PERMISSIVE = ConstraintGate.permissive()


def test_criterion_01_chain_covers_catalog(catalog4, chain4_run):
    # the run: 50,000 steps from the band plan, seed 7 (conftest's chain4_run)
    forms, elapsed = chain4_run
    steps = len(forms) - 1
    visited = set(forms[1:])
    assert steps == 50_000
    assert visited == catalog4.canon  # both directions at once
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 01 PASS: {steps} steps visited all {len(catalog4)} "
        f"catalog plans and nothing else ({elapsed:.1f}s)"
    )


def test_criterion_02_tree_plans_all_valid(catalog4, tree_plans4):
    # the draws: one plan from each of seeds 0..9,999 (conftest's tree_plans4)
    plans, elapsed = tree_plans4
    draws = 10_000
    successes = 0
    for plan in plans:
        assert plan is not None
        assert plan in catalog4
        successes += 1
    assert successes == draws
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 02 PASS: {draws} tree draws, all catalog members, "
        f"zero invalid ({elapsed:.1f}s)"
    )


def test_criterion_03_vote_index_pathology():
    cfg = MetricsConfig(("E0", "E1", "E2", "E3", "E4"))
    plan = Plan([0, 0], 1)
    base = score_plan(pathology_graph(), plan, cfg)
    assert base.seats_avg == 0.8
    assert base.seats_index == 0
    boosted = score_plan(pathology_graph(fifth_scale=10), plan, cfg)
    assert boosted.seats_avg == 0.8
    assert boosted.seats_index == 0
    print(
        "\nACCEPTANCE 03 PASS: seats_avg=0.8 and seats_index=0 exactly, "
        "unchanged under a 10x turnout boost of the lopsided contest"
    )


def test_criterion_04_vote_index_worked_precinct():
    from mapchain.graph import Contest
    from conftest import make_two_node_graph

    contests = [
        Contest("A", np.array([10, 0]), np.array([1, 0])),
        Contest("B", np.array([15, 0]), np.array([2, 0])),
        Contest("C", np.array([11, 0]), np.array([3, 0])),
    ]
    g = make_two_node_graph(contests)
    assert vote_index(g, ("A", "B", "C")).dem[0] == 36
    print("\nACCEPTANCE 04 PASS: precinct votes 10+15+11 index to 36 exactly")


def test_criterion_05_efficiency_gap_sign_convention():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        dem = rng.integers(0, 1000, size=k).astype(np.float64) + 1
        rep = rng.integers(0, 1000, size=k).astype(np.float64) + 1
        assert efficiency_gap_from_votes(rep, dem) == -efficiency_gap_from_votes(dem, rep)
    from mapchain.graph import Contest

    single = make_path_graph(1, contests=[Contest("E", np.array([60]), np.array([40]))])
    assert efficiency_gap(single, Plan([0], 1), "E") == pytest.approx(-0.30, abs=1e-12)
    print(
        "\nACCEPTANCE 05 PASS: party swap negates EG exactly on 100 random "
        "fixtures; D 60-40 single district gives -0.30"
    )


def test_criterion_06_eg_nonlinearity():
    from mapchain.graph import Contest

    contests = [
        Contest("A", np.array([90, 30]), np.array([10, 70])),
        Contest("B", np.array([100, 600]), np.array([900, 400])),
    ]
    g = make_path_graph(2, contests=contests)
    plan = Plan([0, 1], 2)
    per_contest_mean = (
        efficiency_gap(g, plan, "A") + efficiency_gap(g, plan, "B")
    ) / 2
    indexed = efficiency_gap(g, plan, vote_index(g, ("A", "B")))
    gap = abs(indexed - per_contest_mean)
    assert gap > 0.05
    print(
        f"\nACCEPTANCE 06 PASS: EG(vote index) differs from mean per-contest "
        f"EG by {gap:.4f} (> 0.05)"
    )


def test_criterion_07_fractional_seats():
    assert seats_fractional([0.5], 0.05) == 0.5
    assert seats_fractional([0.55], 0.05) == pytest.approx(0.8413, abs=1e-3)
    assert normal_cdf(1.0) == pytest.approx(0.8413, abs=1e-3)
    print(
        "\nACCEPTANCE 07 PASS: share 0.5 -> 0.5 seats exactly; share 0.55 at "
        "sigma 0.05 -> 0.8413 within 1e-3"
    )


def test_criterion_08_acf_contract(grid4, mcfg2):
    acf = autocorrelation([3.0, 1.0, 4.0, 1.0, 5.0], 2)
    assert acf.rho[0] == 1.0
    n = 100
    alternating = np.tile([1.0, -1.0], n // 2)
    assert autocorrelation(alternating, 1).rho[1] == pytest.approx(
        -(n - 1) / n, abs=1e-12
    )
    with pytest.raises(errors.ZeroVariance):
        autocorrelation([5.0] * 50, 3)
    seed_plan = band_plan(4, 4, 4)
    for seed in range(5):
        trace = run_chain(
            grid4, seed_plan, 500, 0.01, PERMISSIVE, mcfg2,
            np.random.default_rng(seed),
        )
        rho = autocorrelation(trace.series("seats_avg"), 50).rho
        early = np.abs(rho[1:6]).mean()
        late = np.abs(rho[20:51]).mean()
        assert late < early, f"seed {seed}: late {late:.3f} >= early {early:.3f}"
    print(
        "\nACCEPTANCE 08 PASS: rho(0)=1, alternating closed form within "
        "1e-12, ZeroVariance raised, ACF decays on 5 of 5 seeds"
    )


def test_criterion_09_constraint_monotonicity(grid4, mcfg2):
    seed_plan = band_plan(4, 4, 4)
    for seed in range(10):
        trace = run_chain(
            grid4, seed_plan, 120, 0.01, PERMISSIVE, mcfg2,
            np.random.default_rng(seed),
        )
        splits = trace.series("county_splits")
        for cap in range(0, 6):
            accepted_tight = {i for i, s in enumerate(splits) if s <= cap}
            accepted_loose = {i for i, s in enumerate(splits) if s <= cap + 1}
            assert accepted_tight <= accepted_loose
    print(
        "\nACCEPTANCE 09 PASS: cap c+1 accepts a superset of cap c on the "
        "same proposal stream, 10 seeds, exact"
    )


def test_criterion_10_gibbs_calibration():
    gate = ConstraintGate.gibbs({"per_district_county_penalty": 0.3})
    current = SplitReport(0, 0, 7, 0)
    proposal = SplitReport(0, 0, 8, 0)  # penalty delta exactly 1
    rng = np.random.default_rng(20240404)
    trials = 100_000
    hits = sum(gate_accept(gate, current, proposal, rng) for _ in range(trials))
    rate = hits / trials
    expected = math.exp(-0.3)
    assert abs(rate - expected) < 0.005
    print(
        f"\nACCEPTANCE 10 PASS: empirical acceptance {rate:.4f} vs "
        f"exp(-0.3)={expected:.4f} over {trials} trials"
    )


def test_criterion_11_differential_metrics(grid4, catalog4):
    configs = [
        MetricsConfig(("PRES",)),
        MetricsConfig(("SEN",)),
        MetricsConfig(("PRES", "SEN")),
    ]
    checked = 0
    for plan in catalog4.plans:
        for cfg in configs:
            fast = score_plan(grid4, plan, cfg)
            slow = naive_score(grid4, plan, cfg)
            for field in dataclasses.fields(fast):
                a = getattr(fast, field.name)
                b = getattr(slow, field.name)
                if isinstance(a, float):
                    assert abs(a - b) <= 1e-12, (field.name, plan)
                else:
                    assert a == b, (field.name, plan)
            checked += 1
    print(
        f"\nACCEPTANCE 11 PASS: score_plan matches the naive oracle within "
        f"1e-12 per field on {checked} plan x contest-sample combinations"
    )


def test_criterion_12_sweep_fit(grid4, tmp_path, monkeypatch):
    slope, intercept = fit_line([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert slope == 1.0 and intercept == 0.0
    write_nodes(grid4, tmp_path / "nodes.csv")
    write_edges(grid4, tmp_path / "edges.csv")
    seed_plan = Plan(np.arange(16) % 4, 4)  # column plan admits tight caps
    write_assignment(seed_plan, grid4, tmp_path / "assignment.csv")
    (tmp_path / "sweep.cfg").write_text(
        f"nodes = {tmp_path / 'nodes.csv'}\n"
        f"edges = {tmp_path / 'edges.csv'}\n"
        f"assignment = {tmp_path / 'assignment.csv'}\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "contests = PRES,SEN\n"
        "pop_tolerance = 0.01\n"
        "seed = 17\n"
        "steps = 60\n"
        "burn_in = 10\n"
        "muni_cap = 1000000000\n"
        "n_plans = 10\n"
        "sweep_caps = 0,2,4\n"
        "sweep_replicates = 2\n"
    )
    results = []  # the sweep's own fit, kept as the CLI computes it

    def kept_sweep(*args, **kwargs):
        results.append(constraint_sweep(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr("mapchain.cli.constraint_sweep", kept_sweep)
    assert cli_main(["sweep", "--config", str(tmp_path / "sweep.cfg")]) == 0
    (result,) = results
    assert [p.cap for p in result.points] == [0, 2, 4]
    x = np.array([p.cap for p in result.points], dtype=np.float64)
    y = np.array([p.mean for p in result.points], dtype=np.float64)
    # oracle A: raw normal equations
    n = x.size
    sxx = (x * x).sum() - x.sum() ** 2 / n
    sxy = (x * y).sum() - x.sum() * y.sum() / n
    slope_ne = sxy / sxx
    intercept_ne = y.mean() - slope_ne * x.mean()
    assert result.fit_slope == pytest.approx(slope_ne, rel=1e-9, abs=1e-15)
    assert result.fit_intercept == pytest.approx(intercept_ne, rel=1e-9, abs=1e-15)
    # oracle B: library least squares
    slope_pf, intercept_pf = np.polyfit(x, y, 1)
    assert result.fit_slope == pytest.approx(float(slope_pf), rel=1e-9, abs=1e-15)
    assert result.fit_intercept == pytest.approx(float(intercept_pf), rel=1e-9, abs=1e-15)
    print(
        f"\nACCEPTANCE 12 PASS: OLS matches normal-equations and polyfit "
        f"oracles (slope {result.fit_slope:.5f}); exact line recovered exactly"
    )


def test_criterion_13_performance_recorded(tmp_path):
    # soft target: recorded, not gated. Build the synthetic 10,000-node,
    # 200-district graph, run >= 1000 unconstrained chain steps, and emit
    # the bench report through the CLI.
    contest = column_lean_contest(
        100, 100, "E0", [40 + (c % 30) for c in range(100)], noise=5, seed=3
    )
    graph = grid_graph(100, 100, contests=[contest], county_mode="columns",
                       muni_mode="quadrants")
    plan = band_plan(100, 100, 200)
    write_nodes(graph, tmp_path / "nodes.csv")
    write_edges(graph, tmp_path / "edges.csv")
    write_assignment(plan, graph, tmp_path / "assignment.csv")
    (tmp_path / "bench.cfg").write_text(
        f"nodes = {tmp_path / 'nodes.csv'}\n"
        f"edges = {tmp_path / 'edges.csv'}\n"
        f"assignment = {tmp_path / 'assignment.csv'}\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "pop_tolerance = 0.02\n"
        "seed = 0\n"
        "county_cap = 10000\n"
        "muni_cap = 10000\n"
        "gibbs_weight_county = 0.01\n"
        "bench_iterations = 1000\n"
        "bench_tree_plans = 2\n"
    )
    t0 = time.perf_counter()
    assert cli_main(["bench", "--config", str(tmp_path / "bench.cfg")]) == 0
    total = time.perf_counter() - t0
    lines = (tmp_path / "out" / "bench.csv").read_text().splitlines()
    assert lines[0] == "configuration,read_in_sec,iterations,seconds"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {
        "chain_unconstrained", "chain_reject", "chain_gibbs", "random_tree"
    }
    chain_seconds = float(rows["chain_unconstrained"][3])
    assert int(rows["chain_unconstrained"][2]) == 1000
    met = "met" if chain_seconds < 60.0 else "MISSED"
    print(
        f"\nACCEPTANCE 13 RECORDED: 1000 unconstrained steps on 10,000 nodes "
        f"/ 200 districts took {chain_seconds:.1f}s (soft 60s target {met}); "
        f"full bench {total:.1f}s"
    )
