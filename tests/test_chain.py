import os
import subprocess
import sys

import numpy as np
import pytest

import mapchain.chain
from mapchain import errors
from mapchain.chain import (
    TRACE_DTYPE,
    ChainState,
    ChainTrace,
    adjacent_district_pairs,
    random_tree_plan,
    recom_step,
    run_chain,
    tree_ensemble,
)
from mapchain.constraints import ConstraintGate
from mapchain.graph import Plan, canonical_form, district_populations, is_contiguous
from mapchain.metrics import MetricsConfig
from mapchain.oracle import enumerate_partitions
from mapchain.synth import band_plan, grid_graph

from conftest import make_star_graph

PERMISSIVE = ConstraintGate.permissive()


def test_adjacent_pairs_row_bands(grid4, band4):
    pairs = adjacent_district_pairs(grid4, band4)
    assert pairs.tolist() == [[0, 1], [1, 2], [2, 3]]


def test_recom_on_2x2_alternates_between_the_two_partitions(grid22):
    catalog = enumerate_partitions(grid22, 2, 0.0)
    state = ChainState(plan=Plan([0, 0, 1, 1], 2), rng=np.random.default_rng(0))
    seen = set()
    for _ in range(50):
        recom_step(state, grid22, 0.0, PERMISSIVE)
        form = canonical_form(state.plan)
        assert form in catalog.canon
        seen.add(form)
    assert seen == catalog.canon  # both partitions visited
    assert state.proposed == 50
    assert state.counters_consistent()


def test_reject_all_gate_freezes_plan(grid4, band4):
    # caps (0, 0) reject every proposal on this fixture (every contiguous
    # 4-district plan splits *some* county/muni here, and so does any
    # proposal), so the plan never moves
    gate = ConstraintGate.reject(0, 0)
    state = ChainState(plan=band4, rng=np.random.default_rng(1))
    for _ in range(30):
        recom_step(state, grid4, 0.01, gate)
    assert state.plan == band4
    assert state.rejected_by_constraint + state.rejected_no_cut == 30
    assert state.rejected_by_constraint > 0


def test_star_no_cut_increments_counter():
    g = make_star_graph(4)
    plan = Plan([0, 0, 1, 1, 1], 2)  # hub+leaf vs three leaves: contiguous
    state = ChainState(plan=plan, rng=np.random.default_rng(0))
    recom_step(state, g, 0.01, PERMISSIVE, max_tree_retries=10)
    assert state.rejected_no_cut == 1
    assert state.plan == plan


def test_no_adjacent_pair_error():
    g = grid_graph(2, 2)
    state = ChainState(plan=Plan([0] * 4, 1), rng=np.random.default_rng(0))
    with pytest.raises(errors.NoAdjacentDistrictPair):
        recom_step(state, g, 0.0, PERMISSIVE)


def test_run_chain_zero_steps(grid4, band4, mcfg2):
    trace = run_chain(
        grid4, band4, 0, 0.01, PERMISSIVE, mcfg2, np.random.default_rng(0)
    )
    assert len(trace) == 0


def test_run_chain_deterministic(grid4, band4, mcfg2):
    a = run_chain(grid4, band4, 100, 0.01, PERMISSIVE, mcfg2, np.random.default_rng(7))
    b = run_chain(grid4, band4, 100, 0.01, PERMISSIVE, mcfg2, np.random.default_rng(7))
    assert a.rows.tobytes() == b.rows.tobytes()
    assert (a.proposed, a.accepted) == (b.proposed, b.accepted)


def test_run_chain_counters_reconcile_with_flags(grid4, band4, mcfg2):
    trace = run_chain(
        grid4, band4, 200, 0.01, PERMISSIVE, mcfg2, np.random.default_rng(3)
    )
    assert trace.accepted == int(trace.accept_flags().sum())
    assert trace.proposed == len(trace)
    assert trace.proposed == (
        trace.accepted + trace.rejected_by_constraint + trace.rejected_no_cut
    )


def test_run_chain_scores_each_new_plan_once(grid4, band4, mcfg2, monkeypatch):
    real_step, real_score = mapchain.chain.recom_step, mapchain.chain.score_plan
    stepped, scored = [], []

    def step(state, *args, **kwargs):
        real_step(state, *args, **kwargs)
        stepped.append(state.plan)
        return state

    def score(graph, plan, config):
        scored.append(plan)
        return real_score(graph, plan, config)

    monkeypatch.setattr(mapchain.chain, "recom_step", step)
    monkeypatch.setattr(mapchain.chain, "score_plan", score)
    gate = ConstraintGate.gibbs({"county_splits": 2.0})
    trace = run_chain(
        grid4, band4, 150, 0.01, gate, mcfg2, np.random.default_rng(5), max_tree_retries=1
    )
    assert trace.rejected_by_constraint > 0 and trace.rejected_no_cut > 0
    # scored: the first row's plan, then each row's plan that differs from the last row's
    expected = [stepped[0]] + [b for a, b in zip(stepped, stepped[1:]) if b is not a]
    assert len(scored) == len(expected) < len(trace)
    assert all(a is b for a, b in zip(scored, expected))
    # every row, repeated or not, holds its own plan's report
    rescored = ChainTrace(np.empty(len(trace), dtype=TRACE_DTYPE))
    for t, plan in enumerate(stepped):
        rescored.record(t, trace.rows["accepted"][t], real_score(grid4, plan, mcfg2))
    assert rescored.rows.tobytes() == trace.rows.tobytes()


def test_chain_plans_stay_valid(grid4, band4, mcfg2):
    # validate_every re-asserts contiguity and balance internally
    run_chain(
        grid4, band4, 150, 0.01, PERMISSIVE, mcfg2,
        np.random.default_rng(11), validate_every=1,
    )


def _unbalanced_split(graph, subset, targets, tolerance, rng, **kwargs):
    return subset[:1], subset[1:]


def test_invariant_check_raises(grid4, band4, mcfg2, monkeypatch):
    monkeypatch.setattr("mapchain.chain.bipartition_region", _unbalanced_split)
    with pytest.raises(errors.ChainInvariantViolated, match="population window"):
        run_chain(
            grid4, band4, 1, 0.01, PERMISSIVE, mcfg2,
            np.random.default_rng(0), validate_every=1,
        )


_OPTIMISED_CHECK = """
import sys
import numpy as np
import mapchain.chain
from mapchain import errors
from mapchain.constraints import ConstraintGate
from mapchain.metrics import MetricsConfig
from mapchain.synth import band_plan, grid4_graph

if not sys.flags.optimize:
    sys.exit("interpreter is not running with -O")
mapchain.chain.bipartition_region = lambda graph, subset, *a, **kw: (subset[:1], subset[1:])
try:
    mapchain.chain.run_chain(
        grid4_graph(), band_plan(4, 4, 4), 1, 0.01, ConstraintGate.permissive(),
        MetricsConfig(("PRES", "SEN")), np.random.default_rng(0), validate_every=1,
    )
except errors.ChainInvariantViolated:
    sys.exit(0)
sys.exit("run_chain accepted an unbalanced plan")
"""


def test_invariant_check_survives_python_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMISED_CHECK],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_proposal_locality(grid4, band4):
    # a recom proposal changes at most 2 districts' membership
    state = ChainState(plan=band4, rng=np.random.default_rng(5))
    prev = band4
    for _ in range(60):
        recom_step(state, grid4, 0.01, PERMISSIVE)
        if state.plan is not prev:
            changed = np.flatnonzero(prev.assignment != state.plan.assignment)
            touched = set(prev.assignment[changed].tolist()) | set(
                state.plan.assignment[changed].tolist()
            )
            assert len(touched) <= 2
        prev = state.plan


def test_invalid_seed_rejections(grid4, mcfg2):
    rng = np.random.default_rng(0)
    # discontiguous seed
    broken = Plan(np.array([0, 1, 0, 1] * 4), 2)
    flags = is_contiguous(grid4, broken)
    assert not all(flags)
    with pytest.raises(errors.InvalidSeedPlan, match="contiguity"):
        run_chain(grid4, broken, 5, 0.01, PERMISSIVE, mcfg2, rng)
    # unbalanced seed: snake split 6 vs 10
    labels = np.zeros(16, dtype=np.int64)
    labels[:6] = 0
    labels[6:] = 1
    lopsided = Plan(labels, 2)
    if all(is_contiguous(grid4, lopsided)):
        with pytest.raises(errors.InvalidSeedPlan, match="balance"):
            run_chain(grid4, lopsided, 5, 0.01, PERMISSIVE, mcfg2, rng)
    # seed violating a reject gate
    gate = ConstraintGate.reject(0, 0)
    with pytest.raises(errors.InvalidSeedPlan, match="gate"):
        run_chain(grid4, band_plan(4, 4, 4), 5, 0.01, gate, mcfg2, rng)


def test_constraint_monotonicity_on_replayed_stream(grid4, band4, mcfg2):
    # replay one permissive run's proposal stream against nested caps: the
    # looser cap must accept a superset
    for seed in range(10):
        trace = run_chain(
            grid4, band4, 120, 0.01, PERMISSIVE, mcfg2, np.random.default_rng(seed)
        )
        splits = trace.series("county_splits")
        for cap in range(0, 8):
            tighter = {i for i, s in enumerate(splits) if s <= cap}
            looser = {i for i, s in enumerate(splits) if s <= cap + 1}
            assert tighter <= looser


def test_random_tree_plan_k1(grid4):
    plan = random_tree_plan(grid4, 1, 0.0, np.random.default_rng(0))
    assert plan.k == 1
    assert plan.n == 16


def test_random_tree_plan_2x2(grid22):
    catalog = enumerate_partitions(grid22, 2, 0.0)
    seen = set()
    for seed in range(30):
        plan = random_tree_plan(grid22, 2, 0.0, np.random.default_rng(seed))
        assert plan in catalog
        seen.add(canonical_form(plan))
    assert seen == catalog.canon


def test_random_tree_plans_always_in_catalog(grid4, catalog4):
    for seed in range(300):
        plan = random_tree_plan(grid4, 4, 0.0, np.random.default_rng(seed))
        if plan is not None:
            assert plan in catalog4
            assert all(is_contiguous(grid4, plan))
            assert district_populations(grid4, plan).tolist() == [4, 4, 4, 4]


def test_random_tree_plan_failure_is_none():
    g = make_star_graph(4)
    assert random_tree_plan(g, 2, 0.01, np.random.default_rng(0), retry_budget=5) is None


def test_tree_ensemble_basics(grid4, mcfg2):
    trace = tree_ensemble(grid4, 4, 0.0, 5, mcfg2, np.random.default_rng(1))
    assert len(trace) == 5
    assert trace.accepted == 5
    assert trace.accept_flags().all()


def test_tree_ensemble_distinct_seeds_differ(grid4, mcfg2):
    a = tree_ensemble(grid4, 4, 0.0, 8, mcfg2, np.random.default_rng(1))
    b = tree_ensemble(grid4, 4, 0.0, 8, mcfg2, np.random.default_rng(2))
    assert a.rows.tobytes() != b.rows.tobytes()  # >2 valid plans exist, collision unlikely


def test_tree_ensemble_retry_cap():
    g = make_star_graph(4)
    with pytest.raises(errors.RetryBudgetExhausted):
        tree_ensemble(
            g, 2, 0.01, 1, MetricsConfig(("E",)), np.random.default_rng(0),
            retry_budget=2, global_retry_cap=3,
        )


def test_tree_ensemble_empirical_distribution_recorded(grid4, catalog4, mcfg2):
    # the artifact records the tree generator's empirical distribution for
    # comparison with the exact catalog; no uniformity is asserted (tree
    # generators are known non-uniform)
    trace = tree_ensemble(grid4, 4, 0.0, 200, mcfg2, np.random.default_rng(9))
    values = trace.series("seats_avg")
    exact = np.array(
        [
            __import__("mapchain.metrics", fromlist=["score_plan"]).score_plan(
                grid4, p, mcfg2
            ).seats_avg
            for p in catalog4.plans
        ]
    )
    # sampled support is a subset of the exact support
    assert set(np.round(values, 9)) <= set(np.round(exact, 9))


def test_alternate_proposal_options_stay_valid(grid4, band4, mcfg2):
    # edge-weighted pair selection and random-weight MST trees are config
    # switches for parity experiments; plans must stay valid under both
    trace = run_chain(
        grid4, band4, 80, 0.01, PERMISSIVE, mcfg2, np.random.default_rng(2),
        tree_method="mst", pair_selection="edges", validate_every=1,
    )
    assert trace.accepted > 0
    with pytest.raises(ValueError):
        run_chain(
            grid4, band4, 2, 0.01, PERMISSIVE, mcfg2, np.random.default_rng(2),
            pair_selection="bogus",
        )


def test_gibbs_gate_breaks_acceptance(grid4, band4, mcfg2):
    # a strong per-district penalty should reject at least some proposals
    gate = ConstraintGate.gibbs({"per_district_county_penalty": 2.0})
    trace = run_chain(
        grid4, band4, 150, 0.01, gate, mcfg2, np.random.default_rng(8)
    )
    assert trace.rejected_by_constraint > 0
    assert trace.accepted > 0
