import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mapchain.chain
import mapchain.trees
from mapchain import errors
from mapchain.chain import (
    PAIR_SELECTION,
    TRACE_DTYPE,
    ChainState,
    ChainTrace,
    PairTable,
    adjacent_district_pairs,
    district_members,
    random_tree_plan,
    recom_step,
    run_chain,
    tree_ensemble,
)
from mapchain.constraints import ConstraintGate, split_report
from mapchain.graph import (
    AdjacencyEdge,
    Contest,
    ElectionSet,
    Plan,
    PrecinctNode,
    build_graph,
    canonical_form,
    district_populations,
    is_contiguous,
)
from mapchain.metrics import MetricsConfig, PlanTally, score_plan
from mapchain.oracle import enumerate_partitions
from mapchain.synth import band_plan, grid_graph
from mapchain.trees import TREE_METHODS

import chain_reference
import score_reference
from conftest import make_star_graph
from test_graph import irregular_edges

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
    stepped, scored, from_scratch = [], [], []

    def step(state, *args, **kwargs):
        real_step(state, *args, **kwargs)
        stepped.append(state.plan)
        return state

    def score(graph, plan, config, tally=None):
        (scored if tally is not None else from_scratch).append(plan)
        return real_score(graph, plan, config, tally)

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
    # the invariant check rescores the current plan from scratch every validate_every steps
    assert len(from_scratch) == 1 and from_scratch[0] is stepped[100]
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


def _disconnected_split(graph, subset, targets, tolerance, rng, **kwargs):
    # two rows of four: the first row's left half with the second row's right
    # half, and the rest; equal in size, and neither side connected
    return subset[[0, 1, 6, 7]], subset[[2, 3, 4, 5]]


def test_periodic_check_catches_a_split_district(grid4, band4, mcfg2, monkeypatch):
    monkeypatch.setattr("mapchain.chain.bipartition_region", _disconnected_split)
    with pytest.raises(errors.ChainInvariantViolated, match="step 0: contiguity"):
        run_chain(
            grid4, band4, 1, 0.01, PERMISSIVE, mcfg2,
            np.random.default_rng(0), validate_every=1,
        )


_OPTIMISED_CHECKS = """
import sys
import numpy as np
import mapchain.chain
from mapchain import errors
from mapchain.chain import PairTable, run_chain
from mapchain.constraints import ConstraintGate
from mapchain.metrics import MetricsConfig, PlanTally
from mapchain.synth import band_plan, grid4_graph

if not sys.flags.optimize:
    sys.exit("interpreter is not running with -O")
apply, move, step = PlanTally.apply, PairTable.move, mapchain.chain.recom_step


def unbalanced_split(graph, subset, *args, **kwargs):
    return subset[:1], subset[1:]


def corrupted_apply(tally, step_move):
    apply(tally, step_move)
    tally.votes[0, step_move.districts[0]] += 1


def corrupted_kept_sum(tally, step_move):
    apply(tally, step_move)
    if tally.rows is not None:  # kept since the tally's first score
        dem_wasted2, rep_wasted2, total = tally.rows[0].counts
        tally.rows[0].counts = dem_wasted2, rep_wasted2, 2 * total


def corrupted_move(table, plan, districts, nodes):
    move(table, plan, districts, nodes)
    table.keys = table.keys[1:]


def corrupted_members(state, *args, **kwargs):
    step(state, *args, **kwargs)
    state.members[0] = state.members[0][1:]
    return state


# (check, owner, attribute, corrupted version, steps, validate_every)
CORRUPTIONS = (
    ("population window", mapchain.chain, "bipartition_region", unbalanced_split, 1, 1),
    ("tally", PlanTally, "apply", corrupted_apply, 10, 5),
    ("kept sum", PlanTally, "apply", corrupted_kept_sum, 10, 5),
    ("pair table", PairTable, "move", corrupted_move, 10, 5),
    ("district members", mapchain.chain, "recom_step", corrupted_members, 1, 1),
)
for check, owner, attribute, corrupted, steps, validate_every in CORRUPTIONS:
    original = getattr(owner, attribute)
    setattr(owner, attribute, corrupted)
    try:
        run_chain(
            grid4_graph(), band_plan(4, 4, 4), steps, 0.01, ConstraintGate.permissive(),
            MetricsConfig(("PRES", "SEN")), np.random.default_rng(0),
            validate_every=validate_every,
        )
        print(check + ": passed")
    except errors.ChainInvariantViolated:
        print(check + ": raised")
    finally:
        setattr(owner, attribute, original)
"""


@pytest.fixture(scope="module")
def optimised_outcomes():
    """Each corruption's outcome, all from one ``python -O`` interpreter:
    ``raised`` when the chain caught it, ``passed`` when it ran on."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMISED_CHECKS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return dict(line.split(": ") for line in result.stdout.splitlines())


def test_invariant_check_survives_python_O(optimised_outcomes):
    assert optimised_outcomes["population window"] == "raised", (
        "run_chain accepted an unbalanced plan"
    )


def test_tally_check_survives_python_O(optimised_outcomes):
    assert optimised_outcomes["tally"] == "raised", (
        "run_chain kept scoring off a corrupted tally"
    )


def test_kept_sum_check_survives_python_O(optimised_outcomes):
    assert optimised_outcomes["kept sum"] == "raised", (
        "run_chain kept scoring off a corrupted kept vote total"
    )


def test_pair_table_check_survives_python_O(optimised_outcomes):
    assert optimised_outcomes["pair table"] == "raised", (
        "run_chain kept choosing pairs off a corrupted table"
    )


def test_district_members_check_survives_python_O(optimised_outcomes):
    assert optimised_outcomes["district members"] == "raised", (
        "run_chain kept merging districts off corrupted node lists"
    )


@st.composite
def irregular_chain_case(draw):
    """A random connected graph with random units, votes and float geometry,
    a seed plan from the tree generator, and a gate."""
    n = draw(st.integers(6, 22))
    pairs = draw(irregular_edges(n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # floats with full mantissas, so that sums depend on the order of their terms
    shared = rng.uniform(0.05, 2.0, len(pairs))
    touching = np.zeros(n)
    for (a, b), s in zip(pairs, shared):
        touching[a] += s
        touching[b] += s
    # a node's perimeter exceeds its shared boundary, so no district's is <= 0
    nodes = [
        PrecinctNode(
            f"p{i}", 1,
            f"C{draw(st.integers(0, 3))}", f"M{draw(st.integers(0, 5))}",
            rng.uniform(0.1, 3.0), touching[i] + rng.uniform(0.1, 3.0),
        )
        for i in range(n)
    ]
    votes = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    contests = [
        Contest(name, np.array(draw(votes)), np.array(draw(votes)) + 1) for name in ("A", "B")
    ]
    graph = build_graph(
        nodes, [AdjacencyEdge(a, b, s) for (a, b), s in zip(pairs, shared)], ElectionSet(contests)
    )
    k = draw(st.integers(2, 4))
    # stage tolerances compound over the splits, so the plan is within the
    # chain's tolerance of 0.5 for k <= 4
    for _ in range(20):
        plan = random_tree_plan(graph, k, 0.2, rng)
        if plan is not None:
            break
    assume(plan is not None)
    splits = split_report(graph, plan)
    gate = draw(st.sampled_from(["permissive", "reject", "gibbs"]))
    if gate == "reject":
        gate = ConstraintGate.reject(splits.county_splits + draw(st.integers(0, 1)),
                                     splits.muni_splits + draw(st.integers(0, 1)))
    elif gate == "gibbs":
        weight = st.floats(0.0, 2.0)
        gate = ConstraintGate.gibbs({"county_splits": draw(weight), "muni_splits": draw(weight),
                                     "per_district_county_penalty": draw(weight)})
    else:
        gate = PERMISSIVE
    return graph, plan, gate, seed, draw(st.integers(1, 3))


@given(irregular_chain_case())
@settings(max_examples=60, deadline=None)
def test_tally_matches_scoring_from_scratch_on_irregular_graphs(case):
    graph, seed_plan, gate, seed, retries = case
    mcfg = MetricsConfig(("A", "B"), 0.3)
    real_step, real_propose = mapchain.chain.recom_step, PlanTally.propose
    stepped, proposals = [], []

    def step(state, *args, **kwargs):
        real_step(state, *args, **kwargs)
        stepped.append(state.plan)
        return state

    def propose(tally, plan, districts, nodes):
        move = real_propose(tally, plan, districts, nodes)
        if tally.splits is not None:  # not the tally's own construction
            proposals.append((move.splits, plan, tally.splits, tally.plan))
        return move

    with mock.patch.object(mapchain.chain, "recom_step", step), \
            mock.patch.object(PlanTally, "propose", propose):
        trace = run_chain(graph, seed_plan, 40, 0.5, gate, mcfg, np.random.default_rng(seed),
                          max_tree_retries=retries, validate_every=0)
    rescored = ChainTrace(np.empty(len(trace), dtype=TRACE_DTYPE))
    reference = ChainTrace(np.empty(len(trace), dtype=TRACE_DTYPE))
    for t, plan in enumerate(stepped):
        rescored.record(t, trace.rows["accepted"][t], score_plan(graph, plan, mcfg))
        reference.record(t, trace.rows["accepted"][t], score_reference.score_plan(graph, plan, mcfg))
    assert rescored.rows.tobytes() == trace.rows.tobytes()
    assert reference.rows.tobytes() == trace.rows.tobytes()
    # the gate saw the proposal's and the current plan's own split counts
    assert len(proposals) == trace.accepted + trace.rejected_by_constraint
    for splits, plan, current_splits, current in proposals:
        assert splits == split_report(graph, plan) == score_reference.split_report(graph, plan)
        assert current_splits == score_reference.split_report(graph, current)


@given(irregular_chain_case())
@settings(max_examples=40, deadline=None)
def test_every_proposal_passes_the_plan_checks(case):
    # recom_step builds its proposals with Plan.unchecked; each must be a plan
    # that the checking constructor accepts as it is
    graph, seed_plan, gate, seed, retries = case
    real_unchecked = Plan.unchecked
    proposals = []

    def unchecked(assignment, k):
        proposals.append(real_unchecked(assignment, k))
        return proposals[-1]

    with mock.patch.object(Plan, "unchecked", unchecked):
        trace = run_chain(graph, seed_plan, 40, 0.5, gate, MetricsConfig(("A", "B"), 0.3),
                          np.random.default_rng(seed), max_tree_retries=retries,
                          validate_every=0)
    assert len(proposals) == trace.accepted + trace.rejected_by_constraint
    for proposal in proposals:
        assert proposal == Plan(proposal.assignment, seed_plan.k)
        assert not proposal.assignment.flags.writeable


@given(irregular_chain_case(), st.sampled_from(PAIR_SELECTION), st.sampled_from(TREE_METHODS))
@settings(max_examples=60, deadline=None)
def test_pair_table_and_sliced_subgraph_keep_the_stream(case, pair_selection, tree_method):
    graph, seed_plan, gate, seed, retries = case
    mcfg = MetricsConfig(("A", "B"), 0.3)
    options = dict(max_tree_retries=retries, tree_method=tree_method,
                   pair_selection=pair_selection, validate_every=0)
    real_step = mapchain.chain.recom_step

    def step(state, *args, **kwargs):
        real_step(state, *args, **kwargs)
        if pair_selection == "edges":
            assert np.array_equal(state.pairs.cross, chain_reference.cross_edges(graph, state.plan))
        else:
            assert np.array_equal(state.pairs.keys, chain_reference.pair_keys(graph, state.plan))
        return state

    with mock.patch.object(mapchain.chain, "recom_step", step):
        trace = run_chain(graph, seed_plan, 40, 0.5, gate, mcfg, np.random.default_rng(seed),
                          **options)
    with mock.patch.object(mapchain.chain, "PairTable", chain_reference.RecountedPairs), \
            mock.patch.object(mapchain.chain, "adjacent_district_pairs",
                              chain_reference.adjacent_district_pairs), \
            mock.patch.object(mapchain.trees, "_Induced", chain_reference.MaskedInduced), \
            mock.patch.object(mapchain.chain, "_Induced", chain_reference.MaskedInduced):
        reference = run_chain(graph, seed_plan, 40, 0.5, gate, mcfg,
                              np.random.default_rng(seed), **options)
    assert trace.rows.tobytes() == reference.rows.tobytes()
    assert (trace.accepted, trace.rejected_by_constraint, trace.rejected_no_cut) == (
        reference.accepted, reference.rejected_by_constraint, reference.rejected_no_cut)


@pytest.mark.parametrize("pair_selection", PAIR_SELECTION)
def test_corrupt_pair_table_raises_at_the_next_check(grid4, band4, mcfg2, monkeypatch,
                                                     pair_selection):
    move = PairTable.move

    def corrupted(table, plan, districts, nodes):
        move(table, plan, districts, nodes)
        if table.keys is not None:
            table.keys = table.keys[1:]
        else:
            table.cross = table.cross[1:]

    monkeypatch.setattr(PairTable, "move", corrupted)
    with pytest.raises(errors.ChainInvariantViolated, match="step 4: the pair table"):
        run_chain(
            grid4, band4, 10, 0.01, PERMISSIVE, mcfg2, np.random.default_rng(0),
            pair_selection=pair_selection, validate_every=5,
        )


def test_corrupt_tally_raises_at_the_next_check(grid4, band4, mcfg2, monkeypatch):
    apply = PlanTally.apply

    def corrupted(tally, move):
        apply(tally, move)
        tally.votes[0, move.districts[0]] += 1

    monkeypatch.setattr(PlanTally, "apply", corrupted)
    with pytest.raises(errors.ChainInvariantViolated, match="step 4: the tally"):
        run_chain(
            grid4, band4, 10, 0.01, PERMISSIVE, mcfg2,
            np.random.default_rng(0), validate_every=5,
        )


def test_corrupt_kept_sum_raises_at_the_next_check(grid4, band4, mcfg2, monkeypatch):
    apply = PlanTally.apply

    def corrupted(tally, move):
        apply(tally, move)
        if tally.rows is not None:  # kept since the tally's first score
            dem_wasted2, rep_wasted2, total = tally.rows[0].counts
            tally.rows[0].counts = dem_wasted2, rep_wasted2, 2 * total

    monkeypatch.setattr(PlanTally, "apply", corrupted)
    with pytest.raises(errors.ChainInvariantViolated, match="step 4: the tally"):
        run_chain(
            grid4, band4, 10, 0.01, PERMISSIVE, mcfg2,
            np.random.default_rng(0), validate_every=5,
        )


def test_corrupt_exact_share_sum_raises_at_the_next_check(grid4, band4, mcfg2, monkeypatch):
    # a kept row's exact share sum, off by 2**-44 (2**1030 units of 2**-1074),
    # moves the mean-median; the check against a from-scratch score catches it
    apply = PlanTally.apply

    def corrupted(tally, move):
        apply(tally, move)
        if tally.rows is not None and tally.rows[0].shares.units is not None:
            tally.rows[0].shares.total += 1 << 1030

    monkeypatch.setattr(PlanTally, "apply", corrupted)
    with pytest.raises(errors.ChainInvariantViolated, match="step 4: the tally"):
        run_chain(
            grid4, band4, 10, 0.01, PERMISSIVE, mcfg2,
            np.random.default_rng(0), validate_every=5,
        )


def test_corrupt_district_members_raise_at_the_next_check(grid4, band4, mcfg2, monkeypatch):
    # district 0 loses a node from its list just before the check at step 4,
    # so no other kept structure has read the corrupted list yet
    real_step, calls = mapchain.chain.recom_step, []

    def corrupted(state, *args, **kwargs):
        real_step(state, *args, **kwargs)
        calls.append(state.plan)
        if len(calls) == 5:
            state.members[0] = state.members[0][1:]
        return state

    monkeypatch.setattr(mapchain.chain, "recom_step", corrupted)
    with pytest.raises(errors.ChainInvariantViolated, match="step 4: the district node lists"):
        run_chain(
            grid4, band4, 10, 0.01, PERMISSIVE, mcfg2, np.random.default_rng(0),
            validate_every=5,
        )


def test_district_members_follow_the_plan(grid4, band4):
    # a bare state counts its lists at its first step and keeps them in step
    state = ChainState(plan=band4, rng=np.random.default_rng(3))
    for _ in range(60):
        recom_step(state, grid4, 0.01, PERMISSIVE)
        assert all(map(np.array_equal, state.members, district_members(state.plan)))
        assert [m.tolist() for m in state.members] == [
            np.flatnonzero(state.plan.assignment == d).tolist() for d in range(state.plan.k)]


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
