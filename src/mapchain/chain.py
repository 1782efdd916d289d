"""Ensemble generators: recombination Markov chain and random-tree plans.

A recombination step merges a uniformly chosen pair of adjacent districts,
draws a spanning tree over the union, and re-splits it at a balanced cut;
every other district is untouched. Rejected steps (no balanced cut, or the
constraint gate refuses the proposal) repeat the current plan in the trace,
standard Metropolis-style accounting, so downstream statistics see a
well-defined stationary sequence.

The random-tree generator builds whole plans ab initio by recursive
balanced bipartition; its plans are mutually independent given independent
rng streams, which makes it the natural mixing baseline for the chain.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import errors
from .constraints import ConstraintGate, gate_accept, split_report
from .graph import (
    Plan,
    PrecinctGraph,
    Region,
    district_populations,
    is_contiguous,
    label_order,
    within_window,
)
from .metrics import MetricsConfig, MetricsReport, PlanTally, score_plan
from .trees import _Induced, bipartition_region

PAIR_SELECTION = ("uniform", "edges")


class PairTable:
    """The adjacent district pairs of a chain's plan, kept in step with it.

    For ``uniform`` pair choice it holds ``keys``: each adjacent pair's
    ``lo * k + hi`` once, ascending (the rows :func:`adjacent_district_pairs`
    returns). For ``edges`` it holds ``cross``: the ids of the edges whose ends
    lie in different districts, ascending. The other is ``None``.

    An accepted step changes only its two districts, and every edge touching
    them has an end among their nodes. :meth:`move` drops the entries that
    touch the two districts and re-reads the edges incident to their nodes,
    as the step's :class:`~mapchain.graph.Region` gathered them from the
    graph's neighbour index, in whatever order it holds them. A ``uniform``
    move so costs O(region + k), not O(n + m). An ``edges`` move searches,
    deletes from and merges the whole ``cross`` array, so it costs
    O(region + cut edges).
    """

    def __init__(self, graph: PrecinctGraph, plan: Plan, pair_selection: str):
        self.graph = graph
        by_edge = pair_selection == "edges"
        self.keys = None if by_edge else _adjacent_keys(graph, plan)
        self.cross = _cut_edges(graph, plan) if by_edge else None

    def move(self, plan: Plan, districts, region: Region) -> None:
        """Make this the table of ``plan``, which differs from the table's
        plan only in the two ``districts``; ``region`` is their nodes' Region."""
        d1, d2 = districts
        a = plan.assignment[region.nodes].repeat(region.width)
        b = plan.assignment[region.far]
        cut = a != b
        if self.keys is not None:
            keys, k = self.keys, plan.k
            lo = keys // k
            moved = np.zeros(k, dtype=bool)
            moved[d1] = moved[d2] = True
            kept = keys[~(moved[lo] | moved[keys - lo * k])]
            self.keys = _union(kept, _pair_keys(a, b, k)[cut])
        else:
            # the old cross edges that touch the two districts are among the region's
            edges = region.edges
            at = np.searchsorted(self.cross, edges)
            found = self.cross[np.minimum(at, self.cross.size - 1)] == edges
            self.cross = _union(np.delete(self.cross, at[found]), edges[cut])

    def matches(self, plan: Plan) -> bool:
        """Does the table equal one counted from scratch for ``plan``?"""
        if self.keys is not None:
            return np.array_equal(self.keys, _adjacent_keys(self.graph, plan))
        return np.array_equal(self.cross, _cut_edges(self.graph, plan))


def district_members(plan: Plan) -> list:
    """Each district's nodes, ascending, counted from the whole plan."""
    order = label_order(plan.assignment, plan.k)
    return np.split(order, np.bincount(plan.assignment, minlength=plan.k).cumsum()[:-1])


# The acceptance counters a ChainState keeps and a ChainTrace reports
COUNTERS = ("proposed", "accepted", "rejected_by_constraint", "rejected_no_cut")


@dataclass
class ChainState:
    """Mutable state of one recombination chain."""

    plan: Plan
    rng: np.random.Generator
    proposed: int = 0
    accepted: int = 0
    rejected_by_constraint: int = 0
    rejected_no_cut: int = 0
    # PlanTally of ``plan``: run_chain sets it for scoring, and a gated step
    # builds it for its split counts; recom_step moves it with each accepted step
    tally: "PlanTally | None" = None
    # PairTable of ``plan`` for the chain's pair_selection: run_chain or a bare
    # state's first step builds it; recom_step moves it with each accepted step
    pairs: "PairTable | None" = None
    # each district's nodes, ascending (district_members): run_chain or a bare
    # state's first step counts them; recom_step sets the two it moves
    members: "list | None" = None

    def counters_consistent(self) -> bool:
        return self.proposed == (
            self.accepted + self.rejected_by_constraint + self.rejected_no_cut
        )


# One trace row: the step's accept flag, then every MetricsReport field
# (int64 for int fields, float64 for the rest). A row's step is its index.
TRACE_DTYPE = np.dtype(
    [("accepted", np.bool_)]
    + [
        (f.name, np.int64 if f.type in ("int", int) else np.float64)
        for f in fields(MetricsReport)
    ]
)


@dataclass
class ChainTrace:
    """Per-step rows (a ``TRACE_DTYPE`` array) plus acceptance bookkeeping;
    a chain's trace also holds its seed plan's report (``seed_report``)."""

    rows: np.ndarray
    proposed: int = 0
    accepted: int = 0
    rejected_by_constraint: int = 0
    rejected_no_cut: int = 0
    seed_report: "MetricsReport | None" = None

    @classmethod
    def empty(cls, n: int) -> "ChainTrace":
        """A trace of ``n`` unwritten rows. More rows than numpy can address
        raise ``MemoryError``, as a failed allocation does (numpy raises
        ``ValueError`` for those)."""
        if n * TRACE_DTYPE.itemsize > np.iinfo(np.intp).max:
            raise MemoryError(f"{n} trace rows are more than numpy can address")
        return cls(np.empty(n, dtype=TRACE_DTYPE))

    def __len__(self) -> int:
        return self.rows.size

    def record(self, t: int, accepted: bool, report: MetricsReport) -> None:
        """Write step ``t``'s row in place."""
        metrics = tuple(getattr(report, name) for name in TRACE_DTYPE.names[1:])
        self.rows[t] = (accepted,) + metrics

    def series(self, metric: str) -> np.ndarray:
        """Metric values per step; ``metric`` is a MetricsReport field name."""
        return self.rows[metric].astype(np.float64)

    def accept_flags(self) -> np.ndarray:
        return self.rows["accepted"].copy()


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct values of ``a`` (ascending) and ``b`` (in any order),
    ascending: ``np.union1d`` without its overhead, which costs more than the
    rest of a table move. The stable sort (timsort) takes ``a`` as one sorted
    run, so a large table costs a merge, not a full sort."""
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    distinct = np.empty(merged.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=distinct[1:])
    return merged[distinct]


def _pair_keys(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    return np.minimum(a, b) * k + np.maximum(a, b)


def _cut_edges(graph: PrecinctGraph, plan: Plan) -> np.ndarray:
    """Ids of the edges whose ends lie in different districts, ascending."""
    return np.flatnonzero(plan.assignment[graph.edge_a] != plan.assignment[graph.edge_b])


def _adjacent_keys(graph: PrecinctGraph, plan: Plan) -> np.ndarray:
    """``lo * k + hi`` of every adjacent district pair, ascending, counted over all edges."""
    a = plan.assignment[graph.edge_a]
    b = plan.assignment[graph.edge_b]
    cross = a != b
    return np.unique(_pair_keys(a[cross], b[cross], plan.k))


def adjacent_district_pairs(
    graph: PrecinctGraph, plan: Plan, pairs: "PairTable | None" = None
) -> np.ndarray:
    """Unordered district pairs sharing at least one graph edge, sorted.

    Read off ``pairs``, a uniform-mode :class:`PairTable` of ``plan``, when
    given; counted over all edges otherwise."""
    keys = pairs.keys if pairs is not None else _adjacent_keys(graph, plan)
    return np.stack(np.divmod(keys, plan.k), axis=1)


def recom_step(
    state: ChainState,
    graph: PrecinctGraph,
    tolerance: float,
    constraint_gate: ConstraintGate,
    max_tree_retries: int = 50,
    tree_method: str = "uniform",
    pair_selection: str = "uniform",
) -> ChainState:
    """Advance the chain by one step (the plan may repeat).

    The merged pair is re-split against equal targets of ``ideal = total/k``
    each, so accepted plans always stay within ``tolerance`` of the ideal
    district population regardless of chain length.
    """
    plan = state.plan
    rng = state.rng
    if state.tally is None and constraint_gate.mode != "permissive":
        state.tally = PlanTally(graph, plan)
    if state.pairs is None:
        state.pairs = PairTable(graph, plan, pair_selection)
    if state.members is None:
        state.members = district_members(plan)
    state.proposed += 1

    if pair_selection == "uniform":
        pairs = adjacent_district_pairs(graph, plan, state.pairs)
        if pairs.shape[0] == 0:
            raise errors.NoAdjacentDistrictPair(f"plan with k={plan.k} has no adjacent pair")
        d1, d2 = pairs[int(rng.integers(pairs.shape[0]))]
    elif pair_selection == "edges":
        cross = state.pairs.cross
        if cross.size == 0:
            raise errors.NoAdjacentDistrictPair(f"plan with k={plan.k} has no adjacent pair")
        e = int(cross[int(rng.integers(cross.size))])
        d1, d2 = int(plan.assignment[graph.edge_a[e]]), int(plan.assignment[graph.edge_b[e]])
    else:
        raise ValueError(f"unknown pair_selection {pair_selection!r}; use {PAIR_SELECTION}")

    # the merged region, read once: its nodes, their slices of the neighbour
    # index and the subgraph the trees are drawn on
    subset = np.concatenate((state.members[d1], state.members[d2]))
    subset.sort(kind="stable")  # two ascending runs: one merge
    region = graph.neighbors.gather(subset)
    ideal = graph.total_population / plan.k
    parts = bipartition_region(
        graph,
        subset,
        (ideal, ideal),
        tolerance,
        rng,
        max_tree_retries=max_tree_retries,
        method=tree_method,
        induced=_Induced(graph, subset, region),
    )
    if parts is None:
        state.rejected_no_cut += 1
        return state

    # valid without a re-check: d1 and d2 each keep one non-empty side of the cut
    assignment = plan.assignment.copy()
    assignment[parts[0]] = d1
    assignment[parts[1]] = d2
    proposal = Plan.unchecked(assignment, plan.k)
    if state.tally is not None:
        move = state.tally.propose(proposal, np.array(sorted((d1, d2))), region)
        if constraint_gate.mode != "permissive" and not gate_accept(
            constraint_gate, state.tally.splits, move.splits, rng
        ):
            state.rejected_by_constraint += 1
            return state
        state.tally.apply(move)
    state.pairs.move(proposal, (d1, d2), region)
    state.members[d1], state.members[d2] = parts
    state.plan = proposal
    state.accepted += 1
    return state


def _plan_fault(graph: PrecinctGraph, plan: Plan, tolerance: float):
    """The first chain invariant ``plan`` breaks, as a message, or ``None``: districts
    connected, then every district population within ``graph.within_window``
    of the ideal, the rule ``find_balanced_cut`` cuts by."""
    flags = is_contiguous(graph, plan)
    if not all(flags):
        bad = [d for d, ok in enumerate(flags) if not ok]
        return f"contiguity: districts {bad} are disconnected"
    ideal = graph.total_population / plan.k
    bad = np.flatnonzero(~within_window(district_populations(graph, plan), ideal, tolerance))
    if bad.size:
        return (f"population balance: districts {bad.tolist()} lie outside the population "
                f"window, more than {tolerance:g} from ideal {ideal:g}")
    return None


def check_seed_plan(
    graph: PrecinctGraph,
    plan: Plan,
    tolerance: float,
    constraint_gate: ConstraintGate,
    rng: np.random.Generator,
) -> None:
    """Raise InvalidSeedPlan naming the first failed chain precondition."""
    if plan.n != graph.n:
        raise errors.InvalidSeedPlan(
            f"coverage: plan has {plan.n} nodes, graph has {graph.n}"
        )
    fault = _plan_fault(graph, plan, tolerance)
    if fault is not None:
        raise errors.InvalidSeedPlan(fault)
    seed_splits = split_report(graph, plan)
    if not gate_accept(constraint_gate, seed_splits, seed_splits, rng):
        raise errors.InvalidSeedPlan(
            f"constraint gate: seed plan violates the gate "
            f"(county_splits={seed_splits.county_splits}, "
            f"muni_splits={seed_splits.muni_splits})"
        )


def run_chain(
    graph: PrecinctGraph,
    seed_plan: Plan,
    steps: int,
    tolerance: float,
    constraint_gate: ConstraintGate,
    metrics_config: MetricsConfig,
    rng: np.random.Generator,
    max_tree_retries: int = 50,
    tree_method: str = "uniform",
    pair_selection: str = "uniform",
    validate_every: int = 101,
) -> ChainTrace:
    """Run a recombination chain and score every step.

    The trace has exactly ``steps`` rows (steps=0 gives an empty trace);
    rejected steps repeat the current plan and its report, which is read
    once per plan off the chain's ``PlanTally``. The seed plan's report is
    read off that tally before the first step (``trace.seed_report``); the
    read builds the kept rows that every later read updates. Every
    ``validate_every`` steps, contiguity, balance, the report (against a
    from-scratch ``score_plan``), the pair table (against a count over all
    edges) and the district node lists (against ``district_members``) are
    re-checked (plans and tallies are right by construction; this is a
    sampled belt-and-braces check that raises ``ChainInvariantViolated`` —
    set 1 for every step, 0 to disable).
    Deterministic given the rng seed.
    """
    check_seed_plan(graph, seed_plan, tolerance, constraint_gate, rng)
    state = ChainState(plan=seed_plan, rng=rng, tally=PlanTally(graph, seed_plan),
                       pairs=PairTable(graph, seed_plan, pair_selection),
                       members=district_members(seed_plan))
    trace = ChainTrace.empty(steps)
    trace.seed_report = state.tally.report(metrics_config)
    scored, report = None, None
    for t in range(steps):
        before = state.accepted
        recom_step(
            state,
            graph,
            tolerance,
            constraint_gate,
            max_tree_retries=max_tree_retries,
            tree_method=tree_method,
            pair_selection=pair_selection,
        )
        if state.plan is not scored:  # rejected steps repeat the last report
            scored = state.plan
            report = score_plan(graph, state.plan, metrics_config, state.tally)
        trace.record(t, state.accepted > before, report)
        if validate_every and (t + 1) % validate_every == 0:
            fault = _plan_fault(graph, state.plan, tolerance)
            if fault is not None:
                raise errors.ChainInvariantViolated(f"step {t}: {fault}")
            if score_plan(graph, state.plan, metrics_config) != report:
                raise errors.ChainInvariantViolated(
                    f"step {t}: the tally's report differs from a from-scratch score"
                )
            if not state.pairs.matches(state.plan):
                raise errors.ChainInvariantViolated(
                    f"step {t}: the pair table differs from a from-scratch count"
                )
            if not all(map(np.array_equal, state.members, district_members(state.plan))):
                raise errors.ChainInvariantViolated(
                    f"step {t}: the district node lists differ from a from-scratch count"
                )
    for name in COUNTERS:
        setattr(trace, name, getattr(state, name))
    return trace


def random_tree_plan(
    graph: PrecinctGraph,
    k: int,
    tolerance: float,
    rng: np.random.Generator,
    retry_budget: int = 50,
    tree_method: str = "uniform",
    whole: "_Induced | None" = None,
):
    """One whole plan by recursive balanced bipartition, or None on failure.

    Each stage splits a region into halves targeted to carry ceil(k'/2) and
    floor(k'/2) districts with proportional populations; recursion stops at
    single-district regions. Absence (a stage exhausting ``retry_budget``)
    is a value, not an error; callers retry or report. ``whole`` is the
    subgraph induced on every node, which the first stage splits, for a
    caller that draws many plans; it is built here when not given.
    """
    if not 1 <= k <= graph.n:
        raise ValueError(f"k must lie in 1..{graph.n}, got {k}")
    labels = np.full(graph.n, -1, dtype=np.int64)
    next_label = 0

    def rec(region: np.ndarray, kk: int, induced=None) -> bool:
        nonlocal next_label
        if kk == 1:
            labels[region] = next_label
            next_label += 1
            return True
        k1 = (kk + 1) // 2
        k2 = kk // 2
        pop = int(graph.populations[region].sum())
        targets = (pop * k1 / kk, pop * k2 / kk)
        parts = bipartition_region(
            graph,
            region,
            targets,
            tolerance,
            rng,
            max_tree_retries=retry_budget,
            method=tree_method,
            induced=induced,
        )
        if parts is None:
            return False
        return rec(parts[0], k1) and rec(parts[1], k2)

    if rec(np.arange(graph.n, dtype=np.int64), k, whole):
        return Plan(labels, k)
    return None


def tree_ensemble(
    graph: PrecinctGraph,
    k: int,
    tolerance: float,
    n_plans: int,
    metrics_config: MetricsConfig,
    rng: np.random.Generator,
    retry_budget: int = 50,
    global_retry_cap: int = 1000,
    tree_method: str = "uniform",
) -> ChainTrace:
    """Score ``n_plans`` independent random-tree plans into a trace.

    Failed draws are retried; more than ``global_retry_cap`` total failures
    raises ``RetryBudgetExhausted``.
    """
    if n_plans < 1:
        raise ValueError("n_plans must be >= 1")
    trace = ChainTrace.empty(n_plans)
    whole = _Induced(graph, np.arange(graph.n, dtype=np.int64))
    failures = 0
    t = 0
    while t < n_plans:
        plan = random_tree_plan(
            graph, k, tolerance, rng, retry_budget=retry_budget, tree_method=tree_method,
            whole=whole,
        )
        if plan is None:
            failures += 1
            if failures > global_retry_cap:
                raise errors.RetryBudgetExhausted(
                    f"{failures} failed tree draws exceeds cap {global_retry_cap}"
                )
            continue
        trace.record(t, True, score_plan(graph, plan, metrics_config))
        t += 1
    trace.proposed = n_plans + failures
    trace.accepted = n_plans
    trace.rejected_no_cut = failures
    return trace
