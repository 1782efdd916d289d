"""The samplers' exact laws on instances small enough to enumerate.

Built on the oracle's enumerations (:mod:`mapchain.oracle`), for the tests
that hold the samplers to them: the law of one balanced bipartition read off
spanning-tree counts (:func:`split_law`), the transition matrix of a ReCom
step between the plans of a catalog (:func:`recom_kernel`) and the law of a
random-tree plan (:func:`tree_plan_distribution`). Nothing that samples
imports this module.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .constraints import ConstraintGate, SplitReport, split_report
from .graph import PrecinctGraph, canonical_form, within_window
from .oracle import (
    PartitionCatalog,
    _induced_edges,
    bipartition_law,
    spanning_tree_count,
)


def split_law(
    graph: PrecinctGraph, subset, target_pops, tolerance: float, max_tree_retries: int
) -> dict:
    """The exact law of one ``bipartition_region`` call, keyed as
    :func:`bipartition_law` keys it, without listing trees where it need not.

    At tolerance 0 with positive populations and equal targets, a qualifying
    edge leaves exactly half the people on each side, and no tree has two
    (the side of one that holds the other would hold more than half). A tree
    of R then splits into X and Y iff it joins a spanning tree of X to one of
    Y by one of the e(X, Y) edges between them, so one draw splits R into
    {X, Y} with chance τ(X)·τ(Y)·e(X, Y)/τ(R); the side away from the root,
    which is uniform, comes first. Every other case is :func:`bipartition_law`.
    """
    nodes, edges = _induced_edges(graph, subset)
    pops = [int(graph.populations[v]) for v in nodes]
    p1, p2 = (float(p) for p in target_pops)
    if tolerance != 0 or p1 != p2 or min(pops) <= 0:
        return bipartition_law(graph, nodes, target_pops, tolerance, max_tree_retries)
    bit = {v: 1 << i for i, v in enumerate(nodes)}
    adj = [0] * len(nodes)
    for a, b in edges:
        adj[nodes.index(a)] |= bit[b]
        adj[nodes.index(b)] |= bit[a]
    whole, m, total = (1 << len(nodes)) - 1, len(nodes), sum(pops)
    tau = Fraction(spanning_tree_count(graph, nodes))
    one_draw = {}
    for mask, pop in _connected_masks(adj, pops, whole, p1):
        rest = whole & ~mask
        if not (within_window(pop, p1, 0) and within_window(total - pop, p2, 0)
                and _mask_connected(adj, rest)):
            continue
        side = tuple(v for v in nodes if bit[v] & mask)
        other = tuple(v for v in nodes if bit[v] & rest)
        between = sum(1 for a, b in edges if (bit[a] & mask == 0) != (bit[b] & mask == 0))
        forests = spanning_tree_count(graph, side) * spanning_tree_count(graph, other)
        chance = forests * between / tau
        one_draw[side, other] = chance * len(other) / m
        one_draw[other, side] = chance * len(side) / m
    stay = 1 - sum(one_draw.values())
    if stay == 1:
        return {None: Fraction(1)}
    scale = (1 - stay**max_tree_retries) / (1 - stay)
    law = {split: chance * scale for split, chance in one_draw.items()}
    law[None] = stay**max_tree_retries
    return law


def _connected_masks(adj: list, pops: list, allowed: int, cap: float):
    """Every connected set of the nodes in ``allowed`` (bit i is node i)
    that holds its lowest node and at most ``cap`` people, as ``(mask,
    population)``, each once: a set grows by one candidate neighbour at a
    time, and a candidate passed over is never added below that point."""
    start = (allowed & -allowed).bit_length() - 1

    def grow(members: int, pop: int, candidates: int, banned: int):
        yield members, pop
        while candidates:
            low = candidates & -candidates
            candidates &= ~low
            v = low.bit_length() - 1
            if pop + pops[v] <= cap:
                yield from grow(members | low, pop + pops[v],
                                (candidates | adj[v] & allowed) & ~(members | low) & ~banned,
                                banned)
            banned |= low

    yield from grow(1 << start, pops[start], adj[start] & allowed, 0)


def _mask_connected(adj: list, mask: int) -> bool:
    """Are the nodes of the nonempty ``mask`` connected by ``adj``?"""
    seen = mask & -mask
    frontier = seen
    while frontier:
        low = frontier & -frontier
        frontier &= ~low
        fresh = adj[low.bit_length() - 1] & mask & ~seen
        seen |= fresh
        frontier |= fresh
    return seen == mask


def _gate_chance(gate: ConstraintGate, current: SplitReport, proposal: SplitReport) -> float:
    """The chance that ``constraints.gate_accept`` accepts ``proposal`` from
    ``current``: caps on the proposal (``reject``), min(1, exp(-delta)) of
    the weighted penalty rise (``gibbs``), or 1."""
    if gate.mode == "reject":
        return float(proposal.county_splits <= gate.county_cap
                     and proposal.muni_splits <= gate.muni_cap)
    if gate.mode == "gibbs":
        delta = 0.0
        for term, weight in gate.weights:
            delta += weight * (getattr(proposal, term) - getattr(current, term))
        return 1.0 if delta <= 0.0 else math.exp(-delta)
    return 1.0


def recom_kernel(
    graph: PrecinctGraph,
    catalog: PartitionCatalog,
    pair_selection: str = "uniform",
    gate: "ConstraintGate | None" = None,
    max_tree_retries: int = 50,
) -> np.ndarray:
    """The exact transition matrix of ``chain.recom_step`` (uniform trees,
    the catalog's tolerance) on ``catalog``'s plans: entry [i, j] is the
    chance that one step from ``catalog.plans[i]`` gives ``catalog.plans[j]``
    up to relabelling, which the step never looks at.

    A step takes an adjacent district pair, uniformly or, for ``edges``, in
    proportion to the edges between the two; splits their union by
    :func:`split_law` at equal targets of total/k; and moves there with
    the chance that ``gate`` (permissive when not given) accepts the split
    counts, as :func:`_gate_chance` reads ``constraints.gate_accept``. It
    stays put otherwise, ``q**max_tree_retries`` of the split law included.
    """
    gate = gate or ConstraintGate.permissive()
    index = {canonical_form(plan): i for i, plan in enumerate(catalog.plans)}
    reports = [split_report(graph, plan) for plan in catalog.plans]
    ideal = graph.total_population / catalog.k
    edges = list(zip(graph.edge_a.tolist(), graph.edge_b.tolist()))
    laws = {}  # the split law of each merged region
    kernel = np.zeros((len(catalog), len(catalog)))
    for i, plan in enumerate(catalog.plans):
        labels = plan.assignment.tolist()
        between = {}  # edges between each adjacent pair
        for a, b in edges:
            if labels[a] != labels[b]:
                pair = (min(labels[a], labels[b]), max(labels[a], labels[b]))
                between[pair] = between.get(pair, 0) + 1
        cut = sum(between.values())
        for (d1, d2), shared in sorted(between.items()):
            chance = shared / cut if pair_selection == "edges" else 1 / len(between)
            region = tuple(v for v, d in enumerate(labels) if d in (d1, d2))
            if region not in laws:
                laws[region] = split_law(graph, region, (ideal, ideal), catalog.tolerance,
                                         max_tree_retries)
            for parts, p in laws[region].items():
                if parts is None:
                    continue
                moved = labels.copy()
                for d, part in zip((d1, d2), parts):
                    for v in part:
                        moved[v] = d
                j = index[_form(moved)]
                kernel[i, j] += chance * float(p) * _gate_chance(gate, reports[i], reports[j])
        kernel[i, i] += 1.0 - kernel[i].sum()
    return kernel


def tree_plan_distribution(
    graph: PrecinctGraph, k: int, tolerance: float, retry_budget: int = 50
) -> dict:
    """The exact law of ``chain.random_tree_plan(graph, k, tolerance, rng,
    retry_budget)`` with uniform trees, as ``{canonical form: probability}``
    in ``Fraction``s, with the chance that a stage gives up under ``None``.

    Each stage splits its region by :func:`split_law` at targets in
    proportion to its ceil(k'/2) and floor(k'/2) districts, the law of a
    stage that retries until it cuts, normalised within that region; the
    first part takes the ceil(k'/2) districts."""
    pops = graph.populations.tolist()
    memo = {}

    def law(region: tuple, kk: int) -> dict:
        if kk == 1:
            return {(region,): Fraction(1)}
        if (region, kk) in memo:
            return memo[region, kk]
        k1, k2 = (kk + 1) // 2, kk // 2
        pop = sum(pops[v] for v in region)
        out = {}
        for parts, p in split_law(graph, region, (pop * k1 / kk, pop * k2 / kk), tolerance,
                                  retry_budget).items():
            first = {None: Fraction(1)} if parts is None else law(parts[0], k1)
            for head, p1 in first.items():
                rest = {None: Fraction(1)} if head is None else law(parts[1], k2)
                for tail, p2 in rest.items():
                    key = None if tail is None else head + tail
                    out[key] = out.get(key, Fraction(0)) + p * p1 * p2
        memo[region, kk] = out
        return out

    result = {}
    for districts, p in law(tuple(range(graph.n)), k).items():
        form = None
        if districts is not None:
            labels = [0] * graph.n
            for d, district in enumerate(districts):
                for v in district:
                    labels[v] = d
            form = _form(labels)
        result[form] = result.get(form, Fraction(0)) + p
    return result


def _form(labels: list) -> tuple:
    """``canonical_form`` of a plan given by its label list."""
    first = {}
    return tuple(first.setdefault(x, len(first)) for x in labels)
