"""Brute-force ground truth for tiny instances.

Exhaustive enumeration of contiguous balanced partitions (bitmask recursion,
guarded to <= 24 nodes), of the spanning trees of a small induced subgraph
and of the exact law of one balanced bipartition, and a deliberately naive
reimplementation of every metric. All exist solely to check the fast paths:
the enumerator defines the reachable state space for the samplers, the tree
lists and the split law are what the tree kernel's draws must follow, and
``naive_score`` shares no code with :mod:`mapchain.metrics`. The enumerator
and the split law share the samplers' population-balance rule
(:func:`~mapchain.graph.within_window`), not their algorithms, so the
catalog is exactly the set of plans the chain accepts.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import errors
from .graph import Plan, PrecinctGraph, canonical_form, within_window
from .metrics import MetricsConfig, MetricsReport

MAX_ENUM_NODES = 24
MAX_TREE_CANDIDATES = 200_000  # edge sets spanning_trees may try


@dataclass(frozen=True)
class PartitionCatalog:
    """Every contiguous, balanced partition of a graph, up to relabeling."""

    plans: tuple
    canon: frozenset
    k: int
    tolerance: float

    def __len__(self) -> int:
        return len(self.plans)

    def __contains__(self, plan: Plan) -> bool:
        return canonical_form(plan) in self.canon


def _adj_masks(graph: PrecinctGraph):
    masks = [0] * graph.n
    for a, b in zip(graph.edge_a.tolist(), graph.edge_b.tolist()):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def enumerate_partitions(graph: PrecinctGraph, k: int, tolerance: float) -> PartitionCatalog:
    """All plans with k connected districts, each population within
    :func:`~mapchain.graph.within_window` of the ideal: exactly the plans
    ``chain.check_seed_plan`` accepts under a permissive gate.

    Districts are grown as connected sets seeded at the smallest unassigned
    node, so each partition is produced exactly once and already in
    first-appearance canonical labeling. Raises ``TooLarge`` beyond
    24 nodes.
    """
    n = graph.n
    if n > MAX_ENUM_NODES:
        raise errors.TooLarge(f"{n} nodes exceeds the enumeration guard ({MAX_ENUM_NODES})")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    pops = [int(p) for p in graph.populations]
    ideal = sum(pops) / k
    adj = _adj_masks(graph)

    def too_big(pop: int) -> bool:
        # populations only grow as a district grows, and above the ideal the
        # rule only tightens, so no superset of a district rejected here fits
        return pop > ideal and not within_window(pop, ideal, tolerance)

    def mask_pop(mask: int) -> int:
        pop = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            pop += pops[v]
            m &= m - 1
        return pop

    def mask_connected(mask: int) -> bool:
        start = (mask & -mask).bit_length() - 1
        seen = 1 << start
        stack = [start]
        while stack:
            u = stack.pop()
            frontier = adj[u] & mask & ~seen
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                seen |= 1 << v
                stack.append(v)
        return seen == mask

    def district_sets(seed: int, allowed: int):
        """Connected subsets of ``allowed`` containing seed, pop in window."""
        out = []

        def rec(members: int, pop: int, cand: int, banned: int):
            if within_window(pop, ideal, tolerance):
                out.append(members)
            while cand:
                vb = cand & -cand
                v = vb.bit_length() - 1
                cand &= ~vb
                new_pop = pop + pops[v]
                if not too_big(new_pop):
                    new_members = members | vb
                    new_cand = (cand | (adj[v] & allowed)) & ~new_members & ~banned
                    rec(new_members, new_pop, new_cand, banned)
                banned |= vb

        if not too_big(pops[seed]):
            rec(1 << seed, pops[seed], adj[seed] & allowed & ~(1 << seed), 0)
        return out

    assignments = []
    labels = [0] * n

    def assign_mask(mask: int, d: int):
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            labels[v] = d
            m &= m - 1

    def rec_districts(remaining: int, d: int):
        if d == k - 1:
            if within_window(mask_pop(remaining), ideal, tolerance) and mask_connected(remaining):
                assign_mask(remaining, d)
                assignments.append(tuple(labels))
            return
        seed = (remaining & -remaining).bit_length() - 1
        for S in district_sets(seed, remaining):
            if S != remaining:  # every later district needs a node
                assign_mask(S, d)
                rec_districts(remaining & ~S, d + 1)

    rec_districts((1 << n) - 1, 0)

    plans = tuple(Plan(np.array(a, dtype=np.int64), k) for a in assignments)
    return PartitionCatalog(
        plans=plans,
        canon=frozenset(assignments),
        k=k,
        tolerance=float(tolerance),
    )


def _induced_edges(graph: PrecinctGraph, subset) -> tuple:
    """The ascending distinct nodes of ``subset`` and the edges between them,
    as ``(a, b)`` node pairs with a < b, in ascending edge order."""
    nodes = sorted({int(v) for v in subset})
    inside = set(nodes)
    edges = [(a, b) for a, b in zip(graph.edge_a.tolist(), graph.edge_b.tolist())
             if a in inside and b in inside]
    return nodes, edges


def spanning_trees(graph: PrecinctGraph, subset) -> list:
    """Every spanning tree of the subgraph induced on ``subset``, by brute
    force: each set of ``len(subset) - 1`` induced edges that closes no cycle
    (a union-find over the set) is one. A tree is a frozenset of its edges as
    ``(a, b)`` node pairs, a < b. A disconnected subset has none. Raises
    ``TooLarge`` when there are more than ``MAX_TREE_CANDIDATES`` edge sets
    to try."""
    nodes, edges = _induced_edges(graph, subset)
    if math.comb(len(edges), len(nodes) - 1) > MAX_TREE_CANDIDATES:
        raise errors.TooLarge(
            f"{math.comb(len(edges), len(nodes) - 1)} edge sets exceed the tree "
            f"enumeration guard ({MAX_TREE_CANDIDATES})"
        )
    trees = []
    for chosen in combinations(edges, len(nodes) - 1):
        root = {v: v for v in nodes}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for a, b in chosen:
            ra, rb = find(a), find(b)
            if ra == rb:
                break
            root[ra] = rb
        else:
            trees.append(frozenset(chosen))
    return trees


def spanning_tree_count(graph: PrecinctGraph, subset) -> int:
    """τ, the number of spanning trees of the subgraph induced on ``subset``,
    by the matrix-tree theorem: the determinant of its Laplacian with the
    first row and column removed, in exact integer (Bareiss) elimination."""
    nodes, edges = _induced_edges(graph, subset)
    local = {v: i for i, v in enumerate(nodes)}
    size = len(nodes)
    laplacian = [[0] * size for _ in range(size)]
    for a, b in edges:
        i, j = local[a], local[b]
        laplacian[i][i] += 1
        laplacian[j][j] += 1
        laplacian[i][j] -= 1
        laplacian[j][i] -= 1
    minor = [row[1:] for row in laplacian[1:]]
    sign, previous = 1, 1
    for k in range(len(minor)):
        pivot = next((i for i in range(k, len(minor)) if minor[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            minor[k], minor[pivot] = minor[pivot], minor[k]
            sign = -sign
        for i in range(k + 1, len(minor)):
            for j in range(k + 1, len(minor)):
                minor[i][j] = (minor[i][j] * minor[k][k] - minor[i][k] * minor[k][j]) // previous
        previous = minor[k][k]
    return sign * previous


def bipartition_law(
    graph: PrecinctGraph, subset, target_pops, tolerance: float, max_tree_retries: int
) -> dict:
    """The exact law of ``trees.bipartition_region(graph, subset, target_pops,
    tolerance, rng, max_tree_retries)`` under a uniform tree method, as
    ``{(part1, part2) or None: probability}`` with each part a tuple of
    ascending nodes and exact ``Fraction`` probabilities.

    One draw takes a spanning tree and a root, each uniform and independent,
    as Wilson's walk gives them (:func:`spanning_trees` lists the trees).
    A tree edge qualifies when the side away from the root and the side
    with the root are within :func:`~mapchain.graph.within_window` of
    ``(p1, p2)`` or of ``(p2, p1)``; one qualifying edge is taken uniformly,
    and its parts are ordered to match the targets, the side away from the
    root first where both orders match. A draw with no qualifying edge is
    retried, up to ``max_tree_retries`` draws, after which the result is
    ``None``: with ``q`` the chance that a draw has no qualifying edge, a
    split's chance is its one-draw chance times ``(1 - q**R) / (1 - q)``.
    """
    nodes, _ = _induced_edges(graph, subset)
    trees = spanning_trees(graph, nodes)
    pops = {v: int(graph.populations[v]) for v in nodes}
    total = sum(pops.values())
    p1, p2 = (float(p) for p in target_pops)
    weight = Fraction(1, len(trees) * len(nodes))
    one_draw, stay = {}, Fraction(0)
    for tree in trees:
        around = {v: [] for v in nodes}
        for a, b in tree:
            around[a].append(b)
            around[b].append(a)
        sides = [_side(around, a, (a, b)) for a, b in sorted(tree)]  # a's side of each edge
        for root in nodes:
            splits = []
            for side in sides:
                # the side of the edge away from the root, and the root's side
                away = tuple(v for v in nodes if (v in side) != (root in side))
                rest = tuple(v for v in nodes if (v in side) == (root in side))
                s = sum(pops[v] for v in away)
                r = total - s
                if within_window(s, p1, tolerance) and within_window(r, p2, tolerance):
                    splits.append((away, rest))
                elif within_window(s, p2, tolerance) and within_window(r, p1, tolerance):
                    splits.append((rest, away))
            if not splits:
                stay += weight
            for split in splits:
                one_draw[split] = one_draw.get(split, Fraction(0)) + weight / len(splits)
    scale = Fraction(max_tree_retries) if stay == 1 else (1 - stay**max_tree_retries) / (1 - stay)
    law = {split: chance * scale for split, chance in one_draw.items()}
    law[None] = stay**max_tree_retries
    return law


def _side(around: dict, start: int, cut: tuple) -> set:
    """The nodes a tree reaches from ``start`` without crossing edge ``cut``."""
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for u in around[v]:
            if u not in seen and {u, v} != set(cut):
                seen.add(u)
                stack.append(u)
    return seen


def naive_score(graph: PrecinctGraph, plan: Plan, config: MetricsConfig) -> MetricsReport:
    """Straight-line reimplementation of score_plan for differential tests.

    Pure-python loops, ``statistics`` for mean/median, scipy's normal CDF:
    nothing shared with the metrics module beyond the report container.
    """
    # imported here: scipy.stats takes longer to load than the rest of
    # mapchain, and no command scores through this reference
    from scipy.stats import norm

    k = plan.k
    assign = [int(x) for x in plan.assignment]

    def tally(dem_col, rep_col):
        dem = [0] * k
        rep = [0] * k
        for i, d in enumerate(assign):
            dem[d] += int(dem_col[i])
            rep[d] += int(rep_col[i])
        return dem, rep

    def shares_of(dem, rep, name):
        shares = []
        for d in range(k):
            t = dem[d] + rep[d]
            if t == 0:
                raise errors.ZeroVotesDistrict(d, name)
            shares.append(dem[d] / t)
        return shares

    def seats_of(shares):
        s = sum(1.0 for x in shares if x > 0.5)
        s += 0.5 * sum(1 for x in shares if x == 0.5)
        return s

    def frac_of(shares):
        return math.fsum(
            float(norm.cdf((x - 0.5) / config.fractional_sigma)) for x in shares
        )

    def eg_of(dem, rep, name):
        dem_wasted = []
        rep_wasted = []
        totals = []
        for d in range(k):
            t = dem[d] + rep[d]
            if t == 0:
                raise errors.ZeroVotesDistrict(d, name)
            totals.append(float(t))
            if dem[d] > rep[d]:
                dem_wasted.append(dem[d] - t / 2.0)
                rep_wasted.append(float(rep[d]))
            elif rep[d] > dem[d]:
                rep_wasted.append(rep[d] - t / 2.0)
                dem_wasted.append(float(dem[d]))
            else:
                dem_wasted.append(dem[d] - t / 2.0)
                rep_wasted.append(rep[d] - t / 2.0)
        return (math.fsum(dem_wasted) - math.fsum(rep_wasted)) / math.fsum(totals)

    def mm_of(shares):
        return statistics.fmean(shares) - statistics.median(shares)

    contests = [graph.elections.get(name) for name in config.contests]
    per_seats = []
    per_frac = []
    per_eg = []
    per_mm = []
    ties = 0
    for c in contests:
        dem, rep = tally(c.dem, c.rep)
        shares = shares_of(dem, rep, c.name)
        per_seats.append(seats_of(shares))
        per_frac.append(frac_of(shares))
        per_eg.append(eg_of(dem, rep, c.name))
        per_mm.append(mm_of(shares))
        ties += sum(1 for x in shares if x == 0.5)

    idx_dem = [0] * graph.n
    idx_rep = [0] * graph.n
    for c in contests:
        for i in range(graph.n):
            idx_dem[i] += int(c.dem[i])
            idx_rep[i] += int(c.rep[i])
    dem_i, rep_i = tally(idx_dem, idx_rep)
    shares_i = shares_of(dem_i, rep_i, "index")
    ties += sum(1 for x in shares_i if x == 0.5)

    areas = [0.0] * k
    perims = [0.0] * k
    for d, area, perimeter in zip(assign, graph.areas.tolist(), graph.perimeters.tolist()):
        areas[d] += area
        perims[d] += perimeter
    for a, b, shared in zip(
        graph.edge_a.tolist(), graph.edge_b.tolist(), graph.edge_shared.tolist()
    ):
        if assign[a] == assign[b]:
            perims[assign[a]] -= 2.0 * shared
    pp = statistics.fmean(4.0 * math.pi * areas[d] / perims[d] ** 2 for d in range(k))

    county_districts = {}
    muni_districts = {}
    for d, county, muni in zip(assign, graph.county_codes.tolist(), graph.muni_codes.tolist()):
        county_districts.setdefault(county, set()).add(d)
        muni_districts.setdefault(muni, set()).add(d)
    county_splits = sum(1 for s in county_districts.values() if len(s) >= 2)
    muni_splits = sum(1 for s in muni_districts.values() if len(s) >= 2)
    pieces = sum(len(s) for s in county_districts.values())
    per_district = sum(len(s) for s in county_districts.values() if len(s) >= 2)

    return MetricsReport(
        seats_avg=statistics.fmean(per_seats),
        seats_fractional=statistics.fmean(per_frac),
        seats_index=seats_of(shares_i),
        efficiency_gap=statistics.fmean(per_eg),
        mean_median=statistics.fmean(per_mm),
        efficiency_gap_index=eg_of(dem_i, rep_i, "index"),
        mean_median_index=mm_of(shares_i),
        polsby_popper=pp,
        county_splits=county_splits,
        muni_splits=muni_splits,
        per_district_county_penalty=per_district,
        pieces_count=pieces,
        tie_districts=ties,
    )
