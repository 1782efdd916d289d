"""Brute-force ground truth for tiny instances.

Exhaustive enumeration of contiguous balanced partitions (bitmask recursion,
guarded to <= 24 nodes) and a deliberately naive reimplementation of every
metric. Both exist solely to check the fast paths: the enumerator defines
the reachable state space for the samplers, and ``naive_score`` shares no
code with :mod:`mapchain.metrics`.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import errors
from .graph import Plan, PrecinctGraph, canonical_form
from .metrics import MetricsConfig, MetricsReport

MAX_ENUM_NODES = 24


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
    """All plans with k connected districts inside the population window.

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
    total = sum(pops)
    ideal = total / k
    min_pop = ideal * (1.0 - tolerance)
    max_pop = ideal * (1.0 + tolerance)
    adj = _adj_masks(graph)
    full = (1 << n) - 1

    def mask_pop(mask: int) -> int:
        pop = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            pop += pops[v]
            m &= m - 1
        return pop

    def mask_connected(mask: int) -> bool:
        if mask == 0:
            return False
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
        seed_pop = pops[seed]
        if seed_pop > max_pop:
            return out

        def rec(members: int, pop: int, cand: int, banned: int):
            if pop >= min_pop:
                out.append(members)
            while cand:
                vb = cand & -cand
                v = vb.bit_length() - 1
                cand &= ~vb
                new_pop = pop + pops[v]
                if new_pop <= max_pop:
                    new_members = members | vb
                    new_cand = (cand | (adj[v] & allowed)) & ~new_members & ~banned
                    rec(new_members, new_pop, new_cand, banned)
                banned |= vb

        rec(1 << seed, seed_pop, adj[seed] & allowed & ~(1 << seed), 0)
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
            pop = mask_pop(remaining)
            if min_pop <= pop <= max_pop and mask_connected(remaining):
                assign_mask(remaining, d)
                assignments.append(tuple(labels))
            return
        left = k - d - 1
        rem_pop = mask_pop(remaining)
        seed = (remaining & -remaining).bit_length() - 1
        for S in district_sets(seed, remaining):
            rest = remaining & ~S
            rest_pop = rem_pop - mask_pop(S)
            if rest_pop < left * min_pop or rest_pop > left * max_pop:
                continue
            assign_mask(S, d)
            rec_districts(rest, d + 1)

    if k == 1:
        if min_pop <= total <= max_pop:
            assignments.append(tuple([0] * n))
    else:
        rec_districts(full, 0)

    plans = tuple(Plan(np.array(a, dtype=np.int64), k) for a in assignments)
    return PartitionCatalog(
        plans=plans,
        canon=frozenset(assignments),
        k=k,
        tolerance=float(tolerance),
    )


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
