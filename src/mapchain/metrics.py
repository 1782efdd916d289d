"""Plan-level partisan and compactness metrics.

Two tallying conventions are supported everywhere: the default averages each
metric over the contests in the sample (one value per election, then the
mean), while the "vote index" convention first sums each precinct's votes
across the sample and computes metrics once on the summed contest. The index
convention overweights high-turnout contests and interacts badly with
nonlinear metrics; both are reported so they can be compared.

Sign conventions: shares are two-party Democratic; efficiency gap and
mean-median are positive for pro-Republican advantage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import errors
from .constraints import UNITS, SplitReport, split_report, unit_district_counts
from .graph import (
    Contest,
    Plan,
    PrecinctGraph,
    district_perimeter_area,
    require_positive_perimeters,
)


@dataclass(frozen=True)
class MetricsConfig:
    """Contest sample and smoothing width for fractional seats."""

    contests: tuple
    fractional_sigma: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "contests", tuple(self.contests))
        if not self.contests:
            raise errors.ConfigError("contest sample must be nonempty")
        if not 0.0 < self.fractional_sigma < 0.5:
            raise errors.ConfigError(
                f"fractional_sigma must lie in (0, 0.5), got {self.fractional_sigma}"
            )


@dataclass(frozen=True)
class MetricsReport:
    """Every plan-level metric for one plan.

    ``*_index`` fields are computed on the summed vote-index contest;
    the others average per-contest values over the sample.
    """

    seats_avg: float
    seats_fractional: float
    seats_index: float
    efficiency_gap: float
    mean_median: float
    efficiency_gap_index: float
    mean_median_index: float
    polsby_popper: float
    county_splits: int
    muni_splits: int
    per_district_county_penalty: int
    pieces_count: int
    tie_districts: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# trace.csv column -> MetricsReport field (order is the trace column order)
TRACE_METRIC_FIELDS = (
    ("seats_avg", "seats_avg"),
    ("seats_frac", "seats_fractional"),
    ("seats_index", "seats_index"),
    ("eg", "efficiency_gap"),
    ("mm", "mean_median"),
    ("eg_index", "efficiency_gap_index"),
    ("mm_index", "mean_median_index"),
    ("pp", "polsby_popper"),
    ("county_splits", "county_splits"),
    ("muni_splits", "muni_splits"),
)


def _resolve_contest(graph: PrecinctGraph, contest) -> Contest:
    if isinstance(contest, Contest):
        return contest
    return graph.elections.get(contest)


def district_votes(graph: PrecinctGraph, plan: Plan, contest):
    """Per-district ``(dem, rep)`` two-party vote totals."""
    c = _resolve_contest(graph, contest)
    dem = np.bincount(plan.assignment, weights=c.dem, minlength=plan.k)
    rep = np.bincount(plan.assignment, weights=c.rep, minlength=plan.k)
    return dem, rep


def district_shares(graph: PrecinctGraph, plan: Plan, contest) -> np.ndarray:
    """Per-district Democratic two-party voteshare for one contest."""
    c = _resolve_contest(graph, contest)
    dem, rep = district_votes(graph, plan, c)
    total = dem + rep
    if (total == 0).any():
        d = int(np.flatnonzero(total == 0)[0])
        raise errors.ZeroVotesDistrict(d, c.name)
    return dem / total


def count_ties(shares) -> int:
    """Number of districts with share exactly 0.5."""
    return int((np.asarray(shares) == 0.5).sum())


def seats_won(shares) -> float:
    """Democratic seats: share > 0.5 wins outright, exact ties count 0.5."""
    s = np.asarray(shares, dtype=np.float64)
    return float((s > 0.5).sum()) + 0.5 * count_ties(s)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf; accurate to ~1e-15."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def seats_fractional(shares, sigma: float = 0.05) -> float:
    """Expected seats under normal smoothing of shares around 0.5.

    A district at exactly 50% contributes 0.5 seats; as sigma -> 0 this
    approaches the outright seat count (ties kept at 0.5). fsum keeps the
    result independent of district ordering.
    """
    return math.fsum(normal_cdf((float(s) - 0.5) / sigma) for s in np.asarray(shares))


def wasted_votes(dem, rep):
    """Per-district wasted votes ``(dem_wasted, rep_wasted)``.

    The loser wastes every vote; the winner wastes votes beyond half the
    district total. At an exact tie each side wastes votes - total/2 = 0.
    """
    dem = np.asarray(dem, dtype=np.float64)
    rep = np.asarray(rep, dtype=np.float64)
    total = dem + rep
    dem_wasted = np.where(dem >= rep, dem - total / 2.0, dem)
    rep_wasted = np.where(rep >= dem, rep - total / 2.0, rep)
    return dem_wasted, rep_wasted


def efficiency_gap_from_votes(dem, rep) -> float:
    """(Dem wasted - Rep wasted) / total votes; positive is pro-Republican.

    Sums are exactly rounded (fsum) so the result cannot depend on district
    ordering.
    """
    dem = np.asarray(dem, dtype=np.float64)
    rep = np.asarray(rep, dtype=np.float64)
    total = dem + rep
    if (total == 0).any():
        d = int(np.flatnonzero(total == 0)[0])
        raise errors.ZeroVotesDistrict(d, "<votes>")
    dem_wasted, rep_wasted = wasted_votes(dem, rep)
    return (math.fsum(dem_wasted) - math.fsum(rep_wasted)) / math.fsum(total)


def efficiency_gap(graph: PrecinctGraph, plan: Plan, contest) -> float:
    """Efficiency gap of one contest; positive favors Republicans."""
    c = _resolve_contest(graph, contest)
    dem, rep = district_votes(graph, plan, c)
    total = dem + rep
    if (total == 0).any():
        d = int(np.flatnonzero(total == 0)[0])
        raise errors.ZeroVotesDistrict(d, c.name)
    return efficiency_gap_from_votes(dem, rep)


def mean_median(shares) -> float:
    """Mean minus median of district Democratic shares.

    Positive when Democratic voters are packed (median below mean), i.e.
    pro-Republican, matching the efficiency gap orientation.
    """
    s = np.asarray(shares, dtype=np.float64)
    return math.fsum(s) / s.size - float(np.median(s))


def _polsby_popper(perims: np.ndarray, areas: np.ndarray) -> float:
    return math.fsum(4.0 * math.pi * areas / (perims * perims)) / perims.size


def polsby_popper(graph: PrecinctGraph, plan: Plan) -> float:
    """Unweighted district mean of 4*pi*area/perimeter^2."""
    return _polsby_popper(*district_perimeter_area(graph, plan))


def vote_index(graph: PrecinctGraph, contest_sample) -> Contest:
    """Synthetic contest with per-precinct votes summed across the sample."""
    contests = [_resolve_contest(graph, c) for c in contest_sample]
    if not contests:
        raise errors.ConfigError("vote_index needs a nonempty contest sample")
    dem = np.sum([c.dem for c in contests], axis=0, dtype=np.int64)
    rep = np.sum([c.rep for c in contests], axis=0, dtype=np.int64)
    name = "index(" + "+".join(c.name for c in contests) + ")"
    return Contest(name=name, dem=dem, rep=rep)


class TallyMove(NamedTuple):
    """A plan that differs from a tally's plan only in ``districts``, and the
    region counts that :meth:`PlanTally.apply` writes into the tally."""

    plan: Plan
    districts: np.ndarray  # ascending
    nodes: np.ndarray  # every node of ``districts``, ascending
    local: np.ndarray  # each node's position in ``districts``
    unit_counts: tuple  # per unit type: its (units, len(districts)) count matrix
    unit_pieces: tuple  # per unit type: districts each unit touches, after the move
    splits: SplitReport


class PlanTally:
    """Per-district sums of one plan, from which ``score_plan`` reads its report.

    Built once from a whole plan; :meth:`propose` and :meth:`apply` move it
    to a plan that differs only in a few districts (a ReCom step's two) by
    recounting those districts from their own nodes, so a step costs
    O(region + k + units), not O(n). It holds, per district: dem and rep
    votes for every contest of the graph (int64), area, and perimeter net of
    twice the shared boundary of its internal edges; per county and
    municipality, a dense int32 unit x district node-count matrix and the
    number of districts each unit touches; and a cache of each district's
    ``normal_cdf`` term per contest of the last config scored.

    Every report equals a from-scratch one bit for bit. Vote sums are
    integers. A float sum of a district is recomputed from its nodes and
    internal edges in ascending global order, the order ``np.bincount`` adds
    in, never by adding and subtracting deltas. Sums across districts are
    ``math.fsum`` or exact integer sums, neither of which depends on order.
    """

    def __init__(self, graph: PrecinctGraph, plan: Plan):
        k = plan.k
        self.graph = graph
        self.plan = plan
        self.dem = np.zeros((len(graph.elections), k), dtype=np.int64)
        self.rep = np.zeros((len(graph.elections), k), dtype=np.int64)
        self.areas = np.zeros(k)
        self.perimeters = np.zeros(k)
        sizes = (graph.n_counties, graph.n_munis)
        self.unit_counts = tuple(np.zeros((size, k), dtype=np.int32) for size in sizes)
        self.unit_pieces = tuple(np.zeros(size, dtype=np.int64) for size in sizes)
        self.splits = None
        self._cdf_key = None
        self._cdf = None
        self._stale = np.ones(k, dtype=bool)  # districts whose cdf terms are out of date
        self.apply(self.propose(plan, np.arange(k), np.arange(graph.n)))

    def propose(self, plan: Plan, districts: np.ndarray, nodes: np.ndarray) -> TallyMove:
        """The move to ``plan``, which differs from this tally's plan only in
        ``districts`` (ascending); ``nodes`` (ascending) are every node those
        districts hold, in either plan. Leaves the tally unchanged;
        ``splits`` is ``plan``'s split report, for the gate."""
        local = np.searchsorted(districts, plan.assignment[nodes])
        counts, pieces = [], []
        for unit, matrix, before in zip(UNITS, self.unit_counts, self.unit_pieces):
            new = unit_district_counts(self.graph, unit, nodes, local, districts.size)
            old = matrix[:, districts]
            counts.append(new)
            pieces.append(before + (new > 0).sum(axis=1) - (old > 0).sum(axis=1))
        return TallyMove(plan, districts, nodes, local, tuple(counts), tuple(pieces),
                         split_report(self.graph, plan, pieces))

    def apply(self, move: TallyMove) -> None:
        """Make this the tally of ``move.plan``, recounting only ``move.districts``."""
        graph, nodes, local, districts = self.graph, move.nodes, move.local, move.districts
        size = districts.size
        for row, contest in enumerate(graph.elections):
            self.dem[row, districts] = np.bincount(local, contest.dem[nodes], size)
            self.rep[row, districts] = np.bincount(local, contest.rep[nodes], size)
        self.areas[districts] = np.bincount(local, graph.areas[nodes], size)
        perimeters = np.bincount(local, graph.perimeters[nodes], size)
        # every internal edge of these districts has its lower end among the
        # nodes: gather the edges of each node in turn (so in ascending edge
        # order) and keep those whose ends share a district
        first = np.searchsorted(graph.edge_a, nodes)
        width = np.searchsorted(graph.edge_a, nodes, side="right") - first
        edges = np.repeat(first - np.cumsum(width) + width, width) + np.arange(width.sum())
        assignment = move.plan.assignment
        inside = assignment[graph.edge_a[edges]] == assignment[graph.edge_b[edges]]
        shared = np.bincount(np.repeat(local, width)[inside],
                             graph.edge_shared[edges[inside]], size)
        self.perimeters[districts] = perimeters - 2.0 * shared
        for matrix, counts in zip(self.unit_counts, move.unit_counts):
            matrix[:, districts] = counts
        self.unit_pieces = move.unit_pieces
        self.splits = move.splits
        self._stale[districts] = True
        self.plan = move.plan

    def seat_probabilities(self, config: MetricsConfig, shares: np.ndarray) -> list:
        """Each district's ``normal_cdf((share - 0.5) / sigma)`` per contest of
        ``config``, as one list per contest, given their ``shares``; only the
        districts moved since the last call with the same config are
        recomputed."""
        key = (config.contests, config.fractional_sigma)
        if key != self._cdf_key:
            self._cdf_key = key
            self._cdf = [[0.0] * shares.shape[1] for _ in range(shares.shape[0])]
            self._stale[:] = True
        stale = np.flatnonzero(self._stale)
        z = ((shares[:, stale] - 0.5) / config.fractional_sigma).tolist()
        for terms, row in zip(self._cdf, z):
            for d, x in zip(stale.tolist(), row):
                terms[d] = normal_cdf(x)
        self._stale[:] = False
        return self._cdf


def score_plan(
    graph: PrecinctGraph, plan: Plan, config: MetricsConfig, tally: "PlanTally | None" = None
) -> MetricsReport:
    """All metrics for one plan under both tallying conventions, read off
    ``tally`` (a :class:`PlanTally` of ``plan``; built here when not given)."""
    if tally is None:
        tally = PlanTally(graph, plan)
    elif tally.plan is not plan:
        raise ValueError("tally describes another plan")
    rows = [graph.elections.index(name) for name in config.contests]
    n_contests = len(rows)
    # one row per contest, then the vote index (the contests' sum)
    dem = tally.dem[rows]
    rep = tally.rep[rows]
    dem = np.vstack([dem, dem.sum(axis=0)])
    rep = np.vstack([rep, rep.sum(axis=0)])
    total = dem + rep
    if (total == 0).any():  # the index row is 0 only where every contest row is
        row, d = np.argwhere(total == 0)[0]
        raise errors.ZeroVotesDistrict(int(d), config.contests[row])
    shares = dem / total
    ties = (shares == 0.5).sum(axis=1)
    seats = ((shares > 0.5).sum(axis=1) + 0.5 * ties).tolist()
    # Efficiency gap: twice each district's wasted votes (see wasted_votes) is
    # an integer, so the int64 row sums are exact and float(sum) / 2 is the
    # correctly rounded sum of the wasted votes, which is what math.fsum
    # returns for them; the same holds for the total.
    dem_wasted = np.where(dem >= rep, dem - rep, 2 * dem).sum(axis=1) / 2
    rep_wasted = np.where(rep >= dem, rep - dem, 2 * rep).sum(axis=1) / 2
    egs = ((dem_wasted - rep_wasted) / total.sum(axis=1)).tolist()
    mms = [
        math.fsum(s) / plan.k - m
        for s, m in zip(shares.tolist(), np.median(shares, axis=1).tolist())
    ]
    frac = [math.fsum(terms) for terms in tally.seat_probabilities(config, shares[:n_contests])]
    require_positive_perimeters(tally.perimeters)
    splits = tally.splits
    return MetricsReport(
        seats_avg=math.fsum(seats[:n_contests]) / n_contests,
        seats_fractional=math.fsum(frac) / n_contests,
        seats_index=seats[n_contests],
        efficiency_gap=math.fsum(egs[:n_contests]) / n_contests,
        mean_median=math.fsum(mms[:n_contests]) / n_contests,
        efficiency_gap_index=egs[n_contests],
        mean_median_index=mms[n_contests],
        polsby_popper=_polsby_popper(tally.perimeters, tally.areas),
        county_splits=splits.county_splits,
        muni_splits=splits.muni_splits,
        per_district_county_penalty=splits.per_district_county_penalty,
        pieces_count=splits.pieces_count,
        tie_districts=int(ties.sum()),
    )
