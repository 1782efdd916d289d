"""Plan-level partisan and compactness metrics.

Two tallying conventions are supported everywhere: the default averages each
metric over the contests in the sample (one value per election, then the
mean), while the "vote index" convention first sums each precinct's votes
across the sample and computes metrics once on the summed contest. The index
convention overweights high-turnout contests and interacts badly with
nonlinear metrics; both are reported so they can be compared.

Each metric has one formula, over per-district arrays with one row per
contest and the districts on the last axis. ``score_plan`` applies it to
all of a :class:`PlanTally`'s rows at once; the public whole-plan helpers
(``district_shares``, ``efficiency_gap``, ``seats_won``, ...) apply it to
the one row of a single contest's ``np.bincount`` sums.

Sign conventions: shares are two-party Democratic; efficiency gap and
mean-median are positive for pro-Republican advantage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import errors
from .constraints import SplitReport, split_report, unit_codes, unit_district_counts
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


def _shares(dem, rep, contests) -> np.ndarray:
    """Democratic two-party share of every district, from vote arrays with
    one row per contest and the districts on the last axis; ``contests``
    names the rows for the error a voteless district raises."""
    total = dem + rep
    if (total == 0).any():
        row, d = np.argwhere(total == 0)[0]
        raise errors.ZeroVotesDistrict(int(d), contests[row])
    return dem / total


def _ties(shares) -> np.ndarray:
    """Districts at share exactly 0.5, per row."""
    return (shares == 0.5).sum(axis=-1)


def _seats(shares) -> np.ndarray:
    """Democratic seats per row: share > 0.5 wins outright, exact ties count 0.5."""
    return (shares > 0.5).sum(axis=-1) + 0.5 * _ties(shares)


def _seat_probabilities(shares, sigma: float) -> list:
    """Each district's ``normal_cdf((share - 0.5) / sigma)``, one list per row."""
    return [[normal_cdf(x) for x in row] for row in ((shares - 0.5) / sigma).tolist()]


def _efficiency_gaps(dem, rep) -> np.ndarray:
    """(Dem wasted - Rep wasted) / total votes per row; positive is pro-Republican.

    The loser wastes every vote; the winner wastes votes beyond half the
    district total, so at an exact tie each side wastes 0. Twice each
    district's wasted votes is then a whole number for whole vote counts, so
    the row sums are exact and halving them gives the correctly rounded sums
    whatever the district order; the same holds for the total.
    """
    dem_wasted = np.where(dem >= rep, dem - rep, 2 * dem).sum(axis=-1) / 2
    rep_wasted = np.where(rep >= dem, rep - dem, 2 * rep).sum(axis=-1) / 2
    return (dem_wasted - rep_wasted) / (dem + rep).sum(axis=-1)


def _mean_medians(shares) -> list:
    """Mean minus median of each row's shares; positive when Democratic
    voters are packed (median below mean), i.e. pro-Republican, matching the
    efficiency gap. ``math.fsum`` keeps the mean independent of district order."""
    return [math.fsum(row) / len(row) - m
            for row, m in zip(shares.tolist(), np.median(shares, axis=-1).tolist())]


def _polsby_popper(perims: np.ndarray, areas: np.ndarray) -> float:
    return math.fsum(4.0 * math.pi * areas / (perims * perims)) / perims.size


def _plan_votes(plan: Plan, contest: Contest):
    """Per-district ``(dem, rep)`` totals of ``contest``, as one-row arrays."""
    return tuple(np.bincount(plan.assignment, weights=votes, minlength=plan.k)[None]
                 for votes in (contest.dem, contest.rep))


def district_shares(graph: PrecinctGraph, plan: Plan, contest) -> np.ndarray:
    """Per-district Democratic two-party voteshare for one contest."""
    c = _resolve_contest(graph, contest)
    return _shares(*_plan_votes(plan, c), (c.name,))[0]


def count_ties(shares) -> int:
    """Number of districts with share exactly 0.5."""
    return int(_ties(np.asarray(shares)))


def seats_won(shares) -> float:
    """Democratic seats: share > 0.5 wins outright, exact ties count 0.5."""
    return float(_seats(np.asarray(shares, dtype=np.float64)))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf; accurate to ~1e-15."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def seats_fractional(shares, sigma: float = 0.05) -> float:
    """Expected seats under normal smoothing of shares around 0.5.

    A district at exactly 50% contributes 0.5 seats; as sigma -> 0 this
    approaches the outright seat count (ties kept at 0.5). fsum keeps the
    result independent of district ordering.
    """
    return math.fsum(_seat_probabilities(np.asarray(shares, dtype=np.float64)[None], sigma)[0])


def efficiency_gap_from_votes(dem, rep) -> float:
    """Efficiency gap of per-district whole vote counts; positive is pro-Republican."""
    dem, rep = (np.asarray(votes, dtype=np.float64)[None] for votes in (dem, rep))
    _shares(dem, rep, ("<votes>",))  # raises ZeroVotesDistrict for a voteless district
    return float(_efficiency_gaps(dem, rep)[0])


def efficiency_gap(graph: PrecinctGraph, plan: Plan, contest) -> float:
    """Efficiency gap of one contest; positive favors Republicans."""
    c = _resolve_contest(graph, contest)
    dem, rep = _plan_votes(plan, c)
    _shares(dem, rep, (c.name,))
    return float(_efficiency_gaps(dem, rep)[0])


def mean_median(shares) -> float:
    """Mean minus median of district Democratic shares (pro-Republican positive)."""
    return _mean_medians(np.asarray(shares, dtype=np.float64)[None])[0]


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
        self.unit_counts = tuple(np.zeros((n, k), dtype=np.int32) for _, n in unit_codes(graph))
        self.unit_pieces = tuple(np.zeros(n, dtype=np.int64) for _, n in unit_codes(graph))
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
        for (codes, n_units), matrix, before in zip(
            unit_codes(self.graph), self.unit_counts, self.unit_pieces
        ):
            new = unit_district_counts(codes, n_units, nodes, local, districts.size)
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
        fresh = _seat_probabilities(shares[:, stale], config.fractional_sigma)
        for terms, row in zip(self._cdf, fresh):
            for d, value in zip(stale.tolist(), row):
                terms[d] = value
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
    # the index row is 0 only where every contest row is, so a voteless
    # district is always reported under a contest's name
    shares = _shares(dem, rep, config.contests)
    seats = _seats(shares).tolist()
    egs = _efficiency_gaps(dem, rep).tolist()
    mms = _mean_medians(shares)
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
        tie_districts=int(_ties(shares).sum()),
    )
