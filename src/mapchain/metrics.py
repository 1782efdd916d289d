"""Plan-level partisan and compactness metrics.

Two tallying conventions are supported everywhere: the default averages each
metric over the contests in the sample (one value per election, then the
mean), while the "vote index" convention first sums each precinct's votes
across the sample and computes metrics once on the summed contest. The index
convention overweights high-turnout contests and interacts badly with
nonlinear metrics; both are reported so they can be compared.

The public whole-plan helpers (``district_shares``, ``efficiency_gap``,
``seats_won``, ...) compute one contest's metric from whole per-district
arrays. ``score_plan`` reads the same metrics off a :class:`PlanTally`,
which keeps what the report reads across districts and updates it for moved
districts only: per row, one record of share and integer counts per
district, the counts' sums and the shares sorted; float sums are
``math.fsum`` of the kept terms, taken when read. The tests hold its reports
equal, bit for bit, to reports built from the whole-plan helpers.

Sign conventions: shares are two-party Democratic; efficiency gap and
mean-median are positive for pro-Republican advantage.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, fields
from operator import add
from typing import NamedTuple

import numpy as np

from . import errors
from .constraints import SplitReport, split_report, unit_codes, unit_district_counts
from .graph import (
    INT64_MAX,
    Contest,
    Plan,
    PrecinctGraph,
    district_geometry,
    district_perimeter_area,
    require_positive_perimeters,
)


_FOUR_PI = 4.0 * math.pi
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class MetricsConfig:
    """Contest sample and smoothing width for fractional seats."""

    contests: tuple
    fractional_sigma: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "contests", tuple(self.contests))
        if not self.contests:
            raise errors.ConfigError("contest sample must be nonempty")
        repeated = [c for i, c in enumerate(self.contests) if c in self.contests[:i]]
        if repeated:
            raise errors.ConfigError(f"contest {repeated[0]!r} is listed more than once")
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


def _shares(dem, rep, contest: str) -> np.ndarray:
    """Democratic two-party share of every district, from its vote totals;
    ``contest`` names them for the error a voteless district raises."""
    total = dem + rep
    if (total == 0).any():
        raise errors.ZeroVotesDistrict(int(np.argmax(total == 0)), contest)
    return dem / total


def _efficiency_gap(dem, rep) -> float:
    """(Dem wasted - Rep wasted) / total votes; positive is pro-Republican.

    The loser wastes every vote; the winner wastes votes beyond half the
    district total, so at an exact tie each side wastes 0. Twice each
    district's wasted votes is then a whole number for whole vote counts, so
    the sums are exact and halving them gives the correctly rounded sums
    whatever the district order; the same holds for the total.
    """
    dem_wasted = np.where(dem >= rep, dem - rep, 2 * dem).sum() / 2
    rep_wasted = np.where(rep >= dem, rep - dem, 2 * rep).sum() / 2
    return float((dem_wasted - rep_wasted) / (dem + rep).sum())


def _plan_votes(plan: Plan, contest: Contest):
    """Per-district ``(dem, rep)`` totals of ``contest``."""
    return tuple(np.bincount(plan.assignment, weights=votes, minlength=plan.k)
                 for votes in (contest.dem, contest.rep))


def district_shares(graph: PrecinctGraph, plan: Plan, contest) -> np.ndarray:
    """Per-district Democratic two-party voteshare for one contest."""
    c = _resolve_contest(graph, contest)
    return _shares(*_plan_votes(plan, c), c.name)


def count_ties(shares) -> int:
    """Number of districts with share exactly 0.5."""
    return int((np.asarray(shares) == 0.5).sum())


def seats_won(shares) -> float:
    """Democratic seats: share > 0.5 wins outright, exact ties count 0.5."""
    return float((np.asarray(shares, dtype=np.float64) > 0.5).sum() + 0.5 * count_ties(shares))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf; accurate to ~1e-15."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def seats_fractional(shares, sigma: float = 0.05) -> float:
    """Expected seats under normal smoothing of shares around 0.5.

    A district at exactly 50% contributes 0.5 seats; as sigma -> 0 this
    approaches the outright seat count (ties kept at 0.5). fsum keeps the
    result independent of district ordering.
    """
    x = (np.asarray(shares, dtype=np.float64) - 0.5) / sigma
    return math.fsum(normal_cdf(value) for value in x.tolist())


def efficiency_gap_from_votes(dem, rep) -> float:
    """Efficiency gap of per-district whole vote counts; positive is pro-Republican."""
    dem, rep = (np.asarray(votes, dtype=np.float64) for votes in (dem, rep))
    _shares(dem, rep, "<votes>")  # raises ZeroVotesDistrict for a voteless district
    return _efficiency_gap(dem, rep)


def efficiency_gap(graph: PrecinctGraph, plan: Plan, contest) -> float:
    """Efficiency gap of one contest; positive favors Republicans."""
    c = _resolve_contest(graph, contest)
    dem, rep = _plan_votes(plan, c)
    _shares(dem, rep, c.name)
    return _efficiency_gap(dem, rep)


def mean_median(shares) -> float:
    """Mean minus median of district Democratic shares; positive when
    Democratic voters are packed (median below mean), i.e. pro-Republican,
    matching the efficiency gap. ``math.fsum`` keeps the mean independent of
    district order."""
    shares = np.asarray(shares, dtype=np.float64)
    return math.fsum(shares.tolist()) / shares.size - float(np.median(shares))


def polsby_popper(graph: PrecinctGraph, plan: Plan) -> float:
    """Unweighted district mean of 4*pi*area/perimeter^2."""
    perims, areas = district_perimeter_area(graph, plan)
    return math.fsum(_FOUR_PI * areas / (perims * perims)) / perims.size


def vote_index(graph: PrecinctGraph, contest_sample) -> Contest:
    """Synthetic contest with per-precinct votes summed across the sample;
    raises ``InvalidNodeData`` (:func:`_index_votes`) where a sum would wrap."""
    contests = [_resolve_contest(graph, c) for c in contest_sample]
    if not contests:
        raise errors.ConfigError("vote_index needs a nonempty contest sample")
    dem = _index_votes(graph, np.array([c.dem for c in contests], dtype=np.int64), "D")
    rep = _index_votes(graph, np.array([c.rep for c in contests], dtype=np.int64), "R")
    name = "index(" + "+".join(c.name for c in contests) + ")"
    return Contest(name=name, dem=dem, rep=rep)


def _index_votes(graph: PrecinctGraph, rows: np.ndarray, side: str) -> np.ndarray:
    """Each precinct's sum of one side's ``rows`` of counts, in int64; raises
    ``InvalidNodeData`` naming the first precinct whose sum exceeds
    ``2**63 - 1``."""
    exact = rows.sum(axis=0, dtype=object)
    over = np.flatnonzero(exact > INT64_MAX)
    if over.size:
        i = int(over[0])
        raise errors.InvalidNodeData(
            f"{graph.precinct_ids[i]}: vote index side {side} sums to {exact[i]}, "
            "which exceeds 2**63 - 1"
        )
    return exact.astype(np.int64)


def _record(dem: int, rep: int) -> tuple:
    """One district's share, then its counts: twice each side's wasted votes
    (as ``_efficiency_gap`` counts them) and its total votes."""
    return (dem / (dem + rep), dem - rep if dem >= rep else 2 * dem,
            rep - dem if rep >= dem else 2 * rep, dem + rep)


_NO_RECORD = (None, 0, 0, 0)  # the record of a district not yet in a row


class KeptRow:
    """Every sum across districts that ``score_plan`` reads off one row (a
    contest, or the vote index) of a plan, kept under updates of a few
    districts.

    Per district it keeps its ``_record`` (share and counts); a row built
    with a ``sigma`` (a contest's) also keeps the district's ``normal_cdf``
    term for fractional seats. Across districts it keeps the shares sorted
    (``ranked``), from which seats and ties are counted, and the sum of each
    count (``counts``). Float sums are ``math.fsum`` of the current terms,
    taken when read. A new row holds no district; :meth:`update` takes each
    district's old record out, if it has one, and adds its new one.
    """

    __slots__ = ("records", "ranked", "seat_terms", "sigma", "counts")

    def __init__(self, k: int, sigma: float | None = None):
        self.records = [_NO_RECORD] * k
        self.ranked = []
        self.seat_terms = None if sigma is None else [0.0] * k
        self.sigma = sigma
        self.counts = (0, 0, 0)

    def update(self, districts: list, dems: list, reps: list) -> None:
        """Give ``districts`` the votes ``dems`` and ``reps``, never both 0."""
        records, ranked, seat_terms, sigma = self.records, self.ranked, self.seat_terms, self.sigma
        dem_wasted2, rep_wasted2, total = self.counts
        for d, dem, rep in zip(districts, dems, reps):
            old_share, dw0, rw0, n0 = records[d]
            if old_share is not None:
                del ranked[bisect_left(ranked, old_share)]
            records[d] = share, dw, rw, n = _record(dem, rep)
            insort(ranked, share)
            if seat_terms is not None:
                seat_terms[d] = normal_cdf((share - 0.5) / sigma)
            dem_wasted2 += dw - dw0
            rep_wasted2 += rw - rw0
            total += n - n0
        self.counts = dem_wasted2, rep_wasted2, total

    def seats(self) -> float:
        """Democratic seats: share > 0.5 wins outright, exact ties count 0.5."""
        ranked = self.ranked
        return len(ranked) - bisect_right(ranked, 0.5) + 0.5 * self.ties()

    def ties(self) -> int:
        """Districts of share exactly 0.5."""
        return bisect_right(self.ranked, 0.5) - bisect_left(self.ranked, 0.5)

    def seats_fractional(self) -> float:
        """The sum of the ``normal_cdf`` terms (a row built with a sigma)."""
        return math.fsum(self.seat_terms)

    def efficiency_gap(self) -> float:
        """(Dem wasted - Rep wasted) / total votes, as ``_efficiency_gap``."""
        dem_wasted2, rep_wasted2, total = self.counts
        return (dem_wasted2 / 2 - rep_wasted2 / 2) / total

    def mean_median(self) -> float:
        """Mean minus median of the shares, as ``mean_median``."""
        ranked = self.ranked
        k = len(ranked)
        median = ranked[k // 2] if k % 2 else (ranked[k // 2 - 1] + ranked[k // 2]) / 2
        return math.fsum(ranked) / k - median


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
    """Per-district sums of one plan, and the sums across districts that
    ``score_plan`` reads its report from.

    Built once from a whole plan; :meth:`propose` and :meth:`apply` move it
    to a plan that differs only in a few districts (a ReCom step's two) by
    recounting those districts from their own nodes, so a step costs
    O(region + k + units), not O(n). It holds, per district: dem and rep
    votes for every contest of the graph (``votes``, laid out as
    ``graph.votes``), area, and perimeter net of twice the shared boundary of
    its internal edges; per county and municipality, a dense int32 unit x
    district node-count matrix and the number of districts each unit touches.

    For the config it last scored, :meth:`kept_rows` keeps a
    :class:`KeptRow` per contest, with the config's sigma, and one for their
    vote index, without; the tally also keeps each district's Polsby-Popper
    term. Only the districts moved since the last read are updated there, so
    a ReCom step's read updates in O(rows * log k) and then takes one
    ``math.fsum`` over k terms per float sum; a new tally, or another config,
    updates all k districts the same way.

    Every report equals a from-scratch one bit for bit. Vote sums are
    integers. A float sum of a district is recomputed from its nodes and
    internal edges in ascending global order, the order ``np.bincount`` adds
    in, never by adding and subtracting deltas. Sums across districts are
    integer sums or ``math.fsum``, the correctly rounded sum, and neither
    depends on order.
    """

    def __init__(self, graph: PrecinctGraph, plan: Plan):
        k = plan.k
        self.graph = graph
        self.plan = plan
        self.votes = np.zeros((graph.votes.shape[0], k), dtype=np.int64)
        self.areas = np.zeros(k)
        self.perimeters = np.zeros(k)
        self.unit_counts = tuple(np.zeros((n, k), dtype=np.int32) for _, n in unit_codes(graph))
        self.unit_pieces = tuple(np.zeros(n, dtype=np.int64) for _, n in unit_codes(graph))
        self.splits = None
        self.rows = None  # the KeptRow list of the config last read, keyed by _key
        self._key = None
        self._vote_rows = None  # rows of ``votes`` with that config's dem, and its rep
        self._pp_terms = [0.0] * k  # each district's Polsby-Popper term
        self._stale = np.ones(k, dtype=bool)  # districts moved since the last read
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
        # one gather of every contest's votes, district by district (none is empty)
        order = np.argsort(local, kind="stable")
        starts = np.searchsorted(local[order], np.arange(size))
        self.votes[:, districts] = np.add.reduceat(graph.votes[:, nodes[order]], starts, axis=1)
        self.perimeters[districts], self.areas[districts] = district_geometry(
            graph, move.plan.assignment, nodes, local, size
        )
        for matrix, counts in zip(self.unit_counts, move.unit_counts):
            matrix[:, districts] = counts
        self.unit_pieces = move.unit_pieces
        self.splits = move.splits
        self._stale[districts] = True
        self.plan = move.plan

    def kept_rows(self, config: MetricsConfig) -> list:
        """The :class:`KeptRow` of each contest of ``config``, then of their
        vote index, with every district moved since the last read updated
        there and in the Polsby-Popper terms.

        Raises ``ZeroVotesDistrict`` for the first voteless district of the
        first contest that has one, then ``NegativePerimeter``, as a score
        from scratch would, then ``InvalidNodeData`` naming every district
        whose Polsby-Popper term is not finite, and then leaves the kept
        values as they were."""
        key = (config.contests, config.fractional_sigma)
        if key != self._key:
            contests = [self.graph.elections.index(name) for name in config.contests]
            self._key = key
            self._vote_rows = (contests, [len(self.graph.elections) + c for c in contests])
            k = self.plan.k
            self.rows = [KeptRow(k, config.fractional_sigma) for _ in contests] + [KeptRow(k)]
            self._stale[:] = True
        stale = np.flatnonzero(self._stale)
        districts = stale.tolist()
        votes = self.votes[:, stale].tolist()
        dem_rows, rep_rows = self._vote_rows
        dems = [votes[r] for r in dem_rows]
        reps = [votes[r] for r in rep_rows]
        for contest, row_dem, row_rep in zip(config.contests, dems, reps):
            totals = list(map(add, row_dem, row_rep))
            if 0 in totals:
                raise errors.ZeroVotesDistrict(districts[totals.index(0)], contest)
        perims = self.perimeters[stale]
        if perims.size and perims.min() <= 0:
            require_positive_perimeters(self.perimeters)
        with np.errstate(all="ignore"):
            pp_terms = _FOUR_PI * self.areas[stale] / (perims * perims)
        finite = np.isfinite(pp_terms)
        if not finite.all():
            raise errors.InvalidNodeData(
                f"districts {stale[~finite].tolist()} have a Polsby-Popper term "
                "4*pi*area/perimeter^2 that is not finite; check area and perimeter inputs"
            )
        # the vote index row: each district's votes summed over the contests
        dems.append(list(map(sum, zip(*dems))))
        reps.append(list(map(sum, zip(*reps))))
        for row, row_dem, row_rep in zip(self.rows, dems, reps):
            row.update(districts, row_dem, row_rep)
        for d, term in zip(districts, pp_terms.tolist()):
            self._pp_terms[d] = term
        self._stale[stale] = False
        return self.rows

    def polsby_popper(self) -> float:
        """Unweighted district mean of 4*pi*area/perimeter^2, as of the last read."""
        return math.fsum(self._pp_terms) / self.plan.k


def score_plan(
    graph: PrecinctGraph, plan: Plan, config: MetricsConfig, tally: "PlanTally | None" = None
) -> MetricsReport:
    """All metrics for one plan under both tallying conventions, read off
    ``tally`` (a :class:`PlanTally` of ``plan``; built here when not given)."""
    if tally is None:
        tally = PlanTally(graph, plan)
    elif tally.plan is not plan:
        raise ValueError("tally describes another plan")
    *rows, index = tally.kept_rows(config)
    n = len(rows)
    splits = tally.splits
    return MetricsReport(
        seats_avg=math.fsum(row.seats() for row in rows) / n,
        seats_fractional=math.fsum(row.seats_fractional() for row in rows) / n,
        seats_index=index.seats(),
        efficiency_gap=math.fsum(row.efficiency_gap() for row in rows) / n,
        mean_median=math.fsum(row.mean_median() for row in rows) / n,
        efficiency_gap_index=index.efficiency_gap(),
        mean_median_index=index.mean_median(),
        polsby_popper=tally.polsby_popper(),
        county_splits=splits.county_splits,
        muni_splits=splits.muni_splits,
        per_district_county_penalty=splits.per_district_county_penalty,
        pieces_count=splits.pieces_count,
        tie_districts=sum(row.ties() for row in rows) + index.ties(),
    )
