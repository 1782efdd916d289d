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
districts only: per row, each district's share and integer counts, the
counts' sums and the shares sorted; a float sum is the ``math.fsum`` of its
terms, kept exactly under updates (:class:`KeptSum`). The tests hold its
reports equal, bit for bit, to reports built from the whole-plan helpers.

Sign conventions: shares are two-party Democratic; efficiency gap and
mean-median are positive for pro-Republican advantage.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, fields
from itertools import chain
from operator import add, truediv
from typing import NamedTuple

import numpy as np

from . import errors
from .constraints import SplitReport, split_report
from .graph import (
    INT64_MAX,
    Contest,
    Plan,
    PrecinctGraph,
    Region,
    district_geometry,
    district_perimeter_area,
    label_order,
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


# every finite float is a whole number of units of 2**-1074, the smallest subnormal
_FLOAT_BITS = 1074
# 0.5 * (1 + erf(z)) is a whole number of units of 2**-54: fl(1 + e) is one of
# 2**-53 for every float e in [-1, 1] (e itself is, where |e| >= 1/2; the sum
# is exact where it is below 1/2, and lies on a grid at least that fine
# elsewhere), and halving is exact
_SEAT_BITS = 54
_SEAT_SCALE = 2.0**_SEAT_BITS


def _units(x: float, bits: int = _FLOAT_BITS) -> int:
    """``x``, a whole number of units of 2**-``bits``, in those units, exactly;
    below 1000 bits ``x`` lies in [0, 1], so ``x * 2**bits`` is a float with
    no fraction."""
    if bits < 1000:
        return int(x * 2.0**bits)
    num, den = x.as_integer_ratio()  # den is 2**j, j <= bits
    return num << (bits + 1 - den.bit_length())


class KeptSum:
    """``math.fsum`` of a list of finite floats (``terms``), kept under
    replacing a few of them.

    Every term is a whole number of units of 2**-``bits``: any finite float
    is at the default 1074 bits, and a caller that knows a coarser unit for
    terms in [0, 1] (:class:`KeptRow` does for its shares and seat terms)
    passes fewer, so that the integers stay small. Once :meth:`exact` has
    run, the sum keeps every term in those units (``units``, as
    :func:`_units` converts it) and their exact sum (``total``); from then on
    replacing a term changes that sum by the difference of two terms, and
    :meth:`value` divides it by the unit. Python's int division, like
    ``math.fsum``, rounds the exact value correctly (half to even), so the
    value is the same bit for bit, in O(1) instead of a pass over every term.
    A sum read once, as a from-scratch score reads it, never converts.
    :meth:`replace` replaces terms; :meth:`KeptRow.update` does the same
    inline, term by term.
    """

    __slots__ = ("terms", "units", "total", "bits")

    def __init__(self, terms: list, bits: int = _FLOAT_BITS):
        self.terms = terms
        self.units = None
        self.total = 0
        self.bits = bits

    def exact(self) -> list:
        """``units``, converted from ``terms`` at the first call."""
        if self.units is None:
            self.units = [_units(x, self.bits) for x in self.terms]
            self.total = sum(self.units)
        return self.units

    def replace(self, indices: list, values: list) -> None:
        """Make each term ``indices[j]`` ``values[j]``."""
        terms, units, bits = self.terms, self.exact(), self.bits
        total = self.total
        for i, x in zip(indices, values):
            new = _units(x, bits)
            total += new - units[i]
            units[i] = new
            terms[i] = x
        self.total = total

    def value(self) -> float:
        if self.units is None:
            return math.fsum(self.terms)
        return self.total / (1 << self.bits)


class KeptRow:
    """Every sum across districts that ``score_plan`` reads off one row (a
    contest, or the vote index) of a plan, kept under updates of a few
    districts.

    Per district it keeps its share and twice each side's wasted votes (as
    ``_efficiency_gap`` counts them); a row built with a ``sigma`` (a
    contest's) also keeps the district's ``normal_cdf`` term for fractional
    seats. Across districts it keeps the shares sorted (``ranked``), from
    which the median is read, the number of shares above 0.5 (``above``) and
    equal to it (``ties``), the integer sums of the wasted votes and the
    row's vote total (``counts``; the total moves between a plan's districts
    but does not change), and the float sums of the shares and of the seat
    terms, each a :class:`KeptSum`. A row is built from every district's
    votes, as a from-scratch score reads it once; :meth:`update` replaces a
    few districts' records, converting each new float term to its sum's
    units and moving the exact sums inline.

    No district holds more than the row's vote total T (``counts[2]``), so a
    share dem/total is 0 or at least 2**-b for T < 2**b: a whole number of
    units of 2**-(b + 52), and b + 52 < 1000 for any sum of int64 vote
    counts over fewer than 2**800 contests. Seat terms are whole numbers of
    units of 2**-54 (``_SEAT_BITS``).
    """

    __slots__ = ("shares", "ranked", "above", "ties", "dem_wasted2", "rep_wasted2",
                 "seat_terms", "sigma", "counts")

    def __init__(self, dems: list, reps: list, sigma: float | None = None):
        """The row of every district's votes ``dems`` and ``reps``, never both 0."""
        totals = list(map(add, dems, reps))
        shares = list(map(truediv, dems, totals))
        self.ranked = ranked = sorted(shares)
        low, high = bisect_left(ranked, 0.5), bisect_right(ranked, 0.5)
        self.above, self.ties = len(ranked) - high, high - low
        self.dem_wasted2 = [d - r if d >= r else 2 * d for d, r in zip(dems, reps)]
        self.rep_wasted2 = [r - d if r >= d else 2 * r for d, r in zip(dems, reps)]
        self.counts = (sum(self.dem_wasted2), sum(self.rep_wasted2), sum(totals))
        self.sigma = sigma
        self.seat_terms = None if sigma is None else KeptSum(
            [normal_cdf((share - 0.5) / sigma) for share in shares], _SEAT_BITS)
        self.shares = KeptSum(shares, self.counts[2].bit_length() + 52)

    def update(self, districts: list, dems: list, reps: list) -> None:
        """Give ``districts`` the votes ``dems`` and ``reps``, never both 0."""
        ranked, kept, seat_kept = self.ranked, self.shares, self.seat_terms
        shares, share_units, share_total = kept.terms, kept.exact(), kept.total
        share_scale = 2.0**kept.bits
        if seat_kept is not None:
            seats, seat_units, seat_total = seat_kept.terms, seat_kept.exact(), seat_kept.total
            sigma = self.sigma
        dem_wasted2, rep_wasted2 = self.dem_wasted2, self.rep_wasted2
        dem_sum, rep_sum, total = self.counts
        above, ties = self.above, self.ties
        for d, dem, rep in zip(districts, dems, reps):
            old = shares[d]
            del ranked[bisect_left(ranked, old)]
            if old >= 0.5:
                if old > 0.5:
                    above -= 1
                else:
                    ties -= 1
            dw = dem - rep if dem >= rep else 2 * dem
            rw = rep - dem if rep >= dem else 2 * rep
            dem_sum += dw - dem_wasted2[d]
            rep_sum += rw - rep_wasted2[d]
            dem_wasted2[d], rep_wasted2[d] = dw, rw
            shares[d] = share = dem / (dem + rep)
            insort(ranked, share)
            if share >= 0.5:
                if share > 0.5:
                    above += 1
                else:
                    ties += 1
            new = int(share * share_scale)  # _units, inline
            share_total += new - share_units[d]
            share_units[d] = new
            if seat_kept is not None:
                seats[d] = term = normal_cdf((share - 0.5) / sigma)
                new = int(term * _SEAT_SCALE)
                seat_total += new - seat_units[d]
                seat_units[d] = new
        self.counts = dem_sum, rep_sum, total
        self.above, self.ties = above, ties
        kept.total = share_total
        if seat_kept is not None:
            seat_kept.total = seat_total

    def seats(self) -> float:
        """Democratic seats: share > 0.5 wins outright, exact ties count 0.5."""
        return self.above + 0.5 * self.ties

    def seats_fractional(self) -> float:
        """The sum of the ``normal_cdf`` terms (a row built with a sigma)."""
        return self.seat_terms.value()

    def efficiency_gap(self) -> float:
        """(Dem wasted - Rep wasted) / total votes, as ``_efficiency_gap``."""
        dem_wasted2, rep_wasted2, total = self.counts
        return (dem_wasted2 / 2 - rep_wasted2 / 2) / total

    def mean_median(self) -> float:
        """Mean minus median of the shares, as ``mean_median``."""
        ranked = self.ranked
        k = len(ranked)
        median = ranked[k // 2] if k % 2 else (ranked[k // 2 - 1] + ranked[k // 2]) / 2
        return self.shares.value() / k - median


class TallyMove(NamedTuple):
    """A plan that differs from a tally's plan only in ``districts``, and the
    region counts that :meth:`PlanTally.apply` writes into the tally."""

    plan: Plan
    districts: np.ndarray  # ascending
    nodes: np.ndarray  # every node of ``districts``, ascending
    local: np.ndarray  # each node's position in ``districts``
    region: "Region | None"  # the nodes' Region, or None when they are every node
    unit_touch: np.ndarray  # (len(districts), units): the units each district touches
    unit_pieces: np.ndarray  # districts each unit touches, after the move
    splits: SplitReport


class PlanTally:
    """Per-district sums of one plan, and the sums across districts that
    ``score_plan`` reads its report from.

    Built once from a whole plan; :meth:`propose` and :meth:`apply` move it
    to a plan that differs only in a few districts (a ReCom step's two) by
    recounting those districts from their own nodes, so a step costs
    O(region + k + units), not O(n). ``propose`` labels the nodes once with
    their district's position among the moved ones, and ``apply`` sums by
    those labels: two districts' votes as one split of the gathered block,
    more by a sort and ``np.add.reduceat``. It holds, per district: dem and rep
    votes for every contest of the graph (``votes``, laid out as
    ``graph.votes``), area, and perimeter net of twice the shared boundary of
    its internal edges; per unit, counties first and then municipalities
    (numbered after the counties), a dense boolean district x unit matrix of
    the units each district touches (``unit_touch``, a district's units are
    one row) and the number of districts each unit touches.

    For the config it last scored, :meth:`kept_rows` keeps a
    :class:`KeptRow` per contest, with the config's sigma, and one for their
    vote index, without; the tally also keeps each district's Polsby-Popper
    term. Only the districts moved since the last read are updated there, in
    Python scalars, one pass over them per row, and every float sum is a
    :class:`KeptSum`, so a ReCom step's read costs O(rows * log k); a new
    tally, or another config, builds its rows from every district at once.
    :meth:`report` assembles the report off the rows.

    Every report equals a from-scratch one bit for bit. Vote sums are
    integers. A float sum of a district is recomputed from its nodes and
    internal edges in ascending global order, the order ``np.bincount`` adds
    in, never by adding and subtracting deltas. Sums across districts are
    integer sums or the correctly rounded sum of ``math.fsum`` (kept exactly
    by :class:`KeptSum`), and neither depends on order.
    """

    def __init__(self, graph: PrecinctGraph, plan: Plan):
        k = plan.k
        self.graph = graph
        self.plan = plan
        self.votes = np.zeros((graph.votes.shape[0], k), dtype=np.int64)
        self._geometry = np.zeros((2, k))
        self.perimeters, self.areas = self._geometry  # views: one gather reads both
        self._munis = graph.muni_codes + graph.n_counties  # units: counties, then municipalities
        self.unit_touch = np.zeros((k, graph.n_counties + graph.n_munis), dtype=bool)
        self.unit_pieces = np.zeros(graph.n_counties + graph.n_munis, dtype=np.int64)
        self.splits = None
        self.rows = None  # the KeptRow list of the config last read, keyed by _key
        self._key = None
        self._vote_rows = None  # rows of ``votes`` with that config's dem, and its rep
        self._pp_terms = KeptSum([0.0] * k)  # each district's Polsby-Popper term
        self._stale = set(range(k))  # districts moved since the last read
        self.apply(self.propose(plan, np.arange(k), np.arange(graph.n)))

    def propose(self, plan: Plan, districts: np.ndarray, nodes) -> TallyMove:
        """The move to ``plan``, which differs from this tally's plan only in
        ``districts`` (ascending); ``nodes`` are every node those districts
        hold, in either plan: an ascending array, or their
        :class:`~mapchain.graph.Region` (a ReCom step has gathered it), which
        is gathered here when not given. Leaves the tally unchanged;
        ``splits`` is ``plan``'s split report, for the gate."""
        graph, size = self.graph, districts.size
        region = nodes if isinstance(nodes, Region) else None
        if region is not None:
            nodes = region.nodes
        elif nodes.size < graph.n:
            region = graph.neighbors.gather(nodes)
        local = plan.assignment[nodes]
        if size < plan.k:  # else ``districts`` are 0..k-1, the labels themselves
            local = np.searchsorted(districts, local)
        n_units = self.unit_pieces.size
        offset = local * n_units
        keys = np.concatenate((graph.county_codes[nodes] + offset, self._munis[nodes] + offset))
        touch = np.bincount(keys, minlength=size * n_units).reshape(size, n_units) > 0
        pieces = self.unit_pieces + touch.sum(axis=0)
        pieces -= self.unit_touch[districts].sum(axis=0)
        counties = graph.n_counties
        splits = split_report(graph, plan, (pieces[:counties], pieces[counties:]))
        return TallyMove(plan, districts, nodes, local, region, touch, pieces, splits)

    def apply(self, move: TallyMove) -> None:
        """Make this the tally of ``move.plan``, recounting only ``move.districts``."""
        graph, nodes, local, districts = self.graph, move.nodes, move.local, move.districts
        size = districts.size
        # one gather of every contest's votes, summed district by district
        if size == 2:  # a ReCom step's two: the labels split the gathered votes
            block = graph.votes.take(nodes, axis=1)
            self.votes[:, districts[0]] = block @ (1 - local)
            self.votes[:, districts[1]] = block @ local
        else:  # grouped by label (none is empty)
            order = label_order(local, size)
            starts = np.searchsorted(local[order], np.arange(size))
            self.votes[:, districts] = np.add.reduceat(graph.votes[:, nodes[order]], starts, axis=1)
        self._geometry[:, districts] = district_geometry(graph, nodes, local, size, move.region)
        self.unit_touch[districts] = move.unit_touch
        self.unit_pieces = move.unit_pieces
        self.splits = move.splits
        self._stale.update(districts.tolist())
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
            self.rows = None
            self._stale.update(range(self.plan.k))
        if not self._stale:
            return self.rows
        districts = sorted(self._stale)
        votes = self.votes[:, districts].tolist()
        dem_rows, rep_rows = self._vote_rows
        dems = [votes[r] for r in dem_rows]
        reps = [votes[r] for r in rep_rows]
        if 0 in map(add, chain.from_iterable(dems), chain.from_iterable(reps)):
            for contest, row_dem, row_rep in zip(config.contests, dems, reps):
                totals = list(map(add, row_dem, row_rep))
                if 0 in totals:
                    raise errors.ZeroVotesDistrict(districts[totals.index(0)], contest)
        perims, areas = self._geometry[:, districts].tolist()
        if min(perims) <= 0:
            require_positive_perimeters(self.perimeters)
        pp_terms = [_FOUR_PI * area / squared if squared else math.inf
                    for area, squared in zip(areas, [p * p for p in perims])]
        bad = [d for d, term in zip(districts, pp_terms) if not math.isfinite(term)]
        if bad:
            raise errors.InvalidNodeData(
                f"districts {bad} have a Polsby-Popper term "
                "4*pi*area/perimeter^2 that is not finite; check area and perimeter inputs"
            )
        # the vote index row: each district's votes summed over the contests
        dems.append(list(map(sum, zip(*dems))))
        reps.append(list(map(sum, zip(*reps))))
        if self.rows is None or len(districts) == self.plan.k:
            sigma = config.fractional_sigma
            self.rows = [KeptRow(row_dem, row_rep, sigma) for row_dem, row_rep in
                         zip(dems[:-1], reps[:-1])] + [KeptRow(dems[-1], reps[-1])]
        else:
            for row, row_dem, row_rep in zip(self.rows, dems, reps):
                row.update(districts, row_dem, row_rep)
        if len(districts) == self.plan.k:
            self._pp_terms = KeptSum(pp_terms)
        else:
            self._pp_terms.replace(districts, pp_terms)
        self._stale.clear()
        return self.rows

    def polsby_popper(self) -> float:
        """Unweighted district mean of 4*pi*area/perimeter^2, as of the last read."""
        return self._pp_terms.value() / self.plan.k

    def report(self, config: MetricsConfig) -> MetricsReport:
        """The report of this tally's plan under ``config``, read off its
        kept rows (:meth:`kept_rows`): each contest metric is the mean over
        the contest rows, by ``math.fsum``, and each index metric the index
        row's own."""
        *rows, index = self.kept_rows(config)
        n = len(rows)
        splits = self.splits
        return MetricsReport(
            seats_avg=math.fsum([row.seats() for row in rows]) / n,
            seats_fractional=math.fsum([row.seats_fractional() for row in rows]) / n,
            seats_index=index.seats(),
            efficiency_gap=math.fsum([row.efficiency_gap() for row in rows]) / n,
            mean_median=math.fsum([row.mean_median() for row in rows]) / n,
            efficiency_gap_index=index.efficiency_gap(),
            mean_median_index=index.mean_median(),
            polsby_popper=self.polsby_popper(),
            county_splits=splits.county_splits,
            muni_splits=splits.muni_splits,
            per_district_county_penalty=splits.per_district_county_penalty,
            pieces_count=splits.pieces_count,
            tie_districts=sum([row.ties for row in rows]) + index.ties,
        )


def score_plan(
    graph: PrecinctGraph, plan: Plan, config: MetricsConfig, tally: "PlanTally | None" = None
) -> MetricsReport:
    """All metrics for one plan under both tallying conventions, read off
    ``tally`` (a :class:`PlanTally` of ``plan``; built here when not given)."""
    if tally is None:
        tally = PlanTally(graph, plan)
    elif tally.plan is not plan:
        raise ValueError("tally describes another plan")
    return tally.report(config)
