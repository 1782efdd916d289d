"""Whole-plan reference scorer for ``mapchain.metrics.score_plan``.

This is the straightforward scorer: every metric recomputed from the whole
plan, one ``np.bincount`` over all nodes per contest and per geometry sum,
and split counts from ``np.unique`` over (unit, district) keys. Reports read
off a ``PlanTally``, built from scratch or moved step by step, must equal
its reports bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from mapchain.constraints import SplitReport
from mapchain.metrics import (
    MetricsReport,
    count_ties,
    district_shares,
    efficiency_gap,
    mean_median,
    polsby_popper,
    seats_fractional,
    seats_won,
    vote_index,
)


def _districts_per_unit(codes, n_units, plan):
    keys = np.unique(codes * plan.k + plan.assignment)
    return np.bincount(keys // plan.k, minlength=n_units)


def split_report(graph, plan) -> SplitReport:
    county = _districts_per_unit(graph.county_codes, graph.n_counties, plan)
    muni = _districts_per_unit(graph.muni_codes, graph.n_munis, plan)
    split = county >= 2
    return SplitReport(
        county_splits=int(split.sum()),
        muni_splits=int((muni >= 2).sum()),
        per_district_county_penalty=int(county[split].sum()),
        pieces_count=int(county.sum()),
    )


def score_plan(graph, plan, config) -> MetricsReport:
    contests = [graph.elections.get(name) for name in config.contests]
    seats, frac, egs, mms = [], [], [], []
    ties = 0
    for c in contests:
        shares = district_shares(graph, plan, c)
        seats.append(seats_won(shares))
        frac.append(seats_fractional(shares, config.fractional_sigma))
        egs.append(efficiency_gap(graph, plan, c))
        mms.append(mean_median(shares))
        ties += count_ties(shares)
    index = vote_index(graph, contests)
    index_shares = district_shares(graph, plan, index)
    ties += count_ties(index_shares)
    splits = split_report(graph, plan)
    return MetricsReport(
        seats_avg=math.fsum(seats) / len(seats),
        seats_fractional=math.fsum(frac) / len(frac),
        seats_index=seats_won(index_shares),
        efficiency_gap=math.fsum(egs) / len(egs),
        mean_median=math.fsum(mms) / len(mms),
        efficiency_gap_index=efficiency_gap(graph, plan, index),
        mean_median_index=mean_median(index_shares),
        polsby_popper=polsby_popper(graph, plan),
        county_splits=splits.county_splits,
        muni_splits=splits.muni_splits,
        per_district_county_penalty=splits.per_district_county_penalty,
        pieces_count=splits.pieces_count,
        tie_districts=ties,
    )
