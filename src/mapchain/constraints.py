"""Administrative boundary split counting and proposal acceptance gates.

A county or municipality is "split" when it intersects two or more
districts. Two counting conventions circulate in redistricting tooling, and
:func:`split_report` gives both: ``county_splits`` (counties touching >= 2
districts) and ``pieces_count`` (county/district incidence pieces; subtract
the county count for the pieces-minus-units excess). They agree only while
no county touches 3+ districts.

Gates decide proposal acceptance. ``reject`` applies hard caps to the
proposal alone (memoryless); ``gibbs`` accepts with probability
``min(1, exp(-sum_j w_j * (penalty_j(proposal) - penalty_j(current))))``,
the usual Metropolis energy factor; ``permissive`` accepts everything.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Plan, PrecinctGraph

GIBBS_TERMS = ("county_splits", "muni_splits", "per_district_county_penalty")


@dataclass(frozen=True)
class SplitReport:
    """Split counts for one plan."""

    county_splits: int
    muni_splits: int
    per_district_county_penalty: int
    pieces_count: int  # county/district incidence pieces (redistmetrics-style)


def unit_codes(graph: PrecinctGraph) -> tuple:
    """Each unit type's ``(codes, unit count)``: counties, then municipalities."""
    return (graph.county_codes, graph.n_counties), (graph.muni_codes, graph.n_munis)


def split_report(graph: PrecinctGraph, plan: Plan, pieces=None) -> SplitReport:
    """Every split count of one plan, read off ``pieces``: the number of
    districts each county and each municipality touches, as a pair of arrays
    in :func:`unit_codes` order (a ``PlanTally`` keeps them). Counted from the
    plan when not given.

    ``per_district_county_penalty`` sums, over districts, the split counties
    each touches; it is always >= 2 * ``county_splits``, with equality iff
    every split county touches exactly two districts.
    """
    if pieces is None:  # each unit's node count per district, then the districts it touches
        pieces = [
            (np.bincount(codes * plan.k + plan.assignment, minlength=n_units * plan.k)
             .reshape(n_units, plan.k) > 0).sum(axis=1)
            for codes, n_units in unit_codes(graph)
        ]
    county, muni = pieces
    split = county >= 2
    return SplitReport(
        county_splits=int(np.count_nonzero(split)),
        muni_splits=int(np.count_nonzero(muni >= 2)),
        per_district_county_penalty=int(county[split].sum()),
        pieces_count=int(county.sum()),
    )


GATE_MODES = ("permissive", "reject", "gibbs")


@dataclass(frozen=True)
class ConstraintGate:
    """Acceptance rule applied to each proposal; see module docstring."""

    mode: str = "permissive"  # one of GATE_MODES
    county_cap: int = 0
    muni_cap: int = 0
    weights: tuple = ()  # ((SplitReport field, weight), ...)

    def __post_init__(self):
        if self.mode not in GATE_MODES:
            raise ValueError(f"unknown gate mode {self.mode!r}; use {GATE_MODES}")
        if self.county_cap < 0 or self.muni_cap < 0:
            raise ValueError("caps must be >= 0")
        for term, weight in self.weights:
            if term not in GIBBS_TERMS:
                raise ValueError(f"unknown penalty term {term!r}; use {GIBBS_TERMS}")
            if weight < 0:
                raise ValueError(f"weight for {term!r} must be >= 0")

    @classmethod
    def permissive(cls) -> "ConstraintGate":
        return cls(mode="permissive")

    @classmethod
    def reject(cls, county_cap: int, muni_cap: int) -> "ConstraintGate":
        return cls(mode="reject", county_cap=int(county_cap), muni_cap=int(muni_cap))

    @classmethod
    def gibbs(cls, weights) -> "ConstraintGate":
        """``weights`` maps SplitReport field names to nonnegative reals."""
        items = tuple(sorted((str(k), float(v)) for k, v in dict(weights).items()))
        return cls(mode="gibbs", weights=items)


def gate_accept(
    gate: ConstraintGate,
    current: SplitReport,
    proposal: SplitReport,
    rng: np.random.Generator,
) -> bool:
    """Accept/reject decision; deterministic given the rng state.

    Gibbs mode consumes a random draw only when the penalty delta is
    positive, so an all-zero-weight gibbs gate makes the same seeded
    decisions as a permissive gate.
    """
    if gate.mode == "permissive":
        return True
    if gate.mode == "reject":
        return (
            proposal.county_splits <= gate.county_cap
            and proposal.muni_splits <= gate.muni_cap
        )
    delta = 0.0
    for term, weight in gate.weights:
        delta += weight * (getattr(proposal, term) - getattr(current, term))
    if delta <= 0.0:
        return True
    return float(rng.random()) < math.exp(-delta)
