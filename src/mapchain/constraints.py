"""Administrative boundary split counting and proposal acceptance gates.

A county or municipality is "split" when it intersects two or more
districts. Two counting conventions circulate in redistricting tooling, so
both are exposed: ``splits`` (units touching >= 2 districts) and the
pieces-minus-units excess (total district/unit incidence pieces with the
unit count subtracted). They agree only while no unit touches 3+ districts.

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

UNITS = ("county", "municipality")

GIBBS_TERMS = ("county_splits", "muni_splits", "per_district_county_penalty")


@dataclass(frozen=True)
class SplitReport:
    """Split counts for one plan."""

    county_splits: int
    muni_splits: int
    per_district_county_penalty: int
    pieces_count: int  # county/district incidence pieces (redistmetrics-style)


def _unit_codes(graph: PrecinctGraph, unit: str):
    if unit == "county":
        return graph.county_codes, graph.n_counties
    if unit == "municipality":
        return graph.muni_codes, graph.n_munis
    raise ValueError(f"unknown unit {unit!r}; use one of {UNITS}")


def unit_district_counts(graph: PrecinctGraph, unit: str, nodes, labels, size: int):
    """Dense int32 ``(units, size)`` matrix counting the ``nodes`` of each unit
    per label, where ``labels`` gives each of ``nodes`` a label in ``0..size-1``.

    Its cost is O(len(nodes) + units * size), so a chain step can count the
    merged region's two districts alone.
    """
    codes, n_units = _unit_codes(graph, unit)
    counts = np.bincount(codes[nodes] * size + labels, minlength=n_units * size)
    return counts.astype(np.int32).reshape(n_units, size)


def _pieces_per_unit(graph: PrecinctGraph, plan: Plan, unit: str) -> np.ndarray:
    """How many districts each unit of the given type touches."""
    counts = unit_district_counts(graph, unit, slice(None), plan.assignment, plan.k)
    return (counts > 0).sum(axis=1)


def count_splits(graph: PrecinctGraph, plan: Plan, unit: str):
    """``(splits, pieces)`` for the given unit type.

    ``splits`` is the number of units intersecting >= 2 districts; ``pieces``
    is the total number of distinct (unit, district) incidences. The
    pieces-excess convention is ``pieces - unit_count``
    (see :func:`pieces_excess`).
    """
    counts = _pieces_per_unit(graph, plan, unit)
    splits = int((counts >= 2).sum())
    pieces = int(counts.sum())
    return splits, pieces


def pieces_excess(graph: PrecinctGraph, plan: Plan, unit: str) -> int:
    """Pieces count minus the number of units (the redistmetrics-style count)."""
    splits, pieces = count_splits(graph, plan, unit)
    _, n_units = _unit_codes(graph, unit)
    return pieces - n_units


def per_district_split_penalty(graph: PrecinctGraph, plan: Plan, unit: str = "county") -> int:
    """Sum over districts of the number of split units the district touches.

    Equals the sum over split units of the number of districts touching
    them, hence always >= 2 * splits, with equality iff every split unit
    touches exactly two districts.
    """
    counts = _pieces_per_unit(graph, plan, unit)
    return int(counts[counts >= 2].sum())


def split_report(graph: PrecinctGraph, plan: Plan, pieces=None) -> SplitReport:
    """Every split count of one plan, read off ``pieces``: the number of
    districts each county and each municipality touches, as a pair of arrays
    in ``UNITS`` order (a ``PlanTally`` keeps them). Counted from the plan
    when not given.
    """
    if pieces is None:
        pieces = [_pieces_per_unit(graph, plan, unit) for unit in UNITS]
    county, muni = pieces
    split = county >= 2
    return SplitReport(
        county_splits=int(split.sum()),
        muni_splits=int((muni >= 2).sum()),
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
