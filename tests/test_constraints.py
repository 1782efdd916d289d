import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapchain.constraints import (
    ConstraintGate,
    SplitReport,
    gate_accept,
    split_report,
)
from mapchain.graph import (
    AdjacencyEdge,
    Contest,
    ElectionSet,
    Plan,
    PrecinctNode,
    build_graph,
)
from mapchain.synth import grid_graph


def rows_plan_2x2():
    return Plan([0, 0, 1, 1], 2)


def test_counties_as_columns_rows_as_districts():
    # 2x2 grid, counties = columns, districts = rows: both counties split
    g = grid_graph(2, 2, county_mode="columns")
    report = split_report(g, rows_plan_2x2())
    assert (report.county_splits, report.pieces_count) == (2, 4)
    assert report.pieces_count - g.n_counties == 2
    assert report.per_district_county_penalty == 4


def test_districts_identical_to_counties():
    g = grid_graph(2, 2, county_mode="rows")
    report = split_report(g, rows_plan_2x2())
    assert report.county_splits == 0
    assert report.pieces_count == g.n_counties
    assert report.per_district_county_penalty == 0


def three_district_county_graph():
    """Path of 6: county C0 spans nodes 0..2 (3 districts), C1 is whole."""
    nodes = [
        PrecinctNode(f"p{i}", 1, "C0" if i < 3 else "C1", "M0", 1.0, 4.0)
        for i in range(6)
    ]
    edges = [AdjacencyEdge(i, i + 1, 1.0) for i in range(5)]
    es = ElectionSet([Contest("E", np.full(6, 5), np.full(6, 5))])
    return build_graph(nodes, edges, es)


def test_one_county_spanning_three_districts():
    g = three_district_county_graph()
    plan = Plan([0, 1, 2, 3, 3, 3], 4)
    report = split_report(g, plan)
    assert report.county_splits == 1
    assert report.pieces_count - g.n_counties == 2  # the two counts diverge
    assert report.per_district_county_penalty == 3


def test_split_report_fields(grid4, band4):
    report = split_report(grid4, band4)
    # counties are columns: every column meets all 4 row districts
    assert report.county_splits == 4
    assert report.pieces_count == 16
    assert report.per_district_county_penalty == 16
    # munis are quadrants: each meets 2 row districts
    assert report.muni_splits == 4


def test_label_invariance(grid4, band4):
    perm = np.array([2, 0, 3, 1])
    permuted = Plan(perm[band4.assignment], 4)
    assert split_report(grid4, band4) == split_report(grid4, permuted)


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_penalty_at_least_twice_splits(seed):
    rng = np.random.default_rng(seed)
    g = grid_graph(3, 4, county_mode="quadrants")
    while True:
        labels = rng.integers(0, 3, size=12)
        if len(set(labels.tolist())) == 3:
            break
    plan = Plan(labels, 3)
    report = split_report(g, plan)
    splits = report.county_splits
    penalty = report.per_district_county_penalty
    assert penalty >= 2 * splits
    if penalty == 2 * splits:
        # every split unit then touches exactly 2 districts, so the
        # pieces-excess convention coincides with the splits count
        assert report.pieces_count - g.n_counties == splits


def test_splits_zero_iff_units_nest_inside_districts():
    # splits == 0 exactly when every unit lies within a single district,
    # i.e. the unit partition refines the plan
    g = grid_graph(2, 2, county_mode="rows")
    assert split_report(g, rows_plan_2x2()).county_splits == 0  # identical
    whole = Plan([0, 0, 0, 0], 1)
    assert split_report(g, whole).county_splits == 0  # counties nest
    # one district per node: each county now spans two districts
    atomized = Plan([0, 1, 2, 3], 4)
    assert split_report(g, atomized).county_splits == 2
    # a district crossing a county boundary splits both counties
    crossing = Plan([0, 1, 0, 1], 2)
    assert split_report(g, crossing).county_splits == 2


def test_reject_gate_caps():
    gate = ConstraintGate.reject(county_cap=22, muni_cap=50)
    rng = np.random.default_rng(0)
    ok = SplitReport(22, 50, 0, 0)
    over = SplitReport(23, 50, 0, 0)
    cur = SplitReport(0, 0, 0, 0)
    assert gate_accept(gate, cur, ok, rng) is True
    assert gate_accept(gate, cur, over, rng) is False


def test_gibbs_equal_penalties_always_accepts():
    gate = ConstraintGate.gibbs({"county_splits": 2.0})
    rng = np.random.default_rng(0)
    report = SplitReport(5, 3, 9, 12)
    for _ in range(100):
        assert gate_accept(gate, report, report, rng)


def test_gibbs_calibration_quick():
    # weight 0.3, penalty delta +1 -> acceptance rate exp(-0.3)
    gate = ConstraintGate.gibbs({"per_district_county_penalty": 0.3})
    rng = np.random.default_rng(42)
    cur = SplitReport(0, 0, 4, 0)
    prop = SplitReport(0, 0, 5, 0)
    n = 20_000
    hits = sum(gate_accept(gate, cur, prop, rng) for _ in range(n))
    assert hits / n == pytest.approx(math.exp(-0.3), abs=0.01)


def test_gibbs_zero_weights_matches_permissive_decisions():
    gibbs = ConstraintGate.gibbs({"county_splits": 0.0, "muni_splits": 0.0})
    permissive = ConstraintGate.permissive()
    cur = SplitReport(1, 2, 3, 4)
    prop = SplitReport(9, 9, 18, 20)
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    decisions_a = [gate_accept(gibbs, cur, prop, rng_a) for _ in range(50)]
    decisions_b = [gate_accept(permissive, cur, prop, rng_b) for _ in range(50)]
    assert decisions_a == decisions_b
    # neither consumed randomness: streams still aligned
    assert rng_a.random() == rng_b.random()


def test_gate_validation():
    with pytest.raises(ValueError):
        ConstraintGate(mode="bogus")
    with pytest.raises(ValueError):
        ConstraintGate.reject(-1, 0)
    with pytest.raises(ValueError):
        ConstraintGate.gibbs({"county_splits": -0.5})
    with pytest.raises(ValueError):
        ConstraintGate.gibbs({"nonsense": 0.5})

