import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapchain import errors
from mapchain.graph import Contest, ElectionSet, Plan, build_graph, canonical_form
from mapchain.metrics import MetricsConfig, score_plan
from mapchain.oracle import enumerate_partitions, naive_score
from mapchain.synth import grid_graph

from conftest import edges_of, make_path_graph, make_star_graph, nodes_of


def test_2x2_catalog_is_rows_and_columns(grid22):
    catalog = enumerate_partitions(grid22, 2, 0.0)
    assert len(catalog) == 2
    forms = {canonical_form(p) for p in catalog.plans}
    assert forms == {(0, 0, 1, 1), (0, 1, 0, 1)}


def test_path4_catalog_single_middle_cut():
    g = make_path_graph(4)
    catalog = enumerate_partitions(g, 2, 0.0)
    assert len(catalog) == 1
    assert canonical_form(catalog.plans[0]) == (0, 0, 1, 1)


def test_star_has_no_balanced_2partition():
    g = make_star_graph(4)
    assert len(enumerate_partitions(g, 2, 0.5)) == 0


def test_4x4_catalog_size_frozen(catalog4):
    # established by this enumerator before the main build and frozen here
    assert len(catalog4) == 117


def test_catalog_members_valid(grid4, catalog4):
    from mapchain.graph import district_populations, is_contiguous

    for plan in catalog4.plans:
        assert all(is_contiguous(grid4, plan))
        assert district_populations(grid4, plan).tolist() == [4, 4, 4, 4]


def test_catalog_minimality_under_relabeling(catalog4):
    rng = np.random.default_rng(0)
    for plan in catalog4.plans[::10]:
        perm = rng.permutation(plan.k)
        relabeled = Plan(perm[plan.assignment], plan.k)
        assert relabeled in catalog4


def test_too_large_guard():
    g = grid_graph(5, 5)
    with pytest.raises(errors.TooLarge):
        enumerate_partitions(g, 5, 0.0)


def test_k_equals_one_catalog(grid22):
    catalog = enumerate_partitions(grid22, 1, 0.0)
    assert len(catalog) == 1


def test_naive_matches_fast_on_catalog(grid4, catalog4, mcfg2):
    for plan in catalog4.plans:
        fast = score_plan(grid4, plan, mcfg2)
        slow = naive_score(grid4, plan, mcfg2)
        for field in dataclasses.fields(fast):
            a = getattr(fast, field.name)
            b = getattr(slow, field.name)
            if isinstance(a, float):
                assert a == pytest.approx(b, abs=1e-12), field.name
            else:
                assert a == b, field.name


def test_naive_label_invariance(grid4, band4, mcfg2):
    perm = np.array([1, 3, 2, 0])
    permuted = Plan(perm[band4.assignment], 4)
    assert naive_score(grid4, band4, mcfg2) == naive_score(grid4, permuted, mcfg2)


def test_naive_party_swap_negates_eg(grid4, band4, mcfg2):
    swapped = ElectionSet(
        [Contest(c.name, c.rep.copy(), c.dem.copy()) for c in grid4.elections]
    )
    g2 = build_graph(nodes_of(grid4), edges_of(grid4), swapped)
    assert naive_score(g2, band4, mcfg2).efficiency_gap == -naive_score(
        grid4, band4, mcfg2
    ).efficiency_gap


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_naive_matches_fast_on_random_plans(seed):
    rng = np.random.default_rng(seed)
    g = grid_graph(3, 3, county_mode="rows", muni_mode="columns")
    while True:
        labels = rng.integers(0, 3, size=9)
        if len(set(labels.tolist())) == 3:
            break
    plan = Plan(labels, 3)
    cfg = MetricsConfig(("E0",))
    fast = score_plan(g, plan, cfg)
    slow = naive_score(g, plan, cfg)
    for field in dataclasses.fields(fast):
        a, b = getattr(fast, field.name), getattr(slow, field.name)
        if isinstance(a, float):
            assert a == pytest.approx(b, abs=1e-12), field.name
        else:
            assert a == b, field.name
