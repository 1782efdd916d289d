import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapchain import errors
from mapchain.graph import Contest, ElectionSet, Plan, build_graph
from mapchain.metrics import (
    MetricsConfig,
    PlanTally,
    _ExactSum,
    count_ties,
    district_shares,
    efficiency_gap,
    efficiency_gap_from_votes,
    mean_median,
    polsby_popper,
    score_plan,
    seats_fractional,
    seats_won,
    vote_index,
    normal_cdf,
)
from mapchain.synth import grid_graph

import score_reference
from conftest import (
    edges_of, make_path_graph, make_two_node_graph, nodes_of, pathology_graph,
)


def two_district_graph(dem0, rep0, dem1, rep1, name="E"):
    """Path of 2 nodes, districts = nodes."""
    contests = [
        Contest(name, np.array([dem0, dem1], dtype=np.int64), np.array([rep0, rep1], dtype=np.int64))
    ]
    return make_path_graph(2, contests=contests), Plan([0, 1], 2)


def test_district_shares_basic():
    g, plan = two_district_graph(60, 40, 30, 70)
    shares = district_shares(g, plan, "E")
    assert shares.tolist() == [0.6, 0.3]


def test_zero_votes_district():
    g, plan = two_district_graph(60, 40, 0, 0)
    with pytest.raises(errors.ZeroVotesDistrict) as err:
        district_shares(g, plan, "E")
    assert err.value.district == 1


def test_shares_match_hand_summation(grid4, band4):
    pres = grid4.elections.get("PRES")
    for d in range(4):
        members = band4.district_nodes(d)
        expected = pres.dem[members].sum() / (
            pres.dem[members].sum() + pres.rep[members].sum()
        )
        assert district_shares(grid4, band4, "PRES")[d] == pytest.approx(expected)


def test_seats_won_basic_and_ties():
    assert seats_won([0.6, 0.4, 0.7]) == 2
    assert seats_won([0.5, 0.5]) == 1.0  # k/2 at all-ties
    assert seats_won([0.5, 0.5, 0.5]) == 1.5
    assert count_ties([0.5, 0.4, 0.5]) == 2


def test_paper_single_seat_average():
    # five contests for one seat: four split 51/49 D, one 20/80
    g = pathology_graph()
    plan = Plan([0, 0], 1)
    cfg = MetricsConfig(("E0", "E1", "E2", "E3", "E4"))
    report = score_plan(g, plan, cfg)
    assert report.seats_avg == 0.8
    assert report.seats_index == 0


def test_seats_fractional_examples():
    assert seats_fractional([0.5], 0.05) == 0.5
    assert seats_fractional([1.0], 0.05) == pytest.approx(1.0, abs=1e-12)
    assert seats_fractional([0.55], 0.05) == pytest.approx(normal_cdf(1.0))
    assert normal_cdf(1.0) == pytest.approx(0.8413, abs=1e-3)


def test_seats_fractional_approaches_seats_won():
    # no share is exactly 0.5, so each district's smoothed contribution
    # converges monotonically to its indicator as sigma shrinks
    shares = [0.61, 0.43, 0.502, 0.489]
    for share in shares:
        target = seats_won([share])
        gaps = [
            abs(seats_fractional([share], sigma) - target)
            for sigma in (0.05, 0.01, 0.002, 0.0002)
        ]
        assert gaps == sorted(gaps, reverse=True)
    assert seats_fractional(shares, 0.0002) == pytest.approx(
        seats_won(shares), abs=1e-9
    )


def test_efficiency_gap_symmetry_zero():
    g, plan = two_district_graph(75, 25, 25, 75)
    assert efficiency_gap(g, plan, "E") == 0.0


def test_efficiency_gap_single_district_sign():
    # D wins 60-40: D wastes 10, R wastes 40, EG = (10-40)/100 = -0.30
    g, plan = two_district_graph(60, 40, 60, 40)
    single = make_path_graph(
        1, contests=[Contest("E", np.array([60]), np.array([40]))]
    )
    assert efficiency_gap(single, Plan([0], 1), "E") == pytest.approx(-0.30, abs=1e-12)


def test_efficiency_gap_tie_wastes_zero():
    votes_dem = np.array([50.0])
    votes_rep = np.array([50.0])
    assert efficiency_gap_from_votes(votes_dem, votes_rep) == 0.0


def test_mean_median_examples():
    assert mean_median([0.6, 0.5, 0.4]) == pytest.approx(0.0)
    assert mean_median([0.9, 0.45, 0.45]) == pytest.approx(0.15)
    assert mean_median([0.37]) == 0.0  # k=1: mean equals median


def test_polsby_popper_shapes():
    # single unit square
    g = make_path_graph(1)
    assert polsby_popper(g, Plan([0], 1)) == pytest.approx(math.pi / 4)
    # 1x4 strip: perimeter 10, area 4
    strip = make_path_graph(4)
    assert polsby_popper(strip, Plan([0] * 4, 1)) == pytest.approx(16 * math.pi / 100)
    # 2x2 block: same score as a unit square (scale invariance)
    block = grid_graph(2, 2)
    assert polsby_popper(block, Plan([0] * 4, 1)) == pytest.approx(math.pi / 4)


def test_vote_index_worked_example():
    # precinct with 10, 15, 11 Democratic votes across three contests -> 36
    contests = [
        Contest("A", np.array([10, 0]), np.array([3, 0])),
        Contest("B", np.array([15, 0]), np.array([4, 0])),
        Contest("C", np.array([11, 0]), np.array([5, 0])),
    ]
    g = make_two_node_graph(contests)
    idx = vote_index(g, ("A", "B", "C"))
    assert idx.dem[0] == 36
    assert idx.rep[0] == 12


def test_vote_index_single_contest_identity(grid4):
    idx = vote_index(grid4, ("PRES",))
    pres = grid4.elections.get("PRES")
    assert np.array_equal(idx.dem, pres.dem)
    assert np.array_equal(idx.rep, pres.rep)


def test_vote_index_pathology_and_turnout_asymmetry():
    # the index hands the seat to the other party, and only the index moves
    # when the fifth contest's turnout is scaled
    cfg = MetricsConfig(("E0", "E1", "E2", "E3", "E4"))
    plan = Plan([0, 0], 1)
    base = score_plan(pathology_graph(), plan, cfg)
    assert base.seats_avg == 0.8
    assert base.seats_index == 0
    scaled = score_plan(pathology_graph(fifth_scale=10), plan, cfg)
    assert scaled.seats_avg == 0.8  # per-election averaging unchanged
    assert scaled.seats_index == 0  # the index still favors the packed side
    # per-election shares of contests 0..3 unchanged; index share dropped
    base_idx = vote_index(pathology_graph(), ("E0", "E1", "E2", "E3", "E4"))
    scaled_idx = vote_index(pathology_graph(10), ("E0", "E1", "E2", "E3", "E4"))
    base_share = base_idx.dem.sum() / (base_idx.dem.sum() + base_idx.rep.sum())
    scaled_share = scaled_idx.dem.sum() / (scaled_idx.dem.sum() + scaled_idx.rep.sum())
    assert scaled_share < base_share < 0.5


def test_eg_nonlinearity_fixture():
    # two contests on two districts where EG(index) is far from mean EG
    contests = [
        Contest("A", np.array([90, 30]), np.array([10, 70])),
        Contest("B", np.array([100, 600]), np.array([900, 400])),
    ]
    g = make_path_graph(2, contests=contests)
    plan = Plan([0, 1], 2)
    eg_a = efficiency_gap(g, plan, "A")
    eg_b = efficiency_gap(g, plan, "B")
    eg_index = efficiency_gap(g, plan, vote_index(g, ("A", "B")))
    assert eg_a == pytest.approx(0.2)
    assert eg_b == pytest.approx(-0.3)
    assert abs(eg_index - (eg_a + eg_b) / 2) > 0.05


def test_score_plan_label_invariance(grid4, band4, mcfg2):
    perm = np.array([3, 1, 0, 2])
    permuted = Plan(perm[band4.assignment], 4)
    assert score_plan(grid4, band4, mcfg2) == score_plan(grid4, permuted, mcfg2)


def swapped_graph(graph):
    swapped = ElectionSet(
        [Contest(c.name, c.rep.copy(), c.dem.copy()) for c in graph.elections]
    )
    return build_graph(nodes_of(graph), edges_of(graph), swapped)


def test_party_swap_symmetry(grid4, band4, mcfg2):
    report = score_plan(grid4, band4, mcfg2)
    mirrored = score_plan(swapped_graph(grid4), band4, mcfg2)
    assert mirrored.efficiency_gap == -report.efficiency_gap
    assert mirrored.mean_median == pytest.approx(-report.mean_median, abs=1e-15)
    assert mirrored.efficiency_gap_index == -report.efficiency_gap_index
    assert mirrored.seats_avg == pytest.approx(4 - report.seats_avg)
    assert mirrored.seats_fractional == pytest.approx(
        4 - report.seats_fractional, abs=1e-9
    )


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_party_swap_negates_eg_exactly(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    dem = rng.integers(0, 1000, size=k).astype(np.float64)
    rep = rng.integers(0, 1000, size=k).astype(np.float64)
    total = dem + rep
    if (total == 0).any():
        dem = dem + 1
    assert efficiency_gap_from_votes(rep, dem) == -efficiency_gap_from_votes(dem, rep)


def test_turnout_scaling_invariance_per_contest(grid4, band4):
    # scaling one contest's turnout uniformly changes nothing per-contest
    scaled = ElectionSet(
        [
            Contest("PRES", grid4.elections.get("PRES").dem * 7,
                    grid4.elections.get("PRES").rep * 7),
            grid4.elections.get("SEN"),
        ]
    )
    g2 = build_graph(nodes_of(grid4), edges_of(grid4), scaled)
    for contest in ("PRES", "SEN"):
        np.testing.assert_allclose(
            district_shares(g2, band4, contest),
            district_shares(grid4, band4, contest),
        )
        assert efficiency_gap(g2, band4, contest) == pytest.approx(
            efficiency_gap(grid4, band4, contest)
        )
    # ...but it does move the vote-index share
    before = district_shares(grid4, band4, vote_index(grid4, ("PRES", "SEN")))
    after = district_shares(g2, band4, vote_index(g2, ("PRES", "SEN")))
    assert not np.allclose(before, after)


def test_metrics_config_validation():
    with pytest.raises(errors.ConfigError):
        MetricsConfig(())
    with pytest.raises(errors.ConfigError):
        MetricsConfig(("PRES",), fractional_sigma=0.5)
    with pytest.raises(errors.ConfigError):
        MetricsConfig(("PRES",), fractional_sigma=0.0)


def test_unknown_contest(grid4, band4):
    with pytest.raises(errors.UnknownContest):
        district_shares(grid4, band4, "GOVERNOR")


def _outcome(score):
    """The report ``score()`` returns, floats as hex so that equal is bit for
    bit, or the district and contest of the ``ZeroVotesDistrict`` it raises."""
    try:
        report = score()
    except errors.ZeroVotesDistrict as e:
        return "ZeroVotesDistrict", e.district, e.contest
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report))


# contest subsets and sigmas that a tally is read under in turn
_CONFIGS = (
    MetricsConfig(("A", "B")),
    MetricsConfig(("A", "B"), 0.3),
    MetricsConfig(("C",), 0.1),
    MetricsConfig(("C", "A", "B")),
)


@st.composite
def tally_moves(draw):
    """A path graph whose votes (0, 1 or 2 a side per node) give districts of
    share exactly 0.5, districts of equal share and voteless districts; a
    plan with odd or even k; and moves, each of which reassigns the nodes of
    a few districts among those districts, with a config to read after it."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n))
    votes = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    contests = [Contest(name, np.array(draw(votes)), np.array(draw(votes))) for name in "ABC"]
    graph = make_path_graph(n, contests=contests)

    def covering(m, labels):
        """``m`` draws from ``labels``, each label at least once."""
        picks = list(labels) + draw(st.lists(st.sampled_from(labels), min_size=m - len(labels),
                                             max_size=m - len(labels)))
        return np.array(draw(st.permutations(picks)))

    assignment = covering(n, range(k))
    plans = [(None, Plan(assignment, k), draw(st.sampled_from(_CONFIGS)))]
    for _ in range(draw(st.integers(1, 6))):
        districts = np.array(sorted(draw(st.sets(st.integers(0, k - 1), min_size=1,
                                                 max_size=min(k, 3)))))
        nodes = np.flatnonzero(np.isin(assignment, districts))
        assignment = assignment.copy()
        assignment[nodes] = covering(nodes.size, districts.tolist())
        plans.append((districts, Plan(assignment, k), draw(st.sampled_from(_CONFIGS))))
    return graph, plans


@given(tally_moves())
@settings(max_examples=150, deadline=None)
def test_kept_sums_match_the_reference_under_moves(case):
    # each read of a moved tally, under any config, scores as the whole-plan
    # reference and a fresh tally do, or names the same voteless district
    graph, plans = case
    tally = None
    for districts, plan, config in plans:
        if tally is None:
            tally = PlanTally(graph, plan)
        else:
            nodes = np.flatnonzero(np.isin(plan.assignment, districts))
            tally.apply(tally.propose(plan, districts, nodes))
        kept = _outcome(lambda: score_plan(graph, plan, config, tally))
        assert kept == _outcome(lambda: score_reference.score_plan(graph, plan, config))
        assert kept == _outcome(lambda: score_plan(graph, plan, config))


# floats in [0, 1]: subnormals, both zeros, one half and ordinary values
_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324, 2.2250738585072014e-308]),
    st.floats(0.0, 1e-300),
    st.floats(0.0, 1.0),
)


@given(st.integers(1, 6).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.tuples(st.integers(0, k - 1), _TERMS)))
))
@settings(max_examples=300, deadline=None)
def test_exact_sum_is_the_fsum_of_the_current_terms(case):
    # after any sequence of sets, overwrites included, the kept sum reads as
    # math.fsum of each district's latest float, bit for bit
    k, sets = case
    kept, terms = _ExactSum(k), [0.0] * k
    assert kept.value() == 0.0
    for d, x in sets:
        kept.set(d, x)
        terms[d] = x
        assert kept.value().hex() == math.fsum(terms).hex()


def test_score_plan_rejects_a_tally_of_another_plan(grid4, band4, mcfg2):
    relabelled = Plan(band4.k - 1 - band4.assignment, band4.k)
    with pytest.raises(ValueError, match="another plan"):
        score_plan(grid4, relabelled, mcfg2, PlanTally(grid4, band4))
