"""ReCom's exact kernel and the tree-plan law on the 4x4 catalog.

``laws.recom_kernel`` is the exact transition matrix of ``recom_step``
between the 117 plans of the 4x4 grid at tolerance 0, and
``laws.tree_plan_distribution`` the exact law of ``random_tree_plan``.
Seeded runs are held to them by chi-square tests that fail at p < ``ALPHA``:
transitions by a pooled test over the rows of the kernel, with each row's
cells expected fewer than 5 times merged into one, and tree plans by the
test of ``test_tree_laws``. Each run is long enough for power ``POWER`` at
that level against a law whose chi-square divergence per draw from the
exact one, sum((p - e)**2 / e), is at least ``DIVERGENCE``
(``_assert_power`` checks it). The uniform chain's run and the tree plans
are criterion 01's and criterion 02's own.

In ``edges`` mode the kernel's stationary law is cut_edges(P)·∏τ(D_i),
normalised, and the kernel satisfies detailed balance with it; a chain that
picks its pair uniformly in that mode, or a kernel that does, fails.
"""
from collections import Counter

import numpy as np
import pytest
from scipy.special import chdtri, chndtr, gammaincc

from mapchain import laws, oracle
from mapchain.chain import ChainState, recom_step
from mapchain.constraints import ConstraintGate, split_report
from mapchain.graph import canonical_form
from mapchain.synth import band_plan, grid_graph

from test_tree_laws import _chi_square_p

ALPHA = 1e-3
POWER = 0.99
DIVERGENCE = 0.03

GIBBS = ConstraintGate.gibbs({"per_district_county_penalty": 0.7})


def _assert_power(dof: int, draws: int) -> None:
    """The chi-square test with ``dof`` degrees of freedom over ``draws``
    draws rejects, at level ``ALPHA``, a law ``DIVERGENCE`` away with
    probability ``POWER``."""
    assert 1 - chndtr(chdtri(dof, ALPHA), dof, draws * DIVERGENCE) >= POWER


def _transitions(forms, index) -> dict:
    """``{i: Counter of j}``: how often the walk ``forms`` went from plan i to j."""
    counts = {}
    for a, b in zip(forms, forms[1:]):
        counts.setdefault(index[a], Counter())[index[b]] += 1
    return counts


def _pooled_test(counts: dict, kernel: np.ndarray):
    """``(p, dof, draws)`` of the pooled chi-square of the transition counts
    against the kernel: per row, the cells expected at least 5 times and one
    cell of the rest, less one degree of freedom for the row's total."""
    statistic, dof, draws = 0.0, 0, 0
    for i, row in counts.items():
        n = sum(row.values())
        draws += n
        assert all(kernel[i, j] > 0 for j in row), "a move the kernel does not allow"
        cells, pooled_o, pooled_e = 0, 0, 0.0
        for j in np.flatnonzero(kernel[i]):
            e = n * kernel[i, j]
            if e < 5:
                pooled_o += row[j]
                pooled_e += e
            else:
                statistic += (row[j] - e) ** 2 / e
                cells += 1
        if pooled_e > 0:
            statistic += (pooled_o - pooled_e) ** 2 / pooled_e
            cells += 1
        dof += cells - 1
    return float(gammaincc(dof / 2, statistic / 2)), dof, draws


def _walk(grid4, steps, seed, gate=ConstraintGate.permissive(), pair_selection="uniform"):
    state = ChainState(plan=band_plan(4, 4, 4), rng=np.random.default_rng(seed))
    forms = [canonical_form(state.plan)]
    for _ in range(steps):
        recom_step(state, grid4, 0.0, gate, pair_selection=pair_selection)
        forms.append(canonical_form(state.plan))
    return forms


@pytest.fixture(scope="module")
def index4(catalog4):
    return {canonical_form(plan): i for i, plan in enumerate(catalog4.plans)}


@pytest.fixture(scope="module")
def edges_kernel(grid4, catalog4):
    return laws.recom_kernel(grid4, catalog4, "edges")


def test_split_law_from_tree_counts_matches_the_tree_enumeration():
    grid = grid_graph(4, 4)
    cases = [(range(6), (3, 3), 50), ([0, 1, 2, 4, 5, 6], (3, 3), 3), (range(8), (4, 4), 2),
             (range(10), (5, 5), 7), ([0, 1, 2, 3, 7, 6], (3, 3), 4), ([0, 1, 5], (1.5, 1.5), 3)]
    for subset, targets, retries in cases:
        law = laws.split_law(grid, subset, targets, 0.0, retries)
        assert law == oracle.bipartition_law(grid, subset, targets, 0.0, retries)
        assert sum(law.values()) == 1


def test_kernel_rows_are_laws(grid4, catalog4, edges_kernel):
    for kernel in (laws.recom_kernel(grid4, catalog4), edges_kernel,
                   laws.recom_kernel(grid4, catalog4, gate=GIBBS)):
        assert kernel.shape == (len(catalog4), len(catalog4))
        assert (kernel >= 0).all()
        assert np.allclose(kernel.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_reject_gate_never_enters_a_plan_over_its_caps(grid4, catalog4):
    gate = ConstraintGate.reject(county_cap=1, muni_cap=4)
    kernel = laws.recom_kernel(grid4, catalog4, gate=gate)
    over = [split_report(grid4, plan).county_splits > 1 for plan in catalog4.plans]
    assert any(over) and not all(over)
    for i in range(len(catalog4)):
        for j in np.flatnonzero(kernel[i]):
            assert j == i or not over[j]


def test_uniform_chain_moves_by_the_exact_kernel(grid4, catalog4, index4, chain4_run):
    kernel = laws.recom_kernel(grid4, catalog4)
    p, dof, draws = _pooled_test(_transitions(chain4_run[0], index4), kernel)
    _assert_power(dof, draws)
    assert p >= ALPHA, p


def test_edges_chain_moves_by_the_exact_kernel(grid4, index4, edges_kernel):
    forms = _walk(grid4, 25_000, 71, pair_selection="edges")
    p, dof, draws = _pooled_test(_transitions(forms, index4), edges_kernel)
    _assert_power(dof, draws)
    assert p >= ALPHA, p


def test_gibbs_gated_chain_moves_by_the_gated_kernel(grid4, catalog4, index4):
    kernel = laws.recom_kernel(grid4, catalog4, gate=GIBBS)
    # the gate refuses a fair share of the moves the permissive kernel makes
    permissive = laws.recom_kernel(grid4, catalog4)
    assert np.trace(kernel) > np.trace(permissive) + 0.05 * len(catalog4)
    forms = _walk(grid4, 25_000, 72, gate=GIBBS)
    p, dof, draws = _pooled_test(_transitions(forms, index4), kernel)
    _assert_power(dof, draws)
    assert p >= ALPHA, p


def _stationary(kernel: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(kernel.T)
    pi = np.real(vectors[:, np.argmin(abs(values - 1))])
    return pi / pi.sum()


def test_edges_kernel_targets_cut_edges_times_spanning_forests(grid4, catalog4, edges_kernel):
    target = []
    for plan in catalog4.plans:
        labels = plan.assignment
        forests = np.prod([oracle.spanning_tree_count(grid4, np.flatnonzero(labels == d))
                           for d in range(plan.k)])
        target.append(int((labels[grid4.edge_a] != labels[grid4.edge_b]).sum()) * forests)
    target = np.array(target, dtype=float) / sum(target)
    pi = _stationary(edges_kernel)
    assert abs(pi - target).max() < 1e-12
    flux = pi[:, None] * edges_kernel
    assert abs(flux - flux.T).max() < 1e-14
    # uniform pairs break both: a test of these properties can tell the modes apart
    uniform = laws.recom_kernel(grid4, catalog4)
    pi_uniform = _stationary(uniform)
    assert abs(pi_uniform - target).sum() / 2 > 0.1
    assert abs(pi_uniform[:, None] * uniform - (pi_uniform[:, None] * uniform).T).max() > 1e-6


def test_tree_plans_follow_the_exact_stagewise_law(grid4, tree_plans4):
    law = laws.tree_plan_distribution(grid4, 4, 0.0)
    assert sum(law.values()) == 1 and law[None] < 1e-9  # a stage of 50 draws all but never fails
    expected = {form: p / (1 - law[None]) for form, p in law.items() if form is not None}
    plans, _ = tree_plans4
    counts = Counter(canonical_form(plan) for plan in plans)
    _assert_power(sum(len(plans) * p >= 5 for p in expected.values()), len(plans))
    assert _chi_square_p(counts, expected, len(plans)) >= ALPHA
