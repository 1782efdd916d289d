import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapchain import errors
from mapchain.chain import TRACE_DTYPE, ChainTrace, run_chain
from mapchain.constraints import ConstraintGate
from mapchain.diagnostics import (
    autocorrelation,
    burn_thin,
    constraint_sweep,
    correlation_length,
    estimate_burn_in,
    fit_line,
    summarize,
)


def test_rho_zero_is_one():
    acf = autocorrelation([3.0, 1.0, 4.0, 1.0, 5.0, 9.0], 3)
    assert acf.rho[0] == 1.0
    assert (np.abs(acf.rho) <= 1.0 + 1e-12).all()


@pytest.mark.parametrize("n", [10, 50, 128])
def test_alternating_series_closed_form(n):
    series = np.tile([1.0, -1.0], n // 2)
    acf = autocorrelation(series, 1)
    assert acf.rho[1] == pytest.approx(-(n - 1) / n, abs=1e-12)


def test_iid_noise_acf_small():
    rng = np.random.default_rng(2024)
    x = rng.uniform(size=10_000)
    acf = autocorrelation(x, 50)
    assert (np.abs(acf.rho[1:]) < 0.05).all()


def test_zero_variance_and_too_short():
    with pytest.raises(errors.ZeroVariance):
        autocorrelation([2.0] * 100, 5)
    with pytest.raises(errors.SeriesTooShort):
        autocorrelation([1.0, 2.0, 3.0], 2)


@given(
    st.lists(st.floats(-100, 100), min_size=12, max_size=40),
    st.floats(-50, 50),
    st.floats(0.1, 10),
)
@settings(max_examples=50, deadline=None)
def test_acf_affine_invariance(values, shift, scale):
    x = np.asarray(values)
    if np.ptp(x) < 1e-6:  # effectively constant; variance may underflow
        return
    base = autocorrelation(x, 5).rho
    shifted = autocorrelation(x + shift, 5).rho
    scaled = autocorrelation(x * scale, 5).rho
    np.testing.assert_allclose(shifted, base, atol=1e-6)
    np.testing.assert_allclose(scaled, base, atol=1e-9)


def test_correlation_length():
    acf = autocorrelation(np.tile([1.0, -1.0], 50), 3)
    # rho alternates strongly; never drops below threshold in magnitude but
    # negative values count as "below"
    assert correlation_length(acf, 0.05) == 1


def make_trace(n, grid4, band4, mcfg2, seed=0):
    return run_chain(
        grid4, band4, n, 0.01, ConstraintGate.permissive(), mcfg2,
        np.random.default_rng(seed),
    )


def test_burn_thin_identity(grid4, band4, mcfg2):
    trace = make_trace(12, grid4, band4, mcfg2)
    same = burn_thin(trace, 0, 1)
    assert same.rows.tobytes() == trace.rows.tobytes()


def test_burn_thin_documented_picks():
    rows = np.zeros(10, dtype=TRACE_DTYPE)
    rows["seats_avg"] = np.arange(10)  # each row holds its own index
    kept = burn_thin(ChainTrace(rows), 4, 2)
    assert kept.series("seats_avg").tolist() == [4, 6, 8]  # 1-indexed: 5, 7, 9


def test_burn_exhausts_trace(grid4, band4, mcfg2):
    trace = make_trace(5, grid4, band4, mcfg2)
    with pytest.raises(errors.EmptyResult):
        burn_thin(trace, 5, 1)


def test_summarize_examples():
    s = summarize([2.0, 2.0, 2.0])
    assert (s.mean, s.std) == (2.0, 0.0)
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == 2.0
    assert s.std == pytest.approx(1.0)
    assert (s.min, s.max) == (1.0, 3.0)


def test_summarize_matches_independent_recomputation(grid4, band4, mcfg2):
    trace = make_trace(40, grid4, band4, mcfg2, seed=5)
    values = trace.series("seats_avg")
    s = summarize(values)
    n = values.size
    mean = sum(float(v) for v in values) / n
    var = sum((float(v) - mean) ** 2 for v in values) / (n - 1)
    assert s.mean == pytest.approx(mean, abs=1e-12)
    assert s.std == pytest.approx(var**0.5, abs=1e-12)


def test_fit_line_exact_and_oracle():
    slope, intercept = fit_line([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    # normal-equations oracle on a noisy line
    x = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
    y = np.array([2.0, 2.5, 4.1, 8.4, 8.9])
    slope, intercept = fit_line(x, y)
    n = x.size
    sxx = (x * x).sum() - x.sum() ** 2 / n
    sxy = (x * y).sum() - x.sum() * y.sum() / n
    slope_ne = sxy / sxx
    intercept_ne = y.mean() - slope_ne * x.mean()
    assert slope == pytest.approx(slope_ne, rel=1e-9)
    assert intercept == pytest.approx(intercept_ne, rel=1e-9)
    # residual orthogonality to the regressor
    resid = y - (slope * x + intercept)
    assert abs(float(resid @ x)) <= 1e-9 * float(np.abs(y) @ np.abs(x))


def test_fit_line_undefined():
    with pytest.raises(errors.FitUndefined):
        fit_line([2.0, 2.0], [1.0, 5.0])


def test_identical_means_give_zero_slope():
    slope, intercept = fit_line([1.0, 2.0], [3.0, 3.0])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(3.0, abs=1e-12)


def test_constraint_sweep_deterministic(grid4, band4, mcfg2):
    # post-burn-in seats_avg values of two reject-gated chains, pooled per cap
    samples = [
        (cap, np.concatenate([
            burn_thin(
                run_chain(
                    grid4, band4, 40, 0.01, ConstraintGate.reject(cap, 10**9), mcfg2,
                    np.random.default_rng([3, i, r]),
                ),
                5, 1,
            ).series("seats_avg")
            for r in range(2)
        ]))
        for i, cap in enumerate([4, 5, 6])
    ]
    a = constraint_sweep(samples, baseline=1.9)
    b = constraint_sweep(samples, baseline=1.9)
    assert a == b
    assert a.baseline == 1.9
    assert len(a.points) == 3
    # each point summarizes its cap's pooled values
    for p, (cap, values) in zip(a.points, samples):
        assert (p.cap, p.n) == (cap, values.size)
        assert p.mean == pytest.approx(float(np.mean(values)), abs=1e-12)
        assert p.std == pytest.approx(float(np.std(values, ddof=1)), abs=1e-12)
    # OLS coefficients match the normal-equations oracle
    x = np.array([p.cap for p in a.points], dtype=np.float64)
    y = np.array([p.mean for p in a.points], dtype=np.float64)
    n = x.size
    sxx = (x * x).sum() - x.sum() ** 2 / n
    sxy = (x * y).sum() - x.sum() * y.sum() / n
    assert a.fit_slope == pytest.approx(sxy / sxx, rel=1e-9, abs=1e-12)
    assert a.fit_intercept == pytest.approx(
        y.mean() - (sxy / sxx) * x.mean(), rel=1e-9, abs=1e-12
    )
    assert a.extrapolated_at == 6.0
    assert a.extrapolated_value == pytest.approx(
        a.fit_slope * 6.0 + a.fit_intercept, abs=1e-12
    )


def test_constraint_sweep_needs_two_caps():
    with pytest.raises(errors.FitUndefined):
        constraint_sweep([(4, [1.0, 2.0]), (4, [3.0, 5.0])])


def test_estimate_burn_in(grid4, band4, mcfg2):
    trace = make_trace(300, grid4, band4, mcfg2, seed=12)
    burn = estimate_burn_in(trace, "seats_avg")
    assert 0 <= burn <= 50
    # constant series: falls back to 0
    short = make_trace(3, grid4, band4, mcfg2)
    assert estimate_burn_in(short, "polsby_popper") >= 0
