"""Chain-quality analytics: autocorrelation, burn-in/thinning, summaries,
and the constraint-relaxation sweep's fit with linear extrapolation.

The ACF uses the biased single-mean estimator (global mean, pooled
denominator), the common default in chain diagnostics; it guarantees
|rho| <= 1. The default burn-in is one empirically estimated correlation
length: the smallest lag at which rho drops below 0.05.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .chain import ChainTrace


@dataclass(frozen=True)
class AcfSeries:
    """rho(lag) for lag = 0..max_lag; rho(0) is exactly 1."""

    lags: np.ndarray
    rho: np.ndarray

    def __len__(self) -> int:
        return len(self.lags)


def autocorrelation(series, max_lag: int) -> AcfSeries:
    """Biased autocorrelation estimator up to ``max_lag``.

    rho(k) = sum_{t<=n-k} (x_t - xbar)(x_{t+k} - xbar) / sum (x_t - xbar)^2.
    Raises ``SeriesTooShort`` unless n >= max_lag + 2 and ``ZeroVariance``
    for constant input.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if n < max_lag + 2:
        raise errors.SeriesTooShort(
            f"need at least max_lag + 2 = {max_lag + 2} points, got {n}"
        )
    d = x - x.mean()
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise errors.ZeroVariance("series is constant; ACF undefined")
    rho = np.empty(max_lag + 1, dtype=np.float64)
    rho[0] = 1.0
    for k in range(1, max_lag + 1):
        rho[k] = float(np.dot(d[: n - k], d[k:])) / denom
    return AcfSeries(lags=np.arange(max_lag + 1), rho=rho)


def correlation_length(acf: AcfSeries, threshold: float = 0.05) -> int:
    """Smallest lag with rho below ``threshold``; max lag if none qualifies."""
    below = np.flatnonzero(acf.rho < threshold)
    if below.size == 0:
        return int(acf.lags[-1])
    return int(acf.lags[below[0]])


def estimate_burn_in(
    trace: ChainTrace, metric: str = "seats_avg", threshold: float = 0.05
) -> int:
    """Correlation-length burn-in estimate; 0 when the ACF is unusable."""
    values = trace.series(metric)
    max_lag = min(50, values.size - 2)
    if max_lag < 1:
        return 0
    try:
        acf = autocorrelation(values, max_lag)
    except errors.ZeroVariance:
        return 0
    return correlation_length(acf, threshold)


def burn_thin(trace: ChainTrace, burn: int, thin: int) -> ChainTrace:
    """Drop the first ``burn`` rows, keep every ``thin``-th thereafter.

    Thinning starts at the first surviving row: burn=4, thin=2 on a
    10-row trace keeps original rows 5, 7, 9 (1-indexed). The kept rows are
    a view of ``trace.rows``. Raises ``EmptyResult`` when nothing survives.
    """
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if burn < 0:
        raise ValueError("burn must be >= 0")
    kept = replace(trace, rows=trace.rows[burn::thin])
    if not len(kept):
        raise errors.EmptyResult(f"burn={burn} leaves no rows of {len(trace)}")
    return kept


@dataclass(frozen=True)
class Summary:
    mean: float
    std: float
    min: float
    max: float


def summarize(values) -> Summary:
    """Mean, sample std (n-1 denominator; 0 for one value) and extrema."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise errors.EmptyInput("cannot summarize an empty sequence")
    std = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    return Summary(mean=float(x.mean()), std=std, min=float(x.min()), max=float(x.max()))


def fit_line(x, y):
    """Ordinary least squares slope and intercept of y on x.

    Centered normal equations: exact on data that lie exactly on a line.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.unique(x).size < 2:
        raise errors.FitUndefined("need at least 2 distinct x values")
    dx = x - x.mean()
    dy = y - y.mean()
    slope = float(np.dot(dx, dy) / np.dot(dx, dx))
    intercept = float(y.mean() - slope * x.mean())
    return slope, intercept


@dataclass(frozen=True)
class SweepPoint:
    cap: int
    mean: float
    std: float
    n: int


@dataclass(frozen=True)
class SweepResult:
    points: tuple
    fit_slope: float
    fit_intercept: float
    extrapolated_at: float
    extrapolated_value: float
    baseline: "float | None" = None


def constraint_sweep(
    samples,
    baseline: "float | None" = None,
    extrapolate_at: "float | None" = None,
) -> SweepResult:
    """Per-cap mean, sample std and count, then an OLS fit of mean vs cap.

    ``samples`` holds one ``(cap, values)`` pair per cap, ``values`` being
    the metric's post-burn-in values pooled over that cap's chains. The
    fitted line is evaluated at ``extrapolate_at`` (default: the largest
    cap) so the result can sit next to the unconstrained random-tree
    baseline. Raises ``FitUndefined`` unless there are 2 distinct caps.
    """
    points = []
    for cap, values in samples:
        x = np.asarray(values, dtype=np.float64)
        s = summarize(x)
        points.append(SweepPoint(cap=int(cap), mean=s.mean, std=s.std, n=x.size))
    caps = [p.cap for p in points]
    slope, intercept = fit_line(caps, [p.mean for p in points])
    at = float(extrapolate_at) if extrapolate_at is not None else float(max(caps))
    return SweepResult(
        points=tuple(points),
        fit_slope=slope,
        fit_intercept=intercept,
        extrapolated_at=at,
        extrapolated_value=slope * at + intercept,
        baseline=baseline,
    )
