"""Dynamic-model tests.

scipy.stats appears here only as the reference oracle for the hand-written
densities; the library itself never calls it, so the two routes stay
independent.  The one-state-at-a-time model densities below are the
reference the library's batched targets are checked against.  The
stage-1 posterior density of all six parameters, ``_year_log_target``,
lives here too: the library computes each year's posterior on grids of
two reduced blocks, and the tests check those blocks against it.
"""

import dataclasses
import functools
import json
import math
import os
import resource
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy.linalg import solve_triangular
from scipy.special import log_ndtr

from contagion import forecast
from contagion.forecast import (
    GlmState,
    SamplerConfig,
    WalkPosterior,
    YearObservations,
)

from conftest import (
    REPO,
    TREND_YEARS,
    gamma_logpdf,
    invgamma_logpdf,
    laplace_logpdf,
    lkj_marginal_cdf,
    lognormal_logpdf,
    norm_logpdf,
    sample_lkj_correlation,
    skewnorm_logpdf,
    skewnorm_mean,
    trend_rows,
)

GRID = np.linspace(-6.0, 8.0, 301)
POSGRID = np.linspace(1e-3, 12.0, 301)


# -- densities against the reference implementations -------------------------


def test_norm_logpdf_oracle():
    ours = norm_logpdf(GRID, 1.2, 0.7)
    ref = st.norm.logpdf(GRID, loc=1.2, scale=0.7)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_gamma_logpdf_oracle():
    ours = gamma_logpdf(POSGRID, 10.0, 1.0)
    ref = st.gamma.logpdf(POSGRID, a=10.0, scale=1.0)  # rate 1 == scale 1
    assert np.max(np.abs(ours - ref)) < 1e-12
    ours = gamma_logpdf(POSGRID, 3.5, 2.0)
    ref = st.gamma.logpdf(POSGRID, a=3.5, scale=0.5)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_invgamma_logpdf_oracle():
    ours = invgamma_logpdf(POSGRID, 6.0, 1.0)
    ref = st.invgamma.logpdf(POSGRID, a=6.0, scale=1.0)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_laplace_logpdf_oracle():
    ours = laplace_logpdf(GRID, 0.3, 0.05)
    ref = st.laplace.logpdf(GRID, loc=0.3, scale=0.05)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_lognormal_logpdf_oracle():
    ours = lognormal_logpdf(POSGRID, 0.0, 1.0)
    ref = st.lognorm.logpdf(POSGRID, s=1.0, scale=1.0)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_skewnorm_logpdf_oracle():
    for shape in (-3.0, -1.0, 0.0, 1.0, 4.0):
        ours = skewnorm_logpdf(GRID, 0.5, 1.3, shape)
        ref = st.skewnorm.logpdf(GRID, a=shape, loc=0.5, scale=1.3)
        assert np.max(np.abs(ours - ref)) < 1e-10


_LOG_PHI_EDGES = (-20.0, math.nextafter(-20.0, -math.inf), math.nextafter(-20.0, 0.0),
                  -38.5, -1e3, 60.0, 0.0, math.inf, -math.inf, math.nan)


@settings(max_examples=300, deadline=None)
@given(a=hs.lists(hs.one_of(hs.floats(-1e3, 60.0), hs.sampled_from(_LOG_PHI_EDGES)),
                  min_size=1, max_size=20))
@example(a=list(_LOG_PHI_EDGES))
def test_log_norm_cdf_matches_log_ndtr(a):
    # the skew-normal's log Phi term: log(ndtr) above the -20 switch, log_ndtr
    # below, in one call whatever mix of the two regimes a batch holds
    a = np.array(a)
    ours, ref = forecast.log_norm_cdf(a), log_ndtr(a)
    assert ours.shape == a.shape
    assert np.array_equal(np.isnan(ours), np.isnan(a))
    exact = ~np.isfinite(ref)  # +-inf and nan: the same value, not a tolerance
    assert np.array_equal(ours[exact], ref[exact], equal_nan=True)
    err = np.abs(ours[~exact] - ref[~exact])
    assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(ref[~exact]))), err


def test_log_norm_cdf_scalar():
    assert forecast.log_norm_cdf(-3.0) == pytest.approx(float(log_ndtr(-3.0)), rel=1e-15)
    assert forecast.log_norm_cdf(-50.0) == float(log_ndtr(-50.0))


def test_year_log_target_far_tail_emits_no_warning():
    # alpha * z below -38.5 makes ndtr underflow to 0; those entries go
    # through log_ndtr, so log(0) never runs and no RuntimeWarning is raised
    x = np.array([[1.0, 2.0, 8.0], [1.0, 2.0, 8.0]])
    r = np.full(x.shape, 0.5)
    has_point = np.ones(x.shape, dtype=bool)
    w = np.array([[5.0, math.log(10.0), 20.0, 0.0, 0.0, math.log(0.2)],
                  [5.0, math.log(10.0), -20.0, 0.0, 0.0, math.log(0.2)]])
    alpha_z = w[:, 2, None] * (x - 5.0) * math.sqrt(10.0)
    assert np.sum(alpha_z < -38.5) >= 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _batched_year_target(w, x, r, has_point)
    assert np.all(np.isfinite(got))
    for k in range(2):
        obs = YearObservations(2000, tuple(zip(x[k], r[k])))
        assert got[k] == pytest.approx(_year_log_target_reference(w[k], obs), rel=1e-12)


def test_skewnorm_zero_shape_is_normal():
    x = np.linspace(-8.0, 8.0, 1001)
    sn = skewnorm_logpdf(x, 5.0, 0.4, 0.0)
    n = norm_logpdf(x, 5.0, 0.4)
    assert np.max(np.abs(sn - n)) <= 1e-9
    assert np.max(np.abs(np.exp(sn) - np.exp(n))) <= 1e-9


def test_skewnorm_mean_formula():
    for loc, scale, shape in [(5.0, 0.3, 1.0), (0.0, 1.0, -2.0), (2.0, 2.0, 0.0)]:
        assert skewnorm_mean(loc, scale, shape) == pytest.approx(
            st.skewnorm.mean(a=shape, loc=loc, scale=scale), abs=1e-12
        )


def test_priors_integrate_to_one():
    # each prior component, integrated by the trapezoid rule, is ~1
    grids = {
        "mu": (np.linspace(-5.0, 15.0, 40001), lambda x: norm_logpdf(x, 5.0, 1.0)),
        "tau": (np.linspace(1e-9, 60.0, 40001), lambda x: gamma_logpdf(x, 10.0, 1.0)),
        "alpha": (np.linspace(-9.0, 11.0, 40001), lambda x: norm_logpdf(x, 1.0, 1.0)),
        "beta": (np.linspace(-10.0, 10.0, 40001), lambda x: norm_logpdf(x, 0.0, 1.0)),
        "b": (np.linspace(1e-9, 20.0, 40001), lambda x: invgamma_logpdf(x, 6.0, 1.0)),
    }
    for name, (grid, logpdf) in grids.items():
        mass = np.trapezoid(np.exp(logpdf(grid)), grid)
        assert abs(mass - 1.0) < 1e-3, name


# -- samplers for the building blocks -----------------------------------------


def test_sample_skewnorm_mean_within_three_se():
    rng = np.random.default_rng(11)
    loc, scale, shape, n = 5.0, 0.5, 1.0, 200_000
    draws = forecast.sample_skewnorm(rng, loc, scale, shape, size=n)
    se = st.skewnorm.std(a=shape, loc=loc, scale=scale) / math.sqrt(n)
    assert abs(draws.mean() - skewnorm_mean(loc, scale, shape)) < 3 * se


def test_sample_lkj_distribution():
    r = sample_lkj_correlation(2.0, 100_000, seed=42)
    assert r.shape == (100_000,)
    assert np.all(np.abs(r) < 1.0)
    grid = np.sort(r)
    ecdf = np.arange(1, len(grid) + 1) / len(grid)
    ks = np.max(np.abs(ecdf - lkj_marginal_cdf(grid, 2.0)))
    assert ks < 0.02


def test_lkj_marginal_cdf_shape():
    assert lkj_marginal_cdf(np.array([-1.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert lkj_marginal_cdf(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)
    assert lkj_marginal_cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)
    grid = np.linspace(-1, 1, 101)
    cdf = lkj_marginal_cdf(grid)
    assert np.all(np.diff(cdf) >= 0)


# -- model densities -----------------------------------------------------------


def log_prior(z: GlmState) -> float:
    if z.tau <= 0 or z.b <= 0:
        return -math.inf
    return float(
        norm_logpdf(z.mu, 5.0, 1.0)
        + gamma_logpdf(z.tau, 10.0, 1.0)
        + norm_logpdf(z.alpha, 1.0, 1.0)
        + norm_logpdf(z.beta0, 0.0, 1.0)
        + norm_logpdf(z.beta1, 0.0, 1.0)
        + invgamma_logpdf(z.b, 6.0, 1.0)
    )


def log_likelihood(z: GlmState, obs: YearObservations) -> float:
    if not obs.points:
        return 0.0
    x, r = obs.columns
    omega = z.tau ** -0.5
    volume_term = skewnorm_logpdf(x, z.mu, omega, z.alpha)
    glm_term = laplace_logpdf(r, z.beta0 + z.beta1 * x, z.b)
    return float(np.sum(volume_term) + np.sum(glm_term))


def log_posterior(z: GlmState, obs: YearObservations) -> float:
    lp = log_prior(z)
    if lp == -math.inf:
        return lp
    return lp + log_likelihood(z, obs)


def _year_log_target_reference(w: np.ndarray, obs: YearObservations) -> float:
    """Stage-1 target of one state, one year: the reference for the batch."""
    mu, log_tau, alpha, beta0, beta1, log_b = w
    if abs(log_tau) > 500 or abs(log_b) > 500:
        return -math.inf
    z = GlmState(mu, math.exp(log_tau), alpha, beta0, beta1, math.exp(log_b))
    return log_posterior(z, obs) + log_tau + log_b


def _padded_columns(observations):
    """(x, r, has_point) arrays of shape (years, most points in a year).

    Shorter years are padded with zeros that has_point marks as absent.
    """
    width = max((len(obs.points) for obs in observations), default=0)
    x = np.zeros((len(observations), width))
    r = np.zeros_like(x)
    has_point = np.zeros(x.shape, dtype=bool)
    for i, obs in enumerate(observations):
        n = len(obs.points)
        x[i, :n], r[i, :n] = obs.columns
        has_point[i, :n] = True
    return x, r, has_point


def _padded_stats(x, has_point):
    """Each row's (n, mean, residual sum, centred sum of squares) over its points."""
    n = np.count_nonzero(has_point, axis=1)
    mean = np.sum(x, axis=1, where=has_point) / np.maximum(n, 1)
    dev = x - mean[:, None]
    resid = np.sum(dev, axis=1, where=has_point)
    sxx = np.sum(dev * dev, axis=1, where=has_point)
    return n, mean, resid, sxx


# the priors' normalising constants: four unit normals, Gamma(10, rate 1)
# and InverseGamma(6, scale 1)
_LOG_PRIOR_CONST = -2.0 * math.log(2.0 * math.pi) - math.lgamma(10.0) - math.lgamma(6.0)


def _year_log_target(w, x, r, has_point, stats):
    """Stage-1 log posterior of each row of w = (mu, log tau, alpha, beta0, beta1, log b).

    Row k sees the points x[k], r[k] where has_point[k]; stats are
    _padded_stats(x, has_point).  With the + log tau + log b Jacobian
    the priors are closed forms in (log tau, log b):

        -((mu - 5)^2 + (alpha - 1)^2 + beta0^2 + beta1^2) / 2
        + 10 log tau - tau - 6 log b - 1/b + const.

    The skew-normal's Gaussian part is
    n (log 2 + log tau / 2 - log 2 pi / 2) - tau sum((x - mu)^2) / 2,
    from the stats, and the Laplace part -n log 2b - sum|r - beta0 - beta1 x| / b.
    A row with |log tau| or |log b| above 500 has density 0.  Padded
    points are left out of the sum by its mask, never multiplied by 0.
    This was the stage-1 sampler's target; the grid blocks are checked
    against it.
    """
    n, mean, resid, sxx = stats
    inside = (np.abs(w[:, 1]) <= 500) & (np.abs(w[:, 5]) <= 500)
    w = np.where(inside[:, None], w, 0.0)  # finite stand-in for rows set to -inf below
    mu, log_tau, alpha, beta0, beta1, log_b = w.T
    tau, inv_b = np.exp(log_tau), np.exp(-log_b)
    gap = mean - mu
    quad = (mu - 5.0) ** 2 + (alpha - 1.0) ** 2 + beta0 * beta0 + beta1 * beta1
    quad += tau * (sxx + gap * (2.0 * resid + n * gap))
    closed = (10.0 + 0.5 * n) * log_tau - (6.0 + n) * log_b - tau - inv_b
    closed -= 0.5 * (quad + n * math.log(2.0 * math.pi))
    per_point = forecast.log_norm_cdf((x - mu[:, None]) * (alpha * np.sqrt(tau))[:, None])
    per_point -= np.abs(r - (beta0[:, None] + beta1[:, None] * x)) * inv_b[:, None]
    closed += np.sum(per_point, axis=1, where=has_point)
    return np.where(inside, closed + _LOG_PRIOR_CONST, -np.inf)


def _batched_year_target(w, x, r, has_point):
    """The reference stage-1 target with its per-row stats."""
    return _year_log_target(w, x, r, has_point, _padded_stats(x, has_point))


def _state(**kw):
    base = dict(mu=5.0, tau=10.0, alpha=1.0, beta0=-1.0, beta1=0.2, b=0.05)
    base.update(kw)
    return GlmState(**base)


def test_log_prior_peak_term():
    # the mu prior term at its mean is the standard normal peak
    assert norm_logpdf(5.0, 5.0, 1.0) == pytest.approx(
        math.log(1.0 / math.sqrt(2 * math.pi)), abs=1e-12
    )


def test_state_positivity_enforced():
    with pytest.raises(ValueError):
        _state(tau=0.0)
    with pytest.raises(ValueError):
        _state(b=-0.1)


def test_log_prior_oracle():
    z = _state(mu=4.2, tau=8.0, alpha=0.3, beta0=0.6, beta1=-0.1, b=0.2)
    ref = (
        st.norm.logpdf(z.mu, 5.0, 1.0)
        + st.gamma.logpdf(z.tau, a=10.0, scale=1.0)
        + st.norm.logpdf(z.alpha, 1.0, 1.0)
        + st.norm.logpdf(z.beta0, 0.0, 1.0)
        + st.norm.logpdf(z.beta1, 0.0, 1.0)
        + st.invgamma.logpdf(z.b, a=6.0, scale=1.0)
    )
    assert log_prior(z) == pytest.approx(ref, abs=1e-10)


def test_log_likelihood_oracle():
    rng = np.random.default_rng(12)
    pts = tuple((float(x), float(r)) for x, r in zip(rng.normal(5, 1, 40),
                                                     rng.uniform(0.05, 0.95, 40)))
    obs = YearObservations(2019, pts)
    z = _state()
    x = np.array([p[0] for p in pts])
    r = np.array([p[1] for p in pts])
    omega = z.tau ** -0.5
    ref = np.sum(st.skewnorm.logpdf(x, a=z.alpha, loc=z.mu, scale=omega))
    ref += np.sum(st.laplace.logpdf(r, loc=z.beta0 + z.beta1 * x, scale=z.b))
    assert log_likelihood(z, obs) == pytest.approx(float(ref), abs=1e-8)
    assert log_posterior(z, obs) == pytest.approx(
        log_prior(z) + log_likelihood(z, obs), abs=1e-12
    )


def test_point_on_regression_line_hits_laplace_peak():
    z = _state(beta0=0.1, beta1=0.05, b=0.03)
    x = 5.2
    obs = YearObservations(2019, ((x, z.beta0 + z.beta1 * x),))
    ll = log_likelihood(z, obs)
    skew = float(skewnorm_logpdf(x, z.mu, z.tau ** -0.5, z.alpha))
    assert ll - skew == pytest.approx(-math.log(2 * z.b), abs=1e-12)


_RATIO = hs.floats(1e-6, 1.0 - 1e-6)
_YEAR_POINTS = hs.lists(hs.tuples(hs.floats(-5.0, 12.0), _RATIO), max_size=12)
# x bunched within 1e-6 of one value (1e8, or anywhere up to the CLI
# reader's |log10_n| <= 400 bound), down to points an ulp apart or equal,
# or spread over that whole range
_HOSTILE_YEAR_POINTS = hs.one_of(
    hs.tuples(
        hs.one_of(hs.sampled_from([1e8, 400.0, -400.0, 0.1]), hs.floats(-400.0, 400.0)),
        hs.lists(hs.tuples(hs.floats(-1e-6, 1e-6), _RATIO), max_size=12),
    ).map(lambda year: [(year[0] + dx, r) for dx, r in year[1]]),
    hs.lists(hs.tuples(hs.floats(-400.0, 400.0), _RATIO), max_size=12),
)
# log tau and log b reach past the |log| > 500 guard on both sides
_GLM_ROWS = hs.lists(
    hs.tuples(
        hs.floats(-20.0, 30.0),
        hs.floats(-600.0, 600.0),
        hs.floats(-20.0, 20.0),
        hs.floats(-10.0, 10.0),
        hs.floats(-10.0, 10.0),
        hs.floats(-600.0, 600.0),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(years=hs.lists(_YEAR_POINTS, min_size=1, max_size=4), rows=_GLM_ROWS)
@example(  # on and just past the guard
    years=[[(4.0, 0.5)]],
    rows=[(5.0, 500.0, 1.0, 0.0, 0.0, -500.0), (5.0, 500.5, 1.0, 0.0, 0.0, 0.0),
          (5.0, 0.0, 1.0, 0.0, 0.0, -500.5)],
)
def test_year_log_target_matches_reference(years, rows):
    _assert_year_target_matches_reference(years, rows)


def _assert_year_target_matches_reference(years, rows):
    """Ragged and empty years share one padded batch; row k reads year k mod n.

    The batch raises no warning and is -inf exactly where the reference is,
    else within 1e-12 of it.
    """
    observations = tuple(
        YearObservations(2000 + i, tuple(points)) for i, points in enumerate(years)
    )
    w = np.array(rows)
    year_of_row = np.arange(len(w)) % len(observations)
    x, r, has_point = (a[year_of_row] for a in _padded_columns(observations))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _batched_year_target(w, x, r, has_point)
    for k, row in enumerate(w):
        ref = _year_log_target_reference(row, observations[year_of_row[k]])
        if ref == -math.inf:
            assert got[k] == -math.inf
        else:
            assert got[k] == pytest.approx(ref, rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(years=hs.lists(_HOSTILE_YEAR_POINTS, min_size=1, max_size=4), data=hs.data())
@example(years=[[(1e8, 0.5), (1e8, 0.5), (1e8 + 2.0**-26, 0.5)], []], data=None)
def test_year_log_target_matches_reference_on_hostile_points(years, data):
    # x bunched far from 0 and mu on or near the points, where the per-year
    # stats must not lose what the per-point reference keeps
    xs = [x for points in years for x, _ in points]
    if data is None:
        # the mean of points one ulp apart rounds to 1e8, mu sits 0.4 off
        # it and tau dominates: without the residual sum of the stats,
        # tau * sum((x - mu)^2) is off by 2 * 0.4 * tau * ulp
        rows = [(1e8 + 0.4, 60.0, 0.0, 0.5, 0.0, 0.0),
                (1e8, 500.0, 20.0, 1.0, -10.0, -500.0)]
    else:
        near_point = hs.sampled_from(xs or [0.0]).flatmap(
            lambda c: hs.sampled_from([c]) | hs.floats(c - 1.0, c + 1.0))
        mu = hs.floats(-400.0, 400.0) | near_point
        rows = data.draw(hs.lists(
            hs.tuples(mu, hs.floats(-600.0, 600.0), hs.floats(-20.0, 20.0),
                      hs.floats(-10.0, 10.0), hs.floats(-10.0, 10.0), hs.floats(-600.0, 600.0)),
            min_size=1, max_size=6))
    _assert_year_target_matches_reference(years, rows)


# -- stage-1 grid blocks against the reference target ---------------------------


def _reference_rows(obs, rows):
    """_year_log_target of each (mu, log tau, alpha, beta0, beta1, log b) row, for one year."""
    w = np.array(rows, dtype=float).reshape(-1, 6)
    x, r, has_point = (np.repeat(a, len(w), axis=0) for a in _padded_columns((obs,)))
    return _batched_year_target(w, x, r, has_point)


def _assert_equal_up_to_a_constant(got, ref):
    """Every entry of got - ref is the same, within 1e-12 of the reference's size."""
    got, ref = np.ravel(got), np.ravel(ref)
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(ref))
    tol = 1e-12 * (np.abs(ref) + abs(ref[0])) + 1e-10
    assert np.all(np.abs((got - got[0]) - (ref - ref[0])) <= tol), (got - ref)


_BLOCK_POINTS = hs.one_of(_YEAR_POINTS, _HOSTILE_YEAR_POINTS)
_BUNCHED_AT_1E8 = [(1e8, 0.5), (1e8, 0.5), (1e8 + 2.0**-26, 0.5)]


def _nodes(data, values):
    return np.array(data.draw(hs.lists(values, min_size=1, max_size=3)))


@settings(max_examples=150, deadline=None)
@given(points=_BLOCK_POINTS, data=hs.data())
@example(points=_BUNCHED_AT_1E8, data=None)
@example(points=[], data=None)
def test_volume_block_density_matches_reference(points, data):
    # the grid's volume density in (mu, lambda = alpha sqrt(tau), log tau) is
    # the reference's density in (mu, log tau, alpha) times the Jacobian
    # tau^(-1/2) of alpha -> lambda, up to one constant per year, with the
    # regression block held fixed
    obs = YearObservations(2000, tuple(points))
    x, _ = obs.columns
    if data is None:
        # mu 0.4 off the mean of points an ulp apart, where tau dominates: without
        # the residual sum of the stats, tau sum((x - mu)^2) is off by 2 0.4 tau ulp
        mu, lam, log_tau = np.array([1e8 + 0.4, 5.0]), np.array([-3.0, 0.5]), np.array([-37.0, 60.0])
    else:
        near_point = hs.sampled_from([p[0] for p in points] or [5.0]).flatmap(
            lambda c: hs.sampled_from([c]) | hs.floats(c - 1.0, c + 1.0))
        mu = _nodes(data, hs.floats(-400.0, 400.0) | near_point)
        lam = _nodes(data, hs.floats(-50.0, 50.0))
        log_tau = _nodes(data, hs.floats(-40.0, 30.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = forecast._volume_log_density(x, forecast._volume_stats(x), mu, lam, log_tau)
    assert got.shape == (mu.size, lam.size, log_tau.size)
    m, l, t = (a.ravel() for a in np.meshgrid(mu, lam, log_tau, indexing="ij"))
    rows = np.stack([m, t, l * np.exp(-0.5 * t), 0 * m, 0 * m, 0 * m], axis=1)
    _assert_equal_up_to_a_constant(got, _reference_rows(obs, rows) - 0.5 * t)


@settings(max_examples=60, deadline=None)
@given(points=_BLOCK_POINTS, data=hs.data())
@example(points=_BUNCHED_AT_1E8, data=None)
@example(points=[], data=None)
def test_regression_block_density_matches_reference_over_log_b(points, data):
    # the grid's regression density, b integrated out in closed form, is the
    # reference integrated numerically over log b, up to one constant per
    # year, with the volume block held where its own part stays small
    obs = YearObservations(2000, tuple(points))
    x, r = obs.columns
    n, mean = x.size, forecast._volume_stats(x)[1]
    if data is None:
        c, beta1 = np.array([0.5, 2.0, -1.0]), np.array([0.0, 1e-8, -0.3])
    else:
        c = _nodes(data, hs.floats(-3.0, 3.0))
        beta1 = np.array(data.draw(hs.lists(hs.floats(-10.0, 10.0), min_size=c.size,
                                            max_size=c.size)))
    got, abs_sums = forecast._regression_log_density(x, r, mean, c, beta1)
    sxx = float(np.sum((x - mean) ** 2))
    ref = []
    for ck, bk, a_sum in zip(c, beta1, abs_sums):
        # log b around the mode of its InverseGamma(6 + n, 1 + A) conditional
        step = np.linspace(-40.0, 40.0, 20001) / math.sqrt(6.0 + n)
        log_b = math.log((1.0 + a_sum) / (6.0 + n)) + step
        rows = np.zeros((log_b.size, 6))
        rows[:] = mean, -math.log1p(sxx), 0.0, ck - mean * bk, bk, 0.0
        rows[:, 5] = log_b
        lp = _reference_rows(obs, rows)
        top = lp.max()
        ref.append(top + math.log(np.sum(np.exp(lp - top)) * (step[1] - step[0])))
    _assert_equal_up_to_a_constant(got, ref)


@pytest.mark.parametrize("which", ["fixture", "500 points"])
def test_grid_means_agree_with_a_twice_finer_grid(glm_input_csv, which):
    if which == "fixture":
        from contagion.cli import _read_glm_rows

        observations = forecast.observations_from_rows(_read_glm_rows(str(glm_input_csv)))
    else:
        observations = (_synthetic_year(500),)
    for obs in observations:
        fits = [forecast._fit_year(obs, nodes=nodes) for nodes in (40, 80)]
        for k in forecast.PARAM_NAMES:
            coarse, fine = (fit.mean[k] for fit in fits)
            assert abs(coarse - fine) <= 2e-3 * fits[1].sd[k], (obs.year, k)
            assert fits[0].sd[k] == pytest.approx(fits[1].sd[k], rel=2e-3), (obs.year, k)
        assert fits[0].self_check <= forecast.SELF_CHECK_BOUND


# -- observation plumbing ------------------------------------------------------


def test_year_observations_filters_open_interval():
    obs = forecast.year_observations(
        2019, [(5.0, 0.0), (5.0, 1.0), (5.0, 0.5), (5.0, -3.0), (5.0, 2.0)]
    )
    assert obs.points == ((5.0, 0.5),)


def test_observations_from_rows_groups_by_year():
    rows = [(2019, "en", 5.0, 0.4), (2018, "en", 4.0, 0.3), (2019, "th", 5.5, 0.9),
            (2018, "xx", 4.1, 1.7)]  # ratio outside (0,1) is dropped
    by_year = forecast.observations_from_rows(rows)
    assert [o.year for o in by_year] == [2018, 2019]
    assert by_year[0].points == ((4.0, 0.3),)
    assert by_year[1].points == ((5.0, 0.4), (5.5, 0.9))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_year_observations_rejects_non_finite_volume(bad):
    with pytest.raises(ValueError, match="year 2019: non-finite log10_n"):
        forecast.year_observations(2019, [(5.0, 0.4), (bad, 0.5)])


def test_glm_state_array_roundtrip():
    z = _state()
    arr = z.as_array()
    assert arr.tolist() == [5.0, 10.0, 1.0, -1.0, 0.2, 0.05]
    assert GlmState(*arr) == z


# -- config and posterior container --------------------------------------------


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1)
    with pytest.raises(ValueError):
        SamplerConfig(chains=0)
    with pytest.raises(ValueError):
        SamplerConfig(draws=0)
    with pytest.raises(ValueError):
        SamplerConfig(eta=0.0)
    # the walk's forecast cloud is its chains x draws states: it needs 1000
    # of them, and fails before sampling
    with pytest.raises(ValueError, match="need at least 1000 post-warmup draws"):
        SamplerConfig(chains=3, draws=333)
    assert SamplerConfig(chains=1, draws=1000).draws == 1000


def _posterior(year=2019, value=1.0):
    """The empty year's fit, relabelled, with every mean and sd set to value."""
    same = {k: value for k in forecast.PARAM_NAMES}
    return dataclasses.replace(_prior_fit(), year=year, mean=same, sd=same)


@functools.lru_cache(maxsize=1)
def _prior_fit():
    return forecast._fit_year(YearObservations(2019, ()))


def test_posterior_samples_validation():
    fit = forecast._fit_year(_synthetic_year(50))
    with pytest.raises(ValueError, match="^need at least 1000 post-warmup draws$"):
        fit.draws(np.random.default_rng(0), 999)
    draws = fit.draws(np.random.default_rng(0), 1000)
    assert set(draws) == set(forecast.PARAM_NAMES)
    assert {v.shape for v in draws.values()} == {(1000,)}
    assert np.all(draws["tau"] > 0) and np.all(draws["b"] > 0)


def test_pseudo_observations_mean_and_order():
    degenerate = _posterior(2018, value=2.5)
    assert degenerate.mean_state() == GlmState(2.5, 2.5, 2.5, 2.5, 2.5, 2.5)
    # the state is the posterior mean the fit carries, not its draws' mean
    mixed = _posterior(2019, value=0.75)
    assert mixed.mean_state().mu == 0.75
    assert float(np.mean(mixed.draws(np.random.default_rng(0), 1000)["mu"])) != 0.75
    pseudo = forecast.pseudo_observations([degenerate, mixed])
    assert pseudo[0] == degenerate.mean_state()
    with pytest.raises(ValueError):
        forecast.pseudo_observations([_posterior(2018), _posterior(2020)])


# -- per-year fit on the grid ----------------------------------------------------


def test_sample_posterior_deterministic():
    obs = forecast.year_observations(2019, [(5.0, 0.4), (4.8, 0.35), (5.2, 0.5)])
    cfg = SamplerConfig(seed=3, chains=1, warmup=200, draws=1000)
    (a,) = forecast.sample_posterior((obs,), cfg)
    (b,) = forecast.sample_posterior((obs,), cfg)
    a_draws, b_draws = (fit.draws(np.random.default_rng(3), 1000) for fit in (a, b))
    for k in forecast.PARAM_NAMES:
        assert np.array_equal(a_draws[k], b_draws[k])
    assert (a.mean, a.sd, a.self_check) == (b.mean, b.sd, b.self_check)
    # the means and sds come from the grid: another rng moves only the draws
    c_draws = a.draws(np.random.default_rng(4), 1000)
    assert not np.array_equal(c_draws["mu"], a_draws["mu"])


def test_sample_posterior_reads_nothing_from_the_config():
    observations = (_synthetic_year(50), YearObservations(2020, ()))
    one, other = (
        forecast.sample_posterior(observations, cfg)
        for cfg in (SamplerConfig(seed=1, chains=1, draws=1000),
                    SamplerConfig(seed=2, chains=4, warmup=10, draws=2500))
    )
    for a, b in zip(one, other):
        assert (a.year, a.mean, a.sd, a.self_check) == (b.year, b.mean, b.sd, b.self_check)


def test_sample_posterior_prior_dominance():
    obs = forecast.year_observations(2019, [(5.0, 0.5)])
    cfg = SamplerConfig(seed=4, chains=2, warmup=1000, draws=1000)
    (out,) = forecast.sample_posterior((obs,), cfg)
    assert abs(float(np.mean(out.draws(np.random.default_rng(4), 2000)["mu"])) - 5.0) < 0.5
    assert abs(out.mean["mu"] - 5.0) < 0.5


def test_sample_posterior_without_points_samples_prior():
    # the empty year's posterior is the prior: its exact means and sds are the
    # priors' (InverseGamma(6, 1) has mean 1/5 and sd 1/10)
    empty = YearObservations(2019, ())
    full = forecast.year_observations(2020, [(3.0 + 0.01 * i, 0.4) for i in range(50)])
    cfg = SamplerConfig(seed=5, chains=2, warmup=1000, draws=1000)
    out, other = forecast.sample_posterior((empty, full), cfg)
    assert (out.year, other.year) == (2019, 2020)
    prior_mean = dict(mu=5.0, tau=10.0, alpha=1.0, beta0=0.0, beta1=0.0, b=0.2)
    prior_sd = dict(mu=1.0, tau=math.sqrt(10.0), alpha=1.0, beta0=1.0, beta1=1.0, b=0.1)
    for k in forecast.PARAM_NAMES:
        assert out.mean[k] == pytest.approx(prior_mean[k], abs=1e-3 * prior_sd[k]), k
        assert out.sd[k] == pytest.approx(prior_sd[k], rel=1e-3), k
    rng = np.random.default_rng(5)
    assert abs(float(np.mean(out.draws(rng, 2000)["mu"])) - 5.0) < 0.5
    assert float(np.mean(other.draws(rng, 2000)["mu"])) < 4.0


def _synthetic_year(n):
    """n points of 2019 from _state()'s parameters.

    Points are deliberately NOT filtered to (0,1): with beta0=-1 most of
    the response range sits outside the unit interval and filtering would
    bias the slope far below its generating value.
    """
    truth = _state()  # mu 5, tau 10, alpha 1, beta0 -1, beta1 0.2, b 0.05
    rng = np.random.default_rng(2468)
    x = forecast.sample_skewnorm(rng, truth.mu, truth.tau ** -0.5, truth.alpha, n)
    r = truth.beta0 + truth.beta1 * x + rng.laplace(0.0, truth.b, n)
    return YearObservations(2019, tuple((float(a), float(c)) for a, c in zip(x, r)))


def test_sample_posterior_synthetic_recovery():
    # known-parameter oracle: beta1 recovered within 3 posterior sd
    truth = _state()
    cfg = SamplerConfig(seed=1, chains=2, warmup=2000, draws=1000)
    (out,) = forecast.sample_posterior((_synthetic_year(500),), cfg)
    draws = out.draws(np.random.default_rng(1), 2000)["beta1"]
    mean, sd = float(np.mean(draws)), float(np.std(draws))
    assert abs(mean - truth.beta1) <= 3 * sd
    assert abs(out.mean["beta1"] - truth.beta1) <= 3 * out.sd["beta1"]
    assert out.self_check <= forecast.SELF_CHECK_BOUND


def test_draws_follow_the_grid_posterior():
    # i.i.d. draws from the gridded posterior: their means sit within 4
    # standard errors of the exact means, their sds within 5%
    (out,) = forecast.sample_posterior(
        (_synthetic_year(150),), SamplerConfig(seed=2, chains=4, draws=2500))
    every = out.draws(np.random.default_rng(2), 10_000)
    for k in forecast.PARAM_NAMES:
        draws = every[k]
        assert abs(float(np.mean(draws)) - out.mean[k]) <= 4 * out.sd[k] / math.sqrt(draws.size), k
        assert float(np.std(draws)) == pytest.approx(out.sd[k], rel=0.05), k


def test_year_failing_the_self_check_is_an_error(monkeypatch):
    monkeypatch.setattr(forecast, "SELF_CHECK_BOUND", 0.0)
    with pytest.raises(ValueError, match=r"^year 2019: grid self-check: means on every other node"):
        forecast.sample_posterior((_synthetic_year(50),), SamplerConfig(chains=1, draws=1000))


def test_year_whose_box_does_not_settle_is_an_error(monkeypatch):
    # one pass per phase: the first coarse pass of every block widens or zooms
    monkeypatch.setattr(forecast, "_MAX_PASSES", 1)
    with pytest.raises(ValueError, match=r"^year 2019: the grid box did not settle within 1 passes"):
        forecast.sample_posterior((_synthetic_year(50),), SamplerConfig(chains=1, draws=1000))


def _assert_refresh_keeps_row_1_only(recent):
    prop_chol = np.tile(np.array([[2.0, 0.0], [0.5, 1.0]]), (3, 1, 1))
    log_step = np.array([-1.0, -2.0, -3.0])
    rm_clock = np.array([7.0, 8.0, 9.0])
    kept = prop_chol[1].copy()
    forecast._refresh_shapes(recent, prop_chol, log_step, rm_clock)
    assert np.array_equal(prop_chol[1], kept)
    assert (log_step[1], rm_clock[1]) == (-2.0, 8.0)
    for i in (0, 2):
        cov = np.cov(recent[:, i].T)
        assert np.allclose(prop_chol[i] @ prop_chol[i].T, cov, rtol=1e-9, atol=1e-9)
        assert (log_step[i], rm_clock[i]) == (math.log(2.38 / math.sqrt(2)), 0.0)


def test_failed_shape_refresh_keeps_that_row_only():
    # row 1 moves both coordinates together by 2**40: its covariance is
    # exactly rank one at a scale where the 1e-12 jitter vanishes, so its
    # Cholesky factorisation fails
    rng = np.random.default_rng(16)
    recent = rng.standard_normal((3, 3, 2))
    big = 2.0**40
    recent[:, 1, :] = np.array([big, -big, 0.0])[:, None]
    _assert_refresh_keeps_row_1_only(recent)


def test_non_finite_shape_refresh_keeps_that_row_only():
    # row 1 sits at +inf in one coordinate: its covariance is nan, which
    # np.linalg.cholesky factors into nan instead of raising
    rng = np.random.default_rng(16)
    recent = rng.standard_normal((3, 3, 2))
    recent[:, 1, 1] = np.inf
    _assert_refresh_keeps_row_1_only(recent)


def _metropolis_reference(log_target, x0, rng, config):
    """The lockstep kernel as first written: np.where copies of the state, the
    step size exponentiated every step and non-finite targets mapped to -inf."""
    warmup, draws = config.warmup, config.draws
    k, dim = x0.shape
    x = x0.copy()
    lp = log_target(x)
    if not np.all(np.isfinite(lp)):
        raise ValueError("initial state has zero posterior density")
    log_step = np.full(k, math.log(0.1))
    prop_chol = np.tile(np.eye(dim), (k, 1, 1))
    rm_clock = np.zeros(k)
    refreshes = {warmup // 2, (3 * warmup) // 4} if warmup >= 1000 else set()
    trace = np.empty((warmup, k, dim))
    out = np.empty((draws, k, dim))
    accepted = np.zeros(k)
    for t in range(warmup + draws):
        step = np.einsum("kij,kj->ki", prop_chol, rng.standard_normal((k, dim)))
        proposal = x + np.exp(log_step)[:, None] * step
        lp_prop = log_target(proposal)
        lp_prop = np.where(np.isfinite(lp_prop), lp_prop, -np.inf)
        ok = np.log(np.maximum(rng.random(k), 1e-300)) < lp_prop - lp
        x = np.where(ok[:, None], proposal, x)
        lp = np.where(ok, lp_prop, lp)
        if t < warmup:
            rm_clock += 1
            log_step += rm_clock**-0.6 * (ok - forecast._TARGET_ACCEPT)
            trace[t] = x
            if t + 1 in refreshes:
                forecast._refresh_shapes(
                    trace[(t + 1) // 2 : t + 1], prop_chol, log_step, rm_clock
                )
        else:
            out[t - warmup] = x
            accepted += ok
    return out.transpose(1, 0, 2), accepted / draws


def _kernel_year_target():
    observations = forecast.observations_from_rows(
        [r for r in trend_rows(points_per_year=40) if r[0] in TREND_YEARS[:2]]
    )
    x, r, has_point = (np.repeat(a, 2, axis=0) for a in _padded_columns(observations))
    base = np.array([5.0, math.log(10.0), 1.0, 0.0, 0.0, math.log(0.2)])
    x0 = base + 0.1 * np.random.default_rng(21).standard_normal((4, 6))
    return (lambda w: _batched_year_target(w, x, r, has_point)), x0


def _kernel_non_finite_target():
    # a standard normal that is nan past +1.5 and +inf below -1.5 in its
    # first coordinate: both kinds of proposal must be rejected
    def target(w):
        lp = -0.5 * np.sum(w * w, axis=1)
        lp[w[:, 0] > 1.5] = np.nan
        lp[w[:, 0] < -1.5] = np.inf
        return lp

    return target, np.zeros((3, 2))


def _kernel_ignored_inf_target():
    # the target reads only the first coordinate, and row 1 starts (and so
    # stays) at +inf in the second: its trace must not install a nan shape
    def target(w):
        return -0.5 * w[:, 0] ** 2

    x0 = np.zeros((3, 2))
    x0[1, 1] = np.inf
    return target, x0


_CHOLESKY = np.linalg.cholesky


def _failing_cholesky(row: int, k: int):
    """np.linalg.cholesky that raises for one row at every shape refresh."""
    calls = iter(range(10**6))

    def cholesky(a):
        if next(calls) % k == row:
            raise np.linalg.LinAlgError("not positive definite")
        return _CHOLESKY(a)

    return cholesky


@pytest.mark.parametrize(
    "case, warmup, fail_row",
    [
        ("year", 1000, None),  # both shape refreshes fire
        ("year", 100, None),  # no refresh fires
        ("year", 1000, 1),  # row 1 keeps its shape, step and clock
        ("non_finite", 1000, None),
        ("ignored_inf", 1000, None),
    ],
)
def test_metropolis_matches_reference_kernel(monkeypatch, case, warmup, fail_row):
    target, x0 = {
        "year": _kernel_year_target,
        "non_finite": _kernel_non_finite_target,
        "ignored_inf": _kernel_ignored_inf_target,
    }[case]()
    config = SamplerConfig(seed=0, chains=4, warmup=warmup, draws=250)
    runs = []
    for kernel in (_metropolis_reference, forecast._metropolis):
        if fail_row is not None:
            monkeypatch.setattr(np.linalg, "cholesky", _failing_cholesky(fail_row, len(x0)))
        runs.append(kernel(target, x0, np.random.default_rng(31), config))
    (ref_draws, ref_rates), (draws, rates) = runs
    assert np.array_equal(draws, ref_draws)
    assert np.array_equal(rates, ref_rates)
    assert np.all((rates > 0.0) & (rates < 1.0))
    if case == "non_finite":
        assert np.all(np.abs(draws[:, :, 0]) <= 1.5)
    if case == "ignored_inf":
        assert np.all(draws[1, :, 1] == np.inf)
        assert np.all(np.isfinite(draws[:, :, 0]))


def test_acceptance_warning_thresholds():
    assert forecast._acceptance_warnings([0.05], "x") != ()
    assert forecast._acceptance_warnings([0.7], "x") != ()
    assert forecast._acceptance_warnings([0.3, 0.25], "x") == ()


# -- walk stage ------------------------------------------------------------------


def _chol_from_free_reference(y: np.ndarray, dim: int):
    """One correlation Cholesky factor, row by row; None outside the unit ball."""
    l_r = np.zeros((dim, dim))
    l_r[0, 0] = 1.0
    idx = 0
    for i in range(1, dim):
        row = y[idx : idx + i]
        idx += i
        ss = float(np.dot(row, row))
        if ss >= 1.0:
            return None
        l_r[i, :i] = row
        l_r[i, i] = math.sqrt(1.0 - ss)
    return l_r


def _walk_log_target_reference(
    w: np.ndarray, increments: np.ndarray, dim: int, eta: float
) -> float:
    """Walk target of one state: the reference for the batch."""
    log_sigma = w[:dim]
    if np.any(np.abs(log_sigma) > 500):
        return -math.inf
    sigma = np.exp(log_sigma)
    l_r = _chol_from_free_reference(w[dim:], dim)
    if l_r is None:
        return -math.inf

    log_det_r = 2.0 * float(np.sum(np.log(np.diag(l_r))))
    lp = float(np.sum(lognormal_logpdf(sigma, 0.0, 1.0)))
    lp += float(np.sum(log_sigma))  # Jacobian of the log transform
    lp += (eta - 1.0) * log_det_r
    # Jacobian of the map from L's free entries to R: prod_i L_ii^(dim - 1 - i)
    lp += float(np.sum((dim - 1 - np.arange(dim)) * np.log(np.diag(l_r))))

    if increments.shape[0]:
        chol = sigma[:, None] * l_r  # Cholesky of Sigma
        log_det_sigma = 2.0 * float(np.sum(np.log(np.diag(chol))))
        u = solve_triangular(chol, increments.T, lower=True)
        quad = float(np.sum(u * u))
        n_steps = increments.shape[0]
        lp += -0.5 * (n_steps * (dim * math.log(2.0 * math.pi) + log_det_sigma) + quad)
    return lp


def test_chol_from_free_rows_unit_norm():
    y = np.array([[0.3, -0.2, 0.5], [1.2, 0.0, 0.0], [0.0, 0.0, 1.0]])
    l_r, valid = forecast._chol_from_free(y, 3)
    assert valid.tolist() == [True, False, False]  # the unit sphere is outside
    recon = l_r[0] @ l_r[0].T
    assert np.allclose(np.diag(recon), 1.0, atol=1e-12)
    assert np.allclose(l_r[0], _chol_from_free_reference(y[0], 3), rtol=0.0, atol=1e-15)
    assert _chol_from_free_reference(y[1], 3) is None


@settings(max_examples=200, deadline=None)
@given(data=hs.data())
def test_walk_log_target_matches_reference(data):
    # free entries up to 0.8 put many rows outside the unit ball, and
    # log sigma reaches past the |log| > 500 guard: both give -inf
    dim = data.draw(hs.integers(1, 6))
    n_rows = data.draw(hs.integers(1, 5))
    log_sigma = hs.one_of(hs.floats(-30.0, 30.0), hs.sampled_from([-501.0, 700.0]))
    rows = [
        data.draw(hs.lists(log_sigma, min_size=dim, max_size=dim))
        + data.draw(hs.lists(hs.floats(-0.8, 0.8), min_size=dim * (dim - 1) // 2,
                             max_size=dim * (dim - 1) // 2))
        for _ in range(n_rows)
    ]
    n_steps = data.draw(hs.integers(0, 5))
    flat = data.draw(hs.lists(hs.floats(-3.0, 3.0), min_size=n_steps * dim,
                              max_size=n_steps * dim))
    increments = np.array(flat).reshape(n_steps, dim)
    eta = data.draw(hs.sampled_from([1.0, 2.0, 3.5]))
    w = np.array(rows).reshape(n_rows, -1)
    got = forecast._walk_log_target(w, increments, dim, eta)
    for k, row in enumerate(w):
        ref = _walk_log_target_reference(row, increments, dim, eta)
        if ref == -math.inf:
            assert got[k] == -math.inf
        else:
            assert got[k] == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("gap", [1e-6, 1e-12, 1e-14])
def test_walk_log_target_near_unit_ball_edge(gap):
    # R's last row sits gap inside the unit ball, so R is nearly singular:
    # solving Sigma or R itself against the scatter loses up to 1e-2 of the
    # quadratic term here, the triangular route keeps the reference's digits
    free = [0.5, 0.6, math.sqrt(1.0 - 0.36 - gap)]
    increments = np.array([[1.0, 1.0, 1.0], [0.5, -1.0, -1.0]])
    for log_sigma in ([0.0, 0.0, 0.0], [-3.0, 2.0, 2.0]):
        w = np.array(log_sigma + free)
        got = forecast._walk_log_target(w[None], increments, 3, 2.0)[0]
        ref = _walk_log_target_reference(w, increments, 3, 2.0)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_walk_target_lkj_term():
    # eta enters only through (eta-1) * log det R; at R = I the term is zero
    inc = np.zeros((0, 2))
    w0 = np.array([0.0, 0.0, 0.0])  # log sigma = 0, r = 0
    t2 = forecast._walk_log_target(w0[None], inc, 2, eta=2.0)[0]
    t1 = forecast._walk_log_target(w0[None], inc, 2, eta=1.0)[0]
    assert t2 == pytest.approx(t1, abs=1e-12)
    w = np.array([[0.0, 0.0, 0.6]])
    diff = (forecast._walk_log_target(w, inc, 2, eta=2.0)[0]
            - forecast._walk_log_target(w, inc, 2, eta=1.0)[0])
    assert diff == pytest.approx(math.log(1 - 0.6 ** 2), abs=1e-12)


def test_walk_target_likelihood_oracle():
    rng = np.random.default_rng(13)
    sigma = np.array([0.5, 1.5])
    corr = np.array([[1.0, 0.4], [0.4, 1.0]])
    cov = np.diag(sigma) @ corr @ np.diag(sigma)
    inc = rng.multivariate_normal(np.zeros(2), cov, size=6)
    r = 0.4
    w = np.concatenate([np.log(sigma), [r]])
    ours = forecast._walk_log_target(w[None], inc, 2, eta=2.0)[0]
    ref = np.sum(st.multivariate_normal.logpdf(inc, mean=np.zeros(2), cov=cov))
    ref += np.sum(st.lognorm.logpdf(sigma, s=1.0, scale=1.0))
    ref += np.sum(np.log(sigma))  # log-sigma sampling Jacobian
    ref += (2.0 - 1.0) * math.log(np.linalg.det(corr))
    assert ours == pytest.approx(float(ref), abs=1e-9)


def test_walk_prior_marginal_matches_lkj():
    # drive the MCMC path itself over the LKJ prior: no increments means the
    # likelihood vanishes and the sampled off-diagonal must follow the
    # analytic eta=2 marginal
    cfg = SamplerConfig(seed=3, chains=2, warmup=2000, draws=10_000)
    walk = forecast._fit_walk_from_increments(np.zeros((0, 2)), cfg, 2)
    r = walk.chol_corr[:, 1, 0]
    grid = np.sort(r)
    ecdf = np.arange(1, len(grid) + 1) / len(grid)
    ks = np.max(np.abs(ecdf - lkj_marginal_cdf(grid, 2.0)))
    assert ks < 0.03


# |E[R_ij^2] - 1 / (2a + 1)| bound per dimension: twice the largest
# deviation of any pair over seeds 1-14 of the fixed target (0.0057 at
# dim 3, 0.0111 at dim 6); without the LKJ Jacobian the smallest such
# deviation was 0.0315 and 0.0886 (seeds 1-3)
@pytest.mark.parametrize("dim, bound", [(3, 0.012), (6, 0.022)])
def test_walk_prior_marginals_match_lkj_in_higher_dimensions(dim, bound):
    # no increments: the walk samples its prior, and every off-diagonal of R
    # must follow Beta(a, a) on [-1, 1] with a = eta - 1 + dim / 2, whose
    # second moment is 1 / (2a + 1); KS on autocorrelated draws is loose
    # (at most 0.084 over the same seeds)
    eta = 2.0
    cfg = SamplerConfig(seed=3, chains=16, warmup=2000, draws=4000, eta=eta)
    walk = forecast._fit_walk_from_increments(np.zeros((0, dim)), cfg, dim)
    corr = walk.chol_corr @ walk.chol_corr.transpose(0, 2, 1)
    second_moment = 1.0 / (2.0 * (eta - 1.0 + dim / 2.0) + 1.0)
    for i, j in zip(*np.tril_indices(dim, k=-1)):
        r = np.sort(corr[:, i, j])
        ecdf = np.arange(1, r.size + 1) / r.size
        assert np.max(np.abs(ecdf - lkj_marginal_cdf(r, eta, dim))) < 0.1, (i, j)
        assert abs(np.mean(r * r) - second_moment) < bound, (i, j)


def test_fit_random_walk_needs_three_years():
    with pytest.raises(ValueError):
        forecast.fit_random_walk([_state(), _state()], SamplerConfig())


def test_walk_sigma_recovery():
    # synthetic walk with sigma inside the LogNormal(0,1) prior bulk;
    # componentwise recovery within +-50% at T=30 increments
    true_sigma = np.array([0.8, 1.2, 0.5, 0.9, 0.6, 1.0])
    rng = np.random.default_rng(14)
    inc = rng.normal(0.0, true_sigma, size=(30, 6))
    cfg = SamplerConfig(seed=6, chains=2, warmup=3000, draws=1500)
    walk = forecast._fit_walk_from_increments(inc, cfg, 6)
    est = walk.sigma.mean(axis=0)
    rel = np.abs(est / true_sigma - 1.0)
    assert np.all(rel <= 0.5), rel


def test_walk_params_reconstruction():
    cfg = SamplerConfig(seed=7, chains=1, warmup=1000, draws=1000)
    rng = np.random.default_rng(15)
    inc = rng.normal(0.0, 0.5, size=(8, 2))
    walk = forecast._fit_walk_from_increments(inc, cfg, 2)
    for i in range(0, walk.size, 100):
        sigma, l_r = walk.sigma[i], walk.chol_corr[i]
        corr = l_r @ l_r.T
        chol = sigma[:, None] * l_r
        sigma_mat = np.diag(sigma)
        target = sigma_mat @ corr @ sigma_mat
        assert np.max(np.abs(chol @ chol.T - target)) < 1e-9
        assert np.allclose(np.diag(corr), 1.0, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(corr) > 0)


# -- forecasting -------------------------------------------------------------------


def _degenerate_walk(sigma_value=1e-8, size=2000, dim=6):
    sigma = np.full((size, dim), sigma_value)
    chol = np.tile(np.eye(dim), (size, 1, 1))
    return WalkPosterior(dim=dim, sigma=sigma, chol_corr=chol,
                         acceptance=(0.3,), warnings=())


def test_forecast_degenerate_walk_pins_state():
    z_t = _state(beta0=0.1, beta1=0.05, b=0.03)
    cfg = SamplerConfig(seed=8, chains=1, warmup=0, draws=1000, points_per_draw=10)
    bundle = forecast.forecast_next(z_t, _degenerate_walk(), cfg, year=2020)
    for k in forecast.PARAM_NAMES:
        assert np.max(np.abs(bundle.state_draws[k] - getattr(z_t, k))) < 1e-6
    # Laplace median = location: centered residual of the predictive cloud
    resid = bundle.ratio - (z_t.beta0 + z_t.beta1 * bundle.log10_n)
    n = resid.size
    median_se = z_t.b / math.sqrt(n)
    assert abs(float(np.median(resid))) < 4 * median_se
    assert bundle.year == 2020
    assert bundle.n_draws == 2000 and bundle.n_rejected == 0
    assert set(bundle.predictive_quantiles) == {"log10_n", "ratio"}
    assert list(bundle.state_quantiles["mu"]) == ["q05", "q25", "q50", "q75", "q95"]


def test_forecast_rejects_unsupported_draws():
    # a huge sigma on b pushes most steps negative; they are redrawn and the
    # irrecoverable ones counted, never emitted
    z_t = _state(b=1e-6)
    walk = _degenerate_walk(sigma_value=1.0, size=500)
    cfg = SamplerConfig(seed=9, chains=1, warmup=0, draws=1000, points_per_draw=2)
    bundle = forecast.forecast_next(z_t, walk, cfg, year=2020)
    assert bundle.n_draws + bundle.n_rejected == 500
    assert np.all(bundle.state_draws["tau"] > 0)
    assert np.all(bundle.state_draws["b"] > 0)


def test_quantile_orders():
    values = np.arange(101.0)
    q = forecast._quantile_dict(values)
    assert q["q05"] == 5.0 and q["q50"] == 50.0 and q["q95"] == 95.0


# -- full pipeline ------------------------------------------------------------------


def _small_pipeline_config():
    return SamplerConfig(seed=5, chains=2, warmup=1000, draws=500)


def _small_rows():
    rows = trend_rows(points_per_year=60)
    return [r for r in rows if r[0] in TREND_YEARS[:4]]


def test_pipeline_requires_consecutive_years():
    rows = [(2015, "en", 5.0, 0.4)] * 30 + [(2017, "en", 5.0, 0.4)] * 30 + \
           [(2018, "en", 5.0, 0.4)] * 30
    with pytest.raises(ValueError):
        forecast.forecast_pipeline(rows, _small_pipeline_config())


def test_pipeline_requires_three_usable_years():
    rows = [(2015, "en", 5.0, 0.4)] * 30 + [(2016, "en", 5.0, 0.4)] * 30
    with pytest.raises(ValueError):
        forecast.forecast_pipeline(rows, _small_pipeline_config())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pipeline_rejects_non_finite_volume_naming_the_year(bad):
    rows = [(year, "en", 5.0, 0.4) for year in (2015, 2016, 2017) for _ in range(30)]
    rows[45] = (2016, "th", bad, 0.6)
    with pytest.raises(ValueError, match="year 2016: non-finite log10_n"):
        forecast.forecast_pipeline(rows, _small_pipeline_config())


def test_pipeline_end_to_end_deterministic_and_json_ready():
    rows = _small_rows()
    cfg = _small_pipeline_config()
    first = forecast.forecast_pipeline(rows, cfg)
    second = forecast.forecast_pipeline(rows, cfg)
    assert json.dumps(first.summary, sort_keys=True) == json.dumps(
        second.summary, sort_keys=True
    )
    summary = first.summary
    assert [e["year"] for e in summary["per_year"]] == list(TREND_YEARS[:4])
    assert summary["forecast"]["year"] == TREND_YEARS[3] + 1
    assert len(first.pseudo) == 4
    assert first.walk.dim == 6
    # pseudo-observations are the componentwise posterior means
    for state, fit in zip(first.pseudo, first.fits):
        assert state == fit.mean_state()


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs RUSAGE_THREAD")
def test_forecast_pipeline_leaves_blas_helper_threads_idle():
    # CPU time of the process minus the calling thread's, around one
    # pipeline call: the BLAS helper threads are the only other threads.
    # scipy.special loads before the window: loading its OpenBLAS spins a
    # helper thread once, which is not the sampler's doing
    script = textwrap.dedent("""
        import resource
        import scipy.special
        from contagion import forecast

        def other_threads_cpu():
            proc = resource.getrusage(resource.RUSAGE_SELF)
            own = resource.getrusage(resource.RUSAGE_THREAD)
            return proc.ru_utime + proc.ru_stime - own.ru_utime - own.ru_stime

        rows = [(year, "en", 4.0 + 0.01 * i, 0.2 + 0.004 * i)
                for year in range(2015, 2019) for i in range(100)]
        config = forecast.SamplerConfig(seed=1, chains=2, warmup=1000, draws=500)
        before = other_threads_cpu()
        forecast.forecast_pipeline(rows, config)
        print(other_threads_cpu() - before)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.05
