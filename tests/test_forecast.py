"""Dynamic-model tests.

scipy.stats appears here only as the reference oracle for the hand-written
densities; the library itself never calls it, so the two routes stay
independent.  The one-state-at-a-time model densities below are the
reference the library's batched targets are checked against.
"""

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
    PosteriorSamples,
    SamplerConfig,
    WalkPosterior,
    YearObservations,
)

from conftest import (
    REPO,
    TREND_YEARS,
    lkj_marginal_cdf,
    sample_lkj_correlation,
    skewnorm_mean,
    trend_rows,
)

GRID = np.linspace(-6.0, 8.0, 301)
POSGRID = np.linspace(1e-3, 12.0, 301)


# -- densities against the reference implementations -------------------------


def test_norm_logpdf_oracle():
    ours = forecast.norm_logpdf(GRID, 1.2, 0.7)
    ref = st.norm.logpdf(GRID, loc=1.2, scale=0.7)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_gamma_logpdf_oracle():
    ours = forecast.gamma_logpdf(POSGRID, 10.0, 1.0)
    ref = st.gamma.logpdf(POSGRID, a=10.0, scale=1.0)  # rate 1 == scale 1
    assert np.max(np.abs(ours - ref)) < 1e-12
    ours = forecast.gamma_logpdf(POSGRID, 3.5, 2.0)
    ref = st.gamma.logpdf(POSGRID, a=3.5, scale=0.5)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_invgamma_logpdf_oracle():
    ours = forecast.invgamma_logpdf(POSGRID, 6.0, 1.0)
    ref = st.invgamma.logpdf(POSGRID, a=6.0, scale=1.0)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_laplace_logpdf_oracle():
    ours = forecast.laplace_logpdf(GRID, 0.3, 0.05)
    ref = st.laplace.logpdf(GRID, loc=0.3, scale=0.05)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_lognormal_logpdf_oracle():
    ours = forecast.lognormal_logpdf(POSGRID, 0.0, 1.0)
    ref = st.lognorm.logpdf(POSGRID, s=1.0, scale=1.0)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_skewnorm_logpdf_oracle():
    for shape in (-3.0, -1.0, 0.0, 1.0, 4.0):
        ours = forecast.skewnorm_logpdf(GRID, 0.5, 1.3, shape)
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
        got = forecast._year_log_target(w, x, r, has_point)
    assert np.all(np.isfinite(got))
    for k in range(2):
        obs = YearObservations(2000, tuple(zip(x[k], r[k])))
        assert got[k] == pytest.approx(_year_log_target_reference(w[k], obs), rel=1e-12)


def test_skewnorm_zero_shape_is_normal():
    x = np.linspace(-8.0, 8.0, 1001)
    sn = forecast.skewnorm_logpdf(x, 5.0, 0.4, 0.0)
    n = forecast.norm_logpdf(x, 5.0, 0.4)
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
        "mu": (np.linspace(-5.0, 15.0, 40001), lambda x: forecast.norm_logpdf(x, 5.0, 1.0)),
        "tau": (np.linspace(1e-9, 60.0, 40001), lambda x: forecast.gamma_logpdf(x, 10.0, 1.0)),
        "alpha": (np.linspace(-9.0, 11.0, 40001), lambda x: forecast.norm_logpdf(x, 1.0, 1.0)),
        "beta": (np.linspace(-10.0, 10.0, 40001), lambda x: forecast.norm_logpdf(x, 0.0, 1.0)),
        "b": (np.linspace(1e-9, 20.0, 40001), lambda x: forecast.invgamma_logpdf(x, 6.0, 1.0)),
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
        forecast.norm_logpdf(z.mu, 5.0, 1.0)
        + forecast.gamma_logpdf(z.tau, 10.0, 1.0)
        + forecast.norm_logpdf(z.alpha, 1.0, 1.0)
        + forecast.norm_logpdf(z.beta0, 0.0, 1.0)
        + forecast.norm_logpdf(z.beta1, 0.0, 1.0)
        + forecast.invgamma_logpdf(z.b, 6.0, 1.0)
    )


def log_likelihood(z: GlmState, obs: YearObservations) -> float:
    if not obs.points:
        return 0.0
    x, r = obs.columns
    omega = z.tau ** -0.5
    volume_term = forecast.skewnorm_logpdf(x, z.mu, omega, z.alpha)
    glm_term = forecast.laplace_logpdf(r, z.beta0 + z.beta1 * x, z.b)
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


def _state(**kw):
    base = dict(mu=5.0, tau=10.0, alpha=1.0, beta0=-1.0, beta1=0.2, b=0.05)
    base.update(kw)
    return GlmState(**base)


def test_log_prior_peak_term():
    # the mu prior term at its mean is the standard normal peak
    assert forecast.norm_logpdf(5.0, 5.0, 1.0) == pytest.approx(
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
    skew = float(forecast.skewnorm_logpdf(x, z.mu, z.tau ** -0.5, z.alpha))
    assert ll - skew == pytest.approx(-math.log(2 * z.b), abs=1e-12)


_YEAR_POINTS = hs.lists(
    hs.tuples(hs.floats(-5.0, 12.0), hs.floats(1e-6, 1.0 - 1e-6)), max_size=12
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
    # ragged and empty years share one padded batch; row k reads year k mod n
    observations = tuple(
        YearObservations(2000 + i, tuple(points)) for i, points in enumerate(years)
    )
    w = np.array(rows)
    year_of_row = np.arange(len(w)) % len(observations)
    x, r, has_point = (a[year_of_row] for a in forecast._padded_columns(observations))
    got = forecast._year_log_target(w, x, r, has_point)
    for k, row in enumerate(w):
        ref = _year_log_target_reference(row, observations[year_of_row[k]])
        if ref == -math.inf:
            assert got[k] == -math.inf
        else:
            assert got[k] == pytest.approx(ref, rel=1e-12, abs=0.0)


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
    assert GlmState.from_array(arr) == z


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
    # PosteriorSamples needs 1000 draws per year; fail before sampling
    with pytest.raises(ValueError, match="need at least 1000 post-warmup draws"):
        SamplerConfig(chains=3, draws=333)
    assert SamplerConfig(chains=1, draws=1000).draws == 1000


def _posterior(year=2019, n=1000, value=1.0):
    draws = {k: np.full(n, value) for k in forecast.PARAM_NAMES}
    return PosteriorSamples(year=year, draws=draws, acceptance=(0.3,), warnings=())


def test_posterior_samples_validation():
    with pytest.raises(ValueError, match="1000"):
        _posterior(n=999)
    bad = {k: np.full(1000, 1.0) for k in forecast.PARAM_NAMES}
    bad["tau"] = np.full(1000, -1.0)
    with pytest.raises(ValueError):
        PosteriorSamples(year=2019, draws=bad, acceptance=(), warnings=())
    uneven = {k: np.full(1000, 1.0) for k in forecast.PARAM_NAMES}
    uneven["mu"] = np.full(1001, 1.0)
    with pytest.raises(ValueError):
        PosteriorSamples(year=2019, draws=uneven, acceptance=(), warnings=())


def test_pseudo_observations_mean_and_order():
    degenerate = _posterior(2018, value=2.5)
    assert degenerate.mean_state() == GlmState(2.5, 2.5, 2.5, 2.5, 2.5, 2.5)
    halves = {k: np.concatenate([np.zeros(500), np.full(500, 2.0)])
              for k in forecast.PARAM_NAMES}
    halves["tau"] = np.abs(halves["tau"]) + 0.5  # stay positive
    halves["b"] = np.abs(halves["b"]) + 0.5
    mixed = PosteriorSamples(year=2019, draws=halves, acceptance=(), warnings=())
    assert mixed.mean_state().mu == 1.0  # mean of {0, 2}
    pseudo = forecast.pseudo_observations([degenerate, mixed])
    assert pseudo[0] == degenerate.mean_state()
    with pytest.raises(ValueError):
        forecast.pseudo_observations([_posterior(2018), _posterior(2020)])


# -- MCMC: per-year fit ---------------------------------------------------------


def test_sample_posterior_deterministic():
    obs = forecast.year_observations(2019, [(5.0, 0.4), (4.8, 0.35), (5.2, 0.5)])
    cfg = SamplerConfig(seed=3, chains=1, warmup=200, draws=1000)
    (a,) = forecast.sample_posterior((obs,), cfg)
    (b,) = forecast.sample_posterior((obs,), cfg)
    for k in forecast.PARAM_NAMES:
        assert np.array_equal(a.draws[k], b.draws[k])
    assert a.acceptance == b.acceptance


def test_sample_posterior_prior_dominance():
    obs = forecast.year_observations(2019, [(5.0, 0.5)])
    cfg = SamplerConfig(seed=4, chains=2, warmup=1000, draws=1000)
    (out,) = forecast.sample_posterior((obs,), cfg)
    assert abs(float(np.mean(out.draws["mu"])) - 5.0) < 0.5


def test_sample_posterior_without_points_samples_prior():
    # the empty year shares its batch with a year of points, so it is all padding
    empty = YearObservations(2019, ())
    full = forecast.year_observations(2020, [(3.0 + 0.01 * i, 0.4) for i in range(50)])
    cfg = SamplerConfig(seed=5, chains=2, warmup=1000, draws=1000)
    out, other = forecast.sample_posterior((empty, full), cfg)
    assert (out.year, other.year) == (2019, 2020)
    assert len(out.acceptance) == len(other.acceptance) == 2
    assert abs(float(np.mean(out.draws["mu"])) - 5.0) < 0.5
    assert float(np.mean(other.draws["mu"])) < 4.0


def test_sample_posterior_synthetic_recovery():
    # known-parameter oracle: beta1 recovered within 3 posterior sd.
    # Points are deliberately NOT filtered to (0,1): with beta0=-1 most of
    # the response range sits outside the unit interval and filtering would
    # bias the slope far below its generating value.
    truth = _state()  # mu 5, tau 10, alpha 1, beta0 -1, beta1 0.2, b 0.05
    rng = np.random.default_rng(2468)
    x = forecast.sample_skewnorm(rng, truth.mu, truth.tau ** -0.5, truth.alpha, 500)
    r = truth.beta0 + truth.beta1 * x + rng.laplace(0.0, truth.b, 500)
    obs = YearObservations(2019, tuple((float(a), float(c)) for a, c in zip(x, r)))
    cfg = SamplerConfig(seed=1, chains=2, warmup=2000, draws=1000)
    (out,) = forecast.sample_posterior((obs,), cfg)
    mean = float(np.mean(out.draws["beta1"]))
    sd = float(np.std(out.draws["beta1"]))
    assert abs(mean - truth.beta1) <= 3 * sd
    assert all(0.1 <= rate <= 0.6 for rate in out.acceptance)
    assert out.warnings == ()


def test_failed_shape_refresh_keeps_that_row_only():
    # row 1 moves both coordinates together by 2**40: its covariance is
    # exactly rank one at a scale where the 1e-12 jitter vanishes, so its
    # Cholesky factorisation fails
    rng = np.random.default_rng(16)
    recent = rng.standard_normal((3, 3, 2))
    big = 2.0**40
    recent[:, 1, :] = np.array([big, -big, 0.0])[:, None]
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
    lp = float(np.sum(forecast.lognormal_logpdf(sigma, 0.0, 1.0)))
    lp += float(np.sum(log_sigma))  # Jacobian of the log transform
    lp += (eta - 1.0) * log_det_r

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
    bundle = forecast.forecast_next(z_t, walk, cfg)
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
