"""Multi-stage Bayesian dynamic GLM for annual (volume, ratio) data.

Stage 1, per year t: model the per-language points (x, r) with
x = log10 of annual message volume and r the annual contagion ratio,
restricted to r in (0, 1):

    x ~ SkewNormal(location mu_t, scale omega_t = tau_t^(-1/2), shape alpha_t)
    r ~ Laplace(location beta0_t + beta1_t * x, scale b_t)

with priors mu ~ Normal(5, 1), tau ~ Gamma(shape 10, rate 1),
alpha ~ Normal(1, 1), beta0, beta1 ~ Normal(0, 1),
b ~ InverseGamma(shape 6, scale 1).  Posteriors come from an adaptive
random-walk Metropolis sampler (positive parameters proposed in log
space with the Jacobian correction).

Stage 2: collapse each year's posterior to its mean vector
z_t = (mu, tau, alpha, beta0, beta1, b) ("pseudo-observations") and fit
a driftless random walk z_t ~ MVN(z_{t-1}, Sigma) with
Sigma = diag(sigma) . R . diag(sigma), sigma ~ LogNormal(0, 1) per
component and R ~ LKJ(eta), density proportional to det(R)^(eta - 1).
R is parameterized by its Cholesky factor L, so every proposal stays in
the positive-definite cone, and the target carries the Jacobian
prod_i L_ii^(5 - i) of the map from L's free entries to R.  The walk's
likelihood sees the T increments y_t = z_t - z_{t-1} only through their
6 x 6 scatter matrix S = sum_t y_t y_t':

    log L = -T/2 (6 log 2 pi + log det Sigma) - tr(Sigma^-1 S) / 2

(zero-mean MVN; Gelman et al., Bayesian Data Analysis, 3rd ed., ch. 3),
so the work per chain does not grow with the number of years.

Stage 3: evolve the walk one step, draw a synthetic volume sample from
the stepped skew-normal, push it through the stepped GLM, and report
predictive quantiles.

Chains run in lockstep: one sampler kernel steps a batch of chains as
the rows of an array, every (year, chain) pair of stage 1 in one batch
and every walk chain in another.  Each target is written out by hand
as closed forms in the sampled (log-space) coordinates, term by term
against the model statement above.  Stage 1 reads each year's points
through sufficient statistics built once per call (n, mean, residual
sum and centred sum of squares of x), so a step makes only two passes
over the points: log Phi of the skew-normal's shape term and the
Laplace residuals |r - beta0 - beta1 x|.  The only scipy in the module
is scipy.special's ndtr and log_ndtr, imported inside log_norm_cdf, so
importing this module does not load scipy; the CLI imports this module
(and with it numpy) only in the ``forecast`` command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, Iterable, Sequence, Tuple

import numpy as np

from .sampler import SamplerConfig

PARAM_NAMES = ("mu", "tau", "alpha", "beta0", "beta1", "b")
QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

_LOG_2PI = math.log(2.0 * math.pi)

# spawn_key stage tags keeping every pipeline phase on its own rng stream
_STAGE_YEARS = 999961
_STAGE_WALK = 999983
_STAGE_FORECAST = 999979

# acceptance rate the warmup step size chases
_TARGET_ACCEPT = 0.3


# ---------------------------------------------------------------------------
# densities


def log_norm_cdf(a):
    """log Phi(a), the standard normal log CDF.

    log(ndtr(a)) for a >= -20, where it agrees with scipy's log_ndtr
    within about 1e-15 x max(1, |log Phi(a)|) at two thirds of the cost;
    log_ndtr on the entries below, where ndtr loses its relative
    precision and then (past a = -38.5) underflows to 0.
    """
    from scipy.special import log_ndtr, ndtr

    a = np.asarray(a, dtype=float)
    low = a < -20.0
    out = ndtr(a, out=np.empty(a.shape))
    if low.any():
        np.log(out, out=out, where=~low)
        out[low] = log_ndtr(a[low])
    else:
        np.log(out, out=out)
    return out


def sample_skewnorm(rng: np.random.Generator, loc, scale, shape, size):
    """Draw via the |N| + N representation of the skew-normal.

    The parameters broadcast against ``size``, so one call can draw a
    cloud for each of many parameter vectors.
    """
    delta = shape / np.sqrt(1.0 + shape * shape)
    u0 = rng.standard_normal(size)
    u1 = rng.standard_normal(size)
    return loc + scale * (delta * np.abs(u0) + np.sqrt(1.0 - delta * delta) * u1)


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class GlmState:
    """One year's parameter vector z = (mu, tau, alpha, beta0, beta1, b)."""

    mu: float
    tau: float
    alpha: float
    beta0: float
    beta1: float
    b: float

    def __post_init__(self) -> None:
        if not (self.tau > 0):
            raise ValueError("tau must be positive")
        if not (self.b > 0):
            raise ValueError("b must be positive")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.mu, self.tau, self.alpha, self.beta0, self.beta1, self.b]
        )


@dataclass(frozen=True)
class YearObservations:
    year: int
    points: Tuple[Tuple[float, float], ...]  # (log10_n, ratio), ratio in (0, 1)

    @cached_property
    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, r) arrays of the points, built once."""
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        return pts[:, 0], pts[:, 1]


def year_observations(
    year: int, points: Iterable[Tuple[float, float]]
) -> YearObservations:
    """Build YearObservations from points with ratio in (0, 1); non-finite log10_n raises."""
    pairs = [(float(x), float(r)) for x, r in points]
    if not all(math.isfinite(x) for x, _ in pairs):
        raise ValueError("year %d: non-finite log10_n" % int(year))
    return YearObservations(int(year), tuple((x, r) for x, r in pairs if 0.0 < r < 1.0))


def observations_from_rows(
    rows: Iterable[Tuple[int, str, float, float]]
) -> Tuple[YearObservations, ...]:
    """Group (year, language, log10_n, ratio) rows into per-year observations.

    This is the annual analytics export; the language column only matters
    for bookkeeping upstream and is dropped here.
    """
    by_year: Dict[int, list] = {}
    for year, _, log10_n, ratio in rows:
        by_year.setdefault(int(year), []).append((float(log10_n), float(ratio)))
    return tuple(
        year_observations(year, by_year[year]) for year in sorted(by_year)
    )


def _padded_columns(
    observations: Sequence[YearObservations],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _volume_stats(
    x: np.ndarray, has_point: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row's (n, mean, residual sum, centred sum of squares) over its points.

    The residual sum sum(x - mean) is 0 but for the mean's rounding;
    keeping it makes
    sum((x - mu)^2) = Sxx + (mean - mu) * (2 * residual + n * (mean - mu))
    exact for any computed mean, so no digits are lost when mu sits
    near a mean far from 0.
    """
    n = np.count_nonzero(has_point, axis=1)
    mean = np.sum(x, axis=1, where=has_point) / np.maximum(n, 1)
    dev = x - mean[:, None]
    resid = np.sum(dev, axis=1, where=has_point)
    sxx = np.sum(dev * dev, axis=1, where=has_point)
    return n, mean, resid, sxx


# the priors' normalising constants: four unit normals, Gamma(10, rate 1)
# and InverseGamma(6, scale 1)
_LOG_PRIOR_CONST = -2.0 * _LOG_2PI - math.lgamma(10.0) - math.lgamma(6.0)


def _year_log_target(
    w: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
    has_point: np.ndarray,
    stats: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Stage-1 log posterior of each row of w = (mu, log tau, alpha, beta0, beta1, log b).

    Row k sees the points x[k], r[k] where has_point[k]; stats are
    _volume_stats(x, has_point).  With the + log tau + log b Jacobian
    the priors are closed forms in (log tau, log b):

        -((mu - 5)^2 + (alpha - 1)^2 + beta0^2 + beta1^2) / 2
        + 10 log tau - tau - 6 log b - 1/b + const.

    The skew-normal's Gaussian part is
    n (log 2 + log tau / 2 - log 2 pi / 2) - tau sum((x - mu)^2) / 2,
    from the stats, and the Laplace part -n log 2b - sum|r - beta0 - beta1 x| / b
    (Gelman et al., Bayesian Data Analysis, 3rd ed., ch. 3), so only
    log Phi(alpha sqrt(tau) (x - mu)) and |r - beta0 - beta1 x| run per
    point.  A row with |log tau| or |log b| above 500 has density 0.
    Padded points are left out of the sum by its mask, never multiplied
    by 0, so a non-finite term there cannot turn the row's sum into nan.
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
    closed -= 0.5 * (quad + n * _LOG_2PI)
    shape = x - mu[:, None]
    shape *= (alpha * np.sqrt(tau))[:, None]
    per_point = log_norm_cdf(shape)
    fit = beta1[:, None] * x
    fit += beta0[:, None]
    np.subtract(r, fit, out=fit)
    np.abs(fit, out=fit)
    fit *= inv_b[:, None]
    per_point -= fit
    closed += np.sum(per_point, axis=1, where=has_point)
    return np.where(inside, closed + _LOG_PRIOR_CONST, -np.inf)


# ---------------------------------------------------------------------------
# sampler core


@dataclass(frozen=True)
class PosteriorSamples:
    """Post-warmup draws in natural parameter space, chains concatenated."""

    year: int
    draws: Dict[str, np.ndarray]
    acceptance: Tuple[float, ...]
    warnings: Tuple[str, ...]

    def __post_init__(self) -> None:
        sizes = {v.shape for v in self.draws.values()}
        if len(sizes) != 1:
            raise ValueError("draw arrays must share one length")
        if np.any(self.draws["tau"] <= 0) or np.any(self.draws["b"] <= 0):
            raise ValueError("tau and b draws must be positive")
        if self.size < 1000:
            raise ValueError("need at least 1000 post-warmup draws")

    @property
    def size(self) -> int:
        return int(next(iter(self.draws.values())).shape[0])

    def mean_state(self) -> GlmState:
        return GlmState(*(float(np.mean(self.draws[k])) for k in PARAM_NAMES))


def _stage_rng(seed: int, stage: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stage,))
    )


def _refresh_shapes(
    recent: np.ndarray,
    prop_chol: np.ndarray,
    log_step: np.ndarray,
    rm_clock: np.ndarray,
) -> None:
    """Refit each row's proposal shape to its recent (n, K, d) trace, in place.

    A row whose empirical covariance has no finite Cholesky factor (a
    degenerate trace, or one holding a non-finite state) keeps its
    previous shape, step size and Robbins-Monro clock.
    """
    n, k, dim = recent.shape
    with np.errstate(invalid="ignore"):  # inf - inf or inf * 0 in a non-finite row
        centered = recent - recent.mean(axis=0)
        cov = np.einsum("nki,nkj->kij", centered, centered) / (n - 1)
    cov += 1e-12 * np.eye(dim)
    for i in range(k):
        try:
            factor = np.linalg.cholesky(cov[i])
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(factor).all():  # cholesky returns nan for a nan cov
            continue
        prop_chol[i] = factor
        log_step[i] = math.log(2.38 / math.sqrt(dim))
        rm_clock[i] = 0


def _metropolis(
    log_target: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    rng: np.random.Generator,
    config: SamplerConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive random-walk Metropolis over the K rows of x0, in lockstep.

    Each row of the (K, d) state is its own chain with its own step size
    and proposal shape; log_target maps a (K, d) batch to K log
    densities.  Warmup interleaves two adaptations, row by row: a
    Robbins-Monro step size chasing the target acceptance rate, and (at
    1/2 and 3/4 of warmup) a proposal shape taken from the empirical
    covariance of the recent trace (Haario et al., Bernoulli 2001), which
    handles the strong beta0/beta1-style ridges a diagonal proposal
    cannot.  Everything freezes when sampling starts, so each post-warmup
    chain is a valid time-homogeneous Metropolis kernel.  Every step
    draws one (K, d) normal block and K uniforms from rng.

    Returns the (K, draws, d) post-warmup states and each row's
    acceptance rate.  A proposal whose target is nan or +inf is rejected.
    """
    warmup, draws = config.warmup, config.draws
    k, dim = x0.shape
    x = x0.copy()
    lp = log_target(x)
    if not np.all(np.isfinite(lp)):
        raise ValueError("initial state has zero posterior density")
    log_step = np.full(k, math.log(0.1))
    step_size = np.exp(log_step)[:, None]
    prop_chol = np.tile(np.eye(dim), (k, 1, 1))
    rm_clock = np.zeros(k)
    refreshes = {warmup // 2, (3 * warmup) // 4} if warmup >= 1000 else set()
    trace = np.empty((warmup, k, dim))
    out = np.empty((draws, k, dim))
    accepted = np.zeros(k)
    for t in range(warmup + draws):
        proposal = np.einsum("kij,kj->ki", prop_chol, rng.standard_normal((k, dim)))
        proposal *= step_size
        proposal += x
        lp_prop = log_target(proposal)
        # nan compares false; +inf would pass the draw, so it is ruled out
        ok = np.log(np.maximum(rng.random(k), 1e-300)) < lp_prop - lp
        ok &= lp_prop < np.inf
        np.copyto(x, proposal, where=ok[:, None])
        np.copyto(lp, lp_prop, where=ok)
        if t < warmup:
            rm_clock += 1
            log_step += rm_clock**-0.6 * (ok - _TARGET_ACCEPT)
            trace[t] = x
            if t + 1 in refreshes:
                _refresh_shapes(trace[(t + 1) // 2 : t + 1], prop_chol, log_step, rm_clock)
            step_size = np.exp(log_step)[:, None]
        else:
            out[t - warmup] = x
            accepted += ok
    return out.transpose(1, 0, 2), accepted / draws


def _acceptance_warnings(rates: Sequence[float], stage: str) -> Tuple[str, ...]:
    return tuple(
        "%s chain %d acceptance rate %.3f outside [0.1, 0.6]" % (stage, c, rate)
        for c, rate in enumerate(rates)
        if not (0.1 <= rate <= 0.6)
    )


def sample_posterior(
    observations: Sequence[YearObservations], config: SamplerConfig
) -> Tuple[PosteriorSamples, ...]:
    """Fit every year's model by MCMC; one PosteriorSamples per year, in order.

    The chains walk (mu, log tau, alpha, beta0, beta1, log b); the log
    transforms keep proposals inside the support and add the usual
    + log tau + log b Jacobian term to the target.  All years x chains
    run as one lockstep batch on one random stream, so a year's draws
    depend on which other years share the call.
    """
    chains, n_years = config.chains, len(observations)
    x, r, has_point = (
        np.repeat(a, chains, axis=0) for a in _padded_columns(observations)
    )
    rng = _stage_rng(config.seed, _STAGE_YEARS)
    base = np.array([5.0, math.log(10.0), 1.0, 0.0, 0.0, math.log(0.2)])
    starts = base + 0.1 * rng.standard_normal((n_years * chains, 6))
    stats = _volume_stats(x, has_point)
    samples, rates = _metropolis(
        lambda w: _year_log_target(w, x, r, has_point, stats), starts, rng, config
    )
    samples = samples.reshape(n_years, chains * config.draws, 6)
    rates = rates.reshape(n_years, chains)

    fits = []
    for obs, year_samples, year_rates in zip(observations, samples, rates):
        draws = dict(zip(PARAM_NAMES, year_samples.T))
        draws["tau"], draws["b"] = np.exp(draws["tau"]), np.exp(draws["b"])
        acceptance = tuple(float(v) for v in year_rates)
        fits.append(
            PosteriorSamples(
                year=obs.year,
                draws=draws,
                acceptance=acceptance,
                warnings=_acceptance_warnings(acceptance, "year %d" % obs.year),
            )
        )
    return tuple(fits)


def pseudo_observations(
    per_year: Sequence[PosteriorSamples],
) -> Tuple[GlmState, ...]:
    """Collapse each year's posterior to its componentwise mean vector."""
    years = [s.year for s in per_year]
    if any(b != a + 1 for a, b in zip(years, years[1:])):
        raise ValueError("posteriors must cover consecutive years")
    return tuple(s.mean_state() for s in per_year)


# ---------------------------------------------------------------------------
# random-walk stage


@dataclass(frozen=True)
class WalkPosterior:
    """Walk covariance draws: Sigma = diag(sigma) . R . diag(sigma)."""

    dim: int
    sigma: np.ndarray  # (S, dim)
    chol_corr: np.ndarray  # (S, dim, dim) lower-triangular Cholesky of R
    acceptance: Tuple[float, ...]
    warnings: Tuple[str, ...]

    @property
    def size(self) -> int:
        return int(self.sigma.shape[0])


def _chol_from_free(y: np.ndarray, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Lower-triangular correlation Cholesky factors from free entries.

    Row s of y holds the below-diagonal entries of factor s, row by row.
    Returns the (S, dim, dim) factors and whether each is valid: every
    row must fit inside the unit ball.  An invalid factor gets a unit
    diagonal where its rows do not fit, so it stays finite.
    """
    rows, cols = _below_diagonal(dim)
    l_r = np.zeros((y.shape[0], dim, dim))
    l_r[:, rows, cols] = y
    ss = np.einsum("sij,sij->si", l_r, l_r)
    inside = ss < 1.0
    diag = np.arange(dim)
    l_r[:, diag, diag] = np.sqrt(np.where(inside, 1.0 - ss, 1.0))
    return l_r, inside.all(axis=1)


@lru_cache(maxsize=None)
def _below_diagonal(dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only (row, column) indices of the below-diagonal entries, row by row.

    Cached: np.tril_indices costs more than the fill it serves.
    """
    rows, cols = np.tril_indices(dim, k=-1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _walk_log_target(
    w: np.ndarray, increments: np.ndarray, dim: int, eta: float
) -> np.ndarray:
    """Log density of each row of w = (log sigma, free Cholesky entries).

    Likelihood: product over the n steps of MVN(increment; 0, Sigma),
    whose quadratic term sum_n y_n' Sigma^-1 y_n is the squared norm of
    Y N for Sigma^-1 = N N', and log det Sigma = 2 sum log sigma +
    log det R.  Priors: sigma_i ~ LogNormal(0, 1), which with the
    log-space Jacobian is -(log sigma_i)^2 / 2 - log(2 pi) / 2 in
    log sigma, and R ~ LKJ(eta) through its density det(R)^(eta - 1)
    times the Jacobian prod_i L_ii^(dim - 1 - i) (0-indexed rows) of the
    map from L's free entries to R, so each off-diagonal of R is
    Beta(eta - 1 + dim / 2, eta - 1 + dim / 2) on [-1, 1].
    """
    l_r, valid = _chol_from_free(w[:, dim:], dim)
    log_sigma = w[:, :dim]
    ok = valid & np.all(np.abs(log_sigma) <= 500, axis=1)
    log_sigma = np.where(ok[:, None], log_sigma, 0.0)  # finite stand-in for -inf rows
    n_steps = increments.shape[0]

    log_diag = np.log(np.diagonal(l_r, axis1=1, axis2=2))
    # the prior's -(log sigma)^2 / 2 and the likelihood's -n log sigma, per entry
    lp = -0.5 * np.einsum("ki,ki->k", log_sigma, log_sigma + 2.0 * n_steps)
    # log det R = 2 sum_i log L_ii enters as (eta - 1 - n / 2) log det R, and
    # the LKJ Jacobian adds (dim - 1 - i) log L_ii
    lp += log_diag @ ((2.0 * eta - 2.0 - n_steps) + (dim - 1.0 - np.arange(dim)))
    lp -= 0.5 * (n_steps + 1) * dim * _LOG_2PI
    if n_steps:
        # Sigma = D L_R L_R' D with D = diag(sigma), so Sigma^-1 = N N' for
        # N = D^-1 L_R'^-1.  L_R' is upper triangular, so its LU pivots
        # nothing and the solve is plain back substitution; solving Sigma or
        # R itself loses digits near the unit-ball edge and can fail as singular
        eye = np.eye(dim)[None]  # a stack of one matrix (numpy 1.24 reads 2-d b as vectors)
        root = np.linalg.solve(l_r.transpose(0, 2, 1), eye)
        root /= np.exp(log_sigma)[:, :, None]
        y_root = increments @ root
        lp -= 0.5 * np.einsum("kna,kna->k", y_root, y_root)
    return np.where(ok, lp, -np.inf)


def _fit_walk_from_increments(
    increments: np.ndarray, config: SamplerConfig, dim: int
) -> WalkPosterior:
    n_free = dim * (dim - 1) // 2
    rng = _stage_rng(config.seed, _STAGE_WALK)
    base = np.concatenate([np.full(dim, -1.0), np.zeros(n_free)])
    starts = base + 0.05 * rng.standard_normal((config.chains, dim + n_free))
    samples, rates = _metropolis(
        lambda w: _walk_log_target(w, increments, dim, config.eta), starts, rng, config
    )
    samples = samples.reshape(-1, dim + n_free)
    chol_corr, valid = _chol_from_free(samples[:, dim:], dim)
    assert valid.all()  # accepted states are always valid
    acceptance = tuple(float(v) for v in rates)
    return WalkPosterior(
        dim=dim,
        sigma=np.exp(samples[:, :dim]),
        chol_corr=chol_corr,
        acceptance=acceptance,
        warnings=_acceptance_warnings(acceptance, "walk"),
    )


def fit_random_walk(
    pseudo: Sequence[GlmState], config: SamplerConfig
) -> WalkPosterior:
    """Fit the intertemporal covariance from consecutive pseudo-observations."""
    if len(pseudo) < 3:
        raise ValueError("need at least 3 pseudo-observations")
    states = np.stack([z.as_array() for z in pseudo])
    increments = np.diff(states, axis=0)
    return _fit_walk_from_increments(increments, config, states.shape[1])


# ---------------------------------------------------------------------------
# forecasting


@dataclass(frozen=True)
class ForecastBundle:
    """One-step-ahead draws and their summary quantiles."""

    year: int
    state_draws: Dict[str, np.ndarray]
    log10_n: np.ndarray  # predictive volume cloud
    ratio: np.ndarray  # predictive ratio cloud, aligned with log10_n
    state_quantiles: Dict[str, Dict[str, float]]
    predictive_quantiles: Dict[str, Dict[str, float]]
    n_draws: int
    n_rejected: int


def _quantile_dict(values: np.ndarray) -> Dict[str, float]:
    qs = np.quantile(values, QUANTILES)
    return {"q%02d" % int(q * 100): float(v) for q, v in zip(QUANTILES, qs)}


def forecast_next(
    pseudo_last: GlmState,
    walk: WalkPosterior,
    config: SamplerConfig,
    year: int,
) -> ForecastBundle:
    """Evolve the walk one step per posterior draw and simulate the GLM.

    Steps whose tau or b lands nonpositive are redrawn a bounded number
    of times (the walk is unconstrained but the model's support is not);
    a draw that never lands in the support is dropped and counted.
    """
    rng = _stage_rng(config.seed, _STAGE_FORECAST)
    chol = walk.sigma[:, :, None] * walk.chol_corr
    z_t = pseudo_last.as_array()

    states = np.empty((walk.size, walk.dim))
    pending = np.arange(walk.size)
    for _ in range(100):
        if not pending.size:
            break
        cand = z_t + np.einsum(
            "sij,sj->si", chol[pending], rng.standard_normal((pending.size, walk.dim))
        )
        landed = (cand[:, 1] > 0) & (cand[:, 5] > 0)
        states[pending[landed]] = cand[landed]
        pending = pending[~landed]
    if pending.size == walk.size:
        raise ValueError("no forecast draw landed in the model's support")
    z_next = np.delete(states, pending, axis=0)

    mu, tau, alpha, beta0, beta1, b = (col[:, None] for col in z_next.T)
    size = (z_next.shape[0], config.points_per_draw)
    log10_n = sample_skewnorm(rng, mu, tau**-0.5, alpha, size)
    ratio = beta0 + beta1 * log10_n + rng.laplace(0.0, b, size=size)

    state_draws = {name: z_next[:, k] for k, name in enumerate(PARAM_NAMES)}
    flat_x, flat_r = log10_n.ravel(), ratio.ravel()
    return ForecastBundle(
        year=year,
        state_draws=state_draws,
        log10_n=flat_x,
        ratio=flat_r,
        state_quantiles={k: _quantile_dict(v) for k, v in state_draws.items()},
        predictive_quantiles={
            "log10_n": _quantile_dict(flat_x),
            "ratio": _quantile_dict(flat_r),
        },
        n_draws=int(z_next.shape[0]),
        n_rejected=int(pending.size),
    )


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class PipelineResult:
    """All stages of one pipeline run plus a JSON-ready summary."""

    summary: dict
    fits: Tuple[PosteriorSamples, ...]
    pseudo: Tuple[GlmState, ...]
    walk: WalkPosterior
    bundle: ForecastBundle


def forecast_pipeline(
    rows: Iterable[Tuple[int, str, float, float]], config: SamplerConfig
) -> PipelineResult:
    """Annual export rows -> per-year fits -> walk -> forecast.

    The result's summary is JSON-ready: per-year posterior summaries,
    pseudo-observations, walk posterior summaries and forecast quantiles.
    """
    observations = observations_from_rows(rows)
    observations = tuple(o for o in observations if o.points)
    if len(observations) < 3:
        raise ValueError("need at least 3 years with usable observations")
    years = [o.year for o in observations]
    if any(b != a + 1 for a, b in zip(years, years[1:])):
        raise ValueError("years must be consecutive, got %s" % (years,))

    fits = sample_posterior(observations, config)
    pseudo = pseudo_observations(fits)
    walk = fit_random_walk(pseudo, config)
    bundle = forecast_next(pseudo[-1], walk, config, year=years[-1] + 1)

    per_year = []
    for obs, fit in zip(observations, fits):
        per_year.append(
            {
                "year": obs.year,
                "n_points": len(obs.points),
                "posterior_mean": {
                    k: float(np.mean(fit.draws[k])) for k in PARAM_NAMES
                },
                "posterior_sd": {
                    k: float(np.std(fit.draws[k])) for k in PARAM_NAMES
                },
                "acceptance": list(fit.acceptance),
                "warnings": list(fit.warnings),
            }
        )

    corr_mean = np.mean(
        np.einsum("sij,skj->sik", walk.chol_corr, walk.chol_corr), axis=0
    )
    summary = {
        "seed": config.seed,
        "sampler": {
            "chains": config.chains,
            "warmup": config.warmup,
            "draws": config.draws,
            "eta": config.eta,
        },
        "per_year": per_year,
        "pseudo_observations": [
            dict(zip(PARAM_NAMES, (float(v) for v in z.as_array())))
            | {"year": year}
            for year, z in zip(years, pseudo)
        ],
        "walk": {
            "sigma_mean": [float(v) for v in np.mean(walk.sigma, axis=0)],
            "sigma_sd": [float(v) for v in np.std(walk.sigma, axis=0)],
            "corr_mean": [[float(v) for v in row] for row in corr_mean],
            "acceptance": list(walk.acceptance),
            "warnings": list(walk.warnings),
        },
        "forecast": {
            "year": bundle.year,
            "n_draws": bundle.n_draws,
            "n_rejected": bundle.n_rejected,
            "state_quantiles": bundle.state_quantiles,
            "predictive_quantiles": bundle.predictive_quantiles,
        },
    }
    return PipelineResult(
        summary=summary, fits=fits, pseudo=pseudo, walk=walk, bundle=bundle
    )
