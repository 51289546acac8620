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
R is parameterized by its Cholesky factor so every proposal stays in
the positive-definite cone.

Stage 3: evolve the walk one step, draw a synthetic volume sample from
the stepped skew-normal, push it through the stepped GLM, and report
predictive quantiles.

Densities are written out by hand (only scipy.special primitives) so
each term is auditable against the model statement above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln, log_ndtr

PARAM_NAMES = ("mu", "tau", "alpha", "beta0", "beta1", "b")
QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

_LOG_2PI = math.log(2.0 * math.pi)

# spawn_key stage tags keeping every pipeline phase on its own rng stream
_STAGE_WALK = 999983
_STAGE_FORECAST = 999979


# ---------------------------------------------------------------------------
# densities


def norm_logpdf(x, mean: float, sd: float):
    z = (np.asarray(x, dtype=float) - mean) / sd
    return -0.5 * z * z - math.log(sd) - 0.5 * _LOG_2PI


def gamma_logpdf(x, shape: float, rate: float):
    """Gamma in the (shape, rate) convention: mean = shape / rate."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    ok = x > 0
    xv = x[ok]
    out[ok] = (
        shape * math.log(rate)
        + (shape - 1.0) * np.log(xv)
        - rate * xv
        - gammaln(shape)
    )
    return out if out.shape else float(out)


def invgamma_logpdf(x, shape: float, scale: float):
    """Inverse-Gamma in the (shape, scale) convention: mode = scale/(shape+1)."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    ok = x > 0
    xv = x[ok]
    out[ok] = (
        shape * math.log(scale)
        - (shape + 1.0) * np.log(xv)
        - scale / xv
        - gammaln(shape)
    )
    return out if out.shape else float(out)


def laplace_logpdf(x, loc, scale):
    return -np.log(2.0 * scale) - np.abs(np.asarray(x, dtype=float) - loc) / scale


def lognormal_logpdf(x, mean: float, sd: float):
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    ok = x > 0
    lx = np.log(x[ok])
    out[ok] = (
        -lx - math.log(sd) - 0.5 * _LOG_2PI - (lx - mean) ** 2 / (2.0 * sd * sd)
    )
    return out if out.shape else float(out)


def skewnorm_logpdf(x, loc: float, scale: float, shape: float):
    """log of 2/scale * phi((x-loc)/scale) * Phi(shape*(x-loc)/scale)."""
    z = (np.asarray(x, dtype=float) - loc) / scale
    return (
        math.log(2.0)
        - math.log(scale)
        - 0.5 * z * z
        - 0.5 * _LOG_2PI
        + log_ndtr(shape * z)
    )


def skewnorm_mean(loc: float, scale: float, shape: float) -> float:
    """E[X] = loc + scale * delta * sqrt(2/pi), delta = shape/sqrt(1+shape^2)."""
    delta = shape / math.sqrt(1.0 + shape * shape)
    return loc + scale * delta * math.sqrt(2.0 / math.pi)


def sample_skewnorm(rng: np.random.Generator, loc: float, scale: float, shape: float, size: int):
    """Draw via the |N| + N representation of the skew-normal."""
    delta = shape / math.sqrt(1.0 + shape * shape)
    u0 = rng.standard_normal(size)
    u1 = rng.standard_normal(size)
    return loc + scale * (delta * np.abs(u0) + math.sqrt(1.0 - delta * delta) * u1)


def sample_lkj_correlation(eta: float, size: int, seed: int = 0) -> np.ndarray:
    """Off-diagonal draws of a 2x2 LKJ(eta) correlation matrix.

    In two dimensions the off-diagonal r has density proportional to
    (1 - r^2)^(eta - 1), i.e. r = 2u - 1 with u ~ Beta(eta, eta).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    return 2.0 * rng.beta(eta, eta, size=size) - 1.0


def lkj_marginal_cdf(r, eta: float = 2.0) -> np.ndarray:
    """CDF of the 2x2 LKJ off-diagonal marginal.

    Closed form for eta = 2 (density 0.75 * (1 - r^2) on [-1, 1]):
    F(r) = 0.75 * (r - r^3/3 + 2/3).
    """
    r = np.asarray(r, dtype=float)
    if eta == 2.0:
        return 0.75 * (r - r**3 / 3.0 + 2.0 / 3.0)
    from scipy.special import betainc

    return betainc(eta, eta, (r + 1.0) / 2.0)


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

    @classmethod
    def from_array(cls, z: Sequence[float]) -> "GlmState":
        return cls(*(float(v) for v in z))


@dataclass(frozen=True)
class YearObservations:
    year: int
    points: Tuple[Tuple[float, float], ...]  # (log10_n, ratio), ratio in (0, 1)

    @cached_property
    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, r) arrays of the points, built once for every likelihood call."""
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


# ---------------------------------------------------------------------------
# sampler core


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    chains: int = 4
    warmup: int = 5000
    draws: int = 5000
    target_accept: float = 0.3
    eta: float = 2.0  # LKJ concentration for the walk stage
    points_per_draw: int = 10  # synthetic volume points per forecast draw

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.chains < 1 or self.warmup < 0 or self.draws < 1:
            raise ValueError("bad sampler size settings")
        if not (0.0 < self.target_accept < 1.0):
            raise ValueError("target_accept must be in (0, 1)")
        if self.eta <= 0 or self.points_per_draw < 1:
            raise ValueError("eta and points_per_draw must be positive")


@dataclass(frozen=True)
class PosteriorSamples:
    """Post-warmup draws in natural parameter space, chains concatenated."""

    year: int
    draws: Dict[str, np.ndarray]
    acceptance: Tuple[float, ...]
    warnings: Tuple[str, ...]
    seed: int

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


def _chain_rng(seed: int, stage: int, chain: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stage, chain))
    )


def _run_chain(
    log_target: Callable[[np.ndarray], float],
    x0: np.ndarray,
    rng: np.random.Generator,
    warmup: int,
    draws: int,
    target_accept: float,
) -> Tuple[np.ndarray, float]:
    """Adaptive random-walk Metropolis over an unconstrained vector.

    Warmup interleaves two adaptations: a Robbins-Monro global step size
    chasing the target acceptance rate, and (at 1/2 and 3/4 of warmup) a
    proposal shape taken from the empirical covariance of the recent
    trace, which handles the strong beta0/beta1-style ridges a diagonal
    proposal cannot.  Everything freezes when sampling starts, so the
    post-warmup chain is a valid time-homogeneous Metropolis kernel.
    """
    dim = x0.shape[0]
    x = x0.copy()
    lp = log_target(x)
    if not np.isfinite(lp):
        raise ValueError("initial state has zero posterior density")
    log_step = math.log(0.1)
    prop_chol = np.eye(dim)
    refreshes = {warmup // 2, (3 * warmup) // 4} if warmup >= 1000 else set()
    trace: list = []
    rm_clock = 0
    out = np.empty((draws, dim))
    accepted = 0
    for t in range(warmup + draws):
        proposal = x + math.exp(log_step) * (prop_chol @ rng.standard_normal(dim))
        lp_prop = log_target(proposal)
        if not np.isfinite(lp_prop):
            lp_prop = -math.inf
        ok = math.log(max(rng.random(), 1e-300)) < lp_prop - lp
        if ok:
            x, lp = proposal, lp_prop
        if t < warmup:
            rm_clock += 1
            log_step += rm_clock**-0.6 * ((1.0 if ok else 0.0) - target_accept)
            trace.append(x.copy())
            if t + 1 in refreshes:
                recent = np.asarray(trace[len(trace) // 2 :])
                cov = np.atleast_2d(np.cov(recent.T)) + 1e-12 * np.eye(dim)
                try:
                    prop_chol = np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    pass  # degenerate trace; keep the previous shape
                else:
                    log_step = math.log(2.38 / math.sqrt(dim))
                    rm_clock = 0
        else:
            out[t - warmup] = x
            accepted += ok
    return out, accepted / draws


def _run_chains(
    log_target: Callable[[np.ndarray], float],
    starts: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    config: SamplerConfig,
) -> Tuple[np.ndarray, Tuple[float, ...]]:
    """Run the chains one after another; draws concatenate in chain order."""
    results = [
        _run_chain(log_target, x0, rng, config.warmup, config.draws, config.target_accept)
        for x0, rng in zip(starts, rngs)
    ]
    samples = np.concatenate([r[0] for r in results], axis=0)
    rates = tuple(r[1] for r in results)
    return samples, rates


def _acceptance_warnings(rates: Sequence[float], stage: str) -> Tuple[str, ...]:
    return tuple(
        "%s chain %d acceptance rate %.3f outside [0.1, 0.6]" % (stage, c, rate)
        for c, rate in enumerate(rates)
        if not (0.1 <= rate <= 0.6)
    )


def sample_posterior(obs: YearObservations, config: SamplerConfig) -> PosteriorSamples:
    """Fit one year's model by MCMC.

    The chain walks (mu, log tau, alpha, beta0, beta1, log b); the log
    transforms keep proposals inside the support and add the usual
    + log tau + log b Jacobian term to the target.
    """

    def log_target(w: np.ndarray) -> float:
        mu, log_tau, alpha, beta0, beta1, log_b = w
        if abs(log_tau) > 500 or abs(log_b) > 500:
            return -math.inf
        z = GlmState(mu, math.exp(log_tau), alpha, beta0, beta1, math.exp(log_b))
        return log_posterior(z, obs) + log_tau + log_b

    base = np.array([5.0, math.log(10.0), 1.0, 0.0, 0.0, math.log(0.2)])
    rngs = [_chain_rng(config.seed, obs.year, c) for c in range(config.chains)]
    starts = [base + 0.1 * rng.standard_normal(6) for rng in rngs]
    samples, rates = _run_chains(log_target, starts, rngs, config)

    draws = {
        "mu": samples[:, 0],
        "tau": np.exp(samples[:, 1]),
        "alpha": samples[:, 2],
        "beta0": samples[:, 3],
        "beta1": samples[:, 4],
        "b": np.exp(samples[:, 5]),
    }
    return PosteriorSamples(
        year=obs.year,
        draws=draws,
        acceptance=rates,
        warnings=_acceptance_warnings(rates, "year %d" % obs.year),
        seed=config.seed,
    )


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
class RandomWalkParams:
    """One draw of the walk covariance: Sigma = diag(sigma) . R . diag(sigma)."""

    sigma: np.ndarray
    corr: np.ndarray
    chol: np.ndarray  # lower triangular, chol @ chol.T == Sigma

    def covariance(self) -> np.ndarray:
        return self.chol @ self.chol.T


@dataclass(frozen=True)
class WalkPosterior:
    dim: int
    eta: float
    sigma: np.ndarray  # (S, dim)
    chol_corr: np.ndarray  # (S, dim, dim) lower-triangular Cholesky of R
    acceptance: Tuple[float, ...]
    warnings: Tuple[str, ...]
    seed: int

    @property
    def size(self) -> int:
        return int(self.sigma.shape[0])

    def params(self, i: int) -> RandomWalkParams:
        sigma = self.sigma[i]
        l_r = self.chol_corr[i]
        return RandomWalkParams(
            sigma=sigma, corr=l_r @ l_r.T, chol=sigma[:, None] * l_r
        )


def _chol_from_free(y: np.ndarray, dim: int) -> Optional[np.ndarray]:
    """Lower-triangular correlation Cholesky from the free below-diagonal
    entries; rows must fit inside the unit ball or the point is invalid."""
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


def _walk_log_target(
    w: np.ndarray, increments: np.ndarray, dim: int, eta: float
) -> float:
    """Log density over w = (log sigma, free Cholesky entries).

    Likelihood: product over steps of MVN(increment; 0, Sigma).
    Priors: sigma_i ~ LogNormal(0, 1) (plus the log-space Jacobian) and
    R ~ LKJ(eta) through its density det(R)^(eta - 1).
    """
    log_sigma = w[:dim]
    if np.any(np.abs(log_sigma) > 500):
        return -math.inf
    sigma = np.exp(log_sigma)
    l_r = _chol_from_free(w[dim:], dim)
    if l_r is None:
        return -math.inf

    log_det_r = 2.0 * float(np.sum(np.log(np.diag(l_r))))
    lp = float(np.sum(lognormal_logpdf(sigma, 0.0, 1.0)))
    lp += float(np.sum(log_sigma))  # Jacobian of the log transform
    lp += (eta - 1.0) * log_det_r

    if increments.shape[0]:
        chol = sigma[:, None] * l_r  # Cholesky of Sigma
        log_det_sigma = 2.0 * float(np.sum(np.log(np.diag(chol))))
        u = solve_triangular(chol, increments.T, lower=True)
        quad = float(np.sum(u * u))
        n_steps = increments.shape[0]
        lp += -0.5 * (n_steps * (dim * _LOG_2PI + log_det_sigma) + quad)
    return lp


def _fit_walk_from_increments(
    increments: np.ndarray, config: SamplerConfig, dim: int
) -> WalkPosterior:
    n_free = dim * (dim - 1) // 2

    def log_target(w: np.ndarray) -> float:
        return _walk_log_target(w, increments, dim, config.eta)

    rngs = [_chain_rng(config.seed, _STAGE_WALK, c) for c in range(config.chains)]
    base = np.concatenate([np.full(dim, -1.0), np.zeros(n_free)])
    starts = [base + 0.05 * rng.standard_normal(dim + n_free) for rng in rngs]
    samples, rates = _run_chains(log_target, starts, rngs, config)

    sigma = np.exp(samples[:, :dim])
    chol_corr = np.empty((samples.shape[0], dim, dim))
    for i in range(samples.shape[0]):
        l_r = _chol_from_free(samples[i, dim:], dim)
        assert l_r is not None  # accepted states are always valid
        chol_corr[i] = l_r
    return WalkPosterior(
        dim=dim,
        eta=config.eta,
        sigma=sigma,
        chol_corr=chol_corr,
        acceptance=rates,
        warnings=_acceptance_warnings(rates, "walk"),
        seed=config.seed,
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
    seed: int


def _quantile_dict(values: np.ndarray) -> Dict[str, float]:
    qs = np.quantile(values, QUANTILES)
    return {"q%02d" % int(q * 100): float(v) for q, v in zip(QUANTILES, qs)}


def forecast_next(
    pseudo_last: GlmState,
    walk: WalkPosterior,
    config: SamplerConfig,
    year: Optional[int] = None,
) -> ForecastBundle:
    """Evolve the walk one step per posterior draw and simulate the GLM.

    Steps whose tau or b lands nonpositive are redrawn a bounded number
    of times (the walk is unconstrained but the model's support is not);
    a draw that never lands in the support is dropped and counted.
    """
    rng = _chain_rng(config.seed, _STAGE_FORECAST, 0)
    z_t = pseudo_last.as_array()
    dim = walk.dim

    states = []
    rejected = 0
    for i in range(walk.size):
        chol = walk.sigma[i][:, None] * walk.chol_corr[i]
        nxt = None
        for _ in range(100):
            cand = z_t + chol @ rng.standard_normal(dim)
            if cand[1] > 0 and cand[5] > 0:
                nxt = cand
                break
        if nxt is None:
            rejected += 1
            continue
        states.append(nxt)
    if not states:
        raise ValueError("no forecast draw landed in the model's support")
    z_next = np.stack(states)

    m = config.points_per_draw
    log10_n = np.empty((z_next.shape[0], m))
    ratio = np.empty((z_next.shape[0], m))
    for i, z in enumerate(z_next):
        mu, tau, alpha, beta0, beta1, b = z
        omega = tau ** -0.5
        x = sample_skewnorm(rng, mu, omega, alpha, m)
        log10_n[i] = x
        ratio[i] = beta0 + beta1 * x + rng.laplace(0.0, b, size=m)

    state_draws = {name: z_next[:, k] for k, name in enumerate(PARAM_NAMES)}
    flat_x, flat_r = log10_n.ravel(), ratio.ravel()
    return ForecastBundle(
        year=year if year is not None else -1,
        state_draws=state_draws,
        log10_n=flat_x,
        ratio=flat_r,
        state_quantiles={k: _quantile_dict(v) for k, v in state_draws.items()},
        predictive_quantiles={
            "log10_n": _quantile_dict(flat_x),
            "ratio": _quantile_dict(flat_r),
        },
        n_draws=int(z_next.shape[0]),
        n_rejected=rejected,
        seed=config.seed,
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

    fits = [sample_posterior(obs, config) for obs in observations]
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
        summary=summary, fits=tuple(fits), pseudo=pseudo, walk=walk, bundle=bundle
    )
