"""Multi-stage Bayesian dynamic GLM for annual (volume, ratio) data.

Stage 1, per year t: model the per-language points (x, r) with
x = log10 of annual message volume and r the annual contagion ratio,
restricted to r in (0, 1):

    x ~ SkewNormal(location mu_t, scale omega_t = tau_t^(-1/2), shape alpha_t)
    r ~ Laplace(location beta0_t + beta1_t * x, scale b_t)

with priors mu ~ Normal(5, 1), tau ~ Gamma(shape 10, rate 1),
alpha ~ Normal(1, 1), beta0, beta1 ~ Normal(0, 1),
b ~ InverseGamma(shape 6, scale 1).  Each year's posterior is computed
exactly on a grid (Gelman et al., Bayesian Data Analysis, 3rd ed.,
sec. 3.7), with deterministic integration over the few parameters as in
Rue, Martino & Chopin, JRSS-B 2009.  It splits into two independent
blocks:

- volume (mu, tau, alpha), gridded in (mu, lambda = alpha sqrt(tau),
  log tau).  The shape term sum log Phi(lambda (x - mu)) depends on
  (mu, lambda) only, so it is one 2-D table per grid; the Gaussian
  part (through the count, mean and centred sums of x), the priors and
  the Jacobian tau^(-1/2) of alpha -> lambda are closed forms.
- regression (beta0, beta1, b), gridded in (c = beta0 + beta1 mean(x),
  beta1).  With A = sum |r - beta0 - beta1 x|, b given the betas is
  InverseGamma(6 + n, 1 + A), so b integrates out in closed form: the
  grid density is exp(-(beta0^2 + beta1^2) / 2) (1 + A)^-(6 + n), with
  E[b | beta] = (1 + A) / (5 + n).

A coarse pass finds each block's box from the prior and the data; a
40-node pass then gives the means and sds.  Posterior mass near a box
edge widens the box, and a year whose mass stays at the edge is an
error.  A self-check compares the means on every other node with the
means on all nodes.  Stage 1 uses no rng; draws come on request
(PosteriorSamples.draws): they pick a cell by weight, jitter uniformly
inside it, and draw b from its conditional.

Stage 2: collapse each year's posterior to its mean vector
z_t = (mu, tau, alpha, beta0, beta1, b) ("pseudo-observations") and fit
a driftless random walk z_t ~ MVN(z_{t-1}, Sigma) with
Sigma = diag(sigma) . R . diag(sigma), sigma ~ LogNormal(0, 1) per
component and R ~ LKJ(eta), density proportional to det(R)^(eta - 1).
R is parameterized by its Cholesky factor L, so every proposal stays in
the positive-definite cone, and the target carries the Jacobian
prod_i L_ii^(5 - i) of the map from L's free entries to R.  The walk's
likelihood over the T increments y_t = z_t - z_{t-1} is

    log L = -T/2 (6 log 2 pi + log det Sigma) - sum_t y_t' Sigma^-1 y_t / 2

(zero-mean MVN; Gelman et al., Bayesian Data Analysis, 3rd ed., ch. 3).
Its quadratic term is computed as ||Y N||^2 over every increment, with
Sigma^-1 = N N', so each evaluation's work grows linearly with the
number of years.  The walk is sampled by adaptive random-walk
Metropolis, its chains in lockstep as the rows of one array (positive
parameters proposed in log space with the Jacobian correction).

Stage 3: evolve the walk one step, draw a synthetic volume sample from
the stepped skew-normal, push it through the stepped GLM, and report
predictive quantiles.

The only scipy in the module is scipy.special's ndtr and log_ndtr,
imported inside log_norm_cdf, so importing this module does not load
scipy; the CLI imports this module (and with it numpy) only in the
``forecast`` command.
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
_STAGE_WALK = 999983
_STAGE_FORECAST = 999979

# acceptance rate the warmup step size chases
_TARGET_ACCEPT = 0.3

# stage-1 grids: nodes per axis of the box search and of the final pass;
# the search keeps the cells within _KEEP_NATS of the maximum, and mass
# within _EDGE_NATS of it must not reach an edge of the final box
_COARSE_NODES, _FINE_NODES = 24, 40
_KEEP_NATS, _EDGE_NATS = 25.0, 15.0
_MAX_PASSES = 12
# the Laplace likelihood has a kink wherever a residual is 0, and the
# fewer the points the sharper the peak those kinks make: a year with
# n < _KINK_POINTS points gets nodes * sqrt(_KINK_POINTS / n) regression
# nodes per axis (the work of a _KINK_POINTS-point year), up to
# _MAX_REGRESSION_NODES
_KINK_POINTS, _MAX_REGRESSION_NODES = 150, 256
# worst |mean on every other node - mean on all nodes| a year may show,
# in posterior sds
SELF_CHECK_BOUND = 0.25
# elements per temporary of the per-point tables and the b draws
_BLOCK = 1 << 15


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


def _volume_stats(x: np.ndarray) -> Tuple[int, float, float, float]:
    """(n, mean, residual sum, centred sum of squares) of the points x.

    The residual sum sum(x - mean) is 0 but for the mean's rounding;
    keeping it makes
    sum((x - mu)^2) = Sxx + (mean - mu) * (2 * residual + n * (mean - mu))
    exact for any computed mean, so no digits are lost when mu sits
    near a mean far from 0.
    """
    n = x.size
    mean = float(np.sum(x)) / max(n, 1)
    dev = x - mean
    return n, mean, float(np.sum(dev)), float(np.dot(dev, dev))


# ---------------------------------------------------------------------------
# stage 1: each year's posterior on a grid


def _volume_log_density(
    x: np.ndarray,
    stats: Tuple[int, float, float, float],
    mu: np.ndarray,
    lam: np.ndarray,
    log_tau: np.ndarray,
) -> np.ndarray:
    """Volume-block log density on the grid mu x lam x log_tau, up to a constant.

    In (mu, lambda = alpha sqrt(tau), log tau) the priors, the
    skew-normal's Gaussian part and the Jacobians (+ log tau for the log
    scale, - log tau / 2 for alpha -> lambda) are

        -(mu - 5)^2 / 2 - (lambda tau^(-1/2) - 1)^2 / 2
        + (19 + n) / 2 log tau - tau (1 + sum((x - mu)^2) / 2),

    and the shape term sum log Phi(lambda (x - mu)) is a 2-D table over
    (mu, lambda), built a block of mu rows at a time.
    """
    n, mean, resid, sxx = stats
    table = np.empty((mu.size, lam.size))
    rows = max(1, _BLOCK // (lam.size * max(n, 1)))
    for start in range(0, mu.size, rows):
        shift = x - mu[start : start + rows, None]
        table[start : start + rows] = np.sum(
            log_norm_cdf(lam[:, None] * shift[:, None, :]), axis=2
        )
    table -= 0.5 * ((mu - 5.0) ** 2)[:, None]
    gap = mean - mu
    half_sq = 1.0 + 0.5 * (sxx + gap * (2.0 * resid + n * gap))
    with np.errstate(over="ignore"):  # a box reaching far in log tau: the density is 0 there
        by_mu_tau = 0.5 * (19.0 + n) * log_tau - half_sq[:, None] * np.exp(log_tau)
        by_lam_tau = lam[:, None] * np.exp(-0.5 * log_tau) - 1.0
        by_lam_tau *= by_lam_tau
    return table[:, :, None] + by_mu_tau[:, None, :] - 0.5 * by_lam_tau[None]


def _regression_abs_sums(
    x: np.ndarray, r: np.ndarray, mean: float, c: np.ndarray, beta1: np.ndarray
) -> np.ndarray:
    """A = sum |r - c - beta1 (x - mean)| for each pair (c[i], beta1[i]), in blocks."""
    out = np.empty(c.shape)
    dev = x - mean
    rows = max(1, _BLOCK // max(x.size, 1))
    for start in range(0, c.size, rows):
        fit = beta1[start : start + rows, None] * dev
        fit += c[start : start + rows, None]
        out[start : start + rows] = np.sum(np.abs(r - fit), axis=1)
    return out


def _regression_log_density(
    x: np.ndarray, r: np.ndarray, mean: float, c: np.ndarray, beta1: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Regression-block log density at the pairs (c, beta1) of two arrays of one shape,
    up to a constant, and A there.

    With b integrated out: -(beta0^2 + beta1^2) / 2 - (6 + n) log(1 + A),
    beta0 = c - beta1 mean.
    """
    abs_sums = _regression_abs_sums(x, r, mean, c.ravel(), beta1.ravel()).reshape(c.shape)
    beta0 = c - mean * beta1
    log_p = -0.5 * (beta0 * beta0 + beta1 * beta1)
    log_p -= (6.0 + x.size) * np.log1p(abs_sums)
    return log_p, abs_sums


def _grid_nodes(box: np.ndarray, nodes: int) -> Tuple[np.ndarray, ...]:
    """Per axis of the (k, 2) box, the centres of `nodes` equal cells."""
    return tuple(lo + (np.arange(nodes) + 0.5) * ((hi - lo) / nodes) for lo, hi in box)


def _refit_box(
    box: np.ndarray, log_p: np.ndarray, shrink: bool, limits: np.ndarray
) -> Tuple[np.ndarray, bool, bool]:
    """The next box after one pass, and whether it widened and whether it zoomed.

    An axis whose cells within _EDGE_NATS of the maximum reach the box
    edge widens on that side by the box's width, or by half of it when
    not shrinking, up to that axis's limits.  Otherwise, when shrinking,
    each axis keeps its cells within _KEEP_NATS of the maximum plus one
    cell either side, and the pass zoomed if some axis kept under a
    quarter of its cells.  The mass of a cell is the largest log density
    over the other axes.
    """
    top = float(log_p.max())
    if not math.isfinite(top):
        raise ValueError("no finite density on the grid")
    new, widened, zoomed = box.copy(), False, False
    grow = 1.0 if shrink else 0.5
    axes = range(log_p.ndim)
    profiles = [log_p.max(axis=tuple(a for a in axes if a != k)) for k in axes]
    for k, profile in enumerate(profiles):
        near = np.flatnonzero(profile >= top - _EDGE_NATS)
        width = box[k, 1] - box[k, 0]
        # an edge at its limit cannot widen, and still counts as not settled
        if near[0] == 0:
            new[k, 0] = max(box[k, 0] - grow * width, limits[k, 0])
            widened = True
        if near[-1] == profile.size - 1:
            new[k, 1] = min(box[k, 1] + grow * width, limits[k, 1])
            widened = True
    if widened or not shrink:
        return new, widened, False
    for k, profile in enumerate(profiles):
        keep = np.flatnonzero(profile >= top - _KEEP_NATS)
        cell = (box[k, 1] - box[k, 0]) / profile.size
        first, stop = max(keep[0] - 1, 0), min(keep[-1] + 2, profile.size)
        new[k] = box[k, 0] + first * cell, box[k, 0] + stop * cell
        zoomed |= 4 * (stop - first) < profile.size
    return new, False, zoomed


def _grid_posterior(
    log_density: Callable[..., np.ndarray],
    box: Sequence[Tuple[float, float]],
    limits: Sequence[Tuple[float, float]],
    nodes: int,
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Per-axis nodes and normalised cell weights of a posterior on a grid.

    log_density maps per-axis node arrays to the log density on their
    product grid.  Coarse passes of _COARSE_NODES per axis widen or zoom
    the box until it settles on the mass within _KEEP_NATS of the
    maximum; then passes of `nodes` per axis widen it until the mass
    within _EDGE_NATS of the maximum clears every edge.  _MAX_PASSES
    bounds each phase.
    """
    box, limits = np.array(box, dtype=float), np.array(limits, dtype=float)
    for shrink, per_axis in ((True, _COARSE_NODES), (False, nodes)):
        for _ in range(_MAX_PASSES):
            axes = _grid_nodes(box, per_axis)
            log_p = log_density(*axes)
            box, widened, zoomed = _refit_box(box, log_p, shrink, limits)
            if not (widened or zoomed):
                break
        else:
            raise ValueError("the grid box did not settle within %d passes" % _MAX_PASSES)
    weights = np.exp(log_p - log_p.max())
    return axes, weights / weights.sum()


def _volume_posterior(
    x: np.ndarray, nodes: int
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """The volume block on a grid in (mu, lambda, log tau).

    The starting box comes from the symmetric model (alpha = 0), where
    tau integrates out: mu has log density
    -(mu - 5)^2 / 2 - a log(1 + sum((x - mu)^2) / 2) with
    a = (20 + n) / 2, searched on its own, and log tau given mu is a log-gamma
    whose mode is log(a / (1 + sum((x - mu)^2) / 2)).  The skew can
    lower log tau by up to log(1 - 2 / pi) ~ -1 and move mu by up to
    0.8 of a scale; alpha's box is its prior's 1 +- 8.5.
    """
    stats = _volume_stats(x)
    n, mean, resid, sxx = stats
    a = 0.5 * (20.0 + n)

    def half_sq(mu):
        gap = mean - mu
        return 1.0 + 0.5 * (sxx + gap * (2.0 * resid + n * gap))

    lo, hi = -3.0, 13.0  # the prior's mu +- 8
    if n:
        lo, hi = min(lo, float(np.min(x)) - 8.0), max(hi, float(np.max(x)) + 8.0)
    (mu_nodes,), _ = _grid_posterior(
        lambda mu: -0.5 * (mu - 5.0) ** 2 - a * np.log(half_sq(mu)),
        [(lo, hi)], [(-np.inf, np.inf)], _COARSE_NODES,
    )
    cell = mu_nodes[1] - mu_nodes[0]
    mu_lo, mu_hi = mu_nodes[0] - cell, mu_nodes[-1] + cell
    modes = np.log(a / half_sq(np.linspace(mu_lo, mu_hi, 25)))
    spread = _KEEP_NATS / a  # a (e^t - 1 - t) = 25 within these t
    log_tau_lo = float(np.min(modes)) - math.sqrt(2.0 * spread) - spread - 1.1
    log_tau_hi = float(np.max(modes)) + math.sqrt(2.0 * spread)
    skew_shift = 0.8 * math.exp(-0.5 * log_tau_lo)
    root_tau = math.exp(0.5 * log_tau_hi)
    box = [
        (mu_lo - skew_shift, mu_hi + skew_shift),
        (-7.5 * root_tau, 9.5 * root_tau),
        (log_tau_lo, log_tau_hi),
    ]
    limits = [(-np.inf, np.inf), (-np.inf, np.inf), (-600.0, 600.0)]
    return _grid_posterior(
        lambda mu, lam, log_tau: _volume_log_density(x, stats, mu, lam, log_tau),
        box, limits, nodes,
    )


def _regression_posterior(
    x: np.ndarray, r: np.ndarray, mean: float, nodes: int
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """The regression block on a grid in (c = beta0 + beta1 mean, beta1), and A there.

    The starting box is 8 sds either side of a Gaussian stand-in: the
    prior with the Laplace likelihood replaced by a normal one of the
    same variance 2 b^2, b set from the least-squares residuals.  In
    (c, beta1) the prior's precision is [[1, -mean], [-mean, 1 + mean^2]].
    """
    n = x.size
    dev = x - mean
    sxx, sxr = float(np.dot(dev, dev)), float(np.dot(dev, r))
    slope = sxr / sxx if sxx > 0 else 0.0
    level = float(np.mean(r)) if n else 0.0
    b_hat = (1.0 + float(np.sum(np.abs(r - level - slope * dev)))) / (5.0 + n)
    weight = 0.5 / (b_hat * b_hat)
    p_cc, p_cb, p_bb = 1.0 + n * weight, -mean, 1.0 + mean * mean + sxx * weight
    det = p_cc * p_bb - p_cb * p_cb
    rhs_c, rhs_b = weight * float(np.sum(r)), weight * sxr
    centre = ((p_bb * rhs_c - p_cb * rhs_b) / det, (p_cc * rhs_b - p_cb * rhs_c) / det)
    sds = (math.sqrt(p_bb / det), math.sqrt(p_cc / det))
    box = [(m - 8.0 * sd, m + 8.0 * sd) for m, sd in zip(centre, sds)]
    last_abs_sums = []

    def log_density(c, beta1):
        log_p, abs_sums = _regression_log_density(x, r, mean, *np.meshgrid(c, beta1, indexing="ij"))
        last_abs_sums[:] = [abs_sums]
        return log_p

    nodes = max(nodes, min(_MAX_REGRESSION_NODES,
                           math.ceil(nodes * math.sqrt(_KINK_POINTS / max(n, 1)))))
    axes, weights = _grid_posterior(log_density, box, [(-np.inf, np.inf)] * 2, nodes)
    return axes, weights, last_abs_sums[0]


def _moments(weights: np.ndarray, values: np.ndarray) -> Tuple[float, float]:
    """(mean, sd) of values under weights of the same shape."""
    total = float(weights.sum())
    mean = float(np.sum(weights * values)) / total
    dev = values - mean
    return mean, math.sqrt(float(np.sum(weights * dev * dev)) / total)


def _block_moments(
    n: int,
    mean: float,
    volume: Tuple[Tuple[np.ndarray, ...], np.ndarray],
    regression: Tuple[Tuple[np.ndarray, ...], np.ndarray, np.ndarray],
    step: int,
) -> Dict[str, Tuple[float, float]]:
    """Each parameter's (mean, sd) from every step-th node of both grids."""
    (mu, lam, log_tau), weights = volume
    mu, lam, log_tau = mu[::step], lam[::step], log_tau[::step]
    weights = weights[::step, ::step, ::step]
    by_lam_tau = weights.sum(axis=0)
    out = {
        "mu": _moments(weights.sum(axis=(1, 2)), mu),
        "tau": _moments(by_lam_tau.sum(axis=0), np.exp(log_tau)),
        "alpha": _moments(by_lam_tau, lam[:, None] * np.exp(-0.5 * log_tau)),
    }
    (c, beta1), weights, abs_sums = regression
    c, beta1 = c[::step], beta1[::step]
    weights, abs_sums = weights[::step, ::step], abs_sums[::step, ::step]
    out["beta0"] = _moments(weights, c[:, None] - mean * beta1)
    out["beta1"] = _moments(weights.sum(axis=0), beta1)
    # b given the betas is InverseGamma(6 + n, 1 + A): mean (1 + A) / (5 + n)
    # and variance mean^2 / (4 + n); its sd adds the spread of those means
    cond_mean = (1.0 + abs_sums) / (5.0 + n)
    b_mean, spread = _moments(weights, cond_mean)
    within = float(np.sum(weights * cond_mean * cond_mean)) / float(weights.sum()) / (4.0 + n)
    out["b"] = (b_mean, math.sqrt(spread * spread + within))
    return out


def _cell_draws(
    rng: np.random.Generator,
    axes: Tuple[np.ndarray, ...],
    weights: np.ndarray,
    size: int,
) -> Tuple[np.ndarray, ...]:
    """size points: a cell drawn by weight, then a uniform point inside it."""
    cdf = np.cumsum(weights, axis=None)
    cell = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    np.minimum(cell, cdf.size - 1, out=cell)
    jitter = rng.random((len(axes), size)) - 0.5
    return tuple(
        nodes[i] + (nodes[1] - nodes[0]) * u
        for nodes, i, u in zip(axes, np.unravel_index(cell, weights.shape), jitter)
    )


@dataclass(frozen=True)
class PosteriorSamples:
    """One year's exact posterior means and sds, and what its draws need.

    self_check is the largest |mean on every other node - mean on all
    nodes| over the six parameters, in posterior sds.  columns is the
    year's (x, r), and nodes the grids' nodes per axis.
    """

    year: int
    mean: Dict[str, float]
    sd: Dict[str, float]
    self_check: float
    columns: Tuple[np.ndarray, np.ndarray]
    nodes: int

    def mean_state(self) -> GlmState:
        return GlmState(*(self.mean[k] for k in PARAM_NAMES))

    def draws(self, rng: np.random.Generator, size: int) -> Dict[str, np.ndarray]:
        """size draws per parameter from the year's grids, rebuilt rather than kept:
        a cell by weight, a uniform point inside it, and b from its conditional."""
        if size < 1000:
            raise ValueError("need at least 1000 post-warmup draws")
        x, r = self.columns
        mean = _volume_stats(x)[1]
        mu, lam, log_tau = _cell_draws(rng, *_volume_posterior(x, self.nodes), size)
        c, beta1 = _cell_draws(rng, *_regression_posterior(x, r, mean, self.nodes)[:2], size)
        abs_sums = _regression_abs_sums(x, r, mean, c, beta1)
        return {
            "mu": mu,
            "tau": np.exp(log_tau),
            "alpha": lam * np.exp(-0.5 * log_tau),
            "beta0": c - mean * beta1,
            "beta1": beta1,
            "b": (1.0 + abs_sums) / rng.gamma(6.0 + x.size, size=size),
        }


def _fit_year(obs: YearObservations, nodes: int = _FINE_NODES) -> PosteriorSamples:
    """One year's posterior on grids of `nodes` per axis."""
    x, r = obs.columns
    mean = _volume_stats(x)[1]
    try:
        volume = _volume_posterior(x, nodes)
        regression = _regression_posterior(x, r, mean, nodes)
    except ValueError as exc:
        raise ValueError("year %d: %s" % (obs.year, exc)) from None
    moments = _block_moments(x.size, mean, volume, regression, 1)
    halves = _block_moments(x.size, mean, volume, regression, 2)
    # all of a parameter's mass in one cell leaves nothing to check against
    self_check = max(
        abs(halves[k][0] - m) / sd if sd > 0 else math.inf for k, (m, sd) in moments.items()
    )
    if not self_check <= SELF_CHECK_BOUND:
        raise ValueError(
            "year %d: grid self-check: means on every other node differ by %.3g sd "
            "(bound %g)" % (obs.year, self_check, SELF_CHECK_BOUND)
        )
    return PosteriorSamples(
        year=obs.year,
        mean={k: m for k, (m, _) in moments.items()},
        sd={k: sd for k, (_, sd) in moments.items()},
        self_check=self_check,
        columns=(x, r),
        nodes=nodes,
    )


def sample_posterior(
    observations: Sequence[YearObservations], config: SamplerConfig
) -> Tuple[PosteriorSamples, ...]:
    """Every year's exact posterior; one PosteriorSamples per year, in order.

    Stage 1 is a deterministic function of the data: it reads nothing
    from config, which only keeps the signature every stage shares.
    Draws come on request, from PosteriorSamples.draws.  A year whose
    posterior mass stays at a grid edge, or whose self-check exceeds
    SELF_CHECK_BOUND, raises ValueError naming the year.
    """
    return tuple(_fit_year(obs) for obs in observations)


# ---------------------------------------------------------------------------
# sampler core


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
    handles the strong ridges a diagonal proposal cannot.  Everything
    freezes when sampling starts, so each post-warmup chain is a valid
    time-homogeneous Metropolis kernel.  Every step draws one (K, d)
    normal block and K uniforms from rng.

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
    # years without a usable point drop off either end; inside the span they are an error
    usable = [i for i, o in enumerate(observations) if o.points]
    observations = observations[usable[0] : usable[-1] + 1] if usable else ()
    for o in observations:
        if not o.points:
            raise ValueError("year %d: no points with ratio in (0, 1)" % o.year)
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
                "posterior_mean": dict(fit.mean),
                "posterior_sd": dict(fit.sd),
                "acceptance": [],  # no stage-1 sampler; kept for tools reading every stage's rates
                "self_check": fit.self_check,
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
