"""Shared fixtures: paths, the synthetic trend used by the forecast tests,
and the closed forms those tests check the sampler against."""

import math
import pathlib

import numpy as np
import pytest

from contagion import forecast

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

TREND_YEARS = tuple(range(2009, 2020))


def trend_truth(year: int) -> dict:
    """Generating parameters of the drifting-trend fixture for one year."""
    t = year - 2009
    return {
        "mu": 4.5 + 0.05 * t,
        "tau": 10.0,
        "alpha": 1.0,
        "beta0": 0.10 + 0.005 * t,
        "beta1": 0.040 + 0.002 * t,
        "b": 0.03,
    }


def trend_rows(points_per_year: int = 150):
    """(year, language, log10_n, ratio) rows with linearly drifting truth.

    Deterministic: each year draws from rng([2024, year]), volumes first,
    then the regression noise, so the committed CSV fixture and every test
    see byte-identical data.
    """
    rows = []
    for year in TREND_YEARS:
        p = trend_truth(year)
        rng = np.random.default_rng([2024, year])
        x = forecast.sample_skewnorm(
            rng, p["mu"], p["tau"] ** -0.5, p["alpha"], size=points_per_year
        )
        r = p["beta0"] + p["beta1"] * x + rng.laplace(0.0, p["b"], size=points_per_year)
        rows.extend((year, "en", float(xi), float(ri)) for xi, ri in zip(x, r))
    return rows


def skewnorm_mean(loc: float, scale: float, shape: float) -> float:
    """E[X] = loc + scale * delta * sqrt(2/pi), delta = shape/sqrt(1+shape^2)."""
    delta = shape / math.sqrt(1.0 + shape * shape)
    return loc + scale * delta * math.sqrt(2.0 / math.pi)


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


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def mini_ndjson() -> pathlib.Path:
    return FIXTURES / "mini.ndjson"


@pytest.fixture(scope="session")
def annual_tally_csv() -> pathlib.Path:
    return FIXTURES / "annual_2019_tally.csv"


@pytest.fixture(scope="session")
def glm_input_csv() -> pathlib.Path:
    return FIXTURES / "glm_input_2009_2019.csv"
