"""Shared fixtures: paths, the synthetic trend used by the forecast tests,
the one-density-per-function references and closed forms those tests
check the sampler against, arbitrary tally stores, the dict-based
rebucket and rolling mean the calendar tests check against, and the
slice-per-position gram count and stacked scorer the classifier is
checked against."""

import datetime as dt
import math
import pathlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as hs

from contagion import forecast, lid, tally
from contagion.ingest import OT, RT

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


# -- reference densities -------------------------------------------------------
#
# The library's targets fold these into closed forms; here they stay one
# density per function, for the scipy oracles and the one-state-at-a-time
# references the batched targets are checked against.

_LOG_2PI = math.log(2.0 * math.pi)


def norm_logpdf(x, mean, sd):
    z = (np.asarray(x, dtype=float) - mean) / sd
    return -0.5 * z * z - np.log(sd) - 0.5 * _LOG_2PI


def gamma_logpdf(x, shape: float, rate: float):
    """Gamma in the (shape, rate) convention: mean = shape / rate."""
    from scipy.special import gammaln

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
    from scipy.special import gammaln

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


def skewnorm_logpdf(x, loc, scale, shape):
    """log of 2/scale * phi((x-loc)/scale) * Phi(shape*(x-loc)/scale)."""
    z = (np.asarray(x, dtype=float) - loc) / scale
    return (
        math.log(2.0)
        - np.log(scale)
        - 0.5 * z * z
        - 0.5 * _LOG_2PI
        + forecast.log_norm_cdf(shape * z)
    )


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


def lkj_marginal_cdf(r, eta: float = 2.0, dim: int = 2) -> np.ndarray:
    """CDF of an off-diagonal marginal of a dim x dim LKJ(eta) correlation.

    Each off-diagonal is Beta(a, a) on [-1, 1] with a = eta - 1 + dim / 2
    (Lewandowski, Kurowicka & Joe 2009). Closed form for a = 2 (density
    0.75 * (1 - r^2)): F(r) = 0.75 * (r - r^3/3 + 2/3).
    """
    r = np.asarray(r, dtype=float)
    a = eta - 1.0 + dim / 2.0
    if a == 2.0:
        return 0.75 * (r - r**3 / 3.0 + 2.0 / 3.0)
    from scipy.special import betainc

    return betainc(a, a, (r + 1.0) / 2.0)


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


# -- tally stores and the reference rebucket ------------------------------------


def store_from(cells, errors) -> tally.TallyStore:
    """A store built through add: cells are (date, language, f_ot, f_rt)."""
    store = tally.TallyStore()
    for date, lang, f_ot, f_rt in cells:
        store.add(date, lang, OT, f_ot)
        store.add(date, lang, RT, f_rt)
    for key, n in errors.items():
        store.count_error(key, n)
    return store


def tally_stores(dates):
    """Arbitrary stores with cell dates drawn from `dates`: zero increments
    (which must leave nothing behind), repeated cells and CSV-hostile
    language codes."""
    return hs.builds(
        store_from,
        hs.lists(
            hs.tuples(
                dates,
                hs.text(alphabet='ez,"_ ', max_size=3),
                hs.integers(0, 3),
                hs.integers(0, 3),
            ),
            max_size=20,
        ),
        hs.dictionaries(hs.sampled_from(["bad_json", "bad_record"]), hs.integers(1, 3)),
    )


def _reference_next_bucket(start: dt.date, resolution: str) -> dt.date:
    if resolution == "day":
        return start + dt.timedelta(days=1)
    if resolution == "week":
        return start + dt.timedelta(days=7)
    if resolution == "month":
        year, month = divmod(start.month, 12)
        return dt.date(start.year + year, month + 1, 1)
    if resolution == "quarter":
        year, month0 = divmod(start.month - 1 + 3, 12)
        return dt.date(start.year + year, month0 + 1, 1)
    return dt.date(start.year + 1, 1, 1)


def reference_rebucket(series, resolution: str, aggregator: str = "mean"):
    """rebucket as first written: values grouped in a dict keyed by
    bucket_start, then buckets walked one _next_bucket step at a time."""
    if not series:
        return tally.BucketedSeries(resolution, ())
    grouped = {}
    for date, value in series:
        if value is not None:
            grouped.setdefault(tally.bucket_start(date, resolution), []).append(float(value))
    points = []
    start = tally.bucket_start(series[0][0], resolution)
    stop = tally.bucket_start(series[-1][0], resolution)
    while True:
        values = grouped.get(start)
        if not values:
            agg = None
        elif aggregator == "mean":
            agg = math.fsum(values) / len(values)
        else:
            agg = math.fsum(values)
        points.append((start, agg))
        if start == stop:
            break
        start = _reference_next_bucket(start, resolution)
    return tally.BucketedSeries(resolution, tuple(points))


def reference_rolling_mean(series, window_days: int):
    """rolling_mean as first written, one timedelta and one dict probe per
    day and offset, stepping by ordinal so neither calendar edge overflows."""
    if not series:
        return ()
    by_date = {d: v for d, v in series if v is not None}
    out = []
    for ordinal in range(series[0][0].toordinal(), series[-1][0].toordinal() + 1):
        day = dt.date.fromordinal(ordinal)
        window = [
            by_date[day - dt.timedelta(days=k)]
            for k in range(min(window_days, ordinal))
            if day - dt.timedelta(days=k) in by_date
        ]
        out.append((day, math.fsum(window) / len(window) if window else None))
    return tuple(out)


# -- language identification references ------------------------------------------


def reference_grams(text: str, n_lo: int, n_hi: int) -> Counter:
    """lid._grams as first written: every gram sliced from the text, one
    list per n counted by Counter.update."""
    counts: Counter = Counter()
    size = len(text)
    for n in range(n_lo, n_hi + 1):
        counts.update([text[i : i + n] for i in range(size - n + 1)])
    return counts


def reference_classify(model, text: str):
    """lid.classify's dense scorer as first written: a list of row indices,
    then the priors stacked on the count-weighted rows and summed by cumsum."""
    if not text:
        return lid.LidPrediction(lid.UND, 0.0, "und")
    grams = reference_grams(text, model.n_lo, model.n_hi)
    if not grams:
        return lid.LidPrediction(lid.UND, 0.0, "und")
    index, matrix, priors = model.dense
    unseen_row = len(index)
    rows = matrix[[index.get(gram, unseen_row) for gram in grams]]
    rows *= np.fromiter(grams.values(), dtype=float, count=len(grams))[:, None]
    scores = np.cumsum(np.vstack((priors, rows)), axis=0)[-1].tolist()
    best_score = max(scores)
    best_lang = model.languages[scores.index(best_score)]
    lse = best_score + math.log(sum(math.exp(s - best_score) for s in scores))
    confidence = math.exp(best_score - lse)
    language = best_lang if confidence >= lid.UND_THRESHOLD else lid.UND
    return lid.LidPrediction(language, confidence, lid.bucket_confidence(confidence))
