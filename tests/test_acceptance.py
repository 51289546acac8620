"""Acceptance gate.

One test per shipped acceptance criterion; `pytest -v` prints a single
pass/fail line for each.  Criterion 7 is split into its four lettered parts
plus a shared runtime check so a failure pinpoints the part.

Criterion 7d is expected to FAIL, and that failure is intentional: the
transition model is a driftless random walk, so by symmetry the next-step
slope increment is median-zero no matter how steep the fitted historical
trend is.  P(beta1_{T+1} > beta1_T) lands near 0.5 (slightly above, from the
positivity redraws of tau and b, which correlate the kept steps), nowhere
near the required 0.90.  A walk with a drift term could meet the bound, but
that would be a different model than the one specified.
"""

import csv
import datetime as dt
import functools
import json
import math
import random
import time

import numpy as np

from contagion import cli, compare, forecast, lid, metrics, tally
from contagion.ingest import OT, RT
from contagion.sanitize import char_count, sanitize

from conftest import (
    FIXTURES,
    REPO,
    TREND_YEARS,
    lkj_marginal_cdf,
    norm_logpdf,
    sample_lkj_correlation,
    skewnorm_logpdf,
    trend_rows,
    trend_truth,
)

_DURATIONS = {}


def _timed(key):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                _DURATIONS[key] = time.perf_counter() - t0
        return inner
    return wrap


# -- criterion 1: gain-ratio identity ----------------------------------------


def test_criterion_1_gain_ratio_identity():
    t0 = time.perf_counter()
    rng = random.Random(101)
    threshold = 10 * math.log10(2)
    for _ in range(10_000):
        f_ot = rng.randint(1, 10_000)
        f_rt = rng.randint(0, 50_000)
        ratio = metrics.contagion_ratio(f_ot, f_rt)
        gain = metrics.gain(f_ot, f_rt)
        assert abs(gain - 10 * math.log10(1 + ratio)) < 1e-9
        assert (ratio > 1) == (gain > threshold)
    assert abs(threshold - 3.0103) < 5e-5
    assert time.perf_counter() - t0 < 1.0


# -- criterion 2: fixture replay of the published ratios ----------------------


def test_criterion_2_fixture_replay():
    t0 = time.perf_counter()
    store = tally.TallyStore()
    for day in range(365):
        date = dt.date(2019, 1, 1) + dt.timedelta(days=day)
        store.add(date, "th", OT, 100)
        store.add(date, "th", RT, 729)
        store.add(date, "fi", OT, 100)
        store.add(date, "fi", RT, 26)
    th = metrics.aggregate_metric(store, "th", "year", "ratio", "mean_of_daily")
    assert th.values() == (7.29,)  # exact, not approximate
    fi = metrics.aggregate_metric(store, "fi", "year", "ratio", "mean_of_daily")
    assert fi.values() == (0.26,)
    th_gain = metrics.aggregate_metric(store, "th", "year", "gain", "mean_of_daily")
    assert abs(th_gain.values()[0] - 9.186) <= 0.001
    assert time.perf_counter() - t0 < 1.0


# -- criterion 3: merge monoid + sharded ingest --------------------------------


def _synthetic_corpus(n=10_000):
    rng = random.Random(303)
    langs = ["en", "es", "pt", "ja", "th", "fi", "ko", "und"]
    kinds = ["tweet", "retweet", "reply", "quote"]
    lines = []
    for i in range(n):
        kind = kinds[i % 4]
        rec = {
            "id": str(i),
            "ts": 1546300800 + rng.randrange(0, 30 * 86400),
            "kind": kind,
            "text": "synthetic message number %d ok" % i,
            "lang": rng.choice(langs),
            "lang_confidence": round(rng.uniform(0.3, 1.0), 3),
        }
        if kind == "quote":
            rec["quoted_text"] = "quoted payload %d" % i
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


def _random_store(rng):
    store = tally.TallyStore()
    for _ in range(rng.randint(0, 12)):
        date = dt.date(2019, 1, 1) + dt.timedelta(days=rng.randrange(0, 60))
        lang = rng.choice(["en", "es", "ja"])
        store.add(date, lang, OT, rng.randint(0, 40))
        store.add(date, lang, RT, rng.randint(0, 40))
    if rng.random() < 0.3:
        store.count_error("bad_json", rng.randint(1, 4))
    return store


def test_criterion_3_sharded_ingest_and_merge_monoid(tmp_path):
    t0 = time.perf_counter()
    src = tmp_path / "corpus.ndjson"
    src.write_text(_synthetic_corpus())
    single = tmp_path / "single.csv"
    sharded = tmp_path / "sharded.csv"
    args = ["ingest", "--in", str(src), "--lid", "external"]
    assert cli.main(args + ["--out", str(single)]) == 0
    assert cli.main(args + ["--out", str(sharded), "--shards", "4"]) == 0
    assert single.read_bytes() == sharded.read_bytes()

    rng = random.Random(304)
    for _ in range(1_000):
        a, b, c = _random_store(rng), _random_store(rng), _random_store(rng)
        assert tally.merge(a, b) == tally.merge(b, a)
        assert tally.merge(tally.merge(a, b), c) == tally.merge(a, tally.merge(b, c))
    assert time.perf_counter() - t0 < 5.0


# -- criterion 4: sanitizer properties ------------------------------------------


def _fuzz_string(rng):
    pieces = []
    atoms = [
        "RT ", "rt ", "@", "#", "&", ";", ":", " ", "\t", "\n", "http://",
        "https://", "t.co/", "amp", "gt", "#128512", "\U0001F600", "❤",
        "word", "ok", "\U0001F1FA\U0001F1F8", "café", "&amp;", "@user",
    ]
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.7:
            pieces.append(rng.choice(atoms))
        else:
            pieces.append(chr(rng.randint(32, 0x2FFF)))
    return "".join(pieces)


def test_criterion_4_sanitizer_fuzz_and_worked_examples():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for _ in range(10_000):
        raw = _fuzz_string(rng)
        once = sanitize(raw)
        twice = sanitize(once.text)
        assert twice.text == once.text
        assert char_count(once.text) <= char_count(raw)

    first = sanitize("RT @user: Hello world https://t.co/xyz #greetings")
    assert first.text == "Hello world"
    empty = sanitize("")
    assert empty.text == ""
    assert all(v == 0 for v in empty.removed_counts.values())
    assert sanitize("&gt; bonjour &amp; merci").text == "bonjour merci"
    assert time.perf_counter() - t0 < 2.0


# -- criterion 5: built-in classifier -------------------------------------------


def test_criterion_5_lid_accuracy_and_rules():
    t0 = time.perf_counter()
    train_split = lid.bundled_corpus("train")
    heldout = lid.bundled_corpus("heldout")
    assert len({label for label, _ in heldout}) >= 10
    assert all(char_count(text) >= 60 for _, text in heldout)

    model = lid.train(train_split)
    correct = 0
    for label, text in heldout:
        pred = lid.classify(model, text)
        if pred.language != "und":
            assert pred.confidence >= 0.25
        if pred.confidence < 0.25:
            assert pred.language == "und"
        correct += pred.language == label
    assert correct / len(heldout) >= 0.95

    assert lid.bucket_confidence(0.0) == "und"
    assert lid.bucket_confidence(0.2499999) == "und"
    assert lid.bucket_confidence(0.25) == "low"
    assert lid.bucket_confidence(0.4999999) == "low"
    assert lid.bucket_confidence(0.5) == "mid"
    assert lid.bucket_confidence(0.7499999) == "mid"
    assert lid.bucket_confidence(0.75) == "high"
    assert lid.bucket_confidence(1.0) == "high"
    assert time.perf_counter() - t0 < 30.0


# -- criterion 6: agreement suite -------------------------------------------------


def test_criterion_6_agreement_identities_and_divergence():
    t0 = time.perf_counter()
    rng = random.Random(606)
    day = dt.date(2019, 1, 6)
    langs = ["en", "es", "ja", "th", "und"]
    pairs = []
    for lang in langs:  # at least one organic pair per language
        pairs.append(compare.LabeledPair(day, OT, lang, lang, 30))
    for _ in range(600):
        lang = rng.choice(langs)
        cat = rng.choice([OT, RT])
        pairs.append(compare.LabeledPair(day, cat, lang, lang, rng.randint(1, 200)))
    report = compare.agreement_report(pairs)
    matrix = report.confusion
    for i, row in enumerate(matrix.counts):
        for j, count in enumerate(row):
            if i != j:
                assert count == 0
    assert matrix.total() == len(pairs)
    for lang in langs:
        assert report.divergence_by_language[lang] == 0.0
        assert report.margin_by_language[lang] == 0.0

    for _ in range(10_000):
        n_a = rng.randint(0, 5_000)
        n_b = rng.randint(0, 5_000)
        if n_a == 0 and n_b == 0:
            n_a = 1
        d = compare.divergence(n_a, n_b)
        assert 0.0 <= d <= 1.0
        assert d == compare.divergence(n_b, n_a)
    assert time.perf_counter() - t0 < 2.0


# -- criterion 7: forecast statistics ----------------------------------------------


@functools.lru_cache(maxsize=1)
def _trend_pipeline():
    t0 = time.perf_counter()
    result = forecast.forecast_pipeline(
        trend_rows(points_per_year=150),
        forecast.SamplerConfig(seed=5, chains=2, warmup=2000, draws=1000),
    )
    _DURATIONS["7_pipeline"] = time.perf_counter() - t0
    return result


@_timed("7a")
def test_criterion_7a_skewnorm_zero_shape_reduces_to_normal():
    grid = np.linspace(-10.0, 10.0, 1001)
    for loc, scale in [(0.0, 1.0), (4.7, 0.32)]:
        sn = skewnorm_logpdf(grid, loc, scale, 0.0)
        n = norm_logpdf(grid, loc, scale)
        assert np.max(np.abs(np.exp(sn) - np.exp(n))) <= 1e-9
        assert np.max(np.abs(sn - n)) <= 1e-9


@_timed("7b")
def test_criterion_7b_lkj_offdiagonal_ks():
    r = sample_lkj_correlation(2.0, 100_000, seed=77)
    grid = np.sort(r)
    ecdf = np.arange(1, grid.size + 1) / grid.size
    ks = np.max(np.abs(ecdf - lkj_marginal_cdf(grid, 2.0)))
    assert ks < 0.02


@_timed("7c")
def test_criterion_7c_synthetic_recovery_beta1():
    result = _trend_pipeline()
    assert len(result.fits) == len(TREND_YEARS) == 11
    rng = np.random.default_rng(5)
    for fit in result.fits:
        truth = trend_truth(fit.year)["beta1"]
        draws = fit.draws(rng, 2000)["beta1"]
        mean, sd = float(np.mean(draws)), float(np.std(draws))
        assert abs(mean - truth) <= 3 * sd, (
            "year %d: beta1 mean %.4f vs truth %.4f (sd %.4f)"
            % (fit.year, mean, truth, sd)
        )


@_timed("7d")
def test_criterion_7d_forecast_continues_increasing_slope():
    result = _trend_pipeline()
    # the generating beta1 trend is strictly increasing by construction
    truths = [trend_truth(year)["beta1"] for year in TREND_YEARS]
    assert all(b > a for a, b in zip(truths, truths[1:]))
    last_fitted = result.pseudo[-1].beta1
    draws = result.bundle.state_draws["beta1"]
    frac = float(np.mean(draws > last_fitted))
    assert frac >= 0.90, (
        "P(beta1_next > beta1_last) = %.4f; a driftless random walk centers "
        "this at 1/2 regardless of the historical trend" % frac
    )


def test_criterion_7_runtime_budget():
    total = sum(_DURATIONS.get(k, 0.0) for k in ("7a", "7b", "7c", "7d", "7_pipeline"))
    assert 0 < total < 600.0


# -- criterion 8: CLI determinism ----------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    mini = str(FIXTURES / "mini.ndjson")
    annual = str(FIXTURES / "annual_2019_tally.csv")
    heldout = str(REPO / "src" / "contagion" / "data" / "lid_corpus_heldout.tsv")
    glm_short = tmp_path / "glm.csv"
    rows = [r for r in trend_rows(points_per_year=60) if r[0] <= 2012]
    with open(glm_short, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cli.GLM_INPUT_HEADER)
        writer.writerows((y, lang, repr(x), repr(r)) for y, lang, x, r in rows)

    commands = {
        "ingest": ["ingest", "--in", mini, "--shards", "2"],
        "metric": ["metric", "--in", annual, "--metric", "glm-input"],
        "compare": ["compare", "--in", mini],
        "forecast": ["forecast", "--in", str(glm_short), "--seed", "7",
                     "--chains", "2", "--warmup", "1000", "--draws", "500"],
        "train-lid": ["train-lid", "--in", heldout, "--n-max", "2"],
        "eval-lid": ["eval-lid", "--in", heldout],
        "sanitize": ["sanitize", "--text", "RT @u: hola https://t.co/a #x"],
    }
    for name, argv in commands.items():
        outputs = []
        for attempt in range(2):
            out = tmp_path / ("%s_%d.out" % (name, attempt))
            assert cli.main(argv + ["--out", str(out)]) == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], "%s output differs across runs" % name
        assert outputs[0], "%s produced empty output" % name
