"""Contagion metrics tests: ratios, gain, aggregation methods, ranks, Pareto."""

import csv
import datetime as dt
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from contagion import metrics, tally
from contagion.ingest import OT, RT
from contagion.tally import TallyStore

from conftest import reference_rebucket, tally_stores

D = dt.date


def _store(cells):
    """cells: iterable of (date, language, f_ot, f_rt)."""
    store = TallyStore()
    for date, lang, f_ot, f_rt in cells:
        store.add(date, lang, OT, f_ot)
        store.add(date, lang, RT, f_rt)
    return store


# -- pointwise metrics -------------------------------------------------------


def test_rates():
    assert metrics.rates(3, 1) == (0.75, 0.25)
    assert metrics.rates(0, 5) == (0.0, 1.0)
    assert metrics.rates(0, 0) is None


def test_rates_normalization_property():
    rnd = random.Random(5)
    for _ in range(1000):
        f_ot, f_rt = rnd.randrange(0, 1000), rnd.randrange(0, 1000)
        point = metrics.rates(f_ot, f_rt)
        if point is None:
            assert f_ot + f_rt == 0
        else:
            p_ot, p_rt = point
            assert abs(p_ot + p_rt - 1.0) <= 1e-12


def test_contagion_ratio():
    assert metrics.contagion_ratio(100, 729) == 7.29
    assert metrics.contagion_ratio(17, 0) == 0.0
    assert metrics.contagion_ratio(0, 5) is None


def test_gain():
    assert metrics.gain(100, 100) == pytest.approx(10 * math.log10(2))
    assert metrics.gain(100, 0) == 0.0
    assert metrics.gain(0, 5) is None
    assert metrics.gain(100, 729) == pytest.approx(9.186, abs=1e-3)


def test_threshold_constant():
    assert metrics.CONTAGION_THRESHOLD_DB == pytest.approx(3.0103, abs=1e-4)


def test_gain_ratio_monotone_in_rt():
    prev_gain, prev_ratio = -1.0, -1.0
    for f_rt in range(0, 200, 7):
        g, r = metrics.gain(50, f_rt), metrics.contagion_ratio(50, f_rt)
        assert g > prev_gain and r > prev_ratio
        prev_gain, prev_ratio = g, r


# counts up to 2**53, zeros and small values likely
_COUNT = hs.one_of(hs.just(0), hs.integers(0, 9), hs.integers(0, 2**53))


@settings(deadline=None, max_examples=300)
@given(cells=hs.lists(hs.tuples(_COUNT, _COUNT), max_size=20))
def test_defined_daily_is_the_per_cell_table_bit_for_bit(cells):
    # the mean_of_daily reducer's written-out loops against the one
    # per-cell definition of each metric: same values, same order, same bits
    assert metrics._DEFINED_DAILY.keys() == metrics.PER_CELL.keys()
    for metric in metrics.METRICS:
        values = (metrics.PER_CELL[metric](f_ot, f_rt) for f_ot, f_rt in cells)
        expected = [v.hex() for v in values if v is not None]
        assert [v.hex() for v in metrics._DEFINED_DAILY[metric](cells)] == expected, metric


# -- bucketed aggregation ----------------------------------------------------


def test_aggregate_single_day_both_methods():
    store = _store([(D(2019, 6, 1), "th", 100, 729)])
    for method in metrics.METHODS:
        series = metrics.aggregate_metric(store, "th", "year", "ratio", method)
        assert series.points == ((D(2019, 1, 1), 7.29),)


def test_aggregate_methods_agree_on_proportional_days():
    store = _store([(D(2019, 1, 1), "en", 1, 1), (D(2019, 1, 2), "en", 1, 3)])
    mean = metrics.aggregate_metric(store, "en", "year", "ratio", "mean_of_daily")
    sums = metrics.aggregate_metric(store, "en", "year", "ratio", "ratio_of_sums")
    assert mean.values() == (2.0,)
    assert sums.values() == (2.0,)

    store = _store([(D(2019, 1, 1), "en", 1, 1), (D(2019, 1, 2), "en", 3, 3)])
    mean = metrics.aggregate_metric(store, "en", "year", "ratio", "mean_of_daily")
    sums = metrics.aggregate_metric(store, "en", "year", "ratio", "ratio_of_sums")
    assert mean.values() == (1.0,)
    assert sums.values() == (1.0,)


def test_aggregate_methods_diverge_on_skewed_days():
    store = _store([(D(2019, 1, 1), "en", 1, 3), (D(2019, 1, 2), "en", 3, 1)])
    mean = metrics.aggregate_metric(store, "en", "year", "ratio", "mean_of_daily")
    sums = metrics.aggregate_metric(store, "en", "year", "ratio", "ratio_of_sums")
    assert mean.values()[0] == pytest.approx(5 / 3, abs=1e-12)  # (3 + 1/3) / 2
    assert sums.values() == (1.0,)


def test_aggregate_skips_undefined_days():
    # day 2 has no organic messages: its ratio is undefined, not 0 or inf,
    # and must not drag the bucket mean
    store = _store([(D(2019, 1, 1), "en", 1, 2), (D(2019, 1, 2), "en", 0, 50)])
    mean = metrics.aggregate_metric(store, "en", "year", "ratio", "mean_of_daily")
    assert mean.values() == (2.0,)


def test_aggregate_unknown_language_empty():
    store = _store([(D(2019, 1, 1), "en", 1, 1)])
    assert metrics.aggregate_metric(store, "zz").points == ()


def test_aggregate_validates_names():
    store = _store([(D(2019, 1, 1), "en", 1, 1)])
    with pytest.raises(ValueError):
        metrics.aggregate_metric(store, "en", metric="volume")
    with pytest.raises(ValueError):
        metrics.aggregate_metric(store, "en", method="median_of_daily")


def test_daily_series():
    store = _store([(D(2019, 1, 1), "en", 1, 3), (D(2019, 1, 3), "en", 0, 2)])
    series = metrics.daily_series(store, "en", "ratio")
    assert series == ((D(2019, 1, 1), 3.0), (D(2019, 1, 3), None))
    gains = metrics.daily_series(store, "en", "gain")
    assert gains[0][1] == pytest.approx(10 * math.log10(4))


def test_annual_fixture_replay(annual_tally_csv):
    with open(annual_tally_csv, encoding="utf-8") as fh:
        store = tally.load_csv(fh)
    th = metrics.aggregate_metric(store, "th", "year", "ratio", "mean_of_daily")
    fi = metrics.aggregate_metric(store, "fi", "year", "ratio", "mean_of_daily")
    assert th.values() == (7.29,)  # exact, not approximate
    assert fi.values() == (0.26,)
    gain = metrics.aggregate_metric(store, "th", "year", "gain", "mean_of_daily")
    assert gain.values()[0] == pytest.approx(9.186, abs=1e-3)


# -- ranks / zipf ------------------------------------------------------------


def test_rank_table_tie_rule():
    store = _store([(D(2019, 1, 1), "en", 60, 40), (D(2019, 1, 1), "ja", 25, 25),
                    (D(2019, 1, 2), "es", 30, 20)])
    table = metrics.rank_table(store)
    assert [(r.rank, r.language, r.count) for r in table.rows] == [
        (1, "en", 100), (2, "es", 50), (3, "ja", 50),
    ]


def test_rank_table_period_filter():
    store = _store([(D(2019, 1, 1), "en", 10, 0), (D(2019, 2, 1), "th", 20, 0)])
    table = metrics.rank_table(store, (D(2019, 1, 15), None))
    assert [(r.rank, r.language) for r in table.rows] == [(1, "th")]
    assert metrics.rank_table(store, (D(2020, 1, 1), None)).rows == ()


def test_rank_table_single_language():
    store = _store([(D(2019, 1, 1), "en", 1, 0)])
    ((rank, lang, count),) = [
        (r.rank, r.language, r.count) for r in metrics.rank_table(store).rows
    ]
    assert (rank, lang, count) == (1, "en", 1)


def test_zipf_normalizes_counts():
    store = _store([(D(2019, 1, 1), "en", 60, 15), (D(2019, 1, 1), "ja", 20, 5)])
    zipf = metrics.rank_table(store).zipf()
    assert zipf == ((1, 0.75), (2, 0.25))


# -- pareto front ------------------------------------------------------------


def test_pareto_total_order():
    points = [(1.0, 1.0, "a"), (2.0, 2.0, "b"), (3.0, 3.0, "c")]
    assert metrics.pareto_front(points) == ((3.0, 3.0, "c"),)


def test_pareto_mutual_nondomination():
    points = [(1.0, 3.0, "a"), (2.0, 2.0, "b"), (3.0, 1.0, "c")]
    assert metrics.pareto_front(points) == tuple(points)


def test_pareto_empty():
    assert metrics.pareto_front([]) == ()


def test_pareto_properties_random():
    rnd = random.Random(6)
    for _ in range(50):
        pts = [(rnd.randrange(10), rnd.randrange(10), "l%d" % i) for i in range(12)]
        front = metrics.pareto_front(pts)
        # contains the coordinate-wise maxima
        assert max(n for n, _, _ in pts) in {n for n, _, _ in front}
        assert max(g for _, g, _ in pts) in {g for _, g, _ in front}
        # mutually non-dominated
        for i, (n_i, g_i, _) in enumerate(front):
            for j, (n_j, g_j, _) in enumerate(front):
                if i != j:
                    assert not (n_j >= n_i and g_j >= g_i and (n_j > n_i or g_j > g_i))


# -- forecast hand-off -------------------------------------------------------


def test_annual_glm_table(annual_tally_csv):
    with open(annual_tally_csv, encoding="utf-8") as fh:
        store = tally.load_csv(fh)
    rows = metrics.annual_glm_table(store)
    assert rows == (
        (2019, "fi", math.log10(126 * 365), 0.26),
        (2019, "th", math.log10(829 * 365), 7.29),
    )


def test_annual_glm_table_drops_undefined_years():
    store = _store([(D(2019, 1, 1), "en", 0, 10)])  # ratio undefined all year
    assert metrics.annual_glm_table(store) == ()


# -- reference: the DayTally-based, two-read metric path ----------------------


def _reference_aggregate_metric(store, language, resolution, metric, method):
    per_cell = metrics.PER_CELL[metric]
    cells = store.daily_counts(language)
    if not cells:
        return tally.BucketedSeries(resolution, ())
    if method == "mean_of_daily":
        daily = [(c.date, per_cell(c.f_ot, c.f_rt)) for c in cells]
        return reference_rebucket(daily, resolution, "mean")
    # exact integer sums per bucket; reference_rebucket walks the buckets
    sums = {}
    for c in cells:
        bucket = sums.setdefault(tally.bucket_start(c.date, resolution), [0, 0])
        bucket[0] += c.f_ot
        bucket[1] += c.f_rt
    walk = reference_rebucket([(c.date, None) for c in cells], resolution, "sum")
    points = tuple(
        (start, per_cell(*sums[start]) if start in sums else None)
        for start, _ in walk.points
    )
    return tally.BucketedSeries(resolution, points)


def _reference_annual_glm_table(store, method):
    rows = []
    for lang in store.languages():
        series = _reference_aggregate_metric(store, lang, "year", "ratio", method)
        volume = reference_rebucket(
            [(c.date, c.f_at) for c in store.daily_counts(lang)], "year", "sum"
        )
        for (start, ratio), (_, n_at) in zip(series.points, volume.points):
            if ratio is None or not n_at:
                continue
            rows.append((start.year, lang, math.log10(n_at), ratio))
    return tuple(sorted(rows))


# days a store may span at each resolution, so the bucket walk stays short;
# None: the whole calendar
_SPAN_DAYS = {"day": 40, "week": 300, "month": 1500, "quarter": 4000, "year": None}


def _stores_for(resolution):
    span = _SPAN_DAYS[resolution]
    if span is None:
        return tally_stores(hs.dates())
    return hs.dates().flatmap(lambda first: tally_stores(hs.dates(
        first, D.fromordinal(min(first.toordinal() + span, D.max.toordinal()))
    )))


@settings(deadline=None, max_examples=150)
@given(data=hs.data(), resolution=hs.sampled_from(tally.RESOLUTIONS))
def test_metric_paths_match_reference_on_arbitrary_stores(data, resolution):
    store = data.draw(_stores_for(resolution))
    for method in metrics.METHODS:
        for metric in metrics.METRICS:
            for lang in store.languages() + ("absent",):
                expected = _reference_aggregate_metric(store, lang, resolution, metric, method)
                assert metrics.aggregate_metric(store, lang, resolution, metric, method) == expected
        assert metrics.annual_glm_table(store, method) == _reference_annual_glm_table(store, method)


@settings(deadline=None, max_examples=100)
@given(store=tally_stores(hs.dates(D(2018, 11, 1), D(2020, 2, 29))), data=hs.data())
def test_row_order_and_split_rows_change_no_result(store, data):
    # a tally file's rows may come in any order and a cell may be split
    # over several rows: nothing may rely on save_csv's (date, language) order
    buf = io.StringIO()
    tally.save_csv(store, buf)
    rows = []
    for day, lang, ot, rt in list(csv.reader(io.StringIO(buf.getvalue())))[1:]:
        f_ot, f_rt = int(ot), int(rt)
        if data.draw(hs.booleans()):
            ot_1, rt_1 = data.draw(hs.integers(0, f_ot)), data.draw(hs.integers(0, f_rt))
            rows += [(day, lang, ot_1, rt_1), (day, lang, f_ot - ot_1, f_rt - rt_1)]
        else:
            rows.append((day, lang, f_ot, f_rt))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(tally.CSV_HEADER)
    writer.writerows(data.draw(hs.permutations(rows)))

    loaded = tally.load_csv(io.StringIO(text.getvalue()))
    assert loaded.entries == store.entries and loaded.errors == {}
    for method in metrics.METHODS:
        assert metrics.annual_glm_table(loaded, method) == metrics.annual_glm_table(store, method)
        for resolution in tally.RESOLUTIONS:
            for metric in metrics.METRICS:
                for lang in store.languages():
                    assert metrics.aggregate_metric(loaded, lang, resolution, metric, method) \
                        == metrics.aggregate_metric(store, lang, resolution, metric, method)
