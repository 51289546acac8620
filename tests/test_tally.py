"""Tally store, merge monoid, CSV interchange, and calendar bucketing tests."""

import csv
import datetime as dt
import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from contagion import tally
from contagion.ingest import OT, RT, MessageRecord
from contagion.tally import TallyStore

from conftest import (
    reference_load_csv,
    reference_rebucket,
    reference_rolling_mean,
    tally_stores,
)

D = dt.date


def _msg(ts: int, kind: str = "tweet") -> MessageRecord:
    return MessageRecord(id="m", ts=ts, kind=kind, text="x")


def _random_store(rnd: random.Random) -> TallyStore:
    store = TallyStore()
    for _ in range(rnd.randrange(0, 12)):
        date = D(2019, rnd.randrange(1, 13), rnd.randrange(1, 28))
        lang = rnd.choice(["en", "es", "th", "fi", "und"])
        store.add(date, lang, OT, rnd.randrange(0, 5))
        store.add(date, lang, RT, rnd.randrange(0, 5))
    if rnd.random() < 0.3:
        store.count_error("bad_json", rnd.randrange(1, 4))
    return store


# arbitrary stores over the whole calendar, with repeats made likely
_STORES = tally_stores(hs.one_of(hs.dates(D(2019, 1, 1), D(2019, 1, 5)), hs.dates()))


# -- accumulate --------------------------------------------------------------


def test_accumulate_ot():
    store = TallyStore()
    tally.accumulate(store, _msg(1559347200), OT, "en")  # 2019-06-01 UTC
    assert store.get(D(2019, 6, 1), "en") == (1, 0)


def test_accumulate_rt_twice():
    store = TallyStore()
    for _ in range(2):
        tally.accumulate(store, _msg(1559347200, "retweet"), RT, "th")
    assert store.get(D(2019, 6, 1), "th") == (0, 2)


def test_accumulate_utc_midnight_straddle():
    store = TallyStore()
    tally.accumulate(store, _msg(1559433599), OT, "en")
    tally.accumulate(store, _msg(1559433600), OT, "en")
    assert store.get(D(2019, 6, 1), "en") == (1, 0)
    assert store.get(D(2019, 6, 2), "en") == (1, 0)


def test_no_empty_cells_persisted():
    store = TallyStore()
    store.add(D(2019, 1, 1), "en", OT, 0)
    assert len(store) == 0
    with pytest.raises(ValueError):
        store.add(D(2019, 1, 1), "en", OT, -1)


def test_day_tally_f_at_derived():
    cell = tally.DayTally(D(2019, 1, 1), "en", 3, 4)
    assert cell.f_at == 7


# -- merge monoid ------------------------------------------------------------


def test_merge_identity():
    rnd = random.Random(1)
    for _ in range(50):
        store = _random_store(rnd)
        assert tally.merge(store, TallyStore()) == store
        assert tally.merge(TallyStore(), store) == store


def test_merge_commutative_and_associative():
    rnd = random.Random(2)
    for _ in range(300):
        a, b, c = _random_store(rnd), _random_store(rnd), _random_store(rnd)
        assert tally.merge(a, b) == tally.merge(b, a)
        assert tally.merge(a, tally.merge(b, c)) == tally.merge(tally.merge(a, b), c)


def test_merge_sums_cells_and_errors():
    a, b = TallyStore(), TallyStore()
    a.add(D(2019, 1, 1), "en", OT, 2)
    a.count_error("bad_json", 1)
    b.add(D(2019, 1, 1), "en", RT, 3)
    b.count_error("bad_json", 2)
    merged = tally.merge(a, b)
    assert merged.get(D(2019, 1, 1), "en") == (2, 3)
    assert merged.errors == {"bad_json": 3}


def test_conservation_on_fixture(mini_ndjson):
    with open(mini_ndjson, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    store = tally.ingest_tally(lines, lambda record, text: "xx")
    tallied = sum(f_ot + f_rt for _, _, f_ot, f_rt in store.rows())
    assert tallied == 26
    assert store.error_total == 5
    assert tallied + store.error_total == 31


@settings(deadline=None)
@given(a=_STORES, b=_STORES)
def test_merge_leaves_its_operands_alone(a, b):
    # merge shares a's immutable cells but none of its dicts
    before = [(dict(s.errors), {lang: dict(days) for lang, days in s.entries.items()})
              for s in (a, b)]
    merged = tally.merge(a, b)
    for lang in a.languages() + ("new",):
        merged.add_counts(D(2019, 1, 1), lang, 1, 1)
    merged.count_error("bad_json")
    assert [(s.errors, s.entries) for s in (a, b)] == before


@settings(deadline=None)
@given(a=_STORES, b=_STORES, c=_STORES)
def test_merge_monoid_on_arbitrary_stores(a, b, c):
    assert tally.merge(a, TallyStore()) == a == tally.merge(TallyStore(), a)
    assert tally.merge(a, b) == tally.merge(b, a)
    assert tally.merge(a, tally.merge(b, c)) == tally.merge(tally.merge(a, b), c)


# -- CSV interchange ---------------------------------------------------------


def test_csv_roundtrip():
    rnd = random.Random(3)
    for _ in range(20):
        store = _random_store(rnd)
        store.errors.clear()  # errors are run metadata, not part of the file
        buf = io.StringIO()
        tally.save_csv(store, buf)
        clone = tally.load_csv(io.StringIO(buf.getvalue()))
        assert clone == store


@settings(deadline=None)
@given(store=_STORES)
def test_csv_roundtrip_on_arbitrary_stores(store):
    store.errors.clear()
    buf = io.StringIO()
    tally.save_csv(store, buf)
    assert tally.load_csv(io.StringIO(buf.getvalue())) == store


def test_csv_rows_sorted():
    store = TallyStore()
    store.add(D(2019, 2, 1), "th", OT)
    store.add(D(2019, 1, 1), "en", OT)
    store.add(D(2019, 1, 1), "aa", RT)
    buf = io.StringIO()
    tally.save_csv(store, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "date,language,f_ot,f_rt"
    assert lines[1:] == ["2019-01-01,aa,0,1", "2019-01-01,en,1,0", "2019-02-01,th,1,0"]


def test_load_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        tally.load_csv(io.StringIO("day,lang,a,b\n"))


def test_load_csv_rejects_negative_counts():
    text = "date,language,f_ot,f_rt\n2019-01-01,en,-1,0\n"
    with pytest.raises(ValueError, match="line 2"):
        tally.load_csv(io.StringIO(text))


def test_load_csv_accepts_counts_up_to_2_53():
    text = "date,language,f_ot,f_rt\n2019-01-01,en,%d,%d\n" % (2**53, 2**53)
    assert tally.load_csv(io.StringIO(text)).entries == {"en": {D(2019, 1, 1): (2**53, 2**53)}}


def test_load_csv_rejects_malformed_row():
    text = "date,language,f_ot,f_rt\n2019-01-01,en,1\n"
    with pytest.raises(ValueError, match="line 2"):
        tally.load_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "row, message",
    [
        ("2019-13-01,en,1,0", "line 4: month must be in 1..12"),
        ("2019-01-02,en,x,0", "line 4: invalid literal for int() with base 10: 'x'"),
        ("2019-01-02,en,0,-2", "line 4: negative count"),
        ("2019-01-02,en,+4,0", "line 4: count '+4' is not in the form save_csv writes"),
        ("2019-01-02,en,-1,01", "line 4: count '01' is not in the form save_csv writes"),
        ("2019-01-02,en,%d,0" % (2**53 + 1), "line 4: count above 2**53"),
        ("2019-01-02,en,0,1%s" % ("0" * 320), "line 4: count above 2**53"),
        ("2019-01-02,en,-1,1%s" % ("0" * 320), "line 4: negative count"),
        ("2019-01-02,en,1,0,9", "line 4: expected 4 fields, got 5"),
    ],
)
def test_load_csv_errors_name_the_line(row, message):
    # line 3 is blank: it is skipped but still counted
    text = "date,language,f_ot,f_rt\n2019-01-01,en,1,0\n\n%s\n" % row
    with pytest.raises(ValueError) as info:
        tally.load_csv(io.StringIO(text))
    assert str(info.value) == message


def test_load_csv_errors_name_the_physical_line_after_a_multiline_field():
    # save_csv quotes a language holding a newline, so that row spans lines 2-3
    text = 'date,language,f_ot,f_rt\n2019-01-01,"a\nb",1,0\n2019-01-02,en,x,0\n'
    with pytest.raises(ValueError) as info:
        tally.load_csv(io.StringIO(text))
    assert str(info.value) == "line 4: invalid literal for int() with base 10: 'x'"


def test_load_csv_sums_duplicate_rows_into_one_cell():
    text = "date,language,f_ot,f_rt\n2019-01-01,en,1,2\n2019-01-01,en,3,4\n"
    store = tally.load_csv(io.StringIO(text))
    assert store.entries == {"en": {D(2019, 1, 1): (4, 6)}}


def test_load_csv_zero_row_leaves_nothing():
    text = "date,language,f_ot,f_rt\n2019-01-01,th,0,0\n2019-01-02,en,0,0\n2019-01-02,th,1,0\n"
    store = tally.load_csv(io.StringIO(text))
    assert store.entries == {"th": {D(2019, 1, 2): (1, 0)}}
    assert store.languages() == ("th",)


def test_load_csv_same_day_cells_are_independent():
    text = "date,language,f_ot,f_rt\n2019-01-01,en,1,0\n2019-01-01,th,0,2\n2019-01-01,en,0,5\n"
    store = tally.load_csv(io.StringIO(text))
    assert store.get(D(2019, 1, 1), "en") == (1, 5)
    assert store.get(D(2019, 1, 1), "th") == (0, 2)
    store.add(D(2019, 1, 1), "th", OT, 7)
    assert store.get(D(2019, 1, 1), "en") == (1, 5)


def _load_either(load, text):
    """The loaded cells in their exact order (languages, then each language's
    days), or the message load_csv raised."""
    try:
        store = load(io.StringIO(text, newline=""))
    except ValueError as exc:
        return str(exc)
    return [(lang, list(days.items())) for lang, days in store.entries.items()]


def _mostly(valid, rejected):
    """`valid` about 19 times in 20: a file of a dozen rows then loads
    whole about half the time and otherwise fails on one of `rejected`."""
    return hs.sampled_from([valid] * 19 + [rejected]).flatmap(lambda strategy: strategy)


# every form the README lists as rejected, among valid fields
_DAYS = _mostly(
    hs.sampled_from(["2019-01-01", "2019-01-02", "2020-02-29"]),
    hs.sampled_from(["20190101", "2019-W01-1", "2019-13-01", "x"]),
)
_COUNT_TEXTS = _mostly(
    hs.one_of(hs.integers(0, 40).map(str), hs.just(str(2**53))),
    hs.sampled_from(
        ["1_000", " 1", "+4", "01", "-0", "\u0663", "\uff11", "-1", "-7", str(2**53 + 1),
         "1" + "0" * 30, "x", ""]
    ),
)
_LANGUAGES = hs.sampled_from(["en", "th", "a\nb", "a,b", 'q"t', ""])
_ROWS = _mostly(
    hs.tuples(_DAYS, _LANGUAGES, _COUNT_TEXTS, _COUNT_TEXTS).map(list),
    hs.one_of(
        hs.just([]),  # a blank line
        hs.tuples(_DAYS, _LANGUAGES, _COUNT_TEXTS).map(list),
        hs.tuples(_DAYS, _LANGUAGES, _COUNT_TEXTS, _COUNT_TEXTS, _COUNT_TEXTS).map(list),
    ),
)


@settings(max_examples=300, deadline=None)
@given(rows=hs.lists(_ROWS, max_size=12))
def test_load_csv_matches_the_row_by_row_reference(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(tally.CSV_HEADER)
    writer.writerows(rows)
    text = buf.getvalue()
    assert _load_either(tally.load_csv, text) == _load_either(reference_load_csv, text)


@pytest.mark.parametrize("last", ["2019-01-03,en,1,2", "2019-01-03,en,1,-2", "2019-01-03,en,01,2"])
def test_load_csv_past_the_count_memo_bound_matches_the_reference(last):
    # 6,000 distinct counts overflow the 4,096-entry memo; early and late
    # counts then repeat, and the last row is valid or fails a check
    distinct = ["2019-01-01,l%d,%d,%d" % (i, 10**6 + 2 * i, 10**6 + 2 * i + 1) for i in range(3000)]
    repeats = ["2019-01-02,l%d,%d,%d" % (i, 10**6 + 2 * i, 10**6 + 5999 - 2 * i) for i in range(3000)]
    text = "\n".join(["date,language,f_ot,f_rt"] + distinct + repeats + [last]) + "\n"
    assert _load_either(tally.load_csv, text) == _load_either(reference_load_csv, text)


# -- calendar bucketing ------------------------------------------------------


def test_bucket_start_rules():
    assert tally.bucket_start(D(2019, 2, 15), "quarter") == D(2019, 1, 1)
    assert tally.bucket_start(D(2019, 6, 5), "week") == D(2019, 6, 3)  # Wed -> Mon
    assert tally.bucket_start(D(2019, 12, 31), "year") == D(2019, 1, 1)
    assert tally.bucket_start(D(2019, 6, 15), "month") == D(2019, 6, 1)
    assert tally.bucket_start(D(2019, 6, 15), "day") == D(2019, 6, 15)
    # ISO week can start in the previous year
    assert tally.bucket_start(D(2021, 1, 1), "week") == D(2020, 12, 28)


def test_rebucket_constant_month_means():
    days = [(D(2019, 1, 1) + dt.timedelta(n), 7.29) for n in range(90)]
    series = tally.rebucket(days, "month", "mean")
    assert [v for _, v in series.points] == [7.29, 7.29, 7.29]


def test_rebucket_sum_over_january():
    days = [(D(2019, 1, 1) + dt.timedelta(n), 1.0) for n in range(31)]
    series = tally.rebucket(days, "month", "sum")
    assert series.points == ((D(2019, 1, 1), 31.0),)


def test_rebucket_exact_constant_year_mean():
    # 365 equal values must average to exactly that value, no float drift
    days = [(D(2019, 1, 1) + dt.timedelta(n), 7.29) for n in range(365)]
    series = tally.rebucket(days, "year", "mean")
    assert series.points == ((D(2019, 1, 1), 7.29),)


def test_rebucket_gap_bucket_is_none():
    days = [(D(2019, 1, 10), 1.0), (D(2019, 3, 10), 3.0)]
    series = tally.rebucket(days, "month", "mean")
    assert series.points == (
        (D(2019, 1, 1), 1.0),
        (D(2019, 2, 1), None),
        (D(2019, 3, 1), 3.0),
    )


def test_rebucket_ignores_missing_days():
    days = [(D(2019, 1, 1), 2.0), (D(2019, 1, 2), None), (D(2019, 1, 3), 4.0)]
    series = tally.rebucket(days, "month", "mean")
    assert series.points == ((D(2019, 1, 1), 3.0),)


def test_rebucket_hands_each_bucket_run_to_a_reducer():
    # values of any kind, in date order; an empty bucket never reaches it
    runs = []
    days = [(D(2019, 1, 30), "a"), (D(2019, 1, 31), None), (D(2019, 3, 1), "c")]
    series = tally.rebucket(days, "month", lambda values: runs.append(values) or len(runs))
    assert runs == [["a", None], ["c"]]
    assert series.points == ((D(2019, 1, 1), 1), (D(2019, 2, 1), None), (D(2019, 3, 1), 2))


def test_rebucket_requires_strictly_increasing():
    days = [(D(2019, 1, 2), 1.0), (D(2019, 1, 1), 2.0)]
    with pytest.raises(ValueError):
        tally.rebucket(days, "month")
    with pytest.raises(ValueError):
        tally.rebucket([(D(2019, 1, 1), 1.0)] * 2, "month")


def test_rebucket_validates_arguments():
    with pytest.raises(ValueError):
        tally.rebucket([], "fortnight")
    with pytest.raises(ValueError):
        tally.rebucket([], "month", "median")
    assert tally.rebucket([], "month").points == ()


_VALUES = hs.one_of(hs.none(), hs.integers(-10**6, 10**6), hs.floats(-1e6, 1e6))


@hs.composite
def _daily_series(draw, values=_VALUES):
    """A strictly increasing series near an anchor anywhere in the calendar
    (0001-01-01, 9999-12-31, and year ends with their ISO-week edges), with
    gaps, None values and buckets that hold only None."""
    anchor = draw(hs.one_of(
        hs.dates(),
        hs.sampled_from([D.min, D.max]),
        hs.builds(lambda y, k: D(y, 12, 25) + dt.timedelta(k), hs.integers(1, 9998), hs.integers(0, 10)),
    ))
    offsets = draw(hs.lists(hs.integers(-1200, 1200), max_size=40))
    ordinals = sorted({min(max(anchor.toordinal() + k, 1), D.max.toordinal()) for k in offsets})
    return [(D.fromordinal(o), draw(values)) for o in ordinals]


@settings(deadline=None, max_examples=300)
@given(
    series=_daily_series(),
    resolution=hs.sampled_from(tally.RESOLUTIONS),
    aggregator=hs.sampled_from(tally.AGGREGATORS),
)
@example(series=[(D.min, 1.0), (D(5000, 6, 1), None), (D.max, 2)], resolution="year", aggregator="mean")
def test_rebucket_matches_dict_reference(series, resolution, aggregator):
    expected = reference_rebucket(series, resolution, aggregator)
    assert tally.rebucket(series, resolution, aggregator) == expected


def test_bucketed_series_values():
    series = tally.rebucket([(D(2019, 1, 1), 1.0), (D(2019, 1, 2), 3.0)], "month")
    assert series.resolution == "month"
    assert series.values() == (2.0,)


# -- rolling mean ------------------------------------------------------------


def test_rolling_mean_examples():
    week = [(D(2019, 1, 1) + dt.timedelta(n), float(n + 1)) for n in range(7)]
    out = tally.rolling_mean(week, 7)
    assert out[-1] == (D(2019, 1, 7), 4.0)
    assert tally.rolling_mean(week, 1) == tuple(week)
    const = [(D(2019, 1, 1) + dt.timedelta(n), 2.5) for n in range(10)]
    assert all(v == 2.5 for _, v in tally.rolling_mean(const, 3))


def test_rolling_mean_skips_missing_days():
    series = [(D(2019, 1, 1), 1.0), (D(2019, 1, 2), None), (D(2019, 1, 3), 5.0)]
    out = dict(tally.rolling_mean(series, 2))
    assert out[D(2019, 1, 1)] == 1.0
    assert out[D(2019, 1, 2)] == 1.0  # window holds only day 1
    assert out[D(2019, 1, 3)] == 5.0  # day 2 contributes nothing


def test_rolling_mean_none_when_window_empty():
    series = [(D(2019, 1, 1), 1.0), (D(2019, 1, 2), None), (D(2019, 1, 3), None),
              (D(2019, 1, 4), None), (D(2019, 1, 5), 2.0)]
    out = dict(tally.rolling_mean(series, 2))
    assert out[D(2019, 1, 3)] is None
    assert out[D(2019, 1, 4)] is None
    assert out[D(2019, 1, 5)] == 2.0


def test_rolling_mean_fills_calendar_gaps():
    series = [(D(2019, 1, 1), 1.0), (D(2019, 1, 4), 4.0)]
    out = tally.rolling_mean(series, 2)
    assert [d for d, _ in out] == [D(2019, 1, 1) + dt.timedelta(n) for n in range(4)]
    assert dict(out)[D(2019, 1, 3)] is None


def test_rolling_mean_validates_window():
    with pytest.raises(ValueError):
        tally.rolling_mean([(D(2019, 1, 1), 1.0)], 0)


def _outcome(fn, *args):
    """fn's result, or the error it raised: on extreme values fsum can meet
    inf - inf or overflow, and whether it overflows depends on the order
    it sums in."""
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return repr(exc)


@settings(deadline=None, max_examples=300)
@given(
    series=_daily_series(hs.one_of(_VALUES, hs.floats(allow_nan=False))),
    window=hs.integers(1, 40),
)
@example(series=[(D.min, 1.0), (D(1, 1, 3), 3)], window=3)
@example(series=[(D.max - dt.timedelta(2), 1e308), (D.max, 1e308)], window=3)
@example(series=[(D(2019, 1, 1), -1e308), (D(2019, 1, 2), 1e308), (D(2019, 1, 3), 1e308)], window=3)
def test_rolling_mean_matches_reference(series, window):
    expected = _outcome(reference_rolling_mean, series, window)
    assert _outcome(tally.rolling_mean, series, window) == expected


# -- store summaries ---------------------------------------------------------


def test_languages_daily_counts():
    store = TallyStore()
    store.add(D(2019, 3, 1), "en", OT, 2)
    store.add(D(2019, 1, 1), "th", RT, 1)
    assert store.languages() == ("en", "th")
    (cell,) = store.daily_counts("en")
    assert (cell.date, cell.language, cell.f_ot, cell.f_rt) == (D(2019, 3, 1), "en", 2, 0)
    assert store.rows() == [(D(2019, 1, 1), "th", 0, 1), (D(2019, 3, 1), "en", 2, 0)]
    assert TallyStore().languages() == () and TallyStore().rows() == []


@settings(deadline=None)
@given(store=_STORES)
def test_rows_are_the_per_language_views_merged(store):
    views = [cell for lang in store.languages() for cell in store.daily_counts(lang)]
    for lang in store.languages():
        dates = [cell.date for cell in store.daily_counts(lang)]
        assert dates == sorted(set(dates))
        assert store.day_counts(lang) == [
            (c.date, (c.f_ot, c.f_rt)) for c in store.daily_counts(lang)
        ]
    rows = store.rows()
    assert rows == sorted((c.date, c.language, c.f_ot, c.f_rt) for c in views)
    assert len(store) == len(rows)
    # nothing empty persists: no (0, 0) cell, no language without cells
    assert all(f_ot + f_rt > 0 for _, _, f_ot, f_rt in rows)
    assert store.languages() == tuple(sorted({lang for _, lang, _, _ in rows}))
