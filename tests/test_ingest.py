"""NDJSON parsing and OT/RT categorization tests."""

import datetime as dt
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from contagion import ingest, lid, tally
from contagion.ingest import (
    OT,
    RT,
    MessageRecord,
    ParseStats,
    categorize,
    parse_ndjson,
)


def _parse(lines):
    stats = ParseStats()
    records = list(parse_ndjson(lines, stats=stats))
    return records, stats


def test_minimal_tweet():
    records, stats = _parse(['{"id":"1","ts":1577836800,"kind":"tweet","text":"hi"}'])
    assert stats.parsed == 1 and stats.error_total == 0
    (r,) = records
    assert r.kind == "tweet" and r.text == "hi" and r.id == "1"
    assert r.ts == 1577836800
    assert r.quoted_text is None


def test_empty_line_skipped():
    records, stats = _parse(["", "   ", "\n"])
    assert records == []
    assert stats.errors["empty_line"] == 3


def test_quote_record():
    line = '{"id":"2","ts":1577836800,"kind":"quote","text":"agree!","quoted_text":"original"}'
    records, _ = _parse([line])
    (r,) = records
    assert r.kind == "quote" and r.quoted_text == "original"


def test_malformed_lines_counted_and_skipped():
    lines = [
        "{not json",
        "[" * 100_000 + "]" * 100_000,  # RecursionError inside json.loads
        '{"id":"1","ts":%s,"kind":"tweet","text":"x"}' % ("9" * 5000),  # int digit limit
        '{"id":"1","ts":1,"kind":"boost","text":"x"}',
        '{"id":"1","ts":"soon","kind":"tweet","text":"x"}',
        '{"id":"","ts":1,"kind":"tweet","text":"x"}',
        '{"id":"1","ts":1,"kind":"tweet"}',
        '{"id":"1","ts":1,"kind":"quote","text":"x"}',
        '{"id":"ok","ts":1,"kind":"tweet","text":"fine"}',
    ]
    records, stats = _parse(lines)
    assert [r.id for r in records] == ["ok"]
    assert stats.errors["bad_json"] == 3
    assert stats.errors["unknown_kind"] == 1
    assert stats.errors["bad_record"] == 3
    assert stats.errors["missing_quoted_text"] == 1
    assert stats.parsed == 1


_JSON_VALUES = hs.recursive(
    hs.none() | hs.booleans() | hs.integers() | hs.floats() | hs.text(max_size=4),
    lambda inner: (
        hs.lists(inner, max_size=2) | hs.dictionaries(hs.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=4,
)
_FIELD_VALUES = {
    "id": hs.sampled_from(["m1", ""]) | _JSON_VALUES,
    "ts": hs.sampled_from([0, 1.0, ingest._TS_MIN, ingest._TS_MAX, ingest._TS_MAX + 1])
    | _JSON_VALUES,
    "kind": hs.sampled_from(ingest.KINDS + ("boost", "", "Tweet")) | _JSON_VALUES,
    "text": hs.sampled_from(["x", ""]) | _JSON_VALUES,
    "quoted_text": hs.sampled_from(["q", ""]) | _JSON_VALUES,
    "lang": hs.sampled_from(["en", "EN_us", "x"]) | _JSON_VALUES,
    "lang_conf": hs.sampled_from([0.9, 0.1, 1]) | _JSON_VALUES,
}


@settings(max_examples=500, deadline=None)
@given(obj=hs.fixed_dictionaries({}, optional=_FIELD_VALUES) | _JSON_VALUES)
def test_rejection_precedence(obj):
    # the kind decides first: a string kind outside KINDS is unknown_kind and
    # a quote without a string quoted_text is missing_quoted_text, whatever
    # else is wrong; any other fault is bad_record
    records, stats = _parse([json.dumps(obj)])
    counted = [k for k, n in stats.errors.items() for _ in range(n)]
    fields = obj if isinstance(obj, dict) else {}
    kind, ts, msg_id = fields.get("kind"), fields.get("ts"), fields.get("id")
    if not isinstance(obj, dict):
        expected = ["bad_record"]
    elif isinstance(kind, str) and kind not in ingest.KINDS:
        expected = ["unknown_kind"]
    elif kind == "quote" and not isinstance(fields.get("quoted_text"), str):
        expected = ["missing_quoted_text"]
    elif (
        kind in ingest.KINDS
        and (type(ts) is int or type(ts) is float and ts.is_integer())
        and ingest._TS_MIN <= ts <= ingest._TS_MAX
        and isinstance(msg_id, str)
        and msg_id != ""
        and isinstance(fields.get("text"), str)
    ):
        expected = []
    else:
        expected = ["bad_record"]
    assert counted == expected
    assert stats.parsed == len(records) == (not expected)


def test_bad_encoding_bytes():
    records, stats = _parse([b"\xff\xfe{}", b'{"id":"1","ts":1,"kind":"tweet","text":"x"}'])
    assert len(records) == 1
    assert stats.errors["bad_encoding"] == 1


def test_ts_coercion():
    ok = '{"id":"1","ts":1.0,"kind":"tweet","text":"x"}'
    bad = '{"id":"1","ts":1.5,"kind":"tweet","text":"x"}'
    booly = '{"id":"1","ts":true,"kind":"tweet","text":"x"}'
    records, stats = _parse([ok, bad, booly])
    assert len(records) == 1 and records[0].ts == 1
    assert stats.errors["bad_record"] == 2


def test_ts_outside_calendar_is_bad_record():
    # a UTC day exists for 0001-01-01 .. 9999-12-31 only; beyond it the
    # record is counted and skipped instead of raising from day()
    line = '{"id":"%s","ts":%s,"kind":"tweet","text":"x"}'
    stamps = ("1e20", "-99999999999999", "253402300800", "-62135596801",
              "253402300799", "-62135596800")
    records, stats = _parse([line % (i, ts) for i, ts in enumerate(stamps)])
    assert [r.day() for r in records] == [dt.date(9999, 12, 31), dt.date(1, 1, 1)]
    assert stats.errors["bad_record"] == 4
    assert stats.parsed == 2 and stats.error_total == 4


def test_unrecognized_fields_ignored():
    line = '{"id":"1","ts":1,"kind":"tweet","text":"x","mystery":9,"quoted_text":"noise"}'
    records, stats = _parse([line])
    (r,) = records
    assert r.quoted_text is None  # quoted_text on a non-quote is just noise
    assert stats.error_total == 0


def test_external_label_fields():
    lines = [
        '{"id":"1","ts":1,"kind":"tweet","text":"x","lang":"en","lang_conf":0.9}',
        '{"id":"2","ts":1,"kind":"tweet","text":"x"}',
    ]
    records, _ = _parse(lines)
    assert records[0].external_label == "en"
    assert records[0].external_confidence == 0.9
    assert records[1].external_label is None
    assert records[1].external_confidence is None


def test_external_confidence_outside_unit_interval_is_nan():
    confs = ["NaN", "7", "1" + "0" * 400, "-0.5", '"0.9"', "true", "null", "1", "0.5"]
    lines = ['{"id":"1","ts":1,"kind":"tweet","text":"x","lang":"en","lang_conf":%s}' % c
             for c in confs]
    records, stats = _parse(lines)
    assert stats.parsed == len(confs)
    got = [r.external_confidence for r in records]
    assert all(math.isnan(v) for v in got[:6])
    assert got[6:] == [None, 1.0, 0.5] and type(got[7]) is float


def test_categorize_reply_is_ot():
    msg = MessageRecord(id="1", ts=0, kind="reply", text="hi")
    assert categorize(msg) == [(OT, "hi")]


def test_categorize_retweet_is_rt():
    msg = MessageRecord(id="1", ts=0, kind="retweet", text="hi")
    assert categorize(msg) == [(RT, "hi")]


def test_categorize_quote_splits_in_order():
    msg = MessageRecord(
        id="7", ts=60, kind="quote", text="agree!", quoted_text="original"
    )
    assert categorize(msg) == [(OT, "agree!"), (RT, "original")]


def test_quote_with_empty_comment_still_emits_ot_half():
    msg = MessageRecord(id="7", ts=0, kind="quote", text="", quoted_text="original")
    assert categorize(msg) == [(OT, ""), (RT, "original")]


def test_count_conservation():
    lines = []
    for i in range(5):
        lines.append('{"id":"t%d","ts":1,"kind":"tweet","text":"x"}' % i)
    for i in range(3):
        lines.append('{"id":"r%d","ts":1,"kind":"reply","text":"x"}' % i)
    for i in range(4):
        lines.append('{"id":"w%d","ts":1,"kind":"retweet","text":"x"}' % i)
    for i in range(2):
        lines.append('{"id":"q%d","ts":1,"kind":"quote","text":"x","quoted_text":"y"}' % i)
    records, _ = _parse(lines)
    parts = [p for r in records for p in categorize(r)]
    assert len(parts) == 5 + 3 + 4 + 2 * 2


def test_determinism_same_stream():
    lines = [
        '{"id":"1","ts":1,"kind":"tweet","text":"x"}',
        "junk",
        '{"id":"2","ts":2,"kind":"retweet","text":"y"}',
    ]
    r1, s1 = _parse(lines)
    r2, s2 = _parse(lines)
    assert r1 == r2
    assert s1.errors == s2.errors and s1.parsed == s2.parsed


def test_quote_halves_inherit_external_label():
    # a part carries no label of its own: both halves are tallied under
    # their record's wire label, on their record's day
    line = json.dumps({"id": "9", "ts": 0, "kind": "quote", "text": "c", "quoted_text": "q",
                       "lang": "fi", "lang_conf": 0.8})
    seen = []

    def label(record, text):
        seen.append(text)
        return lid.wire_label(record)

    store = tally.ingest_tally([line], label)
    assert seen == ["c", "q"]
    assert store.entries == {"fi": {dt.date(1970, 1, 1): (1, 1)}}


def test_fixture_stream_counts(mini_ndjson):
    with open(mini_ndjson, "rb") as fh:
        records, stats = _parse(fh.read().splitlines(keepends=True))
    parts = [p for r in records for p in categorize(r)]
    assert len(parts) == 26
    assert stats.error_total == 5


# -- record contract ---------------------------------------------------------------

# day numbers (ts // 86400) whose midnight and the second before it are both
# stamps of the calendar
_MIDNIGHT_DAYS = hs.integers(ingest._TS_MIN // 86400 + 1, ingest._TS_MAX // 86400)


@settings(max_examples=300, deadline=None)
@given(
    hs.one_of(
        hs.integers(ingest._TS_MIN, ingest._TS_MAX),
        hs.integers(ingest._TS_MIN, -1),
        _MIDNIGHT_DAYS.flatmap(lambda d: hs.sampled_from([86400 * d - 1, 86400 * d])),
    )
)
@example(ingest._TS_MIN)
@example(ingest._TS_MIN + 86399)
@example(ingest._TS_MAX)
@example(ingest._TS_MAX - 86399)
@example(-1)
@example(0)
@example(-86400)
@example(-86401)
def test_day_is_the_utc_date_of_ts(ts):
    expected = dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).date()
    record = MessageRecord(id="1", ts=ts, kind="tweet", text="x")
    assert record.day() == expected
    hits = ingest._utc_date.cache_info().hits
    twin = MessageRecord(id="2", ts=ts, kind="retweet", text="y")
    assert twin.day() == expected  # the same day number: served from the cache
    assert ingest._utc_date.cache_info().hits == hits + 1


RECORD_FIELDS = {
    MessageRecord: dict(
        id="m1", ts=1559433599, kind="quote", text="agree", quoted_text="orig",
        external_label=" EN_us ", external_confidence=0.75,
    ),
}
# a value for each field that differs from both samples
OTHER_VALUES = dict(
    id="m2", ts=1559433600, kind="tweet", text="other", quoted_text=None,
    external_label=None, external_confidence=0.5,
)
# what the records printed when they were frozen dataclasses
RECORD_REPRS = {
    MessageRecord: (
        "MessageRecord(id='m1', ts=1559433599, kind='quote', text='agree', "
        "quoted_text='orig', external_label=' EN_us ', external_confidence=0.75)"
    ),
}


@pytest.mark.parametrize("cls", [MessageRecord])
def test_record_equality_hash_immutability_and_repr(cls):
    fields = RECORD_FIELDS[cls]
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and hash(record) == hash(twin)
    for name in fields:
        assert cls(**{**fields, name: OTHER_VALUES[name]}) != record, name
        with pytest.raises(AttributeError):
            setattr(record, name, OTHER_VALUES[name])
    assert record == twin
    assert repr(record) == RECORD_REPRS[cls]


def test_record_defaults_repr():
    assert repr(MessageRecord(id="1", ts=0, kind="tweet", text="hi")) == (
        "MessageRecord(id='1', ts=0, kind='tweet', text='hi', quoted_text=None, "
        "external_label=None, external_confidence=None)"
    )
