"""NDJSON parsing and OT/RT categorization tests."""

import datetime as dt
import math

from contagion.ingest import (
    OT,
    RT,
    CategorizedMessage,
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
    (part,) = categorize(msg)
    assert part.category == OT and part.text == "hi" and part.id == "1"


def test_categorize_retweet_is_rt():
    msg = MessageRecord(id="1", ts=0, kind="retweet", text="hi")
    (part,) = categorize(msg)
    assert part.category == RT


def test_categorize_quote_splits_in_order():
    msg = MessageRecord(
        id="7", ts=60, kind="quote", text="agree!", quoted_text="original"
    )
    comment, quoted = categorize(msg)
    assert (comment.category, comment.text, comment.id) == (OT, "agree!", "7#c")
    assert (quoted.category, quoted.text, quoted.id) == (RT, "original", "7#r")
    assert comment.ts == quoted.ts == 60


def test_quote_with_empty_comment_still_emits_ot_half():
    msg = MessageRecord(id="7", ts=0, kind="quote", text="", quoted_text="original")
    comment, quoted = categorize(msg)
    assert comment.category == OT and comment.text == ""
    assert quoted.category == RT


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


def test_stats_merge():
    _, s1 = _parse(["junk"])
    _, s2 = _parse(["", '{"id":"1","ts":1,"kind":"tweet","text":"x"}'])
    merged = s1.merge(s2)
    assert merged.parsed == 1
    assert merged.errors["bad_json"] == 1 and merged.errors["empty_line"] == 1


def test_categorized_message_day():
    # 2019-06-01T23:59:59Z and one second later land on different UTC days
    before = CategorizedMessage(id="a", ts=1559433599, kind="tweet", text="x", category=OT)
    after = CategorizedMessage(id="b", ts=1559433600, kind="tweet", text="x", category=OT)
    assert before.day() == dt.date(2019, 6, 1)
    assert after.day() == dt.date(2019, 6, 2)


def test_quote_halves_inherit_external_label():
    msg = MessageRecord(
        id="9", ts=0, kind="quote", text="c", quoted_text="q",
        external_label="fi", external_confidence=0.8,
    )
    for part in categorize(msg):
        assert part.external_label == "fi"
        assert part.external_confidence == 0.8


def test_fixture_stream_counts(mini_ndjson):
    with open(mini_ndjson, "rb") as fh:
        records, stats = _parse(fh.read().splitlines(keepends=True))
    parts = [p for r in records for p in categorize(r)]
    assert len(parts) == 26
    assert stats.error_total == 5
