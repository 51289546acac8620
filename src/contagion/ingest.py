"""NDJSON message ingestion.

One JSON object per line with fields ``id`` (string), ``ts`` (unix seconds,
on a UTC day in years 1-9999), ``kind`` (tweet|reply|retweet|quote),
``text``, plus optional ``quoted_text`` (required for quotes), ``lang`` and
``lang_conf``. Malformed lines never abort a run: they are counted and
skipped, so that every input line is either parsed into exactly one record
or recorded in an error counter.

Records are immutable named tuples, and ``categorize`` splits each into its
parts, plain ``(category, text)`` pairs read beside their record: a part's
day and wire label are its record's. A record's ``day()`` is the UTC date of
its ``ts``: day number ``ts // 86400`` (floor division, so negative stamps
fall on the days before 1970-01-01) counted from 1970-01-01, where each
distinct day number becomes a ``date`` once and is then served from a
bounded cache keyed by that integer.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Union

KINDS = ("tweet", "reply", "retweet", "quote")

# message categories: organic (authored) vs retweeted content
OT = "OT"
RT = "RT"

_ERROR_KEYS = (
    "empty_line",
    "bad_encoding",
    "bad_json",
    "bad_record",
    "unknown_kind",
    "missing_quoted_text",
)

# unix seconds whose UTC day is a datetime.date (0001-01-01 .. 9999-12-31)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_TS_MIN = (datetime.min.replace(tzinfo=timezone.utc) - _EPOCH) // timedelta(seconds=1)
_TS_MAX = (datetime.max.replace(tzinfo=timezone.utc) - _EPOCH) // timedelta(seconds=1)


@dataclass
class ParseStats:
    """Line-level accounting for one parse run. Counters are mergeable sums."""

    parsed: int = 0
    errors: dict = field(default_factory=lambda: dict.fromkeys(_ERROR_KEYS, 0))

    @property
    def error_total(self) -> int:
        return sum(self.errors.values())


# proleptic Gregorian ordinal of day number 0 (ts // 86400 == 0)
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


# 8,192 days (22 years) holds a stream spanning the paper's 2009-2019 whole
@lru_cache(maxsize=1 << 13)
def _utc_date(day_number: int) -> date:
    """The date `day_number` days after 1970-01-01 (before it if negative)."""
    return date.fromordinal(_EPOCH_ORDINAL + day_number)


class MessageRecord(NamedTuple):
    """One wire message, timestamped in UTC seconds."""

    id: str
    ts: int
    kind: str
    text: str
    quoted_text: Optional[str] = None
    external_label: Optional[str] = None
    external_confidence: Optional[float] = None

    def day(self) -> date:
        return _utc_date(self.ts // 86400)


def _record_from_obj(obj) -> Union[MessageRecord, str]:
    """The record a decoded line holds, or the error key the line counts under.

    The kind is checked first: a string kind outside KINDS is
    unknown_kind and a quote without a string quoted_text is
    missing_quoted_text, whatever else is wrong with the line; every
    other fault is bad_record.
    """
    if not isinstance(obj, dict):
        return "bad_record"
    kind = obj.get("kind")
    if kind not in KINDS:
        return "unknown_kind" if isinstance(kind, str) else "bad_record"
    quoted = obj.get("quoted_text")
    if kind != "quote":
        quoted = None  # ignored on non-quotes, like any unrecognized field
    elif not isinstance(quoted, str):
        return "missing_quoted_text"
    msg_id = obj.get("id")
    text = obj.get("text")
    ts = obj.get("ts")
    if type(ts) is not int:
        # an integral float is a timestamp; a bool or anything else is not
        ts = int(ts) if type(ts) is float and ts.is_integer() else None
    if ts is None or not _TS_MIN <= ts <= _TS_MAX:
        return "bad_record"
    if not isinstance(msg_id, str) or not msg_id or not isinstance(text, str):
        return "bad_record"
    lang = obj.get("lang")
    conf = obj.get("lang_conf")
    if conf is not None:
        # anything but a finite number in [0, 1] (NaN, 7, an integer too big
        # for a float, a string) becomes NaN, which lid.wire_label reads as und
        conf = float(conf) if type(conf) in (int, float) and 0 <= conf <= 1 else math.nan
    return MessageRecord(
        msg_id, ts, kind, text, quoted, lang if isinstance(lang, str) else None, conf
    )


def parse_ndjson(lines: Iterable, stats: Optional[ParseStats] = None) -> Iterator[MessageRecord]:
    """Yield records from an iterable of NDJSON lines (str or bytes).

    Errors are tallied on ``stats`` (pass one in to observe them) and the
    offending lines skipped.
    """
    if stats is None:
        stats = ParseStats()
    errors = stats.errors
    for line in lines:
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                errors["bad_encoding"] += 1
                continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            # ValueError: a blank line, not JSON, or an integer past the
            # int-parsing digit limit; RecursionError: nesting deeper than
            # the decoder's stack
            errors["bad_json" if line.strip() else "empty_line"] += 1
            continue
        record = _record_from_obj(obj)
        if type(record) is str:
            errors[record] += 1
            continue
        stats.parsed += 1
        yield record


def categorize(msg: MessageRecord) -> list[tuple[str, str]]:
    """Split a message into its (category, text) parts.

    Tweets and replies are organic (OT); retweets are retweeted content
    (RT); quotes contribute both, the comment text as OT and the quoted
    text as RT, in that order. A part's day and wire label are its
    record's.
    """
    kind = msg.kind
    if kind in ("tweet", "reply"):
        return [(OT, msg.text)]
    if kind == "retweet":
        return [(RT, msg.text)]
    if kind == "quote":
        return [(OT, msg.text), (RT, msg.quoted_text or "")]
    raise ValueError("unknown message kind: %r" % (kind,))
