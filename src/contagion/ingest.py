"""NDJSON message ingestion.

One JSON object per line with fields ``id`` (string), ``ts`` (unix seconds,
on a UTC day in years 1-9999), ``kind`` (tweet|reply|retweet|quote),
``text``, plus optional ``quoted_text`` (required for quotes), ``lang`` and
``lang_conf``. Malformed lines never abort a run: they are counted and
skipped, so that every input line is either parsed into exactly one record
or recorded in an error counter.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Iterator, Optional

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

    def merge(self, other: "ParseStats") -> "ParseStats":
        out = ParseStats(parsed=self.parsed + other.parsed)
        for k in _ERROR_KEYS:
            out.errors[k] = self.errors[k] + other.errors[k]
        return out


@dataclass(frozen=True)
class MessageRecord:
    """One wire message, timestamped in UTC seconds."""

    id: str
    ts: int
    kind: str
    text: str
    quoted_text: Optional[str] = None
    external_label: Optional[str] = None
    external_confidence: Optional[float] = None

    def day(self) -> date:
        return datetime.fromtimestamp(self.ts, tz=timezone.utc).date()


@dataclass(frozen=True)
class CategorizedMessage:
    """A single OT or RT unit produced from a message."""

    id: str
    ts: int
    kind: str
    text: str
    category: str
    external_label: Optional[str] = None
    external_confidence: Optional[float] = None

    def day(self) -> date:
        return datetime.fromtimestamp(self.ts, tz=timezone.utc).date()


def _coerce_ts(value) -> Optional[int]:
    if isinstance(value, bool):
        return None
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and _TS_MIN <= value <= _TS_MAX:
        return value
    return None


def _record_from_obj(obj: dict) -> Optional[MessageRecord]:
    if not isinstance(obj, dict):
        return None
    msg_id = obj.get("id")
    text = obj.get("text")
    kind = obj.get("kind")
    ts = _coerce_ts(obj.get("ts"))
    if not isinstance(msg_id, str) or not msg_id or ts is None:
        return None
    if not isinstance(text, str) or not isinstance(kind, str):
        return None
    quoted = obj.get("quoted_text")
    if kind != "quote":
        quoted = None  # ignored on non-quotes, like any unrecognized field
    elif not isinstance(quoted, str):
        return None
    lang = obj.get("lang")
    conf = obj.get("lang_conf")
    if conf is not None:
        # anything but a finite number in [0, 1] (NaN, 7, an integer too big
        # for a float, a string) becomes NaN, which lid.wire_label reads as und
        conf = float(conf) if type(conf) in (int, float) and 0 <= conf <= 1 else math.nan
    return MessageRecord(
        id=msg_id,
        ts=ts,
        kind=kind,
        text=text,
        quoted_text=quoted,
        external_label=lang if isinstance(lang, str) else None,
        external_confidence=conf,
    )


def parse_ndjson(lines: Iterable, stats: Optional[ParseStats] = None) -> Iterator[MessageRecord]:
    """Yield records from an iterable of NDJSON lines (str or bytes).

    Errors are tallied on ``stats`` (pass one in to observe them) and the
    offending lines skipped.
    """
    if stats is None:
        stats = ParseStats()
    for line in lines:
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                stats.errors["bad_encoding"] += 1
                continue
        if not line.strip():
            stats.errors["empty_line"] += 1
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            # ValueError: not JSON, or an integer past the int-parsing digit
            # limit; RecursionError: nesting deeper than the decoder's stack
            stats.errors["bad_json"] += 1
            continue
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if isinstance(kind, str) and kind not in KINDS:
            stats.errors["unknown_kind"] += 1
            continue
        if isinstance(obj, dict) and kind == "quote" and not isinstance(obj.get("quoted_text"), str):
            stats.errors["missing_quoted_text"] += 1
            continue
        record = _record_from_obj(obj)
        if record is None:
            stats.errors["bad_record"] += 1
            continue
        stats.parsed += 1
        yield record


def categorize(msg: MessageRecord) -> list[CategorizedMessage]:
    """Split a message into OT/RT units.

    Tweets and replies are organic (OT); retweets are retweeted content
    (RT); quotes contribute both, the comment text as OT and the quoted
    text as RT, in that order. Quote halves get ``#c``/``#r`` id suffixes
    and inherit the record-level external label.
    """
    common = dict(
        ts=msg.ts,
        kind=msg.kind,
        external_label=msg.external_label,
        external_confidence=msg.external_confidence,
    )
    if msg.kind in ("tweet", "reply"):
        return [CategorizedMessage(id=msg.id, text=msg.text, category=OT, **common)]
    if msg.kind == "retweet":
        return [CategorizedMessage(id=msg.id, text=msg.text, category=RT, **common)]
    if msg.kind == "quote":
        return [
            CategorizedMessage(id=msg.id + "#c", text=msg.text, category=OT, **common),
            CategorizedMessage(id=msg.id + "#r", text=msg.quoted_text or "", category=RT, **common),
        ]
    raise ValueError("unknown message kind: %r" % (msg.kind,))
