"""Per-day, per-language message counters.

The tally layer sits between ingestion and analytics.  A TallyStore maps
each language to its days, and each (language, day) cell to a pair of
organic / retweeted counts, so every per-language read (a daily series,
a yearly table row) visits that language's cells and no others.  Stores
form a commutative monoid under merge, which is what makes shard-then-merge
ingestion safe: any partition of the input stream, tallied independently
and merged in any order, yields the same store as a single pass.

Also here: calendar re-bucketing (day/week/month/quarter/year) and a
trailing rolling mean over daily series, both of which operate on plain
(date, value) sequences so the analytics layer can reuse them for any
derived quantity.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, Tuple

from .ingest import OT, CategorizedMessage, ParseStats, categorize, parse_ndjson

RESOLUTIONS = ("day", "week", "month", "quarter", "year")
AGGREGATORS = ("mean", "sum")

CSV_HEADER = ("date", "language", "f_ot", "f_rt")
# largest count load_csv accepts: every integer up to it is an exact float,
# and the metrics take counts to float
MAX_COUNT = 2**53

DailyPoint = Tuple[dt.date, Optional[float]]
Cell = Tuple[dt.date, int, int]


@dataclass(frozen=True)
class DayTally:
    """Counts for one (day, language) cell.  f_at is derived, never stored."""

    date: dt.date
    language: str
    f_ot: int
    f_rt: int

    @property
    def f_at(self) -> int:
        return self.f_ot + self.f_rt


@dataclass(frozen=True)
class BucketedSeries:
    """A calendar-aligned series: (bucket start, value or None) pairs.

    Buckets are contiguous from the first to the last observed day; empty
    buckets carry None rather than being dropped, so consumers can tell
    "no data" from "zero".
    """

    resolution: str
    points: Tuple[Tuple[dt.date, Optional[float]], ...]

    def values(self) -> Tuple[Optional[float], ...]:
        return tuple(v for _, v in self.points)


class TallyStore:
    """Mergeable language -> day -> (f_ot, f_rt) counter map.

    Cells are keyed by language first, so a per-language read touches only
    that language's days.  Cells never persist at (0, 0) and no language
    persists without cells: incrementing by zero is a no-op, so nothing
    empty is ever stored and == compares the nested dicts directly.
    """

    def __init__(self) -> None:
        self.entries: dict[str, dict[dt.date, list[int]]] = {}
        self.errors: dict[str, int] = {}

    def __len__(self) -> int:
        return sum(len(days) for days in self.entries.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TallyStore):
            return NotImplemented
        return self.entries == other.entries and self.errors == other.errors

    def add(self, date: dt.date, language: str, category: str, n: int = 1) -> None:
        if category == OT:
            self.add_counts(date, language, n, 0)
        else:
            self.add_counts(date, language, 0, n)

    def add_counts(self, date: dt.date, language: str, f_ot: int, f_rt: int) -> None:
        """Add (f_ot, f_rt) to one cell; a (0, 0) increment stores nothing."""
        if f_ot < 0 or f_rt < 0:
            raise ValueError("count increments must be nonnegative")
        if not (f_ot or f_rt):
            return
        days = self.entries.get(language)
        if days is None:
            days = self.entries[language] = {}
        cell = days.get(date)
        if cell is None:
            days[date] = [f_ot, f_rt]
        else:
            cell[0] += f_ot
            cell[1] += f_rt

    def count_error(self, key: str, n: int = 1) -> None:
        if n:
            self.errors[key] = self.errors.get(key, 0) + n

    @property
    def error_total(self) -> int:
        return sum(self.errors.values())

    def get(self, date: dt.date, language: str) -> Tuple[int, int]:
        cell = self.entries.get(language, {}).get(date)
        return (cell[0], cell[1]) if cell else (0, 0)

    def languages(self) -> Tuple[str, ...]:
        return tuple(sorted(self.entries))

    def span(self) -> Optional[Tuple[dt.date, dt.date]]:
        """(first, last) observed day across all languages, or None if empty."""
        if not self.entries:
            return None
        return min(map(min, self.entries.values())), max(map(max, self.entries.values()))

    def rows(self) -> Iterator[DayTally]:
        """All cells as DayTally records, sorted by (date, language)."""
        cells = sorted(
            (date, lang, cell)
            for lang, days in self.entries.items()
            for date, cell in days.items()
        )
        for date, lang, (f_ot, f_rt) in cells:
            yield DayTally(date, lang, f_ot, f_rt)

    def cells(self, language: str) -> list[Cell]:
        """This language's cells only, as plain (date, f_ot, f_rt) tuples sorted by date."""
        days = self.entries.get(language, {})
        return [(date, f_ot, f_rt) for date, (f_ot, f_rt) in sorted(days.items())]

    def daily_counts(self, language: str) -> Tuple[DayTally, ...]:
        """This language's cells only, as DayTally records sorted by date."""
        return tuple(
            DayTally(date, language, f_ot, f_rt) for date, f_ot, f_rt in self.cells(language)
        )

    def total_messages(self) -> int:
        return sum(f_ot + f_rt for days in self.entries.values() for f_ot, f_rt in days.values())


def accumulate(store: TallyStore, msg: CategorizedMessage, label: str) -> TallyStore:
    """Count one categorized message under `label` on its UTC day."""
    store.add(msg.day(), label, msg.category)
    return store


def merge(a: TallyStore, b: TallyStore) -> TallyStore:
    """Entrywise sum of two stores; error counters sum as well."""
    out = TallyStore()
    for store in (a, b):
        for lang, days in store.entries.items():
            out_days = out.entries.setdefault(lang, {})
            for date, (f_ot, f_rt) in days.items():
                cell = out_days.setdefault(date, [0, 0])
                cell[0] += f_ot
                cell[1] += f_rt
        for key, n in store.errors.items():
            out.count_error(key, n)
    return out


def ingest_tally(
    lines: Iterable,
    labeler: Callable[[CategorizedMessage], str],
    stats: Optional[ParseStats] = None,
) -> TallyStore:
    """Parse an NDJSON stream, categorize, label and tally it in one pass.

    `labeler` maps each categorized message to a language code; parse
    errors land in the store's error counters so the conservation check
    (#input records = tallied + skipped) stays auditable.
    """
    stats = stats if stats is not None else ParseStats()
    store = TallyStore()
    for record in parse_ndjson(lines, stats=stats):
        for part in categorize(record):
            accumulate(store, part, labeler(part))
    for key, n in stats.errors.items():
        store.count_error(key, n)
    return store


def save_csv(store: TallyStore, fh: TextIO) -> None:
    """Write the store as `date,language,f_ot,f_rt`, sorted by (date, language)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in store.rows():
        writer.writerow((row.date.isoformat(), row.language, row.f_ot, row.f_rt))


def load_csv(fh: TextIO) -> TallyStore:
    """Inverse of save_csv.  Raises ValueError on a malformed file."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty tally file") from None
    if tuple(header) != CSV_HEADER:
        raise ValueError("bad tally header: %r" % (header,))
    store = TallyStore()
    dates: dict[str, dt.date] = {}  # every language repeats each day's string
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ValueError("line %d: expected 4 fields, got %d" % (lineno, len(row)))
        day, language, ot, rt = row
        try:
            date = dates.get(day)
            if date is None:
                date = dates[day] = dt.date.fromisoformat(day)
            f_ot, f_rt = int(ot), int(rt)
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
        if not (0 <= f_ot <= MAX_COUNT and 0 <= f_rt <= MAX_COUNT):
            problem = "negative count" if f_ot < 0 or f_rt < 0 else "count above 2**53"
            raise ValueError("line %d: %s" % (lineno, problem))
        store.add_counts(date, language, f_ot, f_rt)
    return store


def bucket_start(date: dt.date, resolution: str) -> dt.date:
    """Aligned start of the bucket containing `date`.

    Weeks are ISO (Monday start); months, quarters and years follow the
    civil calendar, all in UTC.
    """
    if resolution == "day":
        return date
    if resolution == "week":
        return date - dt.timedelta(days=date.weekday())
    if resolution == "month":
        return date.replace(day=1)
    if resolution == "quarter":
        month = 3 * ((date.month - 1) // 3) + 1
        return date.replace(month=month, day=1)
    if resolution == "year":
        return date.replace(month=1, day=1)
    raise ValueError("unknown resolution %r" % resolution)


# resolution -> (integer key of a day's bucket, aligned start of a key's
# bucket).  Keys of consecutive buckets are consecutive integers, and each
# start agrees with bucket_start.  Ordinal 1 (0001-01-01) is a Monday, so
# weekday() == (toordinal() - 1) % 7 and ISO weeks are runs of 7 ordinals.
_BUCKET_KEYS: dict[str, Tuple[Callable[[dt.date], int], Callable[[int], dt.date]]] = {
    "day": (dt.date.toordinal, dt.date.fromordinal),
    "week": (lambda d: (d.toordinal() - 1) // 7, lambda k: dt.date.fromordinal(7 * k + 1)),
    "month": (lambda d: d.year * 12 + d.month - 1, lambda k: dt.date(k // 12, k % 12 + 1, 1)),
    "quarter": (
        lambda d: d.year * 4 + (d.month - 1) // 3,
        lambda k: dt.date(k // 4, 3 * (k % 4) + 1, 1),
    ),
    "year": (attrgetter("year"), lambda k: dt.date(k, 1, 1)),
}


def _mean(values: Sequence[float]) -> float:
    # fsum keeps bucket means exact for constant series (pairwise
    # summation in numpy drifts by an ulp on e.g. 365 copies of 7.29).
    return math.fsum(values) / len(values)


def rebucket(
    series: Sequence[DailyPoint], resolution: str, aggregator: str = "mean"
) -> BucketedSeries:
    """Group a sorted daily series into aligned calendar buckets.

    Missing days (value None) never contribute; a bucket with no defined
    values comes out as None.  `aggregator` is "mean" or "sum".
    """
    if resolution not in RESOLUTIONS:
        raise ValueError("unknown resolution %r" % resolution)
    if aggregator not in AGGREGATORS:
        raise ValueError("unknown aggregator %r" % aggregator)
    if not series:
        return BucketedSeries(resolution, ())
    dates = [d for d, _ in series]
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise ValueError("daily series must be strictly increasing in date")

    # a sorted series visits each bucket in one run of equal keys
    key_of, start_of = _BUCKET_KEYS[resolution]
    points = []
    next_key = key_of(dates[0])
    keyed = zip(map(key_of, dates), (value for _, value in series))
    for key, run in groupby(keyed, itemgetter(0)):
        points.extend((start_of(k), None) for k in range(next_key, key))
        values = [float(value) for _, value in run if value is not None]
        if not values:
            agg: Optional[float] = None
        elif aggregator == "mean":
            agg = _mean(values)
        else:
            agg = math.fsum(values)
        points.append((start_of(key), agg))
        next_key = key + 1
    return BucketedSeries(resolution, tuple(points))


def rolling_mean(series: Sequence[DailyPoint], window_days: int) -> Tuple[DailyPoint, ...]:
    """Trailing mean over the previous `window_days` days including today.

    Emits one point per calendar day from the first to the last date in
    the input; a day whose window holds no defined values yields None.
    """
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    if not series:
        return ()
    dates = [d for d, _ in series]
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise ValueError("daily series must be strictly increasing in date")

    # values[i] is day first + i, so each window is one slice, read newest
    # day first: fsum rounds exactly, but its intermediate-overflow error
    # depends on the order of the summands
    first = dates[0].toordinal()
    values: list[Optional[float]] = [None] * (dates[-1].toordinal() - first + 1)
    for day, value in series:
        values[day.toordinal() - first] = value
    out = []
    for i in range(len(values)):
        lo = max(0, i - window_days + 1)
        window = [v for v in reversed(values[lo : i + 1]) if v is not None]
        out.append((dt.date.fromordinal(first + i), _mean(window) if window else None))
    return tuple(out)
