"""Per-day, per-language message counters.

The tally layer sits between ingestion and analytics.  A TallyStore maps
each language to its days, and each (language, day) cell to an immutable
(f_ot, f_rt) tuple of organic / retweeted counts, so every per-language
read (a daily series, a yearly table row) visits that language's cells
and no others.  Stores
form a commutative monoid under merge, which is what makes shard-then-merge
ingestion safe: any partition of the input stream, tallied independently
and merged in any order, yields the same store as a single pass.

Also here: calendar re-bucketing (day/week/month/quarter/year) and a
trailing rolling mean over daily series, both of which operate on plain
(date, value) sequences so the analytics layer can reuse them for any
derived quantity: rebucket hands each bucket's values to a reducer, so a
bucket of (f_ot, f_rt) cells can be reduced straight from its counts.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import attrgetter, ge, itemgetter
from typing import Any, Callable, Iterable, Optional, Sequence, TextIO, Tuple, Union

from .ingest import OT, CategorizedMessage, ParseStats, categorize, parse_ndjson

RESOLUTIONS = ("day", "week", "month", "quarter", "year")
AGGREGATORS = ("mean", "sum")

CSV_HEADER = ("date", "language", "f_ot", "f_rt")
# largest count load_csv accepts: every integer up to it is an exact float,
# and the metrics take counts to float
MAX_COUNT = 2**53

DailyPoint = Tuple[dt.date, Optional[float]]
Counts = Tuple[int, int]  # (f_ot, f_rt)
Row = Tuple[dt.date, str, int, int]
Reducer = Callable[[list], Any]


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
    "no data" from "zero".  A value is whatever the bucket's reducer gave,
    a float or None for the "mean" and "sum" aggregators.
    """

    resolution: str
    points: Tuple[Tuple[dt.date, Any], ...]

    def values(self) -> Tuple[Any, ...]:
        return tuple(v for _, v in self.points)


class TallyStore:
    """Mergeable language -> day -> (f_ot, f_rt) counter map.

    Cells are keyed by language first, so a per-language read touches only
    that language's days.  Each cell is an immutable (f_ot, f_rt) tuple,
    replaced on every increment, so stores may share cells.  Cells never
    persist at (0, 0) and no language persists without cells: incrementing
    by zero is a no-op, so nothing empty is ever stored and == compares the
    nested dicts directly.
    """

    def __init__(self) -> None:
        self.entries: dict[str, dict[dt.date, Counts]] = {}
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
        days[date] = (f_ot, f_rt) if cell is None else (cell[0] + f_ot, cell[1] + f_rt)

    def count_error(self, key: str, n: int = 1) -> None:
        if n:
            self.errors[key] = self.errors.get(key, 0) + n

    @property
    def error_total(self) -> int:
        return sum(self.errors.values())

    def get(self, date: dt.date, language: str) -> Counts:
        return self.entries.get(language, {}).get(date, (0, 0))

    def languages(self) -> Tuple[str, ...]:
        return tuple(sorted(self.entries))

    def rows(self) -> list[Row]:
        """All cells as (date, language, f_ot, f_rt) tuples, sorted by (date, language)."""
        return sorted(
            (date, lang, f_ot, f_rt)
            for lang, days in self.entries.items()
            for date, (f_ot, f_rt) in days.items()
        )

    def day_counts(self, language: str) -> list[Tuple[dt.date, Counts]]:
        """This language's cells only, as (date, (f_ot, f_rt)) pairs sorted by date."""
        return sorted(self.entries.get(language, {}).items())

    def daily_counts(self, language: str) -> Tuple[DayTally, ...]:
        """This language's cells only, as DayTally records sorted by date."""
        return tuple(
            DayTally(date, language, f_ot, f_rt)
            for date, (f_ot, f_rt) in self.day_counts(language)
        )


def accumulate(store: TallyStore, msg: CategorizedMessage, label: str) -> TallyStore:
    """Count one categorized message under `label` on its UTC day."""
    store.add(msg.day(), label, msg.category)
    return store


def merge(a: TallyStore, b: TallyStore) -> TallyStore:
    """Entrywise sum of two stores; error counters sum as well."""
    # cells are immutable, so `a`'s can be shared: copy its day dicts and
    # add `b`'s cells on top
    out = TallyStore()
    out.entries = {lang: dict(days) for lang, days in a.entries.items()}
    out.errors = dict(a.errors)
    for lang, days in b.entries.items():
        for date, (f_ot, f_rt) in days.items():
            out.add_counts(date, lang, f_ot, f_rt)
    for key, n in b.errors.items():
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
    writer.writerows(store.rows())  # str(date) is its ISO form


# bounded: a hostile file can hold any number of distinct count strings
@lru_cache(maxsize=1 << 12)
def _count(field: str) -> int:
    """The count in a tally field written as save_csv writes it, ``str(n)``.

    int() alone would also read ``1_000``, `` 1``, ``+4`` and non-ASCII
    decimal digits; a field in any form but str(n) is an error.
    """
    n = int(field)
    if str(n) != field:
        raise ValueError("count %r is not in the form save_csv writes" % field)
    return n


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
    entries = store.entries  # written in place: add_counts per row costs a call
    dates: dict[str, dt.date] = {}  # every language repeats each day's string
    # errors name reader.line_num, the physical line: a quoted field may span lines
    for row in reader:
        if not row:
            continue
        if len(row) != 4:
            raise ValueError("line %d: expected 4 fields, got %d" % (reader.line_num, len(row)))
        day, language, ot, rt = row
        try:
            date = dates.get(day)
            if date is None:
                date = dt.date.fromisoformat(day)
                if date.isoformat() != day:  # save_csv writes YYYY-MM-DD only
                    raise ValueError("date %r is not in YYYY-MM-DD form" % day)
                dates[day] = date
            f_ot, f_rt = _count(ot), _count(rt)
        except ValueError as exc:
            raise ValueError("line %d: %s" % (reader.line_num, exc)) from None
        if not (0 <= f_ot <= MAX_COUNT and 0 <= f_rt <= MAX_COUNT):
            problem = "negative count" if f_ot < 0 or f_rt < 0 else "count above 2**53"
            raise ValueError("line %d: %s" % (reader.line_num, problem))
        if f_ot or f_rt:  # as add_counts: a (0, 0) row stores nothing
            days = entries.get(language)
            if days is None:
                days = entries[language] = {}
            cell = days.get(date)
            days[date] = (f_ot, f_rt) if cell is None else (cell[0] + f_ot, cell[1] + f_rt)
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


def _over_defined(fold: Callable[[list[float]], float]) -> Reducer:
    """Reducer folding a bucket's defined values; None when it has none."""

    def reduce(values: Sequence[Optional[float]]) -> Optional[float]:
        defined = [float(v) for v in values if v is not None]
        return fold(defined) if defined else None

    return reduce


_REDUCERS = {"mean": _over_defined(_mean), "sum": _over_defined(math.fsum)}


def _increasing_dates(series: Sequence[Tuple[dt.date, Any]]) -> list[dt.date]:
    dates = list(map(itemgetter(0), series))
    if any(map(ge, dates, islice(dates, 1, None))):
        raise ValueError("daily series must be strictly increasing in date")
    return dates


def rebucket(
    series: Sequence[Tuple[dt.date, Any]],
    resolution: str,
    aggregator: Union[str, Reducer] = "mean",
) -> BucketedSeries:
    """Group a sorted daily series into aligned calendar buckets.

    `aggregator` is "mean", "sum" or a reducer: a function from the list
    of one bucket's values, in date order, to the bucket's value.  A
    bucket without days comes out as None and never reaches the reducer.
    "mean" and "sum" skip missing days (value None) and give None for a
    bucket with no defined values.
    """
    if resolution not in RESOLUTIONS:
        raise ValueError("unknown resolution %r" % resolution)
    if callable(aggregator):
        reduce = aggregator
    elif aggregator in AGGREGATORS:
        reduce = _REDUCERS[aggregator]
    else:
        raise ValueError("unknown aggregator %r" % (aggregator,))
    if not series:
        return BucketedSeries(resolution, ())
    dates = _increasing_dates(series)
    values = list(map(itemgetter(1), series))

    # each bucket's days are one run of the sorted dates, ended by the
    # next bucket's start: one bisection per bucket, no key per day
    key_of, start_of = _BUCKET_KEYS[resolution]
    first, last = key_of(dates[0]), key_of(dates[-1])
    points = []
    lo, start = 0, start_of(first)
    for key in range(first, last + 1):
        # the last bucket ends the series (its successor may not be a date)
        end = start_of(key + 1) if key < last else None
        hi = len(dates) if end is None else bisect_left(dates, end, lo)
        points.append((start, reduce(values[lo:hi]) if hi > lo else None))
        lo, start = hi, end
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
    dates = _increasing_dates(series)

    # each window is one slice of the defined values, read newest day
    # first: fsum rounds exactly, but its intermediate-overflow error
    # depends on the order of the summands
    days = [day.toordinal() for day, value in series if value is not None]
    values = [value for _, value in series if value is not None]
    out = []
    for ordinal in range(dates[0].toordinal(), dates[-1].toordinal() + 1):
        end = bisect_right(days, ordinal)
        window = values[bisect_right(days, ordinal - window_days, 0, end) : end]
        window.reverse()
        out.append((dt.date.fromordinal(ordinal), _mean(window) if window else None))
    return tuple(out)
