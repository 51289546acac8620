"""Headline analytics over tally stores.

Core quantities per (day, language) cell, writing N_ot and N_rt for the
organic and retweeted counts and N_at = N_ot + N_rt:

    rates:  p_ot = N_ot / N_at,  p_rt = N_rt / N_at
    ratio:  R = N_rt / N_ot           (undefined when N_ot = 0)
    gain:   G = 10 log10(N_at / N_ot) = 10 log10(1 + R), in decibels

A ratio above 1 (equivalently a gain above 10 log10 2 ~ 3.0103 dB) means
retweeted copies outnumber organic messages: more than half the volume
is amplification.  Undefined cells are carried as None, never 0 or inf,
so bucket means stay honest.

Also here: rank / Zipf tables, Pareto fronts over (volume, gain), and
the annual export that feeds the forecasting stage.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .tally import RESOLUTIONS, BucketedSeries, Counts, Reducer, TallyStore, rebucket

METHODS = ("mean_of_daily", "ratio_of_sums")

CONTAGION_THRESHOLD_DB = 10.0 * math.log10(2.0)


@dataclass(frozen=True)
class RankRow:
    rank: int
    language: str
    count: int


@dataclass(frozen=True)
class RankTable:
    """Languages ranked by total volume over a period.

    Counts are non-increasing; ties broken by language code.  zipf()
    re-expresses the same ordering as (rank, usage rate) pairs.
    """

    period: Tuple[Optional[dt.date], Optional[dt.date]]
    rows: Tuple[RankRow, ...]

    def zipf(self) -> Tuple[Tuple[int, float], ...]:
        total = sum(r.count for r in self.rows)
        if total == 0:
            return ()
        return tuple((r.rank, r.count / total) for r in self.rows)


def contagion_ratio(f_ot: int, f_rt: int) -> Optional[float]:
    """R = N_rt / N_ot; None when there are no organic messages."""
    if f_ot == 0:
        return None
    return f_rt / f_ot


def gain(f_ot: int, f_rt: int) -> Optional[float]:
    """G = 10 log10(N_at / N_ot) dB; None when there are no organic messages."""
    if f_ot == 0:
        return None
    return 10.0 * math.log10((f_ot + f_rt) / f_ot)


# metric -> its value on one (f_ot, f_rt) cell, None where undefined: the
# one per-cell definition of each metric
PER_CELL: dict[str, Callable[[int, int], Optional[float]]] = {
    "ratio": contagion_ratio,
    "gain": gain,
    "p_ot": lambda f_ot, f_rt: f_ot / (f_ot + f_rt) if f_ot + f_rt else None,
    "p_rt": lambda f_ot, f_rt: f_rt / (f_ot + f_rt) if f_ot + f_rt else None,
}
METRICS = tuple(PER_CELL)


def rates(f_ot: int, f_rt: int) -> Optional[Tuple[float, float]]:
    """Normalized (p_ot, p_rt) shares; None when the cell is empty."""
    if f_ot + f_rt == 0:
        return None
    return PER_CELL["p_ot"](f_ot, f_rt), PER_CELL["p_rt"](f_ot, f_rt)


def daily_series(
    store: TallyStore, language: str, metric: str = "ratio"
) -> Tuple[Tuple[dt.date, Optional[float]], ...]:
    """One (date, value) point per observed day for a language.

    Undefined days (metric has no value for the cell) carry None; this is
    the raw input for rebucket and rolling_mean.
    """
    if metric not in METRICS:
        raise ValueError("unknown metric %r" % metric)
    per_cell = PER_CELL[metric]
    return tuple(
        (date, per_cell(f_ot, f_rt)) for date, (f_ot, f_rt) in store.day_counts(language)
    )


def aggregate_metric(
    store: TallyStore,
    language: str,
    resolution: str = "year",
    metric: str = "ratio",
    method: str = "mean_of_daily",
) -> BucketedSeries:
    """Bucketed metric series for one language.

    mean_of_daily (default) averages the defined daily values inside each
    bucket; ratio_of_sums first sums the counts over the bucket and applies
    the metric once.  The two agree when daily counts are proportional and
    diverge otherwise, which is why both are kept.
    """
    if metric not in METRICS:
        raise ValueError("unknown metric %r" % metric)
    if method not in METHODS:
        raise ValueError("unknown method %r" % method)
    if resolution not in RESOLUTIONS:
        raise ValueError("unknown resolution %r" % resolution)
    return rebucket(store.day_counts(language), resolution, bucket_reducer(metric, method))


# metric -> the defined PER_CELL values of a run of (f_ot, f_rt) cells, in
# order: PER_CELL's formulas written out per metric, because this is the
# per-cell loop of every bucketed read (tests pin it to PER_CELL bit for bit)
_DEFINED_DAILY = {
    "ratio": lambda cells: [f_rt / f_ot for f_ot, f_rt in cells if f_ot],
    "gain": lambda cells: [
        10.0 * math.log10((f_ot + f_rt) / f_ot) for f_ot, f_rt in cells if f_ot
    ],
    "p_ot": lambda cells: [f_ot / (f_ot + f_rt) for f_ot, f_rt in cells if f_ot + f_rt],
    "p_rt": lambda cells: [f_rt / (f_ot + f_rt) for f_ot, f_rt in cells if f_ot + f_rt],
}


def bucket_reducer(metric: str, method: str) -> Reducer:
    """Reducer from one bucket's (f_ot, f_rt) cells, in date order, to its metric value."""
    if method == "mean_of_daily":
        defined_daily = _DEFINED_DAILY[metric]

        def mean_of_daily(cells: Sequence[Counts]) -> Optional[float]:
            values = defined_daily(cells)
            # fsum keeps bucket means exact for constant series
            return math.fsum(values) / len(values) if values else None

        return mean_of_daily

    per_cell = PER_CELL[metric]

    def ratio_of_sums(cells: Sequence[Counts]) -> Optional[float]:
        # exact integer sums: a float sum would round past 2**53
        return per_cell(*map(sum, zip(*cells)))

    return ratio_of_sums


def rank_table(
    store: TallyStore,
    period: Tuple[Optional[dt.date], Optional[dt.date]] = (None, None),
) -> RankTable:
    """Rank languages by total message volume inside [start, end] inclusive."""
    start, end = period
    totals: dict[str, int] = {}
    for lang in store.languages():
        for date, (f_ot, f_rt) in store.day_counts(lang):
            if (start is None or date >= start) and (end is None or date <= end):
                totals[lang] = totals.get(lang, 0) + f_ot + f_rt
    ordered = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = tuple(
        RankRow(rank, lang, count) for rank, (lang, count) in enumerate(ordered, 1)
    )
    return RankTable(period, rows)


def pareto_front(
    points: Iterable[Tuple[float, float, str]]
) -> Tuple[Tuple[float, float, str], ...]:
    """Non-dominated subset of (n_messages, gain_db, language) triples.

    A point is dominated if some other point is >= on both coordinates and
    > on at least one; exact duplicates survive together.  Output sorted
    by n_messages ascending.
    """
    pts = list(points)
    front = []
    for i, (n_i, g_i, _) in enumerate(pts):
        dominated = False
        for j, (n_j, g_j, _) in enumerate(pts):
            if j == i:
                continue
            if n_j >= n_i and g_j >= g_i and (n_j > n_i or g_j > g_i):
                dominated = True
                break
        if not dominated:
            front.append(pts[i])
    return tuple(sorted(front, key=lambda p: (p[0], p[1], p[2])))


def annual_glm_table(
    store: TallyStore, method: str = "mean_of_daily"
) -> Tuple[Tuple[int, str, float, float], ...]:
    """Per language-year rows (year, language, log10 N_at, annual ratio).

    This is the hand-off format to the forecasting stage, which models how
    a language's annual ratio scales with its volume.  Language-years with
    zero volume or an undefined ratio are dropped.
    """
    if method not in METHODS:
        raise ValueError("unknown method %r" % method)
    ratio_of = bucket_reducer("ratio", method)

    def year_row(cells: Sequence[Counts]) -> Optional[Tuple[float, float]]:
        # one pass per language-year gives its volume and its ratio
        ratio = ratio_of(cells)
        return None if ratio is None else (math.log10(sum(map(sum, cells))), ratio)

    rows = []
    for lang in store.languages():
        for start, row in rebucket(store.day_counts(lang), "year", year_row).points:
            if row is not None:
                rows.append((start.year, lang) + row)
    return tuple(sorted(rows))
